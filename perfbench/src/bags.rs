//! `bag_plain` and `bag_traced`: a large bag of one-core sleep units on one
//! plain pilot. The plain bag exercises the engine, Unit-Manager,
//! coordination store and agent only; the traced bag runs the same bag on
//! `Engine::with_trace` and then does what a user does to get a figure:
//! Chrome export, critical path and phase aggregation.

use std::io::{self, Write};

use rp_pilot::{
    when_all_done, ComputeUnitDescription, PilotDescription, PilotManager, Session, SessionConfig,
    UmScheduler, UnitManager, WorkSpec,
};
use rp_sim::{aggregate_roots, critical_path_run, Engine, SimDuration, SimRng};

use crate::alloc;
use crate::clock::Clock;
use crate::rep::{digest, exactly_once, unit_table, Census, Rep};

/// Units in the bag.
const UNITS: usize = 50_000;
/// Nodes of the pilot (16 cores each).
const NODES: u32 = 32;

pub struct BagInput {
    seed: u64,
    descs: Vec<ComputeUnitDescription>,
}

/// Sleep durations of 30–300 s, drawn from `seed`.
pub fn input(seed: u64) -> BagInput {
    let mut rng = SimRng::new(seed);
    let descs = (0..UNITS)
        .map(|i| {
            let sleep = SimDuration::from_secs(rng.uniform_u64(30, 300));
            ComputeUnitDescription::new(format!("u{i}"), 1, WorkSpec::Sleep(sleep))
        })
        .collect();
    BagInput { seed, descs }
}

/// An `io::Write` that keeps only the byte count.
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One repetition; `traced` selects `Engine::with_trace` and the traced
/// report (export, critical path, phase aggregation).
pub fn rep(input: &BagInput, clock: &mut Clock, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let base = alloc::reset_peak();
    let descs = input.descs.clone();
    rep.units = descs.len() as u64;
    rep.ops = rep.units;
    let a0 = alloc::snapshot();
    let t_rep = clock.begin("rep", "bench");

    let t = clock.begin("setup", "bench");
    let mut e = if traced {
        Engine::with_trace(input.seed)
    } else {
        Engine::new(input.seed)
    };
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let tp = clock.begin("pilot.submit", "um");
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", NODES, SimDuration::from_secs(7 * 86_400)),
        )
        .expect("the plain pilot submits");
    let secs = clock.end(tp);
    rep.time("pilot.submit_s", secs);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    rep.setup_s = clock.end(t);
    rep.setup_allocs = alloc::snapshot().since(a0);

    let t_work = clock.begin("work", "bench");
    let a = alloc::snapshot();
    let t = clock.begin("um.submit_units", "um");
    let units = um.submit_units(&mut e, descs);
    rep.submit_s = clock.end(t);
    rep.submit_allocs = alloc::snapshot().since(a);
    let sess = session.clone();
    let p = pilot.clone();
    when_all_done(&mut e, &units, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    let (a, ev) = (alloc::snapshot(), e.events_executed());
    let t = clock.begin("engine.run", "engine");
    e.run();
    rep.drain_s = clock.end(t);
    rep.drain_allocs = alloc::snapshot().since(a);
    rep.drain_events = e.events_executed() - ev;
    rep.work_s = clock.end(t_work);

    let t_report = clock.begin("report", "bench");
    let a = alloc::snapshot();
    let census = Census::of(&units);
    let mut table = String::new();
    unit_table(&mut table, "bag", &units);
    let mut obs_fingerprint = String::new();
    if traced {
        let t = clock.begin("trace.write_chrome_json", "obs");
        let mut sink = CountingSink(0);
        e.trace
            .write_chrome_json(&mut sink)
            .expect("a counting sink never fails");
        rep.time("obs.export_s", clock.end(t));
        rep.count("obs.export_bytes", sink.0 as f64);
        let t = clock.begin("critical_path_run", "obs");
        let cp = critical_path_run(&e.trace);
        rep.time("obs.critpath_s", clock.end(t));
        let t = clock.begin("aggregate_roots", "obs");
        let phases = aggregate_roots(&e.trace, "unit.run");
        rep.time("obs.profile_s", clock.end(t));
        let makespan = cp.as_ref().map(|c| c.makespan_secs()).unwrap_or(0.0);
        rep.check(makespan > 0.0 && phases.total_secs() > 0.0, || {
            format!(
                "empty report: critical path {makespan} s, phases {} s",
                phases.total_secs()
            )
        });
        rep.check(sink.0 > 0, || "empty Chrome export".into());
        obs_fingerprint = format!(" critpath_s={makespan:.6} spans={}", e.trace.span_count());
    }
    rep.report_s = clock.end(t_report);
    rep.report_allocs = alloc::snapshot().since(a);
    rep.allocs = alloc::snapshot().since(a0);
    rep.peak_bytes = alloc::peak() - base;
    rep.total_s = clock.end(t_rep);

    rep.done = census.done;
    rep.failed = rep.units - census.done;
    let units = rep.units;
    rep.check(census.done == units, || {
        format!(
            "{} of {units} units Done ({})",
            census.done,
            census.describe()
        )
    });
    let pilots = [pilot];
    if let Err(why) = exactly_once(&session.store(), &pilots, census.done) {
        rep.problems.push(why);
    }
    rep.fingerprint = format!(
        "{} end_s={:.6} events={} table={:016x}{obs_fingerprint}",
        census.describe(),
        e.now().as_secs_f64(),
        e.events_executed(),
        digest(&table)
    );
    rep.count_stack(&session.store(), &pilots, um.rebinds());
    rep.count_max("engine.slab_peak", e.slab_len() as f64);
    rep.count("engine.events", e.events_executed() as f64);
    if traced {
        rep.count("obs.spans", e.trace.span_count() as f64);
        rep.count_max("obs.peak_live_spans", e.trace.peak_live_spans() as f64);
        rep.count_max("obs.symbols", e.trace.symbols().len() as f64);
    }
    rep
}

/// `engine.probe_events_per_s`: `events` no-op events on a bare engine,
/// kept in flight as 64 self-rescheduling chains with seeded delays.
pub fn engine_probe(seed: u64, events: u64, clock: &mut Clock) -> f64 {
    use std::cell::Cell;
    use std::rc::Rc;

    fn hop(e: &mut Engine, left: Rc<Cell<u64>>) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        let delay = SimDuration::from_millis(1 + e.rng.uniform_u64(0, 1_000));
        e.schedule_in(delay, move |eng| hop(eng, left));
    }

    let t = clock.begin("engine.probe", "engine");
    let mut e = Engine::new(seed);
    let left = Rc::new(Cell::new(events));
    for _ in 0..64 {
        let left = left.clone();
        e.schedule_now(move |eng| hop(eng, left));
    }
    e.run();
    let secs = clock.end(t);
    assert!(e.events_executed() >= events, "the probe ran every event");
    e.events_executed() as f64 / secs
}

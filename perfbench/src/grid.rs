//! `fault_grid`: many short two-pilot sessions over a consecutive seed
//! range. Every seed runs twice: once in the chaos-soak configuration
//! (mixed faults, lossy store, failover) and once in the split-brain
//! configuration (leases, a partition plan, a lossy store on even seeds
//! and a guaranteed zombie window). A session that panics, wedges past
//! the virtual-time backstop, leaves a unit non-terminal or breaks
//! exactly-once counts as one failed operation; its seed is listed.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use rp_pilot::{
    install_faults_multi, ComputeUnitDescription, LossProfile, PilotDescription, PilotHandle,
    PilotManager, Session, SessionConfig, UmScheduler, UnitHandle, UnitManager, WorkSpec,
};
use rp_sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};

use crate::alloc;
use crate::clock::Clock;
use crate::rep::{digest, exactly_once, unit_table, Census, Rep};

/// Consecutive seeds per run; each runs in both configurations.
const SEEDS: u64 = 256;
const UNITS: usize = 12;
/// Virtual-time backstop, past the pilots' walltime.
const HORIZON_S: f64 = 20_000.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Config {
    Chaos,
    SplitBrain,
}

pub struct GridInput {
    seeds: std::ops::Range<u64>,
    chaos_units: Vec<ComputeUnitDescription>,
    split_units: Vec<ComputeUnitDescription>,
}

/// Seeds `seed · SEEDS + 1 ..= (seed + 1) · SEEDS`: a plain consecutive
/// range, so seed 0 covers 1..=256.
pub fn input(seed: u64) -> GridInput {
    let start = seed.wrapping_mul(SEEDS).wrapping_add(1);
    let sleep = |i: usize, s: u64| {
        ComputeUnitDescription::new(
            format!("c{i}"),
            1,
            WorkSpec::Sleep(SimDuration::from_secs(s)),
        )
    };
    GridInput {
        seeds: start..start.wrapping_add(SEEDS),
        chaos_units: (0..UNITS).map(|i| sleep(i, 150)).collect(),
        // Staggered short sleeps: the first wave completes inside the
        // partition-to-fence window.
        split_units: (0..UNITS)
            .map(|i| sleep(i, 15 + (i as u64 % 4) * 10))
            .collect(),
    }
}

/// Host times of one session, kept outside the unwind boundary so a
/// panicking session still reports the time it spent.
#[derive(Default)]
struct Times {
    setup_s: f64,
    work_started: Option<Instant>,
}

fn session(
    seed: u64,
    config: Config,
    descs: Vec<ComputeUnitDescription>,
    clock: &mut Clock,
    rep: &mut Rep,
    times: &mut Times,
    finished: &mut Vec<(u64, Config, Vec<UnitHandle>)>,
) -> Result<(), String> {
    let a = alloc::snapshot();
    let t_setup = clock.begin("setup", "bench");
    let mut e = Engine::new(seed);
    let mut cfg = SessionConfig::test_profile();
    let lossy = config == Config::Chaos || seed.is_multiple_of(2);
    if lossy {
        let (drop_p, dup_p) = match config {
            Config::Chaos => (0.15, 0.10),
            Config::SplitBrain => (0.10, 0.05),
        };
        cfg.coordination.loss = LossProfile {
            drop_p,
            dup_p,
            delay_jitter_ms: 25.0,
            seed,
        };
    }
    let session = Session::new(cfg);
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            let t = clock.begin("pilot.submit", "um");
            let p = pm
                .submit(
                    &mut e,
                    PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
                )
                .expect("pilot submits");
            let secs = clock.end(t);
            rep.time("pilot.submit_s", secs);
            p
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    let horizon = SimDuration::from_secs(1_800);
    let plan = match config {
        Config::Chaos => {
            um.enable_failover(&mut e);
            um.set_heartbeat_gap(&mut e, SimDuration::from_secs(120));
            FaultPlan::generate_mixed(seed, horizon, 3, pilots.len(), 8)
        }
        Config::SplitBrain => {
            um.enable_leases(
                &mut e,
                SimDuration::from_secs(60),
                SimDuration::from_secs(30),
            );
            let mut plan = FaultPlan::generate_partitioned(seed, horizon, 3, pilots.len(), 6);
            // Guaranteed zombie: one pilot is cut off at 50 s for 300 s,
            // long past lease expiry plus grace.
            plan.events.push(FaultEvent {
                at: SimTime::from_secs_f64(50.0),
                kind: FaultKind::Partition {
                    pilot: (seed % 2) as usize,
                    duration: SimDuration::from_secs(300),
                    symmetric: seed.is_multiple_of(2),
                },
            });
            plan
        }
    };
    let _injector = install_faults_multi(&mut e, &plan, &pilots);
    times.setup_s = clock.end(t_setup);
    rep.setup_allocs.add(alloc::snapshot().since(a));

    let t_work = clock.begin("work", "bench");
    times.work_started = Some(Instant::now());
    let a = alloc::snapshot();
    let t = clock.begin("um.submit_units", "um");
    let units: Vec<UnitHandle> = um.submit_units(&mut e, descs);
    rep.submit_s += clock.end(t);
    rep.submit_allocs.add(alloc::snapshot().since(a));
    let (a, ev) = (alloc::snapshot(), e.events_executed());
    let t = clock.begin("engine.run_until", "engine");
    e.run_until(SimTime::from_secs_f64(HORIZON_S));
    rep.drain_s += clock.end(t);
    rep.drain_allocs.add(alloc::snapshot().since(a));
    rep.drain_events += e.events_executed() - ev;
    rep.work_s += clock.end(t_work);
    times.work_started = None;

    let census = Census::of(&units);
    rep.done += census.done;
    rep.count_stack(&session.store(), &pilots, um.rebinds());
    rep.count_max("engine.slab_peak", e.slab_len() as f64);
    rep.count("engine.events", e.events_executed() as f64);
    finished.push((seed, config, units));
    if census.live > 0 {
        return Err(format!(
            "{} units live past the {HORIZON_S} s backstop",
            census.live
        ));
    }
    exactly_once(&session.store(), &pilots, census.done)
}

pub fn rep(input: &GridInput, clock: &mut Clock) -> Rep {
    let mut rep = Rep::default();
    let mut failures = Vec::new();
    let mut finished = Vec::with_capacity(2 * SEEDS as usize);
    let base = alloc::reset_peak();
    let mut work: Vec<(u64, Config, Vec<ComputeUnitDescription>)> = Vec::new();
    for seed in input.seeds.clone() {
        work.push((seed, Config::Chaos, input.chaos_units.clone()));
        work.push((seed, Config::SplitBrain, input.split_units.clone()));
    }
    let a0 = alloc::snapshot();
    let t_rep = clock.begin("rep", "bench");
    for (seed, config, descs) in work {
        rep.units += descs.len() as u64;
        rep.ops += 1;
        let mut times = Times::default();
        let depth = clock.depth();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            session(
                seed,
                config,
                descs,
                clock,
                &mut rep,
                &mut times,
                &mut finished,
            )
        }));
        let outcome = match outcome {
            Ok(r) => r,
            Err(payload) => {
                clock.unwind_to(depth);
                if let Some(t) = times.work_started {
                    rep.work_s += t.elapsed().as_secs_f64();
                }
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                Err(format!("panic: {msg}"))
            }
        };
        rep.setup_s += times.setup_s;
        if let Err(why) = outcome {
            rep.failed += 1;
            failures.push(format!("{seed}/{config:?}: {why}"));
        }
    }
    // The grid's figure: one unit table over every session that finished.
    let t = clock.begin("report", "bench");
    let a = alloc::snapshot();
    let mut table = String::new();
    let mut census = Census::default();
    for (seed, config, units) in &finished {
        census.add(Census::of(units));
        unit_table(&mut table, &format!("{seed}/{config:?}"), units);
    }
    rep.report_s = clock.end(t);
    rep.report_allocs = alloc::snapshot().since(a);
    rep.allocs = alloc::snapshot().since(a0);
    rep.peak_bytes = alloc::peak() - base;
    rep.total_s = clock.end(t_rep);
    rep.fingerprint = format!(
        "seeds={}..={} {} events={} table={:016x} failed_sessions={} [{}]",
        input.seeds.start,
        input.seeds.end - 1,
        census.describe(),
        rep.counts.get("engine.events").copied().unwrap_or(0.0),
        digest(&table),
        rep.failed,
        failures.join("; ")
    );
    rep
}

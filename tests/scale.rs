//! Scale tier: a 10k-unit fixed-seed bag through a plain 32-node pilot,
//! asserting the properties the scaling work (interned labels, chunked
//! trace sink, slab event queue, batched coordination traffic) must hold
//! at volume:
//!
//!   1. every unit reaches a terminal state (all `Done` — no faults);
//!   2. side effects are exactly-once: one attempt, one `unit.exec` span
//!      and one completion count per unit;
//!   3. a re-run with the same seed is bit-identical (spans, metrics,
//!      event count, final clock);
//!   4. peak live (unended) spans, the event-slab high-water mark and the
//!      coordination dedup backlog stay bounded — the O(1)-per-event
//!      working-set guarantees.
//!
//! `SCALE_UNITS` overrides the unit count: ci.sh runs a 1k smoke in
//! release, and `CI_SCALE=1` drives a 100k-unit run through the same
//! assertions (see ci.sh).
//!
//! A second, fixed-size tier drives the framework path: one Mode I
//! YARN+HDFS pilot runs 2000 YARN-wrapped sleep units and one 512-map
//! MapReduce job. It is cheap only while the agent scheduler, the RM and
//! `FairLink` do per-event work independent of history and queue length.

use hadoop_hpc::hdfs::StoragePolicy;
use hadoop_hpc::mapreduce::{MrCostModel, MrJobSpec, ShuffleBackend};
use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, MetricsRegistry, SimDuration, SimTime};
use hadoop_hpc::yarn::{AppId, AppState, Resource};

fn scale_units() -> usize {
    std::env::var("SCALE_UNITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

const NODES: u32 = 32;
const CORES_PER_NODE: usize = 16; // xsede.stampede

/// Run `n` one-core sleep units of mixed durations to completion on a
/// plain pilot. Returns the drained engine, the units, and the
/// coordination store's dedup backlog at quiescence.
fn scale_run(seed: u64, n: usize) -> (Engine, Vec<UnitHandle>, usize) {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    // Walltime sized to the workload so draining never kicks in: n units
    // averaging 150 core-seconds over 512 cores, plus generous startup.
    let walltime = 7_200 + (n as u64 * 300) / (NODES as u64 * CORES_PER_NODE as u64);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", NODES, SimDuration::from_secs(walltime)),
        )
        .expect("pilot submits");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..n)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(60 + (i as u64 % 13) * 15)),
                )
            })
            .collect(),
    );
    // Event-driven completion: polling the unit vector per step would be
    // O(units × events) and dwarf the simulation itself.
    let sess = session.clone();
    let p = pilot.clone();
    when_all_done(&mut e, &units, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    e.run();
    let backlog = session.store().dedup_backlog();
    (e, units, backlog)
}

#[test]
fn scale_run_completes_bounded_and_replays_bit_identically() {
    let n = scale_units();
    let seed = 0x5CA1E;
    let (e1, units, backlog) = scale_run(seed, n);

    // (1) All-terminal completion: a fault-free run finishes everything.
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "every unit must reach Done"
    );

    // (2) Exactly-once side effects: one attempt, one recorded completion
    // and one exec span per unit; nothing leaks past quiescence.
    assert!(
        units.iter().all(|u| u.attempts() == 1),
        "fault-free run must not retry"
    );
    assert_eq!(e1.metrics.counter("agent.units_completed"), n as u64);
    let tr = &e1.trace;
    let execs = tr
        .iter_spans()
        .filter(|s| tr.span_name(s) == "unit.exec")
        .count();
    assert_eq!(execs, n, "exactly one unit.exec span per unit");
    assert_eq!(tr.live_spans(), 0, "no span left open at quiescence");

    // (4) Bounded working set. Every submitted-but-unfinished unit holds
    // its root + one phase span open, so the peak tracks 2×units plus the
    // executing window — but never more. The event slab must stay near
    // the concurrency level (free-list reuse), orders of magnitude below
    // the events executed; the batched coordination store must end fully
    // watermark-compacted.
    let cores = NODES as usize * CORES_PER_NODE;
    let peak = tr.peak_live_spans();
    assert!(
        peak <= 2 * n + 4 * cores + 64,
        "peak live spans {peak} exceeds cap for {n} units"
    );
    let slab = e1.slab_len();
    assert!(
        slab <= 8 * cores + 256,
        "event slab grew to {slab} slots — free-list reuse broken?"
    );
    // The slab tracks concurrency (≈ core count), not history — but only
    // runs well past the core count make that ratio meaningful; the 1k
    // smoke executes ~5k events against ~512 slots.
    if n >= 10_000 {
        assert!(
            (slab as u64) < e1.events_executed() / 10,
            "slab {slab} not far below {} events executed",
            e1.events_executed()
        );
    }
    assert_eq!(backlog, 0, "dedup set must compact into the watermark");

    // (3) Bit-identical replay: same seed, same everything.
    let (e2, units2, _) = scale_run(seed, n);
    assert!(
        e1.trace.iter_spans().eq(e2.trace.iter_spans()),
        "span streams must be bit-identical across replays"
    );
    assert_eq!(e1.metrics.snapshot(), e2.metrics.snapshot());
    assert_eq!(e1.events_executed(), e2.events_executed());
    assert_eq!(e1.now(), e2.now());
    let done_times =
        |us: &[UnitHandle]| -> Vec<Option<SimTime>> { us.iter().map(|u| u.times().done).collect() };
    assert_eq!(done_times(&units), done_times(&units2));
}

const MODE1_UNITS: usize = 2_000;
const MODE1_MAPS: u32 = 512;
/// Events a seed-`MODE1_SEED` Mode I run executes; any change to the
/// simulated behaviour of the framework path moves it.
const MODE1_SEED: u64 = 0x40DE1;
const MODE1_EVENTS: u64 = 24_173;

struct Mode1Run {
    engine: Engine,
    units: Vec<UnitHandle>,
    pilot: PilotHandle,
    session: Session,
}

/// The MapReduce job first, then `MODE1_UNITS` one-core sleep units, all
/// through one Mode I YARN+HDFS pilot on 16 nodes.
fn mode1_run(seed: u64) -> Mode1Run {
    // Metrics on (they count the side effects), span recording off.
    let mut e = Engine::new(seed);
    e.metrics = MetricsRegistry::enabled();
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 16, SimDuration::from_secs(7 * 86_400))
                .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .expect("Mode I pilot submits");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "pilot drained before becoming Active");
    }
    let hdfs = pilot
        .agent()
        .and_then(|a| a.hadoop_env())
        .and_then(|env| env.hdfs)
        .expect("the Mode I pilot runs HDFS");
    let block = 40 * 1024 * 1024;
    hdfs.create_synthetic_with_blocks(
        "/in/job",
        MODE1_MAPS as u64 * block,
        StoragePolicy::Default,
        MODE1_MAPS,
    )
    .expect("fresh HDFS path");
    let mut descs = vec![ComputeUnitDescription::new(
        "mr",
        1,
        WorkSpec::MapReduce(MrJobSpec {
            name: "job".into(),
            input_path: "/in/job".into(),
            num_reducers: 4,
            container: Resource::new(1, 1024),
            shuffle: ShuffleBackend::LocalDisk,
            cost: MrCostModel::default(),
        }),
    )];
    descs.extend((0..MODE1_UNITS).map(|i| {
        ComputeUnitDescription::new(
            format!("y{i}"),
            1,
            WorkSpec::Sleep(SimDuration::from_secs(50 + (i as u64 % 21))),
        )
    }));
    let units = um.submit_units(&mut e, descs);
    let (sess, p) = (session.clone(), pilot.clone());
    when_all_done(&mut e, &units, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    e.run();
    Mode1Run {
        engine: e,
        units,
        pilot,
        session,
    }
}

#[test]
fn mode1_framework_run_completes_exactly_once_and_replays_bit_identically() {
    let run = mode1_run(MODE1_SEED);
    let (e, units) = (&run.engine, &run.units);
    let n = units.len();

    // Every unit Done, each on its first attempt.
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "every unit must reach Done"
    );
    assert!(
        units.iter().all(|u| u.attempts() == 1),
        "fault-free run must not retry"
    );

    // Exactly-once side effects: one agent completion per unit, every
    // duplicated coordination message ignored on apply, one YARN
    // application per unit (numbered from 0) that finished, and one map
    // task per HDFS block.
    let agent = run.pilot.agent().expect("pilot ran an agent");
    assert_eq!(agent.units_completed(), n as u64);
    assert_eq!(e.metrics.counter("agent.units_completed"), n as u64);
    let store = run.session.store();
    assert_eq!(store.dup_applies_ignored(), store.msgs_duplicated());
    let yarn = agent.hadoop_env().expect("Mode I pilot runs YARN").yarn;
    assert_eq!(e.metrics.counter("yarn.apps_submitted"), n as u64);
    let finished = (0..n as u64)
        .filter(|&i| yarn.app_report(e, AppId(i)).state == AppState::Finished)
        .count();
    assert_eq!(finished, n, "one finished YARN application per unit");
    let stats = units[0].mr_stats().expect("MapReduce unit reports stats");
    assert_eq!(stats.maps, MODE1_MAPS as usize);
    assert_eq!(e.metrics.counter("mr.map_tasks"), MODE1_MAPS as u64);

    // Pinned behaviour: the event count of this seed.
    assert_eq!(e.events_executed(), MODE1_EVENTS, "events executed");

    // Bit-identical replay.
    let again = mode1_run(MODE1_SEED);
    assert_eq!(e.metrics.snapshot(), again.engine.metrics.snapshot());
    assert_eq!(e.events_executed(), again.engine.events_executed());
    assert_eq!(e.now(), again.engine.now());
    let done_times =
        |us: &[UnitHandle]| -> Vec<Option<SimTime>> { us.iter().map(|u| u.times().done).collect() };
    assert_eq!(done_times(units), done_times(&again.units));
}

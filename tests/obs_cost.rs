//! Cost gate for observability that is switched off, and for recurring
//! events.
//!
//! A std-only counting global allocator (per thread, so the test harness's
//! parallel threads do not disturb each other) pins the exact number of
//! heap allocations an untraced Mode II sleep bag makes per unit. The
//! count is a pure function of the code: a change that makes a disabled
//! trace or metrics registry format, clone or box anything again moves it
//! and fails here. A second test proves the recording API itself defers
//! formatting: a disabled trace never evaluates a message's `Display`.
//!
//! A split-brain lease session is pinned the same way, and run to two
//! walltimes: its idle heartbeats, lease renewals and jittered heartbeat
//! deliveries re-arm engine timers, so the longer run must allocate
//! exactly as much as the shorter one.
//!
//! A small untraced Mode I session (YARN+HDFS pilot, a few YARN units and
//! one MapReduce job) is pinned too, so the framework path has an exact
//! gate beside the plain-pilot ones.
//!
//! After an intended change to the allocation profile, re-pin the
//! constants from the failure message (it prints the measured values).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{
    Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimRng, SimTime, SpanId, Trace,
};

struct PerThreadCounting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    /// A reallocation counts as one allocation, as in the benchmark.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PerThreadCounting = PerThreadCounting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Units in the gated bag.
const UNITS: usize = 2_000;

/// Exact allocations of one untraced `UNITS`-unit bag, from engine
/// creation to the end of the run (descriptions are built beforehand).
const BAG_ALLOCS: u64 = 37_184;

/// Run an untraced bag of one-core sleep units on one plain pilot to
/// completion; returns the allocations made from engine creation on.
fn untraced_bag(units: usize) -> u64 {
    let mut rng = SimRng::new(7);
    let descs: Vec<ComputeUnitDescription> = (0..units)
        .map(|i| {
            let sleep = SimDuration::from_secs(rng.uniform_u64(30, 300));
            ComputeUnitDescription::new(format!("u{i}"), 1, WorkSpec::Sleep(sleep))
        })
        .collect();
    let before = allocs();
    let mut e = Engine::new(7);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 4, SimDuration::from_secs(7 * 86_400)),
        )
        .expect("the plain pilot submits");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let handles = um.submit_units(&mut e, descs);
    let (sess, p) = (session.clone(), pilot.clone());
    when_all_done(&mut e, &handles, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    e.run();
    let used = allocs() - before;
    assert!(
        handles.iter().all(|u| u.state() == UnitState::Done),
        "every unit of the bag completes"
    );
    used
}

#[test]
fn untraced_bag_allocations_per_unit_are_pinned() {
    // Warm-up: first-use costs of the thread and of lazily built tables
    // stay out of the measured run.
    untraced_bag(16);
    let total = untraced_bag(UNITS);
    let again = untraced_bag(UNITS);
    assert_eq!(total, again, "allocation counts are deterministic");
    let per_unit = total as f64 / UNITS as f64;
    assert_eq!(
        total, BAG_ALLOCS,
        "untraced {UNITS}-unit bag: {total} allocations ({per_unit:.2} per unit), \
         pinned {BAG_ALLOCS}"
    );
    assert!(per_unit <= 25.0, "{per_unit:.2} allocations per unit");
}

/// Exact allocations of one split-brain lease session (see
/// [`lease_session`]), from engine creation to the end of the run.
const LEASE_SESSION_ALLOCS: u64 = 1_270;

/// Units in the lease session.
const LEASE_UNITS: usize = 12;

/// A split-brain lease session: two plain pilots with `walltime_h` hours
/// of walltime, 60 s leases with 30 s grace, a lossy store with delivery
/// jitter and one symmetric partition window that outlasts lease expiry
/// plus grace. Runs until the pilots' walltime ends; returns the
/// allocations made from engine creation on. Descriptions and the fault
/// plan are built beforehand.
fn lease_session(walltime_h: u64) -> u64 {
    let descs: Vec<ComputeUnitDescription> = (0..LEASE_UNITS)
        .map(|i| {
            let sleep = SimDuration::from_secs(15 + (i as u64 % 4) * 10);
            ComputeUnitDescription::new(format!("s{i}"), 1, WorkSpec::Sleep(sleep))
        })
        .collect();
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(50.0),
            kind: FaultKind::Partition {
                pilot: 0,
                duration: SimDuration::from_secs(300),
                symmetric: true,
            },
        }],
    };
    let before = allocs();
    let mut e = Engine::new(5);
    let mut cfg = SessionConfig::test_profile();
    cfg.coordination.loss = LossProfile {
        drop_p: 0.10,
        dup_p: 0.05,
        delay_jitter_ms: 25.0,
        seed: 5,
    };
    let session = Session::new(cfg);
    let pm = PilotManager::new(&session);
    let walltime = SimDuration::from_secs(walltime_h * 3_600);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            pm.submit(&mut e, PilotDescription::new("xsede.stampede", 3, walltime))
                .expect("the plain pilot submits")
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_leases(
        &mut e,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    let _injector = install_faults_multi(&mut e, &plan, &pilots);
    let handles = um.submit_units(&mut e, descs);
    e.run();
    let used = allocs() - before;
    assert!(
        handles.iter().all(|u| u.state() == UnitState::Done),
        "every unit of the lease session completes"
    );
    assert_eq!(
        session.store().partition_windows(),
        1,
        "the partition opened"
    );
    assert!(
        um.rebinds() >= 1,
        "the partitioned pilot's units were re-bound"
    );
    assert!(
        e.now() >= SimTime::from_secs_f64((walltime_h * 3_600) as f64),
        "the session ran to its walltime"
    );
    used
}

#[test]
fn idle_lease_heartbeats_allocate_nothing() {
    lease_session(1);
    let four = lease_session(4);
    let eight = lease_session(8);
    assert_eq!(
        four,
        eight,
        "4 h of idle lease heartbeats allocated {} times",
        eight as i64 - four as i64
    );
    assert_eq!(
        four, LEASE_SESSION_ALLOCS,
        "split-brain lease session: {four} allocations, pinned {LEASE_SESSION_ALLOCS}"
    );
}

/// Exact allocations of one untraced Mode I session (see
/// [`mode1_session`]), from engine creation to the end of the run.
const MODE1_SESSION_ALLOCS: u64 = 1_211;

/// YARN sleep units in the Mode I session.
const MODE1_YARN_UNITS: usize = 6;

/// An untraced Mode I session: one 2-node YARN+HDFS pilot runs
/// `MODE1_YARN_UNITS` one-core sleep units through YARN and one
/// MapReduce job over a 3-block HDFS file; the pilot is canceled once
/// every unit is Done. Returns the allocations made from engine creation
/// on. Descriptions are built beforehand.
fn mode1_session() -> u64 {
    let mut descs: Vec<ComputeUnitDescription> = (0..MODE1_YARN_UNITS)
        .map(|i| {
            let sleep = SimDuration::from_secs(20 + i as u64 * 5);
            ComputeUnitDescription::new(format!("y{i}"), 1, WorkSpec::Sleep(sleep))
        })
        .collect();
    descs.push(ComputeUnitDescription::new(
        "mr",
        1,
        WorkSpec::MapReduce(hadoop_hpc::mapreduce::MrJobSpec {
            name: "mr".into(),
            input_path: "/in".into(),
            num_reducers: 2,
            container: hadoop_hpc::yarn::Resource::new(1, 1024),
            shuffle: hadoop_hpc::mapreduce::ShuffleBackend::LocalDisk,
            cost: hadoop_hpc::mapreduce::MrCostModel::default(),
        }),
    ));
    let before = allocs();
    let mut e = Engine::new(11);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(14_400))
                .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .expect("the Mode I pilot submits");
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "the Mode I pilot never became Active");
    }
    let hdfs = pilot
        .agent()
        .and_then(|a| a.hadoop_env())
        .and_then(|env| env.hdfs)
        .expect("the Mode I pilot runs HDFS");
    hdfs.create_synthetic(
        "/in",
        384 * 1024 * 1024,
        hadoop_hpc::hdfs::StoragePolicy::Default,
    )
    .expect("the input file is created");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let handles = um.submit_units(&mut e, descs);
    let (sess, p) = (session.clone(), pilot.clone());
    when_all_done(&mut e, &handles, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    e.run();
    let used = allocs() - before;
    assert!(
        handles.iter().all(|u| u.state() == UnitState::Done),
        "every unit of the Mode I session completes"
    );
    assert_eq!(
        handles.last().and_then(|u| u.mr_stats()).map(|s| s.maps),
        Some(3),
        "the MapReduce job ran one map per block"
    );
    used
}

#[test]
fn untraced_mode1_session_allocations_are_pinned() {
    mode1_session();
    let total = mode1_session();
    let again = mode1_session();
    assert_eq!(total, again, "allocation counts are deterministic");
    assert_eq!(
        total, MODE1_SESSION_ALLOCS,
        "untraced Mode I session: {total} allocations, pinned {MODE1_SESSION_ALLOCS}"
    );
}

/// A message whose formatting is a test failure.
struct Explodes;

impl fmt::Display for Explodes {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        panic!("a disabled trace formatted a message");
    }
}

#[test]
fn disabled_trace_never_formats_or_allocates() {
    let mut t = Trace::disabled();
    let before = allocs();
    t.record(SimTime(1), "unit", Explodes);
    t.record(SimTime(2), "unit", format_args!("{} -> {}", Explodes, 3));
    t.record_line(
        SimTime(3),
        "unit",
        |_, _, _| panic!("a disabled trace rendered a line"),
        1,
        2,
    );
    let span = t.span_begin(SimTime(4), "unit", "unit.run", SpanId::NONE);
    t.span_attr(span, "mode", "II");
    t.span_attr_u64(span, "unit", 42);
    t.span_attr_text(span, "name", "u42");
    t.span_end(SimTime(5), span);
    assert_eq!(allocs() - before, 0, "a disabled trace allocated");
    assert!(t.events().is_empty());
    assert_eq!(t.span_count(), 0);
}

static RENDERS: AtomicUsize = AtomicUsize::new(0);

fn counted_line(f: &mut fmt::Formatter<'_>, id: u64, state: u32) -> fmt::Result {
    RENDERS.fetch_add(1, Ordering::Relaxed);
    write!(f, "UnitId({id}) -> {state}")
}

#[test]
fn enabled_trace_renders_stored_lines_only_when_read() {
    let mut t = Trace::enabled();
    t.record_line(SimTime(3), "unit", counted_line, 1, 2);
    assert_eq!(
        RENDERS.load(Ordering::Relaxed),
        0,
        "rendered at record time"
    );
    assert_eq!(t.events()[0].message.to_string(), "UnitId(1) -> 2");
    assert_eq!(RENDERS.load(Ordering::Relaxed), 1);
}

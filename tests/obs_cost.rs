//! Cost gate for observability that is switched off.
//!
//! A std-only counting global allocator (per thread, so the test harness's
//! parallel threads do not disturb each other) pins the exact number of
//! heap allocations an untraced Mode II sleep bag makes per unit. The
//! count is a pure function of the code: a change that makes a disabled
//! trace or metrics registry format, clone or box anything again moves it
//! and fails here. A second test proves the recording API itself defers
//! formatting: a disabled trace never evaluates a message's `Display`.
//!
//! After an intended change to the allocation profile, re-pin the
//! constants from the failure message (it prints the measured values).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration, SimRng, SimTime, SpanId, Trace};

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
const BAG_ALLOCS: u64 = 41_722;

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

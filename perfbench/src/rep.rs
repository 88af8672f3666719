//! What one repetition of a workload measures, and the unit census every
//! workload's report step starts from.

use std::collections::BTreeMap;

use rp_pilot::{CoordinationStore, PilotHandle, UnitHandle, UnitState};
use rp_sim::{SimDuration, SimTime};

use crate::alloc::Snapshot;

/// One repetition of a workload. Host times are seconds, scaled to the
/// reference host once the repetition is over (`Rep::scale_times`); counts are
/// exact and must repeat across repetitions of the same seed.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host time before the first `submit_units`.
    pub setup_s: f64,
    /// Host time inside `UnitManager::submit_units`.
    pub submit_s: f64,
    /// Host time inside `Engine::run`/`Engine::run_until`.
    pub drain_s: f64,
    /// Host time from the first submit to the drained engine.
    pub work_s: f64,
    /// Host time from the drained engine to the figures a user reads.
    pub report_s: f64,
    /// Whole repetition, set-up to report.
    pub total_s: f64,
    pub units: u64,
    pub done: u64,
    /// Operations attempted and failed: units, or seed runs for the grid.
    pub ops: u64,
    pub failed: u64,
    /// Allocations over the whole repetition and in each phase: set-up,
    /// inside `submit_units`, inside the engine drain, and the report.
    pub allocs: Snapshot,
    pub setup_allocs: Snapshot,
    pub submit_allocs: Snapshot,
    pub drain_allocs: Snapshot,
    pub report_allocs: Snapshot,
    /// Events executed by the engine drains.
    pub drain_events: u64,
    /// High-water of live heap bytes during the repetition, above what was
    /// live before its inputs were copied.
    pub peak_bytes: u64,
    /// Virtual results: makespan, events, terminal-state counts.
    pub fingerprint: String,
    /// Exact per-layer counts, keyed by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer host times, keyed by metric name.
    pub times: BTreeMap<&'static str, f64>,
    /// Broken correctness checks.
    pub problems: Vec<String>,
}

impl Rep {
    pub fn count(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    pub fn time(&mut self, key: &'static str, secs: f64) {
        *self.times.entry(key).or_insert(0.0) += secs;
    }

    /// Multiply every host time by `f` (see `calib::factor`).
    pub fn scale_times(&mut self, f: f64) {
        for t in [
            &mut self.setup_s,
            &mut self.submit_s,
            &mut self.drain_s,
            &mut self.work_s,
            &mut self.report_s,
            &mut self.total_s,
        ] {
            *t *= f;
        }
        for t in self.times.values_mut() {
            *t *= f;
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Terminal-state counts of a unit set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    pub done: u64,
    pub failed: u64,
    pub canceled: u64,
    /// Units not in a final state.
    pub live: u64,
    /// Latest `done` timestamp: the workload's virtual makespan.
    pub makespan: SimTime,
    /// Sum, median and 95th percentile of the Done units' startup times
    /// (submission to execution start, the paper's Fig. 5 quantity).
    pub startup_sum: SimDuration,
    pub startup_p50: SimDuration,
    pub startup_p95: SimDuration,
}

impl Census {
    pub fn of(units: &[UnitHandle]) -> Census {
        let mut c = Census::default();
        let mut startup = Vec::with_capacity(units.len());
        for u in units {
            match u.state() {
                UnitState::Done => {
                    c.done += 1;
                    let times = u.times();
                    if let Some(t) = times.done {
                        c.makespan = c.makespan.max(t);
                    }
                    if let Some(d) = times.startup_time() {
                        startup.push(d);
                    }
                }
                UnitState::Failed => c.failed += 1,
                UnitState::Canceled => c.canceled += 1,
                _ => c.live += 1,
            }
        }
        startup.sort_unstable();
        if let Some(&last) = startup.last() {
            c.startup_p50 = startup[startup.len() / 2];
            c.startup_p95 = startup[(startup.len() * 95 / 100).min(startup.len() - 1)];
            debug_assert!(c.startup_p95 <= last);
        }
        c.startup_sum = SimDuration(startup.iter().map(|d| d.0).sum());
        c
    }

    pub fn add(&mut self, other: Census) {
        self.done += other.done;
        self.failed += other.failed;
        self.canceled += other.canceled;
        self.live += other.live;
        self.makespan = self.makespan.max(other.makespan);
        // Percentiles do not add; an aggregate keeps only the sum.
        self.startup_sum = SimDuration(self.startup_sum.0 + other.startup_sum.0);
    }

    pub fn describe(&self) -> String {
        format!(
            "makespan_s={:.6} startup_s(sum/p50/p95)={:.6}/{:.6}/{:.6} done={} failed={} canceled={} live={}",
            self.makespan.as_secs_f64(),
            self.startup_sum.as_secs_f64(),
            self.startup_p50.as_secs_f64(),
            self.startup_p95.as_secs_f64(),
            self.done,
            self.failed,
            self.canceled,
            self.live
        )
    }
}

impl Rep {
    pub fn count_max(&mut self, key: &'static str, v: f64) {
        let e = self.counts.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    /// Read the pilot stack's public counters: coordination store, agents
    /// and Unit-Manager re-binds.
    pub fn count_stack(&mut self, store: &CoordinationStore, pilots: &[PilotHandle], rebinds: u64) {
        self.count("store.docs_written", store.docs_written() as f64);
        self.count("store.polls", store.polls() as f64);
        self.count("store.msgs_dropped", store.msgs_dropped() as f64);
        self.count("store.msgs_duplicated", store.msgs_duplicated() as f64);
        self.count(
            "store.dup_applies_ignored",
            store.dup_applies_ignored() as f64,
        );
        self.count("store.lease_renewals", store.lease_renewals() as f64);
        self.count("store.fence_rejections", store.fence_rejections() as f64);
        self.count("um.rebinds", rebinds as f64);
        for p in pilots {
            if let Some(agent) = p.agent() {
                self.count("agent.heartbeats", agent.heartbeats() as f64);
                self.count("agent.units_completed", agent.units_completed() as f64);
            }
        }
    }
}

/// Append one CSV row per unit (`tag,name,state,pilot,submitted_s,
/// exec_start_s,done_s`): the timestamp table users plot unit startup
/// and makespan figures from.
pub fn unit_table(out: &mut String, tag: &str, units: &[UnitHandle]) {
    use std::fmt::Write as _;
    let secs = |t: Option<SimTime>| t.map(|t| t.as_secs_f64()).unwrap_or(-1.0);
    for u in units {
        let times = u.times();
        let pilot = u.pilot().map(|p| p.0 as i64).unwrap_or(-1);
        let _ = writeln!(
            out,
            "{tag},{},{:?},{pilot},{:.6},{:.6},{:.6}",
            u.name(),
            u.state(),
            secs(times.submitted),
            secs(times.exec_start),
            secs(times.done)
        );
    }
}

/// FNV-1a digest of a report, for the virtual fingerprint.
pub fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Exactly-once checks over one session: every `Done` unit was completed
/// once by an agent, and every duplicated store message was applied once.
pub fn exactly_once(
    store: &CoordinationStore,
    pilots: &[PilotHandle],
    done: u64,
) -> Result<(), String> {
    let completed: u64 = pilots
        .iter()
        .filter_map(|p| p.agent())
        .map(|a| a.units_completed())
        .sum();
    if completed != done {
        return Err(format!(
            "{completed} agent completions for {done} Done units"
        ));
    }
    if store.dup_applies_ignored() != store.msgs_duplicated() {
        return Err(format!(
            "{} duplicate applies ignored for {} duplicated messages",
            store.dup_applies_ignored(),
            store.msgs_duplicated()
        ));
    }
    Ok(())
}

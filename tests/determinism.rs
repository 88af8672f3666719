//! Bit-reproducibility of full-stack runs: the headline guarantee of the
//! deterministic simulation core. The same seed run twice must give the
//! same unit timeline, span census, instant events, metrics snapshot,
//! unit states and coordination-store applied-effect log — for plain
//! runs, every bench scenario, and fault, lossy-store, partition and
//! chaos captures.

use hadoop_hpc::analytics::{
    fig6_session_config, run_rp_kmeans, run_rp_yarn_kmeans, KMeansCalibration, SCENARIOS,
};
use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{
    Engine, FaultEvent, FaultKind, FaultPlan, MetricsSnapshot, SimDuration, SimTime, Span,
    TraceEvent,
};
use rp_bench::harness::run_scenario;

/// A full mixed workload; returns every unit's (startup, done) pair.
fn mixed_run(seed: u64) -> Vec<(SimTime, SimTime)> {
    mixed_run_with(seed, false).1
}

/// Same workload with the engine handed back, optionally traced — so the
/// observability guarantees (bit-identical spans/metrics per seed, zero
/// behavioural cost when disabled) can be checked against the exact runs
/// the timeline tests use.
fn mixed_run_with(seed: u64, traced: bool) -> (Engine, Vec<(SimTime, SimTime)>) {
    let mut e = if traced {
        Engine::with_trace(seed)
    } else {
        Engine::new(seed)
    };
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200))
                .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1 + (i % 4),
                    WorkSpec::Compute {
                        core_seconds: 30.0 + i as f64,
                        read_mb: 5.0 * i as f64,
                        write_mb: 2.0 * i as f64,
                        io: if i % 2 == 0 {
                            UnitIoTarget::Lustre
                        } else {
                            UnitIoTarget::LocalDisk
                        },
                    },
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step());
    }
    let timeline = units
        .iter()
        .map(|u| {
            let t = u.times();
            (t.exec_start.unwrap(), t.done.unwrap())
        })
        .collect();
    (e, timeline)
}

#[test]
fn same_seed_same_timeline() {
    assert_eq!(mixed_run(42), mixed_run(42));
}

#[test]
fn different_seeds_different_timelines() {
    assert_ne!(mixed_run(42), mixed_run(43));
}

/// Observability is part of the deterministic state: two traced runs with
/// the same seed must produce bit-identical span streams and metrics
/// snapshots, not just identical unit timelines.
#[test]
fn same_seed_same_spans_and_metrics() {
    let (e1, t1) = mixed_run_with(42, true);
    let (e2, t2) = mixed_run_with(42, true);
    assert_eq!(t1, t2);
    assert!(e1.trace.iter_spans().eq(e2.trace.iter_spans()));
    assert_eq!(e1.trace.render_spans(), e2.trace.render_spans());
    assert_eq!(e1.metrics.snapshot(), e2.metrics.snapshot());
    // ... and the run actually fed both subsystems.
    assert!(e1.trace.span_count() > 0);
    let counters = e1.metrics.snapshot().counters;
    assert!(
        counters.iter().any(|(k, _)| k == "agent.units_completed"),
        "metrics registry must be populated: {counters:?}"
    );
}

/// Tracing is pure recording: enabling it draws no RNG samples and
/// schedules no events, so a traced run's outcome is bit-identical to the
/// untraced run — observability costs nothing when disabled *and* changes
/// nothing when enabled.
#[test]
fn tracing_does_not_perturb_the_timeline() {
    let (off_engine, off) = mixed_run_with(42, false);
    let (on_engine, on) = mixed_run_with(42, true);
    assert_eq!(off, on, "enabling tracing must not move a single event");
    // The disabled engine recorded nothing; the traced one recorded spans.
    assert_eq!(off_engine.trace.span_count(), 0);
    assert!(off_engine.metrics.snapshot().counters.is_empty());
    assert!(on_engine.trace.span_count() > 0);
}

#[test]
fn fig6_runners_are_deterministic() {
    let cal = KMeansCalibration {
        core_s_per_pair: 2.4e-6, // shrunk for test speed
        ..KMeansCalibration::default()
    };
    let rp = |seed: u64| {
        let mut e = Engine::new(seed);
        let session = Session::new(fig6_session_config());
        run_rp_kmeans(&mut e, &session, "xsede.stampede", 16, SCENARIOS[1], &cal).time_to_completion
    };
    assert_eq!(rp(7).to_bits(), rp(7).to_bits());
    let yarn = |seed: u64| {
        let mut e = Engine::new(seed);
        let session = Session::new(fig6_session_config());
        run_rp_yarn_kmeans(&mut e, &session, "xsede.wrangler", 16, SCENARIOS[1], &cal)
            .time_to_completion
    };
    assert_eq!(yarn(9).to_bits(), yarn(9).to_bits());
}

#[test]
fn native_analytics_are_seed_deterministic() {
    use hadoop_hpc::analytics::{gaussian_blobs, lloyd};
    let a = lloyd(&gaussian_blobs(10_000, 6, 2.0, 5), 6, 4);
    let b = lloyd(&gaussian_blobs(10_000, 6, 2.0, 5), 6, 4);
    // Thread scheduling must not change the result (order-independent
    // merge of partial sums).
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.centroids, b.centroids);
}

// ---------------------------------------------------------------------
// Bench scenarios: the exact virtual JSON the regression gate diffs.
// ---------------------------------------------------------------------

#[test]
fn bench_scenarios_rerun_bit_identical() {
    // scale_10k is excluded for runtime only; it shares scale_1k's code.
    for scenario in [
        "fig5_startup",
        "fig5_unit_startup",
        "fig6_kmeans",
        "fault_matrix",
        "pilot_loss",
        "partition_heal",
        "scale_1k",
    ] {
        let first = run_scenario(scenario).to_json();
        let second = run_scenario(scenario).to_json();
        assert_eq!(
            first, second,
            "{scenario}: virtual result differs on re-run"
        );
    }
}

// ---------------------------------------------------------------------
// Full-capture scenarios: spans, events, metrics, states, effect log.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Scenario {
    /// Mixed-fault plan: `Some((seed, count))` installs
    /// `FaultPlan::generate_mixed` on both pilots.
    faults: Option<(u64, usize)>,
    /// Lossy coordination store (drops, duplicates, delivery jitter).
    lossy: bool,
    /// Lease-based ownership plus a partitioned fault plan: the victim
    /// pilot self-fences, its units re-bind, and its held writes are
    /// rejected at a stale fencing epoch after the heal.
    partition: bool,
}

struct Outcome {
    states: Vec<UnitState>,
    events: Vec<TraceEvent>,
    spans: Vec<Span>,
    metrics: MetricsSnapshot,
    /// Applied coordination effects `(time, seq, label)`.
    effects: Vec<(SimTime, u64, &'static str)>,
    rebinds: u64,
    /// Store writes rejected at a stale fencing epoch.
    fence_rejections: u64,
}

/// Two three-node pilots, RoundRobin UM with failover + gap monitor, 16
/// sleep units; optionally lossy store, a mixed fault plan, or leases with
/// a guaranteed partition. Driven by `Engine::run` end to end.
fn capture_run(seed: u64, scenario: Scenario) -> Outcome {
    let mut e = Engine::with_trace(seed);
    let mut cfg = SessionConfig::test_profile();
    if scenario.lossy {
        cfg.coordination.loss = LossProfile {
            drop_p: 0.15,
            dup_p: 0.10,
            delay_jitter_ms: 25.0,
            seed,
        };
    }
    let session = Session::new(cfg);
    session.store().enable_effect_log();
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            pm.submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
            )
            .unwrap()
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    if scenario.partition {
        um.enable_leases(
            &mut e,
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
        );
        let mut plan = FaultPlan::generate_partitioned(
            seed,
            SimDuration::from_secs(1_800),
            3,
            pilots.len(),
            4,
        );
        // Guaranteed zombie: partition one pilot at 50 s (agents are
        // Active by ~47 s) for 300 s — long past lease expiry + grace —
        // so self-fencing, re-binding and stale-epoch rejection all run.
        plan.events.push(FaultEvent {
            at: SimTime::from_secs_f64(50.0),
            kind: FaultKind::Partition {
                pilot: (seed as usize) % 2,
                duration: SimDuration::from_secs(300),
                symmetric: seed.is_multiple_of(2),
            },
        });
        install_faults_multi(&mut e, &plan, &pilots);
    } else {
        um.enable_failover(&mut e);
        um.set_heartbeat_gap(&mut e, SimDuration::from_secs(120));
    }
    if let Some((fault_seed, count)) = scenario.faults {
        let plan = FaultPlan::generate_mixed(
            fault_seed,
            SimDuration::from_secs(1_800),
            3,
            pilots.len(),
            count,
        );
        install_faults_multi(&mut e, &plan, &pilots);
    }
    let units = um.submit_units(
        &mut e,
        (0..16)
            .map(|i| {
                // Partition scenarios use short staggered sleeps so the
                // first wave completes inside the partition-to-fence
                // window and its completions are held until the heal.
                let sleep = if scenario.partition {
                    15 + (i as u64 % 4) * 10
                } else {
                    150 + (i as u64 % 5) * 30
                };
                ComputeUnitDescription::new(
                    format!("c{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(sleep)),
                )
            })
            .collect(),
    );
    e.run();
    assert!(
        units.iter().all(|u| u.state().is_final()),
        "seed {seed}: run drained with non-terminal units"
    );
    let store = session.store();
    Outcome {
        states: units.iter().map(|u| u.state()).collect(),
        events: e.trace.events().to_vec(),
        spans: e.trace.iter_spans().cloned().collect(),
        metrics: e.metrics.snapshot(),
        effects: store.effect_log(),
        rebinds: um.rebinds(),
        fence_rejections: store.fence_rejections(),
    }
}

/// Run `scenario` twice at `seed` and require every observable to match.
fn assert_rerun_identical(label: &str, seed: u64, scenario: Scenario) -> Outcome {
    let a = capture_run(seed, scenario);
    let b = capture_run(seed, scenario);
    assert_eq!(a.states, b.states, "{label}: states diverge");
    assert_eq!(a.events, b.events, "{label}: trace events diverge");
    assert_eq!(a.spans, b.spans, "{label}: spans diverge");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics diverge");
    assert_eq!(
        a.effects, b.effects,
        "{label}: coordination effect logs diverge"
    );
    assert_eq!(a.rebinds, b.rebinds, "{label}: rebinds diverge");
    assert_eq!(
        a.fence_rejections, b.fence_rejections,
        "{label}: fence rejections diverge"
    );
    a
}

const HEALTHY: Scenario = Scenario {
    faults: None,
    lossy: false,
    partition: false,
};

#[test]
fn healthy_capture_rerun_bit_identical() {
    for seed in [1u64, 7, 23] {
        let out = assert_rerun_identical(&format!("seed {seed}"), seed, HEALTHY);
        // The effect log must have recorded real traffic.
        assert!(!out.effects.is_empty(), "seed {seed}: empty effect log");
    }
}

#[test]
fn fault_matrix_capture_rerun_bit_identical() {
    // 3×3: three fault-plan seeds × three injection counts, mixed kinds
    // (crashes, slowdowns, container kills, staging errors, pilot kills)
    // on a lossless store — isolates fault handling from transport loss.
    for fault_seed in [11u64, 12, 13] {
        for count in [2usize, 4, 8] {
            let scenario = Scenario {
                faults: Some((fault_seed, count)),
                ..HEALTHY
            };
            let label = format!("faults {fault_seed}×{count}");
            assert_rerun_identical(&label, fault_seed, scenario);
        }
    }
}

#[test]
fn lossy_store_capture_rerun_bit_identical() {
    // Transport loss without injected faults: drops force retransmits,
    // duplicates force dedup — the seq-stamped delivery machinery and its
    // effect log must replay identically.
    for seed in [5u64, 17] {
        let scenario = Scenario {
            lossy: true,
            ..HEALTHY
        };
        assert_rerun_identical(&format!("lossy seed {seed}"), seed, scenario);
    }
}

#[test]
fn partition_capture_rerun_bit_identical() {
    // Split-brain: leases renew on jittered heartbeats, a partitioned
    // pilot self-fences, its units re-bind, and its held completions are
    // rejected at a stale fencing epoch after the heal.
    for (seed, lossy) in [(2u64, false), (8, true)] {
        let scenario = Scenario {
            lossy,
            partition: true,
            ..HEALTHY
        };
        let label = format!("partition seed {seed} lossy {lossy}");
        let out = assert_rerun_identical(&label, seed, scenario);
        assert!(
            out.fence_rejections > 0,
            "{label}: no stale-epoch writes were exercised"
        );
    }
}

#[test]
fn chaos_capture_rerun_bit_identical() {
    // Everything at once: mixed faults AND a lossy store.
    for seed in [3u64, 9] {
        let scenario = Scenario {
            faults: Some((seed, 6)),
            lossy: true,
            partition: false,
        };
        assert_rerun_identical(&format!("chaos seed {seed}"), seed, scenario);
    }
}

//! Deterministic fault-schedule harness (the failure-model counterpart of
//! `determinism.rs`): injected faults are part of the simulation, so runs
//! with faults are exactly as reproducible as runs without, recovery keeps
//! under-budget workloads at 100% completion, and the cost of failures
//! shows up as a monotone makespan penalty.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{
    Attr, Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime, Span, TraceEvent,
};

/// A plain 4-node pilot running `n` one-core sleep units of `sleep_s`,
/// with `plan` installed. Returns the unit handles, the pilot and the
/// full trace.
fn sleep_run(
    seed: u64,
    n: usize,
    sleep_s: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<UnitHandle>, PilotHandle, Vec<TraceEvent>) {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 4, SimDuration::from_secs(14_400)),
        )
        .unwrap();
    if let Some(plan) = plan {
        install_faults(&mut e, plan, &pilot);
    }
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..n)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(sleep_s)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    e.run();
    (units, pilot, e.trace.events().to_vec())
}

fn makespan(units: &[UnitHandle]) -> SimTime {
    units
        .iter()
        .map(|u| u.times().done.expect("unit finished"))
        .max()
        .unwrap()
}

/// A plan of `k` node crashes at fixed times, hitting distinct nodes.
fn crash_plan(k: usize) -> FaultPlan {
    FaultPlan {
        events: (0..k)
            .map(|i| FaultEvent {
                at: SimTime::from_secs_f64(150.0 + 160.0 * i as f64),
                kind: FaultKind::NodeCrash { node: i },
            })
            .collect(),
    }
}

#[test]
fn under_budget_plan_completes_every_unit() {
    // One fault of every kind, well inside the default 4-attempt budget.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_secs_f64(90.0),
                kind: FaultKind::StagingError,
            },
            FaultEvent {
                at: SimTime::from_secs_f64(100.0),
                kind: FaultKind::NodeSlowdown {
                    node: 1,
                    factor: 2.0,
                    duration: SimDuration::from_secs(120),
                },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(120.0),
                kind: FaultKind::LinkDegrade {
                    factor: 0.3,
                    duration: SimDuration::from_secs(60),
                },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(200.0),
                kind: FaultKind::NodeCrash { node: 0 },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(250.0),
                kind: FaultKind::ContainerKill { count: 2 },
            },
        ],
    };
    let (units, pilot, trace) = sleep_run(11, 10, 300, Some(&plan));
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
    }
    let agent = pilot.agent().expect("pilot active");
    assert!(agent.is_degraded(), "faults must mark the pilot degraded");
    assert_eq!(agent.dead_nodes().len(), 1);
    // The crash (and the kills) forced retries.
    assert!(
        units.iter().any(|u| u.attempts() > 1),
        "at least one unit should have been retried"
    );
    assert_eq!(
        trace.iter().filter(|ev| ev.category == "fault").count(),
        plan.len()
    );
}

#[test]
fn same_seed_same_fault_trace() {
    let plan = FaultPlan::generate(7, SimDuration::from_secs(1200), 4, 6);
    let (ua, _, ta) = sleep_run(42, 8, 200, Some(&plan));
    let (ub, _, tb) = sleep_run(42, 8, 200, Some(&plan));
    assert_eq!(ta, tb, "same seed + same plan must be bit-identical");
    for (a, b) in ua.iter().zip(&ub) {
        assert_eq!(a.state(), b.state());
        assert_eq!(a.attempts(), b.attempts());
    }
    // A different fault seed perturbs the run.
    let other = FaultPlan::generate(8, SimDuration::from_secs(1200), 4, 6);
    assert_ne!(plan, other);
}

#[test]
fn makespan_is_monotone_in_crash_count() {
    let spans: Vec<SimTime> = (0..=3)
        .map(|k| {
            let (units, _, _) = sleep_run(5, 12, 400, Some(&crash_plan(k)));
            assert!(
                units.iter().all(|u| u.state() == UnitState::Done),
                "k={k}: all units should survive {k} crashes on 4 nodes"
            );
            makespan(&units)
        })
        .collect();
    for (k, w) in spans.windows(2).enumerate() {
        assert!(
            w[0] <= w[1],
            "makespan must not shrink with more crashes: k={k} {:?} -> {:?}",
            w[0],
            w[1]
        );
    }
    // The crashes must actually cost something.
    assert!(spans[3] > spans[0]);
}

#[test]
fn zero_fault_plan_is_bit_identical_to_baseline() {
    let (ua, _, ta) = sleep_run(9, 8, 120, None);
    let (ub, _, tb) = sleep_run(9, 8, 120, Some(&FaultPlan::none()));
    assert_eq!(ta, tb, "installing an empty plan must not perturb the run");
    assert_eq!(makespan(&ua), makespan(&ub));
}

#[test]
fn unit_fails_terminally_once_retry_budget_is_spent() {
    // Crash the node under the unit, with a policy that forbids retries.
    let mut e = Engine::new(3);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200)),
        )
        .unwrap();
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(150.0),
            kind: FaultKind::NodeCrash { node: 0 },
        }],
    };
    install_faults(&mut e, &plan, &pilot);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "fragile",
            1,
            WorkSpec::Sleep(SimDuration::from_secs(600)),
        )
        .with_retry(RetryPolicy::never())],
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step());
    }
    assert_eq!(units[0].state(), UnitState::Failed);
    assert_eq!(units[0].attempts(), 1);
    assert!(units[0].failure().unwrap().contains("no attempts left"));
}

#[test]
fn yarn_pilot_survives_container_kills() {
    let mut e = Engine::new(17);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400))
                .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        )
        .unwrap();
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_secs_f64(150.0),
                kind: FaultKind::ContainerKill { count: 2 },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(200.0),
                kind: FaultKind::ContainerKill { count: 1 },
            },
        ],
    };
    install_faults(&mut e, &plan, &pilot);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..6)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("y{i}"),
                    2,
                    WorkSpec::Sleep(SimDuration::from_secs(300)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step());
    }
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
    }
    let agent = pilot.agent().unwrap();
    assert!(agent.is_degraded());
    assert!(units.iter().any(|u| u.attempts() > 1));
}

/// 3 seeds × 3 intensities: every run must terminate with every unit in a
/// final state (the smoke matrix `ci.sh` exercises).
#[test]
fn fault_matrix_always_terminates() {
    for seed in [1u64, 2, 3] {
        for intensity in [2usize, 6, 12] {
            let plan = FaultPlan::generate(seed, SimDuration::from_secs(1800), 4, intensity);
            let (units, _, _) = sleep_run(seed, 8, 150, Some(&plan));
            for u in &units {
                assert!(
                    u.state().is_final(),
                    "seed={seed} intensity={intensity}: {:?} stuck in {:?}",
                    u.id(),
                    u.state()
                );
            }
        }
    }
}

/// A Mode I pilot killed mid-run abandons its attempts' `unit.compute`
/// spans, like every other kill path (DESIGN §8). YARN shutdown does not
/// preempt running containers, so their work still completes after the
/// kill; that completion must not end the span of an attempt the dead
/// pilot no longer owns.
#[test]
fn killed_mode_i_pilot_leaves_compute_spans_open() {
    let mut e = Engine::with_trace(5);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let yarn = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400))
                .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        )
        .unwrap();
    let plain = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    um.add_pilot(&yarn);
    um.add_pilot(&plain);
    um.enable_failover(&mut e);
    let units = um.submit_units(
        &mut e,
        (0..4)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("y{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(300)),
                )
            })
            .collect(),
    );
    let on_yarn = |e: &Engine| -> Vec<Span> {
        e.trace
            .iter_spans()
            .filter(|s| {
                e.trace.span_name(s) == "unit.compute"
                    && e.trace.attr(s, "pilot") == Some(Attr::U64(yarn.id().0))
            })
            .cloned()
            .collect()
    };
    // Kill the YARN pilot as soon as one of its units computes.
    while on_yarn(&e).is_empty() {
        assert!(e.step(), "the YARN pilot never ran a unit");
    }
    let killed_at = e.now();
    yarn.kill(&mut e);
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    e.run();
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
    }
    assert!(um.rebinds() > 0, "the killed pilot's units must re-bind");
    for s in on_yarn(&e) {
        assert!(
            s.end.is_none_or(|end| end <= killed_at),
            "compute span {:?} of a killed attempt ended at {:?}, after the kill at {killed_at:?}",
            s.id,
            s.end
        );
    }
}

/// A unit waiting out its requeue backoff when its pilot dies is still
/// bound to that pilot, so the Unit-Manager re-binds it. The dead agent's
/// backoff timer must then leave it alone instead of canceling it.
#[test]
fn requeue_backoff_survives_pilot_loss() {
    let mut e = Engine::with_trace(3);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            pm.submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(14_400)),
            )
            .unwrap()
        })
        .collect();
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(100.0),
            kind: FaultKind::NodeCrash { node: 0 },
        }],
    };
    install_faults(&mut e, &plan, &pilots[0]);
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_failover(&mut e);
    let units = um.submit_units(
        &mut e,
        (0..4)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("b{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(300)),
                )
            })
            .collect(),
    );
    // Kill the first pilot the moment its Heartbeat Monitor requeues the
    // crashed node's units: they are in backoff, in no agent queue.
    let requeued = |e: &Engine| {
        e.trace
            .events()
            .iter()
            .any(|ev| ev.message.to_string().contains("lost (node crashed)"))
    };
    while !requeued(&e) {
        assert!(e.step(), "the node crash was never detected");
    }
    pilots[0].kill(&mut e);
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    e.run();
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
    }
}

/// Free framework capacity of an Active framework pilot: Spark executor
/// cores, or YARN vcores.
fn free_framework_capacity(pilot: &PilotHandle) -> u32 {
    let agent = pilot.agent().expect("an Active pilot has an agent");
    match agent.spark_cluster() {
        Some(spark) => spark.free_cores(),
        None => {
            agent
                .hadoop_env()
                .expect("YARN pilot")
                .yarn
                .available()
                .vcores
        }
    }
}

/// A framework pilot whose lease lapses in a partition self-fences and
/// drops its attempts; the Unit-Manager re-binds their units to the plain
/// pilot. The dropped attempts' grants, completions and (YARN) a
/// preemption of one of their containers then find their keys stale, and
/// must still give the Spark executor cores, YARN task containers and AMs
/// back to the framework: once every unit is Done and the pilot is Active
/// again after the heal, it has all its capacity.
#[test]
fn self_fenced_framework_pilot_gives_back_its_resources() {
    let lease = SimDuration::from_secs(60);
    let grace = SimDuration::from_secs(30);
    let partition = SimDuration::from_secs(600);
    for access in [
        AccessMode::SparkModeI,
        AccessMode::YarnModeI { with_hdfs: false },
    ] {
        for seed in 1..=3u64 {
            let mut e = Engine::new(seed);
            let session = Session::new(SessionConfig::test_profile());
            let pm = PilotManager::new(&session);
            let framework = pm
                .submit(
                    &mut e,
                    PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(14_400))
                        .with_access(access.clone()),
                )
                .unwrap();
            let plain = pm
                .submit(
                    &mut e,
                    PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(14_400)),
                )
                .unwrap();
            let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
            um.add_pilot(&framework);
            um.add_pilot(&plain);
            um.enable_leases(&mut e, lease, grace);
            while [&framework, &plain]
                .iter()
                .any(|p| p.state() != PilotState::Active)
            {
                assert!(
                    e.step(),
                    "{access:?} seed {seed}: pilots never became Active"
                );
            }
            let capacity = free_framework_capacity(&framework);
            let cut = e.now() + SimDuration::from_secs(60);
            let plan = FaultPlan {
                events: vec![
                    FaultEvent {
                        at: cut,
                        kind: FaultKind::Partition {
                            pilot: 0,
                            duration: partition,
                            symmetric: true,
                        },
                    },
                    // After the self-fence; lands on the framework pilot.
                    FaultEvent {
                        at: cut + SimDuration::from_secs(120),
                        kind: FaultKind::ContainerKill { count: 1 },
                    },
                ],
            };
            install_faults_multi(&mut e, &plan, &[framework.clone(), plain.clone()]);
            let units = um.submit_units(
                &mut e,
                (0..6)
                    .map(|i| {
                        ComputeUnitDescription::new(
                            format!("s{i}"),
                            1,
                            WorkSpec::Sleep(SimDuration::from_secs(300)),
                        )
                    })
                    .collect(),
            );
            let healed = cut + partition;
            while units.iter().any(|u| !u.state().is_final())
                || e.now() <= healed
                || framework.state() != PilotState::Active
            {
                assert!(e.step(), "{access:?} seed {seed}: simulation stalled");
            }
            for u in &units {
                assert_eq!(
                    u.state(),
                    UnitState::Done,
                    "{access:?} seed {seed}: {:?}",
                    u.id()
                );
            }
            assert!(
                um.rebinds() > 0,
                "{access:?} seed {seed}: the partition must re-bind the framework pilot's units"
            );
            assert_eq!(
                free_framework_capacity(&framework),
                capacity,
                "{access:?} seed {seed}: framework capacity leaked by dropped attempts (t = {:?})",
                e.now()
            );
        }
    }
}

//! Simulated Spark applications: a stage-DAG cost model over a standalone
//! cluster (the Spark counterpart of `rp-mapreduce`'s simulated job).
//!
//! Spark's iterative advantage — the paper's §V future-work direction of
//! "utilizing in-memory filesystems and runtimes (e.g., Tachyon and
//! Spark) for iterative algorithms" — shows up here as cached RDDs: only
//! the first stage reads input from storage, and shuffles move through
//! memory/fabric instead of disk spills.

use std::cell::RefCell;
use std::rc::Rc;

use rp_hpc::{Cluster, IoKind, StorageTarget};
use rp_sim::{Engine, SimDuration, SimTime, MB};

use crate::deploy::{SparkCluster, SparkError};

/// One stage of a Spark job (stages separate at shuffle boundaries).
#[derive(Debug, Clone)]
pub struct SparkStage {
    pub name: String,
    /// Total compute across the stage, in reference core-seconds
    /// (perfectly parallel over the granted executor cores).
    pub compute_core_s: f64,
    /// Input read from the shared filesystem at stage start (0 for
    /// stages operating on cached RDDs).
    pub input_read_mb: f64,
    /// Bytes exchanged at the stage's shuffle boundary (memory + fabric;
    /// Spark keeps shuffle blocks in page cache for these sizes).
    pub shuffle_mb: f64,
}

/// A simulated Spark application.
#[derive(Debug, Clone)]
pub struct SparkJobSpec {
    pub name: String,
    pub executor_cores: u32,
    pub stages: Vec<SparkStage>,
    /// Per-stage lognormal jitter sigma (straggler tasks).
    pub jitter_sigma: f64,
}

/// Timings of a finished simulated Spark application.
#[derive(Debug, Clone)]
pub struct SparkJobStats {
    pub total: SimDuration,
    pub per_stage: Vec<SimDuration>,
}

/// Run `spec` against a running standalone cluster. `done` receives the
/// stats (or the submission error).
pub fn run_simulated_app(
    engine: &mut Engine,
    cluster: &Cluster,
    spark: &SparkCluster,
    spec: SparkJobSpec,
    done: impl FnOnce(&mut Engine, Result<SparkJobStats, SparkError>) + 'static,
) {
    assert!(!spec.stages.is_empty(), "job needs at least one stage");
    let cluster = cluster.clone();
    let spark2 = spark.clone();
    let t0 = engine.now();
    spark.submit_app(engine, spec.executor_cores, move |eng, res| match res {
        Err(e) => done(eng, Err(e)),
        Ok((app_id, grants)) => {
            let nodes: Vec<_> = grants.iter().map(|g| g.node).collect();
            let stats = Rc::new(RefCell::new(Vec::new()));
            run_stage(
                eng,
                cluster,
                spark2,
                app_id,
                nodes,
                spec,
                0,
                t0,
                stats,
                Box::new(done),
            );
        }
    });
}

type DoneFn = Box<dyn FnOnce(&mut Engine, Result<SparkJobStats, SparkError>)>;

#[allow(clippy::too_many_arguments)]
fn run_stage(
    engine: &mut Engine,
    cluster: Cluster,
    spark: SparkCluster,
    app_id: crate::deploy::SparkAppId,
    nodes: Vec<rp_hpc::NodeId>,
    spec: SparkJobSpec,
    idx: usize,
    t0: SimTime,
    stats: Rc<RefCell<Vec<SimDuration>>>,
    done: DoneFn,
) {
    if idx >= spec.stages.len() {
        spark.finish_app(engine, app_id);
        let out = SparkJobStats {
            total: engine.now().since(t0),
            per_stage: stats.borrow().clone(),
        };
        done(engine, Ok(out));
        return;
    }
    let stage = spec.stages[idx].clone();
    let stage_start = engine.now();
    let cores = spec.executor_cores.max(1);
    engine.trace.record(
        engine.now(),
        "spark",
        format_args!("{} stage '{}' starting", spec.name, stage.name),
    );

    // 1. Input read: executors stream their partitions from Lustre in
    //    parallel (one flow per executor node).
    let after_read = {
        let cluster = cluster.clone();
        let stats = stats.clone();
        let nodes2 = nodes.clone();
        move |eng: &mut Engine| {
            // 2. Compute (perfectly parallel, with straggler jitter).
            let jitter = if spec.jitter_sigma > 0.0 {
                eng.rng.lognormal(0.0, spec.jitter_sigma)
            } else {
                1.0
            };
            let dur = cluster
                .compute_duration(stage.compute_core_s / cores as f64)
                .mul_f64(jitter);
            let cluster2 = cluster.clone();
            eng.schedule_in(dur, move |eng| {
                // 3. Shuffle: all-to-all over the fabric between executor
                //    nodes (memory-backed blocks, no disk spill).
                let n = nodes2.len().max(1);
                if stage.shuffle_mb <= 0.0 || n == 1 {
                    finish_stage(
                        eng,
                        cluster2,
                        spark,
                        app_id,
                        nodes2,
                        spec,
                        idx,
                        t0,
                        stage_start,
                        stats,
                        done,
                    );
                    return;
                }
                let per_pair = stage.shuffle_mb * MB / (n * n) as f64;
                let remaining = Rc::new(RefCell::new(n * n - n));
                type AdvanceSlot = Rc<RefCell<Option<Box<dyn FnOnce(&mut Engine)>>>>;
                let advance: AdvanceSlot = {
                    let cluster3 = cluster2.clone();
                    let nodes3 = nodes2.clone();
                    let stats2 = stats.clone();
                    Rc::new(RefCell::new(Some(Box::new(move |eng: &mut Engine| {
                        finish_stage(
                            eng,
                            cluster3,
                            spark,
                            app_id,
                            nodes3,
                            spec,
                            idx,
                            t0,
                            stage_start,
                            stats2,
                            done,
                        );
                    })
                        as Box<dyn FnOnce(&mut Engine)>)))
                };
                for &a in &nodes2 {
                    for &b in &nodes2 {
                        if a == b {
                            continue;
                        }
                        let remaining = remaining.clone();
                        let advance = advance.clone();
                        cluster2.net_transfer(eng, a, b, per_pair, move |eng| {
                            let mut r = remaining.borrow_mut();
                            *r -= 1;
                            if *r == 0 {
                                drop(r);
                                let f = advance.borrow_mut().take().expect("stage raced");
                                f(eng);
                            }
                        });
                    }
                }
            });
        }
    };
    if stage.input_read_mb <= 0.0 {
        engine.schedule_now(after_read);
    } else {
        let n = nodes.len().max(1);
        let per_node = stage.input_read_mb * MB / n as f64;
        let remaining = Rc::new(RefCell::new(n));
        let after = Rc::new(RefCell::new(Some(after_read)));
        for _ in 0..n {
            let remaining = remaining.clone();
            let after = after.clone();
            cluster.storage_io(
                engine,
                StorageTarget::Lustre,
                IoKind::Read,
                per_node,
                move |eng| {
                    let mut r = remaining.borrow_mut();
                    *r -= 1;
                    if *r == 0 {
                        drop(r);
                        let f = after.borrow_mut().take().expect("read raced");
                        f(eng);
                    }
                },
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_stage(
    engine: &mut Engine,
    cluster: Cluster,
    spark: SparkCluster,
    app_id: crate::deploy::SparkAppId,
    nodes: Vec<rp_hpc::NodeId>,
    spec: SparkJobSpec,
    idx: usize,
    t0: SimTime,
    stage_start: SimTime,
    stats: Rc<RefCell<Vec<SimDuration>>>,
    done: DoneFn,
) {
    stats.borrow_mut().push(engine.now().since(stage_start));
    run_stage(
        engine,
        cluster,
        spark,
        app_id,
        nodes,
        spec,
        idx + 1,
        t0,
        stats,
        done,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::SparkConfig;
    use rp_hpc::{MachineSpec, NodeId};

    fn boot(engine: &mut Engine) -> (Cluster, SparkCluster) {
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        SparkCluster::bootstrap(
            engine,
            &cluster,
            nodes,
            SparkConfig::test_profile(),
            move |_, sc, _| {
                *o.borrow_mut() = Some(sc);
            },
        );
        engine.run();
        let sc = out.borrow_mut().take().unwrap();
        (cluster, sc)
    }

    fn kmeans_like(iterations: usize, cached: bool) -> SparkJobSpec {
        SparkJobSpec {
            name: "kmeans".into(),
            executor_cores: 8,
            stages: (0..iterations)
                .map(|i| SparkStage {
                    name: format!("iter{i}"),
                    compute_core_s: 80.0,
                    input_read_mb: if i == 0 || !cached { 400.0 } else { 0.0 },
                    shuffle_mb: 4.0,
                })
                .collect(),
            jitter_sigma: 0.0,
        }
    }

    fn run(
        engine: &mut Engine,
        cluster: &Cluster,
        sc: &SparkCluster,
        spec: SparkJobSpec,
    ) -> SparkJobStats {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        run_simulated_app(engine, cluster, sc, spec, move |_, res| {
            *o.borrow_mut() = Some(res.unwrap());
        });
        engine.run();
        let got = out.borrow_mut().take().unwrap();
        got
    }

    #[test]
    fn stages_run_sequentially_with_expected_durations() {
        let mut e = Engine::new(1);
        let (cluster, sc) = boot(&mut e);
        let stats = run(&mut e, &cluster, &sc, kmeans_like(3, true));
        assert_eq!(stats.per_stage.len(), 3);
        // Stage 0 pays the 400 MB read; later (cached) stages only compute.
        assert!(stats.per_stage[0] > stats.per_stage[1]);
        // Compute floor: 80 core-s on 8 cores = 10 s per stage.
        for s in &stats.per_stage {
            assert!(s.as_secs_f64() >= 10.0, "{s}");
        }
        let sum: f64 = stats.per_stage.iter().map(|s| s.as_secs_f64()).sum();
        assert!((stats.total.as_secs_f64() - sum).abs() < 1.0);
    }

    #[test]
    fn caching_beats_rereading() {
        let mut e = Engine::new(1);
        let (cluster, sc) = boot(&mut e);
        let cached = run(&mut e, &cluster, &sc, kmeans_like(4, true));
        let uncached = run(&mut e, &cluster, &sc, kmeans_like(4, false));
        assert!(
            cached.total < uncached.total,
            "cached {} vs uncached {}",
            cached.total,
            uncached.total
        );
    }

    #[test]
    fn oversized_request_reports_error() {
        let mut e = Engine::new(1);
        let (cluster, sc) = boot(&mut e);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let mut spec = kmeans_like(1, true);
        spec.executor_cores = 1_000;
        run_simulated_app(&mut e, &cluster, &sc, spec, move |_, res| {
            *g.borrow_mut() = Some(res.is_err());
        });
        e.run();
        assert_eq!(*got.borrow(), Some(true));
        assert_eq!(sc.free_cores(), sc.total_cores());
    }
}

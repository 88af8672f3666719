//! Simulated Spark *standalone* deployment (paper §III-D).
//!
//! The RADICAL-Pilot LRM deploys Spark in standalone mode (not on YARN):
//! verify/download dependencies (Java, Scala, Spark binaries), generate
//! `spark-env.sh` / `slaves` / `master` files, start the Master, start the
//! Workers, and tear everything down with `sbin/stop-all.sh`. Applications
//! get executors with a core count; a simple spread-out scheduler assigns
//! executor cores across workers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rp_hpc::{Cluster, NodeId};
use rp_sim::{Engine, SimDuration};

/// Deployment and scheduling tunables for standalone Spark.
#[derive(Debug, Clone)]
pub struct SparkConfig {
    /// Spark + JDK + Scala distribution size (MB) when not already staged.
    pub dist_size_mb: f64,
    pub download_mbps: f64,
    pub dist_cached: bool,
    /// Dependency verification + unpack (s, mean/std).
    pub prepare_s: (f64, f64),
    /// spark-env.sh / slaves / master generation (s, mean/std).
    pub config_gen_s: (f64, f64),
    pub master_start_s: (f64, f64),
    /// Per-worker daemon start (parallel, pay the max) (s, mean/std).
    pub worker_start_s: (f64, f64),
    /// spark-submit JVM + driver + executor registration (s, mean/std).
    pub app_submit_s: (f64, f64),
    /// stop-all.sh teardown (s, mean/std).
    pub stop_s: (f64, f64),
}

impl Default for SparkConfig {
    fn default() -> Self {
        SparkConfig {
            dist_size_mb: 230.0,
            download_mbps: 12.0,
            dist_cached: false,
            prepare_s: (7.0, 1.2),
            config_gen_s: (1.5, 0.3),
            master_start_s: (6.0, 1.0),
            worker_start_s: (5.0, 1.0),
            app_submit_s: (4.0, 0.8),
            stop_s: (3.0, 0.5),
        }
    }
}

impl SparkConfig {
    pub fn test_profile() -> Self {
        SparkConfig {
            dist_cached: true,
            prepare_s: (0.1, 0.0),
            config_gen_s: (0.05, 0.0),
            master_start_s: (0.1, 0.0),
            worker_start_s: (0.1, 0.0),
            app_submit_s: (0.1, 0.0),
            stop_s: (0.05, 0.0),
            ..SparkConfig::default()
        }
    }
}

/// Identifier of a Spark application (driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SparkAppId(pub u64);

/// Executor cores granted to an app on one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorGrant {
    pub node: NodeId,
    pub cores: u32,
}

struct WorkerState {
    node: NodeId,
    cores_total: u32,
    cores_free: u32,
}

struct Inner {
    config: SparkConfig,
    workers: Vec<WorkerState>,
    apps: BTreeMap<SparkAppId, Vec<ExecutorGrant>>,
    next_app: u64,
    stopped: bool,
}

/// A running standalone Spark cluster. Cheap to clone.
#[derive(Clone)]
pub struct SparkCluster {
    inner: Rc<RefCell<Inner>>,
}

impl SparkCluster {
    /// Bootstrap on the given nodes; `on_ready` fires when Master and all
    /// Workers are up, reporting the bootstrap duration.
    pub fn bootstrap(
        engine: &mut Engine,
        cluster: &Cluster,
        nodes: Vec<NodeId>,
        config: SparkConfig,
        on_ready: impl FnOnce(&mut Engine, SparkCluster, SimDuration) + 'static,
    ) {
        assert!(!nodes.is_empty());
        let t0 = engine.now();
        let download = if config.dist_cached {
            0.0
        } else {
            let base = config.dist_size_mb / config.download_mbps;
            engine.rng.normal_min(base, base * 0.08, 0.1)
        };
        let prepare = engine
            .rng
            .normal_min(config.prepare_s.0, config.prepare_s.1, 0.01);
        let confgen = engine
            .rng
            .normal_min(config.config_gen_s.0, config.config_gen_s.1, 0.01);
        let master = engine
            .rng
            .normal_min(config.master_start_s.0, config.master_start_s.1, 0.01);
        let workers_max = (0..nodes.len())
            .map(|_| {
                engine
                    .rng
                    .normal_min(config.worker_start_s.0, config.worker_start_s.1, 0.01)
            })
            .fold(0.0f64, f64::max);
        let total = SimDuration::from_secs_f64(download + prepare + confgen + master + workers_max);
        let cores = cluster.spec().cores_per_node;
        engine.trace.record(
            engine.now(),
            "spark",
            format_args!("bootstrap on {} nodes ({total})", nodes.len()),
        );
        engine.schedule_in(total, move |eng| {
            let sc = SparkCluster {
                inner: Rc::new(RefCell::new(Inner {
                    config,
                    workers: nodes
                        .iter()
                        .map(|&n| WorkerState {
                            node: n,
                            cores_total: cores,
                            cores_free: cores,
                        })
                        .collect(),
                    apps: BTreeMap::new(),
                    next_app: 0,
                    stopped: false,
                })),
            };
            eng.trace.record(eng.now(), "spark", "ready");
            on_ready(eng, sc, eng.now().since(t0));
        });
    }

    /// Submit an application requesting `total_cores` executor cores.
    /// Grants spread across workers (standalone `spreadOut` behaviour);
    /// fails the submission (callback with `Err`) if cores are unavailable.
    pub fn submit_app(
        &self,
        engine: &mut Engine,
        total_cores: u32,
        on_start: impl FnOnce(&mut Engine, Result<(SparkAppId, Vec<ExecutorGrant>), SparkError>)
            + 'static,
    ) {
        let delay = {
            let inner = self.inner.borrow();
            assert!(!inner.stopped, "submit_app on stopped Spark cluster");
            let (m, s) = inner.config.app_submit_s;
            SimDuration::from_secs_f64(engine.rng.normal_min(m, s, 0.01))
        };
        let this = self.clone();
        engine.schedule_in(delay, move |eng| {
            let result = this.try_allocate(total_cores);
            on_start(eng, result);
        });
    }

    fn try_allocate(
        &self,
        total_cores: u32,
    ) -> Result<(SparkAppId, Vec<ExecutorGrant>), SparkError> {
        let mut inner = self.inner.borrow_mut();
        let free: u32 = inner.workers.iter().map(|w| w.cores_free).sum();
        if free < total_cores {
            return Err(SparkError::InsufficientCores {
                requested: total_cores,
                available: free,
            });
        }
        // Spread: round-robin one core at a time across workers with space.
        let mut grants: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut remaining = total_cores;
        while remaining > 0 {
            let mut progressed = false;
            for w in inner.workers.iter_mut() {
                if remaining == 0 {
                    break;
                }
                if w.cores_free > 0 {
                    w.cores_free -= 1;
                    *grants.entry(w.node).or_insert(0) += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            assert!(progressed, "allocation loop stuck");
        }
        let id = SparkAppId(inner.next_app);
        inner.next_app += 1;
        let grants: Vec<ExecutorGrant> = grants
            .into_iter()
            .map(|(node, cores)| ExecutorGrant { node, cores })
            .collect();
        inner.apps.insert(id, grants.clone());
        Ok((id, grants))
    }

    /// Driver finished: release the app's executor cores.
    pub fn finish_app(&self, engine: &mut Engine, id: SparkAppId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(grants) = inner.apps.remove(&id) {
            for g in grants {
                if let Some(w) = inner.workers.iter_mut().find(|w| w.node == g.node) {
                    w.cores_free += g.cores;
                }
            }
        }
        engine
            .trace
            .record(engine.now(), "spark", format_args!("{id:?} finished"));
    }

    /// Total free executor cores right now.
    pub fn free_cores(&self) -> u32 {
        self.inner
            .borrow()
            .workers
            .iter()
            .map(|w| w.cores_free)
            .sum()
    }

    pub fn total_cores(&self) -> u32 {
        self.inner
            .borrow()
            .workers
            .iter()
            .map(|w| w.cores_total)
            .sum()
    }

    /// `sbin/stop-all.sh`: tear the cluster down.
    pub fn shutdown(&self, engine: &mut Engine, done: impl FnOnce(&mut Engine) + 'static) {
        let delay = {
            let mut inner = self.inner.borrow_mut();
            inner.stopped = true;
            let (m, s) = inner.config.stop_s;
            SimDuration::from_secs_f64(engine.rng.normal_min(m, s, 0.01))
        };
        engine.trace.record(engine.now(), "spark", "stop-all.sh");
        engine.schedule_in(delay, done);
    }

    pub fn is_stopped(&self) -> bool {
        self.inner.borrow().stopped
    }
}

/// Spark submission errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparkError {
    InsufficientCores { requested: u32, available: u32 },
}

impl std::fmt::Display for SparkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparkError::InsufficientCores {
                requested,
                available,
            } => write!(f, "requested {requested} cores, only {available} free"),
        }
    }
}

impl std::error::Error for SparkError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::MachineSpec;

    fn boot(engine: &mut Engine, cfg: SparkConfig) -> (SparkCluster, f64) {
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        SparkCluster::bootstrap(engine, &cluster, nodes, cfg, move |_, sc, d| {
            *o.borrow_mut() = Some((sc, d.as_secs_f64()));
        });
        engine.run();
        let got = out.borrow_mut().take().expect("spark ready");
        got
    }

    #[test]
    fn bootstrap_pays_daemon_costs() {
        let mut e = Engine::new(1);
        let (_sc, t) = boot(&mut e, SparkConfig::default());
        // download ~19 + prepare 7 + conf 1.5 + master 6 + workers ~5-7
        assert!((30.0..60.0).contains(&t), "{t}");
    }

    #[test]
    fn executors_spread_across_workers() {
        let mut e = Engine::new(1);
        let (sc, _) = boot(&mut e, SparkConfig::test_profile());
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        sc.submit_app(&mut e, 8, move |_, res| {
            *g.borrow_mut() = Some(res.unwrap());
        });
        e.run();
        let (_, grants) = got.borrow_mut().take().unwrap();
        // 8 cores over 4 workers → 2 each (spreadOut).
        assert_eq!(grants.len(), 4);
        assert!(grants.iter().all(|g| g.cores == 2));
        assert_eq!(sc.free_cores(), 32 - 8);
    }

    #[test]
    fn finish_app_releases_cores() {
        let mut e = Engine::new(1);
        let (sc, _) = boot(&mut e, SparkConfig::test_profile());
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        sc.submit_app(&mut e, 12, move |_, res| {
            *g.borrow_mut() = Some(res.unwrap().0);
        });
        e.run();
        let id = got.borrow_mut().take().unwrap();
        sc.finish_app(&mut e, id);
        assert_eq!(sc.free_cores(), sc.total_cores());
    }

    #[test]
    fn oversubscription_is_rejected() {
        let mut e = Engine::new(1);
        let (sc, _) = boot(&mut e, SparkConfig::test_profile());
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        sc.submit_app(&mut e, 64, move |_, res| {
            *g.borrow_mut() = Some(res);
        });
        e.run();
        assert!(matches!(
            got.borrow_mut().take().unwrap(),
            Err(SparkError::InsufficientCores { .. })
        ));
        assert_eq!(sc.free_cores(), sc.total_cores());
    }

    #[test]
    fn shutdown_stops_cluster() {
        let mut e = Engine::new(1);
        let (sc, _) = boot(&mut e, SparkConfig::test_profile());
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        sc.shutdown(&mut e, move |_| *d.borrow_mut() = true);
        e.run();
        assert!(*done.borrow());
        assert!(sc.is_stopped());
    }
}

//! `mode1_pipeline`: the paper's coupled HPC + Hadoop case in one engine
//! and one session. A Mode I YARN+HDFS pilot runs a bag of YARN-wrapped
//! sleep units (more than its vcores, so requests queue in the RM) and
//! MapReduce jobs over multi-block HDFS inputs with a node-local shuffle;
//! a Spark Mode I pilot runs multi-stage Spark jobs. The isolation probes
//! drive a bare `YarnCluster` and a bare `FairLink` at the pipeline's app
//! and shuffle-flow counts.

use std::cell::Cell;
use std::rc::Rc;

use rp_hdfs::StoragePolicy;
use rp_hpc::{Cluster, MachineSpec, NodeId};
use rp_mapreduce::{MrCostModel, MrJobSpec, ShuffleBackend};
use rp_pilot::{
    when_all_done, AccessMode, ComputeUnitDescription, PilotDescription, PilotHandle, PilotManager,
    PilotState, Session, SessionConfig, UmScheduler, UnitManager, WorkSpec,
};
use rp_sim::{Engine, FairLink, SimDuration, SimRng, SimTime};
use rp_spark::{SparkJobSpec, SparkStage};
use rp_yarn::{AppId, AppState, Resource, ResourceRequest, YarnCluster, YarnConfig};

use crate::alloc;
use crate::clock::Clock;
use crate::rep::{digest, exactly_once, unit_table, Census, Rep};

/// YARN-wrapped sleep units (one YARN application each).
const YARN_UNITS: usize = 1_000;
const MR_JOBS: usize = 4;
/// HDFS blocks per MapReduce input, hence map tasks per job.
const MR_MAPS: u32 = 256;
const MR_REDUCERS: usize = 4;
/// Block size of every MapReduce input (10 GiB per job).
const MR_BLOCK_MB: u64 = 40;
const SPARK_JOBS: usize = 32;
const SPARK_STAGES: usize = 3;
/// Executor cores per Spark job: eight jobs share the 64-core cluster.
const SPARK_CORES: u32 = 8;
const YARN_NODES: u32 = 16;
const SPARK_NODES: u32 = 4;
const MACHINE: &str = "xsede.stampede";

pub struct PipelineInput {
    seed: u64,
    yarn_units: Vec<ComputeUnitDescription>,
    mr_units: Vec<ComputeUnitDescription>,
    /// HDFS path of each MapReduce input.
    mr_inputs: Vec<String>,
    spark_units: Vec<ComputeUnitDescription>,
}

pub fn input(seed: u64) -> PipelineInput {
    let mut rng = SimRng::new(seed);
    let yarn_units = (0..YARN_UNITS)
        .map(|i| {
            let sleep = SimDuration::from_secs(rng.uniform_u64(50, 70));
            ComputeUnitDescription::new(format!("y{i}"), 1, WorkSpec::Sleep(sleep))
        })
        .collect();
    let mut mr_inputs = Vec::new();
    let mr_units = (0..MR_JOBS)
        .map(|j| {
            let path = format!("/in/job{j}");
            mr_inputs.push(path.clone());
            ComputeUnitDescription::new(
                format!("mr{j}"),
                1,
                // No per-task jitter here or in the Spark jobs: with it, the
                // engine seed alone moves the pipeline's peak event
                // concurrency by up to 70% and its host cost with it.
                WorkSpec::MapReduce(MrJobSpec {
                    name: format!("job{j}"),
                    input_path: path,
                    num_reducers: MR_REDUCERS,
                    container: Resource::new(1, 1024),
                    shuffle: ShuffleBackend::LocalDisk,
                    cost: MrCostModel {
                        task_jitter_sigma: 0.0,
                        ..MrCostModel::default()
                    },
                }),
            )
        })
        .collect();
    let spark_units = (0..SPARK_JOBS)
        .map(|j| {
            let stages = (0..SPARK_STAGES)
                .map(|s| SparkStage {
                    name: format!("stage{s}"),
                    compute_core_s: rng.uniform(100.0, 200.0),
                    input_read_mb: if s == 0 {
                        rng.uniform(200.0, 400.0)
                    } else {
                        0.0
                    },
                    shuffle_mb: rng.uniform(50.0, 100.0),
                })
                .collect();
            ComputeUnitDescription::new(
                format!("spark{j}"),
                SPARK_CORES,
                WorkSpec::SparkJob(SparkJobSpec {
                    name: format!("spark{j}"),
                    executor_cores: SPARK_CORES,
                    stages,
                    jitter_sigma: 0.0,
                }),
            )
        })
        .collect();
    PipelineInput {
        seed,
        yarn_units,
        mr_units,
        mr_inputs,
        spark_units,
    }
}

/// Reduce tasks × map tasks over all jobs: the shuffle's fetch count.
fn shuffle_flows() -> usize {
    MR_JOBS * MR_MAPS as usize * MR_REDUCERS
}

fn submit_pilot(
    e: &mut Engine,
    pm: &PilotManager,
    nodes: u32,
    access: AccessMode,
    clock: &mut Clock,
    rep: &mut Rep,
) -> PilotHandle {
    let walltime = SimDuration::from_secs(7 * 86_400);
    let t = clock.begin("pilot.submit", "um");
    let pilot = pm
        .submit(
            e,
            PilotDescription::new(MACHINE, nodes, walltime).with_access(access),
        )
        .expect("Mode I pilot submits");
    let secs = clock.end(t);
    rep.time("pilot.submit_s", secs);
    pilot
}

pub fn rep(input: &PipelineInput, clock: &mut Clock) -> Rep {
    let mut rep = Rep::default();
    let base = alloc::reset_peak();
    // MapReduce jobs first: their AMs queue ahead of the sleep bag.
    let mut yarn_descs = input.mr_units.clone();
    yarn_descs.extend(input.yarn_units.iter().cloned());
    let spark_descs = input.spark_units.clone();
    rep.units = (yarn_descs.len() + spark_descs.len()) as u64;
    rep.ops = rep.units;
    let a0 = alloc::snapshot();
    let t_rep = clock.begin("rep", "bench");

    let t_setup = clock.begin("setup", "bench");
    let mut e = Engine::new(input.seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let hadoop = submit_pilot(
        &mut e,
        &pm,
        YARN_NODES,
        AccessMode::YarnModeI { with_hdfs: true },
        clock,
        &mut rep,
    );
    let spark = submit_pilot(
        &mut e,
        &pm,
        SPARK_NODES,
        AccessMode::SparkModeI,
        clock,
        &mut rep,
    );
    let mut um_hadoop = UnitManager::new(&session, UmScheduler::Direct);
    um_hadoop.add_pilot(&hadoop);
    let mut um_spark = UnitManager::new(&session, UmScheduler::Direct);
    um_spark.add_pilot(&spark);
    // Activation: run the bootstrap until both frameworks are up.
    let t = clock.begin("activate", "engine");
    while !(hadoop.state() == PilotState::Active && spark.state() == PilotState::Active) {
        assert!(e.step(), "pilots drained before becoming Active");
    }
    clock.end(t);
    let env = hadoop
        .agent()
        .and_then(|a| a.hadoop_env())
        .expect("the Mode I pilot runs YARN");
    let hdfs = env.hdfs.clone().expect("the Mode I pilot runs HDFS");
    let t = clock.begin("hdfs.create_synthetic_with_blocks", "hdfs");
    let bytes = MR_MAPS as u64 * MR_BLOCK_MB * 1024 * 1024;
    for path in &input.mr_inputs {
        hdfs.create_synthetic_with_blocks(path, bytes, StoragePolicy::Default, MR_MAPS)
            .expect("fresh HDFS path");
    }
    let secs = clock.end(t);
    rep.time("hdfs.load_s", secs);
    rep.setup_s = clock.end(t_setup);
    rep.setup_allocs = alloc::snapshot().since(a0);

    let t_work = clock.begin("work", "bench");
    let a = alloc::snapshot();
    let t = clock.begin("um.submit_units", "um");
    let mut units = um_hadoop.submit_units(&mut e, yarn_descs);
    let n_hadoop = units.len();
    units.extend(um_spark.submit_units(&mut e, spark_descs));
    rep.submit_s = clock.end(t);
    rep.submit_allocs = alloc::snapshot().since(a);
    let sess = session.clone();
    let pilots = [hadoop, spark];
    let to_cancel = pilots.clone();
    when_all_done(&mut e, &units, move |eng| {
        let pm = PilotManager::new(&sess);
        for p in &to_cancel {
            pm.cancel(eng, p);
        }
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
    let hadoop_done = Census::of(&units[..n_hadoop]).done;
    let spark_done = Census::of(&units[n_hadoop..]).done;
    let mut mr_tasks = 0;
    let mut maps = 0;
    for u in &units[..MR_JOBS] {
        if let Some(stats) = u.mr_stats() {
            mr_tasks += stats.maps + stats.reducers;
            maps += stats.maps;
        }
    }
    // `yarn application -list`: every unit on the Mode I pilot ran as one
    // YARN application, numbered from 0.
    let apps_finished = (0..hadoop_done)
        .filter(|&i| env.yarn.app_report(&e, AppId(i)).state == AppState::Finished)
        .count() as u64;
    let mut table = String::new();
    unit_table(&mut table, "hadoop", &units[..n_hadoop]);
    unit_table(&mut table, "spark", &units[n_hadoop..]);
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
    rep.check(apps_finished == hadoop_done, || {
        format!("{apps_finished} YARN applications Finished for {hadoop_done} Done units")
    });
    rep.check(maps == MR_JOBS * MR_MAPS as usize, || {
        format!("{maps} map tasks ran, expected one per HDFS block")
    });
    if let Err(why) = exactly_once(&session.store(), &pilots, census.done) {
        rep.problems.push(why);
    }
    rep.fingerprint = format!(
        "{} end_s={:.6} events={} mr_tasks={mr_tasks} table={:016x}",
        census.describe(),
        e.now().as_secs_f64(),
        e.events_executed(),
        digest(&table)
    );
    rep.count_stack(
        &session.store(),
        &pilots,
        um_hadoop.rebinds() + um_spark.rebinds(),
    );
    rep.count_max("engine.slab_peak", e.slab_len() as f64);
    rep.count("engine.events", e.events_executed() as f64);
    // Each unit on the Mode I pilot is one YARN application.
    rep.count("yarn.apps", hadoop_done as f64);
    rep.count("mapreduce.tasks", mr_tasks as f64);
    rep.count("spark.jobs_done", spark_done as f64);
    rep
}

/// `yarn.probe_s`: a bare `YarnCluster` on the pipeline's node count runs
/// the pipeline's app count, each an AM that takes one task container for
/// a seeded sleep, releases it and finishes.
pub fn yarn_probe(seed: u64, clock: &mut Clock) -> f64 {
    let t = clock.begin("yarn.probe", "yarn");
    let mut e = Engine::new(seed);
    let cluster = Cluster::new(MachineSpec::by_name(MACHINE).expect("known machine"));
    let nodes: Vec<NodeId> = cluster.node_ids().take(YARN_NODES as usize).collect();
    let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::test_profile());
    let mut apps = Vec::with_capacity(YARN_UNITS);
    for i in 0..YARN_UNITS {
        let sleep = SimDuration::from_secs(e.rng.uniform_u64(50, 70));
        let app = yarn.submit_app(
            &mut e,
            format!("y{i}"),
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let am2 = am.clone();
                am.request_container(eng, ResourceRequest::new(1, 1024), move |eng, c| {
                    eng.schedule_in(sleep, move |eng| {
                        am2.release_container(eng, c.id);
                        am2.finish(eng);
                    });
                });
            },
        );
        apps.push(app);
    }
    e.run();
    let secs = clock.end(t);
    let finished = apps
        .iter()
        .filter(|&&id| yarn.app_state(id) == AppState::Finished)
        .count();
    assert_eq!(finished, YARN_UNITS, "every probe app finishes");
    secs
}

/// `link.probe_s`: a bare `FairLink` carries the pipeline's shuffle-flow
/// count, flows starting at seeded times over ten virtual minutes.
pub fn link_probe(seed: u64, clock: &mut Clock) -> f64 {
    let t = clock.begin("link.probe", "link");
    let mut e = Engine::new(seed);
    let link = FairLink::new("shuffle", 10e9);
    let landed = Rc::new(Cell::new(0usize));
    let flows = shuffle_flows();
    for _ in 0..flows {
        let at = SimTime::from_secs_f64(e.rng.uniform(0.0, 600.0));
        let bytes = e.rng.uniform(1e6, 64e6);
        let (link, landed) = (link.clone(), landed.clone());
        e.schedule_at(at, move |eng| {
            link.transfer(eng, bytes, 1e9, move |_| landed.set(landed.get() + 1));
        });
    }
    e.run();
    let secs = clock.end(t);
    assert_eq!(landed.get(), flows, "every probe flow lands");
    secs
}

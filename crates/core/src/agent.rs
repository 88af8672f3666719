//! The RADICAL-Pilot-Agent (paper §III-B/C/D, right half of Fig. 3).
//!
//! The agent runs inside the placeholder batch job. Its Local Resource
//! Manager detects the allocation and — depending on the pilot's access
//! mode — bootstraps YARN/HDFS (Mode I), connects to the machine's
//! dedicated Hadoop environment (Mode II) or deploys standalone Spark.
//! The agent scheduler assigns execution slots (cores for plain pilots;
//! cores *and memory* for YARN-backed pilots, as the paper highlights),
//! the Task Spawner stages data and launches units through the selected
//! Launch Method, and completion flows back through the coordination
//! store.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use rp_hpc::{Allocation, IoKind, NodeId, StorageTarget};
use rp_saga::filetransfer::{transfer, Endpoint};
use rp_sim::{Engine, FaultKind, SimDuration, SimTime, SpanId};
use rp_spark::SparkCluster;
use rp_yarn::{
    bootstrap_mode_i_in_span, connect_mode_ii, AmHandle, HadoopEnv, Resource, ResourceRequest,
};

use crate::coordination::CoordinationStore;
use crate::description::{AccessMode, StageEndpoint, StagingDirective, UnitIoTarget, WorkSpec};
use crate::launch::{self, LaunchMethod};
use crate::session::{MachineHandle, SessionConfig};
use crate::states::UnitState;
use crate::unit::{PilotId, UnitHandle, UnitId};

/// What the LRM provisioned for this pilot.
#[derive(Clone)]
pub(crate) enum RuntimeAccess {
    Plain,
    Yarn { env: HadoopEnv, mode_i: bool },
    Spark { cluster: SparkCluster },
}

/// Where a scheduled unit runs.
#[derive(Clone)]
enum Placement {
    /// Plain execution on agent-managed core slots: (node, cores) pairs,
    /// plus the unit's memory demand for pressure accounting.
    Nodes {
        nodes: Vec<(NodeId, u32)>,
        mem_mb: u64,
        cores: u32,
    },
    /// Through the pilot's YARN cluster (gate, vcores, mem reserved).
    Yarn { vcores: u32, mem_mb: u64 },
    /// Through the pilot's Spark cluster (cores reserved).
    Spark { cores: u32 },
}

/// Continuation of a staging phase: `ok == false` means an injected
/// staging error exhausted the unit's retry budget.
type StagingDone = Box<dyn FnOnce(&mut Engine, bool)>;

/// A unit the agent currently owns resources for (staging, spawner queue
/// or executing). The `alive` flag lets the recovery path invalidate an
/// attempt's pending continuations without being able to cancel them.
struct ActiveRun {
    unit: UnitHandle,
    placement: Placement,
    alive: Rc<Cell<bool>>,
}

/// Dense per-node slot accounting for the plain scheduler.
///
/// The allocation's nodes are stored sorted by id with all per-node state
/// in parallel vectors indexed by rank, so the first-fit scan walks flat
/// arrays instead of chasing B-tree nodes and a slot update is one binary
/// search plus an O(1) write. Ascending-id iteration matches the
/// `BTreeMap`s this replaces, so placement decisions are bit-identical.
struct NodeSlots {
    /// Allocation nodes, sorted ascending; rank here keys every other field.
    ids: Vec<NodeId>,
    free_cores: Vec<u32>,
    /// Sum of `free_cores` over live nodes, so a saturated pilot answers
    /// "anything placeable?" in O(1) instead of rescanning the queue.
    free_total: u64,
    /// Memory committed per node (pressure model for the plain scheduler).
    committed_mem: Vec<u64>,
    /// Compute-slowdown factors (>1 ⇒ slower) from injected `NodeSlowdown`
    /// faults; applied to Compute work at launch time.
    slowdown: Vec<f64>,
    /// Nodes lost to injected crashes. The scheduler never places new work
    /// on them; `release` tolerates them.
    dead: Vec<bool>,
    dead_count: usize,
}

impl NodeSlots {
    fn new(nodes: &[NodeId], cores_per_node: u32) -> Self {
        let mut ids = nodes.to_vec();
        ids.sort_unstable();
        let n = ids.len();
        NodeSlots {
            ids,
            free_cores: vec![cores_per_node; n],
            free_total: cores_per_node as u64 * n as u64,
            committed_mem: vec![0; n],
            slowdown: vec![1.0; n],
            dead: vec![false; n],
            dead_count: 0,
        }
    }

    /// Rank of a node; `None` for nodes outside the allocation
    /// (framework-placed containers may reference those).
    fn idx(&self, n: NodeId) -> Option<usize> {
        self.ids.binary_search(&n).ok()
    }

    fn is_dead(&self, n: NodeId) -> bool {
        self.idx(n).is_some_and(|i| self.dead[i])
    }

    fn any_dead(&self) -> bool {
        self.dead_count > 0
    }

    /// Crashed nodes, ascending.
    fn dead_nodes(&self) -> Vec<NodeId> {
        self.ids
            .iter()
            .zip(&self.dead)
            .filter(|&(_, &d)| d)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Mark a node crashed and drop its slots. Returns `false` if it was
    /// already dead (or unknown).
    fn kill(&mut self, n: NodeId) -> bool {
        let Some(i) = self.idx(n) else { return false };
        if self.dead[i] {
            return false;
        }
        self.dead[i] = true;
        self.dead_count += 1;
        self.free_total -= self.free_cores[i] as u64;
        self.free_cores[i] = 0;
        self.committed_mem[i] = 0;
        true
    }

    /// Committed memory on a node (0 for crashed or untracked nodes).
    fn committed(&self, n: NodeId) -> u64 {
        self.idx(n).map_or(0, |i| self.committed_mem[i])
    }

    /// Slowdown factor for a node (1.0 when unset or untracked).
    fn slowdown_factor(&self, n: NodeId) -> f64 {
        self.idx(n).map_or(1.0, |i| self.slowdown[i])
    }

    fn set_slowdown(&mut self, n: NodeId, factor: f64) {
        if let Some(i) = self.idx(n) {
            self.slowdown[i] = factor;
        }
    }

    fn clear_slowdown(&mut self, n: NodeId) {
        if let Some(i) = self.idx(n) {
            self.slowdown[i] = 1.0;
        }
    }

    /// Take a placement's share of a node. The scheduler only ever picks
    /// live allocation nodes, so the rank lookup must succeed.
    fn reserve(&mut self, n: NodeId, cores: u32, mem_share: u64) {
        let i = self.idx(n).expect("node known");
        self.free_cores[i] -= cores;
        self.free_total -= cores as u64;
        self.committed_mem[i] += mem_share;
    }

    /// Give back a placement's share. Crashed nodes lost their slots with
    /// the crash — their share of the placement is simply gone.
    fn release(&mut self, n: NodeId, cores: u32, mem_share: u64) {
        if let Some(i) = self.idx(n) {
            if self.dead[i] {
                return;
            }
            self.free_cores[i] += cores;
            self.free_total += cores as u64;
            self.committed_mem[i] = self.committed_mem[i].saturating_sub(mem_share);
        }
    }
}

struct AgentInner {
    pilot: PilotId,
    machine: MachineHandle,
    alloc: Allocation,
    access: RuntimeAccess,
    cfg: SessionConfig,
    store: CoordinationStore,
    /// Plain-scheduler slot accounting, dense per allocation node.
    slots: NodeSlots,
    /// Submission gate for framework-backed units (framework does its own
    /// placement; the agent avoids flooding it).
    yarn_inflight: Resource,
    spark_inflight_cores: u32,
    queue: VecDeque<UnitHandle>,
    /// Units staged and waiting for the (serial) Task Spawner.
    spawn_queue: VecDeque<(UnitHandle, Placement, Rc<Cell<bool>>)>,
    spawner_busy: bool,
    running: usize,
    stopping: bool,
    /// Pending injected staging errors: each one fails the next staging
    /// directive once.
    staging_faults: u32,
    /// Live attempts owning agent resources, keyed by unit id. The
    /// Heartbeat Monitor scans these for runs stranded on dead nodes.
    active: BTreeMap<u64, ActiveRun>,
    /// Units past execution (staging out / awaiting the Done round trip).
    /// Ownership token: `terminate` drains this map, so a completion
    /// callback that fires after the pilot died finds its unit gone and
    /// must not flip the (possibly re-bound) unit's state.
    finishing: BTreeMap<u64, UnitHandle>,
    /// Hard end of the allocation (start + walltime): the reference for
    /// walltime-aware draining.
    deadline: Option<SimTime>,
    /// Set once any fault hit this pilot (crash detected, work requeued).
    degraded: bool,
    /// Idle RADICAL-Pilot Application Masters kept for reuse (§III-C
    /// future-work optimization, enabled by `SessionConfig::am_reuse`).
    am_pool: Vec<AmHandle>,
    framework_bootstrap: SimDuration,
    units_completed: u64,
    heartbeats: u64,
    heartbeat_armed: bool,
    /// Fencing epoch of the currently/last held ownership lease (0 =
    /// never acquired). Stamped on every completion/return message.
    lease_epoch: u64,
    /// Local expiry of the held lease (the store's expiry from the last
    /// successful grant/renewal — virtual clocks are identical, so the
    /// agent's view is never later than the store's).
    lease_deadline: SimTime,
    /// Self-fenced: the lease expired without renewal. The agent stops
    /// dispatching, drops in-flight completion tokens and waits to
    /// re-acquire at a fresh epoch once reachable again.
    fenced: bool,
}

/// Trace line `UnitId(n) launching via Method`, formatted only when the
/// trace is read.
fn launch_line(f: &mut fmt::Formatter<'_>, unit: u64, method: u32) -> fmt::Result {
    write!(
        f,
        "{:?} launching via {:?}",
        UnitId(unit),
        LaunchMethod::ALL[method as usize]
    )
}

/// Shared handle to a running agent.
#[derive(Clone)]
pub struct Agent {
    inner: Rc<RefCell<AgentInner>>,
}

impl Agent {
    /// Start the agent inside a granted allocation. `on_active` fires once
    /// the LRM finished provisioning (the pilot becomes Active then).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        engine: &mut Engine,
        pilot: PilotId,
        machine: MachineHandle,
        alloc: Allocation,
        access: AccessMode,
        bootstrap_span: SpanId,
        cfg: SessionConfig,
        store: CoordinationStore,
        on_active: impl FnOnce(&mut Engine, Agent) + 'static,
    ) {
        let (boot_mean, boot_std) = machine.cluster.spec().agent_bootstrap_s;
        let agent_boot =
            SimDuration::from_secs_f64(engine.rng.normal_min(boot_mean, boot_std, 0.05));
        engine.trace.record(
            engine.now(),
            "agent",
            format_args!("{pilot:?} bootstrapping on {} nodes", alloc.nodes.len()),
        );
        let cluster_outer = machine.cluster.clone();
        let nodes_outer = alloc.nodes.clone();
        let yarn_cfg = cfg.yarn.clone();
        let spark_cfg = cfg.spark.clone();
        let dedicated = machine.dedicated.clone();
        let finish =
            move |eng: &mut Engine, access: RuntimeAccess, framework_bootstrap: SimDuration| {
                let slots = NodeSlots::new(&alloc.nodes, machine.cluster.spec().cores_per_node);
                let deadline = machine.batch.deadline(alloc.job_id);
                let agent = Agent {
                    inner: Rc::new(RefCell::new(AgentInner {
                        pilot,
                        machine,
                        alloc,
                        access,
                        cfg,
                        store: store.clone(),
                        slots,
                        yarn_inflight: Resource::new(0, 0),
                        spark_inflight_cores: 0,
                        queue: VecDeque::new(),
                        spawn_queue: VecDeque::new(),
                        spawner_busy: false,
                        running: 0,
                        stopping: false,
                        staging_faults: 0,
                        active: BTreeMap::new(),
                        finishing: BTreeMap::new(),
                        deadline,
                        degraded: false,
                        am_pool: Vec::new(),
                        framework_bootstrap,
                        units_completed: 0,
                        heartbeats: 0,
                        heartbeat_armed: false,
                        lease_epoch: 0,
                        lease_deadline: SimTime::ZERO,
                        fenced: false,
                    })),
                };
                let a2 = agent.clone();
                store.register_agent(eng, pilot, move |eng, batch| {
                    a2.receive_units(eng, batch);
                });
                // Ownership lease: acquired at registration, renewed on
                // every heartbeat. A partition at bootstrap just defers
                // acquisition to the first reachable heartbeat tick.
                if store.leases_enabled() {
                    if let Some((epoch, expires)) = store.try_acquire_lease(eng, pilot) {
                        let mut inner = agent.inner.borrow_mut();
                        inner.lease_epoch = epoch;
                        inner.lease_deadline = expires;
                    }
                    // A lease-holding agent heartbeats for its whole
                    // lifetime (idle included): renewal is proof of life,
                    // and a lapsed-while-idle lease would force a
                    // spurious self-fence the moment work arrives.
                    agent.ensure_heartbeat(eng);
                }
                eng.trace
                    .record(eng.now(), "agent", format_args!("{pilot:?} active"));
                on_active(eng, agent);
            };

        engine.schedule_in(agent_boot, move |eng| {
            let t0 = eng.now();
            match access {
                AccessMode::Plain => finish(eng, RuntimeAccess::Plain, SimDuration::ZERO),
                AccessMode::YarnModeI { with_hdfs } => {
                    bootstrap_mode_i_in_span(
                        eng,
                        cluster_outer,
                        nodes_outer,
                        yarn_cfg,
                        with_hdfs,
                        bootstrap_span,
                        move |eng, env| {
                            let boot = eng.now().since(t0);
                            finish(eng, RuntimeAccess::Yarn { env, mode_i: true }, boot);
                        },
                    );
                }
                AccessMode::YarnModeII => {
                    let env = dedicated.expect("manager validated dedicated env exists");
                    let span =
                        eng.trace
                            .span_begin(eng.now(), "yarn", "yarn.startup", bootstrap_span);
                    eng.trace.span_attr(span, "mode", "II");
                    connect_mode_ii(eng, env, &yarn_cfg, move |eng, env| {
                        eng.trace.span_end(eng.now(), span);
                        let boot = eng.now().since(t0);
                        finish(eng, RuntimeAccess::Yarn { env, mode_i: false }, boot);
                    });
                }
                AccessMode::SparkModeI => {
                    SparkCluster::bootstrap(
                        eng,
                        &cluster_outer,
                        nodes_outer,
                        spark_cfg,
                        move |eng, cluster, boot| {
                            finish(eng, RuntimeAccess::Spark { cluster }, boot);
                        },
                    );
                }
            }
        });
    }

    /// Time the LRM spent provisioning the framework (YARN/Spark); zero
    /// for plain pilots. The Mode I bar-height delta of Fig. 5.
    pub fn framework_bootstrap_time(&self) -> SimDuration {
        self.inner.borrow().framework_bootstrap
    }

    /// The pilot's Hadoop environment, if one was provisioned (exposed so
    /// applications can pre-load HDFS data and inspect cluster state).
    pub fn hadoop_env(&self) -> Option<HadoopEnv> {
        match &self.inner.borrow().access {
            RuntimeAccess::Yarn { env, .. } => Some(env.clone()),
            _ => None,
        }
    }

    pub fn spark_cluster(&self) -> Option<SparkCluster> {
        match &self.inner.borrow().access {
            RuntimeAccess::Spark { cluster } => Some(cluster.clone()),
            _ => None,
        }
    }

    pub fn units_completed(&self) -> u64 {
        self.inner.borrow().units_completed
    }

    /// Heartbeats the agent pushed to the coordination store so far (the
    /// Heartbeat Monitor of Fig. 3; armed only while work is in flight so
    /// idle sessions drain the event queue).
    pub fn heartbeats(&self) -> u64 {
        self.inner.borrow().heartbeats
    }

    /// Arm the next heartbeat if work is in flight and none is scheduled.
    /// A fenced agent keeps beating too: the tick is where it re-acquires
    /// its lease at a fresh epoch once the partition heals. With leases
    /// enabled the beat never stops while the agent lives — renewal is
    /// proof of life even when idle.
    fn ensure_heartbeat(&self, engine: &mut Engine) {
        {
            let mut inner = self.inner.borrow_mut();
            let busy = inner.running > 0
                || !inner.queue.is_empty()
                || inner.fenced
                || inner.store.leases_enabled();
            if inner.heartbeat_armed || inner.stopping || !busy {
                return;
            }
            inner.heartbeat_armed = true;
        }
        let this = self.clone();
        engine.schedule_in(SimDuration::from_secs(10), move |eng| {
            let (pilot, still_busy) = {
                let mut inner = this.inner.borrow_mut();
                inner.heartbeat_armed = false;
                if inner.stopping {
                    return;
                }
                inner.heartbeats += 1;
                (
                    inner.pilot,
                    inner.running > 0
                        || !inner.queue.is_empty()
                        || inner.fenced
                        || inner.store.leases_enabled(),
                )
            };
            eng.metrics.incr("agent.heartbeats");
            eng.trace
                .record(eng.now(), "agent", format_args!("{pilot:?} heartbeat"));
            // Lease maintenance piggybacks on the heartbeat: renew under
            // the held epoch, self-fence the moment the local deadline
            // passes unrenewed, re-acquire at a fresh epoch after a
            // fence. May leave the agent fenced — then the liveness beat
            // is skipped (a fenced agent must look dead to the monitor).
            let fenced = this.lease_tick(eng, pilot);
            if !fenced {
                // Liveness signal for cross-pilot failover: the
                // Unit-Manager's gap monitor reads this (droppable).
                let store = this.inner.borrow().store.clone();
                store.report_heartbeat(eng, pilot);
            }
            // The Heartbeat Monitor doubles as the failure detector: any
            // run stranded on a dead node is requeued (or failed) now.
            this.detect_dead_runs(eng);
            if still_busy {
                this.ensure_heartbeat(eng);
            }
        });
    }

    /// Per-heartbeat lease maintenance. Returns whether the agent is
    /// fenced after the tick.
    fn lease_tick(&self, engine: &mut Engine, pilot: PilotId) -> bool {
        let store = self.inner.borrow().store.clone();
        if !store.leases_enabled() {
            return false;
        }
        let (fenced, epoch, deadline) = {
            let inner = self.inner.borrow();
            (inner.fenced, inner.lease_epoch, inner.lease_deadline)
        };
        if fenced {
            // Fenced: the only way back is a fresh grant (new fencing
            // epoch). Fails while partitioned or while another owner
            // holds an unexpired lease — both just retry next tick.
            if let Some((epoch, expires)) = store.try_acquire_lease(engine, pilot) {
                let mut inner = self.inner.borrow_mut();
                inner.lease_epoch = epoch;
                inner.lease_deadline = expires;
                inner.fenced = false;
                engine.trace.record(
                    engine.now(),
                    "agent",
                    format_args!("{pilot:?} re-acquired lease at epoch {epoch}"),
                );
                return false;
            }
            return true;
        }
        if epoch == 0 {
            // Acquisition at registration was blocked (partition during
            // bootstrap); keep trying.
            if let Some((epoch, expires)) = store.try_acquire_lease(engine, pilot) {
                let mut inner = self.inner.borrow_mut();
                inner.lease_epoch = epoch;
                inner.lease_deadline = expires;
            }
            return false;
        }
        if engine.now() >= deadline {
            self.self_fence(engine);
            return true;
        }
        if let Some(expires) = store.renew_lease(engine, pilot, epoch) {
            self.inner.borrow_mut().lease_deadline = expires;
        }
        // A failed renewal (partition or stale epoch) keeps the old local
        // deadline: dispatch continues only until it passes, then the
        // deadline check above fences.
        false
    }

    /// Self-fence: the ownership lease expired without renewal, so from
    /// this virtual instant the agent must produce no more side effects —
    /// the Unit-Manager is free to re-bind the moment expiry + grace
    /// passes. Queued work is dropped (the UM still tracks it), live
    /// attempts are invalidated, and in-flight stage-out/completion
    /// callbacks find their `finishing` ownership tokens gone. Unlike
    /// `hang`, the agent stays registered and keeps ticking: after the
    /// partition heals it may re-acquire at a fresh epoch.
    fn self_fence(&self, engine: &mut Engine) {
        let (pilot, active, spawn) = {
            let mut inner = self.inner.borrow_mut();
            if inner.fenced {
                return;
            }
            inner.fenced = true;
            inner.finishing.clear();
            inner.queue.clear();
            // Invalidated attempts will never release their bookkeeping
            // (their completion events die on the alive flag), so the
            // running count is reset here rather than leaked.
            inner.running = 0;
            (
                inner.pilot,
                std::mem::take(&mut inner.active),
                std::mem::take(&mut inner.spawn_queue),
            )
        };
        for (_, run) in active {
            run.alive.set(false);
        }
        for (_, _, alive) in spawn {
            alive.set(false);
        }
        engine.metrics.incr("agent.self_fences");
        engine.trace.record(
            engine.now(),
            "agent",
            format_args!("{pilot:?} self-fenced (lease expired unrenewed)"),
        );
    }

    /// Whether any injected fault hit this pilot (a crash was detected, a
    /// container was killed, or work had to be requeued).
    pub fn is_degraded(&self) -> bool {
        self.inner.borrow().degraded
    }

    /// Nodes of the allocation lost to injected crashes.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.inner.borrow().slots.dead_nodes()
    }

    pub fn queued_units(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    pub fn running_units(&self) -> usize {
        self.inner.borrow().running
    }

    /// Tear the agent down: cancel queued units, stop Mode I frameworks
    /// (a Mode II dedicated environment keeps running — it is not ours).
    pub(crate) fn stop(&self, engine: &mut Engine) {
        let (queued, access, pool, pilot) = {
            let mut inner = self.inner.borrow_mut();
            if inner.stopping {
                return;
            }
            inner.stopping = true;
            (
                std::mem::take(&mut inner.queue),
                inner.access.clone(),
                std::mem::take(&mut inner.am_pool),
                inner.pilot,
            )
        };
        self.inner.borrow().store.deregister_agent(pilot);
        for u in queued {
            // Cancelled units are dropped from the queue lazily; skip any
            // that already reached a final state.
            if !u.state().is_final() {
                u.advance(engine, UnitState::Canceled);
            }
        }
        for am in pool {
            am.finish(engine);
        }
        match access {
            RuntimeAccess::Yarn { env, mode_i: true } => env.yarn.shutdown(engine),
            RuntimeAccess::Spark { cluster } => cluster.shutdown(engine, |_| {}),
            _ => {}
        }
        engine
            .trace
            .record(engine.now(), "agent", format_args!("{pilot:?} stopped"));
    }

    /// Whole-pilot loss (walltime expiry, queue kill, batch failure).
    /// Unlike `stop`, which cancels queued units, this invalidates every
    /// in-flight attempt and reports all unfinished units back through
    /// the coordination store so a Unit-Manager can re-bind them to
    /// surviving pilots. Without a failover client listening it falls
    /// back to the legacy `stop` semantics.
    pub(crate) fn terminate(&self, engine: &mut Engine, cause: &str) {
        if !self.inner.borrow().store.has_client() {
            self.stop(engine);
            return;
        }
        let (queued, spawn, active, finishing, access, pool, pilot) = {
            let mut inner = self.inner.borrow_mut();
            if inner.stopping {
                return;
            }
            inner.stopping = true;
            (
                std::mem::take(&mut inner.queue),
                std::mem::take(&mut inner.spawn_queue),
                std::mem::take(&mut inner.active),
                std::mem::take(&mut inner.finishing),
                inner.access.clone(),
                std::mem::take(&mut inner.am_pool),
                inner.pilot,
            )
        };
        self.inner.borrow().store.deregister_agent(pilot);
        // Collect every unfinished unit the agent owns, exactly once.
        // Killed attempts deliberately abandon their compute spans (same
        // convention as node-crash recovery); the unit-level span closes
        // when the Unit-Manager re-binds or fails the unit.
        let mut seen = BTreeSet::new();
        let mut unfinished = Vec::new();
        for u in queued {
            if seen.insert(u.id().0) && !u.state().is_final() {
                unfinished.push(u);
            }
        }
        for (u, _, alive) in spawn {
            alive.set(false);
            if seen.insert(u.id().0) && !u.state().is_final() {
                unfinished.push(u);
            }
        }
        for (_, run) in active {
            run.alive.set(false);
            if seen.insert(run.unit.id().0) && !run.unit.state().is_final() {
                unfinished.push(run.unit);
            }
        }
        for (id, u) in finishing {
            if seen.insert(id) && !u.state().is_final() {
                unfinished.push(u);
            }
        }
        for am in pool {
            am.finish(engine);
        }
        match access {
            RuntimeAccess::Yarn { env, mode_i: true } => env.yarn.shutdown(engine),
            RuntimeAccess::Spark { cluster } => cluster.shutdown(engine, |_| {}),
            _ => {}
        }
        engine
            .metrics
            .add("agent.units_returned", unfinished.len() as u64);
        engine.trace.record(
            engine.now(),
            "agent",
            format_args!(
                "{pilot:?} terminated ({cause}); returning {} unfinished units",
                unfinished.len()
            ),
        );
        let (store, epoch) = {
            let inner = self.inner.borrow();
            (inner.store.clone(), inner.lease_epoch)
        };
        store.return_units_from(engine, pilot, epoch, unfinished, cause);
    }

    /// Chaos hook: the agent process dies *silently* — heartbeats stop,
    /// nothing is torn down or returned, and the batch job keeps running.
    /// Stranded work is only recovered by a Unit-Manager heartbeat-gap
    /// monitor or, eventually, the allocation's walltime expiry.
    pub fn hang(&self, engine: &mut Engine) {
        let (active, pilot) = {
            let mut inner = self.inner.borrow_mut();
            if inner.stopping {
                return;
            }
            inner.stopping = true;
            inner.finishing.clear();
            (std::mem::take(&mut inner.active), inner.pilot)
        };
        for (_, run) in active {
            run.alive.set(false);
        }
        self.inner.borrow().store.deregister_agent(pilot);
        engine.trace.record(
            engine.now(),
            "agent",
            format_args!("{pilot:?} hung (silent agent death)"),
        );
    }

    // ---- unit intake & scheduling ----

    fn receive_units(&self, engine: &mut Engine, batch: Vec<UnitHandle>) {
        let (pilot, fenced) = {
            let inner = self.inner.borrow();
            (inner.pilot, inner.fenced)
        };
        if fenced {
            // A fenced agent takes no new work: the units stay bound to
            // this (suspect) pilot in the Unit-Manager's tracking and are
            // re-bound once lease expiry + grace passes.
            engine.trace.record(
                engine.now(),
                "agent",
                format_args!("{pilot:?} fenced; ignoring {} delivered units", batch.len()),
            );
            return;
        }
        for unit in batch {
            unit.advance(engine, UnitState::AgentScheduling);
            // Ties the unit's root span to its pilot so the critical-path
            // analyzer can adopt it as a causal child of `pilot.run`.
            engine
                .trace
                .span_attr_u64(unit.root_span(), "pilot", pilot.0);
            if let Err(reason) = self.validate(&unit) {
                unit.fail(engine, reason);
                continue;
            }
            self.inner.borrow_mut().queue.push_back(unit);
        }
        self.try_schedule(engine);
        self.ensure_heartbeat(engine);
    }

    /// Reject units this pilot can never run (fail fast, like the agent
    /// scheduler's sanity checks).
    fn validate(&self, unit: &UnitHandle) -> Result<(), String> {
        let inner = self.inner.borrow();
        let rec = unit.rec.borrow();
        let d = &rec.descr;
        let spec = inner.machine.cluster.spec();
        match (&d.work, &inner.access) {
            (WorkSpec::MapReduce(_), RuntimeAccess::Yarn { .. }) => {}
            (WorkSpec::MapReduce(_), _) => {
                return Err("MapReduce unit requires a YARN pilot (Mode I/II)".into())
            }
            (WorkSpec::SparkApp { .. }, RuntimeAccess::Spark { .. }) => {}
            (WorkSpec::SparkApp { .. }, _) => {
                return Err("Spark unit requires a Spark pilot".into())
            }
            (WorkSpec::SparkJob(_), RuntimeAccess::Spark { .. }) => {}
            (WorkSpec::SparkJob(_), _) => return Err("Spark job requires a Spark pilot".into()),
            _ => {}
        }
        let total_cores = inner.alloc.nodes.len() as u32 * spec.cores_per_node;
        if d.cores > total_cores {
            return Err(format!(
                "unit needs {} cores, pilot has {total_cores}",
                d.cores
            ));
        }
        // Paper §II: "gang-scheduled parallel MPI applications … are less
        // well supported" on YARN — a container cannot span nodes.
        if matches!(inner.access, RuntimeAccess::Yarn { .. })
            && d.mpi
            && d.cores > spec.cores_per_node
        {
            return Err(format!(
                "gang-scheduled MPI unit ({} cores) cannot span YARN containers                  (max {} vcores per NodeManager)",
                d.cores, spec.cores_per_node
            ));
        }
        if !d.mpi && d.cores > spec.cores_per_node && !matches!(d.work, WorkSpec::MapReduce(_)) {
            return Err(format!(
                "non-MPI unit needs {} cores on one node ({} available)",
                d.cores, spec.cores_per_node
            ));
        }
        Ok(())
    }

    fn try_schedule(&self, engine: &mut Engine) {
        // Lazy fencing: if the lease deadline passed between heartbeats,
        // fence before dispatching anything (the heartbeat tick would
        // catch it too, but never after new side effects).
        {
            let inner = self.inner.borrow();
            let overdue = !inner.fenced
                && inner.lease_epoch > 0
                && inner.store.leases_enabled()
                && engine.now() >= inner.lease_deadline;
            drop(inner);
            if overdue {
                self.self_fence(engine);
            }
        }
        let mut drained = Vec::new();
        loop {
            let next = {
                let mut inner = self.inner.borrow_mut();
                if inner.stopping || inner.fenced {
                    break;
                }
                // Walltime-aware draining only makes sense when someone is
                // listening for returned units; otherwise a drained unit
                // would be lost, which is strictly worse than trying it.
                let drain_deadline = if inner.store.has_client() {
                    inner.deadline
                } else {
                    None
                };
                inner.pop_schedulable(engine.now(), drain_deadline, &mut drained)
            };
            match next {
                Some((unit, placement)) => self.begin_unit(engine, unit, placement),
                None => break,
            }
        }
        if !drained.is_empty() {
            let (pilot, store, epoch) = {
                let inner = self.inner.borrow();
                (inner.pilot, inner.store.clone(), inner.lease_epoch)
            };
            engine
                .metrics
                .add("agent.units_drained", drained.len() as u64);
            engine.trace.record(
                engine.now(),
                "agent",
                format_args!(
                    "{pilot:?} draining {} units (insufficient walltime left)",
                    drained.len()
                ),
            );
            store.return_units_from(
                engine,
                pilot,
                epoch,
                drained,
                "drained: insufficient walltime left",
            );
        }
    }

    fn begin_unit(&self, engine: &mut Engine, unit: UnitHandle, placement: Placement) {
        let alive = Rc::new(Cell::new(true));
        {
            let mut inner = self.inner.borrow_mut();
            inner.running += 1;
            inner.active.insert(
                unit.id().0,
                ActiveRun {
                    unit: unit.clone(),
                    placement: placement.clone(),
                    alive: alive.clone(),
                },
            );
        }
        unit.rec.borrow_mut().attempts += 1;
        unit.advance(engine, UnitState::StagingInput);
        // Pilot-Data dependencies not resident on this machine are pulled
        // over the inter-site network onto the parallel filesystem first.
        let (resource, wan) = {
            let inner = self.inner.borrow();
            (inner.machine.name.clone(), inner.cfg.inter_site_mbps)
        };
        let (mut directives, remote) = {
            let rec = unit.rec.borrow();
            (
                rec.descr.input_staging.clone(),
                crate::data::remote_bytes(&rec.descr.data_deps, &resource),
            )
        };
        if remote > 0 {
            engine.metrics.add("agent.wan_pull_bytes", remote);
            engine.trace.record(
                engine.now(),
                "agent",
                format_args!("{:?} pulling {remote} B of pilot-data over WAN", unit.id()),
            );
            directives.insert(
                0,
                StagingDirective {
                    bytes: remote as f64,
                    from: StageEndpoint::Remote {
                        bandwidth_mbps: wan,
                    },
                    to: StageEndpoint::Lustre,
                },
            );
        }
        let primary = match &placement {
            Placement::Nodes { nodes, .. } => Some(nodes[0].0),
            _ => None,
        };
        let this = self.clone();
        let u2 = unit.clone();
        let alive2 = alive.clone();
        self.run_staging(
            engine,
            directives,
            primary,
            unit,
            Box::new(move |eng, ok| {
                if !alive2.get() {
                    // Killed while staging; the recovery path owns the unit.
                    return;
                }
                if u2.state().is_final() {
                    // Canceled while staging in: drop the attempt and free
                    // its reservation instead of launching a final unit.
                    this.inner.borrow_mut().active.remove(&u2.id().0);
                    this.release(eng, placement);
                    return;
                }
                if !ok {
                    this.fail_and_release(eng, u2, placement, "input staging failed after retries");
                    return;
                }
                // Staging is over even though the unit stays StagingInput
                // until its slot is granted: close the stage_in span so the
                // allocation wait is not charged to staging.
                u2.end_open_span(eng);
                if this.placement_lost(&placement) {
                    // Node died under us mid-staging; the Heartbeat Monitor
                    // will requeue this attempt.
                    return;
                }
                this.enqueue_spawn(eng, u2, placement, alive2);
            }),
        );
    }

    /// The Task Spawner is a single serial worker (as in RADICAL-Pilot's
    /// agent): launches queue behind each other even though the launched
    /// work itself runs concurrently. With many concurrent units this
    /// serialization is a first-order scaling cost of the plain pilot —
    /// one of the effects behind Fig. 6.
    fn enqueue_spawn(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        placement: Placement,
        alive: Rc<Cell<bool>>,
    ) {
        self.inner
            .borrow_mut()
            .spawn_queue
            .push_back((unit, placement, alive));
        self.drain_spawner(engine);
    }

    fn drain_spawner(&self, engine: &mut Engine) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            if inner.spawner_busy {
                return;
            }
            loop {
                match inner.spawn_queue.pop_front() {
                    // Attempts killed while queued are dropped unlaunched.
                    Some((_, _, ref alive)) if !alive.get() => continue,
                    Some(x) => {
                        inner.spawner_busy = true;
                        break x;
                    }
                    None => return,
                }
            }
        };
        let (unit, placement, alive) = next;
        self.launch_unit(engine, unit, placement, alive);
    }

    /// Run staging directives sequentially. `done(engine, false)` fires if
    /// an injected staging error exhausted the unit's retry budget;
    /// otherwise each faulted directive is retried after capped
    /// exponential backoff.
    fn run_staging(
        &self,
        engine: &mut Engine,
        mut directives: Vec<StagingDirective>,
        exec_node: Option<NodeId>,
        unit: UnitHandle,
        done: StagingDone,
    ) {
        if directives.is_empty() {
            engine.schedule_now(move |eng| done(eng, true));
            return;
        }
        let faulted = {
            let mut inner = self.inner.borrow_mut();
            if inner.staging_faults > 0 {
                inner.staging_faults -= 1;
                inner.degraded = true;
                true
            } else {
                false
            }
        };
        if faulted {
            let retry = unit.retry_policy();
            let attempts = unit.attempts();
            engine.trace.record(
                engine.now(),
                "agent",
                format_args!(
                    "{:?} staging directive faulted (attempt {attempts})",
                    unit.id()
                ),
            );
            if attempts >= retry.max_attempts {
                engine.schedule_now(move |eng| done(eng, false));
                return;
            }
            engine.metrics.incr("agent.staging_retries");
            unit.rec.borrow_mut().attempts += 1;
            let backoff = retry.backoff(attempts + 1);
            let this = self.clone();
            engine.schedule_in(backoff, move |eng| {
                this.run_staging(eng, directives, exec_node, unit, done);
            });
            return;
        }
        let d = directives.remove(0);
        let cluster = self.inner.borrow().machine.cluster.clone();
        let from = self.resolve_endpoint(d.from, exec_node);
        let to = self.resolve_endpoint(d.to, exec_node);
        let this = self.clone();
        transfer(engine, &cluster, from, to, d.bytes, move |eng| {
            this.run_staging(eng, directives, exec_node, unit, done);
        });
    }

    fn resolve_endpoint(&self, e: StageEndpoint, exec_node: Option<NodeId>) -> Endpoint {
        let inner = self.inner.borrow();
        match e {
            StageEndpoint::Remote { bandwidth_mbps } => Endpoint::Remote { bandwidth_mbps },
            StageEndpoint::Lustre => Endpoint::Lustre,
            StageEndpoint::ExecNode => {
                match (exec_node, inner.machine.cluster.has_local_disk()) {
                    (Some(n), true) => Endpoint::Local(n),
                    // No local disk (or framework placement): the directive
                    // degrades to the shared filesystem.
                    _ => Endpoint::Lustre,
                }
            }
        }
    }

    /// Task Spawner: pay exec-prep + launch overhead, then run the work.
    fn launch_unit(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        placement: Placement,
        alive: Rc<Cell<bool>>,
    ) {
        let (prep, method) = {
            let inner = self.inner.borrow();
            let (m, s) = inner.cfg.exec_prep_s;
            let mut prep = engine.rng.normal_min(m, s, 0.01);
            let rec = unit.rec.borrow();
            let method = launch::select(
                inner.machine.cluster.spec(),
                &rec.descr,
                matches!(inner.access, RuntimeAccess::Yarn { .. }),
                matches!(inner.access, RuntimeAccess::Spark { .. }),
            );
            prep += method.overhead_s();
            if rec.descr.mpi && method != LaunchMethod::Fork {
                let (mm, ms) = inner.cfg.mpi_launch_s;
                prep += engine.rng.normal_min(mm, ms, 0.01);
            }
            (SimDuration::from_secs_f64(prep), method)
        };
        engine.metrics.incr("agent.spawner_launches");
        engine.trace.record_line(
            engine.now(),
            "agent",
            launch_line,
            unit.id().0,
            method as u32,
        );
        let this = self.clone();
        engine.schedule_in(prep, move |eng| {
            // Spawner done with this unit; next launch may proceed while
            // this unit's work executes.
            this.inner.borrow_mut().spawner_busy = false;
            this.drain_spawner(eng);
            if !alive.get() {
                // Killed during launch prep; the recovery path owns it.
                return;
            }
            if unit.state().is_final() {
                // Canceled while queued for the spawner or during prep:
                // never execute a final unit; just free its reservation.
                this.inner.borrow_mut().active.remove(&unit.id().0);
                this.release(eng, placement);
                return;
            }
            match placement {
                p @ Placement::Nodes { .. } => {
                    if this.placement_lost(&p) {
                        // Node crashed under us; the heartbeat requeues.
                        return;
                    }
                    this.exec_on_nodes(eng, unit, p, alive)
                }
                Placement::Yarn { vcores, mem_mb } => {
                    this.exec_on_yarn(eng, unit, vcores, mem_mb, alive)
                }
                Placement::Spark { cores } => this.exec_on_spark(eng, unit, cores, alive),
            }
        });
    }

    // ---- plain execution ----

    fn exec_on_nodes(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        placement: Placement,
        alive: Rc<Cell<bool>>,
    ) {
        let nodes = match &placement {
            Placement::Nodes { nodes, .. } => nodes.clone(),
            _ => unreachable!("exec_on_nodes requires node placement"),
        };
        unit.rec.borrow_mut().exec_nodes = nodes.iter().map(|&(n, _)| n).collect();
        unit.advance(engine, UnitState::Executing);
        let this = self.clone();
        let u2 = unit.clone();
        self.run_work(engine, &unit, &nodes, &alive.clone(), move |eng| {
            if !alive.get() {
                // Node crashed mid-run and the attempt was requeued; this
                // stale completion must not double-finish the unit.
                return;
            }
            this.complete_unit(eng, u2, placement);
        });
    }

    /// Execute a WorkSpec on agent-managed slots. `alive` is the attempt's
    /// kill flag: a stale completion for a killed attempt must leave the
    /// compute span abandoned (open) instead of ending it after the unit
    /// has already been requeued and its exec span closed.
    fn run_work(
        &self,
        engine: &mut Engine,
        unit: &UnitHandle,
        nodes: &[(NodeId, u32)],
        alive: &Rc<Cell<bool>>,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        let work = unit.rec.borrow().descr.work.clone();
        let inner = self.inner.borrow();
        let cluster = inner.machine.cluster.clone();
        let primary = nodes[0].0;
        let total_cores: u32 = nodes.iter().map(|&(_, c)| c).sum();
        // Memory-pressure factor: committed/capacity on the worst node
        // (models swapping/GC once the plain cores-only scheduler
        // oversubscribes memory — the Stampede 32 GB effect).
        // Framework-placed containers may land outside the agent's own
        // allocation (Mode II dedicated nodes): those are not tracked by
        // the plain scheduler, so they carry no committed memory.
        // Injected NodeSlowdown faults multiply in on top of pressure.
        let pressure = nodes
            .iter()
            .map(|&(n, _)| {
                let committed = inner.slots.committed(n) as f64;
                let cap = cluster.spec().mem_per_node_mb as f64;
                let slow = inner.slots.slowdown_factor(n);
                (committed / cap).max(1.0) * slow
            })
            .fold(1.0f64, f64::max);
        let pilot_id = inner.pilot;
        drop(inner);

        // Compute span under the unit's exec span; the profiler's
        // utilization pass keys on the pilot/cores attributes. Attempts
        // killed mid-run abandon the span open, which excludes it.
        let span = engine
            .trace
            .span_begin(engine.now(), "unit", "unit.compute", unit.open_span());
        engine.trace.span_attr_u64(span, "pilot", pilot_id.0);
        engine
            .trace
            .span_attr_u64(span, "cores", u64::from(total_cores));
        let alive = alive.clone();
        let done = move |eng: &mut Engine| {
            if alive.get() {
                eng.trace.span_end(eng.now(), span);
            }
            done(eng);
        };

        match work {
            WorkSpec::Sleep(dur) => {
                // The scale hot path: one completion event per unit.
                engine.schedule_in(dur, done);
            }
            WorkSpec::Native(f) => {
                // Native work runs a real closure and bills its measured host
                // runtime as sim time by design — this variant explicitly
                // trades determinism for realism (see WorkSpec::Native docs);
                // all other variants stay virtual.
                // rp-lint: allow(wallclock): host timing is the point of Native work
                let t0 = std::time::Instant::now();
                f();
                let dur = SimDuration::from_secs_f64(t0.elapsed().as_secs_f64());
                engine.schedule_in(dur, done);
            }
            WorkSpec::Compute {
                core_seconds,
                read_mb,
                write_mb,
                io,
            } => {
                let target = match io {
                    UnitIoTarget::LocalDisk if cluster.has_local_disk() => {
                        StorageTarget::LocalDisk(primary)
                    }
                    _ => StorageTarget::Lustre,
                };
                let jitter = {
                    let sigma = self.inner.borrow().cfg.compute_jitter_sigma;
                    if sigma > 0.0 {
                        engine.rng.lognormal(0.0, sigma)
                    } else {
                        1.0
                    }
                };
                let compute = cluster
                    .compute_duration(core_seconds / total_cores as f64)
                    .mul_f64(pressure * jitter);
                let cluster2 = cluster.clone();
                cluster.storage_io(
                    engine,
                    target,
                    IoKind::Read,
                    read_mb * rp_sim::MB,
                    move |eng| {
                        eng.schedule_in(compute, move |eng| {
                            cluster2.storage_io(
                                eng,
                                target,
                                IoKind::Write,
                                write_mb * rp_sim::MB,
                                done,
                            );
                        });
                    },
                );
            }
            WorkSpec::MapReduce(_) | WorkSpec::SparkApp { .. } | WorkSpec::SparkJob(_) => {
                unreachable!("validated: framework work never placed on plain slots")
            }
        }
    }

    // ---- YARN execution (the RADICAL-Pilot YARN application, Fig. 4) ----

    fn exec_on_yarn(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        vcores: u32,
        mem_mb: u64,
        run_alive: Rc<Cell<bool>>,
    ) {
        let env = match &self.inner.borrow().access {
            RuntimeAccess::Yarn { env, .. } => env.clone(),
            _ => unreachable!("yarn placement on non-yarn pilot"),
        };
        let (mr_spec, unit_cores, unit_mem_mb) = {
            let rec = unit.rec.borrow();
            let d = &rec.descr;
            let spec = match &d.work {
                WorkSpec::MapReduce(spec) => Some(spec.clone()),
                _ => None,
            };
            (spec, d.cores, d.mem_mb)
        };
        if let Some(spec) = mr_spec {
            // A full MapReduce job: the MR AM drives its own containers.
            unit.advance(engine, UnitState::Executing);
            let this = self.clone();
            let u2 = unit.clone();
            let cluster = self.inner.borrow().machine.cluster.clone();
            let hdfs = env
                .hdfs
                .clone()
                .expect("MapReduce pilot requires HDFS (use with_hdfs: true)");
            rp_mapreduce::run_on_yarn_in_span(
                engine,
                &cluster,
                &env.yarn,
                &hdfs,
                spec,
                unit.open_span(),
                move |eng, stats| {
                    if !run_alive.get() {
                        // Pilot terminated mid-job; the UM owns the unit.
                        return;
                    }
                    u2.rec.borrow_mut().mr_stats = Some(stats);
                    this.complete_unit(eng, u2.clone(), Placement::Yarn { vcores, mem_mb });
                },
            );
            return;
        }

        // Ordinary unit wrapped in the RADICAL-Pilot YARN app: allocate an
        // AM (or reuse a pooled one), then the task container.
        let reuse_am = {
            let mut inner = self.inner.borrow_mut();
            if inner.cfg.am_reuse {
                inner.am_pool.pop()
            } else {
                None
            }
        };
        let this = self.clone();
        let req = ResourceRequest {
            resource: Resource::new(unit_cores.max(1), unit_mem_mb),
            preferred_node: None,
        };
        match reuse_am {
            Some(am) => {
                engine.metrics.incr("agent.am_reused");
                engine.trace.record(
                    engine.now(),
                    "agent",
                    format_args!("{:?} reusing pooled AM", unit.id()),
                );
                this.yarn_task_container(engine, am, req, unit, vcores, mem_mb, run_alive);
            }
            None => {
                let name = format!("rp-yarn-app-{:?}", unit.id());
                let this2 = this.clone();
                // The two-stage CU startup of the Fig. 5 inset: first the
                // AM, then (below) the task container. The unit is still
                // StagingInput here, so the span hangs off the unit root.
                let span = engine.trace.span_begin(
                    engine.now(),
                    "yarn",
                    "yarn.am_allocation",
                    unit.root_span(),
                );
                env.yarn.submit_app(
                    engine,
                    name,
                    ResourceRequest::new(1, 1536),
                    move |eng, am| {
                        eng.trace.span_end(eng.now(), span);
                        this2.yarn_task_container(eng, am, req, unit, vcores, mem_mb, run_alive);
                    },
                );
            }
        }
    }

    /// Request the task container for a unit, run the work, and survive
    /// RM preemption: a preempted attempt re-requests a fresh container
    /// and re-runs the work from the start (the "dynamic set of
    /// resources" behaviour YARN applications must implement, §III-B).
    #[allow(clippy::too_many_arguments)]
    fn yarn_task_container(
        &self,
        engine: &mut Engine,
        am: AmHandle,
        req: ResourceRequest,
        unit: UnitHandle,
        vcores: u32,
        mem_mb: u64,
        run_alive: Rc<Cell<bool>>,
    ) {
        let this = self.clone();
        let am_for_cb = am.clone();
        let alive = Rc::new(std::cell::Cell::new(true));
        let alive_preempt = alive.clone();
        let run_alive_preempt = run_alive.clone();
        let run_alive_grant = run_alive.clone();
        let retry = {
            let this = self.clone();
            let am = am.clone();
            let req = req.clone();
            let unit = unit.clone();
            move |eng: &mut Engine, container: rp_yarn::Container| {
                alive_preempt.set(false);
                if !run_alive_preempt.get() {
                    // Pilot terminated; the UM owns this unit now.
                    return;
                }
                let policy = unit.retry_policy();
                let attempts = unit.attempts();
                if attempts >= policy.max_attempts {
                    am.finish(eng);
                    this.fail_and_release(
                        eng,
                        unit.clone(),
                        Placement::Yarn { vcores, mem_mb },
                        "container killed: no attempts left",
                    );
                    return;
                }
                unit.rec.borrow_mut().attempts += 1;
                eng.metrics.incr("agent.preemption_restarts");
                eng.trace.record(
                    eng.now(),
                    "agent",
                    format_args!(
                        "{:?} lost {:?} to preemption; re-requesting (attempt {})",
                        unit.id(),
                        container.id,
                        attempts + 1
                    ),
                );
                let this2 = this.clone();
                let am2 = am.clone();
                let req2 = req.clone();
                let u2 = unit.clone();
                let ra2 = run_alive_preempt.clone();
                eng.schedule_in(policy.backoff(attempts + 1), move |eng| {
                    this2.yarn_task_container(eng, am2, req2, u2, vcores, mem_mb, ra2);
                });
            }
        };
        // Second stage of the Fig. 5 inset decomposition. Parented to the
        // unit root: the stage_in span is already closed, and a preemption
        // restart opens a fresh allocation span per attempt.
        let alloc_span = engine.trace.span_begin(
            engine.now(),
            "yarn",
            "yarn.container_allocation",
            unit.root_span(),
        );
        am.request_container_preemptible(engine, req, retry, move |eng, container| {
            eng.trace.span_end(eng.now(), alloc_span);
            let am = am_for_cb;
            if !run_alive_grant.get() {
                // Granted after the pilot died; nothing to run any more.
                return;
            }
            if unit.state().is_final() {
                // Canceled while the container was allocated: free it all.
                am.release_container(eng, container.id);
                am.finish(eng);
                this.inner.borrow_mut().active.remove(&unit.id().0);
                this.release(eng, Placement::Yarn { vcores, mem_mb });
                return;
            }
            unit.rec.borrow_mut().exec_nodes = vec![container.node];
            // On a preemption restart the unit is already Executing.
            if unit.state() != UnitState::Executing {
                unit.advance(eng, UnitState::Executing);
            }
            let cores = container.resource.vcores;
            let u2 = unit.clone();
            let this2 = this.clone();
            let am2 = am.clone();
            this.run_work(
                eng,
                &unit,
                &[(container.node, cores)],
                &alive.clone(),
                move |eng| {
                    if !alive.get() || !run_alive.get() {
                        // This attempt was preempted mid-flight (the restart
                        // owns the unit) or the pilot died (the UM does).
                        return;
                    }
                    am2.release_container(eng, container.id);
                    let pooled = {
                        let mut inner = this2.inner.borrow_mut();
                        if inner.cfg.am_reuse && !inner.stopping {
                            inner.am_pool.push(am2.clone());
                            true
                        } else {
                            false
                        }
                    };
                    if !pooled {
                        am2.finish(eng);
                    }
                    this2.complete_unit(eng, u2.clone(), Placement::Yarn { vcores, mem_mb });
                },
            );
        });
    }

    // ---- Spark execution ----

    fn exec_on_spark(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        gate_cores: u32,
        run_alive: Rc<Cell<bool>>,
    ) {
        let spark = match &self.inner.borrow().access {
            RuntimeAccess::Spark { cluster } => cluster.clone(),
            _ => unreachable!("spark placement on non-spark pilot"),
        };
        let (work, unit_cores) = {
            let rec = unit.rec.borrow();
            (rec.descr.work.clone(), rec.descr.cores.max(1))
        };
        // Full stage-DAG jobs run through the simulated Spark app model.
        if let WorkSpec::SparkJob(spec) = work {
            let cluster = self.inner.borrow().machine.cluster.clone();
            unit.advance(engine, UnitState::Executing);
            let this = self.clone();
            let u2 = unit.clone();
            rp_spark::run_simulated_app(engine, &cluster, &spark, spec, move |eng, res| {
                if !run_alive.get() {
                    // Pilot terminated mid-job; the UM owns the unit.
                    return;
                }
                match res {
                    Ok(_stats) => {
                        this.complete_unit(eng, u2.clone(), Placement::Spark { cores: gate_cores })
                    }
                    Err(e) => {
                        this.fail_and_release(
                            eng,
                            u2.clone(),
                            Placement::Spark { cores: gate_cores },
                            &format!("spark job failed: {e}"),
                        );
                    }
                }
            });
            return;
        }
        let (cores, core_seconds) = match work {
            WorkSpec::SparkApp {
                cores,
                core_seconds,
            } => (cores, core_seconds),
            // Plain work on a Spark pilot runs as a trivial one-stage app.
            WorkSpec::Sleep(dur) => (unit_cores, dur.as_secs_f64() * unit_cores as f64),
            _ => (unit_cores, 0.0),
        };
        let this = self.clone();
        let cluster = self.inner.borrow().machine.cluster.clone();
        let pilot_id = self.inner.borrow().pilot;
        let spark_cb = spark.clone();
        spark.submit_app(engine, cores, move |eng, result| {
            if !run_alive.get() {
                // Granted (or refused) after the pilot died; nothing to run.
                return;
            }
            match result {
                Ok((app_id, grants)) => {
                    if unit.state().is_final() {
                        // Canceled while waiting for executor cores.
                        spark_cb.finish_app(eng, app_id);
                        this.inner.borrow_mut().active.remove(&unit.id().0);
                        this.release(eng, Placement::Spark { cores: gate_cores });
                        return;
                    }
                    unit.rec.borrow_mut().exec_nodes = grants.iter().map(|g| g.node).collect();
                    unit.advance(eng, UnitState::Executing);
                    let span =
                        eng.trace
                            .span_begin(eng.now(), "unit", "unit.compute", unit.open_span());
                    eng.trace.span_attr_u64(span, "pilot", pilot_id.0);
                    eng.trace.span_attr_u64(span, "cores", u64::from(cores));
                    let dur = cluster.compute_duration(core_seconds / cores.max(1) as f64);
                    let u2 = unit.clone();
                    let spark = spark_cb;
                    eng.schedule_in(dur, move |eng| {
                        if !run_alive.get() {
                            // Killed mid-run: abandon the compute span open
                            // (kill semantics) and leave the unit to the UM.
                            return;
                        }
                        eng.trace.span_end(eng.now(), span);
                        spark.finish_app(eng, app_id);
                        this.complete_unit(eng, u2.clone(), Placement::Spark { cores: gate_cores });
                    });
                }
                Err(e) => {
                    this.fail_and_release(
                        eng,
                        unit.clone(),
                        Placement::Spark { cores: gate_cores },
                        &format!("spark submission failed: {e}"),
                    );
                }
            }
        });
    }

    // ---- completion ----

    fn complete_unit(&self, engine: &mut Engine, unit: UnitHandle, placement: Placement) {
        // The attempt survived execution; it no longer needs crash recovery.
        // The `finishing` entry is this path's ownership token: `terminate`
        // drains it when the pilot dies, after which the stale staging /
        // roundtrip continuations below must not touch the (possibly
        // re-bound) unit.
        {
            let mut inner = self.inner.borrow_mut();
            inner.active.remove(&unit.id().0);
            inner.finishing.insert(unit.id().0, unit.clone());
        }
        unit.advance(engine, UnitState::StagingOutput);
        let directives = unit.rec.borrow().descr.output_staging.clone();
        let primary = unit.exec_nodes().first().copied();
        let this = self.clone();
        let u2 = unit.clone();
        self.run_staging(
            engine,
            directives,
            primary,
            unit,
            Box::new(move |eng, ok| {
                if !this.inner.borrow().finishing.contains_key(&u2.id().0) {
                    return; // pilot died while staging out; UM owns the unit
                }
                if !ok {
                    this.inner.borrow_mut().finishing.remove(&u2.id().0);
                    u2.fail(eng, "output staging failed after retries");
                    this.release(eng, placement);
                    return;
                }
                // Output staging is done; the remaining coordination
                // roundtrip is overhead, not staging. It carries the
                // lease's fencing epoch: if ownership moves before the
                // update lands (partition → lease revoked), the store
                // rejects it instead of double-completing the unit.
                u2.end_open_span(eng);
                let (store, pilot, epoch) = {
                    let inner = this.inner.borrow();
                    (inner.store.clone(), inner.pilot, inner.lease_epoch)
                };
                let this2 = this.clone();
                store.roundtrip_from(eng, pilot, epoch, move |eng| {
                    if this2
                        .inner
                        .borrow_mut()
                        .finishing
                        .remove(&u2.id().0)
                        .is_none()
                    {
                        return; // pilot died mid-roundtrip; UM owns the unit
                    }
                    u2.advance(eng, UnitState::Done);
                    eng.metrics.incr("agent.units_completed");
                    this2.inner.borrow_mut().units_completed += 1;
                    this2.release(eng, placement);
                });
            }),
        );
    }

    fn release(&self, engine: &mut Engine, placement: Placement) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.running -= 1;
            match placement {
                Placement::Nodes {
                    nodes,
                    mem_mb,
                    cores,
                } => {
                    for (n, c) in nodes {
                        let share = mem_mb * c as u64 / cores.max(1) as u64;
                        inner.slots.release(n, c, share);
                    }
                }
                Placement::Yarn { vcores, mem_mb } => {
                    inner.yarn_inflight.vcores -= vcores;
                    inner.yarn_inflight.mem_mb -= mem_mb;
                }
                Placement::Spark { cores } => {
                    inner.spark_inflight_cores -= cores;
                }
            }
        }
        self.try_schedule(engine);
    }

    /// Drop an attempt's recovery record, fail the unit and free its slots.
    fn fail_and_release(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        placement: Placement,
        reason: &str,
    ) {
        self.inner.borrow_mut().active.remove(&unit.id().0);
        if !unit.state().is_final() {
            unit.fail(engine, reason);
        }
        self.release(engine, placement);
    }

    /// Whether a plain placement references a node that has since crashed.
    fn placement_lost(&self, placement: &Placement) -> bool {
        let inner = self.inner.borrow();
        match placement {
            Placement::Nodes { nodes, .. } => nodes.iter().any(|&(n, _)| inner.slots.is_dead(n)),
            _ => false,
        }
    }

    // ---- fault injection & recovery ----

    /// Map a fault plan's logical node index onto a real allocation node.
    fn map_node(&self, idx: usize) -> Option<NodeId> {
        let inner = self.inner.borrow();
        if inner.alloc.nodes.is_empty() {
            return None;
        }
        Some(inner.alloc.nodes[idx % inner.alloc.nodes.len()])
    }

    /// Entry point for the fault injector: apply one fault to this pilot.
    pub fn apply_fault(&self, engine: &mut Engine, kind: &FaultKind) {
        match kind {
            FaultKind::NodeCrash { node } => {
                if let Some(victim) = self.map_node(*node) {
                    self.inject_node_crash(engine, victim);
                }
            }
            FaultKind::NodeSlowdown {
                node,
                factor,
                duration,
            } => {
                if let Some(victim) = self.map_node(*node) {
                    {
                        let mut inner = self.inner.borrow_mut();
                        inner.slots.set_slowdown(victim, factor.max(1.0));
                        inner.degraded = true;
                    }
                    engine.trace.record(
                        engine.now(),
                        "agent",
                        format_args!("{victim:?} slowed {factor:.2}x for {duration}"),
                    );
                    let this = self.clone();
                    engine.schedule_in(*duration, move |eng| {
                        this.inner.borrow_mut().slots.clear_slowdown(victim);
                        eng.trace.record(
                            eng.now(),
                            "agent",
                            format_args!("{victim:?} speed restored"),
                        );
                    });
                }
            }
            FaultKind::ContainerKill { count } => {
                self.inject_container_kill(engine, *count);
            }
            FaultKind::LinkDegrade { factor, duration } => {
                let cluster = self.inner.borrow().machine.cluster.clone();
                let link = cluster.lustre_link().clone();
                let orig = link.capacity();
                link.set_capacity(engine, (orig * factor).max(1.0));
                self.inner.borrow_mut().degraded = true;
                engine.trace.record(
                    engine.now(),
                    "agent",
                    format_args!("lustre link degraded to {factor:.2}x for {duration}"),
                );
                engine.schedule_in(*duration, move |eng| {
                    link.set_capacity(eng, orig);
                    eng.trace
                        .record(eng.now(), "agent", "lustre link capacity restored");
                });
            }
            FaultKind::StagingError => {
                self.inner.borrow_mut().staging_faults += 1;
            }
            FaultKind::PilotKill { .. } => {
                // Whole-pilot loss is routed at the Pilot-Manager level (the
                // placeholder batch job is killed and `terminate` runs from
                // its end-callback); nothing to do inside the agent itself.
            }
            FaultKind::Partition {
                duration,
                symmetric,
                ..
            } => {
                // Cut this agent off from the coordination store for
                // `duration` (the logical pilot index was already resolved
                // by the installer's routing). The agent itself keeps
                // running — that is the point: work continues while
                // heartbeats, lease renewals and completions are held.
                let (store, pilot) = {
                    let mut inner = self.inner.borrow_mut();
                    inner.degraded = true;
                    (inner.store.clone(), inner.pilot)
                };
                store.partition_pilot(engine, pilot, *duration, *symmetric);
            }
        }
    }

    /// Permanently lose a node: drop its slots, propagate to YARN/HDFS if
    /// this pilot bootstrapped them (Mode I), and let the Heartbeat
    /// Monitor requeue stranded work.
    fn inject_node_crash(&self, engine: &mut Engine, victim: NodeId) {
        let access = {
            let mut inner = self.inner.borrow_mut();
            if !inner.slots.kill(victim) {
                return; // already dead
            }
            inner.degraded = true;
            inner.access.clone()
        };
        engine
            .trace
            .record(engine.now(), "agent", format_args!("{victim:?} crashed"));
        if let RuntimeAccess::Yarn { env, mode_i: true } = &access {
            // Mode I frameworks live on our allocation: the NodeManager
            // (and DataNode) on the victim die with it.
            env.yarn.fail_node(engine, victim);
            if let Some(hdfs) = &env.hdfs {
                if hdfs.datanodes().len() > 1 && hdfs.datanodes().contains(&victim) {
                    hdfs.fail_datanode(engine, victim, |_, _| {});
                }
            }
        }
        self.ensure_heartbeat(engine);
    }

    /// Kill up to `count` running executions (preemption-style).
    fn inject_container_kill(&self, engine: &mut Engine, count: usize) {
        let is_yarn = {
            let inner = self.inner.borrow();
            matches!(inner.access, RuntimeAccess::Yarn { .. })
        };
        if is_yarn {
            let env = match &self.inner.borrow().access {
                RuntimeAccess::Yarn { env, .. } => env.clone(),
                _ => unreachable!(),
            };
            let killed = env.yarn.preempt(engine, count);
            if !killed.is_empty() {
                self.inner.borrow_mut().degraded = true;
            }
            return;
        }
        // Plain pilot: kill running node-placed attempts, lowest id first
        // (deterministic order).
        let victims: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .active
                .iter()
                .filter(|(_, run)| {
                    matches!(run.placement, Placement::Nodes { .. })
                        && run.unit.state() == UnitState::Executing
                })
                .map(|(&id, _)| id)
                .take(count)
                .collect()
        };
        for id in victims {
            self.kill_run(engine, id, "container killed");
        }
    }

    /// Heartbeat-driven failure detector: requeue every active run whose
    /// placement touches a dead node.
    fn detect_dead_runs(&self, engine: &mut Engine) {
        let stranded: Vec<u64> = {
            let inner = self.inner.borrow();
            if !inner.slots.any_dead() {
                return;
            }
            inner
                .active
                .iter()
                .filter(|(_, run)| match &run.placement {
                    Placement::Nodes { nodes, .. } => {
                        nodes.iter().any(|&(n, _)| inner.slots.is_dead(n))
                    }
                    _ => false,
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in stranded {
            self.kill_run(engine, id, "node crashed");
        }
    }

    /// Kill one active attempt: invalidate its continuations, free its
    /// slots and either requeue it (after capped exponential backoff) or
    /// fail it terminally once the retry budget is spent.
    fn kill_run(&self, engine: &mut Engine, unit_id: u64, reason: &str) {
        let run = {
            let mut inner = self.inner.borrow_mut();
            match inner.active.remove(&unit_id) {
                Some(r) => r,
                None => return,
            }
        };
        run.alive.set(false);
        self.inner.borrow_mut().degraded = true;
        let unit = run.unit;
        engine.metrics.incr("agent.attempts_killed");
        engine.trace.record(
            engine.now(),
            "agent",
            format_args!(
                "{:?} lost ({reason}); attempt {}",
                unit.id(),
                unit.attempts()
            ),
        );
        self.release(engine, run.placement);
        if unit.state().is_final() {
            return;
        }
        let retry = unit.retry_policy();
        let attempts = unit.attempts();
        if attempts >= retry.max_attempts {
            unit.fail(
                engine,
                format!(
                    "{reason}: no attempts left ({attempts}/{})",
                    retry.max_attempts
                ),
            );
            return;
        }
        unit.advance(engine, UnitState::AgentScheduling);
        let backoff = retry.backoff(attempts + 1);
        let this = self.clone();
        engine.schedule_in(backoff, move |eng| {
            {
                let mut inner = this.inner.borrow_mut();
                if inner.stopping {
                    drop(inner);
                    unit.advance(eng, UnitState::Canceled);
                    return;
                }
                inner.queue.push_back(unit);
            }
            this.try_schedule(eng);
            this.ensure_heartbeat(eng);
        });
    }
}

impl AgentInner {
    /// Expected runtime of a unit's work on this machine, where the model
    /// admits a prediction. `None` ⇒ unknown, and the unit is always
    /// admitted (draining must not starve unpredictable work).
    fn expected_runtime(
        &self,
        d: &crate::description::ComputeUnitDescription,
    ) -> Option<SimDuration> {
        match &d.work {
            WorkSpec::Sleep(dur) => Some(*dur),
            WorkSpec::Compute { core_seconds, .. } => Some(
                self.machine
                    .cluster
                    .compute_duration(core_seconds / d.cores.max(1) as f64),
            ),
            _ => None,
        }
    }

    /// Find, reserve and pop the first schedulable unit (FIFO with skip).
    /// Units cancelled while queued are dropped here. With a drain
    /// deadline set, units whose expected runtime no longer fits the
    /// remaining walltime (minus the configured safety margin) are moved
    /// to `drained` instead of being admitted — the caller hands them
    /// back to the Unit-Manager.
    fn pop_schedulable(
        &mut self,
        now: SimTime,
        drain_deadline: Option<SimTime>,
        drained: &mut Vec<UnitHandle>,
    ) -> Option<(UnitHandle, Placement)> {
        if let Some(deadline) = drain_deadline {
            let margin = SimDuration::from_secs_f64(self.cfg.drain_margin_s);
            let mut keep = VecDeque::with_capacity(self.queue.len());
            for u in std::mem::take(&mut self.queue) {
                if u.state().is_final() {
                    continue;
                }
                let est = self.expected_runtime(&u.rec.borrow().descr);
                match est {
                    Some(est) if now + est + margin > deadline => drained.push(u),
                    _ => keep.push_back(u),
                }
            }
            self.queue = keep;
        }
        // A saturated plain pilot can place nothing (every unit needs at
        // least one core), so skip the queue scan entirely — with 10k+
        // queued units this turns the per-completion rescan from O(queue)
        // into O(1).
        if matches!(self.access, RuntimeAccess::Plain) && self.slots.free_total == 0 {
            return None;
        }
        // Framework capacity is read once per pass: nothing in the scan
        // changes RM or Spark-master state, and the first placement ends it.
        let free = match &self.access {
            RuntimeAccess::Plain => Resource::new(0, 0),
            RuntimeAccess::Yarn { env, .. } => {
                let available = env.yarn.available();
                Resource::new(
                    available.vcores.saturating_sub(self.yarn_inflight.vcores),
                    available.mem_mb.saturating_sub(self.yarn_inflight.mem_mb),
                )
            }
            RuntimeAccess::Spark { cluster } => Resource::new(
                cluster
                    .free_cores()
                    .saturating_sub(self.spark_inflight_cores),
                0,
            ),
        };
        // Final (cancelled) units are dropped lazily as the scan reaches
        // them instead of a full `retain` sweep per call: the last call of
        // every scheduling round scans the whole queue (it returns `None`
        // only after finding nothing placeable), so the queue still ends
        // each round fully compacted.
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].state().is_final() {
                self.queue.remove(i);
                continue;
            }
            let placement = self.place(&self.queue[i].rec.borrow().descr, free);
            if let Some(p) = placement {
                // Reserve.
                match &p {
                    Placement::Nodes {
                        nodes,
                        mem_mb,
                        cores,
                    } => {
                        for &(n, c) in nodes {
                            self.slots
                                .reserve(n, c, *mem_mb * c as u64 / (*cores).max(1) as u64);
                        }
                    }
                    Placement::Yarn { vcores, mem_mb } => {
                        self.yarn_inflight.vcores += vcores;
                        self.yarn_inflight.mem_mb += mem_mb;
                    }
                    Placement::Spark { cores } => {
                        self.spark_inflight_cores += cores;
                    }
                }
                let unit = self.queue.remove(i).expect("index valid");
                return Some((unit, p));
            }
            i += 1;
        }
        None
    }

    /// Placement for one unit, given `free`: the framework capacity (YARN
    /// vcores and memory, or Spark cores) not yet promised to in-flight
    /// units. Plain pilots consult their own slots instead.
    fn place(
        &self,
        d: &crate::description::ComputeUnitDescription,
        free: Resource,
    ) -> Option<Placement> {
        match &self.access {
            RuntimeAccess::Plain => self.place_on_nodes(d),
            RuntimeAccess::Yarn { .. } => {
                // Gate: the unit's container + its AM must fit in what is
                // not already promised to in-flight units. MapReduce jobs
                // gate coarsely (AM + one container) — the MR AM runs its
                // own waves.
                let (need_v, need_m) = match &d.work {
                    WorkSpec::MapReduce(spec) => {
                        (1 + spec.container.vcores, 1536 + spec.container.mem_mb)
                    }
                    _ => (1 + d.cores.max(1), 1536 + d.mem_mb),
                };
                (need_v <= free.vcores && need_m <= free.mem_mb).then_some(Placement::Yarn {
                    vcores: need_v,
                    mem_mb: need_m,
                })
            }
            RuntimeAccess::Spark { .. } => {
                let need = match &d.work {
                    WorkSpec::SparkApp { cores, .. } => *cores,
                    WorkSpec::SparkJob(spec) => spec.executor_cores.max(1),
                    _ => d.cores.max(1),
                };
                (need <= free.vcores).then_some(Placement::Spark { cores: need })
            }
        }
    }

    /// Continuous scheduler: single-node first-fit for serial units,
    /// greedy multi-node spread for MPI units.
    fn place_on_nodes(&self, d: &crate::description::ComputeUnitDescription) -> Option<Placement> {
        let cores = d.cores.max(1);
        let slots = &self.slots;
        if !d.mpi {
            // First node with enough free cores (ascending node id →
            // deterministic, same order as the BTreeMap this replaced).
            let node = slots
                .ids
                .iter()
                .zip(&slots.free_cores)
                .zip(&slots.dead)
                .find(|&((_, &free), &dead)| !dead && free >= cores)
                .map(|((&n, _), _)| n)?;
            return Some(Placement::Nodes {
                nodes: vec![(node, cores)],
                mem_mb: d.mem_mb,
                cores,
            });
        }
        // MPI: take cores greedily across nodes.
        let mut need = cores;
        let mut picked = Vec::new();
        for ((&n, &free), &dead) in slots.ids.iter().zip(&slots.free_cores).zip(&slots.dead) {
            if dead || free == 0 {
                continue;
            }
            let take = free.min(need);
            picked.push((n, take));
            need -= take;
            if need == 0 {
                return Some(Placement::Nodes {
                    nodes: picked,
                    mem_mb: d.mem_mb,
                    cores,
                });
            }
        }
        None
    }
}

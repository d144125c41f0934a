//! Task recipes: every per-task data decision, planned once on the head.
//!
//! In the paper the head node's data manager decides a task's forwards
//! (§4.3) and the event system only carries that decision out (§4.2). The
//! compiler here is that single decision point for both real backends. It
//! reads the [`DataManager`] and turns a dispatched task into a [`Recipe`]:
//!
//! * a **target** task gets the worker-side [`TaskStep`] list — receive
//!   each input from the head or from its latest worker holder, await a
//!   copy that is already on the wire, allocate write-only outputs, execute
//!   — plus a [`TaskIntent`]: the holder records made optimistically at
//!   compile time, committed when the task's effects land and rolled back
//!   when it fails;
//! * an **enter-data** task gets one forward, an alloc, an await, or
//!   nothing;
//! * an **exit-data** task gets its retrieval source and whether it
//!   releases the device copies or only flushes them (keep-resident);
//! * a **host** task gets the inputs to flush home before its body runs.
//!
//! The MPI backend ships a target recipe as its composite task message; the
//! threaded backend runs the same steps on a pool thread through the
//! `EventSystem` verbs. Each backend keeps only what really differs: the
//! payload cache, deferred deletes and completion routing on MPI, the
//! transfer gate and overlapped forwards on threaded.

use super::fault::LostBuffer;
use super::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use super::RuntimePlan;
use crate::buffer::BufferRegistry;
use crate::cluster::HostFn;
use crate::config::OmpcConfig;
use crate::data_manager::{DataManager, TransferReason, TransferState, HEAD_NODE};
use crate::event::EventSystem;
use crate::protocol::{TaskStamps, TaskStep};
use crate::task::{RegionGraph, TaskKind};
use crate::types::{BufferId, KernelId, MapType, NodeId, OmpcError, OmpcResult, TaskId};
use ompc_sched::Platform;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The kernel id injected task errors execute against: guaranteed to be
/// unregistered, so the worker's handler genuinely fails and the error
/// travels back through the event-reply channel.
pub(crate) const POISONED_KERNEL: KernelId = KernelId(usize::MAX);

/// `AwaitLocal` bound when no reply timeout is configured: a copy that has
/// not landed in this long is considered failed.
const DEFAULT_AWAIT_LOCAL_MS: u64 = 60_000;

/// One task, compiled for its node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Recipe {
    /// The node was declared dead: the task is a no-op whose completion the
    /// core discards as stale and restarts on a survivor.
    Skip,
    /// The worker-side steps, in order, ending in `Execute`.
    Target { steps: Vec<TaskStep>, intent: TaskIntent },
    /// One forward (`RecvFromHead` / `RecvFromWorker`), an `Alloc`, an
    /// `AwaitLocal` on a copy already booked towards the node, or nothing.
    Enter { step: Option<TaskStep>, intent: TaskIntent },
    /// Retrieve the latest copy from `source` (none when the head already
    /// holds it), then release the device copies unless the exit is a
    /// keep-resident flush.
    Exit { buffer: BufferId, source: Option<NodeId>, release: bool },
    /// Inputs whose latest copy lives on a worker, flushed home before the
    /// host body runs.
    Host { flush: Vec<(BufferId, NodeId)> },
}

/// The data-manager records a task made optimistically at compile time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaskIntent {
    /// The node the task executes on.
    pub node: NodeId,
    /// Inputs the task forwards; the node is already recorded as holder.
    pub owned: Vec<BufferId>,
    /// Allocated outputs, already recorded as replicas.
    pub allocs: Vec<BufferId>,
    /// Buffers the task writes.
    pub writes: Vec<BufferId>,
}

impl TaskIntent {
    /// The task's effects landed: record its writes. Returns the copies on
    /// live workers the writes made stale, as `(node, buffer)`, for the
    /// backend to delete.
    pub(crate) fn commit(&self, dm: &mut DataManager) -> OmpcResult<Vec<(NodeId, BufferId)>> {
        let mut stale = Vec::new();
        for &buffer in &self.writes {
            for node in dm.record_write(buffer, self.node)? {
                if node != HEAD_NODE && !dm.is_failed(node) {
                    stale.push((node, buffer));
                }
            }
        }
        Ok(stale)
    }

    /// The task failed: forget every holder record it made, so no later
    /// reader skips a transfer whose bytes may never have arrived.
    pub(crate) fn roll_back(&self, dm: &mut DataManager) {
        for &buffer in self.owned.iter().chain(&self.allocs) {
            dm.forget_replica(buffer, self.node);
        }
    }
}

/// The source of a forward step: `(buffer, from)` for `RecvFromHead` and
/// `RecvFromWorker`, `None` for every other step.
pub(crate) fn forward_of(step: &TaskStep) -> Option<(BufferId, NodeId)> {
    match *step {
        TaskStep::RecvFromHead { buffer } => Some((buffer, HEAD_NODE)),
        TaskStep::RecvFromWorker { buffer, from } => Some((buffer, from)),
        _ => None,
    }
}

/// Everything both real backends need to execute one region: the device's
/// communication machinery plus the region's graph, host bodies and
/// configuration.
pub(crate) struct RegionRun {
    pub events: Arc<EventSystem>,
    pub buffers: Arc<BufferRegistry>,
    pub dm: Arc<Mutex<DataManager>>,
    /// The region epoch of this execution: every transfer it plans or
    /// records lands in this namespace of the shared transfer log, so
    /// concurrently admitted regions never interleave records.
    pub region: u64,
    pub graph: Arc<RegionGraph>,
    pub host_fns: HashMap<usize, HostFn>,
    pub config: OmpcConfig,
    pub telemetry: Arc<Telemetry>,
}

impl RegionRun {
    /// Compile task `tid` for `node` against the current residency view.
    /// `cosched(buffer)` tells whether a co-scheduled task of this region
    /// owns the transfer of `buffer` to `node`; a reader then awaits that
    /// arrival instead of executing early. On `Err` the data manager is
    /// left as the compiler found it.
    pub(crate) fn compile(
        &self,
        tid: usize,
        node: NodeId,
        dm: &mut DataManager,
        cosched: impl Fn(BufferId) -> bool,
    ) -> OmpcResult<Recipe> {
        if node != HEAD_NODE && dm.is_failed(node) {
            return Ok(Recipe::Skip);
        }
        let task = self.graph.task(TaskId(tid));
        let mut intent = TaskIntent { node, ..TaskIntent::default() };
        Ok(match task.kind {
            TaskKind::Host { .. } => {
                let mut flush = Vec::new();
                for dep in task.dependences.iter().filter(|d| d.dep_type.reads()) {
                    // A host-only buffer (never mapped to the device) has
                    // no residency entry and nothing to flush.
                    if dm.is_registered(dep.buffer) {
                        if let Some(from) = dm.retrieve_source(dep.buffer)? {
                            flush.push((dep.buffer, from));
                        }
                    }
                }
                Recipe::Host { flush }
            }
            TaskKind::ExitData { buffer, map } => {
                let copies = map.copies_from_device();
                let source = if copies { dm.retrieve_source(buffer)? } else { None };
                if let Some(from) = source {
                    // §4.4 consistency: the exit task is pinned to its last
                    // target producer, so in a failure-free run the
                    // retrieval source is the pinned node (or the pinned
                    // node holds the version it read).
                    debug_assert!(
                        dm.has_failures() || from == node || dm.is_present(buffer, node),
                        "exit-data task pinned to node {node} but the latest copy of {buffer} \
                         is only on node {from}"
                    );
                }
                // `map(from:)` on a keep-resident buffer is a flush: the
                // host copy becomes current, the device copies stay mapped.
                Recipe::Exit { buffer, source, release: !(copies && dm.is_resident(buffer)) }
            }
            TaskKind::EnterData { .. } if node == HEAD_NODE => Recipe::Enter { step: None, intent },
            TaskKind::EnterData { buffer, map } => {
                // Residency-aware distribution: no transfer when the buffer
                // is already present (OpenMP present-table semantics), a
                // worker-to-worker forward when the latest version lives on
                // another worker, a host submit otherwise.
                let step = if map.copies_to_device() {
                    let reason = TransferReason::EnterData;
                    self.input_step(dm, buffer, node, reason, &cosched, &mut intent)?
                } else if map == MapType::Alloc {
                    self.alloc_step(dm, buffer, node, &mut intent)?
                } else {
                    None
                };
                Recipe::Enter { step, intent }
            }
            TaskKind::Target { kernel, .. } => {
                let steps = self
                    .target_steps(tid, kernel, dm, &cosched, &mut intent)
                    .inspect_err(|_| intent.roll_back(dm))?;
                Recipe::Target { steps, intent }
            }
        })
    }

    fn target_steps(
        &self,
        tid: usize,
        kernel: KernelId,
        dm: &mut DataManager,
        cosched: &dyn Fn(BufferId) -> bool,
        intent: &mut TaskIntent,
    ) -> OmpcResult<Vec<TaskStep>> {
        let (node, deps) = (intent.node, &self.graph.task(TaskId(tid)).dependences);
        let mut steps = Vec::new();
        for dep in deps.iter().filter(|d| d.dep_type.reads()) {
            let reason = TransferReason::Input;
            steps.extend(self.input_step(dm, dep.buffer, node, reason, cosched, intent)?);
        }
        for dep in deps.iter().filter(|d| !d.dep_type.reads()) {
            steps.extend(self.alloc_step(dm, dep.buffer, node, intent)?);
        }
        // Injected task error (fault plan): execute a deliberately
        // unregistered kernel so a genuine worker-side handler error
        // exercises the reply path end to end.
        let kernel =
            if self.config.fault_plan.has_task_error(tid) { POISONED_KERNEL } else { kernel };
        steps.push(TaskStep::Execute { kernel, buffers: deps.iter().map(|d| d.buffer).collect() });
        intent.writes = deps.iter().filter(|d| d.dep_type.writes()).map(|d| d.buffer).collect();
        Ok(steps)
    }

    /// The step that makes `buffer` readable on `node`: a receive from its
    /// latest holder (the task now owns that transfer), an await of a copy
    /// already on the wire — owned by a co-scheduled task, or booked by an
    /// async enter-data or prefetch — or nothing for a resident copy.
    fn input_step(
        &self,
        dm: &mut DataManager,
        buffer: BufferId,
        node: NodeId,
        reason: TransferReason,
        cosched: &dyn Fn(BufferId) -> bool,
        intent: &mut TaskIntent,
    ) -> OmpcResult<Option<TaskStep>> {
        if let Some(step) = self.forward_step(dm, buffer, node, reason)? {
            intent.owned.push(buffer);
            return Ok(Some(step));
        }
        let on_the_wire = cosched(buffer)
            || matches!(dm.transfer_state(buffer, node), TransferState::InFlight(_));
        let timeout_ms = self.config.event_reply_timeout_ms.unwrap_or(DEFAULT_AWAIT_LOCAL_MS);
        Ok(on_the_wire.then_some(TaskStep::AwaitLocal { buffer, timeout_ms }))
    }

    /// Plan the forward of `buffer` to `node` from its latest holder and
    /// record `node` as holder at once; `None` when `node` already holds,
    /// or is booked to hold, a copy.
    pub(crate) fn forward_step(
        &self,
        dm: &mut DataManager,
        buffer: BufferId,
        node: NodeId,
        reason: TransferReason,
    ) -> OmpcResult<Option<TaskStep>> {
        Ok(dm.plan_input_as_in(self.region, buffer, node, reason)?.map(|plan| {
            if plan.from == HEAD_NODE {
                TaskStep::RecvFromHead { buffer }
            } else {
                TaskStep::RecvFromWorker { buffer, from: plan.from }
            }
        }))
    }

    /// Storage for a write-only output absent from `node`, recorded as a
    /// replica at once.
    fn alloc_step(
        &self,
        dm: &mut DataManager,
        buffer: BufferId,
        node: NodeId,
        intent: &mut TaskIntent,
    ) -> OmpcResult<Option<TaskStep>> {
        if dm.is_present(buffer, node) {
            return Ok(None);
        }
        let size = self.buffers.size_of(buffer)? as u64;
        dm.record_replica(buffer, node)?;
        intent.allocs.push(buffer);
        Ok(Some(TaskStep::Alloc { buffer, size }))
    }

    /// Run a host task on the head: flush its inputs home, then its body. A
    /// panicking body fails the task with `host task N panicked`.
    pub(crate) fn run_host(&self, tid: usize, flush: &[(BufferId, NodeId)]) -> OmpcResult<()> {
        for &(buffer, from) in flush {
            let t0 = self.telemetry.start();
            let bytes = retrieve_and_commit(
                &self.events,
                &self.buffers,
                &self.dm,
                self.region,
                from,
                buffer,
            )?;
            task_span(&self.telemetry, SpanPhase::HostFlush, HEAD_NODE, tid, t0, |s| {
                s.bytes(bytes).from(from).detail("host task input")
            });
        }
        if let Some(body) = self.host_fns.get(&tid) {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&self.buffers)))
                .map_err(|_| OmpcError::Internal(format!("host task {tid} panicked")))?;
        }
        Ok(())
    }

    /// Declare `node` dead: invalidate its copies and kill its event loop
    /// for real — from now on it refuses every event with an error reply,
    /// so peers observe the death instead of hanging. Returns the buffers
    /// whose only copy died, each with the tasks that write it.
    pub(crate) fn invalidate_node(&self, node: NodeId) -> Vec<LostBuffer> {
        let lost = self.dm.lock().fail_node(node);
        let _ = self.events.kill(node);
        let tasks = self.graph.tasks();
        lost.into_iter()
            .map(|buffer| LostBuffer {
                buffer,
                writers: tasks
                    .iter()
                    .filter(|t| {
                        t.dependences.iter().any(|d| d.buffer == buffer && d.dep_type.writes())
                    })
                    .map(|t| t.id.0)
                    .collect(),
            })
            .collect()
    }

    /// Re-plan the region over the surviving workers, against the
    /// post-failure residency view: the dead node's copies are gone, so
    /// data tasks follow the surviving holders.
    pub(crate) fn replan(&self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        let residency = self.dm.lock().latest_on_workers();
        Some(RuntimePlan::region_assignment_on(
            &self.graph,
            &self.buffers,
            &Platform::cluster(alive_workers.len()),
            &self.config,
            alive_workers,
            &residency,
        ))
    }
}

/// Commit retrieved bytes as the host's latest copy of `buffer`: store
/// them, observe their size (a kernel may have resized the device copy, and
/// later transfer-log entries must stay truthful) and log the retrieval
/// under `region`. Returns the byte count.
pub(crate) fn commit_retrieve(
    buffers: &BufferRegistry,
    dm: &Mutex<DataManager>,
    region: u64,
    buffer: BufferId,
    data: Vec<u8>,
) -> OmpcResult<u64> {
    let bytes = data.len() as u64;
    buffers.set(buffer, data)?;
    let mut dm = dm.lock();
    dm.observe_size(buffer, bytes);
    dm.record_retrieve_in(region, buffer)?;
    Ok(bytes)
}

/// Retrieve `buffer` from worker `from` and [`commit_retrieve`] it. Nothing
/// is committed unless the bytes land, so a failed retrieval leaves the
/// location state truthful and recovery re-sources it.
pub(crate) fn retrieve_and_commit(
    events: &EventSystem,
    buffers: &BufferRegistry,
    dm: &Mutex<DataManager>,
    region: u64,
    from: NodeId,
    buffer: BufferId,
) -> OmpcResult<u64> {
    commit_retrieve(buffers, dm, region, buffer, events.retrieve(from, buffer)?)
}

/// End the mapping of `buffer` (exit-data semantics): drop it from the data
/// manager and return the live workers whose copies must be freed. Dead
/// holders are skipped — their memory died with them.
pub(crate) fn release(dm: &mut DataManager, buffer: BufferId) -> Vec<NodeId> {
    let holders = dm.remove(buffer);
    holders.into_iter().filter(|&n| !dm.is_failed(n)).collect()
}

/// Record a head-side span of `phase` on `node` for the current attempt of
/// `task`, from `t0` to now, shaped by `build`. No clock read when spans
/// are off.
pub(crate) fn task_span(
    tel: &Telemetry,
    phase: SpanPhase,
    node: NodeId,
    task: usize,
    t0: u64,
    build: impl FnOnce(Span) -> Span,
) {
    if tel.spans_enabled() {
        let span = Span::new(phase, node, t0, monotonic_us()).task(task).attempt(tel.attempt(task));
        tel.record(build(span));
    }
}

/// Turn the worker's stamps of a timed task into its worker-side spans:
/// the receive marker, the dependence await and the kernel body.
pub(crate) fn record_worker_stamps(
    tel: &Telemetry,
    node: NodeId,
    task: usize,
    stamps: Option<TaskStamps>,
) {
    let Some(s) = stamps else { return };
    let attempt = tel.attempt(task);
    for (phase, start, end) in [
        (SpanPhase::WorkerRecv, s.recv_us, s.recv_us),
        (SpanPhase::WorkerAwait, s.recv_us, s.deps_us),
        (SpanPhase::Compute, s.exec_start_us, s.exec_end_us),
    ] {
        tel.record(Span::new(phase, node, start, end).task(task).attempt(attempt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Dependence;

    const KERNEL: KernelId = KernelId(7);
    const NODE: NodeId = 1;

    /// Buffers 0 and 1 (8 bytes each, host-registered) and a region of one
    /// target task `KERNEL(deps)`.
    fn region(deps: Vec<Dependence>) -> (RegionRun, DataManager) {
        let buffers = Arc::new(BufferRegistry::new());
        let mut dm = DataManager::new();
        for _ in 0..2 {
            let b = buffers.register(vec![0u8; 8]);
            dm.register_host_buffer(b, 8);
        }
        let mut graph = RegionGraph::new();
        graph.add_task(TaskKind::Target { kernel: KERNEL, cost_hint: 0.0 }, deps, "t");
        let world = ompc_mpi::World::with_communicators(3, 1);
        let run = RegionRun {
            events: Arc::new(EventSystem::new(world.communicator(0))),
            buffers,
            dm: Arc::new(Mutex::new(DataManager::new())),
            region: 1,
            graph: Arc::new(graph),
            host_fns: HashMap::new(),
            config: OmpcConfig::small(),
            telemetry: Telemetry::off(),
        };
        (run, dm)
    }

    /// Compile the task on `NODE`; `cosched` buffers are owned by a
    /// co-scheduled task.
    fn steps(run: &RegionRun, dm: &mut DataManager, cosched: &[BufferId]) -> Vec<TaskStep> {
        match run.compile(0, NODE, dm, |b| cosched.contains(&b)).unwrap() {
            Recipe::Target { steps, .. } => steps,
            other => panic!("a target task compiles to a target recipe, got {other:?}"),
        }
    }

    fn execute(buffers: &[BufferId]) -> TaskStep {
        TaskStep::Execute { kernel: KERNEL, buffers: buffers.to_vec() }
    }

    fn await_local(buffer: BufferId) -> TaskStep {
        TaskStep::AwaitLocal { buffer, timeout_ms: 60_000 }
    }

    const A: BufferId = BufferId(0);
    const B: BufferId = BufferId(1);

    #[test]
    fn input_present_on_the_node_needs_no_step() {
        let (run, mut dm) = region(vec![Dependence::input(A)]);
        dm.record_replica(A, NODE).unwrap();
        assert_eq!(steps(&run, &mut dm, &[]), vec![execute(&[A])]);
        assert!(dm.transfer_log().is_empty(), "nothing moved, nothing logged");
    }

    #[test]
    fn input_latest_on_the_host_is_received_from_the_head() {
        let (run, mut dm) = region(vec![Dependence::input(A)]);
        assert_eq!(
            steps(&run, &mut dm, &[]),
            vec![TaskStep::RecvFromHead { buffer: A }, execute(&[A])]
        );
        assert!(dm.is_present(A, NODE), "the receiver is recorded as holder at compile time");
    }

    #[test]
    fn input_latest_on_another_worker_is_received_from_that_worker() {
        let (run, mut dm) = region(vec![Dependence::input(A)]);
        dm.record_write(A, 2).unwrap();
        assert_eq!(
            steps(&run, &mut dm, &[]),
            vec![TaskStep::RecvFromWorker { buffer: A, from: 2 }, execute(&[A])]
        );
    }

    #[test]
    fn input_owned_by_a_co_scheduled_task_is_awaited() {
        let (run, mut dm) = region(vec![Dependence::input(A)]);
        // The co-scheduled owner already recorded this node as holder.
        dm.plan_input(A, NODE).unwrap();
        assert_eq!(steps(&run, &mut dm, &[A]), vec![await_local(A), execute(&[A])]);
    }

    #[test]
    fn input_booked_by_an_async_transfer_is_awaited() {
        let (run, mut dm) = region(vec![Dependence::input(A)]);
        let ticket = dm.open_ticket();
        dm.begin_inflight(A, NODE, TransferReason::Input, ticket).unwrap().unwrap();
        assert_eq!(steps(&run, &mut dm, &[]), vec![await_local(A), execute(&[A])]);
    }

    #[test]
    fn absent_write_only_output_is_allocated() {
        let (run, mut dm) = region(vec![Dependence::output(B)]);
        assert_eq!(
            steps(&run, &mut dm, &[]),
            vec![TaskStep::Alloc { buffer: B, size: 8 }, execute(&[B])]
        );
    }

    #[test]
    fn present_write_only_output_needs_no_step() {
        let (run, mut dm) = region(vec![Dependence::output(B)]);
        dm.record_replica(B, NODE).unwrap();
        assert_eq!(steps(&run, &mut dm, &[]), vec![execute(&[B])]);
    }

    #[test]
    fn roll_back_restores_every_holder_set_and_commit_reports_stale_copies() {
        let (run, mut dm) = region(vec![Dependence::inout(A), Dependence::output(B)]);
        dm.record_replica(A, 2).unwrap();
        let before = (dm.holders(A), dm.holders(B));
        let Recipe::Target { steps, intent } = run.compile(0, NODE, &mut dm, |_| false).unwrap()
        else {
            panic!("a target task compiles to a target recipe");
        };
        assert_eq!(
            steps,
            vec![
                TaskStep::RecvFromHead { buffer: A },
                TaskStep::Alloc { buffer: B, size: 8 },
                execute(&[A, B]),
            ]
        );
        assert_eq!(intent.owned, vec![A]);
        assert_eq!(intent.allocs, vec![B]);
        assert_eq!(intent.writes, vec![A, B]);
        assert_ne!((dm.holders(A), dm.holders(B)), before);
        let mut committed = dm.clone();
        intent.roll_back(&mut dm);
        assert_eq!((dm.holders(A), dm.holders(B)), before);
        assert!(dm.transfer_log().is_empty(), "the rolled-back forward is withdrawn");
        // Committing instead makes the executing node the only holder and
        // reports the live worker copy it invalidated (not the host's).
        assert_eq!(intent.commit(&mut committed).unwrap(), vec![(2, A)]);
        assert_eq!(committed.holders(A), vec![NODE]);
    }

    #[test]
    fn a_failed_compile_leaves_the_data_manager_untouched() {
        let (run, mut dm) = region(vec![Dependence::input(A), Dependence::input(BufferId(9))]);
        let before = dm.holders(A);
        assert_eq!(
            run.compile(0, NODE, &mut dm, |_| false),
            Err(OmpcError::UnknownBuffer(BufferId(9)))
        );
        assert_eq!(dm.holders(A), before);
        assert!(dm.transfer_log().is_empty());
    }

    #[test]
    fn a_task_on_a_dead_node_compiles_to_a_skip() {
        let (run, mut dm) = region(vec![Dependence::input(A)]);
        dm.fail_node(NODE);
        assert_eq!(run.compile(0, NODE, &mut dm, |_| false), Ok(Recipe::Skip));
    }
}

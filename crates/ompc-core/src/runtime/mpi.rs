//! The message-passing execution backend: every task travels to its worker
//! node as **one composite event over `ompc-mpi`**, sent the moment the
//! core launches it, and completions come back over a well-known
//! **completion channel** — the paper's head/worker split (§4.2) with no
//! head pool thread blocked per in-flight task and no per-task probe loop.
//!
//! Where [`super::ThreadedBackend`] has a pool of head worker threads each
//! driving a task's constituent events *synchronously* (submit, wait;
//! execute, wait; …), the [`MpiBackend`] head composes the whole task — the
//! input forwards planned by the [`DataManager`], output allocations, and
//! the kernel execution — into a single composite recipe, serializes it
//! through the `protocol` codec, and sends it as one
//! [`EventRequest::Task`] notification. Payloads and worker-to-worker
//! forwards follow on the task's exclusive `(tag, communicator)` channel
//! (communicators chosen round-robin by tag, the paper's VCI mapping), and
//! the worker's handler answers with exactly one [`EventReply`] when the
//! last step finished — success or a typed error naming the node and
//! event. A send that fails part-way rolls the launch back and reports the
//! task failed; counters are committed only once all of a task's frames
//! are on the wire, so a retried task is counted exactly once.
//!
//! **Completion channel**: instead of `iprobe`ing the reply channel of
//! every outstanding task (O(tasks in flight) per poll), workers post a
//! compact [`CompletionNotice`] to the reserved
//! [`crate::protocol::COMPLETION_TAG`] after each task. The head blocks on
//! that one channel (a condvar wakeup, not a sleep poll) and receives each
//! noticed task's already-delivered typed reply — work proportional to
//! messages arrived, not tasks outstanding. Data events (enter/exit
//! transfers issued through the shared [`EventSystem`] verbs) post no
//! notice and keep the bounded per-channel probe;
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`] remains the
//! last-resort bound on a reply that can never arrive.
//!
//! Tag layout: new-event notifications travel on the reserved
//! [`crate::protocol::CONTROL_TAG`], completion notices on
//! [`crate::protocol::COMPLETION_TAG`]; each task (and each synchronous
//! maintenance event — deletes, retrieves — still issued through the shared
//! [`EventSystem`]) owns a device-unique tag drawn from the same counter,
//! so the tag spaces can never collide and concurrent events cannot
//! cross-talk.
//!
//! The full fault-tolerance surface carries over unchanged: the failure
//! injector kills the worker's event loop for real ([`EventRequest::Kill`]
//! via [`ExecutionBackend::invalidate_node`]), the zombie gate refuses
//! every later task with an error reply (so a launch onto a dead node
//! degrades into a stale failure the core restarts, never a hang), and a
//! dead exchange source forwards its error envelope through the receiving
//! task's reply with the dead node's attribution — the same
//! propagate-vs-restart decisions [`super::RuntimeCore`] makes for the
//! other two backends.

use super::fault::LostBuffer;
use super::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use super::threaded::POISONED_KERNEL;
use super::{ExecutionBackend, RuntimeCore, RuntimePlan, TaskEvent};
use crate::buffer::BufferRegistry;
use crate::cluster::HostFn;
use crate::config::OmpcConfig;
use crate::data_manager::{DataManager, TransferReason, HEAD_NODE};
use crate::event::EventSystem;
use crate::protocol::{
    CompletionNotice, EventNotification, EventReply, EventRequest, TaskSpec, TaskStep,
    COMPLETION_TAG,
};
use crate::task::{RegionGraph, TaskKind};
use crate::types::{BufferId, MapType, NodeId, OmpcError, OmpcResult, TaskId};
use ompc_mpi::{CommId, Tag};
use ompc_sched::Platform;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the probe loop sleeps between polls while a *data* event
/// (enter/exit transfer) is outstanding — those carry no completion notice,
/// so their reply channels are still probed. Small enough to keep
/// single-transfer latency negligible, large enough not to spin a core.
const PROBE_INTERVAL: Duration = Duration::from_micros(100);

/// Upper bound on one blocking wait for a completion notice. An arriving
/// notice wakes the waiter immediately through the transport's condvar; the
/// slice only bounds how long an idle wait can defer the deadline check.
const NOTICE_WAIT_SLICE: Duration = Duration::from_millis(100);

/// Bound on each reply wait while draining outstanding tasks after a failed
/// run, when no [`crate::config::OmpcConfig::event_reply_timeout_ms`] is
/// configured.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// `AwaitLocal` bound when no reply timeout is configured: a co-scheduled
/// transfer that has not landed in this long is considered failed.
const DEFAULT_AWAIT_LOCAL_MS: u64 = 60_000;

/// Demultiplexer for the shared completion channel. With concurrent region
/// executions admitted, several [`MpiDriver`]s consume the one
/// [`COMPLETION_TAG`] channel; a driver that received another region's
/// notice and discarded it would leave the owner blocked on a completion
/// that already arrived. The router keeps a registry of which region owns
/// each outstanding reply tag, lets exactly one driver *pump* the channel
/// at a time, and parks foreign notices for their owning region — whose
/// driver is woken through the condvar instead of racing for the channel.
///
/// With a single admitted region the router degenerates to the bare
/// channel: the pump is never contended and nothing is ever parked, so the
/// serial wire behavior is byte-identical.
pub(crate) struct NoticeRouter {
    inner: Mutex<RouterInner>,
    /// Signalled when a notice is parked for some region or the pump is
    /// released, so waiting drivers re-check their queues.
    arrived: Condvar,
}

#[derive(Default)]
struct RouterInner {
    /// Reply tag → owning region, for every outstanding target task of
    /// every admitted region.
    owners: HashMap<u64, u64>,
    /// Notices received by a pumping driver on behalf of another region,
    /// keyed by the owning region.
    parked: HashMap<u64, VecDeque<Vec<u8>>>,
    /// Whether some driver currently holds the pump (is the one reader of
    /// the shared channel).
    pumping: bool,
}

impl NoticeRouter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { inner: Mutex::new(RouterInner::default()), arrived: Condvar::new() })
    }

    /// Claim `tag`'s eventual completion notice for `region`.
    fn register(&self, tag: Tag, region: u64) {
        self.inner.lock().owners.insert(tag.0, region);
    }

    /// Drop the claim on `tag`: a notice arriving later is stale and gets
    /// discarded by whichever driver pumps it.
    fn unregister(&self, tag: Tag) {
        self.inner.lock().owners.remove(&tag.0);
    }

    /// Classify one raw notice pulled off the channel by a driver of
    /// `region`: `Some` when it belongs to that driver, `None` when it was
    /// parked for its owning region or discarded (stale tag of an already
    /// drained run).
    fn route(&self, region: u64, data: Vec<u8>) -> Option<Vec<u8>> {
        let Ok(notice) = CompletionNotice::decode(&data) else { return None };
        let mut inner = self.inner.lock();
        match inner.owners.get(&notice.tag.0) {
            Some(&owner) if owner == region => Some(data),
            Some(&owner) => {
                inner.parked.entry(owner).or_default().push_back(data);
                drop(inner);
                self.arrived.notify_all();
                None
            }
            None => None,
        }
    }
}

/// What the head must do when a task's reply arrives, beyond retiring it.
enum PendingKind {
    /// A target task: clear its in-flight transfers, record its writes
    /// (invalidating stale copies), or roll the optimistic records back on
    /// failure.
    Target {
        /// Input transfers this task owns, as `(buffer, destination)`.
        owned: Vec<(BufferId, NodeId)>,
        /// Output replicas recorded optimistically for alloc steps.
        allocs: Vec<(BufferId, NodeId)>,
        /// Buffers the task writes.
        writes: Vec<BufferId>,
    },
    /// An enter-data task. `planned` records whether the holder entry was
    /// written optimistically by `plan_input` (a residency-aware
    /// distribution, rolled back on failure) or still has to be recorded
    /// on success (an alloc).
    EnterData { buffer: BufferId, planned: bool },
    /// An exit-data retrieval: the reply payload is the buffer contents —
    /// store them on the host and, unless the buffer is keep-resident,
    /// release the device copies.
    ExitData { buffer: BufferId, release: bool },
}

/// One dispatched task whose reply the completion loop is waiting for.
struct Pending {
    node: NodeId,
    tag: Tag,
    comm: CommId,
    kind: PendingKind,
}

/// Everything the message-passing backend needs for one region execution:
/// the device's communication machinery plus the region graph and host
/// tasks.
pub(crate) struct MpiContext {
    events: Arc<EventSystem>,
    buffers: Arc<BufferRegistry>,
    dm: Arc<Mutex<DataManager>>,
    /// Transfer-log namespace of this execution: the region epoch issued
    /// at admission.
    region: u64,
    graph: Arc<RegionGraph>,
    host_fns: HashMap<usize, HostFn>,
    config: OmpcConfig,
    telemetry: Arc<Telemetry>,
    /// The owning device's completion-channel demultiplexer, shared by
    /// every concurrently admitted region execution.
    router: Arc<NoticeRouter>,
}

/// Executes a region graph through composite task messages over `ompc-mpi`.
/// The third [`ExecutionBackend`] implementation, selected with
/// [`crate::config::BackendKind::Mpi`].
pub struct MpiBackend {
    ctx: MpiContext,
}

impl MpiBackend {
    /// Build a backend over the device's communication machinery for one
    /// region execution.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        events: Arc<EventSystem>,
        buffers: Arc<BufferRegistry>,
        dm: Arc<Mutex<DataManager>>,
        region: u64,
        graph: Arc<RegionGraph>,
        host_fns: HashMap<usize, HostFn>,
        config: &OmpcConfig,
        telemetry: Arc<Telemetry>,
        router: Arc<NoticeRouter>,
    ) -> Self {
        Self {
            ctx: MpiContext {
                events,
                buffers,
                dm,
                region,
                graph,
                host_fns,
                config: config.clone(),
                telemetry,
                router,
            },
        }
    }

    /// Drive `core` to completion. After the run (successful or not) every
    /// outstanding task reply is drained, so no stale message bleeds into
    /// a later region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        self.ctx.config.fault_plan.validate_task_errors(self.ctx.graph.len())?;
        let mut driver = MpiDriver {
            ctx: &self.ctx,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            inflight: HashSet::new(),
            pending_deletes: BTreeMap::new(),
            notice_tasks: HashMap::new(),
            payload_cache: HashMap::new(),
        };
        let result = core.execute(&mut driver);
        driver.drain_outstanding();
        // On the success path the epilogue already flushed; after a failed
        // run, flush best-effort so no device copy leaks into the next
        // region.
        let _ = driver.flush_pending_deletes();
        result
    }
}

/// The [`ExecutionBackend`] face of the message-passing head: `launch`
/// composes one task and sends it, `await_completions` blocks on the
/// completion channel.
struct MpiDriver<'c> {
    ctx: &'c MpiContext,
    /// Outstanding tasks, keyed by core task id.
    pending: BTreeMap<usize, Pending>,
    /// Locally produced events (host tasks, no-op data tasks, head-side
    /// planning failures) awaiting the next `await_completions`.
    ready: VecDeque<TaskEvent>,
    /// Inbound transfers on the wire, keyed `(buffer, destination)`: a
    /// co-scheduled same-node reader must await the arrival instead of
    /// executing against memory the bytes have not reached yet — the
    /// message-passing analogue of the threaded backend's transfer gate.
    inflight: HashSet<(u64, NodeId)>,
    /// Deferred head-side maintenance: device copies to free per node
    /// (stale copies invalidated by a write, exit-data releases). Instead
    /// of a synchronous round-trip per delete, they ride as
    /// [`TaskStep::Delete`] prologue steps of the **next composite task**
    /// sent to that node; whatever never finds a carrier is flushed at the
    /// epilogue.
    pending_deletes: BTreeMap<NodeId, BTreeSet<BufferId>>,
    /// Event tag → core task id for outstanding target tasks: the index a
    /// [`CompletionNotice`] is resolved through.
    notice_tasks: HashMap<u64, usize>,
    /// Encoded payload frames keyed by buffer id, valid for one
    /// [`crate::buffer::BufferRegistry`] version: a buffer forwarded to k
    /// workers is cloned out of the registry once, not k times.
    payload_cache: HashMap<u64, (u64, Arc<Vec<u8>>)>,
}

impl MpiDriver<'_> {
    /// The payload frame of `buffer`, reusing the cached frame when the
    /// registry still holds the same version. Records a `Serialize` span
    /// (detail `hit` / `miss`) attributed to `task`.
    fn cached_payload(&mut self, buffer: BufferId, task: usize) -> OmpcResult<Arc<Vec<u8>>> {
        let tel = &self.ctx.telemetry;
        let t0 = tel.start();
        let version = self.ctx.buffers.version(buffer)?;
        if let Some((cached, frame)) = self.payload_cache.get(&buffer.0) {
            if *cached == version {
                let frame = Arc::clone(frame);
                if tel.spans_enabled() {
                    tel.record(
                        Span::new(SpanPhase::Serialize, HEAD_NODE, t0, monotonic_us())
                            .task(task)
                            .attempt(tel.attempt(task))
                            .bytes(frame.len() as u64)
                            .detail("hit"),
                    );
                }
                return Ok(frame);
            }
        }
        let (version, data) = self.ctx.buffers.get_versioned(buffer)?;
        let frame = Arc::new(data);
        self.payload_cache.insert(buffer.0, (version, Arc::clone(&frame)));
        if tel.spans_enabled() {
            tel.record(
                Span::new(SpanPhase::Serialize, HEAD_NODE, t0, monotonic_us())
                    .task(task)
                    .attempt(tel.attempt(task))
                    .bytes(frame.len() as u64)
                    .detail("miss"),
            );
        }
        Ok(frame)
    }

    /// Wait (bounded) for every outstanding reply after a failed run, and
    /// clear every completion-channel leftover so nothing bleeds into a
    /// later region execution.
    fn drain_outstanding(&mut self) {
        let timeout = self.ctx.events.reply_timeout().unwrap_or(DRAIN_TIMEOUT);
        for (_, p) in std::mem::take(&mut self.pending) {
            if let Ok(channel) = self.ctx.events.communicator().on(p.comm) {
                let _ = channel.recv_timeout(Some(p.node), Some(p.tag), timeout);
            }
        }
        // Drop the claims before clearing the index, so a notice arriving
        // even later is discarded as stale by whichever driver pumps it.
        for tag in self.notice_tasks.keys() {
            self.ctx.router.unregister(Tag(*tag));
        }
        self.notice_tasks.clear();
        // The drained replies' notices were never consumed. Clear this
        // region's leftovers — parked notices and whatever already sits on
        // the shared channel — without eating another admitted region's
        // notices: pump through the router so foreign notices park for
        // their owners while this region's (now unclaimed) tags discard.
        let router = &self.ctx.router;
        let pump = {
            let mut inner = router.inner.lock();
            inner.parked.remove(&self.ctx.region);
            if inner.pumping {
                // The active pumper routes our stale notices to the
                // discard path itself; nothing left to do.
                false
            } else {
                inner.pumping = true;
                true
            }
        };
        if pump {
            while let Some(msg) =
                self.ctx.events.communicator().try_recv(None, Some(COMPLETION_TAG))
            {
                let _ = router.route(self.ctx.region, msg.data);
            }
            router.inner.lock().pumping = false;
            router.arrived.notify_all();
        }
    }

    /// Queue the deletion of `buffer`'s device copy on `node` for the next
    /// composite task headed there.
    fn defer_delete(&mut self, node: NodeId, buffer: BufferId) {
        self.pending_deletes.entry(node).or_default().insert(buffer);
    }

    /// Flush every deferred delete synchronously (end of run, or a node
    /// with no further tasks). Dead nodes are skipped — their memory died
    /// with them.
    fn flush_pending_deletes(&mut self) -> OmpcResult<()> {
        let pending = std::mem::take(&mut self.pending_deletes);
        for (node, buffers) in pending {
            if self.ctx.dm.lock().is_failed(node) {
                continue;
            }
            for buffer in buffers {
                self.ctx.events.delete(node, buffer)?;
            }
        }
        Ok(())
    }

    /// Release every device copy of `buffer` (exit-data semantics): drop it
    /// from the data manager and *defer* the per-holder delete events into
    /// the composite-task protocol.
    fn release_buffer(&mut self, buffer: BufferId) {
        let live_holders: Vec<NodeId> = {
            let mut dm = self.ctx.dm.lock();
            let holders = dm.remove(buffer);
            holders.into_iter().filter(|&n| !dm.is_failed(n)).collect()
        };
        for holder in live_holders {
            self.defer_delete(holder, buffer);
        }
    }

    /// Put one composed target task on the wire: its
    /// [`EventRequest::Task`] notification on the control tag, then its
    /// payload frames and exchange notifications on the task's own
    /// `(tag, comm)` channel.
    ///
    /// Counters are accumulated locally and committed only once every frame
    /// is on the wire: a task whose send fails part-way is rolled back by
    /// [`MpiDriver::roll_back_launch`] and re-dispatched, so recording
    /// interleaved with the sends would count the frames that preceded the
    /// failure twice.
    fn send_task(
        &self,
        task: usize,
        node: NodeId,
        (tag, comm): (Tag, CommId),
        steps: Vec<TaskStep>,
        payloads: Vec<Arc<Vec<u8>>>,
        exchanges: Vec<(NodeId, EventRequest, u64)>,
    ) -> OmpcResult<()> {
        let tel = &self.ctx.telemetry;
        let timed = tel.spans_enabled();
        let t0 = tel.start();
        self.ctx.events.notify(
            node,
            &EventNotification {
                request: EventRequest::Task(TaskSpec { steps }),
                tag,
                comm,
                timed,
            },
        )?;
        if timed {
            // The control notification only: the task's own frames get a
            // `Send` span below, so the buckets never count the same
            // microsecond twice.
            tel.record(
                Span::new(SpanPhase::TrainFlush, HEAD_NODE, t0, monotonic_us())
                    .detail(format!("node {node}")),
            );
        }
        let send_start = tel.start();
        let mut recorded: Vec<Option<u64>> = vec![None];
        let channel = self.ctx.events.communicator().on(comm)?;
        for frame in payloads {
            channel.send(node, tag, frame.as_ref().clone())?;
            recorded.push(Some(frame.len() as u64));
        }
        for (src, request, bytes) in exchanges {
            self.ctx.events.notify(src, &EventNotification { request, tag, comm, timed: false })?;
            recorded.push(Some(bytes));
        }
        if timed {
            tel.record(
                Span::new(SpanPhase::Send, HEAD_NODE, send_start, monotonic_us())
                    .task(task)
                    .attempt(tel.attempt(task))
                    .bytes(recorded.iter().flatten().sum()),
            );
        }
        // Every frame is on the wire: commit the task's accounting.
        for bytes in recorded {
            self.ctx.events.counters().record(bytes);
        }
        Ok(())
    }

    /// Roll back a launch whose frames never all reached the wire: drop
    /// the reply-tag claim, forget the optimistic holder records, clear the
    /// in-flight gate, and put the attached deletes back on the deferral
    /// queue. The caller reports the task as failed (the core owns the
    /// propagate-vs-restart policy).
    fn roll_back_launch(&mut self, pending: &Pending, attached_deletes: Vec<BufferId>) {
        self.notice_tasks.remove(&pending.tag.0);
        self.ctx.router.unregister(pending.tag);
        if let PendingKind::Target { owned, allocs, .. } = &pending.kind {
            {
                let mut dm = self.ctx.dm.lock();
                for &(buf, n) in owned.iter().chain(allocs.iter()) {
                    dm.forget_replica(buf, n);
                }
            }
            for &(buf, n) in owned {
                self.inflight.remove(&(buf.0, n));
            }
        }
        for buf in attached_deletes {
            self.defer_delete(pending.node, buf);
        }
    }

    /// Compose the message(s) of one task, or finish it locally.
    /// `Ok(None)` means the task completed immediately (host task, no-op
    /// data task); `Err` is a head-side task failure the caller reports as
    /// a [`TaskEvent::Failed`]. A target task is sent here, as soon as it
    /// is composed; a failed send leaves no trace of the launch.
    fn begin_task(&mut self, tid: usize, node: NodeId) -> OmpcResult<Option<Pending>> {
        let ctx = self.ctx;
        let task = ctx.graph.task(TaskId(tid));
        match &task.kind {
            TaskKind::Host { .. } => {
                // A host task reads through the head's buffer registry, so
                // every read buffer whose latest version lives on a worker
                // is flushed home first — the host-side analogue of the
                // input transfers a target task plans.
                for dep in &task.dependences {
                    if !dep.dep_type.reads() {
                        continue;
                    }
                    let from = {
                        let dm = ctx.dm.lock();
                        // A host-only buffer (never mapped to the device)
                        // has no residency entry and nothing to flush.
                        if !dm.is_registered(dep.buffer) {
                            continue;
                        }
                        dm.retrieve_source(dep.buffer)
                    };
                    if let Some(from) = from {
                        let t0 = ctx.telemetry.start();
                        let data = ctx.events.retrieve(from, dep.buffer)?;
                        let bytes = data.len() as u64;
                        ctx.buffers.set(dep.buffer, data)?;
                        {
                            let mut dm = ctx.dm.lock();
                            dm.observe_size(dep.buffer, bytes);
                            dm.record_retrieve_in(ctx.region, dep.buffer);
                        }
                        if ctx.telemetry.spans_enabled() {
                            ctx.telemetry.record(
                                Span::new(SpanPhase::HostFlush, HEAD_NODE, t0, monotonic_us())
                                    .task(tid)
                                    .bytes(bytes)
                                    .from(from)
                                    .detail("host task input"),
                            );
                        }
                    }
                }
                if let Some(f) = ctx.host_fns.get(&tid) {
                    let buffers = &ctx.buffers;
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(buffers)))
                        .map_err(|_| OmpcError::Internal(format!("host task {tid} panicked")))?;
                }
                Ok(None)
            }
            TaskKind::EnterData { buffer, map } => {
                if node == HEAD_NODE {
                    return Ok(None);
                }
                match map {
                    MapType::To | MapType::ToFrom | MapType::ToResident => {
                        // Residency-aware distribution, exactly as the
                        // threaded backend plans it: no transfer when the
                        // buffer is already present, a worker-to-worker
                        // forward when the latest version is on another
                        // worker, a host submit otherwise.
                        let plan = ctx.dm.lock().plan_input_as_in(
                            ctx.region,
                            *buffer,
                            node,
                            TransferReason::EnterData,
                        )?;
                        let Some(plan) = plan else { return Ok(None) };
                        let payload = if plan.from == HEAD_NODE {
                            match self.cached_payload(*buffer, tid) {
                                Ok(frame) => Some(frame),
                                Err(e) => {
                                    ctx.dm.lock().forget_replica(*buffer, node);
                                    return Err(e);
                                }
                            }
                        } else {
                            None
                        };
                        // The incoming copy supersedes whatever stale bytes
                        // a deferred delete was going to free — but the
                        // cancellation only sticks if the send succeeds.
                        let cancelled_delete =
                            self.pending_deletes.get_mut(&node).is_some_and(|s| s.remove(buffer));
                        let (tag, comm) = ctx.events.open_channel();
                        let t0 = ctx.telemetry.start();
                        let mut moved = 0u64;
                        let sent: OmpcResult<()> = (|| {
                            if let Some(frame) = &payload {
                                ctx.events.notify(
                                    node,
                                    &EventNotification {
                                        request: EventRequest::Submit { buffer: *buffer },
                                        tag,
                                        comm,
                                        timed: false,
                                    },
                                )?;
                                let bytes = frame.len() as u64;
                                ctx.events.communicator().on(comm)?.send(
                                    node,
                                    tag,
                                    frame.as_ref().clone(),
                                )?;
                                ctx.events.counters().record(Some(bytes));
                                moved = bytes;
                            } else {
                                ctx.events.notify(
                                    node,
                                    &EventNotification {
                                        request: EventRequest::ExchangeRecv {
                                            buffer: *buffer,
                                            from: plan.from,
                                        },
                                        tag,
                                        comm,
                                        timed: false,
                                    },
                                )?;
                                ctx.events.notify(
                                    plan.from,
                                    &EventNotification {
                                        request: EventRequest::ExchangeSend {
                                            buffer: *buffer,
                                            to: node,
                                        },
                                        tag,
                                        comm,
                                        timed: false,
                                    },
                                )?;
                                let bytes = ctx.buffers.size_of(*buffer).unwrap_or(0) as u64;
                                ctx.events.counters().record(Some(bytes));
                                moved = bytes;
                            }
                            Ok(())
                        })();
                        if sent.is_ok() && ctx.telemetry.spans_enabled() {
                            ctx.telemetry.record(
                                Span::new(SpanPhase::EnterData, node, t0, monotonic_us())
                                    .task(tid)
                                    .bytes(moved)
                                    .from(plan.from)
                                    .detail("EnterData"),
                            );
                        }
                        if let Err(e) = sent {
                            ctx.dm.lock().forget_replica(*buffer, node);
                            if cancelled_delete {
                                self.defer_delete(node, *buffer);
                            }
                            return Err(e);
                        }
                        Ok(Some(Pending {
                            node,
                            tag,
                            comm,
                            kind: PendingKind::EnterData { buffer: *buffer, planned: true },
                        }))
                    }
                    MapType::Alloc => {
                        if ctx.dm.lock().is_present(*buffer, node) {
                            return Ok(None);
                        }
                        let size = ctx.buffers.size_of(*buffer)?;
                        let (tag, comm) = ctx.events.open_channel();
                        ctx.events.notify(
                            node,
                            &EventNotification {
                                request: EventRequest::Alloc { buffer: *buffer, size: size as u64 },
                                tag,
                                comm,
                                timed: false,
                            },
                        )?;
                        ctx.events.counters().record(None);
                        Ok(Some(Pending {
                            node,
                            tag,
                            comm,
                            kind: PendingKind::EnterData { buffer: *buffer, planned: false },
                        }))
                    }
                    MapType::From | MapType::Release => Ok(None),
                }
            }
            TaskKind::ExitData { buffer, map } => {
                let mut keep_resident = false;
                if map.copies_from_device() {
                    // Read-only plan: the latest-on-head commit (and the
                    // transfer log entry) happens in `finish_task` once the
                    // bytes actually arrived, so a source that dies
                    // mid-retrieval leaves the location state truthful for
                    // recovery.
                    let (from, pinned_holds_data, any_failures) = {
                        let dm = ctx.dm.lock();
                        keep_resident = dm.is_resident(*buffer);
                        let present = dm.is_present(*buffer, node);
                        (dm.retrieve_source(*buffer), present, dm.has_failures())
                    };
                    if let Some(from) = from {
                        // §4.4 consistency, as in the threaded backend: the
                        // exit task is pinned to its last target producer,
                        // so in a failure-free run the retrieval source is
                        // the pinned node (or the pinned node holds the
                        // version it read).
                        debug_assert!(
                            any_failures || from == node || pinned_holds_data,
                            "exit-data task pinned to node {node} but the latest copy of \
                             {buffer} is only on node {from}"
                        );
                        let (tag, comm) = ctx.events.open_channel();
                        ctx.events.notify(
                            from,
                            &EventNotification {
                                request: EventRequest::Retrieve { buffer: *buffer },
                                tag,
                                comm,
                                timed: false,
                            },
                        )?;
                        return Ok(Some(Pending {
                            node: from,
                            tag,
                            comm,
                            kind: PendingKind::ExitData {
                                buffer: *buffer,
                                release: !keep_resident,
                            },
                        }));
                    }
                }
                // Nothing to copy back: unless the buffer is keep-resident
                // (a flush with nothing to flush), release the device
                // copies.
                if !keep_resident {
                    self.release_buffer(*buffer);
                }
                Ok(None)
            }
            TaskKind::Target { kernel, .. } => {
                // Injected task error (fault plan): execute a deliberately
                // unregistered kernel so a genuine worker-side handler
                // error exercises the reply path end to end.
                let kernel = if ctx.config.fault_plan.has_task_error(tid) {
                    POISONED_KERNEL
                } else {
                    *kernel
                };
                let await_ms = ctx.config.event_reply_timeout_ms.unwrap_or(DEFAULT_AWAIT_LOCAL_MS);
                let mut steps: Vec<TaskStep> = Vec::new();
                let mut owned: Vec<(BufferId, NodeId)> = Vec::new();
                let mut allocs: Vec<(BufferId, NodeId)> = Vec::new();
                let mut payloads: Vec<Arc<Vec<u8>>> = Vec::new();
                let mut exchanges: Vec<(NodeId, EventRequest, u64)> = Vec::new();
                // Plan the whole task under one data-manager acquisition,
                // exactly as the threaded backend plans under its gate: a
                // later co-scheduled reader either sees our holder record
                // (and awaits the arrival) or plans its own transfer.
                let planned: OmpcResult<()> = {
                    let mut dm = ctx.dm.lock();
                    let mut planned = Ok(());
                    for dep in &task.dependences {
                        if !dep.dep_type.reads() {
                            continue;
                        }
                        let plan = match dm.plan_input_in(ctx.region, dep.buffer, node) {
                            Ok(plan) => plan,
                            Err(e) => {
                                // Concurrent first-touch guard: abort the
                                // task's planning with the typed rejection.
                                planned = Err(e);
                                break;
                            }
                        };
                        match plan {
                            Some(plan) if plan.from == HEAD_NODE => {
                                match self.cached_payload(dep.buffer, tid) {
                                    Ok(frame) => {
                                        steps.push(TaskStep::RecvFromHead { buffer: dep.buffer });
                                        payloads.push(frame);
                                        owned.push((dep.buffer, node));
                                    }
                                    Err(e) => {
                                        dm.forget_replica(dep.buffer, node);
                                        planned = Err(e);
                                        break;
                                    }
                                }
                            }
                            Some(plan) => {
                                steps.push(TaskStep::RecvFromWorker {
                                    buffer: dep.buffer,
                                    from: plan.from,
                                });
                                exchanges.push((
                                    plan.from,
                                    EventRequest::ExchangeSend { buffer: dep.buffer, to: node },
                                    ctx.buffers.size_of(dep.buffer).unwrap_or(0) as u64,
                                ));
                                owned.push((dep.buffer, node));
                            }
                            None => {
                                // `None` with an in-flight entry means the
                                // bytes are still on the wire: either a
                                // co-scheduled task of this window owns the
                                // transfer (the driver's gate), or an async
                                // enter-data / cross-region prefetch booked
                                // the holder (the data manager's in-flight
                                // table). Both cases await the local arrival
                                // on the worker instead of executing early.
                                let device_inflight = matches!(
                                    dm.transfer_state(dep.buffer, node),
                                    crate::data_manager::TransferState::InFlight(_)
                                );
                                if self.inflight.contains(&(dep.buffer.0, node)) || device_inflight
                                {
                                    steps.push(TaskStep::AwaitLocal {
                                        buffer: dep.buffer,
                                        timeout_ms: await_ms,
                                    });
                                }
                            }
                        }
                    }
                    if planned.is_ok() {
                        // Write-only outputs: make sure storage exists on
                        // the executing node.
                        for dep in &task.dependences {
                            if dep.dep_type.reads() || dm.is_present(dep.buffer, node) {
                                continue;
                            }
                            match ctx.buffers.size_of(dep.buffer) {
                                Ok(size) => {
                                    steps.push(TaskStep::Alloc {
                                        buffer: dep.buffer,
                                        size: size as u64,
                                    });
                                    dm.record_replica(dep.buffer, node);
                                    allocs.push((dep.buffer, node));
                                }
                                Err(e) => {
                                    planned = Err(e);
                                    break;
                                }
                            }
                        }
                    }
                    if planned.is_err() {
                        for &(buf, n) in owned.iter().chain(allocs.iter()) {
                            dm.forget_replica(buf, n);
                        }
                    }
                    planned
                };
                planned?;
                // Deferred maintenance rides along: whatever deletes were
                // queued for this node since its last task become prologue
                // steps of this composite — ordered before any receive of
                // the same buffer, executed in one handler invocation, and
                // costing zero extra round-trips.
                let attached_deletes: Vec<BufferId> =
                    self.pending_deletes.remove(&node).unwrap_or_default().into_iter().collect();
                if !attached_deletes.is_empty() {
                    steps.splice(
                        0..0,
                        attached_deletes.iter().map(|&buffer| TaskStep::Delete { buffer }),
                    );
                }
                let buffer_list: Vec<BufferId> =
                    task.dependences.iter().map(|d| d.buffer).collect();
                steps.push(TaskStep::Execute { kernel, buffers: buffer_list });
                let writes: Vec<BufferId> = task
                    .dependences
                    .iter()
                    .filter(|d| d.dep_type.writes())
                    .map(|d| d.buffer)
                    .collect();
                let (tag, comm) = ctx.events.open_channel();
                // The transfer gate opens before the bytes leave: a later
                // co-scheduled same-node reader must await their arrival.
                for &(buf, n) in &owned {
                    self.inflight.insert((buf.0, n));
                }
                // Claim the reply tag before the notification leaves: a
                // concurrently admitted region's driver may pump this
                // task's completion notice, and it discards unclaimed tags.
                self.notice_tasks.insert(tag.0, tid);
                ctx.router.register(tag, ctx.region);
                let pending = Pending {
                    node,
                    tag,
                    comm,
                    kind: PendingKind::Target { owned, allocs, writes },
                };
                if let Err(error) =
                    self.send_task(tid, node, (tag, comm), steps, payloads, exchanges)
                {
                    self.roll_back_launch(&pending, attached_deletes);
                    return Err(error);
                }
                Ok(Some(pending))
            }
        }
    }

    /// Turn an arrived reply into the task's [`TaskEvent`], performing the
    /// completion-side data-manager bookkeeping. A timed reply carries the
    /// worker's [`crate::protocol::TaskStamps`]; they become the task's
    /// worker-side spans (receive marker, dependence await, kernel execute)
    /// plus a head-side `Reply` span covering the reply decode.
    fn finish_task(&mut self, task: usize, pending: Pending, data: Vec<u8>) -> TaskEvent {
        let tel = Arc::clone(&self.ctx.telemetry);
        let reply_start = tel.start();
        let reply = match EventReply::decode(&data) {
            Ok(reply) => reply,
            Err(error) => return TaskEvent::Failed { task, error },
        };
        let (result, stamps) = match reply.into_timed_result() {
            Ok((payload, stamps)) => (Ok(payload), stamps),
            Err(error) => (Err(error), None),
        };
        if tel.spans_enabled() {
            let attempt = tel.attempt(task);
            if let Some(s) = stamps {
                tel.record(
                    Span::new(SpanPhase::WorkerRecv, pending.node, s.recv_us, s.recv_us)
                        .task(task)
                        .attempt(attempt),
                );
                tel.record(
                    Span::new(SpanPhase::WorkerAwait, pending.node, s.recv_us, s.deps_us)
                        .task(task)
                        .attempt(attempt),
                );
                tel.record(
                    Span::new(SpanPhase::Compute, pending.node, s.exec_start_us, s.exec_end_us)
                        .task(task)
                        .attempt(attempt),
                );
            }
            tel.record(
                Span::new(SpanPhase::Reply, HEAD_NODE, reply_start, monotonic_us())
                    .task(task)
                    .attempt(attempt)
                    .from(pending.node),
            );
        }
        match result {
            Err(error) => {
                match pending.kind {
                    PendingKind::Target { owned, allocs, .. } => {
                        // The task never landed its effects: roll back the
                        // optimistic holder records so no later reader
                        // skips a transfer the bytes never made.
                        let mut dm = self.ctx.dm.lock();
                        for &(buf, n) in owned.iter().chain(allocs.iter()) {
                            dm.forget_replica(buf, n);
                        }
                        for (buf, n) in owned {
                            self.inflight.remove(&(buf.0, n));
                        }
                    }
                    PendingKind::EnterData { buffer, planned } => {
                        if planned {
                            self.ctx.dm.lock().forget_replica(buffer, pending.node);
                        }
                    }
                    PendingKind::ExitData { .. } => {}
                }
                TaskEvent::Failed { task, error }
            }
            Ok(payload) => match pending.kind {
                PendingKind::Target { owned, writes, .. } => {
                    for (buf, n) in owned {
                        self.inflight.remove(&(buf.0, n));
                    }
                    // Stale copies invalidated by this task's writes are
                    // deferred into the composite-task protocol instead of
                    // paying a synchronous round-trip each.
                    let stale_deletes: Vec<(NodeId, BufferId)> = {
                        let mut dm = self.ctx.dm.lock();
                        let mut out = Vec::new();
                        for buf in writes {
                            for stale in dm.record_write(buf, pending.node) {
                                if stale != HEAD_NODE && !dm.is_failed(stale) {
                                    out.push((stale, buf));
                                }
                            }
                        }
                        out
                    };
                    for (stale, buf) in stale_deletes {
                        self.defer_delete(stale, buf);
                    }
                    TaskEvent::Completed(task)
                }
                PendingKind::EnterData { buffer, planned } => {
                    if !planned {
                        self.ctx.dm.lock().record_replica(buffer, pending.node);
                    }
                    TaskEvent::Completed(task)
                }
                PendingKind::ExitData { buffer, release } => {
                    let bytes = payload.len() as u64;
                    self.ctx.events.counters().record(Some(bytes));
                    let t0 = tel.start();
                    if let Err(error) = self.ctx.buffers.set(buffer, payload) {
                        return TaskEvent::Failed { task, error };
                    }
                    if tel.spans_enabled() {
                        tel.record(
                            Span::new(SpanPhase::ExitData, HEAD_NODE, t0, monotonic_us())
                                .task(task)
                                .attempt(tel.attempt(task))
                                .bytes(bytes)
                                .from(pending.node)
                                .detail("ExitData"),
                        );
                    }
                    {
                        // The retrieved size is the ground truth for later
                        // transfer-log entries of this buffer: a kernel may
                        // have resized the device copy.
                        let mut dm = self.ctx.dm.lock();
                        dm.observe_size(buffer, bytes);
                        dm.record_retrieve_in(self.ctx.region, buffer);
                    }
                    if release {
                        self.release_buffer(buffer);
                    }
                    TaskEvent::Completed(task)
                }
            },
        }
    }

    /// Resolve one completion notice: look up the noticed task, receive its
    /// already-delivered typed reply, and retire it. Unknown tags (stale
    /// notices of a previously drained run) and undecodable notices are
    /// discarded.
    fn on_notice(&mut self, data: &[u8], out: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        let Ok(notice) = CompletionNotice::decode(data) else {
            return Ok(());
        };
        let Some(task) = self.notice_tasks.remove(&notice.tag.0) else {
            return Ok(());
        };
        self.ctx.router.unregister(notice.tag);
        let Some(p) = self.pending.remove(&task) else {
            return Ok(());
        };
        // The worker sends the typed reply before posting the notice and
        // the transport delivers eagerly, so this receive cannot block.
        let msg = self.ctx.events.communicator().on(p.comm)?.recv(Some(p.node), Some(p.tag))?;
        let event = self.finish_task(task, p, msg.data);
        out.push(event);
        Ok(())
    }

    /// Take the next completion notice addressed to this region without
    /// blocking: parked notices first, then whatever already arrived on the
    /// shared channel — pumped only when no other region's driver holds the
    /// pump (that pumper parks our notices for us).
    fn try_next_notice(&self) -> Option<Vec<u8>> {
        let router = &self.ctx.router;
        {
            let mut inner = router.inner.lock();
            if let Some(data) = inner.parked.get_mut(&self.ctx.region).and_then(|q| q.pop_front()) {
                return Some(data);
            }
            if inner.pumping {
                return None;
            }
            inner.pumping = true;
        }
        let mut own = None;
        while own.is_none() {
            match self.ctx.events.communicator().try_recv(None, Some(COMPLETION_TAG)) {
                Some(msg) => own = router.route(self.ctx.region, msg.data),
                None => break,
            }
        }
        router.inner.lock().pumping = false;
        router.arrived.notify_all();
        own
    }

    /// Block up to `wait` for the next completion notice addressed to this
    /// region: parked notices first, then pump the shared channel — or,
    /// when another region's driver holds the pump, sleep on the router's
    /// condvar until that pumper parks something for us or hands the pump
    /// over.
    fn wait_notice(&self, wait: Duration) -> Option<Vec<u8>> {
        let router = &self.ctx.router;
        let deadline = Instant::now() + wait;
        loop {
            let pump = {
                let mut inner = router.inner.lock();
                if let Some(data) =
                    inner.parked.get_mut(&self.ctx.region).and_then(|q| q.pop_front())
                {
                    return Some(data);
                }
                if inner.pumping {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    if timeout.is_zero() {
                        return None;
                    }
                    router.arrived.wait_for(&mut inner, timeout);
                    false
                } else {
                    inner.pumping = true;
                    true
                }
            };
            if pump {
                let own = self.pump_until(deadline);
                router.inner.lock().pumping = false;
                router.arrived.notify_all();
                if own.is_some() {
                    return own;
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Pump the shared completion channel until a notice for this region
    /// arrives or `deadline` passes, parking foreign notices as they come.
    /// Caller holds the router's pump.
    fn pump_until(&self, deadline: Instant) -> Option<Vec<u8>> {
        loop {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return None;
            }
            match self.ctx.events.communicator().recv_timeout(None, Some(COMPLETION_TAG), timeout) {
                Ok(msg) => {
                    if let Some(own) = self.ctx.router.route(self.ctx.region, msg.data) {
                        return Some(own);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// One pass of the completion loop: resolve every notice that has
    /// already arrived on the completion channel, then probe the reply
    /// channels of the outstanding *data* events (which carry no notice) —
    /// O(messages arrived) + O(data events), never O(tasks in flight).
    fn poll_replies(&mut self, out: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        while let Some(data) = self.try_next_notice() {
            self.on_notice(&data, out)?;
        }
        let arrived: Vec<usize> = self
            .pending
            .iter()
            .filter(|(_, p)| !matches!(p.kind, PendingKind::Target { .. }))
            .filter(|(_, p)| {
                self.ctx
                    .events
                    .communicator()
                    .on(p.comm)
                    .ok()
                    .and_then(|c| c.iprobe(Some(p.node), Some(p.tag)))
                    .is_some()
            })
            .map(|(&task, _)| task)
            .collect();
        for task in arrived {
            let p = self.pending.remove(&task).expect("probed task is pending");
            let msg = self.ctx.events.communicator().on(p.comm)?.recv(Some(p.node), Some(p.tag))?;
            let event = self.finish_task(task, p, msg.data);
            out.push(event);
        }
        Ok(())
    }
}

impl ExecutionBackend for MpiDriver<'_> {
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        if node != HEAD_NODE && self.ctx.dm.lock().is_failed(node) {
            // The failure injector killed this node: complete the task as a
            // no-op whose (stale) completion the core discards and restarts
            // on a survivor — without depending on the zombie gate's reply
            // latency.
            self.ready.push_back(TaskEvent::Completed(task));
            return Ok(());
        }
        match self.begin_task(task, node) {
            Ok(Some(pending)) => {
                self.pending.insert(task, pending);
            }
            Ok(None) => self.ready.push_back(TaskEvent::Completed(task)),
            // Head-side planning and send failures are task failures, not
            // backend breakdowns: the core owns the propagate-vs-restart
            // policy.
            Err(error) => self.ready.push_back(TaskEvent::Failed { task, error }),
        }
        Ok(())
    }

    fn await_completions(&mut self) -> OmpcResult<Vec<TaskEvent>> {
        let mut events: Vec<TaskEvent> = self.ready.drain(..).collect();
        // Whatever already arrived rides along without waiting.
        self.poll_replies(&mut events)?;
        if !events.is_empty() {
            return Ok(events);
        }
        if self.pending.is_empty() {
            return Err(OmpcError::Internal(
                "mpi backend awaited completions with nothing outstanding".to_string(),
            ));
        }
        let deadline = self.ctx.events.reply_timeout().map(|t| Instant::now() + t);
        loop {
            let all_noticed =
                self.pending.values().all(|p| matches!(p.kind, PendingKind::Target { .. }));
            if all_noticed {
                // Every outstanding task posts a completion notice: block
                // on the completion channel (condvar wakeup on arrival) in
                // deadline-bounded slices.
                let wait = deadline
                    .map(|d| d.saturating_duration_since(Instant::now()).min(NOTICE_WAIT_SLICE))
                    .unwrap_or(NOTICE_WAIT_SLICE);
                if let Some(data) = self.wait_notice(wait) {
                    self.on_notice(&data, &mut events)?;
                }
            } else {
                // A data event carries no notice: fall back to the bounded
                // sleep-poll for its reply channel.
                std::thread::sleep(PROBE_INTERVAL);
            }
            self.poll_replies(&mut events)?;
            if !events.is_empty() {
                return Ok(events);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(OmpcError::Communication(format!(
                        "timed out waiting for the replies of {} outstanding task event(s)",
                        self.pending.len()
                    )));
                }
            }
        }
    }

    fn epilogue(&mut self) -> OmpcResult<()> {
        // Only deferred maintenance that never found a composite-task
        // carrier is left to flush here.
        self.flush_pending_deletes()
    }

    fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
        // The dead node's memory died with it; dropping its deferred
        // deletes also keeps them from riding a later composite into the
        // zombie gate.
        self.pending_deletes.remove(&node);
        let lost = self.ctx.dm.lock().fail_node(node);
        // Kill the worker's event loop for real: from now on the node
        // refuses every event with an error reply instead of executing it,
        // so outstanding and future tasks observe the death instead of
        // hanging.
        let _ = self.ctx.events.kill(node);
        lost.into_iter()
            .map(|buffer| LostBuffer {
                buffer,
                writers: self
                    .ctx
                    .graph
                    .tasks()
                    .iter()
                    .filter(|t| {
                        t.dependences.iter().any(|d| d.buffer == buffer && d.dep_type.writes())
                    })
                    .map(|t| t.id.0)
                    .collect(),
            })
            .collect()
    }

    fn replan(&mut self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        let platform = Platform::cluster(alive_workers.len());
        // Re-pin against the post-failure residency view: the dead node's
        // copies are gone, so data tasks follow the surviving holders.
        let residency = self.ctx.dm.lock().latest_on_workers();
        Some(RuntimePlan::region_assignment_on(
            &self.ctx.graph,
            &self.ctx.buffers,
            &platform,
            &self.ctx.config,
            alive_workers,
            &residency,
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::ClusterDevice;
    use crate::config::{BackendKind, OmpcConfig};
    use crate::types::{Dependence, OmpcError};

    fn mpi_config() -> OmpcConfig {
        OmpcConfig { backend: BackendKind::Mpi, ..OmpcConfig::small() }
    }

    #[test]
    fn listing1_chain_runs_end_to_end_over_mpi_messages() {
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let foo = device.register_kernel_fn("foo", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let bar = device.register_kernel_fn("bar", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 10.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0, 3.0, 4.0]);
        region.target(foo, vec![Dependence::inout(a)]);
        region.target(bar, vec![Dependence::inout(a)]);
        region.map_from(a);
        let report = region.run().unwrap();
        assert_eq!(report.target_tasks, 2);
        assert!(report.bytes_moved > 0, "task payloads travel as real messages");
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![20.0, 30.0, 40.0, 50.0]);
        // No head pool thread was ever spawned: the MPI backend is pure
        // message passing.
        assert_eq!(device.pool_threads(), 0);
        device.shutdown();
    }

    #[test]
    fn independent_tasks_spread_and_colocated_readers_wait() {
        let mut device = ClusterDevice::with_config(3, mpi_config());
        let bump = device.register_kernel_fn("bump", 1e-4, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let buffers: Vec<_> = (0..6).map(|i| region.map_to_f64s(&[i as f64])).collect();
        for &b in &buffers {
            region.target(bump, vec![Dependence::inout(b)]);
        }
        for &b in &buffers {
            region.map_from(b);
        }
        region.run().unwrap();
        for (i, &b) in buffers.iter().enumerate() {
            assert_eq!(device.buffer_f64s(b).unwrap(), vec![i as f64 + 1.0]);
        }
        device.shutdown();
    }

    #[test]
    fn host_tasks_and_empty_regions_work_over_mpi() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let device = ClusterDevice::with_config(1, mpi_config());
        let empty = device.target_region();
        assert_eq!(empty.run().unwrap().tasks_executed, 0);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[5.0]);
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        region.host_task(vec![Dependence::input(a)], move |_| {
            flag2.store(true, Ordering::SeqCst);
        });
        region.run().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn host_task_reads_device_written_buffer_without_explicit_flush() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[41.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        // No map_from before the host task: the runtime must flush the
        // device-latest bytes home on its own before the closure runs.
        region.host_task(vec![Dependence::input(a)], move |buffers| {
            let raw = buffers.get(a).unwrap();
            let bits = u64::from_le_bytes(raw[..8].try_into().unwrap());
            seen2.store(bits, Ordering::SeqCst);
        });
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(f64::from_bits(seen.load(Ordering::SeqCst)), 42.0);
        device.shutdown();
    }

    #[test]
    fn host_task_reading_an_exited_buffer_does_not_panic() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // `map_from` on an ordinary buffer releases its residency entry;
        // a host task reading it afterwards must use the flushed host copy
        // instead of asking the data manager for a retrieve source.
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[9.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        region.host_task(vec![Dependence::input(a)], move |buffers| {
            let raw = buffers.get(a).unwrap();
            seen2.store(u64::from_le_bytes(raw[..8].try_into().unwrap()), Ordering::SeqCst);
        });
        region.run().unwrap();
        assert_eq!(f64::from_bits(seen.load(Ordering::SeqCst)), 10.0);
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![10.0]);
        device.shutdown();
    }

    /// Regression test for the counter drift of re-dispatched tasks: a task
    /// whose send fails part-way (here: its exchange notification names a
    /// node the world does not have, after its payload frame already went
    /// out) is rolled back and re-dispatched, so committing counters
    /// interleaved with the sends would count the already-sent frames
    /// twice. Accounting must commit only once every frame is on the wire
    /// — the failed attempt counts nothing, the retry counts each frame
    /// exactly once.
    #[test]
    fn partial_send_failure_commits_no_counters_until_the_retry_lands() {
        use super::{MpiContext, MpiDriver, NoticeRouter};
        use crate::buffer::BufferRegistry;
        use crate::data_manager::DataManager;
        use crate::event::EventSystem;
        use crate::protocol::EventRequest;
        use crate::runtime::telemetry::Telemetry;
        use crate::task::RegionGraph;
        use crate::types::{BufferId, NodeId};
        use ompc_mpi::World;
        use parking_lot::Mutex;
        use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        // Nothing runs on the workers: the sends are eager, and only the
        // head's counters are under test.
        let world = World::with_communicators(3, 2);
        let events = Arc::new(EventSystem::with_reply_timeout(world.communicator(0), None));
        let ctx = MpiContext {
            events: Arc::clone(&events),
            buffers: Arc::new(BufferRegistry::new()),
            dm: Arc::new(Mutex::new(DataManager::new())),
            region: 1,
            graph: Arc::new(RegionGraph::new()),
            host_fns: HashMap::new(),
            config: mpi_config(),
            telemetry: Telemetry::off(),
            router: NoticeRouter::new(),
        };
        let driver = MpiDriver {
            ctx: &ctx,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            inflight: HashSet::new(),
            pending_deletes: BTreeMap::new(),
            notice_tasks: HashMap::new(),
            payload_cache: HashMap::new(),
        };
        let snapshot = || {
            let c = events.counters();
            (
                c.events.load(Ordering::Relaxed),
                c.data_events.load(Ordering::Relaxed),
                c.bytes_moved.load(Ordering::Relaxed),
            )
        };
        let send = |source: NodeId| {
            driver.send_task(
                0,
                1,
                events.open_channel(),
                Vec::new(),
                vec![Arc::new(vec![7u8; 16])],
                vec![(source, EventRequest::ExchangeSend { buffer: BufferId(5), to: 1 }, 32)],
            )
        };

        assert!(send(99).is_err(), "an exchange source the world lacks must fail the send");
        assert_eq!(snapshot(), (0, 0, 0), "a task that failed mid-send commits nothing");

        send(2).unwrap();
        assert_eq!(
            snapshot(),
            (3, 2, 48),
            "the successful retry commits the task event, its payload and its exchange \
             exactly once"
        );
    }

    #[test]
    fn unregistered_kernel_is_a_typed_error_not_a_hang() {
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let bogus = crate::types::KernelId(424_242);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bogus, vec![Dependence::inout(a)]);
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::UnknownKernel(bogus), "got {err:?}");
        assert!(err.origin_node().is_some_and(|n| (1..=2).contains(&n)));
        device.shutdown();
    }

    #[test]
    fn sim_backend_kind_is_rejected_by_the_device() {
        let device = ClusterDevice::with_config(
            1,
            OmpcConfig { backend: BackendKind::Sim, ..OmpcConfig::small() },
        );
        let noop = device.register_kernel_fn("noop", 1e-6, |_| {});
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(noop, vec![Dependence::inout(a)]);
        let err = region.run().unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)), "got {err:?}");
    }
}

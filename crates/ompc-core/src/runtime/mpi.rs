//! The message-passing execution backend: every task travels to its worker
//! node as **one composite event over `ompc-mpi`**, sent the moment the
//! core launches it, and completions come back over a well-known
//! **completion channel** — the paper's head/worker split (§4.2) with no
//! head pool thread blocked per in-flight task and no per-task probe loop.
//!
//! At launch the head compiles the task's recipe (see `runtime::recipe`):
//! the input forwards planned by the [`DataManager`], output allocations
//! and the kernel execution. The [`MpiBackend`] ships the steps as one
//! [`EventRequest::Task`] notification; payloads and worker-to-worker
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
//! transfers) post no notice and keep the bounded per-channel probe;
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`] remains the
//! last-resort bound on a reply that can never arrive.
//!
//! Tag layout: new-event notifications travel on the reserved
//! [`crate::protocol::CONTROL_TAG`], completion notices on
//! [`crate::protocol::COMPLETION_TAG`]; each task (and each synchronous
//! maintenance event issued through the shared [`EventSystem`]) owns a
//! device-unique tag drawn from the same counter, so the tag spaces can
//! never collide and concurrent events cannot cross-talk.
//!
//! The fault-tolerance surface is the other backends': the injector kills
//! the worker's event loop for real ([`EventRequest::Kill`] via
//! [`ExecutionBackend::invalidate_node`]), the zombie gate refuses every
//! later task with an error reply (so a launch onto a dead node degrades
//! into a stale failure the core restarts, never a hang), and a dead
//! exchange source forwards its error envelope through the receiving
//! task's reply with the dead node's attribution.

use super::fault::LostBuffer;
use super::recipe::{
    commit_retrieve, record_worker_stamps, release, task_span, Recipe, RegionRun, TaskIntent,
};
use super::telemetry::{monotonic_us, Span, SpanPhase};
use super::{ExecutionBackend, RuntimeCore, TaskEvent};
#[cfg(doc)]
use crate::data_manager::DataManager;
use crate::data_manager::HEAD_NODE;
#[cfg(doc)]
use crate::event::EventSystem;
use crate::protocol::{
    CompletionNotice, EventNotification, EventReply, EventRequest, TaskSpec, TaskStep,
    COMPLETION_TAG,
};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{CommId, Tag};
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
    /// A composite target task (posts a completion notice): commit its
    /// intent, deferring the stale-copy deletes, or roll it back.
    Target(TaskIntent),
    /// An enter-data event: commit or roll back its intent.
    EnterData(TaskIntent),
    /// An exit-data retrieval: the reply payload is the buffer contents —
    /// store them on the host and, unless the buffer is keep-resident,
    /// release the device copies.
    ExitData { buffer: BufferId, release: bool },
}

/// A sent data event: its channel and, for a forward, `(source, bytes)`.
type SentEvent = (Tag, CommId, Option<(NodeId, u64)>);

/// One dispatched task whose reply the completion loop is waiting for.
struct Pending {
    node: NodeId,
    tag: Tag,
    comm: CommId,
    kind: PendingKind,
}

/// Executes a region graph through composite task messages over `ompc-mpi`.
/// The third [`ExecutionBackend`] implementation, selected with
/// [`crate::config::BackendKind::Mpi`].
pub struct MpiBackend {
    run: RegionRun,
    /// The owning device's completion-channel demultiplexer, shared by
    /// every concurrently admitted region execution.
    router: Arc<NoticeRouter>,
}

impl MpiBackend {
    /// Build a backend over the device's communication machinery for one
    /// region execution.
    pub(crate) fn new(run: RegionRun, router: Arc<NoticeRouter>) -> Self {
        Self { run, router }
    }

    /// Drive `core` to completion. After the run (successful or not) every
    /// outstanding task reply is drained, so no stale message bleeds into
    /// a later region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        self.run.config.fault_plan.validate_task_errors(self.run.graph.len())?;
        let mut driver = MpiDriver::new(&self.run, &self.router);
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
/// compiles one task and sends it, `await_completions` blocks on the
/// completion channel.
struct MpiDriver<'c> {
    run: &'c RegionRun,
    router: &'c NoticeRouter,
    /// Outstanding tasks, keyed by core task id.
    pending: BTreeMap<usize, Pending>,
    /// Locally produced events (host tasks, no-op data tasks, head-side
    /// compile and send failures) awaiting the next `await_completions`.
    ready: VecDeque<TaskEvent>,
    /// Inbound transfers on the wire, keyed `(buffer, destination)`: a
    /// co-scheduled same-node reader compiles an `AwaitLocal` step for them.
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

impl<'c> MpiDriver<'c> {
    fn new(run: &'c RegionRun, router: &'c NoticeRouter) -> Self {
        Self {
            run,
            router,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            inflight: HashSet::new(),
            pending_deletes: BTreeMap::new(),
            notice_tasks: HashMap::new(),
            payload_cache: HashMap::new(),
        }
    }

    /// The payload frame of `buffer`, reusing the cached frame when the
    /// registry still holds the same version. Records a `Serialize` span
    /// (detail `hit` / `miss`) attributed to `task`.
    fn cached_payload(&mut self, buffer: BufferId, task: usize) -> OmpcResult<Arc<Vec<u8>>> {
        let tel = &self.run.telemetry;
        let t0 = tel.start();
        let version = self.run.buffers.version(buffer)?;
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
        let (version, data) = self.run.buffers.get_versioned(buffer)?;
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
        let timeout = self.run.events.reply_timeout().unwrap_or(DRAIN_TIMEOUT);
        for (_, p) in std::mem::take(&mut self.pending) {
            if let Ok(channel) = self.run.events.communicator().on(p.comm) {
                let _ = channel.recv_timeout(Some(p.node), Some(p.tag), timeout);
            }
        }
        // Drop the claims before clearing the index, so a notice arriving
        // even later is discarded as stale by whichever driver pumps it.
        for tag in self.notice_tasks.keys() {
            self.router.unregister(Tag(*tag));
        }
        self.notice_tasks.clear();
        // The drained replies' notices were never consumed. Clear this
        // region's leftovers — parked notices and whatever already sits on
        // the shared channel — without eating another admitted region's
        // notices: pump through the router so foreign notices park for
        // their owners while this region's (now unclaimed) tags discard.
        let router = &self.router;
        let pump = {
            let mut inner = router.inner.lock();
            inner.parked.remove(&self.run.region);
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
                self.run.events.communicator().try_recv(None, Some(COMPLETION_TAG))
            {
                let _ = router.route(self.run.region, msg.data);
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
            if self.run.dm.lock().is_failed(node) {
                continue;
            }
            for buffer in buffers {
                self.run.events.delete(node, buffer)?;
            }
        }
        Ok(())
    }

    /// Put one composed target task on the wire: its
    /// [`EventRequest::Task`] notification on the control tag, then its
    /// payload frames and exchange notifications on the task's own
    /// `(tag, comm)` channel.
    ///
    /// Counters are accumulated locally and committed only once every frame
    /// is on the wire: a task whose send fails part-way is rolled back by
    /// [`MpiDriver::begin_target`] and re-dispatched, so recording
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
        let tel = &self.run.telemetry;
        let timed = tel.spans_enabled();
        let t0 = tel.start();
        self.run.events.notify(
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
        let channel = self.run.events.communicator().on(comm)?;
        for frame in payloads {
            channel.send(node, tag, frame.as_ref().clone())?;
            recorded.push(Some(frame.len() as u64));
        }
        for (src, request, bytes) in exchanges {
            self.run.events.notify(src, &EventNotification { request, tag, comm, timed: false })?;
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
            self.run.events.counters().record(bytes);
        }
        Ok(())
    }

    /// Release every device copy of `buffer` (exit-data semantics): drop it
    /// from the data manager and *defer* the per-holder delete events into
    /// the composite-task protocol.
    fn release_buffer(&mut self, buffer: BufferId) {
        for holder in release(&mut self.run.dm.lock(), buffer) {
            self.defer_delete(holder, buffer);
        }
    }

    /// Send one data event on a fresh channel of its own.
    fn send_event(&self, node: NodeId, request: EventRequest) -> OmpcResult<(Tag, CommId)> {
        let (tag, comm) = self.run.events.open_channel();
        let notification = EventNotification { request, tag, comm, timed: false };
        self.run.events.notify(node, &notification)?;
        Ok((tag, comm))
    }

    /// Compile one task and send its message(s), or finish it locally.
    /// `Ok(None)` means the task completed immediately (host task, no-op
    /// data task); `Err` is a head-side task failure the caller reports as
    /// a [`TaskEvent::Failed`]. A failed send leaves no trace of the launch.
    fn begin_task(&mut self, tid: usize, node: NodeId) -> OmpcResult<Option<Pending>> {
        let run = self.run;
        let inflight = &self.inflight;
        let recipe =
            run.compile(tid, node, &mut run.dm.lock(), |b| inflight.contains(&(b.0, node)))?;
        match recipe {
            Recipe::Skip => Ok(None),
            Recipe::Host { flush } => run.run_host(tid, &flush).map(|()| None),
            Recipe::Exit { buffer, source: Some(from), release } => {
                // Nothing is committed until the reply brings the bytes, so
                // a source that dies mid-retrieval leaves the location state
                // truthful for recovery.
                let (tag, comm) = self.send_event(from, EventRequest::Retrieve { buffer })?;
                let kind = PendingKind::ExitData { buffer, release };
                Ok(Some(Pending { node: from, tag, comm, kind }))
            }
            Recipe::Exit { buffer, source: None, release } => {
                if release {
                    self.release_buffer(buffer);
                }
                Ok(None)
            }
            Recipe::Enter { step: Some(step), intent } => self.begin_enter(tid, step, intent),
            Recipe::Enter { step: None, .. } => Ok(None),
            Recipe::Target { steps, intent } => self.begin_target(tid, steps, intent),
        }
    }

    /// Send an enter-data step as a plain data event: a submit, an
    /// exchange, or an alloc. An `AwaitLocal` needs no event — the booked
    /// copy's first reader awaits it.
    fn begin_enter(
        &mut self,
        tid: usize,
        step: TaskStep,
        intent: TaskIntent,
    ) -> OmpcResult<Option<Pending>> {
        let node = intent.node;
        let buffer = match step {
            TaskStep::RecvFromHead { buffer }
            | TaskStep::RecvFromWorker { buffer, .. }
            | TaskStep::Alloc { buffer, .. } => buffer,
            _ => return Ok(None),
        };
        // The incoming copy supersedes whatever stale bytes a deferred
        // delete was going to free — but the cancellation only sticks if
        // the send succeeds.
        let cancelled_delete =
            self.pending_deletes.get_mut(&node).is_some_and(|s| s.remove(&buffer));
        let t0 = self.run.telemetry.start();
        let (tag, comm, moved) = match self.send_enter(tid, node, step) {
            Ok(sent) => sent,
            Err(e) => {
                intent.roll_back(&mut self.run.dm.lock());
                if cancelled_delete {
                    self.defer_delete(node, buffer);
                }
                return Err(e);
            }
        };
        if let Some((from, bytes)) = moved {
            task_span(&self.run.telemetry, SpanPhase::EnterData, node, tid, t0, |s| {
                s.bytes(bytes).from(from).detail("EnterData")
            });
        }
        Ok(Some(Pending { node, tag, comm, kind: PendingKind::EnterData(intent) }))
    }

    /// The wire half of [`MpiDriver::begin_enter`]: returns the event's
    /// channel and, for a forward, its source and byte count.
    fn send_enter(&mut self, tid: usize, node: NodeId, step: TaskStep) -> OmpcResult<SentEvent> {
        let run = self.run;
        let events = &run.events;
        let (tag, comm, moved) = match step {
            TaskStep::RecvFromHead { buffer } => {
                let frame = self.cached_payload(buffer, tid)?;
                let (tag, comm) = self.send_event(node, EventRequest::Submit { buffer })?;
                events.communicator().on(comm)?.send(node, tag, frame.as_ref().clone())?;
                (tag, comm, Some((HEAD_NODE, frame.len() as u64)))
            }
            TaskStep::RecvFromWorker { buffer, from } => {
                let (tag, comm) =
                    self.send_event(node, EventRequest::ExchangeRecv { buffer, from })?;
                let request = EventRequest::ExchangeSend { buffer, to: node };
                events.notify(from, &EventNotification { request, tag, comm, timed: false })?;
                (tag, comm, Some((from, run.buffers.size_of(buffer).unwrap_or(0) as u64)))
            }
            TaskStep::Alloc { buffer, size } => {
                let (tag, comm) = self.send_event(node, EventRequest::Alloc { buffer, size })?;
                (tag, comm, None)
            }
            _ => unreachable!("begin_enter sends only forwards and allocs"),
        };
        events.counters().record(moved.map(|(_, bytes)| bytes));
        Ok((tag, comm, moved))
    }

    /// Ship a compiled target recipe as one composite task: build the
    /// payload frames of its head receives, prepend the deletes deferred
    /// for the node, open the in-flight gate and claim the reply tag, send.
    fn begin_target(
        &mut self,
        tid: usize,
        mut steps: Vec<TaskStep>,
        intent: TaskIntent,
    ) -> OmpcResult<Option<Pending>> {
        let node = intent.node;
        let mut payloads = Vec::new();
        let mut exchanges = Vec::new();
        for step in &steps {
            match *step {
                TaskStep::RecvFromHead { buffer } => match self.cached_payload(buffer, tid) {
                    Ok(frame) => payloads.push(frame),
                    Err(e) => {
                        intent.roll_back(&mut self.run.dm.lock());
                        return Err(e);
                    }
                },
                TaskStep::RecvFromWorker { buffer, from } => {
                    let bytes = self.run.buffers.size_of(buffer).unwrap_or(0) as u64;
                    exchanges.push((from, EventRequest::ExchangeSend { buffer, to: node }, bytes));
                }
                _ => {}
            }
        }
        // Deferred maintenance rides along: whatever deletes were queued
        // for this node since its last task become prologue steps of this
        // composite — ordered before any receive of the same buffer and
        // costing zero extra round-trips.
        let attached: Vec<BufferId> =
            self.pending_deletes.remove(&node).unwrap_or_default().into_iter().collect();
        steps.splice(0..0, attached.iter().map(|&buffer| TaskStep::Delete { buffer }));
        let (tag, comm) = self.run.events.open_channel();
        // The transfer gate opens before the bytes leave, and the reply tag
        // is claimed before the notification does: a concurrently admitted
        // region's driver may pump this task's notice, and it discards
        // unclaimed tags.
        for &buffer in &intent.owned {
            self.inflight.insert((buffer.0, node));
        }
        self.notice_tasks.insert(tag.0, tid);
        self.router.register(tag, self.run.region);
        if let Err(error) = self.send_task(tid, node, (tag, comm), steps, payloads, exchanges) {
            self.notice_tasks.remove(&tag.0);
            self.router.unregister(tag);
            for buffer in attached {
                self.defer_delete(node, buffer);
            }
            return self.settle(&intent, Err(error)).map(|()| None);
        }
        Ok(Some(Pending { node, tag, comm, kind: PendingKind::Target(intent) }))
    }

    /// Close the in-flight gate of a finished task and settle its intent
    /// by `outcome`: commit it — deferring the deletes of the stale copies
    /// its writes invalidated — or roll it back and return the error.
    fn settle(&mut self, intent: &TaskIntent, outcome: OmpcResult<()>) -> OmpcResult<()> {
        for &buffer in &intent.owned {
            self.inflight.remove(&(buffer.0, intent.node));
        }
        if outcome.is_err() {
            intent.roll_back(&mut self.run.dm.lock());
            return outcome;
        }
        let stale = intent.commit(&mut self.run.dm.lock())?;
        for (node, buffer) in stale {
            self.defer_delete(node, buffer);
        }
        Ok(())
    }

    /// Turn an arrived reply into the task's [`TaskEvent`], performing the
    /// completion-side bookkeeping. A timed reply carries the worker's
    /// [`crate::protocol::TaskStamps`]; they become the task's worker-side
    /// spans, plus a head-side `Reply` span covering the reply decode.
    fn finish_task(&mut self, task: usize, pending: Pending, data: Vec<u8>) -> TaskEvent {
        let tel = Arc::clone(&self.run.telemetry);
        let reply_start = tel.start();
        let (result, stamps) = match EventReply::decode(&data).and_then(|r| r.into_timed_result()) {
            Ok((payload, stamps)) => (Ok(payload), stamps),
            Err(error) => (Err(error), None),
        };
        if tel.spans_enabled() {
            record_worker_stamps(&tel, pending.node, task, stamps);
            tel.record(
                Span::new(SpanPhase::Reply, HEAD_NODE, reply_start, monotonic_us())
                    .task(task)
                    .attempt(tel.attempt(task))
                    .from(pending.node),
            );
        }
        let outcome = match (result, pending.kind) {
            (result, PendingKind::Target(intent) | PendingKind::EnterData(intent)) => {
                self.settle(&intent, result.map(|_| ()))
            }
            (Err(error), PendingKind::ExitData { .. }) => Err(error),
            (Ok(payload), PendingKind::ExitData { buffer, release }) => {
                self.finish_retrieve(task, pending.node, buffer, release, payload)
            }
        };
        match outcome {
            Ok(()) => TaskEvent::Completed(task),
            Err(error) => TaskEvent::Failed { task, error },
        }
    }

    /// Commit an exit-data retrieval that arrived from `from`, then release
    /// the device copies unless the exit is a keep-resident flush.
    fn finish_retrieve(
        &mut self,
        task: usize,
        from: NodeId,
        buffer: BufferId,
        release: bool,
        payload: Vec<u8>,
    ) -> OmpcResult<()> {
        let run = self.run;
        run.events.counters().record(Some(payload.len() as u64));
        let t0 = run.telemetry.start();
        let bytes = commit_retrieve(&run.buffers, &run.dm, run.region, buffer, payload)?;
        task_span(&run.telemetry, SpanPhase::ExitData, HEAD_NODE, task, t0, |s| {
            s.bytes(bytes).from(from).detail("ExitData")
        });
        if release {
            self.release_buffer(buffer);
        }
        Ok(())
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
        self.router.unregister(notice.tag);
        let Some(p) = self.pending.remove(&task) else {
            return Ok(());
        };
        // The worker sends the typed reply before posting the notice and
        // the transport delivers eagerly, so this receive cannot block.
        let msg = self.run.events.communicator().on(p.comm)?.recv(Some(p.node), Some(p.tag))?;
        let event = self.finish_task(task, p, msg.data);
        out.push(event);
        Ok(())
    }

    /// Take the next completion notice addressed to this region without
    /// blocking: parked notices first, then whatever already arrived on the
    /// shared channel — pumped only when no other region's driver holds the
    /// pump (that pumper parks our notices for us).
    fn try_next_notice(&self) -> Option<Vec<u8>> {
        let router = &self.router;
        {
            let mut inner = router.inner.lock();
            if let Some(data) = inner.parked.get_mut(&self.run.region).and_then(|q| q.pop_front()) {
                return Some(data);
            }
            if inner.pumping {
                return None;
            }
            inner.pumping = true;
        }
        let mut own = None;
        while own.is_none() {
            match self.run.events.communicator().try_recv(None, Some(COMPLETION_TAG)) {
                Some(msg) => own = router.route(self.run.region, msg.data),
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
        let router = &self.router;
        let deadline = Instant::now() + wait;
        loop {
            let pump = {
                let mut inner = router.inner.lock();
                if let Some(data) =
                    inner.parked.get_mut(&self.run.region).and_then(|q| q.pop_front())
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
            match self.run.events.communicator().recv_timeout(None, Some(COMPLETION_TAG), timeout) {
                Ok(msg) => {
                    if let Some(own) = self.router.route(self.run.region, msg.data) {
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
                self.run
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
            let msg = self.run.events.communicator().on(p.comm)?.recv(Some(p.node), Some(p.tag))?;
            let event = self.finish_task(task, p, msg.data);
            out.push(event);
        }
        Ok(())
    }
}

impl ExecutionBackend for MpiDriver<'_> {
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        match self.begin_task(task, node) {
            Ok(Some(pending)) => {
                self.pending.insert(task, pending);
            }
            Ok(None) => self.ready.push_back(TaskEvent::Completed(task)),
            // Head-side compile and send failures are task failures, not
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
        let deadline = self.run.events.reply_timeout().map(|t| Instant::now() + t);
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
        self.run.invalidate_node(node)
    }

    fn replan(&mut self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        self.run.replan(alive_workers)
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
        use super::{MpiDriver, NoticeRouter};
        use crate::buffer::BufferRegistry;
        use crate::data_manager::DataManager;
        use crate::event::EventSystem;
        use crate::protocol::EventRequest;
        use crate::runtime::recipe::RegionRun;
        use crate::runtime::telemetry::Telemetry;
        use crate::task::RegionGraph;
        use crate::types::{BufferId, NodeId};
        use ompc_mpi::World;
        use parking_lot::Mutex;
        use std::collections::HashMap;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        // Nothing runs on the workers: the sends are eager, and only the
        // head's counters are under test.
        let world = World::with_communicators(3, 2);
        let events = Arc::new(EventSystem::with_reply_timeout(world.communicator(0), None));
        let run = RegionRun {
            events: Arc::clone(&events),
            buffers: Arc::new(BufferRegistry::new()),
            dm: Arc::new(Mutex::new(DataManager::new())),
            region: 1,
            graph: Arc::new(RegionGraph::new()),
            host_fns: HashMap::new(),
            config: mpi_config(),
            telemetry: Telemetry::off(),
        };
        let router = NoticeRouter::new();
        let driver = MpiDriver::new(&run, &router);
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

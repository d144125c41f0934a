//! The threaded execution backend: real worker-node threads driven through
//! the `ompc-mpi` event system.
//!
//! Tasks are executed by a **long-lived pool of head worker threads** (the
//! analogue of libomptarget's hidden helper threads) owned by
//! [`crate::cluster::ClusterDevice`] — see [`HeadWorkerPool`]. The pool is
//! created lazily, sized `min(head_worker_threads, window, tasks)` for the
//! largest region seen so far, reused across region executions, and drained
//! when the device shuts down. [`RuntimeCore`] decides *which* task is
//! dispatched *when* — bounded by the configured in-flight window — and a
//! pool thread carries each task out: it compiles the task's recipe (see
//! `runtime::recipe`) and runs the steps one blocking event at a time
//! (submit, exchange, alloc, execute), overlapping the task's own input
//! forwards. Because the window is a property of the core rather than of
//! the pool, more tasks can be in flight than there are blocked threads,
//! which is exactly the pipelined dispatch the paper proposes as the fix
//! for its §7 bottleneck.
//!
//! Every event produces a typed reply ([`crate::protocol::EventReply`]):
//! worker-side handler failures come back as [`OmpcError::RemoteEvent`]
//! values naming the origin node and event, and reach the core as
//! [`TaskEvent::Failed`] — the core propagates genuine errors and restarts
//! tasks whose failure is collateral damage of an injected node death. A
//! genuine failure on a live node trips the pool's cancellation flag so
//! tasks queued behind it stop executing before the error propagates.

use super::fault::LostBuffer;
use super::recipe::{
    forward_of, record_worker_stamps, retrieve_and_commit, task_span, Recipe, RegionRun, TaskIntent,
};
use super::telemetry::{monotonic_us, Span, SpanPhase};
use super::{ExecutionBackend, RuntimeCore, TaskEvent};
use crate::data_manager::{TransferReason, HEAD_NODE};
use crate::protocol::TaskStep;
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message of the synthetic error reported for tasks skipped by the
/// cancellation flag; the pool driver recognizes it so it never masks the
/// root-cause error of the task that actually failed.
const CANCELLED_MSG: &str = "cancelled after an earlier task failure";

#[derive(Debug, Clone)]
enum TransferState {
    InFlight,
    /// The owning task failed with this error; waiters receive a clone, so
    /// a failure caused by a killed source keeps its node attribution.
    Failed(OmpcError),
}

/// The `(buffer, node)` forwards this region's tasks own and have not yet
/// landed. The compiler records the destination as a holder at once, so a
/// concurrent reader of the same buffer on the same node gets an
/// `AwaitLocal` step and waits here instead of executing against memory
/// the bytes have not reached; if the owner fails, waiters get its error
/// instead of silently computing on missing data.
#[derive(Default)]
struct TransferGate {
    transfers: Mutex<HashMap<(u64, NodeId), TransferState>>,
    done: parking_lot::Condvar,
}

impl TransferGate {
    fn arrived(&self, buffer: BufferId, node: NodeId) {
        self.transfers.lock().remove(&(buffer.0, node));
        self.done.notify_all();
    }

    /// Block until the transfer of `buffer` to `node` has landed; error out
    /// (with the owner's error) if it failed.
    fn wait_until_present(&self, buffer: BufferId, node: NodeId) -> OmpcResult<()> {
        let mut transfers = self.transfers.lock();
        loop {
            match transfers.get(&(buffer.0, node)) {
                None => return Ok(()),
                Some(TransferState::Failed(error)) => return Err(error.clone()),
                Some(TransferState::InFlight) => self.done.wait(&mut transfers),
            }
        }
    }
}

/// Everything a pool thread needs to execute tasks of one region: the
/// shared [`RegionRun`] plus the transfer gate and cancellation flag.
/// Shared with the long-lived pool through an `Arc`, which is what lets the
/// pool outlive any single region execution.
pub(crate) struct RegionContext {
    run: RegionRun,
    gate: TransferGate,
    /// The device-wide condvar paired with the data manager's mutex:
    /// notified whenever an asynchronous data-path job (async enter-data,
    /// cross-region prefetch, lazy flush) resolves an in-flight entry.
    /// First readers of in-flight data block here instead of re-submitting
    /// the transfer.
    inflight_cv: Arc<parking_lot::Condvar>,
    /// Set when a task fails on a live node: tasks still queued in the head
    /// pool stop executing instead of landing side effects after the run
    /// has already failed.
    cancelled: AtomicBool,
}

impl RegionContext {
    /// Run one task end to end and report its outcome, honouring the
    /// cancellation flag and classifying failures for the core.
    fn run(&self, task: usize, node: NodeId) -> OmpcResult<()> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Err(OmpcError::Internal(CANCELLED_MSG.to_string()));
        }
        let res = self.run_task(task, node);
        if let Err(error) = &res {
            // Trip the cancellation flag only for *genuine* failures: not
            // for tasks on a node the injector killed, and not for errors
            // blamed on a killed peer — those are stale, the core restarts
            // the task, and cancelling the run for them would wedge it.
            let dm = self.run.dm.lock();
            let own_node_dead = node != HEAD_NODE && dm.is_failed(node);
            let blamed_dead = error.origin_node().is_some_and(|n| dm.is_failed(n));
            if !own_node_dead && !blamed_dead {
                self.cancelled.store(true, Ordering::SeqCst);
            }
        }
        res
    }

    /// Compile one task and carry its recipe out on this pool thread.
    fn run_task(&self, tid: usize, node: NodeId) -> OmpcResult<()> {
        let r = &self.run;
        let recipe = {
            let mut gate = self.gate.transfers.lock();
            let recipe =
                r.compile(tid, node, &mut r.dm.lock(), |b| gate.contains_key(&(b.0, node)))?;
            // Open the gate in the same acquisition: a co-located reader
            // that finds this node recorded as holder must find the entry.
            if let Recipe::Target { intent, .. } | Recipe::Enter { intent, .. } = &recipe {
                for &buffer in &intent.owned {
                    gate.insert((buffer.0, node), TransferState::InFlight);
                }
            }
            recipe
        };
        match recipe {
            Recipe::Skip => Ok(()),
            Recipe::Host { flush } => r.run_host(tid, &flush),
            Recipe::Exit { buffer, source, release } => {
                if let Some(from) = source {
                    let t0 = r.telemetry.start();
                    let bytes =
                        retrieve_and_commit(&r.events, &r.buffers, &r.dm, r.region, from, buffer)?;
                    task_span(&r.telemetry, SpanPhase::ExitData, HEAD_NODE, tid, t0, |s| {
                        s.bytes(bytes).from(from).detail("ExitData")
                    });
                }
                if release {
                    super::release_device_copies(&r.dm, &r.events, buffer)
                } else {
                    Ok(())
                }
            }
            Recipe::Enter { step, intent } => {
                self.run_steps(tid, step.into_iter().collect(), intent, SpanPhase::EnterData)
            }
            Recipe::Target { steps, intent } => self.run_steps(tid, steps, intent, SpanPhase::Send),
        }
    }

    /// Carry out a compiled step list: the task's own forwards first
    /// (`phase` names their spans), then the awaits, allocs and kernel in
    /// order. Then settle the intent: commit and delete the stale copies,
    /// or roll back and fail the forwards still open on the gate.
    fn run_steps(
        &self,
        tid: usize,
        steps: Vec<TaskStep>,
        mut intent: TaskIntent,
        phase: SpanPhase,
    ) -> OmpcResult<()> {
        let node = intent.node;
        let forwards: Vec<_> = steps.iter().filter_map(forward_of).collect();
        let outcome = self.forward_all(tid, node, &forwards, phase).and_then(|()| {
            steps
                .into_iter()
                .filter(|step| forward_of(step).is_none())
                .try_for_each(|step| self.run_step(tid, step, &mut intent, phase))
        });
        let r = &self.run;
        match outcome {
            Ok(()) => {
                let stale = intent.commit(&mut r.dm.lock())?;
                stale.into_iter().try_for_each(|(n, buffer)| r.events.delete(n, buffer))
            }
            Err(error) => {
                // Roll back and fail the open forwards in one gate
                // acquisition, so no co-located reader re-plans in between.
                let mut gate = self.gate.transfers.lock();
                intent.roll_back(&mut r.dm.lock());
                for buffer in &intent.owned {
                    gate.entry((buffer.0, node)).and_modify(|state| {
                        if matches!(state, TransferState::InFlight) {
                            *state = TransferState::Failed(error.clone());
                        }
                    });
                }
                drop(gate);
                self.gate.done.notify_all();
                Err(error)
            }
        }
    }

    /// Perform the task's own forwards: overlapped by default, strictly in
    /// dependence order when `serial_input_transfers` restores the
    /// libomptarget behaviour. Every forward is joined before reporting.
    fn forward_all(
        &self,
        tid: usize,
        node: NodeId,
        forwards: &[(BufferId, NodeId)],
        phase: SpanPhase,
    ) -> OmpcResult<()> {
        if self.run.config.serial_input_transfers || forwards.len() <= 1 {
            return forwards
                .iter()
                .try_for_each(|&(b, from)| self.forward(tid, node, b, from, phase));
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = forwards
                .iter()
                .map(|&(b, from)| scope.spawn(move || self.forward(tid, node, b, from, phase)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("input transfer thread panicked"))
                .fold(Ok(()), OmpcResult::and)
        })
    }

    /// Carry out one forward through the event verbs and open its gate
    /// entry on arrival. A head-sourced payload gets a `Serialize` span for
    /// the registry clone; the wire round-trip gets a `phase` span.
    fn forward(
        &self,
        tid: usize,
        node: NodeId,
        buffer: BufferId,
        from: NodeId,
        phase: SpanPhase,
    ) -> OmpcResult<()> {
        let (r, tel) = (&self.run, &self.run.telemetry);
        let (bytes, t0) = if from == HEAD_NODE {
            let t0 = tel.start();
            let data = r.buffers.get(buffer)?;
            let bytes = data.len() as u64;
            task_span(tel, SpanPhase::Serialize, HEAD_NODE, tid, t0, |s| {
                s.bytes(bytes).detail("miss")
            });
            let t0 = tel.start();
            r.events.submit(node, buffer, data)?;
            (bytes, t0)
        } else {
            let t0 = tel.start();
            (r.events.exchange(from, node, buffer)?, t0)
        };
        let (at, detail) = match (phase, from) {
            (SpanPhase::Send, HEAD_NODE) => (HEAD_NODE, None),
            (SpanPhase::Send, _) => (node, Some("worker forward")),
            _ => (node, Some("EnterData")),
        };
        task_span(tel, phase, at, tid, t0, |s| {
            let s = s.bytes(bytes).from(from);
            match detail {
                Some(d) => s.detail(d),
                None => s,
            }
        });
        self.gate.arrived(buffer, node);
        Ok(())
    }

    /// Carry out one step on the task's node.
    fn run_step(
        &self,
        tid: usize,
        step: TaskStep,
        intent: &mut TaskIntent,
        phase: SpanPhase,
    ) -> OmpcResult<()> {
        let (r, node) = (&self.run, intent.node);
        match step {
            TaskStep::RecvFromHead { buffer } => self.forward(tid, node, buffer, HEAD_NODE, phase),
            TaskStep::RecvFromWorker { buffer, from } => {
                self.forward(tid, node, buffer, from, phase)
            }
            TaskStep::AwaitLocal { buffer, .. } => self.await_local(tid, buffer, intent, phase),
            TaskStep::Alloc { buffer, size } => r.events.alloc(node, buffer, size as usize),
            TaskStep::Delete { buffer } => r.events.delete(node, buffer),
            TaskStep::Execute { kernel, buffers } => {
                let timed = r.telemetry.spans_enabled();
                let stamps = r.events.execute_timed(node, kernel, buffers, timed)?;
                record_worker_stamps(&r.telemetry, node, tid, stamps);
                Ok(())
            }
        }
    }

    /// Block until `buffer` is readable on the task's node: on the gate
    /// when a co-scheduled task owns its forward, on the data manager when
    /// an async enter-data or prefetch booked it. A booking rolled back
    /// with its error already consumed falls back to a forward of our own.
    fn await_local(
        &self,
        tid: usize,
        buffer: BufferId,
        intent: &mut TaskIntent,
        phase: SpanPhase,
    ) -> OmpcResult<()> {
        let (r, node) = (&self.run, intent.node);
        if self.gate.transfers.lock().contains_key(&(buffer.0, node)) {
            return self.gate.wait_until_present(buffer, node);
        }
        if self.await_device_inflight(buffer, node, tid)? {
            return Ok(());
        }
        let reason = if phase == SpanPhase::EnterData {
            TransferReason::EnterData
        } else {
            TransferReason::Input
        };
        let forward = {
            let mut gate = self.gate.transfers.lock();
            let step = r.forward_step(&mut r.dm.lock(), buffer, node, reason)?;
            if step.is_some() {
                gate.insert((buffer.0, node), TransferState::InFlight);
                intent.owned.push(buffer);
            }
            step.as_ref().and_then(forward_of)
        };
        match forward {
            Some((buffer, from)) => self.forward(tid, node, buffer, from, phase),
            None => Ok(()),
        }
    }

    /// Block until a device-level asynchronous transfer of `buffer` towards
    /// `node` (booked in the data manager's in-flight table by an async
    /// enter-data or cross-region prefetch) resolves, recording an
    /// `AwaitInflight` span for the blocked time. Returns `Ok(true)` when
    /// the copy is resident, `Ok(false)` when the booking was rolled back
    /// with no stored error (e.g. another waiter already consumed it), and
    /// the transfer's own error if it failed.
    fn await_device_inflight(
        &self,
        buffer: BufferId,
        node: NodeId,
        task: usize,
    ) -> OmpcResult<bool> {
        use crate::data_manager::TransferState as DmState;
        let tel = &self.run.telemetry;
        let t0 = tel.start();
        let outcome = {
            let mut dm = self.run.dm.lock();
            loop {
                match dm.transfer_state(buffer, node) {
                    DmState::Resident => break Ok(true),
                    DmState::InFlight(_) => self.inflight_cv.wait(&mut dm),
                    DmState::Invalid => match dm.take_inflight_error(buffer, node) {
                        Some(error) => break Err(error),
                        None => break Ok(false),
                    },
                }
            }
        };
        if tel.spans_enabled() {
            tel.record(
                Span::new(SpanPhase::AwaitInflight, node, t0, monotonic_us())
                    .task(task)
                    .attempt(tel.attempt(task))
                    .detail("first reader awaits async transfer"),
            );
        }
        outcome
    }
}

/// One unit of work submitted to the long-lived pool. Region tasks and the
/// device's asynchronous data-path jobs (async enter-data, cross-region
/// prefetch, double-buffered flushes) are both just closures; a task job
/// carries its own `catch_unwind` + completion send inside the closure so
/// the driver always receives exactly one outcome per launch.
struct PoolJob(Box<dyn FnOnce() + Send>);

/// Body of one head pool thread: run jobs until the channel closes (device
/// shutdown).
fn pool_thread_main(rx: Receiver<PoolJob>) {
    while let Ok(PoolJob(body)) = rx.recv() {
        // A panicking job (e.g. a debug assertion in the data layer) must
        // not take the pool thread down with it — the pool would silently
        // run one thread short.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    }
}

struct PoolState {
    /// `None` once the pool has been drained; submissions fail from then on.
    job_tx: Option<Sender<PoolJob>>,
    /// Kept only to clone into newly spawned threads.
    job_rx: Receiver<PoolJob>,
    handles: Vec<JoinHandle<()>>,
}

/// The long-lived head worker pool, owned by
/// [`crate::cluster::ClusterDevice`] and shared by every region execution
/// of the device's lifetime.
///
/// Threads are spawned lazily: each region asks for
/// `min(head_worker_threads, window, tasks)` threads and the pool grows to
/// the largest such request seen so far — a small region never pays for 48
/// idle threads, and repeated region executions never re-spawn a pool. On
/// [`HeadWorkerPool::drain`] (device shutdown / drop) the job channel
/// closes, in-flight jobs finish, and every thread is joined.
pub struct HeadWorkerPool {
    state: Mutex<PoolState>,
}

impl Default for HeadWorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl HeadWorkerPool {
    /// Create an empty pool; threads are spawned on first use and live for
    /// the pool's lifetime.
    pub fn new() -> Self {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<PoolJob>();
        Self { state: Mutex::new(PoolState { job_tx: Some(job_tx), job_rx, handles: Vec::new() }) }
    }

    /// Number of threads the pool has spawned (all alive until
    /// [`HeadWorkerPool::drain`]).
    pub fn threads(&self) -> usize {
        self.state.lock().handles.len()
    }

    /// Grow the pool to at least `needed` threads (no-op when already
    /// large enough or after [`HeadWorkerPool::drain`]).
    fn ensure_threads(&self, needed: usize) {
        let mut state = self.state.lock();
        if state.job_tx.is_none() {
            return;
        }
        while state.handles.len() < needed {
            let rx = state.job_rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ompc-head-{}", state.handles.len()))
                .spawn(move || pool_thread_main(rx))
                .expect("failed to spawn head worker thread");
            state.handles.push(handle);
        }
    }

    /// Submit one closure job; fails if the pool has been drained. A pool
    /// no region ever sized (the device's transfer pool) gets one thread on
    /// first use, so the job cannot strand in the queue.
    pub(crate) fn submit_closure(&self, body: Box<dyn FnOnce() + Send>) -> OmpcResult<()> {
        let tx =
            self.state.lock().job_tx.clone().ok_or_else(|| {
                OmpcError::Internal("head worker pool already drained".to_string())
            })?;
        tx.send(PoolJob(body))
            .map_err(|_| OmpcError::Internal("head worker pool terminated early".to_string()))?;
        self.ensure_threads(1);
        Ok(())
    }

    /// Close the job channel, let in-flight jobs finish, and join every
    /// thread. Idempotent; called on device shutdown.
    pub fn drain(&self) {
        let (tx, handles) = {
            let mut state = self.state.lock();
            (state.job_tx.take(), std::mem::take(&mut state.handles))
        };
        drop(tx);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for HeadWorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Executes a region graph on the real (threaded) cluster through the
/// device's long-lived [`HeadWorkerPool`].
pub struct ThreadedBackend<'a> {
    ctx: Arc<RegionContext>,
    pool: &'a HeadWorkerPool,
}

impl<'a> ThreadedBackend<'a> {
    /// Build a backend over the device's pool for one region execution.
    pub(crate) fn new(
        pool: &'a HeadWorkerPool,
        run: RegionRun,
        inflight_cv: Arc<parking_lot::Condvar>,
    ) -> Self {
        Self {
            ctx: Arc::new(RegionContext {
                run,
                gate: TransferGate::default(),
                inflight_cv,
                cancelled: AtomicBool::new(false),
            }),
            pool,
        }
    }

    /// Whether the pool's cancellation flag tripped (a task failed on a
    /// live node while others were still queued).
    pub fn was_cancelled(&self) -> bool {
        self.ctx.cancelled.load(Ordering::SeqCst)
    }

    /// Drive `core` to completion: size the long-lived pool for this
    /// region, feed it the tasks the core dispatches, and report typed
    /// completion events back. After the run (successful or not) every
    /// outstanding job is drained so no stale work bleeds into the next
    /// region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        let run = &self.ctx.run;
        run.config.fault_plan.validate_task_errors(run.graph.len())?;
        let threads =
            run.config.head_worker_threads.max(1).min(core.window()).min(run.graph.len()).max(1);
        self.pool.ensure_threads(threads);
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<(usize, OmpcResult<()>)>();
        let mut driver = HeadPool {
            ctx: &self.ctx,
            pool: self.pool,
            done_tx,
            done_rx,
            outstanding: 0,
            cancelled_held: Vec::new(),
            root_cause_reported: false,
        };
        let result = core.execute(&mut driver);
        if result.is_err() {
            // Fast-fail everything still queued in the pool, then wait for
            // the stragglers so no side effect lands after we return.
            self.ctx.cancelled.store(true, Ordering::SeqCst);
        }
        driver.drain_outstanding();
        result
    }
}

/// The [`ExecutionBackend`] face of the head worker pool: `launch` enqueues
/// a task for the pool, `await_completions` blocks on the next outcome and
/// drains any others that arrived in the meantime. It also carries the
/// fault-tolerance hooks, which act on the backend's shared data manager
/// and kill the affected worker's event loop for real.
struct HeadPool<'p> {
    ctx: &'p Arc<RegionContext>,
    pool: &'p HeadWorkerPool,
    done_tx: Sender<(usize, OmpcResult<()>)>,
    done_rx: Receiver<(usize, OmpcResult<()>)>,
    /// Jobs launched but not yet reported back, so a failed run can drain
    /// the pool before returning.
    outstanding: usize,
    /// Tasks skipped by the cancellation flag whose synthetic error has
    /// been received but not yet reported to the core. They are released
    /// (as failures) only once the root-cause failure has been reported,
    /// so a synthetic error can never mask the real one — and never
    /// silently vanish, which would strand the task in flight.
    cancelled_held: Vec<(usize, OmpcError)>,
    /// Whether a real (non-synthetic) task failure has been reported to
    /// the core since the run started.
    root_cause_reported: bool,
}

impl HeadPool<'_> {
    /// Wait for every launched job to report back (used after a failed run;
    /// on a successful run nothing is outstanding).
    fn drain_outstanding(&mut self) {
        while self.outstanding > 0 {
            match self.done_rx.recv() {
                Ok(_) => self.outstanding -= 1,
                Err(_) => break,
            }
        }
    }
}

impl ExecutionBackend for HeadPool<'_> {
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        self.outstanding += 1;
        let ctx = Arc::clone(self.ctx);
        let done = self.done_tx.clone();
        self.pool.submit_closure(Box::new(move || {
            // A panic must still produce an outcome, or the driver would
            // wait for this job forever.
            let res =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.run(task, node)))
                    .unwrap_or_else(|_| {
                        Err(OmpcError::Internal(format!(
                            "head pool thread panicked while executing task {task}"
                        )))
                    });
            // The driver may already have gone away (the run failed); the
            // outcome is then irrelevant.
            let _ = done.send((task, res));
        }))
    }

    /// Outcomes are forwarded to the core as typed [`TaskEvent`]s: the core
    /// owns the propagate-vs-restart policy. A synthetic cancellation
    /// error can race ahead of the failure that tripped the flag, so it is
    /// held back until the root-cause failure has been reported — the
    /// failing task's thread is guaranteed to report it after setting the
    /// flag — and only then released as a failure of its own, ordered
    /// after the root cause. It is never dropped: every launched task
    /// produces exactly one event, so the core can never be left waiting
    /// for a task the pool silently skipped (e.g. when the root cause
    /// turns out to be stale and the run continues).
    fn await_completions(&mut self) -> OmpcResult<Vec<TaskEvent>> {
        let mut events = Vec::new();
        loop {
            // Block only while there is nothing to report: a synthetic
            // cancellation alone is not reportable yet (it would mask the
            // root cause), so it keeps the loop blocking until the real
            // failure arrives; once any real event is in hand, drain
            // without blocking and let the core decide.
            let received = if events.is_empty() {
                match self.done_rx.recv() {
                    Ok(pair) => pair,
                    Err(_) => {
                        return Err(OmpcError::Internal(
                            "head worker pool disappeared".to_string(),
                        ));
                    }
                }
            } else {
                match self.done_rx.try_recv() {
                    Ok(pair) => pair,
                    Err(_) => break,
                }
            };
            self.outstanding -= 1;
            let (task, result) = received;
            match result {
                Ok(()) => events.push(TaskEvent::Completed(task)),
                Err(e) if matches!(&e, OmpcError::Internal(m) if m == CANCELLED_MSG) => {
                    if self.root_cause_reported {
                        // The root cause already reached the core in an
                        // earlier batch; this synthetic is immediately
                        // reportable (holding it could block forever if
                        // every remaining task is cancelled).
                        events.push(TaskEvent::Failed { task, error: e });
                    } else {
                        self.cancelled_held.push((task, e));
                    }
                }
                Err(error) => {
                    self.root_cause_reported = true;
                    events.push(TaskEvent::Failed { task, error });
                }
            }
        }
        // With the root cause on its way to the core, the held synthetic
        // failures are reportable: ordered after it, they can no longer
        // mask it. If the core classifies the root cause as stale and
        // keeps running, these propagate instead of hanging the dispatch
        // loop on tasks the pool never executed.
        if self.root_cause_reported {
            for (task, error) in self.cancelled_held.drain(..) {
                events.push(TaskEvent::Failed { task, error });
            }
        }
        Ok(events)
    }

    fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
        self.ctx.run.invalidate_node(node)
    }

    fn replan(&mut self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        self.ctx.run.replan(alive_workers)
    }
}

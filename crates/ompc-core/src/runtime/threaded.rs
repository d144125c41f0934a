//! The threaded execution backend: real worker-node threads driven through
//! the `ompc-mpi` event system.
//!
//! Tasks are executed by a **long-lived pool of head worker threads** (the
//! analogue of libomptarget's hidden helper threads) owned by
//! [`crate::cluster::ClusterDevice`] — see [`HeadWorkerPool`]. The pool is
//! created lazily, sized `min(head_worker_threads, window, tasks)` for the
//! largest region seen so far, reused across region executions, and drained
//! when the device shuts down; per-region spawn/join churn is gone.
//! [`RuntimeCore`] decides *which* task is dispatched *when* — bounded by
//! the configured in-flight window — and the pool performs each task's data
//! movement and kernel execution: input forwarding planned by the
//! [`DataManager`], worker-to-worker exchanges, kernel execution events, and
//! write-invalidation. Because the window is a property of the core rather
//! than of the pool, more tasks can be in flight than there are blocked
//! threads, which is exactly the pipelined dispatch the paper proposes as
//! the fix for its §7 bottleneck.
//!
//! Every event a pool thread issues produces a typed reply
//! ([`crate::protocol::EventReply`]): worker-side handler failures come back
//! as [`OmpcError::RemoteEvent`] values naming the origin node and event,
//! and are threaded through the core's completion stream as
//! [`TaskEvent::Failed`] — the core propagates genuine errors and restarts
//! tasks whose failure is collateral damage of an injected node death.
//!
//! Fault tolerance (paper §3.1): when the failure injector kills a node,
//! the backend kills the worker's event loop **for real** — the node stops
//! executing events and refuses every later one with an error reply — and
//! the [`DataManager`] excommunicates it. A genuine task failure on a live
//! node trips the pool's cancellation flag so tasks already queued behind
//! it stop executing before the error propagates.

use super::fault::LostBuffer;
use super::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use super::{ExecutionBackend, RuntimeCore, RuntimePlan, TaskEvent};
use crate::buffer::BufferRegistry;
use crate::cluster::HostFn;
use crate::config::OmpcConfig;
use crate::data_manager::{DataManager, TransferPlan, HEAD_NODE};
use crate::event::EventSystem;
use crate::task::{RegionGraph, TaskKind};
use crate::types::{BufferId, KernelId, MapType, NodeId, OmpcError, OmpcResult, TaskId};
use crossbeam::channel::{Receiver, Sender};
use ompc_sched::Platform;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message of the synthetic error reported for tasks skipped by the
/// cancellation flag; the pool driver recognizes it so it never masks the
/// root-cause error of the task that actually failed.
const CANCELLED_MSG: &str = "cancelled after an earlier task failure";

/// The kernel id injected task errors execute against: guaranteed to be
/// unregistered, so the worker's handler genuinely fails and the error
/// travels back through the event-reply channel.
pub(crate) const POISONED_KERNEL: KernelId = KernelId(usize::MAX);

#[derive(Debug, Clone)]
enum TransferState {
    InFlight,
    /// The transfer failed with this error; waiters receive a clone, so a
    /// failure caused by a killed source keeps its node attribution.
    Failed(OmpcError),
}

/// Tracks `(buffer, node)` input transfers that have been *planned* (the
/// data manager optimistically records the destination as a holder) but have
/// not yet completed on the wire. A concurrent reader of the same buffer on
/// the same node gets `plan_input == None` and must wait here instead of
/// executing against memory that has not arrived yet; if the transfer fails,
/// waiters get the transfer's error instead of silently computing on
/// missing data.
#[derive(Default)]
struct TransferGate {
    transfers: Mutex<HashMap<(u64, NodeId), TransferState>>,
    done: parking_lot::Condvar,
}

impl TransferGate {
    fn finish(&self, buffer: BufferId, node: NodeId, outcome: Result<(), OmpcError>) {
        {
            let mut transfers = self.transfers.lock();
            match outcome {
                Ok(()) => {
                    transfers.remove(&(buffer.0, node));
                }
                Err(error) => {
                    transfers.insert((buffer.0, node), TransferState::Failed(error));
                }
            }
        }
        self.done.notify_all();
    }

    /// Block until the transfer of `buffer` to `node` has landed; error out
    /// (with the transfer's own error) if it failed.
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
/// device's communication machinery plus the per-region graph, host tasks,
/// transfer gate, and cancellation flag. Shared with the long-lived pool
/// through an `Arc`, which is what lets the pool outlive any single region
/// execution.
pub(crate) struct RegionContext {
    events: Arc<EventSystem>,
    buffers: Arc<BufferRegistry>,
    dm: Arc<Mutex<DataManager>>,
    /// The region epoch this execution runs under: every transfer the
    /// backend plans or records lands in this namespace of the shared
    /// [`DataManager`] transfer log, so concurrently admitted regions never
    /// interleave records.
    region: u64,
    graph: Arc<RegionGraph>,
    host_fns: HashMap<usize, HostFn>,
    config: OmpcConfig,
    serial_inputs: bool,
    telemetry: Arc<Telemetry>,
    transfers: TransferGate,
    /// The device-wide condvar paired with `dm`'s mutex: notified whenever
    /// an asynchronous data-path job (async enter-data, cross-region
    /// prefetch, lazy flush) resolves an in-flight entry in the
    /// [`DataManager`]. First readers of in-flight data block here instead
    /// of re-submitting the transfer.
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
            let dm = self.dm.lock();
            let own_node_dead = node != HEAD_NODE && dm.is_failed(node);
            let blamed_dead = error.origin_node().is_some_and(|n| dm.is_failed(n));
            if !own_node_dead && !blamed_dead {
                self.cancelled.store(true, Ordering::SeqCst);
            }
        }
        res
    }

    /// Carry out one planned input forward and resolve its gate entry.
    /// Records a `Serialize` span for the host-side payload clone and a
    /// `Send` span for the wire round-trip, attributed to `task`.
    fn perform_transfer(&self, plan: TransferPlan, node: NodeId, task: usize) -> OmpcResult<()> {
        let tel = &self.telemetry;
        let moved = if plan.from == HEAD_NODE {
            let t0 = tel.start();
            let data = self.buffers.get(plan.buffer);
            if tel.spans_enabled() {
                let bytes = data.as_ref().map(|d| d.len() as u64).unwrap_or(0);
                tel.record(
                    Span::new(SpanPhase::Serialize, HEAD_NODE, t0, monotonic_us())
                        .task(task)
                        .attempt(tel.attempt(task))
                        .bytes(bytes)
                        .detail("miss"),
                );
            }
            let t0 = tel.start();
            let bytes = data.as_ref().map(|d| d.len() as u64).unwrap_or(0);
            let sent = data.and_then(|data| self.events.submit(node, plan.buffer, data));
            if sent.is_ok() && tel.spans_enabled() {
                tel.record(
                    Span::new(SpanPhase::Send, HEAD_NODE, t0, monotonic_us())
                        .task(task)
                        .attempt(tel.attempt(task))
                        .bytes(bytes),
                );
            }
            sent
        } else {
            let t0 = tel.start();
            let moved = self.events.exchange(plan.from, node, plan.buffer);
            if tel.spans_enabled() {
                if let Ok(bytes) = &moved {
                    tel.record(
                        Span::new(SpanPhase::Send, node, t0, monotonic_us())
                            .task(task)
                            .attempt(tel.attempt(task))
                            .bytes(*bytes)
                            .from(plan.from)
                            .detail("worker forward"),
                    );
                }
            }
            moved.map(|_| ())
        };
        if moved.is_err() {
            // The bytes never arrived: roll back the holder `plan_input`
            // recorded optimistically so no later reader skips the transfer.
            self.dm.lock().forget_replica(plan.buffer, node);
        }
        self.transfers.finish(plan.buffer, node, moved.clone());
        moved
    }

    /// Record an `EnterData` span for a completed enter-data movement
    /// covering only the wire time (`t0` → now); the head-side payload
    /// build gets its own `Serialize` span at the call site.
    fn record_enter_data(
        &self,
        moved: &OmpcResult<()>,
        tid: usize,
        buffer: BufferId,
        node: NodeId,
        from: NodeId,
        t0: u64,
    ) {
        if moved.is_ok() && self.telemetry.spans_enabled() {
            let bytes = self.buffers.size_of(buffer).unwrap_or(0) as u64;
            self.telemetry.record(
                Span::new(SpanPhase::EnterData, node, t0, monotonic_us())
                    .task(tid)
                    .bytes(bytes)
                    .from(from)
                    .detail("EnterData"),
            );
        }
    }

    /// Block until a device-level asynchronous transfer of `buffer` towards
    /// `node` (booked in the [`DataManager`]'s in-flight table by an async
    /// enter-data or cross-region prefetch) resolves, recording an
    /// `AwaitInflight` span for the blocked time. Returns `Ok(true)` when
    /// the copy is resident, `Ok(false)` when the booking was rolled back
    /// with no stored error (e.g. the destination died and recovery already
    /// consumed the failure) — the caller falls back to a synchronous
    /// forward — and the transfer's own error if it failed.
    fn await_device_inflight(
        &self,
        buffer: BufferId,
        node: NodeId,
        task: usize,
    ) -> OmpcResult<bool> {
        use crate::data_manager::TransferState as DmState;
        let tel = &self.telemetry;
        let t0 = tel.start();
        let outcome = {
            let mut dm = self.dm.lock();
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

    /// Resolve a planned-but-unperformed forward as failed so co-located
    /// waiters error out instead of blocking forever.
    fn abandon_transfer(&self, plan: &TransferPlan, node: NodeId) {
        self.dm.lock().forget_replica(plan.buffer, node);
        self.transfers.finish(
            plan.buffer,
            node,
            Err(OmpcError::Internal(format!(
                "input forwarding of {} to node {node} abandoned after an earlier failure",
                plan.buffer
            ))),
        );
    }

    /// Execute one task: plan and perform its data movement through the
    /// data manager, then run the kernel (or the host body, or the data
    /// movement itself for enter/exit data tasks).
    fn run_task(&self, tid: usize, node: NodeId) -> OmpcResult<()> {
        if node != HEAD_NODE && self.dm.lock().is_failed(node) {
            // The failure injector killed this node: the task becomes a
            // no-op whose completion the core discards as stale and
            // restarts on a survivor.
            return Ok(());
        }
        let task = self.graph.task(TaskId(tid));
        match &task.kind {
            TaskKind::EnterData { buffer, map } => {
                if node == HEAD_NODE {
                    return Ok(());
                }
                match map {
                    MapType::To | MapType::ToFrom | MapType::ToResident => {
                        // Residency-aware distribution: source from the
                        // current latest holder — a submit from the host
                        // for a fresh mapping, a worker-to-worker forward
                        // when the latest version lives on another worker,
                        // and **no transfer at all** when the buffer is
                        // already present on this node (OpenMP present-table
                        // semantics: re-entering mapped data does not copy).
                        //
                        // An async enter-data or cross-region prefetch may
                        // already have the bytes on the wire towards this
                        // node: the first reader awaits that transfer
                        // instead of re-submitting. A rolled-back booking
                        // falls through to the synchronous plan below.
                        if matches!(
                            self.dm.lock().transfer_state(*buffer, node),
                            crate::data_manager::TransferState::InFlight(_)
                        ) {
                            self.await_device_inflight(*buffer, node, tid)?;
                        }
                        let plan = self.dm.lock().plan_input_as_in(
                            self.region,
                            *buffer,
                            node,
                            crate::data_manager::TransferReason::EnterData,
                        )?;
                        if let Some(plan) = plan {
                            let moved = if plan.from == HEAD_NODE {
                                // The host-side payload build is the
                                // serialization cost; only the submit that
                                // follows is wire time, so the two get
                                // separate spans (mirroring the MPI
                                // backend's payload-cache accounting).
                                let t0 = self.telemetry.start();
                                let data = self.buffers.get(*buffer);
                                if self.telemetry.spans_enabled() {
                                    let bytes = data.as_ref().map(|d| d.len() as u64).unwrap_or(0);
                                    self.telemetry.record(
                                        Span::new(
                                            SpanPhase::Serialize,
                                            HEAD_NODE,
                                            t0,
                                            monotonic_us(),
                                        )
                                        .task(tid)
                                        .bytes(bytes)
                                        .detail("miss"),
                                    );
                                }
                                let t0 = self.telemetry.start();
                                let moved =
                                    data.and_then(|data| self.events.submit(node, *buffer, data));
                                self.record_enter_data(&moved, tid, *buffer, node, plan.from, t0);
                                moved
                            } else {
                                let t0 = self.telemetry.start();
                                let moved =
                                    self.events.exchange(plan.from, node, *buffer).map(|_| ());
                                self.record_enter_data(&moved, tid, *buffer, node, plan.from, t0);
                                moved
                            };
                            if moved.is_err() {
                                self.dm.lock().forget_replica(*buffer, node);
                            }
                            moved?;
                        }
                    }
                    MapType::Alloc => {
                        if !self.dm.lock().is_present(*buffer, node) {
                            let size = self.buffers.size_of(*buffer)?;
                            self.events.alloc(node, *buffer, size)?;
                            self.dm.lock().record_replica(*buffer, node);
                        }
                    }
                    MapType::From | MapType::Release => {}
                }
                Ok(())
            }
            TaskKind::Target { kernel, .. } => {
                // Injected task error (fault plan): execute a deliberately
                // unregistered kernel so a genuine worker-side handler
                // error exercises the event-reply path end to end.
                let kernel = if self.config.fault_plan.has_task_error(tid) {
                    POISONED_KERNEL
                } else {
                    *kernel
                };
                let buffer_list: Vec<BufferId> =
                    task.dependences.iter().map(|d| d.buffer).collect();
                // Plan every input forward first, under one gate acquisition
                // per dependence, so a concurrent same-node reader that sees
                // `plan_input == None` (we are already recorded as a holder)
                // is guaranteed to find our in-flight entry to wait on.
                let mut own: Vec<TransferPlan> = Vec::new();
                let mut awaited: Vec<BufferId> = Vec::new();
                let mut inflight: Vec<BufferId> = Vec::new();
                for dep in &task.dependences {
                    if dep.dep_type.reads() {
                        let mut gate = self.transfers.transfers.lock();
                        // Bind the plan before matching: a `match` scrutinee
                        // keeps its temporary `dm` guard alive for every arm,
                        // and the `None` arm locks `dm` again.
                        let plan = self.dm.lock().plan_input_in(self.region, dep.buffer, node);
                        let plan = match plan {
                            Ok(plan) => plan,
                            Err(e) => {
                                // A rejected plan (concurrent first-touch
                                // guard) aborts the task; resolve the
                                // forwards already announced so co-located
                                // waiters error out instead of blocking.
                                drop(gate);
                                for plan in own {
                                    self.abandon_transfer(&plan, node);
                                }
                                return Err(e);
                            }
                        };
                        match plan {
                            Some(plan) => {
                                gate.insert((dep.buffer.0, node), TransferState::InFlight);
                                own.push(plan);
                            }
                            None => {
                                if gate.contains_key(&(dep.buffer.0, node)) {
                                    awaited.push(dep.buffer);
                                } else if matches!(
                                    self.dm.lock().transfer_state(dep.buffer, node),
                                    crate::data_manager::TransferState::InFlight(_)
                                ) {
                                    // `plan_input == None` because an async
                                    // enter-data / prefetch already booked
                                    // this node as a holder: await the wire
                                    // instead of re-submitting.
                                    inflight.push(dep.buffer);
                                }
                            }
                        }
                    }
                }
                // Write-only outputs: make sure storage exists on the
                // executing node. Any failure here must resolve the forwards
                // announced above, or co-located waiters would block forever.
                let allocated: OmpcResult<()> =
                    task.dependences.iter().filter(|dep| !dep.dep_type.reads()).try_for_each(
                        |dep| {
                            let present = self.dm.lock().is_present(dep.buffer, node);
                            if !present {
                                let size = self.buffers.size_of(dep.buffer)?;
                                self.events.alloc(node, dep.buffer, size)?;
                                self.dm.lock().record_replica(dep.buffer, node);
                            }
                            Ok(())
                        },
                    );
                if let Err(e) = allocated {
                    for plan in own {
                        self.abandon_transfer(&plan, node);
                    }
                    return Err(e);
                }
                // Perform our own forwards: overlapped by default (the
                // pipelined dispatch loop), strictly in dependence order
                // when `serial_input_transfers` restores the libomptarget
                // behaviour.
                let moved: OmpcResult<()> = if self.serial_inputs || own.len() <= 1 {
                    let mut result = Ok(());
                    let mut own = own.into_iter();
                    for plan in own.by_ref() {
                        result = self.perform_transfer(plan, node, tid);
                        if result.is_err() {
                            break;
                        }
                    }
                    // Mark any unperformed forwards failed so co-located
                    // waiters error out instead of blocking forever.
                    for plan in own {
                        self.abandon_transfer(&plan, node);
                    }
                    result
                } else {
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = own
                            .into_iter()
                            .map(|plan| scope.spawn(move || self.perform_transfer(plan, node, tid)))
                            .collect();
                        let mut result = Ok(());
                        for handle in handles {
                            let moved = handle.join().expect("input transfer thread panicked");
                            if result.is_ok() {
                                result = moved;
                            }
                        }
                        result
                    })
                };
                moved?;
                // Inputs forwarded by co-located siblings: execute only once
                // their copies have fully arrived.
                for buffer in awaited {
                    self.transfers.wait_until_present(buffer, node)?;
                }
                // Inputs still on the wire from the device's async data
                // path: first use blocks here. A rolled-back booking (the
                // async job abandoned the transfer with its error already
                // consumed) falls back to a synchronous forward, with the
                // same gate discipline as the planning loop above.
                for buffer in inflight {
                    if !self.await_device_inflight(buffer, node, tid)? {
                        let plan = {
                            let mut gate = self.transfers.transfers.lock();
                            let plan = self.dm.lock().plan_input_in(self.region, buffer, node)?;
                            if plan.is_some() {
                                gate.insert((buffer.0, node), TransferState::InFlight);
                            }
                            plan
                        };
                        if let Some(plan) = plan {
                            self.perform_transfer(plan, node, tid)?;
                        }
                    }
                }
                let timed = self.telemetry.spans_enabled();
                let stamps = self.events.execute_timed(node, kernel, buffer_list, timed)?;
                if let Some(s) = stamps {
                    let tel = &self.telemetry;
                    let attempt = tel.attempt(tid);
                    tel.record(
                        Span::new(SpanPhase::WorkerRecv, node, s.recv_us, s.recv_us)
                            .task(tid)
                            .attempt(attempt),
                    );
                    tel.record(
                        Span::new(SpanPhase::WorkerAwait, node, s.recv_us, s.deps_us)
                            .task(tid)
                            .attempt(attempt),
                    );
                    tel.record(
                        Span::new(SpanPhase::Compute, node, s.exec_start_us, s.exec_end_us)
                            .task(tid)
                            .attempt(attempt),
                    );
                }
                for dep in &task.dependences {
                    if dep.dep_type.writes() {
                        let stale = self.dm.lock().record_write(dep.buffer, node);
                        for stale_node in stale {
                            if stale_node != HEAD_NODE && !self.dm.lock().is_failed(stale_node) {
                                self.events.delete(stale_node, dep.buffer)?;
                            }
                        }
                    }
                }
                Ok(())
            }
            TaskKind::ExitData { buffer, map } => {
                let mut keep_resident = false;
                if map.copies_from_device() {
                    let (from, pinned_holds_data, any_failures) = {
                        let dm = self.dm.lock();
                        keep_resident = dm.is_resident(*buffer);
                        let present = dm.is_present(*buffer, node);
                        (dm.retrieve_source(*buffer), present, dm.has_failures())
                    };
                    if let Some(from) = from {
                        // §4.4 consistency: the exit task is pinned to its
                        // last target producer, so in a failure-free run the
                        // assignment record must agree with the data
                        // manager's holder — the retrieval source is the
                        // pinned node (or the pinned node at least holds the
                        // latest version it read).
                        debug_assert!(
                            any_failures || from == node || pinned_holds_data,
                            "exit-data task pinned to node {node} but the latest copy of \
                             {buffer} is only on node {from}"
                        );
                        // Nothing is committed until the bytes land: a
                        // failed retrieval leaves the location state
                        // truthful, so recovery re-sources and retries.
                        let t0 = self.telemetry.start();
                        let data = self.events.retrieve(from, *buffer)?;
                        let bytes = data.len() as u64;
                        self.buffers.set(*buffer, data)?;
                        {
                            let mut dm = self.dm.lock();
                            // A kernel may have resized the device copy; the
                            // observed size keeps this and later transfer-log
                            // entries truthful.
                            dm.observe_size(*buffer, bytes);
                            dm.record_retrieve_in(self.region, *buffer);
                        }
                        if self.telemetry.spans_enabled() {
                            self.telemetry.record(
                                Span::new(SpanPhase::ExitData, HEAD_NODE, t0, monotonic_us())
                                    .task(tid)
                                    .bytes(bytes)
                                    .from(from)
                                    .detail("ExitData"),
                            );
                        }
                    }
                }
                if keep_resident {
                    // `map(from:)` on a keep-resident buffer is a flush:
                    // the host copy is now current, the device copies stay
                    // mapped for later regions.
                    Ok(())
                } else {
                    // Otherwise exit data releases the device copies.
                    super::release_device_copies(&self.dm, &self.events, *buffer)
                }
            }
            TaskKind::Host { .. } => {
                // A host task reads through the head's buffer registry, so
                // every read buffer whose latest version lives on a worker
                // is flushed home first — the host-side analogue of the
                // input transfers a target task plans. Graph dependences
                // order this after the producing task's completion.
                for dep in &task.dependences {
                    if !dep.dep_type.reads() {
                        continue;
                    }
                    let from = {
                        let dm = self.dm.lock();
                        // A host-only buffer (never mapped to the device)
                        // has no residency entry and nothing to flush.
                        if !dm.is_registered(dep.buffer) {
                            continue;
                        }
                        dm.retrieve_source(dep.buffer)
                    };
                    if let Some(from) = from {
                        let t0 = self.telemetry.start();
                        let data = self.events.retrieve(from, dep.buffer)?;
                        let bytes = data.len() as u64;
                        self.buffers.set(dep.buffer, data)?;
                        {
                            let mut dm = self.dm.lock();
                            dm.observe_size(dep.buffer, bytes);
                            dm.record_retrieve_in(self.region, dep.buffer);
                        }
                        if self.telemetry.spans_enabled() {
                            self.telemetry.record(
                                Span::new(SpanPhase::HostFlush, HEAD_NODE, t0, monotonic_us())
                                    .task(tid)
                                    .bytes(bytes)
                                    .from(from)
                                    .detail("host task input"),
                            );
                        }
                    }
                }
                if let Some(f) = self.host_fns.get(&tid) {
                    f(&self.buffers);
                }
                Ok(())
            }
        }
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
    /// Build a backend over the device's communication machinery and pool
    /// for one region execution.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pool: &'a HeadWorkerPool,
        events: Arc<EventSystem>,
        buffers: Arc<BufferRegistry>,
        dm: Arc<Mutex<DataManager>>,
        region: u64,
        graph: Arc<RegionGraph>,
        host_fns: HashMap<usize, HostFn>,
        config: &OmpcConfig,
        telemetry: Arc<Telemetry>,
        inflight_cv: Arc<parking_lot::Condvar>,
    ) -> Self {
        Self {
            ctx: Arc::new(RegionContext {
                events,
                buffers,
                dm,
                region,
                graph,
                host_fns,
                serial_inputs: config.serial_input_transfers,
                config: config.clone(),
                telemetry,
                transfers: TransferGate::default(),
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
        self.ctx.config.fault_plan.validate_task_errors(self.ctx.graph.len())?;
        let threads = self
            .ctx
            .config
            .head_worker_threads
            .max(1)
            .min(core.window())
            .min(self.ctx.graph.len())
            .max(1);
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
        let lost = self.ctx.dm.lock().fail_node(node);
        // Kill the worker's event loop for real: from now on the node
        // refuses every event with an error reply instead of executing it,
        // so peers observe the death instead of hanging — and no further
        // effects can land there.
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

//! The worker-node runtime: device memory, the gate thread, and the event
//! handler pool (the destination side of the event system, paper §4.2).
//!
//! Every event ends in exactly one typed reply
//! ([`crate::protocol::EventReply`]) on the event's exclusive channel:
//! `Ok(payload)` on success or `Err` carrying the originating node and
//! event tag when the handler failed — the head node never blocks on an
//! event whose handler errored. A [`EventRequest::Kill`] (failure
//! injection) kills the event loop for real: the node stops executing
//! events and refuses every later one with an error reply until the final
//! [`EventRequest::Shutdown`].

use crate::kernel::{KernelArgs, KernelRegistry};
use crate::protocol::{
    decode_relay_frame, encode_relay_frame, relay_frame_count, CompletionNotice, EventNotification,
    EventReply, EventRequest, RelayChild, TaskStamps, COMPLETION_TAG, CONTROL_TAG, PREFETCH_TAG,
};
use crate::runtime::telemetry::monotonic_us;
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Communicator, Tag};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The head node's rank in the world communicator.
const HEAD_RANK: usize = 0;

/// Upper bound on any single wait for the next frame of a collective
/// payload stream. The head's rescue machinery re-sources an orphaned
/// recipient long before this fires (it reacts to the dead relay's typed
/// refusal); the bound is the last line of defence turning a frame that can
/// never arrive into a typed error instead of a hang.
const RELAY_FRAME_TIMEOUT_MS: u64 = 60_000;

/// A worker node's local buffer storage (its "device memory").
#[derive(Debug, Default)]
pub struct DeviceMemory {
    buffers: Mutex<HashMap<u64, Vec<u8>>>,
    /// Signalled on every store, so a composite task's `AwaitLocal` step
    /// can wait for a buffer a co-scheduled task is transferring in.
    arrival: parking_lot::Condvar,
}

impl DeviceMemory {
    /// Create empty device memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store (or overwrite) the contents of a buffer.
    pub fn store(&self, id: BufferId, data: Vec<u8>) {
        self.buffers.lock().insert(id.0, data);
        self.arrival.notify_all();
    }

    /// Block until the buffer is locally present, up to `timeout`. Returns
    /// whether the buffer arrived — `false` means the co-scheduled task
    /// that owned the transfer never stored it (it failed or its node
    /// died), and the caller must error out instead of computing on
    /// missing data.
    pub fn wait_for(&self, id: BufferId, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut buffers = self.buffers.lock();
        loop {
            if buffers.contains_key(&id.0) {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.arrival.wait_for(&mut buffers, deadline - now);
        }
    }

    /// Clone the contents of a buffer.
    pub fn get(&self, id: BufferId) -> Option<Vec<u8>> {
        self.buffers.lock().get(&id.0).cloned()
    }

    /// Remove a buffer, returning whether it was present.
    pub fn remove(&self, id: BufferId) -> bool {
        self.buffers.lock().remove(&id.0).is_some()
    }

    /// Whether the buffer is present.
    pub fn contains(&self, id: BufferId) -> bool {
        self.buffers.lock().contains_key(&id.0)
    }

    /// Number of resident buffers.
    pub fn len(&self) -> usize {
        self.buffers.lock().len()
    }

    /// Whether no buffers are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident buffer (warm-worker recycling between device
    /// lifetimes).
    pub fn clear(&self) {
        self.buffers.lock().clear();
        self.arrival.notify_all();
    }
}

/// Wrap a handler error as a [`OmpcError::RemoteEvent`] naming this node
/// and event, unless it already carries an origin (a forwarded remote
/// error keeps its original attribution).
fn as_remote(node: NodeId, tag: Tag, error: OmpcError) -> OmpcError {
    match error {
        already @ OmpcError::RemoteEvent { .. } => already,
        error => OmpcError::RemoteEvent { node, event: tag.0, error: Box::new(error) },
    }
}

/// Compute the outcome (reply payload or error) of one head-replying event.
///
/// `recv_us` is the handler-entry timestamp when the head asked for a timed
/// reply (`notification.timed`), `None` otherwise — no clock is read for
/// untimed events. Execute/Task events return the captured [`TaskStamps`]
/// alongside their payload so the caller can reply `OkTimed`.
fn event_outcome(
    channel: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    request: EventRequest,
    tag: Tag,
    recv_us: Option<u64>,
) -> OmpcResult<(Vec<u8>, Option<TaskStamps>)> {
    match request {
        EventRequest::Alloc { buffer, size } => {
            memory.store(buffer, vec![0u8; size as usize]);
            Ok((Vec::new(), None))
        }
        EventRequest::Delete { buffer } => {
            memory.remove(buffer);
            Ok((Vec::new(), None))
        }
        EventRequest::Submit { buffer } => {
            let msg = channel.recv(Some(HEAD_RANK), Some(tag))?;
            memory.store(buffer, msg.data);
            Ok((Vec::new(), None))
        }
        EventRequest::Retrieve { buffer } => {
            memory.get(buffer).map(|d| (d, None)).ok_or(OmpcError::UnknownBuffer(buffer))
        }
        EventRequest::ExchangeRecv { buffer, from } => {
            // The sending half transmits a reply envelope: the data on
            // success, its error otherwise — which we forward to the head
            // (with the sender's attribution) instead of acknowledging.
            let msg = channel.recv(Some(from), Some(tag))?;
            let data = EventReply::decode(&msg.data)?.into_result()?;
            let bytes = (data.len() as u64).to_le_bytes().to_vec();
            memory.store(buffer, data);
            Ok((bytes, None))
        }
        EventRequest::Execute { kernel, buffers } => {
            let exec_start = recv_us.map(|_| monotonic_us());
            execute_kernel(memory, kernels, kernel, &buffers)?;
            let stamps = recv_us.map(|recv_us| {
                let start = exec_start.unwrap_or(recv_us);
                TaskStamps {
                    recv_us,
                    deps_us: start,
                    exec_start_us: start,
                    exec_end_us: monotonic_us(),
                }
            });
            Ok((Vec::new(), stamps))
        }
        EventRequest::Task(spec) => {
            let stamps = run_task_steps(channel, memory, kernels, spec, tag, recv_us)?;
            Ok((Vec::new(), stamps))
        }
        EventRequest::Reset => {
            memory.clear();
            Ok((Vec::new(), None))
        }
        EventRequest::ExchangeSend { .. }
        | EventRequest::SubmitTrain { .. }
        | EventRequest::RelayRecv { .. }
        | EventRequest::RelayFeed { .. }
        | EventRequest::Shutdown
        | EventRequest::Kill => {
            unreachable!("not a single-reply head event")
        }
    }
}

/// Stream `data` to every listed child as `[frame index u64][payload]`
/// frames on each child's own relay channel. Frames go out breadth-first —
/// frame `i` reaches every child before frame `i + 1` is serialized — so
/// the whole tree's pipelines fill together. Used by the feeding half of a
/// worker-sourced broadcast ([`EventRequest::RelayFeed`]) and by the head
/// node when it is itself the tree source.
pub(crate) fn send_relay_frames(
    comm: &Communicator,
    data: &[u8],
    chunk_bytes: u64,
    children: &[RelayChild],
) -> OmpcResult<()> {
    let frames = relay_frame_count(data.len() as u64, chunk_bytes);
    for index in 0..frames {
        let payload = if chunk_bytes == 0 {
            data
        } else {
            let start = (index * chunk_bytes) as usize;
            let end = (start + chunk_bytes as usize).min(data.len());
            &data[start..end]
        };
        let frame = encode_relay_frame(index, payload);
        for child in children {
            comm.on(child.comm)?.send(child.node, child.tag, frame.clone())?;
        }
    }
    Ok(())
}

/// Receive one buffer as collective payload frames and relay each frame
/// onward: frames are accepted **from any source** (planned parent or a
/// rescue feeder), written once, and forwarded once to every child the
/// moment they first arrive — so this node fans frame `i` onward while
/// frame `i + 1` is still inbound. Duplicate frames (normal during
/// re-sourcing, when a rescue feeder replays the whole stream) are ignored.
#[allow(clippy::too_many_arguments)]
fn relay_recv_frames(
    comm: &Communicator,
    channel: &Communicator,
    memory: &DeviceMemory,
    buffer: BufferId,
    total_bytes: u64,
    chunk_bytes: u64,
    children: &[RelayChild],
    tag: Tag,
) -> OmpcResult<()> {
    let frames = relay_frame_count(total_bytes, chunk_bytes) as usize;
    let mut data = vec![0u8; total_bytes as usize];
    let mut seen = vec![false; frames];
    let mut remaining = frames;
    while remaining > 0 {
        let msg = channel
            .recv_timeout(None, Some(tag), std::time::Duration::from_millis(RELAY_FRAME_TIMEOUT_MS))
            .map_err(|e| {
                OmpcError::Communication(format!("waiting for a collective frame of {buffer}: {e}"))
            })?;
        let (index, payload) = decode_relay_frame(&msg.data)?;
        let index = index as usize;
        if index >= frames {
            return Err(OmpcError::Internal(format!(
                "collective frame index {index} out of range for {frames} frames of {buffer}"
            )));
        }
        if seen[index] {
            continue;
        }
        let offset = if chunk_bytes == 0 { 0 } else { index * chunk_bytes as usize };
        let expected = if chunk_bytes == 0 {
            total_bytes as usize
        } else {
            (total_bytes as usize - offset).min(chunk_bytes as usize)
        };
        if payload.len() != expected {
            return Err(OmpcError::Internal(format!(
                "collective frame {index} of {buffer} carried {} bytes, expected {expected}",
                payload.len()
            )));
        }
        data[offset..offset + payload.len()].copy_from_slice(&payload);
        seen[index] = true;
        remaining -= 1;
        for child in children {
            comm.on(child.comm)?.send(child.node, child.tag, msg.data.clone())?;
        }
    }
    memory.store(buffer, data);
    Ok(())
}

/// Post a compact completion notice for a finished (or refused) composite
/// task to the head's any-source completion channel. Sent strictly *after*
/// the task's typed reply: sends are eager, so by the time the head drains
/// the notice the reply is already in its mailbox.
fn post_completion(comm: &Communicator, tag: Tag, ok: bool) {
    let notice = CompletionNotice { tag, ok };
    let _ = comm.send(HEAD_RANK, COMPLETION_TAG, notice.encode());
}

/// Post the single prefetch notice of a [`EventRequest::SubmitTrain`] on
/// the head's any-source prefetch channel. Sent in both the handler and the
/// zombie-refusal paths, so the head can always drain exactly one notice
/// per train after its reply arrives.
fn post_prefetch_notice(comm: &Communicator, tag: Tag, ok: bool) {
    let notice = CompletionNotice { tag, ok };
    let _ = comm.send(HEAD_RANK, PREFETCH_TAG, notice.encode());
}

/// Run `kernel` against the node's device copies of `buffers`.
fn execute_kernel(
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    kernel: crate::types::KernelId,
    buffers: &[BufferId],
) -> OmpcResult<()> {
    let k = kernels.get(kernel).ok_or(OmpcError::UnknownKernel(kernel))?;
    // Work on private copies so concurrent read-only forwards of the
    // same buffers keep seeing a consistent resident version; the
    // dependence graph already serializes writers.
    let mut copies: Vec<(BufferId, Vec<u8>)> =
        buffers.iter().map(|&b| (b, memory.get(b).unwrap_or_default())).collect();
    {
        let mut args = KernelArgs::new(copies.iter_mut().map(|(id, data)| (*id, data)).collect());
        k.execute(&mut args);
    }
    for (id, data) in copies {
        memory.store(id, data);
    }
    Ok(())
}

/// Execute the steps of a composite [`EventRequest::Task`] in order. The
/// first failing step aborts the task; the caller replies with the error.
///
/// With `recv_us` set (the head asked for a timed reply), the worker stamps
/// the moment the data steps finished (`deps_us` — everything before it is
/// dependency/transfer wait) and the kernel-execution window; without it no
/// clock is ever read.
fn run_task_steps(
    channel: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    spec: crate::protocol::TaskSpec,
    tag: Tag,
    recv_us: Option<u64>,
) -> OmpcResult<Option<TaskStamps>> {
    use crate::protocol::TaskStep;
    let mut stamps = recv_us.map(|recv_us| TaskStamps {
        recv_us,
        deps_us: recv_us,
        exec_start_us: recv_us,
        exec_end_us: recv_us,
    });
    for step in spec.steps {
        match step {
            TaskStep::RecvFromHead { buffer } => {
                let msg = channel.recv(Some(HEAD_RANK), Some(tag))?;
                memory.store(buffer, msg.data);
            }
            TaskStep::RecvFromWorker { buffer, from } => {
                // The sender transmits a reply envelope: the data on
                // success, its error (kept with its original attribution)
                // otherwise.
                let msg = channel.recv(Some(from), Some(tag))?;
                let data = EventReply::decode(&msg.data)?.into_result()?;
                memory.store(buffer, data);
            }
            TaskStep::AwaitLocal { buffer, timeout_ms } => {
                if !memory.wait_for(buffer, std::time::Duration::from_millis(timeout_ms)) {
                    return Err(OmpcError::Internal(format!(
                        "task step timed out after {timeout_ms} ms waiting for {buffer} to \
                         arrive from a co-scheduled transfer"
                    )));
                }
            }
            TaskStep::Alloc { buffer, size } => {
                if !memory.contains(buffer) {
                    memory.store(buffer, vec![0u8; size as usize]);
                }
            }
            TaskStep::Delete { buffer } => {
                // Deferred head-side maintenance riding this task; absent
                // buffers are fine (the copy may never have landed).
                memory.remove(buffer);
            }
            TaskStep::Execute { kernel, buffers } => {
                if let Some(s) = stamps.as_mut() {
                    let now = monotonic_us();
                    s.deps_us = now;
                    s.exec_start_us = now;
                }
                execute_kernel(memory, kernels, kernel, &buffers)?;
                if let Some(s) = stamps.as_mut() {
                    s.exec_end_us = monotonic_us();
                }
            }
        }
    }
    Ok(stamps)
}

/// Handle one event on the worker side, always producing exactly one typed
/// reply (to the head node, or to the exchange receiver for the sending
/// half). Returns the handler's own outcome so tests and the gate loop can
/// observe failures; the same error has already been sent as the reply.
/// Exposed for unit testing; normal use is through [`worker_main`].
pub fn handle_event(
    comm: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    notification: EventNotification,
) -> OmpcResult<()> {
    let channel = comm.on(notification.comm)?;
    let tag = notification.tag;
    let node = comm.rank();
    // Handler-entry timestamp, read only when the head asked for a timed
    // reply — an untimed event costs no clock read on the worker.
    let recv_us = notification.timed.then(monotonic_us);
    match notification.request {
        EventRequest::Shutdown | EventRequest::Kill => Ok(()), // gate-loop concerns
        EventRequest::ExchangeSend { buffer, to } => {
            // The sending half's "reply" is the envelope it forwards to the
            // receiver: the data on success, the error otherwise. The
            // receiver propagates a failure to the head, so the head never
            // hangs on a half-completed exchange.
            let outcome = memory.get(buffer).ok_or(OmpcError::UnknownBuffer(buffer));
            let reply = match &outcome {
                Ok(data) => EventReply::Ok(data.clone()),
                Err(e) => EventReply::Err(as_remote(node, tag, e.clone())),
            };
            channel.send(to, tag, reply.encode())?;
            outcome.map(|_| ())
        }
        EventRequest::SubmitTrain { buffers } => {
            // A prefetch train: the payloads stream in order on the train's
            // own channel (non-overtaking per sender/channel/tag), stored
            // as they arrive, answered by one typed reply for the whole
            // train plus exactly one prefetch notice.
            let mut outcome = Ok(());
            for buffer in buffers {
                match channel.recv(Some(HEAD_RANK), Some(tag)) {
                    Ok(msg) => memory.store(buffer, msg.data),
                    Err(e) => {
                        outcome = Err(OmpcError::from(e));
                        break;
                    }
                }
            }
            let reply = match &outcome {
                Ok(()) => EventReply::Ok(Vec::new()),
                Err(e) => EventReply::Err(as_remote(node, tag, e.clone())),
            };
            let ok = outcome.is_ok();
            channel.send(HEAD_RANK, tag, reply.encode())?;
            post_prefetch_notice(comm, tag, ok);
            outcome
        }
        EventRequest::RelayRecv { buffer, total_bytes, chunk_bytes, children } => {
            let outcome = relay_recv_frames(
                comm,
                &channel,
                memory,
                buffer,
                total_bytes,
                chunk_bytes,
                &children,
                tag,
            );
            let reply = match &outcome {
                // The ack payload carries the delivered byte count, like an
                // exchange acknowledgement.
                Ok(()) => EventReply::Ok(total_bytes.to_le_bytes().to_vec()),
                Err(e) => EventReply::Err(as_remote(node, tag, e.clone())),
            };
            channel.send(HEAD_RANK, tag, reply.encode())?;
            outcome
        }
        EventRequest::RelayFeed { buffer, chunk_bytes, children } => {
            let outcome = memory
                .get(buffer)
                .ok_or(OmpcError::UnknownBuffer(buffer))
                .and_then(|data| send_relay_frames(comm, &data, chunk_bytes, &children));
            let reply = match &outcome {
                Ok(()) => EventReply::Ok(Vec::new()),
                Err(e) => EventReply::Err(as_remote(node, tag, e.clone())),
            };
            channel.send(HEAD_RANK, tag, reply.encode())?;
            outcome
        }
        request => {
            let is_task = matches!(request, EventRequest::Task(_));
            let outcome = event_outcome(&channel, memory, kernels, request, tag, recv_us);
            let (reply, result) = match outcome {
                Ok((payload, Some(stamps))) => (EventReply::OkTimed(stamps, payload), Ok(())),
                Ok((payload, None)) => (EventReply::Ok(payload), Ok(())),
                Err(e) => (EventReply::Err(as_remote(node, tag, e.clone())), Err(e)),
            };
            let ok = result.is_ok();
            channel.send(HEAD_RANK, tag, reply.encode())?;
            if is_task {
                post_completion(comm, tag, ok);
            }
            result
        }
    }
}

/// Refuse an event on a killed node: reply with the node's failure instead
/// of executing anything, so no peer ever blocks on a dead node.
fn refuse_event(comm: &Communicator, notification: &EventNotification) -> OmpcResult<()> {
    let node = comm.rank();
    let channel = comm.on(notification.comm)?;
    let error = as_remote(node, notification.tag, OmpcError::NodeFailure(node));
    let dest = match notification.request {
        // The exchange receiver is the peer waiting on the sending half.
        EventRequest::ExchangeSend { to, .. } => to,
        _ => HEAD_RANK,
    };
    channel.send(dest, notification.tag, EventReply::Err(error).encode())?;
    if matches!(notification.request, EventRequest::Task(_)) {
        post_completion(comm, notification.tag, false);
    }
    if matches!(notification.request, EventRequest::SubmitTrain { .. }) {
        // The head drains one prefetch notice per train even on refusal.
        post_prefetch_notice(comm, notification.tag, false);
    }
    Ok(())
}

/// The worker-node main loop: a gate thread receiving new-event
/// notifications and a pool of event-handler threads executing them.
///
/// Returns when a shutdown event is received (normal termination) or when
/// the communication substrate reports that the peers are gone. A kill
/// event ([`EventRequest::Kill`], failure injection) ends the node's
/// useful life early: events already accepted still complete (and reply),
/// but every event notified afterwards is refused with an error reply
/// instead of being executed — peers observe the failure immediately
/// rather than hanging, and no further effects land on the dead node.
pub fn worker_main(comm: Communicator, kernels: Arc<KernelRegistry>, handler_threads: usize) {
    let memory = Arc::new(DeviceMemory::new());
    let (tx, rx) = crossbeam::channel::unbounded::<EventNotification>();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..handler_threads.max(1) {
            let rx = rx.clone();
            let comm = comm.clone();
            let memory = Arc::clone(&memory);
            let kernels = Arc::clone(&kernels);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ompc-handler-{}-{}", comm.rank(), i))
                    .spawn_scoped(scope, move || {
                        while let Ok(notification) = rx.recv() {
                            // Errors on individual events must not kill the
                            // handler pool; the head node receives them as
                            // error replies on the event channel.
                            let _ = handle_event(&comm, &memory, &kernels, notification);
                        }
                    })
                    .expect("failed to spawn event handler thread"),
            );
        }
        drop(rx);

        // Gate loop: receive notifications and enqueue their destination
        // part into the local event queue. Events that can never block
        // (alloc, delete, retrieve, the sending half of an exchange) are
        // executed inline by the gate thread — the analogue of the paper's
        // handlers re-enqueueing events that still have pending I/O — so a
        // small handler pool cannot deadlock on two opposing exchanges.
        // The loop ends when the world shuts down or every peer terminated
        // (recv fails), or when a shutdown event arrives.
        let mut dead = false;
        while let Ok(msg) = comm.recv(None, Some(CONTROL_TAG)) {
            let Ok(notification) = EventNotification::decode(&msg.data) else {
                continue;
            };
            match notification.request {
                EventRequest::Shutdown => break,
                EventRequest::Kill => {
                    dead = true;
                    continue;
                }
                _ => {}
            }
            if dead {
                let _ = refuse_event(&comm, &notification);
                continue;
            }
            // A prefetch train is inline too: its payloads are sent eagerly
            // right after the envelope, so the receives are bounded — and a
            // pooled train could queue behind a composite task whose
            // `AwaitLocal` step is waiting for this very train, deadlocking
            // a single-handler pool until the await times out.
            // RelayFeed is inline for the same reason as ExchangeSend: it
            // only sends (the local copy is resident by construction), so
            // it can never block the gate. RelayRecv stays pooled — it
            // waits on inbound frames, exactly like the receiving half of
            // an exchange.
            let inline = matches!(
                notification.request,
                EventRequest::Alloc { .. }
                    | EventRequest::Delete { .. }
                    | EventRequest::Retrieve { .. }
                    | EventRequest::ExchangeSend { .. }
                    | EventRequest::SubmitTrain { .. }
                    | EventRequest::RelayFeed { .. }
                    | EventRequest::Reset
            );
            if inline {
                let _ = handle_event(&comm, &memory, &kernels, notification);
            } else if tx.send(notification).is_err() {
                break;
            }
        }
        drop(tx);
        for h in handles {
            let _ = h.join();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KernelId;
    use ompc_mpi::{CommId, Tag, World};

    #[test]
    fn device_memory_basics() {
        let mem = DeviceMemory::new();
        assert!(mem.is_empty());
        mem.store(BufferId(1), vec![1, 2, 3]);
        assert!(mem.contains(BufferId(1)));
        assert_eq!(mem.get(BufferId(1)), Some(vec![1, 2, 3]));
        assert_eq!(mem.len(), 1);
        assert!(mem.remove(BufferId(1)));
        assert!(!mem.remove(BufferId(1)));
        assert!(mem.get(BufferId(9)).is_none());
    }

    #[test]
    fn handle_alloc_submit_execute_retrieve_cycle() {
        // Drive a single worker's event handler directly from the test
        // acting as the head node.
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let kid = kernels.register_fn("scale", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 3.0).collect();
            args.set_f64s(0, &v);
        });

        // Submit data.
        let buffer = BufferId(0);
        let tag = Tag(10);
        let comm = CommId(1);
        head.on(comm).unwrap().send(1, tag, ompc_mpi::typed::f64s_to_bytes(&[1.0, 2.0])).unwrap();
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification { request: EventRequest::Submit { buffer }, tag, comm, timed: false },
        )
        .unwrap();
        // The typed Ok reply arrived at the head.
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert_eq!(EventReply::decode(&msg.data).unwrap(), EventReply::Ok(Vec::new()));

        // Execute the kernel.
        let tag2 = Tag(11);
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Execute { kernel: kid, buffers: vec![buffer] },
                tag: tag2,
                comm,
                timed: false,
            },
        )
        .unwrap();
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag2)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());

        // Retrieve the result.
        let tag3 = Tag(12);
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Retrieve { buffer },
                tag: tag3,
                comm,
                timed: false,
            },
        )
        .unwrap();
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag3)).unwrap();
        let data = EventReply::decode(&msg.data).unwrap().into_result().unwrap();
        assert_eq!(ompc_mpi::typed::bytes_to_f64s(&data).unwrap(), vec![3.0, 6.0]);
    }

    #[test]
    fn retrieve_of_missing_buffer_is_an_error() {
        let world = World::new(2);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Retrieve { buffer: BufferId(5) },
                tag: Tag(1),
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownBuffer(BufferId(5)));
    }

    #[test]
    fn execute_of_unknown_kernel_is_an_error() {
        let world = World::new(2);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Execute { kernel: KernelId(3), buffers: vec![] },
                tag: Tag(1),
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(3)));
    }

    #[test]
    fn worker_to_worker_exchange_moves_data_directly() {
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let mem1 = DeviceMemory::new();
        let mem2 = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(0);
        mem1.store(buffer, vec![7, 8, 9]);

        let tag = Tag(20);
        let comm = CommId(0);
        // Receiving half first (it blocks waiting for the data), then the
        // sending half, run from two threads like real event handlers.
        let recv_thread = std::thread::spawn({
            let w2 = w2.clone();
            let kernels = KernelRegistry::new();
            move || {
                let mem2 = DeviceMemory::new();
                handle_event(
                    &w2,
                    &mem2,
                    &kernels,
                    EventNotification {
                        request: EventRequest::ExchangeRecv { buffer, from: 1 },
                        tag,
                        comm,
                        timed: false,
                    },
                )
                .unwrap();
                mem2.get(buffer)
            }
        });
        handle_event(
            &w1,
            &mem1,
            &kernels,
            EventNotification {
                request: EventRequest::ExchangeSend { buffer, to: 2 },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        let received = recv_thread.join().unwrap();
        assert_eq!(received, Some(vec![7, 8, 9]));
        // The head got a typed acknowledgement carrying the byte count.
        let ack = head.recv(Some(2), Some(tag)).unwrap();
        let payload = EventReply::decode(&ack.data).unwrap().into_result().unwrap();
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 3);
        let _ = mem2;
    }

    #[test]
    fn handler_error_is_replied_to_the_head_not_dropped() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let tag = Tag(33);
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Execute { kernel: KernelId(7), buffers: vec![] },
                tag,
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(7)));
        // The head receives the same failure as a typed error reply, with
        // the originating node and event tag attached.
        let msg = head.recv(Some(1), Some(tag)).unwrap();
        match EventReply::decode(&msg.data).unwrap().into_result().unwrap_err() {
            OmpcError::RemoteEvent { node, event, error } => {
                assert_eq!((node, event), (1, 33));
                assert_eq!(*error, OmpcError::UnknownKernel(KernelId(7)));
            }
            other => panic!("expected a remote-event error, got {other:?}"),
        }
    }

    #[test]
    fn failed_exchange_sender_unblocks_receiver_and_head() {
        // The sending half fails (the buffer was never stored): the sender
        // forwards its error envelope to the receiver, which propagates it
        // to the head — nobody hangs on the half-completed exchange.
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let buffer = BufferId(6);
        let tag = Tag(40);
        let comm = CommId(0);
        let recv_thread = std::thread::spawn({
            let w2 = w2.clone();
            move || {
                let mem2 = DeviceMemory::new();
                let kernels = KernelRegistry::new();
                handle_event(
                    &w2,
                    &mem2,
                    &kernels,
                    EventNotification {
                        request: EventRequest::ExchangeRecv { buffer, from: 1 },
                        tag,
                        comm,
                        timed: false,
                    },
                )
            }
        });
        let mem1 = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let send_err = handle_event(
            &w1,
            &mem1,
            &kernels,
            EventNotification {
                request: EventRequest::ExchangeSend { buffer, to: 2 },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(send_err, OmpcError::UnknownBuffer(buffer));
        assert!(recv_thread.join().unwrap().is_err());
        let msg = head.recv(Some(2), Some(tag)).unwrap();
        let forwarded = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(forwarded.origin_node(), Some(1), "the error keeps the sender's attribution");
        assert_eq!(forwarded.root_cause(), &OmpcError::UnknownBuffer(buffer));
    }

    #[test]
    fn submit_train_stores_payloads_in_order_and_posts_one_notice() {
        use crate::protocol::PREFETCH_TAG;
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let tag = Tag(80);
        let comm = CommId(0);
        // Payloads ride the train's own channel, in the listed order.
        head.on(comm).unwrap().send(1, tag, vec![1, 1]).unwrap();
        head.on(comm).unwrap().send(1, tag, vec![2, 2, 2]).unwrap();
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::SubmitTrain { buffers: vec![BufferId(4), BufferId(9)] },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        assert_eq!(memory.get(BufferId(4)), Some(vec![1, 1]));
        assert_eq!(memory.get(BufferId(9)), Some(vec![2, 2, 2]));
        // One typed reply for the whole train, then exactly one notice on
        // the prefetch channel.
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
        let notice = head.recv(Some(1), Some(PREFETCH_TAG)).unwrap();
        assert_eq!(
            CompletionNotice::decode(&notice.data).unwrap(),
            CompletionNotice { tag, ok: true }
        );
    }

    #[test]
    fn killed_worker_refuses_a_submit_train_with_an_error_and_a_notice() {
        use crate::protocol::PREFETCH_TAG;
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels, 1));

        let kill = EventNotification {
            request: EventRequest::Kill,
            tag: Tag(90),
            comm: CommId(0),
            timed: false,
        };
        head.send(1, CONTROL_TAG, kill.encode()).unwrap();
        let train = EventNotification {
            request: EventRequest::SubmitTrain { buffers: vec![BufferId(7)] },
            tag: Tag(91),
            comm: CommId(1),
            timed: false,
        };
        head.send(1, CONTROL_TAG, train.encode()).unwrap();
        let msg = head.on(CommId(1)).unwrap().recv(Some(1), Some(Tag(91))).unwrap();
        let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));
        // The refusal path still posts the train's single prefetch notice.
        let notice = head.recv(Some(1), Some(PREFETCH_TAG)).unwrap();
        assert_eq!(
            CompletionNotice::decode(&notice.data).unwrap(),
            CompletionNotice { tag: Tag(91), ok: false }
        );
        let shutdown = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(92),
            comm: CommId(0),
            timed: false,
        };
        head.send(1, CONTROL_TAG, shutdown.encode()).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn relay_recv_reassembles_chunks_forwards_once_and_replies_bytes() {
        // Head (rank 0) streams a 10-byte buffer to w1 in 4-byte frames,
        // out of order and with a duplicate; w1 relays every distinct frame
        // to w2's relay channel exactly once.
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(3);
        let data: Vec<u8> = (0..10).collect();
        let tag = Tag(30);
        let comm = CommId(1);
        let child = RelayChild { node: 2, tag: Tag(31), comm: CommId(0) };

        let frame = |i: u64| {
            let start = (i * 4) as usize;
            encode_relay_frame(i, &data[start..(start + 4).min(10)])
        };
        let ch = head.on(comm).unwrap();
        ch.send(1, tag, frame(1)).unwrap();
        ch.send(1, tag, frame(0)).unwrap();
        ch.send(1, tag, frame(0)).unwrap(); // duplicate: ignored, not re-forwarded
        ch.send(1, tag, frame(2)).unwrap();

        handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayRecv {
                    buffer,
                    total_bytes: 10,
                    chunk_bytes: 4,
                    children: vec![child],
                },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        assert_eq!(memory.get(buffer), Some(data.clone()));

        // The head's ack carries the delivered byte count.
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        let payload = EventReply::decode(&msg.data).unwrap().into_result().unwrap();
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 10);

        // w2 received each distinct frame exactly once, in arrival order.
        let child_ch = w2.on(child.comm).unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            let msg = child_ch.recv(Some(1), Some(child.tag)).unwrap();
            got.push(crate::protocol::decode_relay_frame(&msg.data).unwrap().0);
        }
        assert_eq!(got, vec![1, 0, 2]);
        assert!(child_ch.iprobe(Some(1), Some(child.tag)).is_none(), "duplicate was forwarded");
    }

    #[test]
    fn relay_feed_streams_resident_buffer_and_replies() {
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(8);
        memory.store(buffer, vec![5; 10]);
        let tag = Tag(60);
        let child = RelayChild { node: 2, tag: Tag(61), comm: CommId(1) };
        handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayFeed { buffer, chunk_bytes: 4, children: vec![child] },
                tag,
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap();
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
        let child_ch = w2.on(child.comm).unwrap();
        let mut rebuilt = vec![0u8; 10];
        for want in 0..3u64 {
            let msg = child_ch.recv(Some(1), Some(child.tag)).unwrap();
            let (i, payload) = crate::protocol::decode_relay_frame(&msg.data).unwrap();
            assert_eq!(i, want, "frames stream in index order");
            rebuilt[(i * 4) as usize..(i * 4) as usize + payload.len()].copy_from_slice(&payload);
        }
        assert_eq!(rebuilt, vec![5; 10]);

        // A missing buffer is a typed error, not a hang downstream.
        let err = handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayFeed {
                    buffer: BufferId(99),
                    chunk_bytes: 0,
                    children: vec![],
                },
                tag: Tag(62),
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownBuffer(BufferId(99)));
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(62))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_err());
    }

    #[test]
    fn relay_recv_accepts_frames_from_a_rescue_source() {
        // The planned parent sends one frame and dies; a rescue feeder
        // replays the whole stream from another rank. The receiver ignores
        // the replayed duplicate and assembles the rest — oblivious to the
        // failure, as the re-sourcing contract requires.
        let world = World::with_communicators(4, 2);
        let head = world.communicator(0);
        let parent = world.communicator(2);
        let rescuer = world.communicator(3);
        let w1 = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(4);
        let data: Vec<u8> = (10..18).collect();
        let tag = Tag(70);
        let comm = CommId(1);
        parent.on(comm).unwrap().send(1, tag, encode_relay_frame(0, &data[..4])).unwrap();
        for i in 0..2u64 {
            let start = (i * 4) as usize;
            rescuer
                .on(comm)
                .unwrap()
                .send(1, tag, encode_relay_frame(i, &data[start..start + 4]))
                .unwrap();
        }
        handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayRecv {
                    buffer,
                    total_bytes: 8,
                    chunk_bytes: 4,
                    children: vec![],
                },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        assert_eq!(memory.get(buffer), Some(data));
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
    }

    #[test]
    fn reset_clears_device_memory_and_replies_ok() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        memory.store(BufferId(3), vec![1, 2, 3]);
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Reset,
                tag: Tag(60),
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap();
        assert!(memory.is_empty());
        let msg = head.recv(Some(1), Some(Tag(60))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
    }

    #[test]
    fn killed_worker_refuses_events_with_error_replies_until_shutdown() {
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels, 1));

        let send = |req: EventRequest, tag: u64| {
            let n =
                EventNotification { request: req, tag: Tag(tag), comm: CommId(0), timed: false };
            head.send(1, CONTROL_TAG, n.encode()).unwrap();
        };
        // Before the kill: a normal alloc completes with an Ok reply.
        send(EventRequest::Alloc { buffer: BufferId(1), size: 8 }, 100);
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(100))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());

        // Kill the node, then try to execute: the event is refused.
        send(EventRequest::Kill, 101);
        send(EventRequest::Execute { kernel: KernelId(0), buffers: vec![] }, 102);
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(102))).unwrap();
        let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(err.origin_node(), Some(1));
        assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));

        // Shutdown still terminates the gate loop.
        send(EventRequest::Shutdown, 103);
        worker.join().unwrap();
    }
}

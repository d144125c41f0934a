//! Wire format of the event system.
//!
//! Every event starts with a *new-event notification* sent to the
//! destination node on the reserved control tag. The notification carries
//! the event kind, its operands, and the `(tag, communicator)` pair that all
//! subsequent messages of this event will use — this is how the paper's
//! event system guarantees an exclusive channel per event (§4.2).
//!
//! Every dispatched event also produces exactly one **typed reply** on its
//! exclusive channel, an [`EventReply`]: `Ok(payload)` on success or
//! `Err(OmpcError)` when the handler failed. The error reply carries the
//! originating node and the event tag (wrapped as
//! [`OmpcError::RemoteEvent`]), so a worker-side failure — an unregistered
//! kernel, a missing buffer, a killed node — surfaces on the head node as a
//! propagated error instead of a reply that never arrives.

use crate::types::{BufferId, KernelId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{CommId, Tag};

/// Tag reserved for new-event notifications received by the gate thread.
pub const CONTROL_TAG: Tag = Tag(0);

/// Tag reserved for the head node's any-source completion channel: after a
/// worker sends a composite-task reply on the task's exclusive channel, it
/// posts a compact [`CompletionNotice`] to the head on this tag (world
/// communicator). The head discovers finished tasks by draining this one
/// well-known channel — O(messages arrived) per poll — instead of probing
/// every outstanding task channel; the per-task channel is consulted only
/// afterwards, for the reply payload already guaranteed to be present.
pub const COMPLETION_TAG: Tag = Tag(1);

/// Tag reserved for the prefetch completion lane: after a worker finishes
/// (or refuses) an [`EventRequest::SubmitTrain`], it posts one
/// [`CompletionNotice`] — carrying the train's envelope tag — to the head
/// on this tag. The asynchronous data path drains exactly one notice per
/// train it dispatched, keeping prefetch completions on their own reserved
/// channel instead of mixing with the task completion stream on
/// [`COMPLETION_TAG`].
pub const PREFETCH_TAG: Tag = Tag(2);

/// First tag usable by events (event tags are allocated upwards from here
/// and stay below the collective-reserved range).
pub const FIRST_EVENT_TAG: u64 = 3;

/// The action a new event asks the destination node to perform. These map
/// one-to-one to the operations a libomptarget device plugin must implement
/// (alloc, delete, submit, retrieve, exchange, execute) plus shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventRequest {
    /// Allocate `size` bytes of device memory for `buffer`.
    Alloc { buffer: BufferId, size: u64 },
    /// Free the device memory of `buffer`.
    Delete { buffer: BufferId },
    /// Receive the contents of `buffer` from the origin (data follows on
    /// the event channel).
    Submit { buffer: BufferId },
    /// Send the contents of `buffer` back to the origin on the event
    /// channel.
    Retrieve { buffer: BufferId },
    /// Send the contents of `buffer` to worker `to` on the event channel
    /// (the sending half of a worker-to-worker forward).
    ExchangeSend { buffer: BufferId, to: NodeId },
    /// Receive the contents of `buffer` from worker `from` on the event
    /// channel and acknowledge to the origin (the receiving half of a
    /// worker-to-worker forward).
    ExchangeRecv { buffer: BufferId, from: NodeId },
    /// Execute kernel `kernel` against the listed device buffers.
    Execute { kernel: KernelId, buffers: Vec<BufferId> },
    /// Run one whole task — data movement steps then kernel execution — on
    /// the destination node, producing a single reply when every step has
    /// finished. This is the [`crate::runtime::MpiBackend`]'s composite
    /// event: the head composes the task's recipe from the data manager's
    /// forwarding plan and carries it as one tagged message instead of
    /// blocking a head pool thread on each constituent event.
    Task(TaskSpec),
    /// Receive the contents of several buffers from the origin in one
    /// batched event (a *prefetch train*): the payloads follow on the
    /// train's envelope channel in listed order (MPI delivery is
    /// non-overtaking per `(source, communicator, tag)`), the worker stores
    /// each one, and a single typed reply acknowledges the whole train.
    /// After replying — or refusing, on a killed node — the worker posts
    /// one [`CompletionNotice`] on the reserved [`PREFETCH_TAG`] lane.
    /// This is how the asynchronous data path streams a queued region's
    /// enter-data inputs to one node while the current region computes,
    /// collapsing k submit events into one control message.
    SubmitTrain { buffers: Vec<BufferId> },
    /// Receive one buffer as a chunked collective payload stream and relay
    /// each frame onward: the node receives `[frame index u64][payload]`
    /// frames on the event's exclusive channel **from any source** (the
    /// planned parent, or a rescue source after a relay died), stores the
    /// reassembled buffer, and forwards every newly seen frame to each
    /// listed child on the child's own event channel — so an interior node
    /// of a broadcast tree fans frame `i` onward while frame `i + 1` is
    /// still inbound. Duplicate frames (possible during re-sourcing) are
    /// forwarded at most once and written at most once; one typed reply to
    /// the head acknowledges the fully assembled buffer.
    RelayRecv { buffer: BufferId, total_bytes: u64, chunk_bytes: u64, children: Vec<RelayChild> },
    /// Stream a locally resident buffer as collective payload frames to the
    /// listed children (the feeding half of a worker-sourced broadcast tree,
    /// and the rescue path when a relay died: the head points a surviving
    /// holder at the orphaned recipients). Replies once all frames are on
    /// the wire.
    RelayFeed { buffer: BufferId, chunk_bytes: u64, children: Vec<RelayChild> },
    /// Clear the worker's device memory and acknowledge: the head issues
    /// this between workloads when recycling warm workers, so a parked
    /// worker pool starts the next device lifetime from an empty state.
    Reset,
    /// Leave the gate loop and terminate the worker.
    Shutdown,
    /// Kill the worker's event loop for real (failure injection): the node
    /// stops executing events and answers every later one with an error
    /// reply, so in-flight peers never hang on it. Only [`Shutdown`]
    /// terminates the gate loop afterwards.
    ///
    /// [`Shutdown`]: EventRequest::Shutdown
    Kill,
}

impl EventRequest {
    /// Short name used in traces and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            EventRequest::Alloc { .. } => "alloc",
            EventRequest::Delete { .. } => "delete",
            EventRequest::Submit { .. } => "submit",
            EventRequest::Retrieve { .. } => "retrieve",
            EventRequest::ExchangeSend { .. } => "exchange-send",
            EventRequest::ExchangeRecv { .. } => "exchange-recv",
            EventRequest::Execute { .. } => "execute",
            EventRequest::Task(_) => "task",
            EventRequest::SubmitTrain { .. } => "submit-train",
            EventRequest::RelayRecv { .. } => "relay-recv",
            EventRequest::RelayFeed { .. } => "relay-feed",
            EventRequest::Reset => "reset",
            EventRequest::Shutdown => "shutdown",
            EventRequest::Kill => "kill",
        }
    }
}

/// One downstream edge of a collective broadcast tree: where an
/// [`EventRequest::RelayRecv`] / [`EventRequest::RelayFeed`] node forwards
/// payload frames. The child's `(tag, comm)` is the **child's own** relay
/// event channel — frames from the parent and frames from a rescue source
/// land on the same exclusive channel, which is what lets a re-sourced
/// recipient stay oblivious to the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayChild {
    /// Destination node of the forwarded frames.
    pub node: NodeId,
    /// Tag of the child's relay event channel.
    pub tag: Tag,
    /// Communicator of the child's relay event channel.
    pub comm: CommId,
}

/// Number of frames a collective payload of `total_bytes` travels as:
/// `chunk_bytes == 0` means one whole-buffer frame, and a zero-length
/// buffer still travels as one (empty) frame so the receive loop always
/// terminates on a frame count.
pub fn relay_frame_count(total_bytes: u64, chunk_bytes: u64) -> u64 {
    if chunk_bytes == 0 || total_bytes == 0 {
        1
    } else {
        total_bytes.div_ceil(chunk_bytes)
    }
}

/// Serialize one frame of a chunked collective payload stream:
/// `[frame index u64 LE][payload bytes]`.
pub fn encode_relay_frame(index: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse one collective payload frame into `(frame index, payload)`.
pub fn decode_relay_frame(data: &[u8]) -> OmpcResult<(u64, Vec<u8>)> {
    if data.len() < 8 {
        return Err(OmpcError::Internal("truncated relay frame".to_string()));
    }
    let index = u64::from_le_bytes(data[..8].try_into().expect("8-byte slice"));
    Ok((index, data[8..].to_vec()))
}

/// One step of a composite [`EventRequest::Task`], executed in order by the
/// destination node's event handler. Receive steps use the task's exclusive
/// `(tag, communicator)` channel; because MPI delivery is non-overtaking
/// per `(source, communicator, tag)`, several receives from the same source
/// arrive in step order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStep {
    /// Receive the contents of `buffer` from the head node on the event
    /// channel (the head sends the payload right after the notification).
    RecvFromHead { buffer: BufferId },
    /// Receive the contents of `buffer` from worker `from` on the event
    /// channel. The sender transmits a reply envelope — the data on
    /// success, its own error otherwise — exactly like the sending half of
    /// an [`EventRequest::ExchangeSend`], so a dead or failed source
    /// surfaces as a typed error in this task's reply instead of a hang.
    RecvFromWorker { buffer: BufferId, from: NodeId },
    /// Wait until `buffer` is locally present in device memory: a
    /// co-scheduled task on the same node owns the in-flight transfer of
    /// this buffer and will store it. Bounded by `timeout_ms` so an
    /// upstream failure degrades into a typed error, never a hang.
    AwaitLocal { buffer: BufferId, timeout_ms: u64 },
    /// Ensure `size` zeroed bytes of device memory exist for `buffer` (a
    /// write-only output that nothing transferred in).
    Alloc { buffer: BufferId, size: u64 },
    /// Free the device memory of `buffer` (a no-op when absent). Deferred
    /// head-side maintenance — stale copies invalidated by a write,
    /// exit-data releases — rides composite tasks as prologue `Delete`
    /// steps instead of paying one synchronous event round-trip each.
    Delete { buffer: BufferId },
    /// Run `kernel` against the listed device buffers.
    Execute { kernel: KernelId, buffers: Vec<BufferId> },
}

/// The recipe of one composite [`EventRequest::Task`]: the ordered steps
/// the destination node performs before sending the task's single typed
/// reply.
///
/// ```
/// use ompc_core::protocol::{EventNotification, EventRequest, TaskSpec, TaskStep};
/// use ompc_core::types::{BufferId, KernelId};
/// use ompc_mpi::{CommId, Tag};
///
/// let spec = TaskSpec {
///     steps: vec![
///         TaskStep::RecvFromHead { buffer: BufferId(1) },
///         TaskStep::RecvFromWorker { buffer: BufferId(2), from: 3 },
///         TaskStep::Execute { kernel: KernelId(0), buffers: vec![BufferId(1), BufferId(2)] },
///     ],
/// };
/// let n = EventNotification {
///     request: EventRequest::Task(spec),
///     tag: Tag(7),
///     comm: CommId(0),
///     timed: false,
/// };
/// assert_eq!(EventNotification::decode(&n.encode()).unwrap(), n);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// The steps, in execution order.
    pub steps: Vec<TaskStep>,
}

/// A complete new-event notification: the request plus the exclusive
/// channel (tag and communicator) the event will use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventNotification {
    /// What the destination must do.
    pub request: EventRequest,
    /// Tag all messages of this event are matched on.
    pub tag: Tag,
    /// Communicator all messages of this event travel on.
    pub comm: CommId,
    /// Whether the destination should capture telemetry timestamps while
    /// handling this event and ship them home in the reply (see
    /// [`TaskStamps`] / [`EventReply::OkTimed`]). The worker reads no clock when this is `false`, keeping
    /// telemetry-off runs free of clock syscalls.
    pub timed: bool,
}

struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Self(Vec::with_capacity(64))
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
    fn u8(&mut self) -> OmpcResult<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| OmpcError::Internal("truncated notification".to_string()))?;
        self.pos += 1;
        Ok(b)
    }
    fn u32(&mut self) -> OmpcResult<u32> {
        let end = self.pos + 4;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| OmpcError::Internal("truncated notification".to_string()))?;
        self.pos = end;
        Ok(u32::from_le_bytes(slice.try_into().expect("4-byte slice")))
    }
    fn u64(&mut self) -> OmpcResult<u64> {
        let end = self.pos + 8;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| OmpcError::Internal("truncated notification".to_string()))?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
    }
    fn string(&mut self) -> OmpcResult<String> {
        let len = self.u32()? as usize;
        let end = self.pos + len;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| OmpcError::Internal("truncated notification".to_string()))?;
        self.pos = end;
        String::from_utf8(slice.to_vec())
            .map_err(|_| OmpcError::Internal("non-UTF-8 string in reply".to_string()))
    }
    fn rest(&mut self) -> Vec<u8> {
        let rest = self.data.get(self.pos..).unwrap_or_default().to_vec();
        self.pos = self.data.len();
        rest
    }
}

const KIND_ALLOC: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_SUBMIT: u8 = 3;
const KIND_RETRIEVE: u8 = 4;
const KIND_EXCHANGE_SEND: u8 = 5;
const KIND_EXCHANGE_RECV: u8 = 6;
const KIND_EXECUTE: u8 = 7;
const KIND_SHUTDOWN: u8 = 8;
const KIND_KILL: u8 = 9;
const KIND_TASK: u8 = 10;
const KIND_RESET: u8 = 12;
const KIND_SUBMIT_TRAIN: u8 = 13;
const KIND_RELAY_RECV: u8 = 14;
const KIND_RELAY_FEED: u8 = 15;

fn encode_children(w: &mut Writer, children: &[RelayChild]) {
    w.u32(children.len() as u32);
    for child in children {
        w.u32(child.node as u32);
        w.u64(child.tag.0);
        w.u32(child.comm.0);
    }
}

fn decode_children(r: &mut Reader<'_>) -> OmpcResult<Vec<RelayChild>> {
    let n = r.u32()?;
    let mut children = Vec::with_capacity(n as usize);
    for _ in 0..n {
        children.push(RelayChild {
            node: r.u32()? as NodeId,
            tag: Tag(r.u64()?),
            comm: CommId(r.u32()?),
        });
    }
    Ok(children)
}

const STEP_RECV_FROM_HEAD: u8 = 1;
const STEP_RECV_FROM_WORKER: u8 = 2;
const STEP_AWAIT_LOCAL: u8 = 3;
const STEP_ALLOC: u8 = 4;
const STEP_EXECUTE: u8 = 5;
const STEP_DELETE: u8 = 6;

fn encode_step(w: &mut Writer, step: &TaskStep) {
    match step {
        TaskStep::RecvFromHead { buffer } => {
            w.u8(STEP_RECV_FROM_HEAD);
            w.u64(buffer.0);
        }
        TaskStep::RecvFromWorker { buffer, from } => {
            w.u8(STEP_RECV_FROM_WORKER);
            w.u64(buffer.0);
            w.u64(*from as u64);
        }
        TaskStep::AwaitLocal { buffer, timeout_ms } => {
            w.u8(STEP_AWAIT_LOCAL);
            w.u64(buffer.0);
            w.u64(*timeout_ms);
        }
        TaskStep::Alloc { buffer, size } => {
            w.u8(STEP_ALLOC);
            w.u64(buffer.0);
            w.u64(*size);
        }
        TaskStep::Delete { buffer } => {
            w.u8(STEP_DELETE);
            w.u64(buffer.0);
        }
        TaskStep::Execute { kernel, buffers } => {
            w.u8(STEP_EXECUTE);
            w.u64(kernel.0 as u64);
            w.u32(buffers.len() as u32);
            for b in buffers {
                w.u64(b.0);
            }
        }
    }
}

fn decode_step(r: &mut Reader<'_>) -> OmpcResult<TaskStep> {
    Ok(match r.u8()? {
        STEP_RECV_FROM_HEAD => TaskStep::RecvFromHead { buffer: BufferId(r.u64()?) },
        STEP_RECV_FROM_WORKER => {
            TaskStep::RecvFromWorker { buffer: BufferId(r.u64()?), from: r.u64()? as NodeId }
        }
        STEP_AWAIT_LOCAL => {
            TaskStep::AwaitLocal { buffer: BufferId(r.u64()?), timeout_ms: r.u64()? }
        }
        STEP_ALLOC => TaskStep::Alloc { buffer: BufferId(r.u64()?), size: r.u64()? },
        STEP_DELETE => TaskStep::Delete { buffer: BufferId(r.u64()?) },
        STEP_EXECUTE => {
            let kernel = KernelId(r.u64()? as usize);
            let n = r.u32()?;
            let mut buffers = Vec::with_capacity(n as usize);
            for _ in 0..n {
                buffers.push(BufferId(r.u64()?));
            }
            TaskStep::Execute { kernel, buffers }
        }
        other => return Err(OmpcError::Internal(format!("unknown task step kind {other}"))),
    })
}

impl EventNotification {
    /// Serialize the notification for transmission on the control tag.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.tag.0);
        w.u32(self.comm.0);
        w.u8(self.timed as u8);
        match &self.request {
            EventRequest::Alloc { buffer, size } => {
                w.u8(KIND_ALLOC);
                w.u64(buffer.0);
                w.u64(*size);
            }
            EventRequest::Delete { buffer } => {
                w.u8(KIND_DELETE);
                w.u64(buffer.0);
            }
            EventRequest::Submit { buffer } => {
                w.u8(KIND_SUBMIT);
                w.u64(buffer.0);
            }
            EventRequest::Retrieve { buffer } => {
                w.u8(KIND_RETRIEVE);
                w.u64(buffer.0);
            }
            EventRequest::ExchangeSend { buffer, to } => {
                w.u8(KIND_EXCHANGE_SEND);
                w.u64(buffer.0);
                w.u64(*to as u64);
            }
            EventRequest::ExchangeRecv { buffer, from } => {
                w.u8(KIND_EXCHANGE_RECV);
                w.u64(buffer.0);
                w.u64(*from as u64);
            }
            EventRequest::Execute { kernel, buffers } => {
                w.u8(KIND_EXECUTE);
                w.u64(kernel.0 as u64);
                w.u32(buffers.len() as u32);
                for b in buffers {
                    w.u64(b.0);
                }
            }
            EventRequest::Task(spec) => {
                w.u8(KIND_TASK);
                w.u32(spec.steps.len() as u32);
                for step in &spec.steps {
                    encode_step(&mut w, step);
                }
            }
            EventRequest::SubmitTrain { buffers } => {
                w.u8(KIND_SUBMIT_TRAIN);
                w.u32(buffers.len() as u32);
                for b in buffers {
                    w.u64(b.0);
                }
            }
            EventRequest::RelayRecv { buffer, total_bytes, chunk_bytes, children } => {
                w.u8(KIND_RELAY_RECV);
                w.u64(buffer.0);
                w.u64(*total_bytes);
                w.u64(*chunk_bytes);
                encode_children(&mut w, children);
            }
            EventRequest::RelayFeed { buffer, chunk_bytes, children } => {
                w.u8(KIND_RELAY_FEED);
                w.u64(buffer.0);
                w.u64(*chunk_bytes);
                encode_children(&mut w, children);
            }
            EventRequest::Reset => {
                w.u8(KIND_RESET);
            }
            EventRequest::Shutdown => {
                w.u8(KIND_SHUTDOWN);
            }
            EventRequest::Kill => {
                w.u8(KIND_KILL);
            }
        }
        w.0
    }

    /// Parse a notification received on the control tag.
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(data);
        let tag = Tag(r.u64()?);
        let comm = CommId(r.u32()?);
        let timed = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(OmpcError::Internal(format!("unknown timed flag {other}")));
            }
        };
        let kind = r.u8()?;
        let request = match kind {
            KIND_ALLOC => EventRequest::Alloc { buffer: BufferId(r.u64()?), size: r.u64()? },
            KIND_DELETE => EventRequest::Delete { buffer: BufferId(r.u64()?) },
            KIND_SUBMIT => EventRequest::Submit { buffer: BufferId(r.u64()?) },
            KIND_RETRIEVE => EventRequest::Retrieve { buffer: BufferId(r.u64()?) },
            KIND_EXCHANGE_SEND => {
                EventRequest::ExchangeSend { buffer: BufferId(r.u64()?), to: r.u64()? as NodeId }
            }
            KIND_EXCHANGE_RECV => {
                EventRequest::ExchangeRecv { buffer: BufferId(r.u64()?), from: r.u64()? as NodeId }
            }
            KIND_EXECUTE => {
                let kernel = KernelId(r.u64()? as usize);
                let n = r.u32()?;
                let mut buffers = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    buffers.push(BufferId(r.u64()?));
                }
                EventRequest::Execute { kernel, buffers }
            }
            KIND_TASK => {
                let n = r.u32()?;
                let mut steps = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    steps.push(decode_step(&mut r)?);
                }
                EventRequest::Task(TaskSpec { steps })
            }
            KIND_SUBMIT_TRAIN => {
                let n = r.u32()?;
                let mut buffers = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    buffers.push(BufferId(r.u64()?));
                }
                EventRequest::SubmitTrain { buffers }
            }
            KIND_RELAY_RECV => EventRequest::RelayRecv {
                buffer: BufferId(r.u64()?),
                total_bytes: r.u64()?,
                chunk_bytes: r.u64()?,
                children: decode_children(&mut r)?,
            },
            KIND_RELAY_FEED => EventRequest::RelayFeed {
                buffer: BufferId(r.u64()?),
                chunk_bytes: r.u64()?,
                children: decode_children(&mut r)?,
            },
            KIND_RESET => EventRequest::Reset,
            KIND_SHUTDOWN => EventRequest::Shutdown,
            KIND_KILL => EventRequest::Kill,
            other => {
                return Err(OmpcError::Internal(format!("unknown event kind {other}")));
            }
        };
        Ok(Self { request, tag, comm, timed })
    }
}

/// Worker-side timestamps of one composite task, captured on the worker
/// thread when the event envelope carried the `timed` flag and shipped home
/// inside the typed reply ([`EventReply::OkTimed`]). All values are
/// microseconds on the process-global monotonic telemetry clock
/// ([`crate::runtime::telemetry::monotonic_us`]) — workers are threads of
/// the head's process, so these stamps compare directly with head-side
/// span stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskStamps {
    /// When the handler picked the event up (gate hand-off complete).
    pub recv_us: u64,
    /// When the task's data-movement steps (receives, awaits, allocs)
    /// finished and the kernel was ready to run.
    pub deps_us: u64,
    /// When the kernel body started.
    pub exec_start_us: u64,
    /// When the kernel body finished.
    pub exec_end_us: u64,
}

impl TaskStamps {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.recv_us);
        w.u64(self.deps_us);
        w.u64(self.exec_start_us);
        w.u64(self.exec_end_us);
    }

    fn decode(r: &mut Reader<'_>) -> OmpcResult<Self> {
        Ok(Self {
            recv_us: r.u64()?,
            deps_us: r.u64()?,
            exec_start_us: r.u64()?,
            exec_end_us: r.u64()?,
        })
    }
}

/// Status byte of a successful [`EventReply`].
const REPLY_OK: u8 = 0;
/// Status byte of a failed [`EventReply`].
const REPLY_ERR: u8 = 1;
/// Status byte of a successful reply carrying worker-side [`TaskStamps`].
const REPLY_OK_TIMED: u8 = 2;

const ERR_UNKNOWN_BUFFER: u8 = 1;
const ERR_UNKNOWN_KERNEL: u8 = 2;
const ERR_REGION_ALREADY_RUN: u8 = 3;
const ERR_COMMUNICATION: u8 = 4;
const ERR_NODE_FAILURE: u8 = 5;
const ERR_INVALID_CONFIG: u8 = 6;
const ERR_SHUT_DOWN: u8 = 7;
const ERR_INTERNAL: u8 = 8;
const ERR_REMOTE_EVENT: u8 = 9;

fn encode_error(w: &mut Writer, error: &OmpcError) {
    match error {
        OmpcError::UnknownBuffer(b) => {
            w.u8(ERR_UNKNOWN_BUFFER);
            w.u64(b.0);
        }
        OmpcError::UnknownKernel(k) => {
            w.u8(ERR_UNKNOWN_KERNEL);
            w.u64(k.0 as u64);
        }
        OmpcError::RegionAlreadyRun => w.u8(ERR_REGION_ALREADY_RUN),
        OmpcError::Communication(m) => {
            w.u8(ERR_COMMUNICATION);
            w.string(m);
        }
        OmpcError::NodeFailure(n) => {
            w.u8(ERR_NODE_FAILURE);
            w.u64(*n as u64);
        }
        OmpcError::InvalidConfig(m) => {
            w.u8(ERR_INVALID_CONFIG);
            w.string(m);
        }
        OmpcError::ShutDown => w.u8(ERR_SHUT_DOWN),
        OmpcError::Internal(m) => {
            w.u8(ERR_INTERNAL);
            w.string(m);
        }
        OmpcError::RemoteEvent { node, event, error } => {
            w.u8(ERR_REMOTE_EVENT);
            w.u64(*node as u64);
            w.u64(*event);
            encode_error(w, error);
        }
    }
}

fn decode_error(r: &mut Reader<'_>) -> OmpcResult<OmpcError> {
    Ok(match r.u8()? {
        ERR_UNKNOWN_BUFFER => OmpcError::UnknownBuffer(BufferId(r.u64()?)),
        ERR_UNKNOWN_KERNEL => OmpcError::UnknownKernel(KernelId(r.u64()? as usize)),
        ERR_REGION_ALREADY_RUN => OmpcError::RegionAlreadyRun,
        ERR_COMMUNICATION => OmpcError::Communication(r.string()?),
        ERR_NODE_FAILURE => OmpcError::NodeFailure(r.u64()? as NodeId),
        ERR_INVALID_CONFIG => OmpcError::InvalidConfig(r.string()?),
        ERR_SHUT_DOWN => OmpcError::ShutDown,
        ERR_INTERNAL => OmpcError::Internal(r.string()?),
        ERR_REMOTE_EVENT => OmpcError::RemoteEvent {
            node: r.u64()? as NodeId,
            event: r.u64()?,
            error: Box::new(decode_error(r)?),
        },
        other => return Err(OmpcError::Internal(format!("unknown error code {other}"))),
    })
}

/// The typed reply every dispatched event produces on its exclusive
/// channel: the success payload (completion data, byte counts, or empty),
/// or the error the destination's handler raised. Workers wrap handler
/// errors as [`OmpcError::RemoteEvent`] before replying, so the head node
/// always learns *which* node and *which* event failed.
///
/// ```
/// use ompc_core::protocol::EventReply;
/// use ompc_core::types::{BufferId, OmpcError};
///
/// let ok = EventReply::Ok(vec![1, 2, 3]);
/// assert_eq!(EventReply::decode(&ok.encode()).unwrap(), ok);
///
/// let err = EventReply::Err(OmpcError::RemoteEvent {
///     node: 2,
///     event: 41,
///     error: Box::new(OmpcError::UnknownBuffer(BufferId(7))),
/// });
/// let decoded = EventReply::decode(&err.encode()).unwrap();
/// assert_eq!(decoded.into_result().unwrap_err().origin_node(), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventReply {
    /// The event completed; the payload is event-specific (often empty).
    Ok(Vec<u8>),
    /// The event completed and the notification's `timed` flag was set:
    /// the payload is preceded by the worker-side [`TaskStamps`]. Origins
    /// that don't care ([`EventReply::into_result`]) see it as a plain
    /// success.
    OkTimed(TaskStamps, Vec<u8>),
    /// The event failed on the destination node.
    Err(OmpcError),
}

impl EventReply {
    /// Serialize for transmission on the event channel.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            EventReply::Ok(payload) => {
                w.u8(REPLY_OK);
                w.bytes(payload);
            }
            EventReply::OkTimed(stamps, payload) => {
                w.u8(REPLY_OK_TIMED);
                stamps.encode(&mut w);
                w.bytes(payload);
            }
            EventReply::Err(error) => {
                w.u8(REPLY_ERR);
                encode_error(&mut w, error);
            }
        }
        w.0
    }

    /// Parse a reply received on an event channel.
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(data);
        match r.u8()? {
            REPLY_OK => Ok(EventReply::Ok(r.rest())),
            REPLY_OK_TIMED => {
                let stamps = TaskStamps::decode(&mut r)?;
                Ok(EventReply::OkTimed(stamps, r.rest()))
            }
            REPLY_ERR => Ok(EventReply::Err(decode_error(&mut r)?)),
            other => Err(OmpcError::Internal(format!("unknown reply status {other}"))),
        }
    }

    /// Convert into the `Result` the origin side consumes. Worker stamps,
    /// if any, are dropped — use [`EventReply::into_timed_result`] to keep
    /// them.
    pub fn into_result(self) -> OmpcResult<Vec<u8>> {
        self.into_timed_result().map(|(payload, _)| payload)
    }

    /// Convert into the origin-side `Result`, preserving the worker-side
    /// stamps of an [`EventReply::OkTimed`].
    pub fn into_timed_result(self) -> OmpcResult<(Vec<u8>, Option<TaskStamps>)> {
        match self {
            EventReply::Ok(payload) => Ok((payload, None)),
            EventReply::OkTimed(stamps, payload) => Ok((payload, Some(stamps))),
            EventReply::Err(error) => Err(error),
        }
    }
}

/// The compact notice a worker posts to the head's [`COMPLETION_TAG`]
/// channel after sending a composite-task reply: just the finished task's
/// event tag and its outcome. The reply itself (payload or typed error) is
/// already sitting in the head's mailbox on the task's exclusive channel —
/// sends are eager — so the head turns a notice into the full reply with
/// one guaranteed-ready receive instead of probing every in-flight task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionNotice {
    /// Event tag of the finished composite task.
    pub tag: Tag,
    /// Whether the task's reply is `Ok` (informational; the reply is
    /// authoritative).
    pub ok: bool,
}

impl CompletionNotice {
    /// Serialize for transmission on [`COMPLETION_TAG`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.tag.0);
        w.u8(self.ok as u8);
        w.0
    }

    /// Parse a notice received on [`COMPLETION_TAG`].
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(data);
        let tag = Tag(r.u64()?);
        let ok = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(OmpcError::Internal(format!("unknown notice status {other}")));
            }
        };
        Ok(Self { tag, ok })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(request: EventRequest) {
        for timed in [false, true] {
            let n = EventNotification {
                request: request.clone(),
                tag: Tag(42),
                comm: CommId(3),
                timed,
            };
            let decoded = EventNotification::decode(&n.encode()).unwrap();
            assert_eq!(decoded, n);
        }
    }

    #[test]
    fn all_event_kinds_round_trip() {
        round_trip(EventRequest::Alloc { buffer: BufferId(7), size: 1024 });
        round_trip(EventRequest::Delete { buffer: BufferId(7) });
        round_trip(EventRequest::Submit { buffer: BufferId(1) });
        round_trip(EventRequest::Retrieve { buffer: BufferId(2) });
        round_trip(EventRequest::ExchangeSend { buffer: BufferId(3), to: 5 });
        round_trip(EventRequest::ExchangeRecv { buffer: BufferId(3), from: 2 });
        round_trip(EventRequest::Execute {
            kernel: KernelId(9),
            buffers: vec![BufferId(1), BufferId(2), BufferId(3)],
        });
        round_trip(EventRequest::Reset);
        round_trip(EventRequest::Shutdown);
        round_trip(EventRequest::Kill);
    }

    #[test]
    fn composite_task_round_trips_every_step_kind() {
        round_trip(EventRequest::Task(TaskSpec { steps: vec![] }));
        round_trip(EventRequest::Task(TaskSpec {
            steps: vec![
                TaskStep::Delete { buffer: BufferId(9) },
                TaskStep::RecvFromHead { buffer: BufferId(1) },
                TaskStep::RecvFromWorker { buffer: BufferId(2), from: 4 },
                TaskStep::AwaitLocal { buffer: BufferId(3), timeout_ms: 60_000 },
                TaskStep::Alloc { buffer: BufferId(4), size: 4096 },
                TaskStep::Execute {
                    kernel: KernelId(7),
                    buffers: vec![BufferId(1), BufferId(2), BufferId(3), BufferId(4)],
                },
            ],
        }));
    }

    #[test]
    fn submit_train_round_trips_and_rejects_truncation() {
        round_trip(EventRequest::SubmitTrain { buffers: vec![] });
        round_trip(EventRequest::SubmitTrain {
            buffers: vec![BufferId(3), BufferId(1), BufferId(u64::MAX)],
        });
        let n = EventNotification {
            request: EventRequest::SubmitTrain { buffers: vec![BufferId(5), BufferId(6)] },
            tag: Tag(20),
            comm: CommId(1),
            timed: false,
        };
        let bytes = n.encode();
        for cut in 1..=16 {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        assert_eq!(n.request.name(), "submit-train");
    }

    #[test]
    fn relay_events_round_trip_and_reject_truncation() {
        round_trip(EventRequest::RelayRecv {
            buffer: BufferId(5),
            total_bytes: 1 << 20,
            chunk_bytes: 64 * 1024,
            children: vec![],
        });
        round_trip(EventRequest::RelayFeed {
            buffer: BufferId(2),
            chunk_bytes: 0,
            children: vec![RelayChild { node: 3, tag: Tag(91), comm: CommId(1) }],
        });
        let n = EventNotification {
            request: EventRequest::RelayRecv {
                buffer: BufferId(7),
                total_bytes: 4096,
                chunk_bytes: 1024,
                children: vec![
                    RelayChild { node: 2, tag: Tag(40), comm: CommId(0) },
                    RelayChild { node: 4, tag: Tag(41), comm: CommId(1) },
                ],
            },
            tag: Tag(39),
            comm: CommId(1),
            timed: false,
        };
        let bytes = n.encode();
        assert_eq!(EventNotification::decode(&bytes).unwrap(), n);
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        let f = EventNotification {
            request: EventRequest::RelayFeed {
                buffer: BufferId(7),
                chunk_bytes: 1024,
                children: vec![RelayChild { node: 2, tag: Tag(40), comm: CommId(0) }],
            },
            tag: Tag(44),
            comm: CommId(0),
            timed: false,
        };
        let bytes = f.encode();
        assert_eq!(EventNotification::decode(&bytes).unwrap(), f);
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        assert_eq!(n.request.name(), "relay-recv");
        assert_eq!(f.request.name(), "relay-feed");
    }

    #[test]
    fn relay_frames_round_trip_and_count_correctly() {
        let frame = encode_relay_frame(3, &[9, 8, 7]);
        assert_eq!(decode_relay_frame(&frame).unwrap(), (3, vec![9, 8, 7]));
        // An empty payload is legal (zero-length buffers still broadcast).
        let empty = encode_relay_frame(0, &[]);
        assert_eq!(decode_relay_frame(&empty).unwrap(), (0, vec![]));
        // Anything shorter than the index header is rejected.
        assert!(decode_relay_frame(&frame[..7]).is_err());
        assert!(decode_relay_frame(&[]).is_err());
        // Frame counts: whole-buffer when unchunked, ceil-div otherwise,
        // and always at least one so receivers terminate.
        assert_eq!(relay_frame_count(1 << 20, 0), 1);
        assert_eq!(relay_frame_count(0, 4096), 1);
        assert_eq!(relay_frame_count(4096, 4096), 1);
        assert_eq!(relay_frame_count(4097, 4096), 2);
        assert_eq!(relay_frame_count(3 * 4096, 4096), 3);
    }

    #[test]
    fn prefetch_tag_is_reserved_below_the_event_range() {
        assert_ne!(PREFETCH_TAG, CONTROL_TAG);
        assert_ne!(PREFETCH_TAG, COMPLETION_TAG);
        // Evaluated through a binding so the reservation reads as a
        // runtime check without tripping clippy's const-assert lint.
        let first_event_tag = FIRST_EVENT_TAG;
        assert!(PREFETCH_TAG.0 < first_event_tag);
    }

    #[test]
    fn completion_notices_round_trip_and_reject_garbage() {
        for notice in [
            CompletionNotice { tag: Tag(2), ok: true },
            CompletionNotice { tag: Tag(u64::MAX), ok: false },
        ] {
            assert_eq!(CompletionNotice::decode(&notice.encode()).unwrap(), notice);
        }
        assert!(CompletionNotice::decode(&[]).is_err());
        assert!(CompletionNotice::decode(&[0; 8]).is_err());
        let mut bad = CompletionNotice { tag: Tag(1), ok: true }.encode();
        bad[8] = 7;
        assert!(CompletionNotice::decode(&bad).is_err());
    }

    #[test]
    fn completion_tag_is_reserved_below_the_event_range() {
        assert_ne!(COMPLETION_TAG, CONTROL_TAG);
        let first_event = FIRST_EVENT_TAG;
        assert!(COMPLETION_TAG.0 < first_event);
    }

    #[test]
    fn truncated_task_spec_is_an_error() {
        let n = EventNotification {
            request: EventRequest::Task(TaskSpec {
                steps: vec![TaskStep::Alloc { buffer: BufferId(1), size: 64 }],
            }),
            tag: Tag(5),
            comm: CommId(0),
            timed: false,
        };
        let bytes = n.encode();
        assert!(EventNotification::decode(&bytes[..bytes.len() - 1]).is_err());
        // Corrupt the step kind.
        let mut bad = bytes.clone();
        let step_kind_pos = bad.len() - 17; // step kind byte before two u64 operands
        bad[step_kind_pos] = 99;
        assert!(EventNotification::decode(&bad).is_err());
    }

    #[test]
    fn replies_round_trip_ok_and_err() {
        for reply in [
            EventReply::Ok(Vec::new()),
            EventReply::Ok(vec![0, 1, 2, 255]),
            EventReply::Err(OmpcError::UnknownBuffer(BufferId(9))),
            EventReply::Err(OmpcError::UnknownKernel(KernelId(3))),
            EventReply::Err(OmpcError::NodeFailure(4)),
            EventReply::Err(OmpcError::ShutDown),
            EventReply::Err(OmpcError::RegionAlreadyRun),
            EventReply::Err(OmpcError::Communication("lost".to_string())),
            EventReply::Err(OmpcError::InvalidConfig("bad".to_string())),
            EventReply::Err(OmpcError::Internal("oops".to_string())),
            EventReply::Err(OmpcError::RemoteEvent {
                node: 3,
                event: 77,
                error: Box::new(OmpcError::UnknownKernel(KernelId(12))),
            }),
        ] {
            assert_eq!(EventReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_or_garbage_reply_is_an_error() {
        assert!(EventReply::decode(&[]).is_err());
        assert!(EventReply::decode(&[9]).is_err());
        let err = EventReply::Err(OmpcError::Internal("x".to_string())).encode();
        assert!(EventReply::decode(&err[..err.len() - 1]).is_err());
    }

    #[test]
    fn execute_with_no_buffers_round_trips() {
        round_trip(EventRequest::Execute { kernel: KernelId(0), buffers: vec![] });
    }

    #[test]
    fn truncated_notification_is_an_error() {
        let n = EventNotification {
            request: EventRequest::Alloc { buffer: BufferId(7), size: 1024 },
            tag: Tag(1),
            comm: CommId(0),
            timed: false,
        };
        let bytes = n.encode();
        assert!(EventNotification::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(EventNotification::decode(&[]).is_err());
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let mut bytes = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(1),
            comm: CommId(0),
            timed: false,
        }
        .encode();
        let last = bytes.len() - 1;
        bytes[last] = 99;
        assert!(EventNotification::decode(&bytes).is_err());
    }

    #[test]
    fn timed_flag_round_trips_and_rejects_garbage() {
        let n = EventNotification {
            request: EventRequest::Task(TaskSpec { steps: vec![] }),
            tag: Tag(3),
            comm: CommId(1),
            timed: true,
        };
        let mut bytes = n.encode();
        assert_eq!(EventNotification::decode(&bytes).unwrap(), n);
        // The timed byte sits right after the u64 tag + u32 comm.
        assert_eq!(bytes[12], 1);
        bytes[12] = 9;
        assert!(EventNotification::decode(&bytes).is_err());
    }

    #[test]
    fn timed_replies_round_trip_and_degrade_to_plain_ok() {
        let stamps = TaskStamps { recv_us: 10, deps_us: 20, exec_start_us: 21, exec_end_us: 99 };
        let reply = EventReply::OkTimed(stamps, vec![4, 5, 6]);
        let decoded = EventReply::decode(&reply.encode()).unwrap();
        assert_eq!(decoded, reply);
        // Stamp-oblivious origins read the payload exactly as for Ok.
        assert_eq!(decoded.clone().into_result().unwrap(), vec![4, 5, 6]);
        assert_eq!(decoded.into_timed_result().unwrap(), (vec![4, 5, 6], Some(stamps)));
        // An empty-payload timed reply round-trips too (stamps are fixed
        // width, so no payload/stamp ambiguity).
        let empty = EventReply::OkTimed(stamps, Vec::new());
        assert_eq!(EventReply::decode(&empty.encode()).unwrap(), empty);
        // Truncated stamps are an error, not a short payload.
        let bytes = EventReply::OkTimed(stamps, Vec::new()).encode();
        assert!(EventReply::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventRequest::Shutdown.name(), "shutdown");
        assert_eq!(EventRequest::Reset.name(), "reset");
        assert_eq!(EventRequest::Retrieve { buffer: BufferId(0) }.name(), "retrieve");
        assert_eq!(
            EventRequest::Execute { kernel: KernelId(0), buffers: vec![] }.name(),
            "execute"
        );
    }
}

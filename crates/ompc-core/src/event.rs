//! The origin (head-node) side of the MPI-based event system (paper §4.2).
//!
//! Every operation on a worker node is an *event*: the head allocates a
//! fresh tag, picks a communicator round-robin, sends a new-event
//! notification to the destination's gate thread, exchanges any payload
//! messages on the `(tag, communicator)` channel, and finally waits for the
//! **typed reply** ([`crate::protocol::EventReply`]) on that same channel.
//! Because the tag is unique per event and shared only with the
//! destination, concurrent events cannot cross-talk even though many head
//! worker threads issue them at the same time.
//!
//! A reply is either `Ok(payload)` or `Err(OmpcError)`: worker-side handler
//! failures (unregistered kernels, missing buffers, killed nodes) come back
//! as [`crate::types::OmpcError::RemoteEvent`] values naming the origin
//! node and event tag, never as a silently missing completion. As a last
//! line of defence against a reply that can never arrive (a worker thread
//! that died without answering), every wait is additionally bounded by
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`].

use crate::protocol::{
    EventNotification, EventReply, EventRequest, TaskStamps, CONTROL_TAG, FIRST_EVENT_TAG,
    PREFETCH_TAG,
};
use crate::types::{BufferId, KernelId, NodeId, OmpcResult};
use ompc_mpi::{CommId, Communicator, Tag};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters describing the event traffic of a device lifetime.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Number of events issued.
    pub events: AtomicU64,
    /// Number of data-carrying events (submit / retrieve / exchange).
    pub data_events: AtomicU64,
    /// Bytes moved by data-carrying events.
    pub bytes_moved: AtomicU64,
}

impl EventCounters {
    pub(crate) fn record(&self, data_bytes: Option<u64>) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(bytes) = data_bytes {
            self.data_events.fetch_add(1, Ordering::Relaxed);
            self.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// Head-node handle used to drive worker nodes through events.
#[derive(Debug)]
pub struct EventSystem {
    comm: Communicator,
    next_tag: AtomicU64,
    counters: EventCounters,
    /// Upper bound on any single reply wait; `None` waits forever.
    reply_timeout: Option<Duration>,
}

impl EventSystem {
    /// Create an event system over the head node's world communicator, with
    /// reply waits unbounded.
    pub fn new(comm: Communicator) -> Self {
        Self::with_reply_timeout(comm, None)
    }

    /// [`EventSystem::new`] with an explicit bound on every reply wait.
    pub fn with_reply_timeout(comm: Communicator, reply_timeout: Option<Duration>) -> Self {
        Self {
            comm,
            next_tag: AtomicU64::new(FIRST_EVENT_TAG),
            counters: EventCounters::default(),
            reply_timeout,
        }
    }

    /// Wait for the typed reply of the event on `(tag, comm)` from `node`
    /// and convert it into the event's result. Worker-side errors arrive
    /// as decoded [`crate::types::OmpcError::RemoteEvent`] values; a timed-out or
    /// undeliverable reply is a [`crate::types::OmpcError::Communication`].
    fn await_reply(&self, node: NodeId, tag: Tag, comm: CommId) -> OmpcResult<Vec<u8>> {
        self.await_reply_timed(node, tag, comm).map(|(payload, _)| payload)
    }

    /// [`EventSystem::await_reply`], preserving the worker-side telemetry
    /// stamps of a timed reply (`None` for ordinary replies).
    fn await_reply_timed(
        &self,
        node: NodeId,
        tag: Tag,
        comm: CommId,
    ) -> OmpcResult<(Vec<u8>, Option<TaskStamps>)> {
        let channel = self.comm.on(comm)?;
        let msg = match self.reply_timeout {
            Some(timeout) => channel.recv_timeout(Some(node), Some(tag), timeout)?,
            None => channel.recv(Some(node), Some(tag))?,
        };
        EventReply::decode(&msg.data)?.into_timed_result()
    }

    /// Traffic counters (events issued, data events, bytes).
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// Allocate an exclusive `(tag, communicator)` channel for a new event.
    /// Communicators are chosen round-robin by tag, mirroring the paper's
    /// mapping of events onto MPICH virtual communication interfaces. Also
    /// used by the message-passing `MpiBackend`, so composite task events
    /// and this system's synchronous events share one device-unique tag
    /// space.
    pub(crate) fn open_channel(&self) -> (Tag, CommId) {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let comm = CommId((tag % u64::from(self.comm.num_communicators())) as u32);
        (Tag(tag), comm)
    }

    /// The head node's communicator handle, for backends that probe and
    /// receive replies themselves instead of blocking per event.
    pub(crate) fn communicator(&self) -> &Communicator {
        &self.comm
    }

    /// The configured upper bound on any single reply wait.
    pub(crate) fn reply_timeout(&self) -> Option<Duration> {
        self.reply_timeout
    }

    pub(crate) fn notify(&self, node: NodeId, notification: &EventNotification) -> OmpcResult<()> {
        self.comm.send(node, CONTROL_TAG, notification.encode())?;
        Ok(())
    }

    /// Allocate `size` bytes for `buffer` on `node` and wait for the reply.
    pub fn alloc(&self, node: NodeId, buffer: BufferId, size: usize) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification {
                request: EventRequest::Alloc { buffer, size: size as u64 },
                tag,
                comm,
                timed: false,
            },
        )?;
        self.await_reply(node, tag, comm)?;
        self.counters.record(None);
        Ok(())
    }

    /// Free `buffer` on `node` and wait for the reply.
    pub fn delete(&self, node: NodeId, buffer: BufferId) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification {
                request: EventRequest::Delete { buffer },
                tag,
                comm,
                timed: false,
            },
        )?;
        self.await_reply(node, tag, comm)?;
        self.counters.record(None);
        Ok(())
    }

    /// Copy `data` into `buffer` on `node` (host → worker) and wait for the
    /// reply.
    pub fn submit(&self, node: NodeId, buffer: BufferId, data: Vec<u8>) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        let bytes = data.len() as u64;
        self.notify(
            node,
            &EventNotification {
                request: EventRequest::Submit { buffer },
                tag,
                comm,
                timed: false,
            },
        )?;
        self.comm.on(comm)?.send(node, tag, data)?;
        self.await_reply(node, tag, comm)?;
        self.counters.record(Some(bytes));
        Ok(())
    }

    /// Copy several buffers to `node` in one event (host → worker), a
    /// *prefetch train*: one gate notification, the payloads streaming in
    /// order on the train's own channel, one typed reply for the whole
    /// train. The worker additionally posts exactly one
    /// [`crate::protocol::CompletionNotice`] on [`PREFETCH_TAG`] — in both
    /// its handler and zombie-refusal paths — which this call drains after
    /// the reply so the any-source prefetch channel never accumulates
    /// orphans. A train is all-or-nothing on the wire: a failed car fails
    /// the whole event and the caller rolls back every booked copy.
    pub fn submit_train(&self, node: NodeId, cars: Vec<(BufferId, Vec<u8>)>) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        let buffers: Vec<BufferId> = cars.iter().map(|(b, _)| *b).collect();
        let sizes: Vec<u64> = cars.iter().map(|(_, d)| d.len() as u64).collect();
        self.notify(
            node,
            &EventNotification {
                request: EventRequest::SubmitTrain { buffers },
                tag,
                comm,
                timed: false,
            },
        )?;
        let channel = self.comm.on(comm)?;
        for (_, data) in cars {
            channel.send(node, tag, data)?;
        }
        let outcome = self.await_reply(node, tag, comm).map(|_| ());
        // Drain the train's single prefetch notice regardless of outcome
        // (the zombie refusal path posts one too); leaving it behind would
        // let a later train drain a stale notice for the wrong event.
        let _ = match self.reply_timeout {
            Some(timeout) => {
                self.comm.recv_timeout(Some(node), Some(PREFETCH_TAG), timeout).map(|msg| msg.data)
            }
            None => self.comm.recv(Some(node), Some(PREFETCH_TAG)).map(|msg| msg.data),
        };
        outcome?;
        for bytes in sizes {
            self.counters.record(Some(bytes));
        }
        Ok(())
    }

    /// Fetch the contents of `buffer` from `node` (worker → host).
    pub fn retrieve(&self, node: NodeId, buffer: BufferId) -> OmpcResult<Vec<u8>> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification {
                request: EventRequest::Retrieve { buffer },
                tag,
                comm,
                timed: false,
            },
        )?;
        let data = self.await_reply(node, tag, comm)?;
        self.counters.record(Some(data.len() as u64));
        Ok(data)
    }

    /// Forward `buffer` directly from worker `from` to worker `to` without
    /// staging it on the head node, and wait for the receiver's reply.
    /// Returns the number of bytes the receiver acknowledged. A failure of
    /// the *sending* half travels through the receiver (the sender forwards
    /// its error envelope instead of the data), so the head never hangs on
    /// a half-completed exchange.
    pub fn exchange(&self, from: NodeId, to: NodeId, buffer: BufferId) -> OmpcResult<u64> {
        let (tag, comm) = self.open_channel();
        self.notify(
            to,
            &EventNotification {
                request: EventRequest::ExchangeRecv { buffer, from },
                tag,
                comm,
                timed: false,
            },
        )?;
        self.notify(
            from,
            &EventNotification {
                request: EventRequest::ExchangeSend { buffer, to },
                tag,
                comm,
                timed: false,
            },
        )?;
        let ack = self.await_reply(to, tag, comm)?;
        let bytes =
            u64::from_le_bytes(ack.get(..8).unwrap_or(&[0u8; 8]).try_into().unwrap_or([0u8; 8]));
        self.counters.record(Some(bytes));
        Ok(bytes)
    }

    /// Run `kernel` on `node` against its device copies of `buffers` and
    /// wait for the reply. An unregistered kernel comes back as
    /// [`crate::types::OmpcError::RemoteEvent`] wrapping
    /// [`crate::types::OmpcError::UnknownKernel`] — not as a hang.
    pub fn execute(
        &self,
        node: NodeId,
        kernel: KernelId,
        buffers: Vec<BufferId>,
    ) -> OmpcResult<()> {
        self.execute_timed(node, kernel, buffers, false).map(|_| ())
    }

    /// [`EventSystem::execute`] with the notification's `timed` flag under
    /// caller control: with `timed`, the worker captures its receive /
    /// dependence-wait / kernel timestamps and the reply carries them back
    /// ([`TaskStamps`]). With `timed = false` this is byte-identical to
    /// [`EventSystem::execute`] and the worker reads no clock.
    pub fn execute_timed(
        &self,
        node: NodeId,
        kernel: KernelId,
        buffers: Vec<BufferId>,
        timed: bool,
    ) -> OmpcResult<Option<TaskStamps>> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification {
                request: EventRequest::Execute { kernel, buffers },
                tag,
                comm,
                timed,
            },
        )?;
        let (_, stamps) = self.await_reply_timed(node, tag, comm)?;
        self.counters.record(None);
        Ok(stamps)
    }

    /// Clear `node`'s device memory and wait for the acknowledgement —
    /// issued between device lifetimes when warm workers are recycled, so
    /// an adopted worker pool starts from an empty device state.
    pub fn reset(&self, node: NodeId) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification { request: EventRequest::Reset, tag, comm, timed: false },
        )?;
        self.await_reply(node, tag, comm)?;
        Ok(())
    }

    /// Zero the traffic counters (warm-worker adoption: the next device
    /// lifetime starts counting from scratch).
    pub(crate) fn reset_counters(&self) {
        self.counters.events.store(0, Ordering::Relaxed);
        self.counters.data_events.store(0, Ordering::Relaxed);
        self.counters.bytes_moved.store(0, Ordering::Relaxed);
    }

    /// Kill `node`'s event loop for real (failure injection): the node
    /// stops executing events and answers every later one with an error
    /// reply. Fire-and-forget — the injector must not block on the node it
    /// just declared dead.
    pub fn kill(&self, node: NodeId) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification { request: EventRequest::Kill, tag, comm, timed: false },
        )?;
        Ok(())
    }

    /// Tell `node` to leave its gate loop and terminate.
    pub fn shutdown(&self, node: NodeId) -> OmpcResult<()> {
        let (tag, comm) = self.open_channel();
        self.notify(
            node,
            &EventNotification { request: EventRequest::Shutdown, tag, comm, timed: false },
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_are_unique_and_round_robin_over_communicators() {
        let world = ompc_mpi::World::with_communicators(2, 4);
        let es = EventSystem::new(world.communicator(0));
        let mut tags = Vec::new();
        let mut comms = Vec::new();
        for _ in 0..8 {
            let (tag, comm) = es.open_channel();
            tags.push(tag);
            comms.push(comm.0);
        }
        let mut unique = tags.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), tags.len(), "event tags must be unique");
        // All four communicators get used.
        let mut cs = comms.clone();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), 4);
    }

    #[test]
    fn counters_record_events_and_bytes() {
        let c = EventCounters::default();
        c.record(None);
        c.record(Some(100));
        c.record(Some(50));
        assert_eq!(c.events.load(Ordering::Relaxed), 3);
        assert_eq!(c.data_events.load(Ordering::Relaxed), 2);
        assert_eq!(c.bytes_moved.load(Ordering::Relaxed), 150);
    }
}

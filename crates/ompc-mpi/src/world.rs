//! The [`World`]: the set of ranks and the shared state backing them.

use crate::comm::Communicator;
use crate::mailbox::Mailbox;
use crate::types::{CommId, Rank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Per-rank bookkeeping shared by every [`Communicator`] clone of that rank.
#[derive(Debug)]
pub(crate) struct RankState {
    /// Monotonic send sequence number towards each destination rank, used to
    /// stamp envelopes (diagnostic ordering information).
    pub(crate) send_seq: Vec<AtomicU64>,
    /// The rank's emulated egress link: the instant the link finishes
    /// transmitting everything reserved so far. Each paced send reserves
    /// its own wire slot on this shared timeline and then sleeps until its
    /// scheduled finish, so concurrent senders of one rank serialize the
    /// way they would on a single NIC — and sleep overshoot never
    /// accumulates into the timeline itself.
    pub(crate) egress: Mutex<Option<std::time::Instant>>,
}

/// Global state shared by every rank of a [`World`].
#[derive(Debug)]
pub(crate) struct WorldInner {
    pub(crate) size: usize,
    pub(crate) num_comms: u32,
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    pub(crate) rank_states: Vec<RankState>,
    /// Emulated per-rank link bandwidth in bytes per second; `0` (the
    /// default) delivers at memcpy speed with no pacing at all.
    pub(crate) link_bytes_per_sec: AtomicU64,
}

impl WorldInner {
    /// Occupy `rank`'s emulated egress link for the wire time of `bytes`:
    /// reserve the next slot on the rank's link timeline, then sleep until
    /// this message's scheduled transmission finish. A no-op unless a link
    /// bandwidth has been configured.
    pub(crate) fn pace_egress(&self, rank: Rank, bytes: usize) {
        let bw = self.link_bytes_per_sec.load(Ordering::Relaxed);
        if bw == 0 || bytes == 0 {
            return;
        }
        let wire = std::time::Duration::from_secs_f64(bytes as f64 / bw as f64);
        let now = std::time::Instant::now();
        let finish = {
            let mut free_at =
                self.rank_states[rank].egress.lock().unwrap_or_else(|e| e.into_inner());
            let start = free_at.map_or(now, |t| t.max(now));
            let finish = start + wire;
            *free_at = Some(finish);
            finish
        };
        // Sleep only once the reserved backlog exceeds a slack window:
        // `thread::sleep` overshoots by a scheduler-dependent amount per
        // call, so sleeping per message would tax a chunked stream once
        // per *frame* while a whole-buffer send of the same bytes pays
        // once. Amortizing over the slack makes the pacing error
        // proportional to bytes, not message count — small control
        // messages never sleep at all.
        const SLACK: std::time::Duration = std::time::Duration::from_millis(1);
        if finish > now + SLACK {
            std::thread::sleep(finish - now);
        }
    }
}

/// A fixed-size set of communicating ranks, analogous to `MPI_COMM_WORLD`
/// plus the process launcher.
///
/// A world can be used in two ways:
///
/// * [`World::launch`] spawns one OS thread per rank, hands each a
///   [`Communicator`] on the world communicator, and returns the join
///   handles — this is how the real-mode OMPC cluster runs.
/// * [`World::communicator`] hands out communicator handles directly so a
///   single test (or the simulator) can drive several ranks explicitly.
#[derive(Debug, Clone)]
pub struct World {
    inner: Arc<WorldInner>,
}

impl World {
    /// Create a world of `size` ranks with a single (world) communicator.
    pub fn new(size: usize) -> Self {
        Self::with_communicators(size, 1)
    }

    /// Create a world of `size` ranks with `num_comms` communicators
    /// (`CommId(0)` … `CommId(num_comms - 1)`); the OMPC event system uses
    /// several communicators in a round-robin fashion, mirroring the paper's
    /// use of MPICH virtual communication interfaces.
    pub fn with_communicators(size: usize, num_comms: u32) -> Self {
        assert!(size > 0, "a world needs at least one rank");
        assert!(num_comms > 0, "a world needs at least one communicator");
        let mailboxes = (0..size).map(|r| Mailbox::new(r, size)).collect();
        let rank_states = (0..size)
            .map(|_| RankState {
                send_seq: (0..size).map(|_| AtomicU64::new(0)).collect(),
                egress: Mutex::new(None),
            })
            .collect();
        Self {
            inner: Arc::new(WorldInner {
                size,
                num_comms,
                mailboxes,
                rank_states,
                link_bytes_per_sec: AtomicU64::new(0),
            }),
        }
    }

    /// Emulate a finite per-rank link: every send occupies its source
    /// rank's egress for `bytes / bytes_per_sec` seconds, serializing
    /// concurrent sends of one rank the way a single NIC would. `0`
    /// restores the default memcpy-speed delivery. Benchmarks use this to
    /// make source-link congestion measurable in wall time; nothing about
    /// delivery order or content changes.
    pub fn set_link_bandwidth(&self, bytes_per_sec: u64) {
        self.inner.link_bytes_per_sec.store(bytes_per_sec, Ordering::Relaxed);
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Number of pre-created communicators.
    pub fn num_communicators(&self) -> u32 {
        self.inner.num_comms
    }

    /// Obtain a communicator handle for `rank` on the world communicator
    /// without spawning a thread. Panics if the rank is out of range.
    pub fn communicator(&self, rank: Rank) -> Communicator {
        assert!(rank < self.inner.size, "rank {rank} out of range");
        Communicator::new(Arc::clone(&self.inner), rank, CommId::WORLD)
    }

    /// Spawn one OS thread per rank running `f(comm)` and return the join
    /// handles in rank order. When a rank function returns, the other ranks
    /// are notified so that receives which can never complete fail instead
    /// of hanging.
    pub fn launch<T, F>(&self, f: F) -> std::vec::IntoIter<JoinHandle<T>>
    where
        T: Send + 'static,
        F: Fn(Communicator) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<JoinHandle<T>> = (0..self.inner.size)
            .map(|rank| {
                let f = Arc::clone(&f);
                let inner = Arc::clone(&self.inner);
                std::thread::Builder::new()
                    .name(format!("ompc-mpi-rank-{rank}"))
                    .spawn(move || {
                        let comm = Communicator::new(Arc::clone(&inner), rank, CommId::WORLD);
                        let out = f(comm);
                        for (r, mb) in inner.mailboxes.iter().enumerate() {
                            if r != rank {
                                mb.peer_terminated();
                            }
                        }
                        out
                    })
                    .expect("failed to spawn rank thread")
            })
            .collect();
        handles.into_iter()
    }

    /// Shut the world down: every blocked receive or probe on any rank
    /// returns [`crate::MpiError::Finalized`]. Intended for error paths and
    /// fault-injection tests; a normal run simply lets the rank functions
    /// return.
    pub fn shutdown(&self) {
        for mb in &self.inner.mailboxes {
            mb.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Tag;

    #[test]
    fn world_reports_size_and_comms() {
        let w = World::with_communicators(4, 8);
        assert_eq!(w.size(), 4);
        assert_eq!(w.num_communicators(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_world_is_rejected() {
        let _ = World::new(0);
    }

    #[test]
    fn direct_communicators_can_exchange_messages() {
        let w = World::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        c0.send(1, Tag(1), vec![1, 2, 3]).unwrap();
        let m = c1.recv(Some(0), Some(Tag(1))).unwrap();
        assert_eq!(m.data, vec![1, 2, 3]);
    }

    #[test]
    fn launch_runs_every_rank_once() {
        let w = World::new(4);
        let results: Vec<usize> = w.launch(|c| c.rank() * 10).map(|h| h.join().unwrap()).collect();
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn shutdown_fails_blocked_receive() {
        let w = World::new(2);
        let c1 = w.communicator(1);
        let w2 = w.clone();
        let t = std::thread::spawn(move || c1.recv(Some(0), Some(Tag(9))));
        std::thread::sleep(std::time::Duration::from_millis(20));
        w2.shutdown();
        assert!(t.join().unwrap().is_err());
    }
}

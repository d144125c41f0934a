//! # ompc-mpi — an in-process MPI-like message-passing substrate
//!
//! The OMPC runtime described in *The OpenMP Cluster Programming Model*
//! (ICPP 2022) uses MPI as its communication layer and relies on a small,
//! precise subset of MPI semantics:
//!
//! * point-to-point messages matched on `(communicator, source, destination,
//!   tag)` with non-overtaking order per matched triple,
//! * non-blocking sends/receives with request objects that can be waited on
//!   or polled,
//! * message probing (used by the gate thread to discover new events),
//! * multiple communicators mapped round-robin to independent progress
//!   channels (the paper maps them to hardware Virtual Communication
//!   Interfaces).
//!
//! There is no production-grade MPI binding in the Rust ecosystem that can
//! run on a laptop without an MPI installation, so this crate implements the
//! semantics above **in process**: every rank is an OS thread and messages
//! travel through lock-protected mailboxes. The matching rules follow the
//! MPI standard closely enough that the event system built on top (see
//! `ompc-core`) exercises the same correctness-critical logic as the paper's
//! implementation: tag isolation, wildcard receives, ordered channels and
//! communicator separation.
//!
//! ## Quick example
//!
//! ```
//! use ompc_mpi::{World, Tag};
//!
//! let world = World::new(2);
//! let handles: Vec<_> = world
//!     .launch(|comm| {
//!         if comm.rank() == 0 {
//!             comm.send(1, Tag(7), b"hello".to_vec()).unwrap();
//!         } else {
//!             let msg = comm.recv(Some(0), Some(Tag(7))).unwrap();
//!             assert_eq!(msg.data, b"hello");
//!         }
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

pub mod comm;
pub mod error;
pub mod mailbox;
pub mod message;
pub mod request;
pub mod typed;
pub mod types;
pub mod world;

pub use comm::Communicator;
pub use error::{MpiError, MpiResult};
pub use message::{Message, MessageEnvelope};
pub use request::{RecvRequest, SendRequest};
pub use types::{CommId, Rank, Status, Tag, ANY_SOURCE, ANY_TAG};
pub use world::World;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_roundtrip() {
        let world = World::new(2);
        let handles: Vec<_> = world
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, Tag(7), b"hello".to_vec()).unwrap();
                } else {
                    let msg = comm.recv(Some(0), Some(Tag(7))).unwrap();
                    assert_eq!(msg.data, b"hello");
                }
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}

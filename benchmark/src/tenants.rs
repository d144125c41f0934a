//! `tenants-rw`: two client threads on one device admitting two regions at
//! once (`max_concurrent_regions = 2`). Each call is a 2-task region:
//! `update` reads a shared 1 MiB table and writes (`inout`) the client's own
//! 64 KiB resident state, then `reduce` reads the state into an 8-byte
//! output that is read back. Every 10th call also reads the state itself
//! back to the host.
//!
//! Why: the same `data_manager` and `cluster` layers as the other
//! workloads, used differently — writes that invalidate replicas and force
//! host flushes, beside shared reads of a settled resident buffer, under
//! concurrent admission, load-aware planning and the MPI notice router. A
//! single-client gain that costs concurrency, or a read-path gain that
//! costs writes, shows here.
//!
//! Settling rule: the table and both states are placed in set-up with
//! `enter_data_async` + `await_transfer`, and each client's warm-up calls
//! run one client at a time. A synchronous `enter_data` followed by
//! concurrent first use is refused by the runtime's concurrent first-touch
//! guard (`OmpcError::InvalidConfig`, the tenancy rule in ARCHITECTURE.md);
//! a first-touch variant of this workload belongs with the change that
//! lifts that rule.
//!
//! Clients write only their own state, so interleaving cannot change a
//! client's outputs: the check replays each client's calls serially on the
//! host after the timed run.

use crate::spans::{SpanId, SpanLog};
use crate::stats::Rng;
use crate::workload::{
    base_config, input_moved_bytes, mapped_input_bytes, read_u64s, CallOut, SetupTimes, Workload,
    WORKERS,
};
use ompc_core::model::region_to_sched;
use ompc_core::prelude::*;
use ompc_mpi::typed::u64s_to_bytes;
use ompc_sched::TaskGraph;
use std::time::Instant;

/// Client threads.
pub const CLIENTS: usize = 2;
/// Shared table, in `u64` words (1 MiB).
const TABLE_WORDS: usize = (1 << 20) / 8;
/// Per-client state, in `u64` words (64 KiB).
const STATE_WORDS: usize = (64 << 10) / 8;
/// Every this many calls a client also reads its state back.
const STATE_READ_EVERY: usize = 10;

/// The `update` kernel body: every state word is mixed with the table word
/// it selects. The table is read in place from its little-endian bytes.
fn update(table: &[u8], state: &mut [u64]) {
    let words = table.len() / 8;
    for s in state.iter_mut() {
        let at = (*s as usize % words) * 8;
        let word = u64::from_le_bytes(table[at..at + 8].try_into().expect("8-byte table word"));
        let mut x = *s ^ word;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *s = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
}

/// The `reduce` kernel body (also the state digest of the periodic reads).
fn reduce(state: &[u64]) -> u64 {
    state.iter().fold(0u64, |acc, &w| acc.rotate_left(5).wrapping_add(w))
}

/// What one call returned: the reduced output and, every
/// `STATE_READ_EVERY` calls, the digest of the state read back.
pub type Digest = (u64, Option<u64>);

pub struct Tenants {
    /// The shared table as the bytes its buffer carries.
    table: Vec<u8>,
    states: Vec<Vec<u64>>,
}

pub struct Session {
    device: ClusterDevice,
    update: KernelId,
    reduce: KernelId,
    table: BufferId,
    states: Vec<BufferId>,
}

impl Tenants {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let table = u64s_to_bytes(&(0..TABLE_WORDS).map(|_| rng.next_u64()).collect::<Vec<_>>());
        let states = (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::new(seed, 10 + c as u64);
                (0..STATE_WORDS).map(|_| rng.next_u64()).collect()
            })
            .collect();
        Tenants { table, states }
    }

    fn build<'d>(&self, session: &'d Session, client: usize) -> (TargetRegion<'d>, BufferId) {
        let state = session.states[client];
        let mut region = session.device.target_region();
        let out = region.map_alloc(8);
        region.target(
            session.update,
            vec![Dependence::input(session.table), Dependence::inout(state)],
        );
        region.target(session.reduce, vec![Dependence::input(state), Dependence::output(out)]);
        region.map_from(out);
        (region, out)
    }
}

impl Workload for Tenants {
    type Session = Session;
    type Digest = Digest;

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn warmup_calls(&self) -> usize {
        STATE_READ_EVERY
    }

    fn config(&self, backend: BackendKind, telemetry: TelemetryLevel) -> OmpcConfig {
        OmpcConfig { max_concurrent_regions: CLIENTS, ..base_config(backend, telemetry) }
    }

    fn setup(
        &self,
        config: OmpcConfig,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<(Session, SetupTimes)> {
        let (device, create) =
            log.time("create", parent, || ClusterDevice::with_config(WORKERS, config));
        let ((update_k, reduce_k), _) = log.time("register_kernels", parent, || {
            let update_k = device.register_kernel_fn("tenants-update", 3e-5, |args| {
                let mut state = args.as_u64s(1);
                update(args.bytes(0), &mut state);
                args.set_u64s(1, &state);
            });
            let reduce_k = device.register_kernel_fn("tenants-reduce", 5e-6, |args| {
                let out = reduce(&args.as_u64s(0));
                args.set_u64s(1, &[out]);
            });
            (update_k, reduce_k)
        });
        let (placed, enter) = log.time("enter_data", parent, || -> OmpcResult<_> {
            let (table, ticket) = device.enter_data_async(self.table.clone());
            device.await_transfer(ticket)?;
            let mut states = Vec::with_capacity(CLIENTS);
            for state in &self.states {
                let (id, ticket) = device.enter_data_async(u64s_to_bytes(state));
                device.await_transfer(ticket)?;
                states.push(id);
            }
            Ok((table, states))
        });
        let (table, states) = placed?;
        let session = Session { device, update: update_k, reduce: reduce_k, table, states };
        Ok((session, SetupTimes { create, enter }))
    }

    fn call(
        &self,
        session: &Session,
        client: usize,
        index: usize,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<CallOut<Digest>> {
        let ((region, out), build) =
            log.time("region_build", parent, || self.build(session, client));
        let input_mapped = mapped_input_bytes(&region, session.device.buffers());
        let (outcome, _) = log.time("run", parent, || region.run_recorded());
        let (report, record) = outcome?;
        let read = log.open("buffer_data", parent);
        let read_start = Instant::now();
        let output = match read_u64s(&session.device.buffer_data(out)?)?.as_slice() {
            [value] => *value,
            other => {
                return Err(OmpcError::Internal(format!(
                    "reduce wrote {} words instead of one",
                    other.len()
                )))
            }
        };
        let state_digest = if (index + 1).is_multiple_of(STATE_READ_EVERY) {
            let state = read_u64s(&session.device.buffer_data(session.states[client])?)?;
            Some(reduce(&state))
        } else {
            None
        };
        let read_us = read_start.elapsed().as_secs_f64() * 1e6;
        log.close(read);
        let _ = session.device.buffers().remove(out);
        Ok(CallOut {
            tasks: report.target_tasks,
            wire_bytes: report.bytes_moved,
            transfers: report.data_events,
            input_moved: input_moved_bytes(&record),
            input_mapped,
            peak_in_flight: report.peak_in_flight,
            build_us: build.as_secs_f64() * 1e6,
            read_us,
            digest: (output, state_digest),
            records: if record.spans.is_empty() {
                Vec::new()
            } else {
                vec![(record, report.target_tasks)]
            },
        })
    }

    fn check(&self, client: usize, digests: &[Option<Digest>]) -> Vec<bool> {
        let mut state = self.states[client].clone();
        digests
            .iter()
            .enumerate()
            .map(|(index, digest)| {
                update(&self.table, &mut state);
                let expected = reduce(&state);
                let want_state = (index + 1).is_multiple_of(STATE_READ_EVERY).then_some(expected);
                *digest == Some((expected, want_state))
            })
            .collect()
    }

    fn sched_graph(&self, session: &Session) -> TaskGraph {
        let (region, out) = self.build(session, 0);
        let graph = region_to_sched(region.graph(), session.device.buffers());
        drop(region);
        let _ = session.device.buffers().remove(out);
        graph
    }

    fn teardown(&self, mut session: Session, log: &SpanLog, parent: SpanId) {
        log.time("shutdown", parent, || session.device.shutdown());
    }
}

//! What every workload provides to the measuring loop, and the fixed sizing they
//! share.
//!
//! Sizing (the same for every workload): 2 worker nodes, a head pool of 4
//! threads, the default 2 event-handler threads per worker, and a finite
//! event-reply timeout so a lost reply fails one call instead of hanging
//! the run. Every other `OmpcConfig` field keeps its default — task
//! trains, collectives, the emulated link and the other feature knobs are
//! never set — so the benchmark measures what users get by default.

use crate::spans::{SpanId, SpanLog};
use ompc_core::prelude::*;
use ompc_sched::TaskGraph;
use std::time::Duration;

/// Worker nodes of every device.
pub const WORKERS: usize = 2;
/// Head pool threads of every device.
pub const HEAD_THREADS: usize = 4;
/// Upper bound on one wait for an event reply.
pub const REPLY_TIMEOUT_MS: u64 = 5_000;

/// The configuration every workload starts from.
pub fn base_config(backend: BackendKind, telemetry: TelemetryLevel) -> OmpcConfig {
    OmpcConfig {
        backend,
        head_worker_threads: HEAD_THREADS,
        event_reply_timeout_ms: Some(REPLY_TIMEOUT_MS),
        telemetry,
        ..OmpcConfig::default()
    }
}

/// Set-up steps timed on their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `ClusterDevice::with_config`.
    pub create: Duration,
    /// Placing the resident inputs (zero when the workload has none).
    pub enter: Duration,
}

/// What one call reports besides its latency, which is timed around the call.
#[derive(Debug)]
pub struct CallOut<D> {
    /// Tasks the call completed (shots for the survey).
    pub tasks: usize,
    /// Bytes in the call's own region reports (`RegionReport::bytes_moved`).
    pub wire_bytes: u64,
    /// Transfers the data manager planned for the call.
    pub transfers: usize,
    /// Bytes moved towards workers (enter-data and input forwards).
    pub input_moved: u64,
    /// Bytes the call's target tasks read, moved or not.
    pub input_mapped: u64,
    /// Highest in-flight task count of the call's regions.
    pub peak_in_flight: usize,
    /// Time spent building the call's regions, µs.
    pub build_us: f64,
    /// Time spent reading outputs back to the host, µs.
    pub read_us: f64,
    /// Run records whose spans the traced run folds, each with the target
    /// tasks its region ran (empty when untraced).
    pub records: Vec<(RunRecord, usize)>,
    /// What the correctness check needs.
    pub digest: D,
}

/// One workload: its inputs are generated from the seed when the value is
/// built, before anything is timed.
pub trait Workload: Sync {
    /// A device plus whatever the calls need (kernel ids, resident buffers).
    type Session: Sync;
    /// The per-call evidence checked by [`Workload::check`].
    type Digest: Send;

    /// Concurrent client threads.
    fn clients(&self) -> usize;
    /// Calls per client made in set-up, before timing.
    fn warmup_calls(&self) -> usize;
    /// Device configuration on `backend`.
    fn config(&self, backend: BackendKind, telemetry: TelemetryLevel) -> OmpcConfig;
    /// Create the device, register kernels and place resident inputs.
    fn setup(
        &self,
        config: OmpcConfig,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<(Self::Session, SetupTimes)>;
    /// One blocking call of `client`, the `index`-th of its sequence.
    fn call(
        &self,
        session: &Self::Session,
        client: usize,
        index: usize,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<CallOut<Self::Digest>>;
    /// Check one client's calls, in call order: `true` where the output
    /// matches the host reference. `None` marks a call that returned `Err`.
    fn check(&self, client: usize, digests: &[Option<Self::Digest>]) -> Vec<bool>;
    /// The scheduler's view of one call's region (the HEFT probe input).
    fn sched_graph(&self, session: &Self::Session) -> TaskGraph;
    /// Release resident inputs and shut the device down.
    fn teardown(&self, session: Self::Session, log: &SpanLog, parent: SpanId);
    /// What the traced run's figures include beyond the runtime's own
    /// telemetry, if anything.
    fn traced_note(&self) -> Option<&'static str> {
        None
    }
}

/// Decode the bytes of a host read as `u64`s.
pub fn read_u64s(bytes: &[u8]) -> OmpcResult<Vec<u64>> {
    ompc_mpi::typed::bytes_to_u64s(bytes).map_err(|e| OmpcError::Internal(e.to_string()))
}

/// Bytes of the buffers that `region`'s target tasks read (input and inout
/// dependences), at their current host sizes.
pub fn mapped_input_bytes(region: &TargetRegion<'_>, buffers: &BufferRegistry) -> u64 {
    region
        .graph()
        .tasks()
        .iter()
        .filter(|t| t.kind.is_target())
        .flat_map(|t| t.dependences.iter())
        .filter(|d| d.dep_type.reads())
        .map(|d| buffers.size_of(d.buffer).unwrap_or(0) as u64)
        .sum()
}

/// Bytes a record moved towards workers (everything but host retrievals).
pub fn input_moved_bytes(record: &RunRecord) -> u64 {
    record.transfers.iter().filter(|t| t.reason != TransferReason::Retrieve).map(|t| t.bytes).sum()
}

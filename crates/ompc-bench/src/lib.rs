//! # ompc-bench — the experiment harness
//!
//! One function per figure of the paper's evaluation (§6):
//!
//! * [`run_scalability`] — Fig. 5: execution time vs. node count (2–64) for
//!   Trivial / Tree / Stencil-1D / FFT Task Bench graphs under OMPC,
//!   Charm++-like, StarPU-like, and synchronous-MPI execution.
//! * [`run_ccr`] — Fig. 6: execution time at 16 nodes while the
//!   computation-to-communication ratio sweeps over 0.5 / 1.0 / 2.0.
//! * [`run_overhead`] — Fig. 7(a): start-up / scheduling / shutdown
//!   overhead as a fraction of wall time while the per-task workload grows
//!   from 1K to 100M iterations.
//! * [`run_awave`] — Fig. 7(b): Awave weak-scaling speedup on Sigsbee-like
//!   and Marmousi-like surveys, one shot per worker node.
//! * [`run_ablation`] — the design-choice studies DESIGN.md calls out:
//!   scheduler choice, head-node in-flight limit, worker-to-worker
//!   forwarding, and NIC channel count.
//! * [`run_fault_overhead`] — the §3.1 resilience cost: makespan at 0, 1,
//!   and 2 injected worker failures vs. the failure-free run, with
//!   re-execution counts and heartbeat detection latency.
//! * [`run_residency`] — cross-region data residency: transfer bytes and
//!   makespan of an iterative stencil vs. region count, resident mapping
//!   against per-region mapping, on the real threaded device.
//! * [`run_backend_overhead`] — threaded-vs-MPI dispatch overhead: wall
//!   time of a wide tiny-task graph at varying in-flight window sizes on
//!   both real backends.
//! * [`run_prefetch`] — cross-region prefetch: wall time of the resident
//!   Awave survey with per-shot observed-traces payloads at varying
//!   prefetch depths, showing transfer/compute overlap against
//!   synchronous enter-data on both real backends.
//! * [`run_hotpath_overhead`] / [`run_warm_startup`] — the MPI hot-path
//!   figure: the same wide graph on the MPI backend against the threaded
//!   one, and the warm-pool start-up share of a tiny run, cold vs warm.
//! * [`run_multitenant`] — concurrent admission: aggregate throughput of
//!   K client surveys sharing one device while
//!   `max_concurrent_regions` sweeps from strictly serial to fully
//!   overlapped (`results/multitenant.json`).
//! * [`run_collectives`] — collective data movement: star vs binomial-tree
//!   distribution of one shared buffer to k readers as the fanout sweeps,
//!   with exact logged head-link and total wire bytes on both real
//!   backends (`results/collectives.json`).
//! * [`run_telemetry`] — the real-backend Fig. 7(a): the Awave resident
//!   survey on both real backends at `TelemetryLevel::Spans`, exporting
//!   Chrome trace-event timelines and the per-phase overhead attribution
//!   (`results/overhead_attribution.json`).
//!
//! Each function returns plain records (serializable with serde) so the
//! `fig5` … `ablation` binaries can print the same rows the paper plots and
//! EXPERIMENTS.md can record paper-vs-measured comparisons.

pub mod ablation;
pub mod collectives;
pub mod fault;
pub mod figures;
pub mod hotpath;
pub mod multitenant;
pub mod prefetch;
pub mod report;
pub mod residency;
pub mod runtimes;
pub mod telemetry;

pub use ablation::{run_ablation, AblationRow};
pub use collectives::{
    collectives_gate_failures, run_collectives, CollectiveRow, CollectiveWorkload,
};
pub use fault::{run_fault_overhead, FaultRow};
pub use figures::{
    run_awave, run_ccr, run_overhead, run_scalability, AwaveRow, CcrRow, OverheadRow,
    ScalabilityRow,
};
pub use hotpath::{
    hotpath_json, run_hotpath_overhead, run_warm_startup, HotpathOverheadRow, HotpathStartupRow,
};
pub use multitenant::{
    multitenant_gate_failures, run_multitenant, MultitenantRow, MultitenantWorkload,
};
pub use prefetch::{prefetch_gate_failures, run_prefetch, PrefetchRow, PrefetchSurvey};
pub use report::{geometric_mean, render_table, rows_to_json_pretty, speedup_summary, JsonRow};
pub use residency::{
    run_backend_overhead, run_residency, BackendOverheadRow, MappingMode, ResidencyRow,
};
pub use runtimes::{run_all_runtimes, RuntimeKind, RuntimeMeasurement};
pub use telemetry::{
    attribution_json, run_telemetry, telemetry_trace, validate_chrome_trace, TelemetryRow,
    TelemetrySurvey,
};

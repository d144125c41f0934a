//! `stencil-tiny`: one client; each call builds and runs one Task Bench
//! Stencil-1D region of width 8 × 32 steps = 256 tasks of ~256 kernel
//! iterations (~1 µs) each, one growing `u64` buffer per point, `map_from`
//! on every point, then reads every point back.
//!
//! Why: pure per-task overhead, the Fig. 7(a) regime on the real backends.
//! Dispatch, protocol, mailbox, the worker gate, per-region HEFT and the
//! per-dependence `DataManager` planning do nearly all the work; the kernel
//! is a few percent of the wall time and the bulk data path is bypassed.
//! A data-path optimisation should show *no change* here.

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
use ompc_taskbench::kernel::{execute_iterations, SECONDS_PER_ITERATION};
use ompc_taskbench::DependencePattern;
use std::time::{Duration, Instant};

/// Points per step.
pub const WIDTH: usize = 8;
/// Steps; every step runs one task per point.
pub const STEPS: usize = 32;
/// Kernel iterations per task.
pub const ITERATIONS: u64 = 256;
/// Distinct seeded input sets; call `i` uses set `i % INPUT_SETS`.
const INPUT_SETS: usize = 64;

/// One task's work: mix the last value of the point's own buffer with the
/// last value of each neighbour it reads, run the Task Bench loop on the
/// mix and append the result. Shared by the device kernel and the host
/// reference, so a task that ran out of dependence order gives a different
/// chain.
pub fn stencil_task(own: &mut Vec<u64>, neighbours: &[Vec<u64>]) {
    let mut seed = own.last().copied().unwrap_or(1);
    for (i, n) in neighbours.iter().enumerate() {
        seed ^= n.last().copied().unwrap_or(0).rotate_left(i as u32 + 1);
    }
    own.push(execute_iterations(ITERATIONS, seed));
}

/// The neighbour points task `(step, point)` reads besides its own.
fn neighbours(point: usize, step: usize) -> Vec<usize> {
    DependencePattern::Stencil1D
        .dependencies(point, step, WIDTH)
        .into_iter()
        .filter(|&d| d != point)
        .collect()
}

/// The region's tasks in program order, run sequentially on the host.
fn reference(initial: &[u64; WIDTH]) -> Vec<Vec<u64>> {
    let mut points: Vec<Vec<u64>> = initial.iter().map(|&v| vec![v]).collect();
    for step in 0..STEPS {
        for point in 0..WIDTH {
            let reads: Vec<Vec<u64>> =
                neighbours(point, step).iter().map(|&n| points[n].clone()).collect();
            stencil_task(&mut points[point], &reads);
        }
    }
    points
}

pub struct Stencil {
    inputs: Vec<[u64; WIDTH]>,
    expected: Vec<Vec<Vec<u64>>>,
}

pub struct Session {
    device: ClusterDevice,
    kernel: KernelId,
}

impl Stencil {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let inputs: Vec<[u64; WIDTH]> =
            (0..INPUT_SETS).map(|_| std::array::from_fn(|_| rng.next_u64())).collect();
        let expected = inputs.iter().map(reference).collect();
        Stencil { inputs, expected }
    }

    fn build<'d>(&self, session: &'d Session, set: usize) -> (TargetRegion<'d>, Vec<BufferId>) {
        let mut region = session.device.target_region();
        let points: Vec<BufferId> =
            self.inputs[set].iter().map(|&v| region.map_to(u64s_to_bytes(&[v]))).collect();
        for step in 0..STEPS {
            for point in 0..WIDTH {
                let mut deps = vec![Dependence::inout(points[point])];
                deps.extend(
                    neighbours(point, step).into_iter().map(|n| Dependence::input(points[n])),
                );
                region.target(session.kernel, deps);
            }
        }
        for &p in &points {
            region.map_from(p);
        }
        (region, points)
    }
}

impl Workload for Stencil {
    type Session = Session;
    type Digest = bool;

    fn clients(&self) -> usize {
        1
    }

    fn warmup_calls(&self) -> usize {
        10
    }

    fn config(&self, backend: BackendKind, telemetry: TelemetryLevel) -> OmpcConfig {
        base_config(backend, telemetry)
    }

    fn setup(
        &self,
        config: OmpcConfig,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<(Session, SetupTimes)> {
        let (device, create) =
            log.time("create", parent, || ClusterDevice::with_config(WORKERS, config));
        let (kernel, _) = log.time("register_kernels", parent, || {
            let cost = ITERATIONS as f64 * SECONDS_PER_ITERATION;
            device.register_kernel_fn("stencil-tiny", cost, |args| {
                let mut own = args.as_u64s(0);
                let reads: Vec<Vec<u64>> = (1..args.len()).map(|i| args.as_u64s(i)).collect();
                stencil_task(&mut own, &reads);
                args.set_u64s(0, &own);
            })
        });
        Ok((Session { device, kernel }, SetupTimes { create, enter: Duration::ZERO }))
    }

    fn call(
        &self,
        session: &Session,
        _client: usize,
        index: usize,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<CallOut<bool>> {
        let set = index % INPUT_SETS;
        let ((region, points), build) =
            log.time("region_build", parent, || self.build(session, set));
        let input_mapped = mapped_input_bytes(&region, session.device.buffers());
        let (outcome, _) = log.time("run", parent, || region.run_recorded());
        let (report, record) = outcome?;
        let read = log.open("buffer_data", parent);
        let read_start = Instant::now();
        let mut outputs = Vec::with_capacity(WIDTH);
        for &p in &points {
            outputs.push(read_u64s(&session.device.buffer_data(p)?)?);
        }
        let read_us = read_start.elapsed().as_secs_f64() * 1e6;
        log.close(read);
        for &p in &points {
            let _ = session.device.buffers().remove(p);
        }
        Ok(CallOut {
            tasks: report.target_tasks,
            wire_bytes: report.bytes_moved,
            transfers: report.data_events,
            input_moved: input_moved_bytes(&record),
            input_mapped,
            peak_in_flight: report.peak_in_flight,
            build_us: build.as_secs_f64() * 1e6,
            read_us,
            digest: outputs == self.expected[set],
            records: if record.spans.is_empty() {
                Vec::new()
            } else {
                vec![(record, report.target_tasks)]
            },
        })
    }

    fn check(&self, _client: usize, digests: &[Option<bool>]) -> Vec<bool> {
        digests.iter().map(|d| d.unwrap_or(false)).collect()
    }

    fn sched_graph(&self, session: &Session) -> TaskGraph {
        let (region, points) = self.build(session, 0);
        let graph = region_to_sched(region.graph(), session.device.buffers());
        for p in points {
            let _ = session.device.buffers().remove(p);
        }
        graph
    }

    fn teardown(&self, mut session: Session, log: &SpanLog, parent: SpanId) {
        log.time("shutdown", parent, || session.device.shutdown());
    }
}

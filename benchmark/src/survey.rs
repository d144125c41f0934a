//! `awave-survey`: one client; each call is one resident Awave survey
//! through `run_pipeline` at the default prefetch depth — a Sigsbee-like
//! 32×32 model, nt = 12, 8 shots (one region each), and a 4 MiB
//! observed-traces payload per shot. The model is entered once in set-up
//! and stays resident; each call reads every shot image back and stacks
//! them on the host.
//!
//! Why: the data path dominates — enter-data streaming, prefetch and
//! await of in-flight tickets, 4 MiB serialization, resident reuse of the
//! model — with the RTM kernels beside it. With only 8 tasks per call a
//! dispatch-layer gain must show *no change* here, and a data-path gain
//! must show here and not on `stencil-tiny`.
//!
//! nt is kept small so the kernels stay a minor share of a call (about a
//! quarter at nt = 12). At nt = 160 they were about half of it, and a
//! single-threaded shot's time on a shared 2-vCPU host flipped between two
//! levels a factor of two apart, which moved the call latency by a quarter
//! between sets of runs of the same code.
//!
//! Not among `BENCHMARK.json`'s workloads: even at nt = 12 its figures on
//! a shared 2-vCPU host moved by 10–20% between runs and by up to a
//! quarter within minutes, which the gate's bounds cannot hold. It stays
//! runnable with `--workload awave-survey` (and in `--workload all`) for
//! data-path changes, which should be checked on it by hand.

use crate::spans::{SpanId, SpanLog};
use crate::stats::Rng;
use crate::workload::{
    base_config, input_moved_bytes, mapped_input_bytes, CallOut, SetupTimes, Workload, WORKERS,
};
use ompc_awave::{
    estimate_shot_cost, migrate, rtm_shot, ModelKind, RtmImage, RtmParams, Shot, VelocityModel,
};
use ompc_core::model::region_to_sched;
use ompc_core::prelude::*;
use ompc_mpi::typed::{bytes_to_f64s, f64s_to_bytes, u64s_to_bytes};
use ompc_sched::TaskGraph;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model grid width and depth.
pub const NX: usize = 32;
pub const NZ: usize = 32;
/// Time steps per propagation.
pub const NT: usize = 12;
/// Shots per survey (one region and one task each).
pub const SHOTS: usize = 8;
/// Observed-traces payload per shot, in `u64` words (4 MiB).
const TRACE_WORDS: usize = (4 << 20) / 8;
/// Relative tolerance of the stacked image against `migrate`.
const TOLERANCE: f64 = 1e-9;

fn params() -> RtmParams {
    RtmParams { nt: NT, snapshot_every: 4, smoothing_passes: 2 }
}

/// The model as the f64 payload of a mapped buffer: `[nx, nz, h, values…]`.
fn model_payload(model: &VelocityModel) -> Vec<f64> {
    let mut out = vec![model.nx as f64, model.nz as f64, model.h];
    out.extend_from_slice(model.values());
    out
}

/// Wrapping sum of the trace words: what each shot task reports about the
/// payload it received, checked exactly against the host.
fn trace_checksum(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0u64, u64::wrapping_add)
}

/// Run one shot on the host or a worker: the image values followed by the
/// trace checksum (as raw `f64` bits).
fn shot_output(model: &VelocityModel, shot: Shot, traces: &[u8], params: &RtmParams) -> Vec<f64> {
    let mut values = rtm_shot(model, shot, params).values;
    values.push(f64::from_bits(trace_checksum(traces)));
    values
}

pub struct Survey {
    model: VelocityModel,
    shots: Vec<Shot>,
    traces: Vec<Vec<u8>>,
    expected_image: RtmImage,
    expected_checksums: Vec<u64>,
}

pub struct Session {
    device: ClusterDevice,
    kernel: KernelId,
    model: BufferId,
    /// Whether the device records `TelemetryLevel::Spans`.
    traced: bool,
}

/// `run_pipeline`, keeping the run record of every region but the last:
/// the device exposes only its latest record, so a watcher thread copies
/// it whenever a new region epoch begins (region `e - 1` has finished, and
/// its record stays the latest until region `e` ends). Traced runs only.
fn run_watched(
    device: &ClusterDevice,
    regions: Vec<TargetRegion<'_>>,
) -> (OmpcResult<Vec<RegionReport>>, Vec<RunRecord>) {
    let done = AtomicBool::new(false);
    let first = device.region_epoch() + 1;
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut seen = device.region_epoch();
            let mut records = Vec::new();
            while !done.load(Ordering::Acquire) {
                let epoch = device.region_epoch();
                if epoch != seen {
                    seen = epoch;
                    let record = device.last_run_record().unwrap_or_default();
                    let region = record.spans.iter().find_map(|s| s.region);
                    if region.is_some_and(|r| r >= first && r < epoch) {
                        records.push(record);
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            records
        });
        let outcome = device.run_pipeline(regions);
        done.store(true, Ordering::Release);
        (outcome, watcher.join().expect("record watcher panicked"))
    })
}

/// The buffers of one shot region, removed from the host registry after
/// the call.
struct ShotBuffers {
    desc: BufferId,
    traces: BufferId,
    image: BufferId,
}

impl Survey {
    pub fn new(seed: u64) -> Self {
        let model = VelocityModel::generate(ModelKind::SigsbeeLike, NX, NZ, 20.0);
        let mut rng = Rng::new(seed, 2);
        let shots: Vec<Shot> =
            (0..SHOTS).map(|_| Shot { source_x: rng.range(2, NX - 2), source_z: 2 }).collect();
        let traces: Vec<Vec<u8>> = (0..SHOTS)
            .map(|s| {
                let mut rng = Rng::new(seed, 100 + s as u64);
                u64s_to_bytes(&(0..TRACE_WORDS).map(|_| rng.next_u64()).collect::<Vec<_>>())
            })
            .collect();
        let expected_image = migrate(&model, &shots, &params());
        let expected_checksums = traces.iter().map(|t| trace_checksum(t)).collect();
        Survey { model, shots, traces, expected_image, expected_checksums }
    }

    /// One region per shot: the resident model, the shot descriptor and its
    /// traces in, the image out; descriptor and traces released after.
    fn build<'d>(&self, session: &'d Session) -> (Vec<TargetRegion<'d>>, Vec<ShotBuffers>) {
        let cost = estimate_shot_cost(NX, NZ, NT);
        let mut regions = Vec::with_capacity(SHOTS);
        let mut buffers = Vec::with_capacity(SHOTS);
        for (shot, traces) in self.shots.iter().zip(&self.traces) {
            let mut region = session.device.target_region();
            let desc = region.map_to(u64s_to_bytes(&[shot.source_x as u64, shot.source_z as u64]));
            let traces = region.map_to(traces.clone());
            let image = region.map_alloc((NX * NZ + 1) * 8);
            region.target_with_cost(
                session.kernel,
                cost,
                vec![
                    Dependence::input(session.model),
                    Dependence::input(desc),
                    Dependence::input(traces),
                    Dependence::output(image),
                ],
                format!("shot@{}", shot.source_x),
            );
            region.map_from(image);
            region.release(desc);
            region.release(traces);
            regions.push(region);
            buffers.push(ShotBuffers { desc, traces, image });
        }
        (regions, buffers)
    }

    /// Stack the shot images and compare with the host reference.
    fn matches(&self, shot_outputs: &[Vec<f64>]) -> bool {
        let mut stacked = RtmImage::zeros(NX, NZ);
        for (out, &checksum) in shot_outputs.iter().zip(&self.expected_checksums) {
            if out.len() != NX * NZ + 1 || out[NX * NZ].to_bits() != checksum {
                return false;
            }
            stacked.stack(&RtmImage { nx: NX, nz: NZ, values: out[..NX * NZ].to_vec() });
        }
        stacked
            .values
            .iter()
            .zip(&self.expected_image.values)
            .all(|(a, b)| (a - b).abs() <= TOLERANCE * b.abs().max(1.0))
    }
}

impl Workload for Survey {
    type Session = Session;
    type Digest = bool;

    fn clients(&self) -> usize {
        1
    }

    fn warmup_calls(&self) -> usize {
        2
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
            let params = Arc::new(params());
            device.register_kernel_fn("awave-shot", estimate_shot_cost(NX, NZ, NT), move |args| {
                let payload = args.as_f64s(0);
                let model = VelocityModel::from_values(
                    payload[0] as usize,
                    payload[1] as usize,
                    payload[2],
                    payload[3..].to_vec(),
                );
                let desc = args.as_u64s(1);
                let shot = Shot { source_x: desc[0] as usize, source_z: desc[1] as usize };
                let out = shot_output(&model, shot, args.bytes(2), &params);
                args.set_f64s(3, &out);
            })
        });
        let (model, enter) = log.time("enter_data", parent, || {
            device.enter_data(f64s_to_bytes(&model_payload(&self.model)))
        });
        let traced = device.config().telemetry == TelemetryLevel::Spans;
        Ok((Session { device, kernel, model, traced }, SetupTimes { create, enter }))
    }

    fn call(
        &self,
        session: &Session,
        _client: usize,
        _index: usize,
        log: &SpanLog,
        parent: SpanId,
    ) -> OmpcResult<CallOut<bool>> {
        let ((regions, buffers), build) = log.time("region_build", parent, || self.build(session));
        // `run_pipeline` hands back reports only and the device keeps the
        // record of the last region, so a survey's data-manager ratios
        // come from its last shot region (traced runs keep every region's
        // record, see `run_watched`).
        let input_mapped =
            regions.last().map_or(0, |r| mapped_input_bytes(r, session.device.buffers()));
        let ((outcome, mut records), _) = log.time("run_pipeline", parent, || {
            if session.traced {
                run_watched(&session.device, regions)
            } else {
                (session.device.run_pipeline(regions), Vec::new())
            }
        });
        let reports = outcome?;
        let last = session.device.last_run_record().unwrap_or_default();
        if session.traced {
            records.push(last.clone());
        }
        let read = log.open("buffer_data", parent);
        let read_start = Instant::now();
        let mut outputs = Vec::with_capacity(SHOTS);
        for b in &buffers {
            let bytes = session.device.buffer_data(b.image)?;
            outputs.push(bytes_to_f64s(&bytes).map_err(|e| OmpcError::Internal(e.to_string()))?);
        }
        let read_us = read_start.elapsed().as_secs_f64() * 1e6;
        log.close(read);
        for b in &buffers {
            for id in [b.desc, b.traces, b.image] {
                let _ = session.device.buffers().remove(id);
            }
        }
        Ok(CallOut {
            tasks: reports.iter().map(|r| r.target_tasks).sum(),
            wire_bytes: reports.iter().map(|r| r.bytes_moved).sum(),
            transfers: reports.iter().map(|r| r.data_events).sum(),
            input_moved: input_moved_bytes(&last),
            input_mapped,
            peak_in_flight: reports.iter().map(|r| r.peak_in_flight).max().unwrap_or(0),
            build_us: build.as_secs_f64() * 1e6,
            read_us,
            digest: self.matches(&outputs),
            // Each shot region runs one target task.
            records: records.into_iter().map(|r| (r, 1)).collect(),
        })
    }

    fn check(&self, _client: usize, digests: &[Option<bool>]) -> Vec<bool> {
        digests.iter().map(|d| d.unwrap_or(false)).collect()
    }

    fn sched_graph(&self, session: &Session) -> TaskGraph {
        let (regions, buffers) = self.build(session);
        let graph = region_to_sched(regions[0].graph(), session.device.buffers());
        drop(regions);
        for b in &buffers {
            for id in [b.desc, b.traces, b.image] {
                let _ = session.device.buffers().remove(id);
            }
        }
        graph
    }

    fn traced_note(&self) -> Option<&'static str> {
        Some(
            "telemetry.overhead_us_per_task includes the benchmark's record watcher, a thread \
             polling the region epoch every 200 us during each traced run_pipeline",
        )
    }

    fn teardown(&self, mut session: Session, log: &SpanLog, parent: SpanId) {
        let _ = log.time("exit_data", parent, || session.device.exit_data(session.model));
        log.time("shutdown", parent, || session.device.shutdown());
    }
}

//! Layer probes: single layers timed from outside through their public
//! functions, at the workloads' own shapes. Every probe runs a few
//! untimed warm-up rounds, then reports the median of timed batches.

use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, Rng};
use crate::{stencil, survey};
use ompc_awave::{rtm_shot, ModelKind, RtmParams, Shot, VelocityModel};
use ompc_core::prelude::*;
use ompc_core::protocol::{EventNotification, EventReply, EventRequest, TaskSpec, TaskStep};
use ompc_mpi::{CommId, Tag, World};
use ompc_sched::{Platform, TaskGraph};
use std::hint::black_box;
use std::time::Instant;

const WARMUP_BATCHES: usize = 3;

/// Median over `batches` timed batches of `op` (after the warm-up
/// batches), in nanoseconds per operation; `op` runs `per_batch` times per
/// batch.
fn per_op_ns(batches: usize, per_batch: usize, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for batch in 0..WARMUP_BATCHES + batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        if batch >= WARMUP_BATCHES {
            samples.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
        }
    }
    median(&samples)
}

/// `sched.heft_us`: HEFT over one call's region graph on the 2-worker
/// platform the devices run.
pub fn heft_us(graph: &TaskGraph, log: &SpanLog) -> f64 {
    let scheduler = SchedulerKind::Heft.build();
    let platform = Platform::cluster(crate::workload::WORKERS);
    let (ns, _) = log.time("probe.sched", SpanId::ROOT, || {
        per_op_ns(25, 4, || {
            black_box(scheduler.schedule(black_box(graph), &platform));
        })
    });
    ns / 1e3
}

/// `protocol.encode_ns` and `protocol.decode_ns`: one stencil-shaped
/// composite task notification (two worker receives and the kernel) plus
/// its `Ok` reply, encoded and decoded.
pub fn protocol_ns(seed: u64, log: &SpanLog) -> (f64, f64) {
    let mut rng = Rng::new(seed, 20);
    let mut id = || BufferId(rng.next_u64() >> 16);
    let (own, left, right) = (id(), id(), id());
    let note = EventNotification {
        request: EventRequest::Task(TaskSpec {
            steps: vec![
                TaskStep::RecvFromWorker { buffer: left, from: 1 },
                TaskStep::RecvFromWorker { buffer: right, from: 2 },
                TaskStep::Execute { kernel: KernelId(0), buffers: vec![own, left, right] },
            ],
        }),
        tag: Tag(7),
        comm: CommId(0),
        timed: false,
    };
    let reply = EventReply::Ok(Vec::new());
    let (encode, _) = log.time("probe.protocol.encode", SpanId::ROOT, || {
        per_op_ns(25, 2_000, || {
            black_box(black_box(&note).encode());
            black_box(black_box(&reply).encode());
        })
    });
    let (note_bytes, reply_bytes) = (note.encode(), reply.encode());
    let (decode, _) = log.time("probe.protocol.decode", SpanId::ROOT, || {
        per_op_ns(25, 2_000, || {
            black_box(EventNotification::decode(black_box(&note_bytes)).is_ok());
            black_box(EventReply::decode(black_box(&reply_bytes)).is_ok());
        })
    });
    (encode, decode)
}

/// `mpi.sendrecv_us.q{queued}`: one send and its matching receive on a
/// 2-rank world whose receiver already holds `queued` unmatched envelopes.
pub fn sendrecv_us(queued: u64, log: &SpanLog) -> f64 {
    let world = World::new(2);
    let (head, worker) = (world.communicator(0), world.communicator(1));
    for i in 0..queued {
        head.send(1, Tag(1_000_000 + i), vec![0; 8]).expect("queue an unmatched envelope");
    }
    let payload = vec![0u8; 64];
    let name = if queued == 0 { "probe.mpi.q0" } else { "probe.mpi.q256" };
    let (ns, _) = log.time(name, SpanId::ROOT, || {
        per_op_ns(25, 400, || {
            head.send(1, Tag(5), payload.clone()).expect("send to a live rank");
            black_box(worker.recv(Some(0), Some(Tag(5))).expect("matching receive"));
        })
    });
    ns / 1e3
}

/// `data_manager.plan_input_ns.n{resident}`: planning one worker-to-worker
/// input forward with `resident` buffers tracked.
pub fn plan_input_ns(resident: u64, log: &SpanLog) -> f64 {
    let mut dm = DataManager::new();
    for b in 0..resident {
        dm.register_device_buffer(BufferId(b), 1, 64);
    }
    let planned = resident.min(256);
    let chosen: Vec<BufferId> = (0..planned).map(|i| BufferId(i * resident / planned)).collect();
    let name = if resident == 16 { "probe.dm.n16" } else { "probe.dm.n4096" };
    let mut samples = Vec::new();
    let span = log.open(name, SpanId::ROOT);
    for batch in 0..WARMUP_BATCHES + 40 {
        let start = Instant::now();
        for &b in &chosen {
            black_box(dm.plan_input(b, 2));
        }
        let ns = start.elapsed().as_nanos() as f64 / chosen.len() as f64;
        if batch >= WARMUP_BATCHES {
            samples.push(ns);
        }
        // Undo the batch: node 1 holds the only copy again.
        dm.take_transfer_log();
        for &b in &chosen {
            dm.record_write(b, 1);
        }
    }
    log.close(span);
    median(&samples)
}

/// `kernel.taskbench_us`: one stencil task's kernel loop.
pub fn taskbench_us(seed: u64, log: &SpanLog) -> f64 {
    let mut state = Rng::new(seed, 21).next_u64();
    let (ns, _) = log.time("probe.kernel.taskbench", SpanId::ROOT, || {
        per_op_ns(25, 200, || {
            state = ompc_taskbench::execute_iterations(stencil::ITERATIONS, black_box(state));
        })
    });
    ns / 1e3
}

/// `kernel.rtm_shot_ms`: one survey shot's RTM kernel.
pub fn rtm_shot_ms(seed: u64, log: &SpanLog) -> f64 {
    let model = VelocityModel::generate(ModelKind::SigsbeeLike, survey::NX, survey::NZ, 20.0);
    let params = RtmParams { nt: survey::NT, snapshot_every: 4, smoothing_passes: 2 };
    let shot = Shot { source_x: Rng::new(seed, 22).range(2, survey::NX - 2), source_z: 2 };
    let (ns, _) = log.time("probe.kernel.rtm", SpanId::ROOT, || {
        per_op_ns(7, 1, || {
            black_box(rtm_shot(black_box(&model), shot, &params));
        })
    });
    ns / 1e6
}

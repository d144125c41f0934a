//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <stencil-tiny|awave-survey|tenants-rw|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures one workload (`all` runs the three in turn, each in a
//! process of its own and ending with its own JSON line) on both real
//! backends, `mpi` and `threaded`, as a closed loop: every client sends
//! its next call only after the previous one returned. Inputs come from
//! `--seed` and are generated before anything is timed. The timed calls
//! are spread over ten rounds. Each round sets up a fresh device per
//! backend (device creation, kernel registration, resident inputs, warm-up
//! calls), runs timed calls on both in segments of about 1.5 s that
//! alternate between the backends, and tears both down. Alternating lets
//! both backends sample the same stretch of a shared machine's load; fresh
//! devices keep one device's luck (thread placement, allocator arenas)
//! from setting a whole run's figures. Latency quantiles, tasks per second
//! and wire bytes per call are taken per segment and reported as the
//! median over the segments. `setup_s` is the median round's set-up time. `peak_rss_mib` is the process's peak resident set
//! (`VmHWM`) when the first round's set-up ends: a fixed amount of work,
//! so a faster runtime that makes more timed calls does not read as a
//! larger one. Every call's output is checked against a host
//! reference; a call that returns `Err`, times out or differs counts as
//! failed, and the run goes on.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With `--trace 1`
//! it also runs each workload once more per backend at
//! `TelemetryLevel::Spans` and the single-layer probes, and prints the
//! per-layer metrics; end-to-end figures always come from the untraced run.
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it list
//! every metric with its unit and sample count, and name each per-layer
//! metric the workload could not produce with the reason. The benchmark's
//! own spans (one per wrapped call into a runtime layer) are written to
//! `.bench_out/` when the run ends.
//!
//! The workloads, and why each exists, are described in `stencil.rs`,
//! `survey.rs` and `tenants.rs`; the sizing they share in `workload.rs`.
//! `BENCHMARK.json` gates on `stencil-tiny` and `tenants-rw`; `survey.rs`
//! says why `awave-survey` is run by hand only.

mod probes;
mod spans;
mod stats;
mod stencil;
mod survey;
mod tenants;
mod trace;
mod workload;

use ompc_core::prelude::*;
use ompc_json::Json;
use spans::{SpanId, SpanLog};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trace::PhaseFold;
use workload::{SetupTimes, Workload};

/// Backends measured, in run order.
const BACKENDS: [BackendKind; 2] = [BackendKind::Mpi, BackendKind::Threaded];
/// Rounds of an untraced run, each on fresh devices; `setup_s` is the
/// median over rounds.
const ROUNDS: usize = 10;
/// Timed calls per backend at least, so p90 has 10 samples beyond it.
const MIN_CALLS: usize = 100;
/// Length of one timed segment of one backend, in seconds.
const SEGMENT_S: f64 = 1.5;
/// Share of `--seconds` each backend's traced run lasts.
const TRACED_SHARE: f64 = 0.15;
/// Timed calls per backend in the traced run at least.
const MIN_TRACED_CALLS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }
}

/// Scalars of one call, its latency included.
#[derive(Debug, Clone, Copy, Default)]
struct CallStats {
    ms: f64,
    tasks: usize,
    wire_bytes: u64,
    transfers: usize,
    input_moved: u64,
    input_mapped: u64,
    peak_in_flight: usize,
    build_us: f64,
    read_us: f64,
}

/// One client's side of a run of calls.
struct ClientRun<D> {
    calls: Vec<CallStats>,
    /// `None` where the call returned `Err`.
    digests: Vec<Option<D>>,
    fold: PhaseFold,
    first_error: Option<String>,
}

impl<D> ClientRun<D> {
    fn new() -> Self {
        ClientRun {
            calls: Vec::new(),
            digests: Vec::new(),
            fold: PhaseFold::default(),
            first_error: None,
        }
    }
}

/// All clients of one run of calls.
struct Run<D> {
    clients: Vec<ClientRun<D>>,
    wall_s: f64,
}

impl<D> Run<D> {
    fn calls(&self) -> impl Iterator<Item = &CallStats> {
        self.clients.iter().flat_map(|c| c.calls.iter())
    }
    fn latencies(&self) -> Vec<f64> {
        self.calls().map(|c| c.ms).collect()
    }
    fn count(&self) -> usize {
        self.calls().count()
    }
}

/// Run calls on every client until `seconds` passed and at least
/// `min_calls` calls were made (or four times `seconds` passed). Client
/// `c`'s calls are numbered from `first_index[c]`.
fn run_calls<W: Workload>(
    w: &W,
    session: &W::Session,
    seconds: f64,
    min_calls: usize,
    first_index: &[usize],
    log: &SpanLog,
) -> Run<W::Digest> {
    let start = Instant::now();
    let made = AtomicUsize::new(0);
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients())
            .map(|client| {
                let made = &made;
                let first = first_index[client];
                scope.spawn(move || {
                    let mut run = ClientRun::new();
                    loop {
                        let elapsed = start.elapsed().as_secs_f64();
                        let enough = made.load(Ordering::Relaxed) >= min_calls;
                        if (elapsed >= seconds && enough) || elapsed >= 4.0 * seconds {
                            break;
                        }
                        let index = first + run.calls.len();
                        let span = log.open("call", SpanId::ROOT);
                        let outcome = w.call(session, client, index, log, span.id());
                        let ms = log.close(span).as_secs_f64() * 1e3;
                        made.fetch_add(1, Ordering::Relaxed);
                        match outcome {
                            Ok(out) => {
                                for (record, tasks) in &out.records {
                                    run.fold.add(record, *tasks);
                                }
                                run.calls.push(CallStats {
                                    ms,
                                    tasks: out.tasks,
                                    wire_bytes: out.wire_bytes,
                                    transfers: out.transfers,
                                    input_moved: out.input_moved,
                                    input_mapped: out.input_mapped,
                                    peak_in_flight: out.peak_in_flight,
                                    build_us: out.build_us,
                                    read_us: out.read_us,
                                });
                                run.digests.push(Some(out.digest));
                            }
                            Err(e) => {
                                run.calls.push(CallStats { ms, ..CallStats::default() });
                                run.digests.push(None);
                                run.first_error.get_or_insert_with(|| e.to_string());
                            }
                        }
                    }
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    Run { clients, wall_s: start.elapsed().as_secs_f64() }
}

/// Warm-up: each client's first calls, one client at a time.
fn warm_up<W: Workload>(w: &W, session: &W::Session, log: &SpanLog) -> Vec<ClientRun<W::Digest>> {
    (0..w.clients())
        .map(|client| {
            let mut run = ClientRun::new();
            for index in 0..w.warmup_calls() {
                let span = log.open("warmup_call", SpanId::ROOT);
                let outcome = w.call(session, client, index, log, span.id());
                log.close(span);
                match outcome {
                    Ok(out) => run.digests.push(Some(out.digest)),
                    Err(e) => {
                        run.digests.push(None);
                        run.first_error.get_or_insert_with(|| e.to_string());
                    }
                }
            }
            run
        })
        .collect()
}

/// A set-up device, its warm-up calls and how long set-up took.
struct Ready<W: Workload> {
    session: W::Session,
    warm: Vec<ClientRun<W::Digest>>,
    seconds: f64,
    times: SetupTimes,
}

fn set_up<W: Workload>(w: &W, config: OmpcConfig, log: &SpanLog) -> Result<Ready<W>, String> {
    let span = log.open("setup", SpanId::ROOT);
    let start = Instant::now();
    let (session, times) = w.setup(config, log, span.id()).map_err(|e| format!("set-up: {e}"))?;
    let warm = warm_up(w, &session, log);
    let seconds = start.elapsed().as_secs_f64();
    log.close(span);
    Ok(Ready { session, warm, seconds, times })
}

/// Check every client's calls on one device, in order (warm-up calls
/// first), and count them into the report. The digests of `timed` are
/// used up; their call figures stay.
fn verify<W: Workload>(
    w: &W,
    warm: Vec<ClientRun<W::Digest>>,
    timed: &mut [Run<W::Digest>],
    report: &mut Report,
    label: &str,
) {
    let mut clients = warm;
    for run in timed {
        for (all, segment) in clients.iter_mut().zip(&mut run.clients) {
            all.digests.append(&mut segment.digests);
            all.first_error = all.first_error.take().or(segment.first_error.take());
        }
    }
    for (client, run) in clients.into_iter().enumerate() {
        let (digests, first_error) = (run.digests, run.first_error);
        let ok = w.check(client, &digests);
        let failed = ok.iter().filter(|&&ok| !ok).count();
        report.attempted += ok.len();
        report.failed += failed;
        if failed > 0 {
            let why = first_error.unwrap_or_else(|| "output differs from the reference".into());
            report.notes.push(format!("{label} client {client}: {failed} failed call(s): {why}"));
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What the untraced run of one backend leaves for the metrics.
struct Untraced {
    p50_ms: f64,
    calls: usize,
    tasks_per_call: f64,
}

fn measure<W: Workload>(w: &W, args: &Args, log: &SpanLog) -> Result<Report, String> {
    let mut report = Report::default();
    let per_round = ((args.seconds / (2.0 * SEGMENT_S * ROUNDS as f64)).round() as usize).max(1);
    let segment_s = args.seconds / (2 * ROUNDS * per_round) as f64;
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut creates = [Vec::new(), Vec::new()];
    let mut enters = [Vec::new(), Vec::new()];
    let mut segments: [Vec<Run<W::Digest>>; 2] = [Vec::new(), Vec::new()];
    let mut rss_mib = f64::NAN;
    let short = |segments: &[Vec<Run<W::Digest>>; 2]| {
        segments.iter().any(|s| s.iter().map(Run::count).sum::<usize>() < MIN_CALLS)
    };
    let start = Instant::now();
    for round in 0..ROUNDS {
        let mut ready = Vec::with_capacity(BACKENDS.len());
        for (bi, backend) in BACKENDS.into_iter().enumerate() {
            let r = set_up(w, w.config(backend, TelemetryLevel::Off), log)?;
            creates[bi].push(r.times.create.as_secs_f64() * 1e3);
            enters[bi].push(r.times.enter.as_secs_f64() * 1e3);
            ready.push(r);
        }
        setup_s.push(ready.iter().map(|r| r.seconds).sum::<f64>());
        if round == 0 {
            rss_mib = peak_rss_mib();
        }
        // The last round goes on until every backend has its minimum of calls.
        let first = [segments[0].len(), segments[1].len()];
        let mut next: Vec<Vec<usize>> =
            ready.iter().map(|r| r.warm.iter().map(|c| c.digests.len()).collect()).collect();
        let mut k = 0;
        while k < per_round
            || (round + 1 == ROUNDS
                && short(&segments)
                && start.elapsed().as_secs_f64() < 3.0 * args.seconds)
        {
            for j in 0..BACKENDS.len() {
                let bi = (round + k + j) % BACKENDS.len();
                let run = run_calls(w, &ready[bi].session, segment_s, 1, &next[bi], log);
                for (n, client) in next[bi].iter_mut().zip(&run.clients) {
                    *n += client.digests.len();
                }
                segments[bi].push(run);
            }
            k += 1;
        }
        for ((bi, backend), r) in BACKENDS.into_iter().enumerate().zip(ready) {
            w.teardown(r.session, log, SpanId::ROOT);
            verify(w, r.warm, &mut segments[bi][first[bi]..], &mut report, backend.name());
        }
    }

    let mut untraced = BTreeMap::new();
    for (bi, backend) in BACKENDS.into_iter().enumerate() {
        let b = backend.name();
        let runs = std::mem::take(&mut segments[bi]);
        let n: usize = runs.iter().map(Run::count).sum();
        let ok_calls: Vec<&CallStats> =
            runs.iter().flat_map(Run::calls).filter(|c| c.tasks > 0).collect();
        let nok = ok_calls.len().max(1) as f64;
        let tasks: usize = ok_calls.iter().map(|c| c.tasks).sum();
        let per_segment: Vec<f64> = runs
            .iter()
            .map(|run| run.calls().map(|c| c.tasks).sum::<usize>() as f64 / run.wall_s)
            .collect();
        // Latency quantiles are taken per segment and reported as the
        // median over segments: the few segments a neighbour's load slows
        // down would set a pooled p90 on their own.
        let latency = |q: f64| {
            median(&runs.iter().filter_map(|run| quantile(&run.latencies(), q)).collect::<Vec<_>>())
        };
        let p50 = latency(0.5);
        report.add(format!("call_ms.p50.{b}"), p50, "ms", n);
        report.add(format!("call_ms.p90.{b}"), latency(0.9), "ms", n);
        report.add(format!("tasks_per_s.{b}"), median(&per_segment), "1/s", runs.len());
        // A median over segments, as for tasks_per_s: on tenants-rw the
        // rare moves of the 1 MiB table make a pooled mean swing by run.
        let wire_per_segment: Vec<f64> = runs
            .iter()
            .filter_map(|run| {
                let ok: Vec<&CallStats> = run.calls().filter(|c| c.tasks > 0).collect();
                let wire: u64 = ok.iter().map(|c| c.wire_bytes).sum();
                (!ok.is_empty()).then(|| wire as f64 / ok.len() as f64 / 1048576.0)
            })
            .collect();
        report.add(format!("wire_mib_per_call.{b}"), median(&wire_per_segment), "MiB", n);

        // Per-layer figures of the same untraced calls and set-ups.
        let med = |f: &dyn Fn(&CallStats) -> f64| {
            median(&ok_calls.iter().map(|c| f(c)).collect::<Vec<_>>())
        };
        report.add(format!("cluster.create_ms.{b}"), median(&creates[bi]), "ms", ROUNDS);
        if enters[bi].iter().any(|&ms| ms > 0.0) {
            report.add(format!("cluster.enter_data_ms.{b}"), median(&enters[bi]), "ms", ROUNDS);
        } else {
            report.notes.push(format!("cluster.enter_data_ms.{b}: absent, no resident input"));
        }
        report.add(format!("cluster.region_build_us.{b}"), med(&|c| c.build_us), "us", n);
        report.add(format!("cluster.host_read_us.{b}"), med(&|c| c.read_us), "us", n);
        report.add(
            format!("runtime.peak_in_flight.{b}"),
            med(&|c| c.peak_in_flight as f64),
            "count",
            n,
        );
        report.add(
            format!("data_manager.transfers_per_call.{b}"),
            med(&|c| c.transfers as f64),
            "count",
            n,
        );
        let moved: u64 = ok_calls.iter().map(|c| c.input_moved).sum();
        let mapped: u64 = ok_calls.iter().map(|c| c.input_mapped).sum();
        let reuse = if mapped == 0 { 0.0 } else { 1.0 - moved as f64 / mapped as f64 };
        report.add(format!("data_manager.resident_reuse_ratio.{b}"), reuse, "ratio", n);

        untraced.insert(b, Untraced { p50_ms: p50, calls: n, tasks_per_call: tasks as f64 / nok });
    }
    report.add("setup_s", median(&setup_s), "s", ROUNDS);
    report.add("peak_rss_mib", rss_mib, "MiB", 1);
    let ok_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.add("ok_frac", ok_frac, "ratio", report.attempted);
    report.add("failed_frac", 1.0 - ok_frac, "ratio", report.attempted);

    if args.trace {
        traced(w, args, log, &untraced, &mut report)?;
        layer_probes(w, args, log, &mut report)?;
    }
    Ok(report)
}

/// The traced run: every backend once more at `TelemetryLevel::Spans`,
/// folded into self µs per task per phase.
fn traced<W: Workload>(
    w: &W,
    args: &Args,
    log: &SpanLog,
    untraced: &BTreeMap<&str, Untraced>,
    report: &mut Report,
) -> Result<(), String> {
    for backend in BACKENDS {
        let b = backend.name();
        let ready = set_up(w, w.config(backend, TelemetryLevel::Spans), log)?;
        let first: Vec<usize> = ready.warm.iter().map(|r| r.digests.len()).collect();
        let run = run_calls(
            w,
            &ready.session,
            args.seconds * TRACED_SHARE / 2.0,
            MIN_TRACED_CALLS,
            &first,
            log,
        );
        w.teardown(ready.session, log, SpanId::ROOT);
        let n = run.count();
        let lat = run.latencies();
        let mut fold = PhaseFold::default();
        for client in &run.clients {
            fold.merge(client.fold.clone());
        }
        // Records a workload could not recover leave their tasks out of
        // the per-task figures below; say so rather than fold less quietly.
        let done: usize = run.calls().map(|c| c.tasks).sum();
        if fold.tasks < done {
            report
                .notes
                .push(format!("traced {b}: spans cover {} of {done} completed tasks", fold.tasks));
        }
        if let Some(note) = w.traced_note() {
            report.notes.push(format!("traced {b}: {note}"));
        }
        let base = &untraced[b];
        let traced_p50 = quantile(&lat, 0.5).unwrap_or(f64::NAN);
        let per_task = base.tasks_per_call.max(1.0);
        report.add(
            format!("telemetry.overhead_us_per_task.{b}"),
            (traced_p50 - base.p50_ms) * 1e3 / per_task,
            "us",
            n.min(base.calls),
        );
        let wall_us_per_task = traced_p50 * 1e3 / per_task;
        report.add(
            format!("trace.covered_share.{b}"),
            fold.busy_per_task_us() / wall_us_per_task,
            "ratio",
            fold.tasks,
        );
        for (name, phase) in PHASES {
            if fold.has(phase) {
                report.add(format!("{name}.{b}"), fold.per_task_us(phase), "us", fold.tasks);
            } else {
                report
                    .notes
                    .push(format!("{name}.{b}: absent, no {} span on this workload", phase.name()));
            }
        }
        let data_path: f64 = DATA_PATH.iter().map(|&p| fold.per_task_us(p)).sum();
        report.add(format!("data_manager.data_path_us.{b}"), data_path, "us", fold.tasks);
        match fold.recv_wait_us() {
            Some(us) => report.add(format!("worker.recv_us.{b}"), us, "us", fold.tasks),
            None => report.notes.push(format!("worker.recv_us.{b}: absent, no worker_recv marker")),
        }
        match fold.completion_wait_us() {
            Some(us) => report.add(format!("runtime.completion_us.{b}"), us, "us", fold.tasks),
            None => {
                report.notes.push(format!("runtime.completion_us.{b}: absent, no retire marker"))
            }
        }
        report.notes.push(format!(
            "runtime.retire_us.{b}: absent, the runtime records retire as a zero-length marker \
             (see runtime.completion_us)"
        ));
        if fold.serializations > 0 {
            let ratio = fold.cache_hits as f64 / fold.serializations as f64;
            report.add(
                format!("protocol.payload_cache_hit_ratio.{b}"),
                ratio,
                "ratio",
                fold.serializations,
            );
        } else {
            report
                .notes
                .push(format!("protocol.payload_cache_hit_ratio.{b}: absent, no serialize span"));
        }
        verify(w, ready.warm, &mut [run], report, b);
    }
    Ok(())
}

/// Traced phases and the per-layer metric each folds into (self µs per
/// task). `worker_recv` and `retire` are zero-length markers in the
/// runtime; the waits around them are reported as `worker.recv_us` and
/// `runtime.completion_us` instead.
const PHASES: [(&str, SpanPhase); 14] = [
    ("runtime.schedule_us", SpanPhase::Schedule),
    ("runtime.dispatch_us", SpanPhase::Dispatch),
    ("runtime.reply_us", SpanPhase::Reply),
    ("protocol.serialize_us", SpanPhase::Serialize),
    ("mpi.send_us", SpanPhase::Send),
    ("mpi.train_flush_us", SpanPhase::TrainFlush),
    ("worker.await_us", SpanPhase::WorkerAwait),
    ("kernel.compute_us", SpanPhase::Compute),
    ("data_manager.enter_data_us", SpanPhase::EnterData),
    ("data_manager.exit_data_us", SpanPhase::ExitData),
    ("data_manager.host_flush_us", SpanPhase::HostFlush),
    ("data_manager.prefetch_us", SpanPhase::Prefetch),
    ("data_manager.await_inflight_us", SpanPhase::AwaitInflight),
    ("cluster.admission_us", SpanPhase::Admission),
];

/// The data-path phases summed into `data_manager.data_path_us`.
const DATA_PATH: [SpanPhase; 5] = [
    SpanPhase::EnterData,
    SpanPhase::ExitData,
    SpanPhase::HostFlush,
    SpanPhase::Prefetch,
    SpanPhase::AwaitInflight,
];

fn layer_probes<W: Workload>(
    w: &W,
    args: &Args,
    log: &SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let ready = set_up(w, w.config(BackendKind::Mpi, TelemetryLevel::Off), log)?;
    let graph = w.sched_graph(&ready.session);
    w.teardown(ready.session, log, SpanId::ROOT);
    report.add("sched.heft_us", probes::heft_us(&graph, log), "us", 25);
    let (encode, decode) = probes::protocol_ns(args.seed, log);
    report.add("protocol.encode_ns", encode, "ns", 25);
    report.add("protocol.decode_ns", decode, "ns", 25);
    report.add("mpi.sendrecv_us.q0", probes::sendrecv_us(0, log), "us", 25);
    report.add("mpi.sendrecv_us.q256", probes::sendrecv_us(256, log), "us", 25);
    report.add("data_manager.plan_input_ns.n16", probes::plan_input_ns(16, log), "ns", 40);
    report.add("data_manager.plan_input_ns.n4096", probes::plan_input_ns(4096, log), "ns", 40);
    report.add("kernel.taskbench_us", probes::taskbench_us(args.seed, log), "us", 25);
    report.add("kernel.rtm_shot_ms", probes::rtm_shot_ms(args.seed, log), "ms", 7);
    Ok(())
}

/// `BENCHMARK.json`, whose metric lists the JSON line follows: every
/// `end_to_end` metric with `--trace 0`, every `per_layer` one with
/// `--trace 1`. The per-layer list holds the metrics every workload
/// produces; phases only some workloads reach (enter-data, host flush,
/// prefetch, in-flight awaits, admission waits) and `cluster.enter_data_ms`
/// (no resident input on `stencil-tiny`) are printed above the JSON line
/// where they occur, and listed as absent, with the reason, where they do
/// not.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Names of the metrics `BENCHMARK.json` lists under `key`.
fn listed_metrics(key: &str) -> Vec<String> {
    let manifest = Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    let metrics = manifest.get(key).and_then(Json::as_array).expect("BENCHMARK.json metric list");
    metrics.iter().filter_map(|m| m.get("name")?.as_str().map(str::to_string)).collect()
}

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["stencil-tiny", "awave-survey", "tenants-rw"];

fn write_spans(workload: &str, args: &Args, log: &SpanLog) {
    let dir = std::path::Path::new(".bench_out");
    let file =
        dir.join(format!("spans-{workload}-seed{}-trace{}.json", args.seed, u8::from(args.trace)));
    let header = format!(
        "\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{}",
        args.seed, args.seconds, args.trace
    );
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, log.to_json(&header)))
    {
        eprintln!("warning: could not write {}: {e}", file.display());
    }
}

/// Measure one workload and print its metrics, the JSON line last.
fn run_workload(workload: &str, args: &Args) -> Result<(), String> {
    let log = SpanLog::new();
    let outcome = match workload {
        "stencil-tiny" => measure(&stencil::Stencil::new(args.seed), args, &log),
        "awave-survey" => measure(&survey::Survey::new(args.seed), args, &log),
        "tenants-rw" => measure(&tenants::Tenants::new(args.seed), args, &log),
        other => Err(format!("unknown workload {other}")),
    };
    write_spans(workload, args, &log);
    let report = outcome?;
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!("{:<44} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    // A listed metric this run could not measure fails the run: any
    // stand-in value would read as a gain or a loss against the parent.
    let listed = listed_metrics(if args.trace { "per_layer" } else { "end_to_end" });
    let mut body = Vec::with_capacity(listed.len());
    for name in &listed {
        match report.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => body
                .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)),
            Some(m) => return Err(format!("{name} is not a finite number ({})", m.value)),
            None => return Err(format!("{name} is listed in BENCHMARK.json but was not measured")),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <stencil-tiny|awave-survey|tenants-rw|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_each(&args)
    } else {
        run_workload(&args.workload, &args).map_err(|e| format!("{}: {e}", args.workload))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: every workload in a child process of its own, one at
/// a time, so each one's peak resident set is its own.
fn run_each(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{workload}: could not start: {e}"))?;
        if !status.success() {
            return Err(format!("{workload}: {status}"));
        }
    }
    Ok(())
}

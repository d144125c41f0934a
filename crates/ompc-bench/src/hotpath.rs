//! The MPI hot-path figure: the §7 per-task messaging overhead of the
//! message-passing backend (one composite message per task, the any-source
//! completion channel, the cached payload codecs) against the threaded
//! backend, and how much of a tiny run's wall time the warm persistent
//! worker pool saves (the fig. 7(a) start-up share).
//!
//! * [`run_hotpath_overhead`] — the wide tiny-task graph of the
//!   `backend_overhead` figure on the MPI and threaded backends with the
//!   same plan, min-of-`repeats` per point.
//! * [`run_warm_startup`] — repeated tiny device lifetimes measured cold
//!   (fresh gate threads every time) and warm (adopting the parked pool),
//!   reporting the start-up share of each mode's best lifetime.
//! * [`hotpath_json`] — the `results/mpi_hotpath.json` document: both row
//!   sets plus a summary with the window-1 ratio and the cold/warm start-up
//!   shares.

use crate::report::JsonRow;
use ompc_core::model::WorkloadGraph;
use ompc_core::prelude::*;
use ompc_json::Json;
use ompc_sched::TaskGraph;
use std::time::Instant;

/// One point of the hot-path overhead figure.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathOverheadRow {
    /// Execution mode: `threaded` or `mpi`.
    pub mode: &'static str,
    /// In-flight window size.
    pub window: usize,
    /// Number of tasks in the wide graph.
    pub tasks: usize,
    /// Best wall time over the repeats, in seconds.
    pub seconds: f64,
    /// `seconds` over the threaded backend's seconds at the same window.
    pub ratio_vs_threaded: f64,
}

/// One point of the warm-pool start-up figure.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathStartupRow {
    /// `cold` (fresh gate threads) or `warm` (adopted parked pool).
    pub mode: &'static str,
    /// Worker start-up time of the measured lifetime, in seconds.
    pub startup_seconds: f64,
    /// Whole lifetime wall time (creation through shutdown), in seconds.
    pub total_seconds: f64,
    /// `startup_seconds / total_seconds`.
    pub startup_share: f64,
}

/// A wide, dependence-free graph of `tasks` tiny tasks with small outputs —
/// pure dispatch overhead, the same shape as the `backend_overhead` figure.
fn wide_workload(tasks: usize) -> WorkloadGraph {
    let mut g = TaskGraph::new();
    for _ in 0..tasks {
        g.add_task(1e-5);
    }
    WorkloadGraph::new(g, vec![256; tasks])
}

/// Wall time of one `run_workload` (device creation and shutdown excluded,
/// matching the `backend_overhead` methodology), best of `repeats`.
fn measure(
    workers: usize,
    config: &OmpcConfig,
    workload: &WorkloadGraph,
    plan: &RuntimePlan,
    repeats: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let mut device = ClusterDevice::with_config(workers, config.clone());
        let start = Instant::now();
        device.run_workload(workload, plan).expect("hotpath workload");
        let seconds = start.elapsed().as_secs_f64();
        device.shutdown();
        best = best.min(seconds);
    }
    best
}

/// The hot-path overhead figure: the wide graph on the threaded and the MPI
/// backend, same plan on both.
pub fn run_hotpath_overhead(
    windows: &[usize],
    tasks: usize,
    workers: usize,
    repeats: usize,
) -> Vec<HotpathOverheadRow> {
    let workload = wide_workload(tasks);
    let assignment: Vec<NodeId> = (0..tasks).map(|t| (t % workers) + 1).collect();
    let mut rows = Vec::new();
    for &window in windows {
        let plan = RuntimePlan { assignment: assignment.clone(), window };
        let base = OmpcConfig { max_inflight_tasks: Some(window), ..OmpcConfig::small() };
        let threaded = measure(
            workers,
            &OmpcConfig { backend: BackendKind::Threaded, ..base.clone() },
            &workload,
            &plan,
            repeats,
        );
        let points = [
            ("threaded", threaded),
            (
                "mpi",
                measure(
                    workers,
                    &OmpcConfig { backend: BackendKind::Mpi, ..base.clone() },
                    &workload,
                    &plan,
                    repeats,
                ),
            ),
        ];
        for (mode, seconds) in points {
            rows.push(HotpathOverheadRow {
                mode,
                window,
                tasks,
                seconds,
                ratio_vs_threaded: seconds / threaded,
            });
        }
    }
    rows
}

/// One tiny device lifetime: create, run the tiny graph once, shut down.
/// Returns (startup seconds, whole-lifetime wall seconds).
fn tiny_lifetime(
    workers: usize,
    config: &OmpcConfig,
    workload: &WorkloadGraph,
    plan: &RuntimePlan,
) -> (f64, f64) {
    let start = Instant::now();
    let mut device = ClusterDevice::with_config(workers, config.clone());
    device.run_workload(workload, plan).expect("tiny workload");
    let startup = device.report().startup_time.as_secs_f64();
    device.shutdown();
    (startup, start.elapsed().as_secs_f64())
}

/// The warm-pool start-up figure: `lifetimes` repeated tiny MPI device
/// lifetimes with the keep-alive off (every lifetime pays the cold gate
/// spawn) and on (every lifetime after the first adopts the parked pool).
/// Each mode reports its best lifetime; the first warm lifetime is skipped
/// because it has no parked pool to adopt yet.
pub fn run_warm_startup(lifetimes: usize, tasks: usize, workers: usize) -> Vec<HotpathStartupRow> {
    let workload = wide_workload(tasks);
    let assignment: Vec<NodeId> = (0..tasks).map(|t| (t % workers) + 1).collect();
    let plan = RuntimePlan { assignment, window: tasks.max(1) };
    let mut rows = Vec::new();
    for (mode, keepalive) in [("cold", false), ("warm", true)] {
        let config = OmpcConfig {
            backend: BackendKind::Mpi,
            max_inflight_tasks: Some(tasks.max(1)),
            warm_worker_keepalive: keepalive,
            ..OmpcConfig::small()
        };
        let mut best: Option<(f64, f64)> = None;
        for lifetime in 0..lifetimes.max(2) {
            let (startup, total) = tiny_lifetime(workers, &config, &workload, &plan);
            if keepalive && lifetime == 0 {
                continue;
            }
            best = Some(match best {
                Some(b) if b.1 <= total => b,
                _ => (startup, total),
            });
        }
        let (startup_seconds, total_seconds) = best.expect("at least one measured lifetime");
        rows.push(HotpathStartupRow {
            mode,
            startup_seconds,
            total_seconds,
            startup_share: startup_seconds / total_seconds,
        });
    }
    rows
}

/// Render the `results/mpi_hotpath.json` document: both row sets plus the
/// summary the acceptance gate reads.
pub fn hotpath_json(overhead: &[HotpathOverheadRow], startup: &[HotpathStartupRow]) -> String {
    let window1 = |mode: &str| {
        overhead.iter().find(|r| r.window == 1 && r.mode == mode).map(|r| r.ratio_vs_threaded)
    };
    let share = |mode: &str| startup.iter().find(|r| r.mode == mode).map(|r| r.startup_share);
    let opt = |v: Option<f64>| v.map(Json::num).unwrap_or(Json::Null);
    Json::obj([
        ("overhead", Json::Arr(overhead.iter().map(JsonRow::to_json_value).collect())),
        ("startup", Json::Arr(startup.iter().map(JsonRow::to_json_value).collect())),
        (
            "summary",
            Json::obj([
                ("window1_mpi_vs_threaded", opt(window1("mpi"))),
                ("cold_startup_share", opt(share("cold"))),
                ("warm_startup_share", opt(share("warm"))),
            ]),
        ),
    ])
    .to_string_pretty()
}

impl JsonRow for HotpathOverheadRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("mode", Json::str(self.mode)),
            ("window", Json::usize(self.window)),
            ("tasks", Json::usize(self.tasks)),
            ("seconds", Json::num(self.seconds)),
            ("ratio_vs_threaded", Json::num(self.ratio_vs_threaded)),
        ])
    }
}

impl JsonRow for HotpathStartupRow {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("mode", Json::str(self.mode)),
            ("startup_seconds", Json::num(self.startup_seconds)),
            ("total_seconds", Json::num(self.total_seconds)),
            ("startup_share", Json::num(self.startup_share)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_overhead_measures_every_mode_at_each_window() {
        let rows = run_hotpath_overhead(&[1, 4], 16, 2, 1);
        assert_eq!(rows.len(), 4);
        for mode in ["threaded", "mpi"] {
            for &window in &[1usize, 4] {
                let row = rows.iter().find(|r| r.mode == mode && r.window == window).unwrap();
                assert!(row.seconds > 0.0 && row.ratio_vs_threaded > 0.0);
            }
        }
    }

    #[test]
    fn warm_startup_reports_both_modes() {
        let rows = run_warm_startup(2, 4, 2);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.total_seconds > 0.0);
            assert!((0.0..=1.0).contains(&row.startup_share), "{row:?}");
        }
    }

    #[test]
    fn hotpath_json_summarizes_window1_and_startup() {
        let overhead = run_hotpath_overhead(&[1], 8, 2, 1);
        let startup = run_warm_startup(2, 4, 2);
        let doc = hotpath_json(&overhead, &startup);
        let parsed = Json::parse(&doc).unwrap();
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("window1_mpi_vs_threaded").unwrap().as_f64().unwrap() > 0.0);
        assert!(summary.get("cold_startup_share").unwrap().as_f64().is_some());
        assert_eq!(parsed.get("overhead").unwrap().as_array().unwrap().len(), 2);
    }
}

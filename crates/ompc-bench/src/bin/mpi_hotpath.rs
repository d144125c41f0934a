//! The MPI hot-path figure: threaded-vs-MPI dispatch overhead, plus the
//! warm-pool start-up share of a tiny run. Writes
//! `results/mpi_hotpath.json`.
//!
//! Usage: `cargo run --release -p ompc-bench --bin mpi_hotpath [--smoke]`
//!
//! `--smoke` shrinks every dimension for CI: the figure loses statistical
//! weight but still exercises every measured configuration end to end.

use ompc_bench::{hotpath_json, render_table, run_hotpath_overhead, run_warm_startup};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (windows, tasks, workers, repeats, lifetimes): (&[usize], usize, usize, usize, usize) =
        if smoke { (&[1, 4], 32, 2, 2, 2) } else { (&[1, 2, 4, 8, 16], 256, 4, 5, 4) };

    eprintln!("# MPI hot path: threaded vs MPI, {tasks} tiny tasks");
    let overhead = run_hotpath_overhead(windows, tasks, workers, repeats);
    let header = vec![
        "mode".to_string(),
        "window".to_string(),
        "tasks".to_string(),
        "seconds".to_string(),
        "vs threaded".to_string(),
    ];
    let rows: Vec<Vec<String>> = overhead
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                r.window.to_string(),
                r.tasks.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.2}x", r.ratio_vs_threaded),
            ]
        })
        .collect();
    println!();
    print!("{}", render_table(&header, &rows));

    eprintln!("\n# Warm-pool start-up share: tiny MPI lifetimes, cold vs warm");
    let startup = run_warm_startup(lifetimes, 4, workers);
    let header = vec![
        "mode".to_string(),
        "startup (s)".to_string(),
        "lifetime (s)".to_string(),
        "startup share".to_string(),
    ];
    let rows: Vec<Vec<String>> = startup
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{:.4}", r.startup_seconds),
                format!("{:.4}", r.total_seconds),
                format!("{:.1}%", 100.0 * r.startup_share),
            ]
        })
        .collect();
    println!();
    print!("{}", render_table(&header, &rows));

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/mpi_hotpath.json", hotpath_json(&overhead, &startup)).ok();
    eprintln!("\nwrote results/mpi_hotpath.json ({} overhead rows)", overhead.len());
}

//! Integration tests of the error-aware event protocol: a worker-side
//! handler failure (unregistered kernel, injected task error) or a worker
//! death mid-run must surface as a propagated `OmpcError` from **all
//! three** execution backends (simulated, threaded, message-passing MPI)
//! within bounded time — never as a head-side hang — and the backends must
//! agree on the decision record of the failed run. Every test body runs
//! under a 120 s watchdog so any future protocol hang fails fast instead
//! of wedging the suite.

use ompc::prelude::*;
use ompc::sched::TaskGraph;
use ompc::sim::ClusterConfig;
use ompc_testutil::with_timeout;
use std::time::Duration;

/// Per-test watchdog: generous for slow CI, tiny next to a wedged job.
const WATCHDOG: Duration = Duration::from_secs(120);

fn chain_workload(n: usize, cost: f64, bytes: u64) -> WorkloadGraph {
    let mut g = TaskGraph::new();
    for _ in 0..n {
        g.add_task(cost);
    }
    for t in 1..n {
        g.add_edge(t - 1, t, bytes);
    }
    WorkloadGraph::new(g, vec![bytes; n])
}

#[test]
fn unregistered_kernel_errors_all_backends_with_equivalent_records() {
    with_timeout(WATCHDOG, || {
        // A 6-task chain alternating between two workers; task 3's
        // execution is forced to fail at the protocol layer (the threaded
        // and MPI backends execute a genuinely unregistered kernel, the
        // simulated backend models the same failed reply).
        let n = 6usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().error_on_task(3),
            max_inflight_tasks: Some(1),
            ..OmpcConfig::small()
        };
        let assignment: Vec<NodeId> = (0..n).map(|t| 1 + t % 2).collect();
        let plan = RuntimePlan { assignment, window: config.inflight_window() };

        let outcome = simulate_ompc_outcome(
            &workload,
            &ClusterConfig::santos_dumont(3),
            &config,
            &OverheadModel::default(),
            Some(&plan),
        );
        let sim_record = outcome.record;
        let sim_err = outcome.result.unwrap_err();
        assert!(
            matches!(sim_err.root_cause(), OmpcError::UnknownKernel(_)),
            "sim: expected an unknown-kernel root cause, got {sim_err:?}"
        );
        assert_eq!(sim_err.origin_node(), Some(plan.assignment[3]), "sim blames the wrong node");

        let mut records = Vec::new();
        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let mut device =
                ClusterDevice::with_config(2, OmpcConfig { backend, ..config.clone() });
            let err = device.run_workload(&workload, &plan).unwrap_err();
            assert!(
                matches!(err.root_cause(), OmpcError::UnknownKernel(_)),
                "{}: expected an unknown-kernel root cause, got {err:?}",
                backend.name()
            );
            assert_eq!(err.origin_node(), Some(plan.assignment[3]), "{}", backend.name());
            records.push((
                backend.name(),
                device.last_run_record().expect("failed runs keep their record"),
            ));
            device.shutdown();
        }

        // Backend-equivalent records of the failed run: identical
        // dispatches and identical completions before the propagated error.
        assert_eq!(sim_record.completion_order, vec![0, 1, 2]);
        for (name, record) in &records {
            assert_eq!(sim_record.completion_order, record.completion_order, "{name}");
            assert_eq!(sim_record.dispatch_order, record.dispatch_order, "{name}");
            assert_eq!(sim_record.assignment, record.assignment, "{name}");
            assert!(record.failures.is_empty(), "{name}");
        }
        assert!(sim_record.failures.is_empty());
    });
}

#[test]
fn unregistered_kernel_in_a_target_region_is_an_error_not_a_hang() {
    with_timeout(WATCHDOG, || {
        // Offload a kernel id that was never registered: the worker's
        // handler fails, and the typed error reply propagates out of
        // `TargetRegion::run` attributing the executing node.
        let mut device = ClusterDevice::spawn(2);
        let bogus = KernelId(424_242);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bogus, vec![Dependence::inout(a)]);
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::UnknownKernel(bogus), "got {err:?}");
        let node = err.origin_node().expect("the error names the failing node");
        assert!((1..=2).contains(&node), "blamed node {node} is not a worker");
        device.shutdown();
    });
}

#[test]
fn mid_run_death_of_the_only_worker_errors_all_backends_in_bounded_time() {
    with_timeout(WATCHDOG, || {
        // The only worker dies after its second retirement, with work (and
        // its data) still on it: nothing can recover, so every backend
        // must report `NodeFailure` — the threaded and MPI backends kill
        // the worker's event loop for real, so this also proves the killed
        // node's error replies keep the head from hanging (for the MPI
        // backend: the zombie gate answers composite task messages with
        // typed refusals).
        let n = 6usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(1, 2),
            max_inflight_tasks: Some(1),
            ..OmpcConfig::small()
        };
        let plan = RuntimePlan { assignment: vec![1; n], window: config.inflight_window() };

        let outcome = simulate_ompc_outcome(
            &workload,
            &ClusterConfig::santos_dumont(2),
            &config,
            &OverheadModel::default(),
            Some(&plan),
        );
        let sim_record = outcome.record;
        assert_eq!(outcome.result.unwrap_err(), OmpcError::NodeFailure(1));
        assert_eq!(sim_record.completion_order, vec![0, 1]);
        assert_eq!(sim_record.failures.len(), 1);
        assert_eq!(sim_record.failures[0].node, 1);

        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let mut device =
                ClusterDevice::with_config(1, OmpcConfig { backend, ..config.clone() });
            let err = device.run_workload(&workload, &plan).unwrap_err();
            assert_eq!(err, OmpcError::NodeFailure(1), "{}", backend.name());
            let record = device.last_run_record().unwrap();
            device.shutdown();

            // Equivalent decision records (fault-clock timestamps aside):
            // the same completions retired before the death, the same
            // failure declared, the same tasks caught by the
            // lineage/restart machinery.
            let name = backend.name();
            assert_eq!(sim_record.completion_order, record.completion_order, "{name}");
            assert_eq!(record.failures.len(), 1, "{name}");
            assert_eq!(record.failures[0].node, 1, "{name}");
            assert_eq!(sim_record.failures[0].lost_buffers, record.failures[0].lost_buffers);
            assert_eq!(sim_record.failures[0].lineage_tasks, record.failures[0].lineage_tasks);
            assert_eq!(sim_record.reexecuted, record.reexecuted, "{name}");
            assert_eq!(sim_record.assignment, record.assignment, "{name}");
        }
    });
}

#[test]
fn device_survives_a_task_error_and_reuses_its_long_lived_pool() {
    with_timeout(WATCHDOG, || {
        // Region 1 fails with a worker-side handler error; region 2 on the
        // same device must still run to completion through the same
        // long-lived pool (no stale work from the failed region bleeds in).
        let mut device = ClusterDevice::spawn(2);
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });

        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(KernelId(999_999), vec![Dependence::inout(a)]);
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert!(matches!(err.root_cause(), OmpcError::UnknownKernel(_)));
        let threads_after_failure = device.pool_threads();
        assert!(threads_after_failure > 0, "the pool survives a failed region");

        let mut region = device.target_region();
        let b = region.map_to_f64s(&[10.0, 20.0]);
        region.target(bump, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(b).unwrap(), vec![11.0, 21.0]);
        device.shutdown();
    });
}

#[test]
fn pool_is_sized_by_min_of_threads_window_and_tasks_and_grows_lazily() {
    with_timeout(WATCHDOG, || {
        let config = OmpcConfig { head_worker_threads: 4, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(2, config);
        assert_eq!(device.pool_threads(), 0, "no region executed, no pool threads yet");
        let noop = device.register_kernel_fn("noop", 1e-6, |_| {});

        // A 3-task region (enter + target + exit) needs only 3 threads.
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[0.0]);
        region.target(noop, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.pool_threads(), 3, "pool sized min(threads=4, window=4, tasks=3)");

        // A larger region grows the pool to the thread cap — and reuses
        // the existing threads instead of respawning.
        let mut region = device.target_region();
        let buffers: Vec<BufferId> = (0..8).map(|i| region.map_to_f64s(&[i as f64])).collect();
        for &b in &buffers {
            region.target(noop, vec![Dependence::inout(b)]);
        }
        region.run().unwrap();
        assert_eq!(device.pool_threads(), 4, "pool grew to head_worker_threads and no further");

        // A small region afterwards keeps the grown pool (no churn).
        let mut region = device.target_region();
        let c = region.map_to_f64s(&[0.0]);
        region.target(noop, vec![Dependence::inout(c)]);
        region.run().unwrap();
        assert_eq!(device.pool_threads(), 4);
        device.shutdown();
        assert_eq!(device.pool_threads(), 0, "shutdown drains the pool");
    });
}

#[test]
fn wall_clock_trigger_kills_a_worker_during_a_long_run() {
    with_timeout(WATCHDOG, || {
        // `AtWallMillis(0)` fires on the first heartbeat round of the run:
        // the victim dies by real elapsed time (the soak-test trigger) and
        // recovery completes the region on the survivor with correct bytes.
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_at_wall_millis(1, 0),
            ..OmpcConfig::small()
        };
        let mut device = ClusterDevice::with_config(2, config);
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![3.0, 4.0]);
        let record = device.last_run_record().unwrap();
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, 1);
        assert_eq!(device.alive_workers(), vec![2]);
        device.shutdown();
    });
}

#[test]
fn out_of_range_task_error_is_rejected_by_all_backends() {
    with_timeout(WATCHDOG, || {
        // A typo'd task index in `error_on_task` must fail the run up
        // front with `InvalidConfig`, not silently degrade the fault plan
        // to a no-op.
        let n = 4usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config =
            OmpcConfig { fault_plan: FaultPlan::none().error_on_task(30), ..OmpcConfig::small() };
        let plan = RuntimePlan { assignment: vec![1; n], window: config.inflight_window() };

        let outcome = simulate_ompc_outcome(
            &workload,
            &ClusterConfig::santos_dumont(2),
            &config,
            &OverheadModel::default(),
            Some(&plan),
        );
        assert!(matches!(outcome.result.unwrap_err(), OmpcError::InvalidConfig(_)));

        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let mut device =
                ClusterDevice::with_config(1, OmpcConfig { backend, ..config.clone() });
            let err = device.run_workload(&workload, &plan).unwrap_err();
            assert!(matches!(err, OmpcError::InvalidConfig(_)), "{}: got {err:?}", backend.name());
            device.shutdown();
        }
    });
}

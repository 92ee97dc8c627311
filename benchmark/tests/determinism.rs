//! The benchmark's simulated outputs are a pure function of workload and
//! seed: they repeat exactly, instrumentation does not move them, and a
//! seed other than the default one is as clean as the default.

use std::sync::Mutex;

use lotec_benchmark::{run_workload, Metric, Options, RunResult, WORKLOADS};

/// A `hotspot_recorded` cell peaks near 400 MiB and a `scaleout_steady`
/// one near 250 MiB. One test at a time keeps the suite's peak at one
/// cell's instead of three at once.
static SERIAL: Mutex<()> = Mutex::new(());

const COUNTS: [&str; 5] = [
    "sim.events",
    "txn.lock_ops",
    "txn.deadlock_gate_calls",
    "mem.page_installs",
    "obs.records",
];

fn one_cell(workload: &'static lotec_benchmark::Workload, seed: u64, trace: bool) -> RunResult {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    run_workload(workload, &opts).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name))
}

fn sim_metrics(r: &RunResult) -> Vec<Metric> {
    r.end_to_end
        .iter()
        .filter(|m| m.name.starts_with("sim_"))
        .cloned()
        .collect()
}

fn layer_counts(r: &RunResult) -> Vec<Metric> {
    r.per_layer
        .as_ref()
        .expect("traced run")
        .iter()
        .filter(|m| COUNTS.contains(&m.name))
        .cloned()
        .collect()
}

#[test]
fn same_seed_runs_repeat_sim_metrics_and_layer_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in &WORKLOADS {
        let (a, b) = (one_cell(w, 1, false), one_cell(w, 1, false));
        assert_eq!(a.sim, b.sim, "{}", w.name);
        assert_eq!(sim_metrics(&a), sim_metrics(&b), "{}", w.name);
        let (ta, tb) = (one_cell(w, 1, true), one_cell(w, 1, true));
        assert_eq!(layer_counts(&ta), layer_counts(&tb), "{}", w.name);
        assert!(
            layer_counts(&ta).iter().any(|m| m.value > 0.0),
            "{}: counts are live",
            w.name
        );
    }
}

#[test]
fn traced_sim_metrics_equal_untraced() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in &WORKLOADS {
        let plain = one_cell(w, 3, false);
        let traced = one_cell(w, 3, true);
        assert_eq!(plain.sim, traced.sim, "{}", w.name);
        assert_eq!(sim_metrics(&plain), sim_metrics(&traced), "{}", w.name);
    }
}

#[test]
fn second_seed_is_oracle_clean_and_commits_everything() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in &WORKLOADS {
        // `run_workload` returns an error on any engine error, oracle
        // violation or output cross-check failure.
        let first = one_cell(w, 1, false);
        let second = one_cell(w, 2, false);
        assert_eq!(second.failed, 0, "{}: failed_frac must be 0", w.name);
        assert!(second.attempted > 0, "{}", w.name);
        assert_ne!(
            first.sim, second.sim,
            "{}: seeds must change the inputs",
            w.name
        );
    }
}

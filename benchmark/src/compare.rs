//! Judging runs against each other: the `compare` and `calibrate` rules.
//!
//! A run file is what `run` writes: `{"seed", "workloads": {name:
//! {"correct", "attempted", "failed", "metrics": {metric: {"value",
//! "unit"}}}}}`. Bounds and directions come from `BENCHMARK.json`.
//!
//! Simulated metrics (`sim_*`) are a pure function of the seed. Where two
//! runs share a seed they are judged exactly, whatever their bound: any
//! difference means the change altered what the engine simulates.

use lotec_obs::Json;

use crate::{stats, END_TO_END};

/// Whether `metric` is simulated, so that it repeats exactly for a seed.
pub fn is_simulated(metric: &str) -> bool {
    metric.starts_with("sim_")
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Describes the first malformed entry.
pub fn load_spec(text: &str) -> Result<Vec<Bounded>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match row.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = row
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bounded {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Workload names present in a run file, in file order.
fn workloads(run: &Json) -> Vec<String> {
    match run.get("workloads") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// The value of `metric` for `workload` in every run, in run order.
///
/// # Errors
///
/// Names the first run that lacks the value: skipping it would pair the
/// remaining runs with the wrong runs of the other side.
fn values(runs: &[Json], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .enumerate()
        .map(|(i, r)| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run {i} has no {workload} {metric}"))
        })
        .collect()
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let med = stats::median(values);
        let (q1, q3) = stats::quartiles(values).unwrap_or((med, med));
        Summary {
            median: med,
            q1,
            q3,
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent side.
    pub parent: Summary,
    /// Change side.
    pub change: Summary,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The change wins ≥ 9/10 of pairs and its median beats the parent's
    /// by more than the parent's interquartile range.
    pub gain: bool,
    /// The change's median is worse than the parent's by more than the
    /// bound. For a simulated metric at equal seeds: any pair is worse.
    pub regression: bool,
    /// The parent's own spread (IQR / median) exceeds the bound, and the
    /// change does not beat every parent run with every one of its own.
    pub unresolved: bool,
    /// A simulated metric at equal seeds differs in some pair.
    pub changed: bool,
}

impl Row {
    /// One-word verdict.
    pub fn verdict(&self) -> &'static str {
        match (self.regression, self.unresolved, self.gain, self.changed) {
            (true, true, _, _) => "REGRESSION?",
            (true, false, _, _) => "REGRESSION",
            (false, true, _, _) => "unresolved",
            (false, false, true, _) => "gain",
            (false, false, false, true) => "changed",
            (false, false, false, false) => "ok",
        }
    }
}

/// How much better `change` is than `parent` in the metric's direction
/// (negative when worse).
fn improvement(better: Better, parent: f64, change: f64) -> f64 {
    match better {
        Better::Lower => parent - change,
        Better::Higher => change - parent,
    }
}

/// Compares one metric of one workload: `parent[i]` and `change[i]` are
/// the i-th pair of alternating runs, of equal length. With `same_seeds`
/// every pair ran at one seed, and a simulated metric is judged exactly.
fn compare_metric(
    workload: &str,
    spec: &Bounded,
    parent: &[f64],
    change: &[f64],
    same_seeds: bool,
) -> Row {
    let pairs = parent.len();
    let gains: Vec<f64> = parent
        .iter()
        .zip(change)
        .map(|(&p, &c)| improvement(spec.better, p, c))
        .collect();
    let wins = gains.iter().filter(|&&g| g > 0.0).count();
    let (p, c) = (Summary::of(parent), Summary::of(change));
    let mut row = Row {
        workload: workload.to_string(),
        metric: spec.name.clone(),
        parent: p,
        change: c,
        wins,
        pairs,
        gain: false,
        regression: false,
        unresolved: false,
        changed: false,
    };
    if same_seeds && is_simulated(&spec.name) {
        row.regression = gains.iter().any(|&g| g < 0.0);
        row.changed = gains.iter().any(|&g| g != 0.0);
        return row;
    }
    let gap = improvement(spec.better, p.median, c.median);
    let parent_spread = stats::spread(parent).unwrap_or(0.0);
    let all_better = parent.iter().all(|&pv| {
        change
            .iter()
            .all(|&cv| improvement(spec.better, pv, cv) > 0.0)
    });
    row.gain = pairs > 0 && wins * 10 >= pairs * 9 && gap > p.q3 - p.q1;
    row.regression = -gap > spec.bound * p.median.abs();
    row.unresolved = parent_spread > spec.bound && !all_better;
    row
}

/// Compares every bounded metric of every workload the parent runs name.
///
/// # Errors
///
/// The sides hold different numbers of runs, or a run lacks a workload or
/// metric that the first parent run has.
pub fn compare(parent: &[Json], change: &[Json], spec: &[Bounded]) -> Result<Vec<Row>, String> {
    if parent.len() != change.len() {
        return Err(format!(
            "{} parent runs but {} change runs; runs are compared in pairs",
            parent.len(),
            change.len()
        ));
    }
    let seed = |r: &Json| r.get("seed").and_then(Json::as_u64);
    let same_seeds = parent
        .iter()
        .zip(change)
        .all(|(p, c)| seed(p).is_some() && seed(p) == seed(c));
    let names = parent.first().map(workloads).unwrap_or_default();
    let mut rows = Vec::new();
    for workload in &names {
        for metric in spec {
            let p = values(parent, workload, &metric.name).map_err(|e| format!("parent {e}"))?;
            let c = values(change, workload, &metric.name).map_err(|e| format!("change {e}"))?;
            rows.push(compare_metric(workload, metric, &p, &c, same_seeds));
        }
    }
    Ok(rows)
}

/// Calibration result for one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// Metric name.
    pub metric: &'static str,
    /// Spread (IQR / median) per workload, in run-file order.
    pub spreads: Vec<(String, f64)>,
    /// Workloads on which the metric took more than one value.
    pub varied: Vec<String>,
    /// The metric's default bound.
    pub default: f64,
    /// `max(default, factor × widest spread)`, rounded up to a hundredth.
    pub bound: f64,
}

/// Proposes a bound for every end-to-end metric from a set of runs:
/// `factor` times the widest spread over workloads, and never less than
/// the metric's default.
///
/// # Errors
///
/// A run lacks a workload or metric that the first run has.
pub fn calibrate(runs: &[Json], factor: f64) -> Result<Vec<Proposal>, String> {
    let names = runs.first().map(workloads).unwrap_or_default();
    END_TO_END
        .iter()
        .map(|def| {
            let mut spreads = Vec::new();
            let mut varied = Vec::new();
            for w in &names {
                let v = values(runs, w, def.name)?;
                if v.windows(2).any(|pair| pair[0] != pair[1]) {
                    varied.push(w.clone());
                }
                spreads.push((w.clone(), stats::spread(&v).unwrap_or(0.0)));
            }
            let widest = spreads.iter().map(|&(_, s)| s).fold(0.0, f64::max);
            let default = def
                .default_bound
                .expect("end-to-end metrics have a default bound");
            let bound = ((factor * widest).max(default) * 100.0).ceil() / 100.0;
            Ok(Proposal {
                metric: def.name,
                spreads,
                varied,
                default,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> Bounded {
        Bounded {
            name: "m".into(),
            better,
            bound,
        }
    }

    fn pair(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Row {
        compare_metric("w", &spec(better, bound), parent, change, false)
    }

    /// A run file at `seed` whose workload `a` reports every end-to-end
    /// metric as 1, except `metric`, which reads `value`.
    fn run_file(seed: u64, metric: &str, value: f64) -> Json {
        let metrics = END_TO_END
            .iter()
            .map(|d| {
                let v = if d.name == metric { value } else { 1.0 };
                (
                    d.name.to_string(),
                    Json::obj(vec![("value", Json::F64(v)), ("unit", Json::str(d.unit))]),
                )
            })
            .collect();
        let workload = Json::obj(vec![("metrics", Json::Obj(metrics))]);
        Json::obj(vec![
            ("seed", Json::U64(seed)),
            ("workloads", Json::Obj(vec![("a".to_string(), workload)])),
        ])
    }

    #[test]
    fn steady_faster_change_is_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let row = pair(Better::Higher, 0.1, &parent, &change);
        assert_eq!((row.wins, row.pairs), (10, 10));
        assert_eq!(row.verdict(), "gain");
    }

    #[test]
    fn worse_beyond_bound_is_a_regression() {
        let parent = vec![10.0; 10];
        let change = vec![11.5; 10];
        assert_eq!(
            pair(Better::Lower, 0.1, &parent, &change).verdict(),
            "REGRESSION"
        );
        assert_eq!(pair(Better::Lower, 0.2, &parent, &change).verdict(), "ok");
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_change_dominates() {
        let parent: Vec<f64> = (0..10).map(|i| 50.0 + 10.0 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            pair(Better::Lower, 0.05, &parent, &change).verdict(),
            "unresolved"
        );
        let dominating = vec![1.0; 10];
        assert_eq!(
            pair(Better::Lower, 0.05, &parent, &dominating).verdict(),
            "gain"
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let row = pair(Better::Lower, 0.1, &[1.0; 10], &[1.0; 10]);
        assert_eq!(row.wins, 0);
        assert_eq!(row.verdict(), "ok");
    }

    #[test]
    fn simulated_metrics_at_equal_seeds_are_judged_exactly() {
        let runs = |seeds: &[u64], bytes: f64| -> Vec<Json> {
            seeds
                .iter()
                .map(|&s| run_file(s, "sim_bytes_per_commit", bytes))
                .collect()
        };
        let bytes = Bounded {
            name: "sim_bytes_per_commit".into(),
            better: Better::Lower,
            bound: 0.25,
        };
        let seeds: Vec<u64> = (1..=10).collect();
        let verdict = |parent: &[Json], change: &[Json]| {
            compare(parent, change, std::slice::from_ref(&bytes)).unwrap()[0].verdict()
        };
        // A 20 % regression lies within the bound, but the seeds match.
        assert_eq!(
            verdict(&runs(&seeds, 100.0), &runs(&seeds, 120.0)),
            "REGRESSION"
        );
        assert_eq!(
            verdict(&runs(&seeds, 100.0), &runs(&seeds, 99.0)),
            "changed"
        );
        assert_eq!(verdict(&runs(&seeds, 100.0), &runs(&seeds, 100.0)), "ok");
        // At other seeds the values differ anyway, so the bound decides.
        let other: Vec<u64> = (11..=20).collect();
        assert_eq!(verdict(&runs(&seeds, 100.0), &runs(&other, 120.0)), "ok");
    }

    #[test]
    fn a_run_missing_a_workload_or_metric_is_refused() {
        let spec = load_spec(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let full: Vec<Json> = (0..10).map(|s| run_file(s, "setup_s", 2.0)).collect();
        let mut gappy = full.clone();
        gappy[3] = Json::obj(vec![
            ("seed", Json::U64(3)),
            ("workloads", Json::Obj(Vec::new())),
        ]);
        let err = compare(&full, &gappy, &spec).unwrap_err();
        assert!(err.contains("change run 3"), "{err}");
        assert!(compare(&gappy, &full, &spec).is_err());
        assert!(compare(&full, &full[..9], &spec).is_err());
        assert!(calibrate(&gappy, 2.0).is_err());
        assert_eq!(compare(&full, &full, &spec).unwrap()[0].verdict(), "ok");
    }

    #[test]
    fn spec_and_run_files_parse() {
        let spec = load_spec(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(spec[0].bound, 0.25);
        assert!(load_spec(r#"{"end_to_end": [{"name": "x", "better": "up"}]}"#).is_err());
        let run = Json::parse(
            r#"{"seed": 1, "workloads": {"a": {"metrics": {"setup_s": {"value": 2.5, "unit": "s"}}}}}"#,
        )
        .unwrap();
        assert_eq!(workloads(&run), vec!["a".to_string()]);
        assert_eq!(
            values(&[run.clone(), run], "a", "setup_s"),
            Ok(vec![2.5, 2.5])
        );
    }

    #[test]
    fn calibration_scales_the_widest_spread() {
        let setups = [1.0, 1.05, 1.1, 1.15, 1.2];
        let runs: Vec<Json> = setups.iter().map(|&v| run_file(1, "setup_s", v)).collect();
        let spread = stats::spread(&setups).unwrap();
        for factor in [2.0, 3.0] {
            let proposals = calibrate(&runs, factor).unwrap();
            let setup = proposals.iter().find(|p| p.metric == "setup_s").unwrap();
            assert_eq!(setup.spreads, vec![("a".to_string(), spread)]);
            assert_eq!(setup.varied, vec!["a".to_string()]);
            assert_eq!(
                setup.bound,
                ((factor * spread).max(0.10) * 100.0).ceil() / 100.0
            );
            let bytes = proposals
                .iter()
                .find(|p| p.metric == "sim_bytes_per_commit")
                .unwrap();
            assert!(bytes.varied.is_empty());
            assert_eq!(bytes.bound, 0.0);
        }
    }
}

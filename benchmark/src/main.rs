//! Command line of the LOTEC benchmark; see `benchmark/README.md`.
//!
//! With `--workload` it runs one workload in this process and prints
//! `workload metric value unit` rows, then one JSON result line. The
//! `run`, `calibrate` and `compare` subcommands drive that mode in one
//! child process per workload, so each workload's peak RSS is its own.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use lotec_benchmark::{compare, run_workload, workload, Metric, Options, WORKLOADS};
use lotec_obs::{alloc, CountingAlloc, Json};

/// Counts allocations inside `Engine::run` of traced cells; forced off
/// everywhere else, where it costs one relaxed load per allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  lotec-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]
  lotec-benchmark run [--seed N] [--seconds S] [--smoke] [--trace DIR] [--out FILE]
  lotec-benchmark calibrate [--runs N] [--seed N] [--vary-seed] [--seconds S] [--out DIR] [--spec FILE]
  lotec-benchmark compare PARENT_DIR CHANGE_DIR [--spec FILE]";

const OUT: &str = "benchmark/out";

fn main() -> ExitCode {
    alloc::force_profiling(Some(false));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(_) => cmd_workload(&args),
        None => Err("no arguments".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lotec-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed flags: `--name value` pairs, bare switches, positionals.
struct Flags {
    values: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let value = if valued.contains(&name) {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            } else if switches.contains(&name) {
                String::new()
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            if values.insert(name.to_string(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Flags { values, positional })
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name}: not a number: {v}"))
        })
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj(vec![
                    ("value", Json::F64(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    )
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn cmd_workload(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["workload", "seed", "seconds", "trace", "trace-dir"],
        &["smoke"],
    )?;
    if let Some(extra) = flags.positional.first() {
        return Err(format!("unexpected argument {extra}"));
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let opts = Options {
        seed: flags
            .get("seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "--seed: not a number")?,
        seconds: flags.num("seconds", 0.0)?,
        trace: match flags.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        smoke: flags.has("smoke"),
    };
    let result = match run_workload(workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            return Ok(false);
        }
    };
    let metrics = match &result.per_layer {
        Some(layers) => layers,
        None => &result.end_to_end,
    };
    for m in metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        let dir = Path::new(flags.get("trace-dir").unwrap_or("benchmark/out/trace"));
        write(
            &dir.join(format!("{name}.spans.jsonl")),
            &result.spans.to_jsonl(),
        )?;
        write(
            &dir.join(format!("{name}.chrome.json")),
            &result.spans.to_chrome(name).render(),
        )?;
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(result.attempted)),
        ("failed", Json::U64(result.failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", line.render());
    Ok(true)
}

/// Runs every workload in its own child process; returns the combined
/// result document and whether every child succeeded.
fn run_all(
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_dir: Option<&str>,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        cmd.args(["--trace", if trace_dir.is_some() { "1" } else { "0" }]);
        if let Some(dir) = trace_dir {
            cmd.args(["--trace-dir", dir]);
        }
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        match parsed {
            Some(result) if out.status.success() => {
                if let Some(Json::Obj(metrics)) = result.get("metrics") {
                    for (name, m) in metrics {
                        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                        println!("{} {name} {value} {unit}", w.name);
                    }
                }
                results.push((w.name.to_string(), result));
            }
            _ => {
                eprintln!("{}: failed ({})", w.name, out.status);
                ok = false;
            }
        }
    }
    let doc = Json::obj(vec![
        ("seed", Json::U64(seed)),
        ("seconds", Json::F64(seconds)),
        ("trace", Json::Bool(trace_dir.is_some())),
        ("workloads", Json::Obj(results)),
    ]);
    Ok((doc, ok))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "trace", "out"], &["smoke"])?;
    if let Some(extra) = flags.positional.first() {
        return Err(format!("unexpected argument {extra}"));
    }
    let seed: u64 = flags.num("seed", 1)?;
    let trace = flags.get("trace");
    let (doc, ok) = run_all(seed, flags.num("seconds", 0.0)?, flags.has("smoke"), trace)?;
    if !ok {
        // A run file without every workload would misalign `compare`.
        return Ok(false);
    }
    let suffix = if trace.is_some() { "-trace" } else { "" };
    let default = format!("{OUT}/run-seed{seed}{suffix}.json");
    let out = Path::new(flags.get("out").unwrap_or(&default));
    write(out, &doc.render_pretty())?;
    eprintln!("wrote {}", out.display());
    Ok(ok)
}

fn read_spec(flags: &Flags) -> Result<Vec<compare::Bounded>, String> {
    let path = flags.get("spec").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    compare::load_spec(&text)
}

/// Bound per unit of spread that `calibrate` proposes: run-to-run noise
/// at one seed gets twice its spread; the spread across seeds gets three
/// times, so that it stays within a third of the bound.
const FIXED_SEED_FACTOR: f64 = 2.0;
const VARIED_SEED_FACTOR: f64 = 3.0;

fn cmd_calibrate(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["runs", "seed", "seconds", "out", "spec"],
        &["vary-seed"],
    )?;
    let runs: u64 = flags.num("runs", 5)?;
    if runs < 2 {
        return Err("--runs needs at least 2 runs to measure a spread".into());
    }
    let base: u64 = flags.num("seed", 1)?;
    let vary = flags.has("vary-seed");
    let seeds: Vec<u64> = (0..runs)
        .map(|i| if vary { base + i } else { base })
        .collect();
    let factor = if vary {
        VARIED_SEED_FACTOR
    } else {
        FIXED_SEED_FACTOR
    };
    let seconds: f64 = flags.num("seconds", 0.0)?;
    let default_out = format!("{OUT}/calibrate");
    let dir = Path::new(flags.get("out").unwrap_or(&default_out));
    let current = read_spec(&flags).unwrap_or_default();
    let mut docs = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let (doc, ok) = run_all(seed, seconds, false, None)?;
        if !ok {
            return Ok(false);
        }
        write(&dir.join(format!("run-{i:02}.json")), &doc.render_pretty())?;
        docs.push(doc);
    }
    let proposals = compare::calibrate(&docs, factor)?;
    let mut exact = true;
    println!(
        "{:<24} {:>8} {:>8} {:>8}  spread per workload",
        "metric", "default", "current", "proposed"
    );
    let mut rows = Vec::new();
    for p in &proposals {
        let now = current
            .iter()
            .find(|b| b.name == p.metric)
            .map_or(f64::NAN, |b| b.bound);
        let spreads: Vec<String> = p
            .spreads
            .iter()
            .map(|(w, s)| format!("{w}={s:.4}"))
            .collect();
        println!(
            "{:<24} {:>8.2} {:>8.2} {:>8.2}  {}",
            p.metric,
            p.default,
            now,
            p.bound,
            spreads.join(" ")
        );
        if p.bound > 0.25 {
            println!(
                "  {}: spread exceeds the largest allowed bound (0.25)",
                p.metric
            );
        }
        if !vary && compare::is_simulated(p.metric) && !p.varied.is_empty() {
            println!(
                "  {}: differs between runs at one seed on {}",
                p.metric,
                p.varied.join(", ")
            );
            exact = false;
        }
        rows.push(Json::obj(vec![
            ("metric", Json::str(p.metric)),
            ("default", Json::F64(p.default)),
            ("proposed", Json::F64(p.bound)),
            (
                "spread",
                Json::Obj(
                    p.spreads
                        .iter()
                        .map(|(w, s)| (w.clone(), Json::F64(*s)))
                        .collect(),
                ),
            ),
        ]));
    }
    let doc = Json::obj(vec![
        ("runs", Json::U64(runs)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::U64(s)).collect()),
        ),
        ("factor", Json::F64(factor)),
        ("seconds", Json::F64(seconds)),
        ("metrics", Json::Arr(rows)),
    ]);
    write(&dir.join("calibration.json"), &doc.render_pretty())?;
    Ok(exact)
}

fn read_runs(dir: &str) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json") && !p.ends_with("calibration.json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Fewest alternating runs per side that the gain rule may judge.
const MIN_PAIRS: usize = 10;

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["spec"], &[])?;
    let [parent_dir, change_dir] = flags.positional.as_slice() else {
        return Err("compare takes a parent and a change directory".into());
    };
    let spec = read_spec(&flags)?;
    let (parent, change) = (read_runs(parent_dir)?, read_runs(change_dir)?);
    if parent.len() < MIN_PAIRS || change.len() < MIN_PAIRS {
        return Err(format!(
            "need at least {MIN_PAIRS} runs per side, got {} and {}",
            parent.len(),
            change.len()
        ));
    }
    let rows = compare::compare(&parent, &change, &spec)?;
    println!(
        "{:<17} {:<24} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let fmt = |s: &compare::Summary| format!("{:.6e} [{:.4e}, {:.4e}]", s.median, s.q1, s.q3);
    for r in &rows {
        println!(
            "{:<17} {:<24} {:>34} {:>34} {:>6}  {}",
            r.workload,
            r.metric,
            fmt(&r.parent),
            fmt(&r.change),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict()
        );
    }
    let changed = rows.iter().filter(|r| r.changed).count();
    if changed > 0 {
        println!("{changed} simulated metric(s) changed at equal seeds: the change alters what the engine simulates");
    }
    Ok(!rows.iter().any(|r| r.regression))
}

//! Observability: run a workload with a recording probe sink, inspect the
//! phase-attributed latency breakdown and prediction quality, and export
//! the trace for Perfetto.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! Load the written `observability.chrome.json` at <https://ui.perfetto.dev>
//! (or `chrome://tracing`): one track per simulated node, one row per
//! transaction family, one slice per phase.

use lotec::obs::{chrome_trace, jsonl_encode};
use lotec::prelude::*;
use lotec::workload::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = presets::quick(presets::fig2());
    println!("scenario: {}", scenario.name);
    let (registry, families) = scenario.generate()?;
    let config = scenario.system_config();

    // Same engine, same run — but lend a recording sink. With the default
    // `NoopSink` every probe site compiles away; with a recording sink the
    // run is still bit-identical (a facade test proves it), just observed.
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)?.run()?;
    println!(
        "engine: {} commits, {} deadlocks, {} events recorded\n",
        report.stats.committed_families,
        report.stats.deadlocks,
        sink.len()
    );

    // Where did the time go? The engine attributes every family's
    // wall-clock to lock-wait / transfer / compute / backoff.
    if let Some(f) = report.stats.phases.fractions() {
        println!("phase breakdown (all families):");
        for (name, frac) in ["lock wait", "transfer", "compute", "backoff"]
            .iter()
            .zip(f)
        {
            println!("  {name:<10} {:>5.1}%", frac * 100.0);
        }
        println!();
    }

    // The same numbers, recovered purely from the event stream.
    let summary = TraceSummary::of(sink.events());
    print!("{}", summary.render());

    // Export: JSONL for tooling (`obs_report` re-summarizes it), Chrome
    // trace JSON for Perfetto.
    std::fs::write("observability.trace.jsonl", jsonl_encode(sink.events()))?;
    std::fs::write(
        "observability.chrome.json",
        chrome_trace(sink.events()).render_pretty(),
    )?;
    println!("\nwrote observability.trace.jsonl and observability.chrome.json");
    Ok(())
}

//! Fast end-to-end sanity run. Prints per-protocol traffic for the quick
//! fig2/fig3 scenarios and writes `BENCH_smoke.json` with per-protocol
//! throughput/latency figures (`protocol -> {throughput, mean_latency_ns,
//! p50, p99}`). Takes `repro`'s `--obs` / `--trace-out [path]` flags for
//! the quick fig3 scenario.

use lotec_bench::experiments::Ctx;
use lotec_core::compare::compare_protocols;
use lotec_core::engine::Engine;
use lotec_core::protocol::ProtocolKind;
use lotec_core::SystemConfig;
use lotec_obs::Json;
use lotec_workload::presets;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `Ctx` also knows `--quick` and `--csv`, which smoke has no use for:
    // its scenarios are always quick and it writes no CSV.
    let parsed = match args.iter().find(|a| *a == "--quick" || *a == "--csv") {
        Some(flag) => Err(format!("unknown argument `{flag}`")),
        None => Ctx::parse("smoke", &args),
    };
    let ctx = parsed.unwrap_or_else(|msg| {
        eprintln!("smoke: {msg}\nusage: smoke [--obs] [--trace-out [path]]");
        std::process::exit(2)
    });
    for scenario in [
        presets::quick(presets::fig2()),
        presets::quick(presets::fig3()),
    ] {
        let t0 = std::time::Instant::now();
        let (registry, families) = scenario.generate().unwrap();
        let config = scenario.system_config();
        let cmp = compare_protocols(&config, &registry, &families).unwrap();
        let run = cmp.schedule_run();
        println!(
            "{}: {} families, commits={} deadlocks={} restarts={} in {:?}",
            scenario.name,
            families.len(),
            run.stats.committed_families,
            run.stats.deadlocks,
            run.stats.restarts,
            t0.elapsed()
        );
        for kind in ProtocolKind::ALL {
            let t = cmp.total(kind);
            println!(
                "   {kind:>6}: {:>12} bytes, {:>6} msgs",
                t.bytes, t.messages
            );
        }
    }

    // Per-protocol latency/throughput summary: one engine run per protocol
    // on the quick fig3 workload.
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().unwrap();
    let mut protocols = Vec::new();
    for protocol in ProtocolKind::ALL {
        let config = SystemConfig {
            protocol,
            num_nodes: scenario.config.num_nodes,
            page_size: scenario.config.schema.page_size,
            ..SystemConfig::default()
        };
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        let stats = &report.stats;
        let ns = |d: Option<lotec_sim::SimDuration>| Json::U64(d.map_or(0, |d| d.as_nanos()));
        protocols.push((
            protocol.to_string(),
            Json::obj(vec![
                ("throughput", Json::F64(stats.throughput_per_sec())),
                ("mean_latency_ns", ns(stats.mean_latency())),
                ("p50", ns(stats.latency_quantile(0.5))),
                ("p99", ns(stats.latency_quantile(0.99))),
            ]),
        ));
    }
    let json = Json::Obj(protocols.into_iter().collect());
    std::fs::write("BENCH_smoke.json", json.render_pretty()).expect("write BENCH_smoke.json");
    println!("wrote BENCH_smoke.json");

    ctx.observe(&presets::quick(presets::fig3()), &mut std::io::stdout())
        .expect("observability report written");
}

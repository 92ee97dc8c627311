//! The run's one commit-latency quantile against the exact latencies.
//!
//! `RunStats::latency_quantile` reads a quantile sketch. Each committed
//! family's phase row sums to its commit latency, so the rows give the
//! exact distribution the sketch summarizes: the sketch must never read
//! below the nearest-rank value and never more than 1/64 above it.

use lotec::prelude::*;
use lotec_workload::presets;

/// The nearest-rank quantile of an ascending list: the `⌈q·n⌉`-th value.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[test]
fn latency_quantile_is_within_a_sixty_fourth_of_the_exact_rank() {
    let scenario = presets::quick(presets::fig3());
    let (registry, families) = scenario.generate().expect("workload generates");
    for protocol in ProtocolKind::ALL {
        let config = SystemConfig {
            protocol,
            num_nodes: scenario.config.num_nodes,
            page_size: scenario.config.schema.page_size,
            ..SystemConfig::default()
        };
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .expect("fig3 run");
        let stats = &report.stats;
        let mut exact: Vec<u64> = stats
            .phases
            .per_family
            .iter()
            .filter(|row| row.committed)
            .map(|row| row.times.total().as_nanos())
            .collect();
        exact.sort_unstable();
        assert_eq!(exact.len() as u64, stats.committed_families);
        for q in [0.5, 0.9, 0.99] {
            let want = nearest_rank(&exact, q);
            let got = stats
                .latency_quantile(q)
                .expect("families committed")
                .as_nanos();
            assert!(
                got >= want && got - want <= want / 64,
                "{protocol} p{}: quantile {got} ns, exact nearest rank {want} ns",
                q * 100.0
            );
        }
    }
}

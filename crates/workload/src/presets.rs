//! Named scenarios for every figure of the paper.
//!
//! | Preset | Paper figure | Objects | Pages/object | Contention |
//! |--------|--------------|---------|--------------|------------|
//! | [`fig2`] | Fig. 2 | 20  | 1–5   | high |
//! | [`fig3`] | Fig. 3 | 20  | 10–20 | high |
//! | [`fig4`] | Fig. 4 | 100 | 1–5   | moderate |
//! | [`fig5`] | Fig. 5 | 100 | 10–20 | moderate |
//! | [`network_sweep`] | Figs. 6–8 | fig3 workload, swept over the 15 network configs |
//!
//! "High contention" = few objects, strong zipf skew, many concurrent
//! families; "moderate" = 5× the objects, weaker skew. The simulation was
//! "expressly designed to induce high degrees of conflict in object access
//! as this is the interesting case" (paper §5).

use lotec_sim::SimDuration;

use crate::gen::{Scenario, WorkloadConfig};
use crate::schema::SchemaConfig;

// Knob calibration (see `repro tune`, `results/tune.txt`): the attribute
// granularity and per-path touch probability are chosen per object-size
// band so the byte ratios land near the paper's in-text claims — OTEC
// saves ~20–25% over COTEC, LOTEC another ~5–10% over OTEC, while sending
// ~1.1–1.4× OTEC's message count.

/// Schema band for the medium (1–5 page) objects of Figures 2 and 4:
/// coarse attributes and two control paths keep predictions from covering
/// every page of these small objects.
fn medium_schema() -> SchemaConfig {
    SchemaConfig {
        num_classes: 4,
        pages_min: 1,
        pages_max: 5,
        page_size: 4096,
        attrs_min: 4,
        attrs_max: 8,
        methods_per_class: 4,
        paths_per_method: 2,
        attr_touch_prob: 0.35,
        write_prob: 0.9,
        read_only_method_prob: 0.25,
        invoke_prob: 0.5,
        max_sites_per_path: 2,
    }
}

/// Schema band for the large (10–20 page) objects of Figures 3 and 5:
/// fine-grained attributes (≈1 page each) so methods genuinely touch page
/// subsets.
fn large_schema() -> SchemaConfig {
    SchemaConfig {
        num_classes: 4,
        pages_min: 10,
        pages_max: 20,
        page_size: 4096,
        attrs_min: 15,
        attrs_max: 25,
        methods_per_class: 4,
        paths_per_method: 3,
        attr_touch_prob: 0.48,
        write_prob: 0.9,
        read_only_method_prob: 0.25,
        invoke_prob: 0.5,
        max_sites_per_path: 2,
    }
}

/// Figure 2: medium objects (1–5 pages), high contention, objects O0–O19.
pub fn fig2() -> Scenario {
    Scenario::new(
        "fig2: medium objects, high contention",
        WorkloadConfig {
            schema: medium_schema(),
            num_objects: 20,
            num_families: 400,
            num_nodes: 8,
            zipf_theta: 0.9,
            mean_arrival_gap: SimDuration::from_micros(40),
            abort_prob: 0.0,
            seed: 0xF162,
        },
    )
}

/// Figure 3: large objects (10–20 pages), high contention.
pub fn fig3() -> Scenario {
    Scenario::new(
        "fig3: large objects, high contention",
        WorkloadConfig {
            schema: large_schema(),
            num_objects: 20,
            num_families: 400,
            num_nodes: 8,
            zipf_theta: 0.9,
            mean_arrival_gap: SimDuration::from_micros(60),
            abort_prob: 0.0,
            seed: 0xF163,
        },
    )
}

/// Figure 4: medium objects, moderate contention, objects drawn from
/// O0–O99.
pub fn fig4() -> Scenario {
    Scenario::new(
        "fig4: medium objects, moderate contention",
        WorkloadConfig {
            schema: medium_schema(),
            num_objects: 100,
            num_families: 600,
            num_nodes: 8,
            zipf_theta: 0.5,
            mean_arrival_gap: SimDuration::from_micros(40),
            abort_prob: 0.0,
            seed: 0xF164,
        },
    )
}

/// Figure 5: large objects, moderate contention.
pub fn fig5() -> Scenario {
    Scenario::new(
        "fig5: large objects, moderate contention",
        WorkloadConfig {
            schema: large_schema(),
            num_objects: 100,
            num_families: 600,
            num_nodes: 8,
            zipf_theta: 0.5,
            mean_arrival_gap: SimDuration::from_micros(60),
            abort_prob: 0.0,
            seed: 0xF165,
        },
    )
}

/// Figures 6–8 reuse the large-object high-contention workload; the sweep
/// is over network parameters, not the workload.
pub fn network_sweep() -> Scenario {
    let mut s = fig3();
    s.name = "fig6-8: network sweep over the fig3 workload".into();
    s
}

/// A reduced-size variant of any scenario for fast CI runs: an eighth of
/// the families.
#[must_use]
pub fn quick(mut scenario: Scenario) -> Scenario {
    scenario.config.num_families = (scenario.config.num_families / 8).max(20);
    scenario.name = format!("{} (quick)", scenario.name);
    scenario
}

/// Ablation: the fig3 workload with fault injection exercising the
/// closed-nesting abort paths.
pub fn ablation_faults() -> Scenario {
    let mut s = fig3();
    s.config.abort_prob = 0.08;
    s.config.seed = 0xAB1A;
    s.name = "ablation: fig3 with 8% sub-transaction faults".into();
    s
}

/// Ablation pair for the paper's §5.1 aggregation discussion: the same
/// shared data exposed as many fine-grained single-page objects (every
/// access is its own lock acquisition) vs. fewer coarse aggregated objects
/// ("LOTEC … has a natural preference for coarse-grained concurrency since
/// the larger objects are, the fewer lock operations are necessary").
pub fn aggregation_pair() -> (Scenario, Scenario) {
    let fine = Scenario::new(
        "aggregation: 80 fine-grained 1-page objects",
        WorkloadConfig {
            schema: SchemaConfig {
                pages_min: 1,
                pages_max: 1,
                attrs_min: 3,
                attrs_max: 5,
                paths_per_method: 2,
                attr_touch_prob: 0.5,
                // Fine granularity forces multi-object transactions: deep
                // nesting replaces intra-object locality.
                invoke_prob: 0.9,
                ..medium_schema()
            },
            num_objects: 80,
            num_families: 300,
            num_nodes: 8,
            zipf_theta: 0.7,
            mean_arrival_gap: SimDuration::from_micros(50),
            abort_prob: 0.0,
            seed: 0xA66,
        },
    );
    let coarse = Scenario::new(
        "aggregation: 20 coarse 4-page objects",
        WorkloadConfig {
            schema: SchemaConfig {
                pages_min: 4,
                pages_max: 4,
                attrs_min: 8,
                attrs_max: 12,
                paths_per_method: 2,
                attr_touch_prob: 0.5,
                invoke_prob: 0.25,
                ..medium_schema()
            },
            num_objects: 20,
            num_families: 300,
            num_nodes: 8,
            zipf_theta: 0.7,
            mean_arrival_gap: SimDuration::from_micros(50),
            abort_prob: 0.0,
            seed: 0xA66,
        },
    );
    (fine, coarse)
}

/// All figure presets, in figure order.
pub fn all_figures() -> Vec<Scenario> {
    vec![fig2(), fig3(), fig4(), fig5()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::summarize;

    #[test]
    fn presets_generate() {
        for scenario in [quick(fig2()), quick(fig4())] {
            let (registry, families) = scenario.generate().unwrap();
            assert!(registry.num_objects() >= 20);
            assert!(
                families.len() >= 20,
                "{}: {}",
                scenario.name,
                families.len()
            );
        }
    }

    #[test]
    fn object_sizes_match_figures() {
        for (scenario, lo, hi) in [(fig2(), 1u16, 5u16), (fig3(), 10, 20)] {
            let (registry, _) = quick(scenario).generate().unwrap();
            let classes: Vec<_> = (0..registry.num_classes())
                .map(|i| {
                    registry
                        .class(lotec_object::ClassId::new(i as u32))
                        .class()
                        .clone()
                })
                .collect();
            let summary = summarize(&classes, 4096);
            assert!(
                summary.min_pages >= lo && summary.max_pages <= hi,
                "{summary:?}"
            );
        }
    }

    #[test]
    fn contention_presets_differ_in_skew_and_objects() {
        assert!(fig2().config.zipf_theta > fig4().config.zipf_theta);
        assert!(fig4().config.num_objects > fig2().config.num_objects);
        assert_eq!(all_figures().len(), 4);
    }

    #[test]
    fn quick_shrinks_families() {
        let full = fig2();
        let q = quick(full.clone());
        assert!(q.config.num_families < full.config.num_families);
        assert!(q.name.contains("quick"));
    }

    #[test]
    fn fault_ablation_injects() {
        let s = ablation_faults();
        assert!(s.config.abort_prob > 0.0);
    }
}

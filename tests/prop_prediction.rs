//! Prediction-conformance property suite (seeded, deterministic).
//!
//! Three properties pin the adaptive predictor's contract:
//!
//! * **Soundness floor** — whatever the profile learns, its predicted set
//!   never drops below the statically-proven must-access set (the
//!   per-method intersection over paths), and always covers the most
//!   recent observation.
//! * **Coverage** — in an adaptive engine run, every page a method
//!   touches is covered: predicted now, demand-fetched now, or installed
//!   at the node by an earlier grant (the node's cache); first touches at
//!   a non-home node are always predicted or demand-fetched. Demand
//!   fetches are never wasted on pages the profile already predicted.
//! * **Convergence** — once the access pattern stabilizes, the profile
//!   converges within its confidence window and the demand-fetch count
//!   for the method drops to zero.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use lotec::prelude::*;
use lotec_core::spec::demo_workload;
use lotec_core::AdaptiveConfig;
use lotec_object::{AdaptivePredictor, PageSet};
use lotec_obs::ObsEventKind;
use lotec_sim::SimRng;

/// Seeds for every property; override the count with `PROP_SEEDS=n`.
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("PROP_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    (0..n).map(|i| 0xACCE55 + 13 * i).collect()
}

/// Property (a): across randomized observation streams — including
/// observations of pages the static analysis never saw — every profile
/// keeps `must_access ⊆ predicted` and ends each observation with
/// `actual ⊆ predicted`.
#[test]
fn prop_predicted_never_drops_below_must_access() {
    for seed in seeds() {
        let config = SystemConfig::default();
        let (registry, _) = demo_workload(&config, seed);
        let mut rng = SimRng::seed_from_u64(seed);
        for window in [1u32, 2, 4] {
            let mut predictor = AdaptivePredictor::new(&registry, window);
            for _ in 0..64 {
                let class = ClassId::new(rng.next_below(registry.num_classes() as u64) as u32);
                let compiled = registry.class(class);
                let num_methods = compiled.class().methods().len() as u64;
                let method = MethodId::new(rng.next_below(num_methods) as u32);
                let num_pages = compiled.layout().num_pages();
                // An arbitrary page subset, not restricted to any path.
                let actual: PageSet = (0..num_pages)
                    .map(PageIndex::new)
                    .filter(|_| rng.chance(0.4))
                    .collect();
                predictor.observe(class, method, &actual);
                let predicted = predictor.predicted(class, method);
                assert!(
                    compiled.must_access(method).is_subset(predicted),
                    "seed {seed} window {window}: predicted dropped below \
                     the must-access floor"
                );
                assert!(
                    actual.is_subset(predicted),
                    "seed {seed} window {window}: observation not absorbed"
                );
            }
            // A reset restores the static baseline exactly.
            predictor.reset_all();
            for (ci, _) in (0..registry.num_classes()).enumerate() {
                let class = ClassId::new(ci as u32);
                let compiled = registry.class(class);
                for (mi, _) in compiled.class().methods().iter().enumerate() {
                    let method = MethodId::new(mi as u32);
                    assert_eq!(
                        predictor.predicted(class, method),
                        &compiled.prediction(method).touched(),
                        "seed {seed}: reset must restore the static baseline"
                    );
                }
            }
        }
    }
}

/// Property (b): in adaptive engine runs, every touched page that could be
/// stale — i.e. some earlier grant wrote it — is covered: predicted by the
/// grant, demand-fetched during the compute phase, installed at the node
/// by an earlier grant, or resident at the object's home. Never-written
/// pages are identical everywhere and legitimately move nothing. And no
/// demand fetch targets a page the grant already predicted.
#[test]
fn prop_touched_pages_are_covered() {
    for seed in seeds() {
        let config = SystemConfig {
            protocol: ProtocolKind::Lotec,
            seed,
            adaptive: AdaptiveConfig {
                enabled: true,
                window: 2,
            },
            ..SystemConfig::default()
        };
        let (registry, families) = demo_workload(&config, seed);
        let mut sink = RecordingSink::new();
        let report = Engine::with_probe(&config, &registry, &families, &mut sink)
            .and_then(Engine::run)
            .expect("adaptive run");
        oracle::verify(&report).expect("adaptive run stays serializable");

        // Demand events keyed by (time, node, family, object) — they are
        // emitted at the same instant as their grant's GrantPlan.
        let events = sink.into_events();
        let mut demanded: BTreeMap<(u64, u32, u64, u32), BTreeSet<u16>> = BTreeMap::new();
        for e in &events {
            let key = |family: u64, object: u32| (e.at.as_nanos(), e.node, family, object);
            match &e.kind {
                ObsEventKind::DemandFetch {
                    family,
                    object,
                    page,
                    ..
                } => {
                    demanded
                        .entry(key(*family, *object))
                        .or_default()
                        .insert(*page);
                }
                ObsEventKind::DemandBatch {
                    family,
                    object,
                    pages,
                    ..
                } => {
                    demanded
                        .entry(key(*family, *object))
                        .or_default()
                        .extend(pages);
                }
                _ => {}
            }
        }
        // Pages installed at a node by earlier grants of the same object,
        // and pages some earlier grant has written (only those can be
        // stale and thus need coverage).
        let mut installed: BTreeMap<(u32, u32), BTreeSet<u16>> = BTreeMap::new();
        let mut written: BTreeMap<u32, BTreeSet<u16>> = BTreeMap::new();
        let mut grants = 0u64;
        for e in &events {
            let ObsEventKind::GrantPlan {
                family,
                object,
                predicted,
                actual_reads,
                actual_writes,
                ..
            } = &e.kind
            else {
                continue;
            };
            grants += 1;
            let fetched: BTreeSet<u16> = demanded
                .get(&(e.at.as_nanos(), e.node, *family, *object))
                .cloned()
                .unwrap_or_default();
            let predicted: BTreeSet<u16> = predicted.iter().copied().collect();
            assert!(
                fetched.is_disjoint(&predicted),
                "seed {seed}: demand fetch wasted on a predicted page"
            );
            let cache = installed.entry((e.node, *object)).or_default();
            let dirty = written.entry(*object).or_default();
            let is_home = registry.object(ObjectId::new(*object)).home.index() == e.node;
            for page in actual_reads.iter().chain(actual_writes) {
                assert!(
                    predicted.contains(page)
                        || fetched.contains(page)
                        || cache.contains(page)
                        || is_home
                        || !dirty.contains(page),
                    "seed {seed}: node {} touched dirty page {page} of \
                     object {object} with no coverage",
                    e.node
                );
            }
            dirty.extend(actual_writes);
            cache.extend(&predicted);
            cache.extend(&fetched);
        }
        assert!(grants > 0, "seed {seed}: no grants recorded");
    }
}

/// Property (c): a stable access pattern converges. One multi-path class
/// whose static prediction over-predicts; the workload takes the narrow
/// path except for a single wide surprise. The surprise costs demand
/// fetches; after it, the stable tail runs a full window and beyond with
/// zero further demand fetches.
#[test]
fn prop_stable_pattern_converges_to_zero_demand_fetches() {
    let page = 4096u32;
    let doc = ClassBuilder::new("Doc")
        .attribute("head", page)
        .attribute("mid", page)
        .attribute("tail", page)
        .method("edit", |m| {
            m.path(|p| p.reads(&["head"]).writes(&["head", "mid", "tail"]))
                .path(|p| p.reads(&["head"]).writes(&["head"]))
        })
        .build();
    let config = SystemConfig {
        protocol: ProtocolKind::Lotec,
        adaptive: AdaptiveConfig {
            enabled: true,
            window: 2,
        },
        ..SystemConfig::default()
    };
    let registry = ObjectRegistry::build(
        &[doc],
        &[(ClassId::new(0), NodeId::new(0))],
        config.page_size,
    )
    .expect("doc class compiles");
    // Path sequence: one wide write, trims, a wide surprise, then a
    // stable narrow tail much longer than the window.
    let paths = [0u32, 1, 1, 0, 1, 1, 1, 1, 1, 1];
    let families: Vec<FamilySpec> = paths
        .iter()
        .enumerate()
        .map(|(i, &path)| FamilySpec {
            node: NodeId::new(i as u32 % config.num_nodes),
            start: SimTime::from_micros(i as u64 * 40),
            root: InvocationSpec::leaf(ObjectId::new(0), MethodId::new(0), PathId::new(path)),
        })
        .collect();
    let mut sink = RecordingSink::new();
    let report = Engine::with_probe(&config, &registry, &families, &mut sink)
        .and_then(Engine::run)
        .expect("stable run");
    oracle::verify(&report).expect("serializable");
    assert_eq!(report.stats.committed_families as usize, families.len());
    assert!(
        report.stats.profile_shrinks > 0,
        "the narrow path must trim the wide prediction"
    );
    assert!(
        report.stats.demand_fetches > 0,
        "the wide surprise after trimming must demand-fetch"
    );

    // Order grant-level samples and demand events by time: every demand
    // fetch belongs to the pre-convergence prefix, and the stable tail
    // afterwards spans more observations than the confidence window.
    let events = sink.into_events();
    let mut sample_times = Vec::new();
    let mut last_demand = 0u64;
    for e in &events {
        match &e.kind {
            ObsEventKind::PredictionSample { .. } => sample_times.push(e.at.as_nanos()),
            ObsEventKind::DemandFetch { .. } | ObsEventKind::DemandBatch { .. } => {
                last_demand = last_demand.max(e.at.as_nanos());
            }
            _ => {}
        }
    }
    sample_times.sort_unstable();
    let converged_tail = sample_times.iter().filter(|&&t| t > last_demand).count();
    assert!(
        converged_tail as u32 > config.adaptive.window + 1,
        "stable tail after the last demand fetch must outlast the window \
         (tail {converged_tail}, window {})",
        config.adaptive.window
    );
}

//! The workload zoo: named, seeded, production-shaped scenarios.
//!
//! [`gen`](crate::gen) reproduces the paper's figure workloads — a few
//! dozen objects, one contention knob. Real deployments are not
//! fig3-shaped, and protocol rankings are known to flip with skew, tree
//! shape, and arrival burstiness. The zoo grows the generator into a
//! registry of self-describing scenario *families*, each at three tiers:
//!
//! * **tiny** — seconds in a debug build; golden-fingerprint rows and
//!   worker byte-identity tests pin these cells.
//! * **quick** — CI scale; the committed `BENCH_scenarios.json` matrix.
//! * **full** — production scale (up to millions of objects, 100+
//!   nodes); run on demand via `scenarios --full`.
//!
//! The families:
//!
//! * `multi_tenant` — a web-app backend: objects partitioned into
//!   zipf-ranked tenants, read-heavy traffic ([`TrafficModel::read_bias`])
//!   with a small set of hot tenants forced onto write methods.
//! * `hotspot_migration` — the popular objects *move* mid-run: receiver
//!   orderings rotate per [`TrafficModel::migration_phases`], so the
//!   zipf head lands on different objects in each phase (stresses
//!   adaptive profiles trained on the old hot set).
//! * `diurnal_burst` — arrivals follow a peak/off-peak cycle
//!   ([`ArrivalModel::Diurnal`]) instead of a flat Poisson stream.
//! * `deep_trees` — long invocation chains (many classes, one site per
//!   path, high invoke probability): commit latency is dominated by
//!   nesting depth.
//! * `wide_trees` — few classes, many sibling sites per path: lock
//!   retention across pre-committed siblings is the hot path.
//! * `scaleout` — 100+ node clusters at the full tier, modest skew;
//!   message counts, not contention, dominate.
//!
//! Every scenario carries [`SuccessCriteria`] — commit-fraction,
//! abort-rate and p99 bounds the bench matrix checks after the oracle
//! passes. Generation is fully deterministic from the config (same rng
//! stream discipline as [`gen`](crate::gen)); the scenario *is* its
//! config.

use lotec_core::metrics::RunStats;
use lotec_core::spec::{validate_family, FamilySpec, InvocationSpec};
use lotec_core::{AdaptiveConfig, ProtocolKind, SystemConfig};
use lotec_mem::ObjectId;
use lotec_object::{ClassId, MethodId, ObjectRegistry, PathId};
use lotec_sim::{NodeId, SimDuration, SimRng, SimTime};

use crate::gen::{build_invocation, WorkloadConfig, WorkloadError};
use crate::schema::{generate_classes, SchemaConfig};
use crate::zipf::Zipf;

/// Scenario size tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Smallest cells: golden fingerprints, debug-build test suites.
    Tiny,
    /// CI scale: the committed `BENCH_scenarios.json` matrix.
    Quick,
    /// Production scale: millions of objects, 100+ nodes. On demand.
    Full,
}

impl Tier {
    /// All tiers, smallest first.
    pub const ALL: [Tier; 3] = [Tier::Tiny, Tier::Quick, Tier::Full];

    /// Lower-case label used in scenario names and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Tiny => "tiny",
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }
}

/// Family arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Flat Poisson-like stream (exponential gaps at the configured mean)
    /// — what [`gen`](crate::gen) always produces.
    Steady,
    /// Peak/off-peak cycle: within the first `peak_fraction` of every
    /// `period` the mean gap is the configured one; outside it the mean
    /// stretches by `offpeak_factor`. Gaps stay exponential, so bursts
    /// are still jittered — this models diurnal load, not a square wave
    /// of simultaneous arrivals.
    Diurnal {
        /// Length of one day-night cycle in sim time.
        period: SimDuration,
        /// Fraction of the period (from its start) that is peak traffic.
        peak_fraction: f64,
        /// Mean-gap multiplier outside the peak window.
        offpeak_factor: u32,
    },
}

/// How roots are aimed at objects — the zoo's traffic shaping on top of
/// [`WorkloadConfig`]'s size/skew knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficModel {
    /// Partition objects into this many equal contiguous tenants and draw
    /// the *tenant* zipf-ranked (rank 0 = hottest), then a uniform object
    /// of the root's class inside it. `0` disables tenancy: receivers are
    /// drawn per-class zipf exactly like [`gen`](crate::gen).
    pub tenants: u32,
    /// The `hot_write_tenants` hottest tenant *ranks* force their roots
    /// onto write methods — the "few tenants doing heavy writes inside a
    /// read-mostly app" shape. Only meaningful with `tenants > 0`.
    pub hot_write_tenants: u32,
    /// Probability that a (non-hot-writer) root picks a read-only method
    /// of its class; `None` keeps the uniform method draw.
    pub read_bias: Option<f64>,
    /// Number of hotspot phases. `1` = static hot set. With `p > 1` the
    /// run is cut into `p` equal spans of the family index, and each
    /// span's receiver orderings are rotated so the zipf head lands on a
    /// different slice of the object space (tenant identities rotate the
    /// same way) — the hot set migrates mid-run.
    pub migration_phases: u32,
    /// Arrival process.
    pub arrivals: ArrivalModel,
}

impl Default for TrafficModel {
    fn default() -> Self {
        TrafficModel {
            tenants: 0,
            hot_write_tenants: 0,
            read_bias: None,
            migration_phases: 1,
            arrivals: ArrivalModel::Steady,
        }
    }
}

/// Per-scenario pass/fail bounds, checked by the bench matrix after the
/// serializability oracle has passed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessCriteria {
    /// Minimum fraction of generated families that must commit.
    pub min_commit_fraction: f64,
    /// Maximum fraction of finished families that ended in a permanent
    /// abort ([`RunStats::abort_rate`]).
    pub max_abort_rate: f64,
    /// Upper bound on the p99 commit latency (from the streaming sketch).
    pub max_p99: SimDuration,
}

impl SuccessCriteria {
    /// Evaluates a finished run against the bounds. Returns one message
    /// per violated bound; empty means the cell passed.
    pub fn evaluate(&self, generated_families: usize, stats: &RunStats) -> Vec<String> {
        let mut failures = Vec::new();
        let committed = stats.committed_families as usize;
        let fraction = if generated_families == 0 {
            0.0
        } else {
            committed as f64 / generated_families as f64
        };
        if fraction < self.min_commit_fraction {
            failures.push(format!(
                "commit fraction {fraction:.4} below minimum {:.4} \
                 ({committed}/{generated_families} committed)",
                self.min_commit_fraction
            ));
        }
        let abort_rate = stats.abort_rate();
        if abort_rate > self.max_abort_rate {
            failures.push(format!(
                "abort rate {abort_rate:.4} above maximum {:.4}",
                self.max_abort_rate
            ));
        }
        match stats.latency_quantile(0.99) {
            Some(p99) if p99 > self.max_p99 => failures.push(format!(
                "p99 latency {:.1}us above maximum {:.1}us",
                p99.as_micros_f64(),
                self.max_p99.as_micros_f64()
            )),
            Some(_) => {}
            None => failures.push("no committed families: p99 undefined".to_string()),
        }
        failures
    }
}

/// One cell of the zoo: a named family at a tier, with its workload
/// parameters, traffic shaping, and success criteria.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooScenario {
    /// Family name (stable across tiers): `multi_tenant`, `deep_trees`, …
    pub family: &'static str,
    /// Size tier this instance is configured at.
    pub tier: Tier,
    /// One-sentence description, embedded in the bench artifact.
    pub description: &'static str,
    /// Object/schema/arrival sizing (the [`gen`](crate::gen) knobs).
    pub config: WorkloadConfig,
    /// Zoo-specific traffic shaping.
    pub traffic: TrafficModel,
    /// Pass/fail bounds for a run of this cell.
    pub criteria: SuccessCriteria,
}

impl ZooScenario {
    /// `family/tier`, the scenario's unique name.
    pub fn name(&self) -> String {
        format!("{}/{}", self.family, self.tier.label())
    }

    /// Generates the registry and families; see [`generate`].
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadError`] from [`generate`].
    pub fn generate(&self) -> Result<(ObjectRegistry, Vec<FamilySpec>), WorkloadError> {
        generate(&self.config, &self.traffic)
    }

    /// A [`SystemConfig`] matching this scenario's node count and page
    /// size (other knobs at their defaults).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            num_nodes: self.config.num_nodes,
            page_size: self.config.schema.page_size,
            seed: self.config.seed,
            ..SystemConfig::default()
        }
    }

    /// The [`SystemConfig`] for one matrix cell: a protocol × prediction
    /// mode, with per-family phase rows disabled so production-scale runs
    /// stay memory-flat (aggregate phase totals and the latency sketch
    /// are unaffected).
    pub fn cell_config(&self, protocol: ProtocolKind, adaptive: bool) -> SystemConfig {
        SystemConfig {
            protocol,
            adaptive: if adaptive {
                AdaptiveConfig::on()
            } else {
                AdaptiveConfig::default()
            },
            per_family_phases: false,
            ..self.system_config()
        }
    }

    /// Declared upper bound on invocation-tree depth (root = depth 1).
    /// The schema's invocation sites form a DAG over class indices, so no
    /// chain is longer than the class count.
    pub fn declared_max_depth(&self) -> u32 {
        self.config.schema.num_classes
    }

    /// Declared upper bound on children per invocation.
    pub fn declared_max_width(&self) -> u32 {
        self.config.schema.max_sites_per_path.max(1)
    }

    /// The phase-0 hot set: the object ids holding the top `frac` of the
    /// zipf head (per tenant when tenancy is on, per class otherwise).
    /// At least one tenant/object per class is always included.
    pub fn hot_objects(&self, frac: f64) -> Vec<ObjectId> {
        let n = self.config.num_objects;
        let classes = self.config.schema.num_classes;
        if self.traffic.tenants > 0 {
            let k = hot_count(self.traffic.tenants as usize, frac) as u32;
            let tsize = n.div_ceil(self.traffic.tenants);
            (0..(k * tsize).min(n)).map(ObjectId::new).collect()
        } else {
            let mut hot = Vec::new();
            for class in 0..classes.min(n) {
                let len = (n - class).div_ceil(classes) as usize;
                let k = hot_count(len, frac) as u32;
                // Instances of `class` in hotness order are ids
                // class, class + C, class + 2C, …
                hot.extend((0..k).map(|j| ObjectId::new(class + j * classes)));
            }
            hot
        }
    }

    /// The traffic share the zipf skew *declares* for the
    /// [`hot_objects`](Self::hot_objects) head — what the property suite
    /// compares empirical root-receiver counts against.
    pub fn expected_hot_share(&self, frac: f64) -> f64 {
        let n = self.config.num_objects;
        let classes = self.config.schema.num_classes;
        let theta = self.config.zipf_theta;
        if self.traffic.tenants > 0 {
            let k = hot_count(self.traffic.tenants as usize, frac);
            Zipf::new(self.traffic.tenants as usize, theta).top_share(k)
        } else {
            // Root class is uniform, so the global share is the mean of
            // the per-class head shares.
            let mut total = 0.0;
            let mut counted = 0u32;
            for class in 0..classes.min(n) {
                let len = (n - class).div_ceil(classes) as usize;
                total += Zipf::new(len, theta).top_share(hot_count(len, frac));
                counted += 1;
            }
            if counted == 0 {
                0.0
            } else {
                total / counted as f64
            }
        }
    }
}

/// `max(1, ceil(n·frac))`, capped at `n`: how many head items a fraction
/// of a domain covers.
fn hot_count(n: usize, frac: f64) -> usize {
    (((n as f64) * frac).ceil() as usize).clamp(1, n.max(1))
}

/// The whole zoo at one tier, in registry order.
pub fn all(tier: Tier) -> Vec<ZooScenario> {
    vec![
        multi_tenant(tier),
        hotspot_migration(tier),
        diurnal_burst(tier),
        deep_trees(tier),
        wide_trees(tier),
        scaleout(tier),
    ]
}

/// Looks a scenario up by family name at a tier.
pub fn by_name(family: &str, tier: Tier) -> Option<ZooScenario> {
    all(tier).into_iter().find(|s| s.family == family)
}

fn multi_tenant(tier: Tier) -> ZooScenario {
    // (objects, tenants, hot write tenants, nodes, families)
    let (objects, tenants, hot, nodes, families) = match tier {
        Tier::Tiny => (240, 24, 1, 8, 60),
        Tier::Quick => (2_000, 100, 2, 16, 240),
        Tier::Full => (1_000_000, 5_000, 100, 16, 20_000),
    };
    ZooScenario {
        family: "multi_tenant",
        tier,
        description: "read-heavy web-app backend: zipf-ranked tenants over a large \
                      object space, a few hot tenants forced onto writes",
        config: WorkloadConfig {
            schema: SchemaConfig {
                pages_min: 1,
                pages_max: 2,
                read_only_method_prob: 0.5,
                invoke_prob: 0.4,
                ..SchemaConfig::default()
            },
            num_objects: objects,
            num_families: families,
            num_nodes: nodes,
            zipf_theta: 1.0,
            mean_arrival_gap: SimDuration::from_micros(50),
            abort_prob: 0.0,
            seed: 0x200_0001,
        },
        traffic: TrafficModel {
            tenants,
            hot_write_tenants: hot,
            read_bias: Some(0.85),
            ..TrafficModel::default()
        },
        criteria: SuccessCriteria {
            min_commit_fraction: 0.95,
            max_abort_rate: 0.02,
            max_p99: SimDuration::from_millis(40),
        },
    }
}

fn hotspot_migration(tier: Tier) -> ZooScenario {
    let (objects, nodes, families) = match tier {
        Tier::Tiny => (120, 8, 48),
        Tier::Quick => (240, 8, 240),
        Tier::Full => (50_000, 32, 10_000),
    };
    // θ = 1.1 puts ~15 % of all roots on the single head object, so the
    // head's service capacity bounds feasible throughput: at quick's
    // 50 µs gap the full tier would run the head past saturation
    // and p99 becomes pure unbounded queueing (seconds). The full tier
    // spreads arrivals to keep the hot object busy but subcritical —
    // the scenario stresses profile invalidation, not overload
    // collapse.
    let gap = match tier {
        Tier::Full => SimDuration::from_millis(1),
        _ => SimDuration::from_micros(50),
    };
    ZooScenario {
        family: "hotspot_migration",
        tier,
        description: "heavily skewed traffic whose hot set rotates through four \
                      phases mid-run, invalidating profiles trained early",
        config: WorkloadConfig {
            schema: SchemaConfig {
                pages_min: 4,
                pages_max: 8,
                ..SchemaConfig::default()
            },
            num_objects: objects,
            num_families: families,
            num_nodes: nodes,
            zipf_theta: 1.1,
            mean_arrival_gap: gap,
            abort_prob: 0.0,
            seed: 0x200_0002,
        },
        traffic: TrafficModel {
            migration_phases: 4,
            ..TrafficModel::default()
        },
        // Worst observed cell across tiers is quick/COTEC at ~128 ms p99
        // (the whole-object protocol pays the 4–8 page hot set on every
        // rotation); ~2× headroom.
        criteria: SuccessCriteria {
            min_commit_fraction: 0.9,
            max_abort_rate: 0.05,
            max_p99: SimDuration::from_millis(250),
        },
    }
}

fn diurnal_burst(tier: Tier) -> ZooScenario {
    let (objects, nodes, families) = match tier {
        Tier::Tiny => (100, 8, 40),
        Tier::Quick => (400, 8, 300),
        Tier::Full => (200_000, 24, 20_000),
    };
    ZooScenario {
        family: "diurnal_burst",
        tier,
        description: "peak/off-peak arrival cycle: bursts of closely packed \
                      families alternate with quiet spans",
        config: WorkloadConfig {
            schema: SchemaConfig {
                pages_min: 2,
                pages_max: 4,
                ..SchemaConfig::default()
            },
            num_objects: objects,
            num_families: families,
            num_nodes: nodes,
            zipf_theta: 0.8,
            mean_arrival_gap: SimDuration::from_micros(30),
            abort_prob: 0.0,
            seed: 0x200_0003,
        },
        traffic: TrafficModel {
            arrivals: ArrivalModel::Diurnal {
                period: SimDuration::from_millis(2),
                peak_fraction: 0.25,
                offpeak_factor: 8,
            },
            ..TrafficModel::default()
        },
        criteria: SuccessCriteria {
            min_commit_fraction: 0.9,
            max_abort_rate: 0.05,
            max_p99: SimDuration::from_millis(50),
        },
    }
}

fn deep_trees(tier: Tier) -> ZooScenario {
    let (objects, nodes, families) = match tier {
        Tier::Tiny => (64, 8, 40),
        Tier::Quick => (320, 12, 200),
        Tier::Full => (100_000, 24, 10_000),
    };
    ZooScenario {
        family: "deep_trees",
        tier,
        description: "long invocation chains (8 classes, one site per path): \
                      nesting depth dominates commit latency",
        config: WorkloadConfig {
            schema: SchemaConfig {
                num_classes: 8,
                pages_min: 1,
                pages_max: 2,
                paths_per_method: 2,
                invoke_prob: 0.92,
                max_sites_per_path: 1,
                ..SchemaConfig::default()
            },
            num_objects: objects,
            num_families: families,
            num_nodes: nodes,
            zipf_theta: 0.9,
            mean_arrival_gap: SimDuration::from_micros(50),
            abort_prob: 0.0,
            seed: 0x200_0004,
        },
        traffic: TrafficModel::default(),
        // Worst observed cell across tiers: quick/COTEC ~14 ms p99.
        criteria: SuccessCriteria {
            min_commit_fraction: 0.9,
            max_abort_rate: 0.05,
            max_p99: SimDuration::from_millis(40),
        },
    }
}

fn wide_trees(tier: Tier) -> ZooScenario {
    let (objects, nodes, families) = match tier {
        Tier::Tiny => (60, 8, 40),
        Tier::Quick => (300, 12, 200),
        Tier::Full => (100_000, 24, 10_000),
    };
    // Wide trees hold several write locks at once, so concurrency must
    // not scale linearly with family count: at quick's 50 µs gap the
    // full tier would run thousands of simultaneous multi-lock writers
    // on the zipf head — a deadlock storm that exhausts the engine's
    // restart budget under COTEC. The full tier spreads arrivals
    // instead (same structure, bounded in-flight population).
    let gap = match tier {
        Tier::Full => SimDuration::from_millis(1),
        _ => SimDuration::from_micros(50),
    };
    ZooScenario {
        family: "wide_trees",
        tier,
        description: "shallow, bushy trees (up to 4 sibling sites per path): \
                      lock retention across pre-committed siblings is the hot path",
        config: WorkloadConfig {
            schema: SchemaConfig {
                num_classes: 3,
                pages_min: 1,
                pages_max: 2,
                invoke_prob: 0.85,
                max_sites_per_path: 4,
                ..SchemaConfig::default()
            },
            num_objects: objects,
            num_families: families,
            num_nodes: nodes,
            zipf_theta: 0.9,
            mean_arrival_gap: gap,
            abort_prob: 0.0,
            seed: 0x200_0005,
        },
        traffic: TrafficModel::default(),
        // The deadlock-storm scenario: the quick tier's 200-family blast
        // drives 340–430 victim restarts and a ~660 ms COTEC p99 — that
        // regime is the point, so the ceiling certifies *bounded*
        // meltdown (1 s) rather than pretending this is a low-latency
        // workload.
        criteria: SuccessCriteria {
            min_commit_fraction: 0.9,
            max_abort_rate: 0.05,
            max_p99: SimDuration::from_millis(1_000),
        },
    }
}

fn scaleout(tier: Tier) -> ZooScenario {
    let (objects, nodes, families) = match tier {
        Tier::Tiny => (160, 16, 48),
        Tier::Quick => (960, 24, 240),
        Tier::Full => (20_000, 128, 10_000),
    };
    // Same reasoning as `wide_trees`: the full tier models a steady
    // production stream (5k families/s across 128 nodes), not a
    // simultaneous blast of the whole run's traffic.
    let gap = match tier {
        Tier::Full => SimDuration::from_micros(200),
        _ => SimDuration::from_micros(50),
    };
    ZooScenario {
        family: "scaleout",
        tier,
        description: "cluster scale-out (128 nodes at the full tier) under modest \
                      skew: remote traffic, not contention, dominates",
        config: WorkloadConfig {
            schema: SchemaConfig {
                pages_min: 1,
                pages_max: 3,
                ..SchemaConfig::default()
            },
            num_objects: objects,
            num_families: families,
            num_nodes: nodes,
            zipf_theta: 0.6,
            mean_arrival_gap: gap,
            abort_prob: 0.0,
            seed: 0x200_0006,
        },
        traffic: TrafficModel::default(),
        // Worst observed cell across tiers: tiny/COTEC ~7 ms p99 —
        // modest skew keeps queues shallow even at 128 nodes.
        criteria: SuccessCriteria {
            min_commit_fraction: 0.9,
            max_abort_rate: 0.05,
            max_p99: SimDuration::from_millis(30),
        },
    }
}

/// Generates a zoo workload: compiled registry plus transaction families
/// shaped by `traffic`. Fully deterministic for a given `(config,
/// traffic)` pair, with the same rng stream discipline as
/// [`gen::generate`](crate::gen::generate) (schema/placement/tree/timing
/// forks) — the two generators share the subtree builder, so a zoo
/// scenario with a default [`TrafficModel`] differs from `gen` only in
/// root receiver/method selection.
///
/// # Errors
///
/// Returns [`WorkloadError`] if the schema fails to compile or a
/// generated family fails core validation (generator bugs, surfaced
/// rather than panicking so the bench harness can report them).
pub fn generate(
    config: &WorkloadConfig,
    traffic: &TrafficModel,
) -> Result<(ObjectRegistry, Vec<FamilySpec>), WorkloadError> {
    let root_rng = SimRng::seed_from_u64(config.seed);
    let mut schema_rng = root_rng.fork(1);
    let mut placement_rng = root_rng.fork(2);
    let mut tree_rng = root_rng.fork(3);
    let mut timing_rng = root_rng.fork(4);

    let classes = generate_classes(&config.schema, &mut schema_rng);

    // Per-class read-only vs writer method ids, for biased root draws.
    let num_classes = config.schema.num_classes;
    let mut read_methods: Vec<Vec<MethodId>> = vec![Vec::new(); num_classes as usize];
    let mut write_methods: Vec<Vec<MethodId>> = vec![Vec::new(); num_classes as usize];
    for (ci, class) in classes.iter().enumerate() {
        for (mi, method) in class.methods().iter().enumerate() {
            let id = MethodId::new(mi as u32);
            if method.is_read_only() {
                read_methods[ci].push(id);
            } else {
                write_methods[ci].push(id);
            }
        }
    }

    // Objects round-robin over classes, homed on random nodes — identical
    // to gen, so object id `i` has class `i % num_classes` (the tenant
    // arithmetic below and `ZooScenario::hot_objects` both rely on this).
    let objects: Vec<(ClassId, NodeId)> = (0..config.num_objects)
        .map(|i| {
            let class = ClassId::new(i % num_classes);
            let home = NodeId::new(placement_rng.next_below(config.num_nodes as u64) as u32);
            (class, home)
        })
        .collect();
    let registry = ObjectRegistry::build(&classes, &objects, config.schema.page_size)
        .map_err(|e| WorkloadError::Registry(e.to_string()))?;

    let mut by_class: Vec<Vec<ObjectId>> = vec![Vec::new(); num_classes as usize];
    for inst in registry.objects() {
        by_class[inst.class.index() as usize].push(inst.id);
    }
    let samplers: Vec<Option<Zipf>> = by_class
        .iter()
        .map(|objs| (!objs.is_empty()).then(|| Zipf::new(objs.len(), config.zipf_theta)))
        .collect();

    // One receiver ordering per migration phase: phase p rotates each
    // class's instance list left by len·p/phases, so the zipf head (the
    // front of the list) lands on a different slice of the object space.
    // Phase 0 is the identity — a 1-phase zoo scenario orders receivers
    // exactly like gen.
    let phases = traffic.migration_phases.max(1) as usize;
    let orders: Vec<Vec<Vec<ObjectId>>> = (0..phases)
        .map(|p| {
            by_class
                .iter()
                .map(|objs| {
                    let len = objs.len();
                    if p == 0 || len == 0 {
                        objs.clone()
                    } else {
                        let shift = len * p / phases;
                        let mut rotated = Vec::with_capacity(len);
                        rotated.extend_from_slice(&objs[shift..]);
                        rotated.extend_from_slice(&objs[..shift]);
                        rotated
                    }
                })
                .collect()
        })
        .collect();

    let tenant_zipf =
        (traffic.tenants > 0).then(|| Zipf::new(traffic.tenants as usize, config.zipf_theta));
    let tenant_size = if traffic.tenants > 0 {
        config.num_objects.div_ceil(traffic.tenants)
    } else {
        0
    };

    let sys = SystemConfig {
        num_nodes: config.num_nodes,
        page_size: config.schema.page_size,
        ..SystemConfig::default()
    };

    let mut families = Vec::with_capacity(config.num_families as usize);
    let mut clock = SimTime::ZERO;
    for f in 0..config.num_families {
        let phase = (f as usize * phases) / (config.num_families.max(1) as usize);
        let phase = phase.min(phases - 1);

        // Arrival: exponential gap around the model's current mean.
        let mean = match traffic.arrivals {
            ArrivalModel::Steady => config.mean_arrival_gap,
            ArrivalModel::Diurnal {
                period,
                peak_fraction,
                offpeak_factor,
            } => {
                let pos = clock.as_nanos() % period.as_nanos().max(1);
                let peak_span = (period.as_nanos() as f64 * peak_fraction) as u64;
                if pos < peak_span {
                    config.mean_arrival_gap
                } else {
                    SimDuration::from_nanos(
                        config
                            .mean_arrival_gap
                            .as_nanos()
                            .saturating_mul(offpeak_factor.max(1) as u64),
                    )
                }
            }
        };
        let u = timing_rng.f64().max(1e-12);
        let gap = SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64());
        clock += gap;
        let node = NodeId::new(timing_rng.next_below(config.num_nodes as u64) as u32);

        let by = &orders[phase];
        let root_class = tree_rng.next_below(num_classes as u64) as usize;

        // Root receiver + whether this root belongs to a hot-write tenant.
        let (receiver, hot_writer) = if let Some(tz) = &tenant_zipf {
            let rank = tz.sample(&mut tree_rng) as u32;
            // Rank is hotness; the phase rotation moves which *tenant*
            // holds each rank, mirroring the per-class order rotation.
            let rotation = (phase as u32 * traffic.tenants) / phases as u32;
            let tenant = (rank + rotation) % traffic.tenants;
            let obj = tenant_instance(
                tenant,
                tenant_size,
                config.num_objects,
                num_classes,
                root_class as u32,
                &mut tree_rng,
            );
            let Some(obj) = obj.or_else(|| {
                // Tenant too small to hold this class: fall back to the
                // class-wide draw so the family is not lost.
                samplers[root_class]
                    .as_ref()
                    .map(|s| by[root_class][s.sample(&mut tree_rng)])
            }) else {
                continue;
            };
            (obj, rank < traffic.hot_write_tenants)
        } else {
            let Some(s) = samplers[root_class].as_ref() else {
                continue;
            };
            (by[root_class][s.sample(&mut tree_rng)], false)
        };

        // Root method: hot writers write; read-biased traffic prefers
        // read-only methods; otherwise uniform like gen.
        let ro = &read_methods[root_class];
        let wr = &write_methods[root_class];
        let method = if hot_writer && !wr.is_empty() {
            wr[tree_rng.next_below(wr.len() as u64) as usize]
        } else if let Some(bias) = traffic.read_bias {
            let pool = if tree_rng.chance(bias) {
                if ro.is_empty() {
                    wr
                } else {
                    ro
                }
            } else if wr.is_empty() {
                ro
            } else {
                wr
            };
            pool[tree_rng.next_below(pool.len() as u64) as usize]
        } else {
            let num_methods = classes[root_class].methods().len();
            MethodId::new(tree_rng.next_below(num_methods as u64) as u32)
        };

        let Some(root) = build_root(
            &registry,
            by,
            &samplers,
            receiver,
            method,
            &mut tree_rng,
            config.abort_prob,
        ) else {
            continue;
        };
        let family = FamilySpec {
            node,
            start: clock,
            root,
        };
        validate_family(&family, &registry, &sys)
            .map_err(|e| WorkloadError::InvalidFamily(e.to_string()))?;
        families.push(family);
    }
    Ok((registry, families))
}

/// A uniform instance of `class` among those owned by `tenant` (objects
/// are contiguous per tenant, classes round-robin by id). `None` when the
/// tenant's slice holds no instance of the class.
fn tenant_instance(
    tenant: u32,
    tenant_size: u32,
    num_objects: u32,
    num_classes: u32,
    class: u32,
    rng: &mut SimRng,
) -> Option<ObjectId> {
    let lo = tenant.checked_mul(tenant_size)?;
    let hi = lo.checked_add(tenant_size)?.min(num_objects);
    if lo >= hi {
        return None;
    }
    let first = lo + (class + num_classes - lo % num_classes) % num_classes;
    if first >= hi {
        return None;
    }
    let count = (hi - first).div_ceil(num_classes);
    let k = rng.next_below(count as u64) as u32;
    Some(ObjectId::new(first + k * num_classes))
}

/// Builds the root invocation for a *fixed* receiver and method (the zoo
/// picks both before building the tree), delegating each invocation site
/// to the shared subtree builder. Roots are never fault-injected.
fn build_root(
    registry: &ObjectRegistry,
    by_class: &[Vec<ObjectId>],
    samplers: &[Option<Zipf>],
    object: ObjectId,
    method: MethodId,
    rng: &mut SimRng,
    abort_prob: f64,
) -> Option<InvocationSpec> {
    let compiled = registry.class_of(object);
    let num_paths = compiled.num_paths(method);
    let path = PathId::new(rng.next_below(num_paths as u64) as u32);
    let sites = compiled
        .class()
        .method(method)
        .path(path)
        .invokes()
        .to_vec();
    let mut locked = vec![object];
    let mut children = Vec::with_capacity(sites.len());
    for site in &sites {
        let child = build_invocation(
            registry,
            by_class,
            samplers,
            site.class.index() as usize,
            Some(site.method),
            rng,
            abort_prob,
            &mut locked,
            false,
        )?;
        children.push(child);
    }
    Some(InvocationSpec {
        object,
        method,
        path,
        children,
        abort: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_six_families_at_every_tier() {
        for tier in Tier::ALL {
            let zoo = all(tier);
            assert_eq!(zoo.len(), 6);
            let mut names: Vec<_> = zoo.iter().map(|s| s.family).collect();
            names.dedup();
            assert_eq!(names.len(), 6, "family names must be unique");
            for s in &zoo {
                assert_eq!(s.tier, tier);
                assert!(s.name().ends_with(tier.label()));
            }
        }
    }

    #[test]
    fn tiny_scenarios_generate_valid_families() {
        for scenario in all(Tier::Tiny) {
            let (registry, families) = scenario.generate().unwrap();
            assert_eq!(
                registry.num_objects() as u32,
                scenario.config.num_objects,
                "{}",
                scenario.name()
            );
            assert!(
                families.len() as u32 >= scenario.config.num_families / 2,
                "{}: only {}/{} families generated",
                scenario.name(),
                families.len(),
                scenario.config.num_families
            );
            let sys = scenario.system_config();
            for f in &families {
                validate_family(f, &registry, &sys).unwrap();
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for scenario in all(Tier::Tiny) {
            let (_, a) = scenario.generate().unwrap();
            let (_, b) = scenario.generate().unwrap();
            assert_eq!(a, b, "{}", scenario.name());
        }
    }

    #[test]
    fn depth_and_width_respect_declared_bounds() {
        fn depth(inv: &InvocationSpec) -> u32 {
            1 + inv.children.iter().map(depth).max().unwrap_or(0)
        }
        fn max_width(inv: &InvocationSpec) -> u32 {
            inv.children
                .iter()
                .map(max_width)
                .max()
                .unwrap_or(0)
                .max(inv.children.len() as u32)
        }
        for scenario in all(Tier::Tiny) {
            let (_, families) = scenario.generate().unwrap();
            for f in &families {
                assert!(depth(&f.root) <= scenario.declared_max_depth());
                assert!(max_width(&f.root) <= scenario.declared_max_width());
            }
        }
    }

    #[test]
    fn deep_trees_are_deeper_than_wide_trees() {
        fn depth(inv: &InvocationSpec) -> u32 {
            1 + inv.children.iter().map(depth).max().unwrap_or(0)
        }
        let max_depth = |family: &str| {
            let (_, families) = by_name(family, Tier::Tiny).unwrap().generate().unwrap();
            families.iter().map(|f| depth(&f.root)).max().unwrap()
        };
        assert!(max_depth("deep_trees") > max_depth("wide_trees"));
    }

    #[test]
    fn wide_trees_have_wide_nodes() {
        fn max_width(inv: &InvocationSpec) -> u32 {
            inv.children
                .iter()
                .map(max_width)
                .max()
                .unwrap_or(0)
                .max(inv.children.len() as u32)
        }
        let (_, families) = by_name("wide_trees", Tier::Tiny)
            .unwrap()
            .generate()
            .unwrap();
        let widest = families.iter().map(|f| max_width(&f.root)).max().unwrap();
        assert!(widest >= 3, "expected sibling fan-out, widest {widest}");
    }

    #[test]
    fn hotspot_migration_moves_the_hot_set() {
        let scenario = by_name("hotspot_migration", Tier::Quick).unwrap();
        let (_, families) = scenario.generate().unwrap();
        // Compare the most popular root receiver in the first vs last
        // quarter of the run: four phases must not share a hot head.
        let top = |fams: &[FamilySpec]| {
            let mut counts = std::collections::BTreeMap::new();
            for f in fams {
                *counts.entry(f.root.object).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        let quarter = families.len() / 4;
        let early = top(&families[..quarter]);
        let late = top(&families[families.len() - quarter..]);
        assert_ne!(early, late, "hot object should migrate between phases");
    }

    #[test]
    fn tenant_draws_stay_inside_the_tenant() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..200 {
            let tenant = rng.next_below(10) as u32;
            let obj = tenant_instance(tenant, 12, 120, 4, rng.next_below(4) as u32, &mut rng);
            let obj = obj.unwrap();
            assert!(obj.index() >= tenant * 12 && obj.index() < (tenant + 1) * 12);
        }
    }

    #[test]
    fn criteria_evaluate_reports_violations() {
        let criteria = SuccessCriteria {
            min_commit_fraction: 0.9,
            max_abort_rate: 0.01,
            max_p99: SimDuration::from_micros(1),
        };
        let stats = RunStats::default();
        let failures = criteria.evaluate(10, &stats);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("commit fraction"));
        assert!(failures[1].contains("p99 undefined"));
    }

    #[test]
    fn hot_share_math_is_sane() {
        let scenario = by_name("multi_tenant", Tier::Quick).unwrap();
        let share = scenario.expected_hot_share(0.01);
        assert!(share > 0.1 && share < 0.5, "{share}");
        let hot = scenario.hot_objects(0.01);
        // One hot tenant out of 100 → 20 objects of a 2000-object space.
        assert_eq!(hot.len(), 20);
        let flat = by_name("scaleout", Tier::Tiny).unwrap();
        let hot = flat.hot_objects(0.01);
        assert_eq!(hot.len(), 4, "one per class");
    }
}

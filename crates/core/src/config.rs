//! System-wide configuration for simulated runs.

use lotec_net::{MessageSizes, NetworkConfig};
use lotec_sim::SimDuration;

use crate::protocol::ProtocolKind;

/// Local processing costs (everything that is *not* network time).
///
/// The paper's evaluation focuses on network quantities; local costs exist
/// so the event timeline is realistic enough for queueing effects (who
/// reaches the GDO first) without dominating the results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// A lock operation served from locally cached GDO state.
    pub local_lock_op: SimDuration,
    /// GDO-side processing of one request.
    pub gdo_processing: SimDuration,
    /// Fixed cost of entering a method invocation.
    pub invocation_base: SimDuration,
    /// Compute cost per page actually touched by a method.
    pub per_page_access: SimDuration,
    /// UNDO cost per rolled-back page (local log replay).
    pub undo_per_page: SimDuration,
    /// Base backoff before a deadlock-victim family restarts; doubles per
    /// restart.
    pub retry_backoff_base: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            local_lock_op: SimDuration::from_nanos(200),
            gdo_processing: SimDuration::from_nanos(500),
            invocation_base: SimDuration::from_micros(2),
            per_page_access: SimDuration::from_micros(1),
            undo_per_page: SimDuration::from_nanos(500),
            retry_backoff_base: SimDuration::from_micros(100),
        }
    }
}

/// How the Global Directory of Objects is placed across the cluster.
///
/// §4.1: "To ensure efficiency and reliability, the GDO design is
/// partitioned and replicated as well as being partially cacheable at
/// local sites." Partitioning spreads directory load and gives every node
/// a share of zero-cost local lock operations; a central directory is the
/// classic bottleneck alternative worth measuring against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GdoPlacement {
    /// Hash-partitioned over all nodes (the paper's design).
    #[default]
    Partitioned,
    /// Every entry lives on one directory node.
    Central(lotec_sim::NodeId),
}

/// Which recovery mechanism the engine uses for UNDO (paper §4.1 names
/// both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryKind {
    /// Per-transaction undo logs.
    #[default]
    UndoLog,
    /// Shadow pages.
    ShadowPages,
}

/// Fault-injection configuration: a [`FaultPlan`](lotec_sim::FaultPlan)
/// for the network and node layer, plus engine-level fault knobs.
///
/// The default is fully disabled ([`FaultConfig::enabled`] is false) and
/// the engine's fault path is then zero-cost: no RNG draws, no extra
/// ledger entries, no behavior change relative to a fault-free build.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Message-loss/duplication/delay probabilities and node crash
    /// windows, interpreted deterministically from the engine seed.
    pub plan: lotec_sim::FaultPlan,
    /// Lock-request timeout: a request still queued after this long is
    /// cancelled and requeued at the tail (modelling a timed-out waiter
    /// re-issuing its request). [`SimDuration::ZERO`] disables timeouts.
    pub lock_timeout: SimDuration,
}

impl FaultConfig {
    /// True when any fault mechanism can fire.
    pub fn enabled(&self) -> bool {
        self.plan.enabled() || self.lock_timeout > SimDuration::ZERO
    }

    /// Validates the embedded plan against the cluster size.
    ///
    /// # Panics
    ///
    /// Panics on the conditions documented for
    /// [`FaultPlan::validate`](lotec_sim::FaultPlan::validate).
    pub fn validate(&self, num_nodes: u32) {
        self.plan.validate(num_nodes);
    }
}

/// Adaptive access-prediction configuration.
///
/// When enabled, LOTEC-family protocols replace the static compile-time
/// prediction with a per-(class, method)
/// [`PredictionProfile`](lotec_object::PredictionProfile) refined online
/// from observed access sets: under-predictions (demand fetches) expand
/// the profile immediately, over-predicted pages are dropped after going
/// untouched for [`window`](AdaptiveConfig::window) consecutive
/// observations, and shrinking is floored at the statically-proven
/// must-access set. Adaptive runs also coalesce transfers: gather
/// requests are sized by maximal adjacent-page runs and same-phase demand
/// fetches batch into one round trip per source.
///
/// The default is fully disabled and then zero-cost: no profile state, no
/// extra events, byte-identical behavior to a build without the feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Master switch.
    pub enabled: bool,
    /// Confidence window: consecutive observations a predicted page must
    /// go untouched before the profile drops it.
    pub window: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            window: 4,
        }
    }
}

impl AdaptiveConfig {
    /// An enabled config with the default window.
    pub fn on() -> Self {
        AdaptiveConfig {
            enabled: true,
            ..AdaptiveConfig::default()
        }
    }
}

/// Flight-recorder (black box) configuration.
///
/// The recorder is a fixed-capacity ring of compact fixed-width event
/// records ([`lotec_obs::FlightRecorder`]) that the forensics pipeline
/// snapshots on anomaly. The engine never reads this config: it sizes the
/// ring a caller builds with [`FlightRecorder::new`] and lends to
/// [`Engine::with_probe`](crate::Engine::with_probe).
///
/// [`FlightRecorder::new`]: lotec_obs::FlightRecorder::new
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecorderConfig {
    /// Ring capacity in records (each record is a fixed 176 bytes, so
    /// the default keeps under 1 MiB resident). `FlightRecorder::new`
    /// rejects zero.
    pub slots: u32,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig { slots: 4096 }
    }
}

/// Full configuration of a simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of sites. Transaction families are distributed across them;
    /// the GDO is hash-partitioned over all of them.
    pub num_nodes: u32,
    /// DSM page size in bytes.
    pub page_size: u32,
    /// Network parameters (bandwidth + per-message software cost).
    pub network: NetworkConfig,
    /// Wire-structure byte sizes.
    pub sizes: MessageSizes,
    /// Local processing costs.
    pub costs: CostModel,
    /// The consistency protocol the engine runs (the default for every
    /// class not listed in [`SystemConfig::per_class_protocol`]).
    pub protocol: ProtocolKind,
    /// Per-class protocol overrides — the paper's §6 future-work item
    /// "extensions to support different consistency protocols … on a
    /// per-class basis". Keys are class indices
    /// ([`ClassId::index`](lotec_object::ClassId::index)).
    pub per_class_protocol: std::collections::BTreeMap<u32, ProtocolKind>,
    /// UNDO mechanism.
    pub recovery: RecoveryKind,
    /// GDO placement strategy.
    pub gdo_placement: GdoPlacement,
    /// GDO replication factor (§4.1: the directory is "partitioned and
    /// replicated … to ensure efficiency and reliability"). Each directory
    /// mutation (global grant, release) is propagated to `factor - 1`
    /// backup replicas by small write-behind messages; 1 = no replication.
    pub gdo_replication: u32,
    /// Distributed-Shared-Data transfer granularity (paper §4.2/§6):
    /// transfers carry only each page's *occupied* object bytes instead of
    /// whole pages. Objects rarely fill their last page, so DSD shaves the
    /// internal fragmentation off every transfer; per §4.2 this is also
    /// what makes diff-based false-sharing machinery unnecessary.
    pub dsd_transfers: bool,
    /// Models a multicast-capable network (paper §6: verifying "LOTEC's
    /// compatibility with conventional DSM optimization techniques
    /// including the use of multicast-capable networks"): an eager update
    /// push to N caching sites costs one message instead of N. Only the
    /// release-consistency extension generates one-to-many traffic, so
    /// only RC (or RC-assigned classes) is affected.
    pub multicast: bool,
    /// Enables optimistic lock prefetching (paper §6 future work): when a
    /// parent invocation enters its compute phase, the lock requests of
    /// its pending child invocations are issued early, overlapping their
    /// GDO round trips with the parent's computation. Lock *semantics*
    /// are unchanged (requests keep their queue position; this models
    /// pure latency hiding), only grant-message latency is absorbed.
    pub lock_prefetch: bool,
    /// Probability that a predicted page is dropped from LOTEC's prefetch
    /// plan, forcing a demand fetch if actually touched (0.0 = the paper's
    /// conservative compiler; > 0 models an unsound/imprecise analyzer for
    /// the prediction ablation).
    pub prediction_miss_rate: f64,
    /// Give up restarting a deadlock-victim family after this many
    /// attempts.
    pub max_restarts: u32,
    /// Deterministic fault injection (lossy links, node crashes, lock
    /// timeouts). Disabled by default; see [`FaultConfig`].
    pub faults: FaultConfig,
    /// Adaptive access prediction with misprediction feedback. Disabled
    /// by default; see [`AdaptiveConfig`].
    pub adaptive: AdaptiveConfig,
    /// Seed for the engine's internal randomness (backoff jitter,
    /// prediction-miss draws). Workload generation has its own seed.
    pub seed: u64,
    /// Flight-recorder ring sizing; see [`FlightRecorderConfig`].
    pub flight_recorder: FlightRecorderConfig,
    /// Retain the per-family phase-time rows
    /// ([`RunStats::phases`](crate::metrics::PhaseBreakdown)`::per_family`)
    /// at end of run. On (the default) each family contributes one
    /// `FamilyPhases` row — O(families) memory that the forensics and
    /// observability reports consume. Production-scale scenario sweeps
    /// turn it off to stay memory-flat; the aggregate phase totals are
    /// unaffected either way, and the flag is consulted only in
    /// end-of-run bookkeeping, so it cannot perturb simulated behaviour.
    pub per_family_phases: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_nodes: 8,
            page_size: 4096,
            network: NetworkConfig::default_cluster(),
            sizes: MessageSizes::default(),
            costs: CostModel::default(),
            protocol: ProtocolKind::Lotec,
            per_class_protocol: std::collections::BTreeMap::new(),
            recovery: RecoveryKind::default(),
            gdo_placement: GdoPlacement::default(),
            gdo_replication: 1,
            dsd_transfers: false,
            multicast: false,
            lock_prefetch: false,
            prediction_miss_rate: 0.0,
            max_restarts: 25,
            faults: FaultConfig::default(),
            adaptive: AdaptiveConfig::default(),
            seed: 0,
            flight_recorder: FlightRecorderConfig::default(),
            per_family_phases: true,
        }
    }
}

impl SystemConfig {
    /// Convenience: the same config with a different protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Convenience: override the protocol for one class.
    #[must_use]
    pub fn with_class_protocol(
        mut self,
        class: lotec_object::ClassId,
        protocol: ProtocolKind,
    ) -> Self {
        self.per_class_protocol.insert(class.index(), protocol);
        self
    }

    /// The protocol governing objects of `class`: the per-class override
    /// if present, the run-wide default otherwise.
    pub fn protocol_for(&self, class: lotec_object::ClassId) -> ProtocolKind {
        self.per_class_protocol
            .get(&class.index())
            .copied()
            .unwrap_or(self.protocol)
    }

    /// True when any class runs a different protocol from the default.
    pub fn is_mixed_protocol(&self) -> bool {
        self.per_class_protocol
            .values()
            .any(|&p| p != self.protocol)
    }

    /// The node hosting `object`'s GDO entry under the configured
    /// placement.
    pub fn gdo_home(&self, object: lotec_mem::ObjectId) -> lotec_sim::NodeId {
        match self.gdo_placement {
            GdoPlacement::Partitioned => lotec_txn::gdo_home(object, self.num_nodes),
            GdoPlacement::Central(node) => node,
        }
    }

    /// The backup replicas of `object`'s GDO partition: the
    /// `gdo_replication - 1` nodes following the home in ring order.
    pub fn gdo_replicas(&self, object: lotec_mem::ObjectId) -> Vec<lotec_sim::NodeId> {
        let home = self.gdo_home(object).index();
        (1..self.gdo_replication)
            .map(|i| lotec_sim::NodeId::new((home + i) % self.num_nodes))
            .collect()
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero, `page_size < 8`, or
    /// `prediction_miss_rate` is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.num_nodes > 0, "need at least one node");
        if let GdoPlacement::Central(node) = self.gdo_placement {
            assert!(
                node.index() < self.num_nodes,
                "central GDO node out of range"
            );
        }
        assert!(
            self.gdo_replication >= 1 && self.gdo_replication <= self.num_nodes,
            "gdo_replication must be in 1..=num_nodes"
        );
        assert!(self.page_size >= 8, "page size must be at least 8 bytes");
        assert!(
            (0.0..=1.0).contains(&self.prediction_miss_rate),
            "prediction_miss_rate must be a probability"
        );
        assert!(
            !self.adaptive.enabled || self.adaptive.window > 0,
            "adaptive confidence window must be positive"
        );
        self.faults.validate(self.num_nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SystemConfig::default().validate();
    }

    #[test]
    fn builders_override() {
        let cfg = SystemConfig::default().with_protocol(ProtocolKind::Cotec);
        assert_eq!(cfg.protocol, ProtocolKind::Cotec);
        let net = NetworkConfig::new(
            lotec_net::Bandwidth::gigabit(),
            lotec_net::SoftwareCost::NANOS_500,
        );
        let cfg = SystemConfig {
            network: net,
            ..cfg
        };
        assert_eq!(cfg.network, net);
    }

    #[test]
    fn fault_config_defaults_to_disabled() {
        let cfg = SystemConfig::default();
        assert!(!cfg.faults.enabled());
        let cfg = SystemConfig {
            faults: FaultConfig {
                lock_timeout: SimDuration::from_millis(5),
                ..FaultConfig::default()
            },
            ..cfg
        };
        assert!(cfg.faults.enabled());
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn fault_plan_checked_against_cluster_size() {
        let cfg = SystemConfig {
            faults: FaultConfig {
                plan: lotec_sim::FaultPlan {
                    crashes: vec![lotec_sim::CrashWindow {
                        node: lotec_sim::NodeId::new(99),
                        at: lotec_sim::SimTime::ZERO,
                        until: lotec_sim::SimTime::from_micros(1),
                    }],
                    ..lotec_sim::FaultPlan::default()
                },
                ..FaultConfig::default()
            },
            ..SystemConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn adaptive_defaults_to_disabled() {
        let cfg = SystemConfig::default();
        assert!(!cfg.adaptive.enabled);
        let cfg = SystemConfig {
            adaptive: AdaptiveConfig::on(),
            ..cfg
        };
        assert!(cfg.adaptive.enabled);
        assert_eq!(cfg.adaptive.window, 4);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "confidence window")]
    fn zero_adaptive_window_rejected() {
        let cfg = SystemConfig {
            adaptive: AdaptiveConfig {
                enabled: true,
                window: 0,
            },
            ..SystemConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn flight_recorder_defaults_and_override() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.flight_recorder.slots, 4096);
        let cfg = SystemConfig {
            flight_recorder: FlightRecorderConfig { slots: 16 },
            ..cfg
        };
        assert_eq!(cfg.flight_recorder.slots, 16);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_miss_rate_rejected() {
        let cfg = SystemConfig {
            prediction_miss_rate: 1.5,
            ..SystemConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let cfg = SystemConfig {
            num_nodes: 0,
            ..SystemConfig::default()
        };
        cfg.validate();
    }
}

//! The protocol comparison harness: one workload, one schedule, all four
//! protocols' costs.
//!
//! [`compare_protocols`] runs the engine once (under the configured
//! protocol — LOTEC by default — whose timing fixes the lock schedule),
//! verifies the run against the serializability oracle, and replays the
//! schedule through every protocol's placement model. The result answers
//! the questions the paper's figures pose: bytes per shared object
//! (Figs. 2–5) and total message time under any network configuration
//! (Figs. 6–8).

use lotec_mem::ObjectId;
use lotec_net::{NetworkConfig, ObjectTraffic};
use lotec_object::ObjectRegistry;
use lotec_sim::SimDuration;

use crate::config::SystemConfig;
use crate::engine::{Engine, RunReport};
use crate::error::CoreError;
use crate::metrics::ProtocolTraffic;
use crate::oracle;
use crate::protocol::ProtocolKind;
use crate::replay::replay_trace;
use crate::spec::FamilySpec;

/// Per-protocol traffic for one shared workload schedule.
#[derive(Debug, Clone)]
pub struct ProtocolComparison {
    report: RunReport,
    per_protocol: Vec<(ProtocolKind, ProtocolTraffic)>,
}

impl ProtocolComparison {
    /// The engine run that fixed the schedule (timing, stats, trace).
    pub fn schedule_run(&self) -> &RunReport {
        &self.report
    }

    /// The traffic `kind` generates for the shared schedule.
    ///
    /// # Panics
    ///
    /// Panics if `kind` was not part of the comparison (all four always
    /// are).
    pub fn traffic(&self, kind: ProtocolKind) -> &ProtocolTraffic {
        &self
            .per_protocol
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("all protocols compared")
            .1
    }

    /// Bytes/messages `kind` charges to `object` — one bar of Figures 2–5.
    pub fn object(&self, kind: ProtocolKind, object: ObjectId) -> ObjectTraffic {
        self.traffic(kind).object(object)
    }

    /// Whole-run totals for `kind`.
    pub fn total(&self, kind: ProtocolKind) -> ObjectTraffic {
        self.traffic(kind).total()
    }

    /// Total message time of `object` under `kind` for a network
    /// configuration — one bar of Figures 6–8.
    pub fn object_time(
        &self,
        kind: ProtocolKind,
        object: ObjectId,
        net: NetworkConfig,
    ) -> SimDuration {
        self.traffic(kind).object_time(object, net)
    }

    /// Whole-run message time for `kind` under `net`.
    pub fn total_time(&self, kind: ProtocolKind, net: NetworkConfig) -> SimDuration {
        self.traffic(kind).total_time(net)
    }

    /// The byte ratio `a / b` over whole-run totals (the paper's in-text
    /// "OTEC outperforms COTEC by ~20–25%" style numbers are
    /// `1 - ratio`).
    pub fn byte_ratio(&self, a: ProtocolKind, b: ProtocolKind) -> f64 {
        let a = self.total(a).bytes as f64;
        let b = self.total(b).bytes as f64;
        if b == 0.0 {
            0.0
        } else {
            a / b
        }
    }
}

/// Runs `workload` once and compares all four protocols on the resulting
/// schedule.
///
/// The engine run is checked against the serializability oracle before the
/// comparison is trusted.
///
/// # Errors
///
/// Propagates engine errors and oracle violations.
pub fn compare_protocols(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    workload: &[FamilySpec],
) -> Result<ProtocolComparison, CoreError> {
    let report = Engine::new(config, registry, workload)?.run()?;
    oracle::verify(&report)?;
    let per_protocol = ProtocolKind::ALL
        .iter()
        .map(|&kind| (kind, replay_trace(kind, &report.trace, registry, config)))
        .collect();
    Ok(ProtocolComparison {
        report,
        per_protocol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::demo_workload;

    #[test]
    fn comparison_orders_bytes_lotec_otec_cotec() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 11);
        let cmp = compare_protocols(&config, &registry, &families).unwrap();
        let lotec = cmp.total(ProtocolKind::Lotec).bytes;
        let otec = cmp.total(ProtocolKind::Otec).bytes;
        let cotec = cmp.total(ProtocolKind::Cotec).bytes;
        assert!(lotec <= otec, "LOTEC {lotec} > OTEC {otec}");
        assert!(otec <= cotec, "OTEC {otec} > COTEC {cotec}");
        assert!(lotec > 0, "some traffic must flow");
    }

    #[test]
    fn per_object_ordering_holds_on_demo() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 12);
        let cmp = compare_protocols(&config, &registry, &families).unwrap();
        for inst in registry.objects() {
            let l = cmp.object(ProtocolKind::Lotec, inst.id).bytes;
            let o = cmp.object(ProtocolKind::Otec, inst.id).bytes;
            let c = cmp.object(ProtocolKind::Cotec, inst.id).bytes;
            assert!(l <= o && o <= c, "{}: {l} / {o} / {c}", inst.id);
        }
    }

    #[test]
    fn lock_traffic_identical_across_paper_trio() {
        use lotec_net::MessageKind;
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 13);
        let cmp = compare_protocols(&config, &registry, &families).unwrap();
        for kind in [
            MessageKind::LockRequest,
            MessageKind::LockGrant,
            MessageKind::LockRelease,
        ] {
            let c = cmp.traffic(ProtocolKind::Cotec).ledger().kind(kind);
            let o = cmp.traffic(ProtocolKind::Otec).ledger().kind(kind);
            let l = cmp.traffic(ProtocolKind::Lotec).ledger().kind(kind);
            assert_eq!(c, o, "{kind}");
            assert_eq!(o, l, "{kind}");
        }
    }

    #[test]
    fn message_time_shrinks_with_faster_software() {
        use lotec_net::{Bandwidth, SoftwareCost};
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 14);
        let cmp = compare_protocols(&config, &registry, &families).unwrap();
        let slow = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::MICROS_100);
        let fast = NetworkConfig::new(Bandwidth::ethernet10(), SoftwareCost::NANOS_500);
        for kind in ProtocolKind::PAPER_TRIO {
            assert!(
                cmp.total_time(kind, fast) < cmp.total_time(kind, slow),
                "{kind}"
            );
        }
    }

    #[test]
    fn byte_ratio_is_sane() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 15);
        let cmp = compare_protocols(&config, &registry, &families).unwrap();
        let ratio = cmp.byte_ratio(ProtocolKind::Lotec, ProtocolKind::Cotec);
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
    }
}

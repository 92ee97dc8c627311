//! Trace replay: count the traffic each protocol would send for one
//! identical lock schedule.
//!
//! Replaying decouples *what the protocols cost* from *how the run
//! unfolded*: the lock schedule (grants, commits, aborts) comes from a
//! single engine run, and each protocol's placement model is advanced over
//! that schedule, charging exactly the messages that protocol would emit.
//! Because the schedule is shared, byte/message differences between
//! protocols are pure protocol effects — the comparison the paper's
//! figures make.
//!
//! Replay states no protocol rule of its own. It is a second driver of the
//! engine's rules: the acquisition decisions come from
//! [`protocol`](crate::protocol) and every message from the crate's
//! charging module, so replaying an engine run's own trace under the
//! engine's configuration charges exactly the engine's ledger.
//!
//! What replay does not model: lossy links (the engine also charges every
//! retransmission and duplicate), lock timeouts (each re-issued request
//! costs the engine one more lock request) and node crashes (a dead node
//! sends no releases, cold caches re-fetch, and RC skips the caching sites
//! a crash forgot).

use lotec_net::{Message, TrafficLedger};
use lotec_object::ObjectRegistry;
use lotec_sim::SimRng;

use crate::charge;
use crate::config::SystemConfig;
use crate::metrics::ProtocolTraffic;
use crate::placement::PlacementModel;
use crate::protocol::{demand_set, prefetch_set, ProtocolKind};
use crate::trace::{ScheduleTrace, TraceEvent};

/// Replays `trace` under `kind` (uniformly, for every object), returning
/// the traffic that protocol would generate.
pub fn replay_trace(
    kind: ProtocolKind,
    trace: &ScheduleTrace,
    registry: &ObjectRegistry,
    config: &SystemConfig,
) -> ProtocolTraffic {
    let model = PlacementModel::new(kind, registry);
    replay_with_model(model, trace, registry, config)
}

/// Replays `trace` under `config`'s own protocol assignment — the default
/// protocol plus any per-class overrides. This is the replay counterpart
/// of a mixed-protocol engine run.
pub fn replay_run(
    trace: &ScheduleTrace,
    registry: &ObjectRegistry,
    config: &SystemConfig,
) -> ProtocolTraffic {
    let model = PlacementModel::with_assignment(config.protocol, registry, |class| {
        config.protocol_for(class)
    });
    replay_with_model(model, trace, registry, config)
}

fn replay_with_model(
    mut model: PlacementModel,
    trace: &ScheduleTrace,
    registry: &ObjectRegistry,
    config: &SystemConfig,
) -> ProtocolTraffic {
    config.validate();
    let mut ledger = TrafficLedger::new();
    let mut record = |msg: Message| {
        charge::record(&mut ledger, &msg);
    };
    // Replay's own stream for the prediction-miss ablation; protocol
    // comparisons at miss rate 0 are fully deterministic.
    let mut rng = SimRng::seed_from_u64(config.seed ^ 0x5EED_0F0F_4E97_1A1Du64);

    for event in trace.events() {
        match event {
            TraceEvent::Grant {
                node,
                object,
                global,
                holders,
                predicted,
                actual_reads,
                actual_writes,
                ..
            } => {
                let (node, object) = (*node, *object);
                // A queued request was sent before its grant; both are
                // charged here, at the grant.
                if *global {
                    let request = charge::lock_request(config, node, object);
                    record(request);
                    record(charge::lock_grant(config, registry, node, object, *holders));
                    charge::gdo_replication(config, &request).for_each(&mut record);
                }
                let kind = model.kind_of(object);
                let pages = registry.num_pages(object);
                let prefetch = prefetch_set(config, kind, pages, predicted, &mut rng);
                let plan = model.on_grant(node, object, &prefetch);
                for (source, pages) in plan.sources() {
                    charge::fetch(config, registry, node, source, object, pages, false)
                        .into_iter()
                        .for_each(&mut record);
                }
                let stale = demand_set(
                    config,
                    kind,
                    &model,
                    node,
                    object,
                    actual_reads,
                    actual_writes,
                );
                model.demand_fetch(node, object, &stale);
                for (source, pages) in charge::demand_batches(config, &stale) {
                    charge::fetch(config, registry, node, source, object, &pages, true)
                        .into_iter()
                        .for_each(&mut record);
                }
            }
            TraceEvent::RootCommit {
                node,
                dirty,
                released,
                ..
            } => {
                for &object in released {
                    let pages = dirty
                        .iter()
                        .find(|(o, _)| *o == object)
                        .map_or(&[][..], |(_, p)| p.as_slice());
                    let release = charge::lock_release(config, *node, object, pages.len());
                    record(release);
                    charge::gdo_replication(config, &release).for_each(&mut record);
                    let sites = model.on_commit(*node, object, pages);
                    charge::update_pushes(config, registry, *node, object, pages, &sites)
                        .for_each(&mut record);
                }
            }
            TraceEvent::SubAbortRelease { node, released, .. }
            | TraceEvent::FamilyAbort { node, released, .. } => {
                for &object in released {
                    let release = charge::lock_release(config, *node, object, 0);
                    record(release);
                    charge::gdo_replication(config, &release).for_each(&mut record);
                }
                // An aborted family's still-queued request was sent but
                // will never be granted.
                if let TraceEvent::FamilyAbort {
                    cancelled_request: Some(object),
                    ..
                } = event
                {
                    record(charge::lock_request(config, *node, *object));
                }
            }
        }
    }
    ProtocolTraffic::new(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_protocols;
    use crate::spec::demo_workload;

    #[test]
    fn replay_is_deterministic() {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 3);
        let cmp1 = compare_protocols(&config, &registry, &families).unwrap();
        let cmp2 = compare_protocols(&config, &registry, &families).unwrap();
        for kind in ProtocolKind::ALL {
            assert_eq!(cmp1.total(kind), cmp2.total(kind));
        }
    }
}

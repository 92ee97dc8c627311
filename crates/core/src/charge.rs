//! The charging rules: which messages each protocol step sends, and what
//! each costs.
//!
//! Every consistency-protocol message is built here, one function per
//! rule. The engine sends what these functions build (and adds timing,
//! lossy delivery and probes); [`replay`](crate::replay) records the same
//! messages while it advances a placement model over a recorded schedule.
//! Stating each rule once is what keeps the two ledgers equal.
//!
//! A message between a site and itself is free and unrecorded: a site that
//! is its object's GDO home pays nothing to request, grant or release a
//! lock there. [`record`] applies that rule; the engine's send path also
//! charges such a message no time.

use lotec_mem::{ObjectId, PageIndex};
use lotec_net::{Message, MessageKind, TrafficLedger};
use lotec_object::ObjectRegistry;
use lotec_sim::NodeId;

use crate::analysis::adjacent_run_count;
use crate::config::SystemConfig;
use crate::granularity::transfer_message_bytes;

/// Records `msg` in `ledger` unless it is local; returns whether it was
/// recorded.
pub(crate) fn record(ledger: &mut TrafficLedger, msg: &Message) -> bool {
    if msg.is_local() {
        return false;
    }
    ledger.record(msg);
    true
}

/// Site → GDO home: a global lock request (Alg. 4.2), one requester
/// `<TID, NID>` pair.
pub(crate) fn lock_request(config: &SystemConfig, node: NodeId, object: ObjectId) -> Message {
    let home = config.gdo_home(object);
    Message::new(
        MessageKind::LockRequest,
        node,
        home,
        object,
        config.sizes.lock_request(),
    )
}

/// GDO home → site: a lock grant carrying the `holders` list and the
/// object's page map (Alg. 4.2).
pub(crate) fn lock_grant(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    object: ObjectId,
    holders: usize,
) -> Message {
    let bytes = config.sizes.lock_grant(holders, registry.num_pages(object));
    Message::new(
        MessageKind::LockGrant,
        config.gdo_home(object),
        node,
        object,
        bytes,
    )
}

/// Site → GDO home: a global lock release piggybacking `dirty` dirty-page
/// records. A root commit sends the object's dirty-page count (Alg. 4.4);
/// an abort sends none (Alg. 4.3).
pub(crate) fn lock_release(
    config: &SystemConfig,
    node: NodeId,
    object: ObjectId,
    dirty: usize,
) -> Message {
    let home = config.gdo_home(object);
    Message::new(
        MessageKind::LockRelease,
        node,
        home,
        object,
        config.sizes.lock_release(dirty),
    )
}

/// GDO home → each backup replica: the directory mutation `mutation`
/// caused, propagated write-behind at the mutating message's size. A grant
/// replicates its lock request; a release replicates itself. Nothing is
/// sent without replication.
pub(crate) fn gdo_replication(
    config: &SystemConfig,
    mutation: &Message,
) -> impl Iterator<Item = Message> {
    let (home, object, bytes) = (mutation.dst(), mutation.object(), mutation.bytes());
    debug_assert_eq!(home, config.gdo_home(object), "mutations reach the home");
    config
        .gdo_replicas(object)
        .into_iter()
        .map(move |replica| Message::new(MessageKind::GdoReplicate, home, replica, object, bytes))
}

/// The request/transfer pair one fetch costs: `node` asks `source` for
/// `pages` of `object`, and `source` ships them back. A gather at grant
/// time (Alg. 4.5) and a `demand` fetch after a misprediction differ only
/// in kind. Adaptive runs size the request as ranged entries over runs of
/// adjacent pages; the transfer keeps page framing at the configured
/// granularity either way.
pub(crate) fn fetch(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    source: NodeId,
    object: ObjectId,
    pages: &[PageIndex],
    demand: bool,
) -> [Message; 2] {
    let (request, transfer) = if demand {
        (
            MessageKind::DemandPageRequest,
            MessageKind::DemandPageTransfer,
        )
    } else {
        (MessageKind::PageRequest, MessageKind::PageTransfer)
    };
    let request_bytes = if config.adaptive.enabled {
        config
            .sizes
            .coalesced_page_request(pages.len(), adjacent_run_count(pages))
    } else {
        config.sizes.page_request(pages.len())
    };
    let transfer_bytes = transfer_message_bytes(config, registry, object, pages);
    [
        Message::new(request, node, source, object, request_bytes),
        Message::new(transfer, source, node, object, transfer_bytes),
    ]
}

/// Groups the demand set (stale `(page, source)` pairs) into fetches:
/// adaptive runs batch every page from one source into one fetch, sources
/// in first-seen order; static runs fetch each page on its own.
pub(crate) fn demand_batches(
    config: &SystemConfig,
    stale: &[(PageIndex, NodeId)],
) -> Vec<(NodeId, Vec<PageIndex>)> {
    let mut batches: Vec<(NodeId, Vec<PageIndex>)> = Vec::new();
    for &(page, source) in stale {
        match batches
            .iter_mut()
            .find(|(s, _)| config.adaptive.enabled && *s == source)
        {
            Some((_, pages)) => pages.push(page),
            None => batches.push((source, vec![page])),
        }
    }
    batches
}

/// RC's eager pushes at root commit: `node` sends its dirty `pages` of
/// `object` to each of the other caching `sites`, one unicast each — or a
/// single transmission on a multicast network, which reaches every site.
pub(crate) fn update_pushes<'s>(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    node: NodeId,
    object: ObjectId,
    pages: &[PageIndex],
    sites: &'s [NodeId],
) -> impl Iterator<Item = Message> + 's {
    let bytes = transfer_message_bytes(config, registry, object, pages);
    let sends = if config.multicast { 1 } else { sites.len() };
    sites.iter().take(sends).map(move |&site| {
        debug_assert_ne!(site, node, "a committer does not push to itself");
        Message::new(MessageKind::UpdatePush, node, site, object, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::demo_workload;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn pages(idx: &[u16]) -> Vec<PageIndex> {
        idx.iter().map(|&i| PageIndex::new(i)).collect()
    }

    #[test]
    fn local_messages_are_free_and_unrecorded() {
        let config = SystemConfig::default();
        let object = ObjectId::new(0);
        let home = config.gdo_home(object);
        let mut ledger = TrafficLedger::new();
        assert!(!record(&mut ledger, &lock_request(&config, home, object)));
        assert_eq!(ledger.total().messages, 0);
        let remote = NodeId::new((home.index() + 1) % config.num_nodes);
        assert!(record(&mut ledger, &lock_request(&config, remote, object)));
        assert_eq!(ledger.total().messages, 1);
    }

    #[test]
    fn adaptive_fetches_range_their_requests_and_batch_by_source() {
        let config = SystemConfig::default();
        let (registry, _) = demo_workload(&config, 1);
        let object = ObjectId::new(0);
        let run = pages(&[0, 1, 2]);
        let [request, transfer] = fetch(&config, &registry, n(0), n(1), object, &run, true);
        assert_eq!(request.kind(), MessageKind::DemandPageRequest);
        assert_eq!(request.bytes(), config.sizes.page_request(3));
        assert_eq!((transfer.src(), transfer.dst()), (n(1), n(0)));
        let stale = [
            (PageIndex::new(0), n(1)),
            (PageIndex::new(1), n(2)),
            (PageIndex::new(2), n(1)),
        ];
        assert_eq!(demand_batches(&config, &stale).len(), 3);

        let config = SystemConfig {
            adaptive: crate::AdaptiveConfig {
                enabled: true,
                window: 4,
            },
            ..config
        };
        let [request, _] = fetch(&config, &registry, n(0), n(1), object, &run, false);
        assert_eq!(request.kind(), MessageKind::PageRequest);
        assert_eq!(request.bytes(), config.sizes.ranged_page_request(1));
        let batches = demand_batches(&config, &stale);
        assert_eq!(
            batches,
            vec![(n(1), pages(&[0, 2])), (n(2), pages(&[1]))],
            "one batch per source, in first-seen order"
        );
    }
}

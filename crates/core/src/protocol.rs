//! The consistency-protocol suite: COTEC, OTEC, LOTEC and the RC
//! extension.
//!
//! All four share nested O2PL locking; they differ only in the *transfer
//! policy* — which pages move at lock acquisition — and, for RC, in eager
//! pushes at root commit. The acquisition decisions — which pages to ask
//! for (`prefetch_set`), which to gather and from where
//! ([`plan_transfer`]), and which touched pages still need a demand fetch
//! afterwards (`demand_set`) — are pure functions over a
//! [`PlacementView`], so the discrete-event engine (live `PageStore`s +
//! GDO page maps) and the figure-replay path (abstract
//! [`PlacementModel`](crate::placement::PlacementModel)) share one
//! implementation and can never drift apart.

use std::fmt;

use lotec_mem::{ObjectId, PageIndex, Version};
use lotec_object::PageSet;
use lotec_sim::{NodeId, SimRng};

use crate::config::SystemConfig;

/// Which consistency protocol is in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Conservative OTEC: the whole object moves on every acquisition —
    /// the paper's baseline.
    Cotec,
    /// Object Transactional Entry Consistency: only updated pages move.
    Otec,
    /// Lazy OTEC: only updated pages the acquiring method is predicted to
    /// need move — the paper's contribution.
    Lotec,
    /// Release consistency for nested objects: updates are pushed eagerly
    /// to every caching site at root commit (the comparison the paper
    /// lists as "now underway").
    ReleaseConsistency,
}

impl ProtocolKind {
    /// The three protocols the paper's figures compare, in the figures'
    /// legend order.
    pub const PAPER_TRIO: [ProtocolKind; 3] =
        [ProtocolKind::Cotec, ProtocolKind::Otec, ProtocolKind::Lotec];

    /// All four protocols, including the RC extension.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Cotec,
        ProtocolKind::Otec,
        ProtocolKind::Lotec,
        ProtocolKind::ReleaseConsistency,
    ];

    /// True for the protocol that pushes updates eagerly at commit.
    pub fn pushes_on_commit(self) -> bool {
        self == ProtocolKind::ReleaseConsistency
    }

    /// True for the protocol that consults method access predictions.
    pub fn uses_prediction(self) -> bool {
        self == ProtocolKind::Lotec
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::Cotec => "COTEC",
            ProtocolKind::Otec => "OTEC",
            ProtocolKind::Lotec => "LOTEC",
            ProtocolKind::ReleaseConsistency => "RC",
        };
        f.write_str(s)
    }
}

/// What a transfer policy needs to know about page placement.
///
/// * `local_version` — the version of `page` cached at `node`, or `None`
///   if the node has no copy (a missing copy of a never-written page is
///   materialized locally by demand-zeroing and costs nothing).
/// * `global_version` — the newest committed version.
/// * `page_owner` — the node holding the newest version of `page` (the GDO
///   page map's entry: the last updater, or the object's home if never
///   written).
/// * `last_holder` — the site of the family that last held the object's
///   lock. Under COTEC and OTEC that site always holds a complete,
///   current copy, so it is the single transfer source; only LOTEC must
///   gather scattered pages via `page_owner`.
pub trait PlacementView {
    /// Version of `page` cached at `node`, if any.
    fn local_version(&self, node: NodeId, object: ObjectId, page: PageIndex) -> Option<Version>;
    /// Newest committed version of `page`.
    fn global_version(&self, object: ObjectId, page: PageIndex) -> Version;
    /// Node holding the newest version of `page`.
    fn page_owner(&self, object: ObjectId, page: PageIndex) -> NodeId;
    /// Site of the family that last held (and released) the object's lock.
    fn last_holder(&self, object: ObjectId) -> NodeId;
    /// Number of pages `object` spans.
    fn num_pages(&self, object: ObjectId) -> u16;
}

/// A planned gather: for each source node, the pages to pull from it
/// (Algorithm 4.5, `TransferOfUpdatedPages`). Replanning into the same
/// value allocates nothing once its two flat vectors have grown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferPlan {
    /// Every page, grouped by source in ascending node order, each
    /// source's pages in planning order.
    pages: Vec<PageIndex>,
    /// Per source: its node and the end of its run in `pages`.
    sources: Vec<(NodeId, usize)>,
}

impl TransferPlan {
    /// No pages to move.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Number of distinct source nodes (each costs one request/transfer
    /// message pair — this is where LOTEC's "more, smaller messages"
    /// behaviour comes from).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Total pages moved.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterator over `(source node, pages)` in node order.
    pub fn sources(&self) -> impl Iterator<Item = (NodeId, &[PageIndex])> {
        let mut start = 0;
        self.sources.iter().map(move |&(node, end)| {
            let run = &self.pages[start..end];
            start = end;
            (node, run)
        })
    }

    fn add(&mut self, source: NodeId, page: PageIndex) {
        let i = self.sources.partition_point(|&(n, _)| n < source);
        if self.sources.get(i).is_none_or(|&(n, _)| n != source) {
            let start = i.checked_sub(1).map_or(0, |prev| self.sources[prev].1);
            self.sources.insert(i, (source, start));
        }
        self.pages.insert(self.sources[i].1, page);
        for (_, end) in &mut self.sources[i..] {
            *end += 1;
        }
    }
}

/// The pages `node` must fetch to satisfy an acquisition of `object` under
/// `kind`, given the acquiring method's conservative `predicted` page set
/// (LOTEC only consults it; pass the full page set for other protocols).
///
/// Rules:
/// * **COTEC** — every page of the object, from the last holder
///   (demand-zero exception: a page never written anywhere needs no wire
///   transfer when the acquirer can zero-fill it, but COTEC does not track
///   versions, so it can only skip transfers when it *is* the last
///   holder).
/// * **OTEC** — pages whose global version is newer than the local copy
///   (a missing local copy of a version-0 page is demand-zeroed), from the
///   last holder.
/// * **LOTEC** — the OTEC set intersected with `predicted`, gathered
///   per-page from each page's owner.
/// * **RC** — like OTEC, but because commits push eagerly, an RC node that
///   caches the object is already current; only never-seen pages move.
///   (Operationally identical staleness test; the difference is in the
///   placement state RC maintains.)
///
/// The plan replaces what `plan` held.
pub fn plan_transfer(
    kind: ProtocolKind,
    view: &dyn PlacementView,
    node: NodeId,
    object: ObjectId,
    predicted: &PageSet,
    plan: &mut TransferPlan,
) {
    plan.pages.clear();
    plan.sources.clear();
    let num_pages = view.num_pages(object);
    match kind {
        ProtocolKind::Cotec => {
            let source = view.last_holder(object);
            if source == node {
                return;
            }
            for i in 0..num_pages {
                plan.add(source, PageIndex::new(i));
            }
        }
        ProtocolKind::Otec | ProtocolKind::ReleaseConsistency => {
            let source = view.last_holder(object);
            for i in 0..num_pages {
                let page = PageIndex::new(i);
                if is_stale(view, node, object, page) {
                    let src = if source == node {
                        view.page_owner(object, page)
                    } else {
                        source
                    };
                    if src != node {
                        plan.add(src, page);
                    }
                }
            }
        }
        ProtocolKind::Lotec => {
            for page in predicted.iter() {
                if page.get() >= num_pages {
                    continue;
                }
                if is_stale(view, node, object, page) {
                    let src = view.page_owner(object, page);
                    if src != node {
                        plan.add(src, page);
                    }
                }
            }
        }
    }
}

/// The pages an acquisition under `kind` asks [`plan_transfer`] for: LOTEC
/// the acquiring method's `predicted` set, each page dropped with
/// `config.prediction_miss_rate` (the prediction-miss ablation, drawn from
/// `rng`); every other protocol all `num_pages` pages of the object.
pub(crate) fn prefetch_set(
    config: &SystemConfig,
    kind: ProtocolKind,
    num_pages: u16,
    predicted: &PageSet,
    rng: &mut SimRng,
) -> PageSet {
    let rate = config.prediction_miss_rate;
    if !kind.uses_prediction() {
        (0..num_pages).map(PageIndex::new).collect()
    } else if rate > 0.0 {
        predicted.iter().filter(|_| !rng.chance(rate)).collect()
    } else {
        predicted.clone()
    }
}

/// The demand set: the touched pages (`reads` ∪ `writes`) still stale at
/// `node` once the gather has landed, each with the owner it is fetched
/// from. Only a predicting protocol can leave a touched page stale, unless
/// fault injection is on: a crash can cold-start any node's cache and
/// break the "last holder still caches the object" shortcut the other
/// protocols plan around, so there the repair covers every protocol.
pub(crate) fn demand_set(
    config: &SystemConfig,
    kind: ProtocolKind,
    view: &dyn PlacementView,
    node: NodeId,
    object: ObjectId,
    reads: &PageSet,
    writes: &PageSet,
) -> Vec<(PageIndex, NodeId)> {
    if !kind.uses_prediction() && !config.faults.plan.enabled() {
        return Vec::new();
    }
    let stale = reads
        .union(writes)
        .iter()
        .filter(|&page| is_stale(view, node, object, page))
        .map(|page| (page, view.page_owner(object, page)))
        .collect::<Vec<_>>();
    debug_assert!(
        stale.iter().all(|&(_, source)| source != node),
        "owner cannot be stale at itself"
    );
    stale
}

/// Staleness test shared by OTEC/LOTEC/RC: the acquirer needs the page iff
/// the newest committed version is newer than its local copy; a missing
/// local copy counts as version 0 (demand-zeroable).
fn is_stale(view: &dyn PlacementView, node: NodeId, object: ObjectId, page: PageIndex) -> bool {
    let global = view.global_version(object, page);
    let local = view
        .local_version(node, object, page)
        .unwrap_or(Version::INITIAL);
    global.is_newer_than(local)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// A hand-rolled placement for policy tests.
    struct FakeView {
        num_pages: u16,
        global: Vec<Version>,
        owners: Vec<NodeId>,
        last_holder: NodeId,
        // (node, page) -> version
        local: BTreeMap<(NodeId, u16), Version>,
    }

    impl PlacementView for FakeView {
        fn local_version(&self, node: NodeId, _o: ObjectId, page: PageIndex) -> Option<Version> {
            self.local.get(&(node, page.get())).copied()
        }
        fn global_version(&self, _o: ObjectId, page: PageIndex) -> Version {
            self.global[page.get() as usize]
        }
        fn page_owner(&self, _o: ObjectId, page: PageIndex) -> NodeId {
            self.owners[page.get() as usize]
        }
        fn last_holder(&self, _o: ObjectId) -> NodeId {
            self.last_holder
        }
        fn num_pages(&self, _o: ObjectId) -> u16 {
            self.num_pages
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn obj() -> ObjectId {
        ObjectId::new(0)
    }

    /// Plans into a fresh buffer.
    fn plan_transfer(
        kind: ProtocolKind,
        view: &dyn PlacementView,
        node: NodeId,
        object: ObjectId,
        predicted: &PageSet,
    ) -> TransferPlan {
        let mut plan = TransferPlan::default();
        super::plan_transfer(kind, view, node, object, predicted, &mut plan);
        plan
    }

    /// Pages added in any order group by ascending source, keep their
    /// order within a source, and a replan replaces the old plan.
    #[test]
    fn plan_groups_by_ascending_source_in_insertion_order() {
        let mut plan = TransferPlan::default();
        for (source, page) in [(3, 5), (1, 2), (3, 0), (2, 7), (1, 1), (0, 4)] {
            plan.add(n(source), PageIndex::new(page));
        }
        let grouped: Vec<(u32, Vec<u16>)> = plan
            .sources()
            .map(|(s, pages)| (s.index(), pages.iter().map(|p| p.get()).collect()))
            .collect();
        assert_eq!(
            grouped,
            [(0, vec![4]), (1, vec![2, 1]), (2, vec![7]), (3, vec![5, 0])]
        );
        assert_eq!((plan.num_sources(), plan.num_pages()), (4, 6));
        let v = scattered();
        super::plan_transfer(
            ProtocolKind::Cotec,
            &v,
            n(2),
            obj(),
            &all_pages(4),
            &mut plan,
        );
        assert!(plan.is_empty(), "the last holder replans to nothing");
    }

    fn all_pages(n: u16) -> PageSet {
        (0..n).map(PageIndex::new).collect()
    }

    /// 4-page object: p0 current at acquirer, p1 updated by node 2,
    /// p2 updated by node 3, p3 never written. Last holder: node 2.
    fn scattered() -> FakeView {
        let mut local = BTreeMap::new();
        local.insert((n(0), 0u16), Version::new(1)); // current
        local.insert((n(0), 1u16), Version::new(1)); // stale (global 2)
        FakeView {
            num_pages: 4,
            global: vec![
                Version::new(1),
                Version::new(2),
                Version::new(1),
                Version::INITIAL,
            ],
            owners: vec![n(1), n(2), n(3), n(1)],
            last_holder: n(2),
            local,
        }
    }

    #[test]
    fn cotec_moves_everything_from_last_holder() {
        let v = scattered();
        let plan = plan_transfer(ProtocolKind::Cotec, &v, n(0), obj(), &all_pages(4));
        assert_eq!(plan.num_pages(), 4);
        assert_eq!(plan.num_sources(), 1);
        let (src, pages) = plan.sources().next().unwrap();
        assert_eq!(src, n(2));
        assert_eq!(pages.len(), 4);
    }

    #[test]
    fn cotec_free_when_acquirer_is_last_holder() {
        let mut v = scattered();
        v.last_holder = n(0);
        let plan = plan_transfer(ProtocolKind::Cotec, &v, n(0), obj(), &all_pages(4));
        assert!(plan.is_empty());
    }

    #[test]
    fn otec_moves_only_stale_pages() {
        let v = scattered();
        let plan = plan_transfer(ProtocolKind::Otec, &v, n(0), obj(), &all_pages(4));
        // p0 current, p3 demand-zeroed; p1 stale, p2 never seen (global 1 > 0).
        assert_eq!(plan.num_pages(), 2);
        assert_eq!(plan.num_sources(), 1, "single source: last holder");
    }

    #[test]
    fn lotec_intersects_with_prediction_and_scatters_sources() {
        let v = scattered();
        // Method predicted to touch p1 and p2 only.
        let predicted: PageSet = [PageIndex::new(1), PageIndex::new(2)].into_iter().collect();
        let plan = plan_transfer(ProtocolKind::Lotec, &v, n(0), obj(), &predicted);
        assert_eq!(plan.num_pages(), 2);
        assert_eq!(plan.num_sources(), 2, "p1 from N2, p2 from N3");
        let sources: Vec<NodeId> = plan.sources().map(|(s, _)| s).collect();
        assert_eq!(sources, vec![n(2), n(3)]);
    }

    #[test]
    fn lotec_skips_unpredicted_stale_pages() {
        let v = scattered();
        let predicted: PageSet = [PageIndex::new(0)].into_iter().collect(); // current page only
        let plan = plan_transfer(ProtocolKind::Lotec, &v, n(0), obj(), &predicted);
        assert!(plan.is_empty());
    }

    #[test]
    fn lotec_never_exceeds_otec_per_event_on_shared_state() {
        let v = scattered();
        for pred_bits in 0u32..16 {
            let predicted: PageSet = (0..4)
                .filter(|i| pred_bits & (1 << i) != 0)
                .map(PageIndex::new)
                .collect();
            let lotec = plan_transfer(ProtocolKind::Lotec, &v, n(0), obj(), &predicted);
            let otec = plan_transfer(ProtocolKind::Otec, &v, n(0), obj(), &all_pages(4));
            let cotec = plan_transfer(ProtocolKind::Cotec, &v, n(0), obj(), &all_pages(4));
            assert!(lotec.num_pages() <= otec.num_pages());
            assert!(otec.num_pages() <= cotec.num_pages());
        }
    }

    #[test]
    fn never_written_pages_are_demand_zeroed_not_transferred() {
        let v = FakeView {
            num_pages: 3,
            global: vec![Version::INITIAL; 3],
            owners: vec![n(1); 3],
            last_holder: n(1),
            local: BTreeMap::new(),
        };
        for kind in [
            ProtocolKind::Otec,
            ProtocolKind::Lotec,
            ProtocolKind::ReleaseConsistency,
        ] {
            let plan = plan_transfer(kind, &v, n(0), obj(), &all_pages(3));
            assert!(plan.is_empty(), "{kind}: fresh object needs no transfers");
        }
        // COTEC has no version knowledge: it ships the zero pages anyway.
        let plan = plan_transfer(ProtocolKind::Cotec, &v, n(0), obj(), &all_pages(3));
        assert_eq!(plan.num_pages(), 3);
    }

    #[test]
    fn out_of_range_predicted_pages_ignored() {
        let v = scattered();
        let predicted: PageSet = [PageIndex::new(9)].into_iter().collect();
        let plan = plan_transfer(ProtocolKind::Lotec, &v, n(0), obj(), &predicted);
        assert!(plan.is_empty());
    }

    #[test]
    fn kind_helpers() {
        assert!(ProtocolKind::ReleaseConsistency.pushes_on_commit());
        assert!(!ProtocolKind::Lotec.pushes_on_commit());
        assert!(ProtocolKind::Lotec.uses_prediction());
        assert!(!ProtocolKind::Otec.uses_prediction());
        assert_eq!(ProtocolKind::Lotec.to_string(), "LOTEC");
        assert_eq!(ProtocolKind::PAPER_TRIO.len(), 3);
        assert_eq!(ProtocolKind::ALL.len(), 4);
    }

    #[test]
    fn otec_falls_back_to_page_owner_when_acquirer_was_last_holder() {
        // Acquirer was the last holder but another family's commit has
        // since... cannot happen under O2PL while holding; this models the
        // acquirer re-acquiring later after others held. last_holder==node
        // but a page is stale: fetch from its owner.
        let mut v = scattered();
        v.last_holder = n(0);
        let plan = plan_transfer(ProtocolKind::Otec, &v, n(0), obj(), &all_pages(4));
        // p1 stale (owner N2), p2 never-seen global v1 (owner N3).
        assert_eq!(plan.num_pages(), 2);
        assert_eq!(plan.num_sources(), 2);
    }
}

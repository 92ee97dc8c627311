//! Randomized-property tests of the transfer policies over random
//! placement state: the per-event plan inclusions that make the figure
//! orderings inevitable, checked directly at the policy level. Inputs are
//! drawn from a seeded [`SimRng`] stream, so every run checks the same
//! deterministic sample.

use std::collections::BTreeMap;

use lotec::core::protocol::{PlacementView, ProtocolKind, TransferPlan};
use lotec::mem::{ObjectId, PageIndex, Version};
use lotec::object::PageSet;
use lotec::sim::{NodeId, SimRng};

const CASES: u64 = 128;

fn cases(stream: u64) -> impl Iterator<Item = SimRng> {
    let root = SimRng::seed_from_u64(0x9807_0C01 ^ stream);
    (0..CASES).map(move |i| root.fork(i))
}

/// An arbitrary placement state for one object.
#[derive(Debug, Clone)]
struct RandomView {
    num_pages: u16,
    global: Vec<u64>,
    owners: Vec<u32>,
    last_holder: u32,
    local: BTreeMap<u16, u64>, // acquirer's cached versions
}

impl PlacementView for RandomView {
    fn local_version(&self, node: NodeId, _o: ObjectId, page: PageIndex) -> Option<Version> {
        // Node 0 is always the acquirer in these tests.
        (node == NodeId::new(0))
            .then(|| self.local.get(&page.get()).map(|&v| Version::new(v)))
            .flatten()
    }
    fn global_version(&self, _o: ObjectId, page: PageIndex) -> Version {
        Version::new(self.global[page.get() as usize])
    }
    fn page_owner(&self, _o: ObjectId, page: PageIndex) -> NodeId {
        NodeId::new(self.owners[page.get() as usize])
    }
    fn last_holder(&self, _o: ObjectId) -> NodeId {
        NodeId::new(self.last_holder)
    }
    fn num_pages(&self, _o: ObjectId) -> u16 {
        self.num_pages
    }
}

fn random_view(rng: &mut SimRng) -> (RandomView, PageSet) {
    let num_pages = rng.range_inclusive(1, 20) as u16;
    let n = num_pages as usize;
    let global: Vec<u64> = (0..n).map(|_| rng.next_below(4)).collect();
    let owners: Vec<u32> = (0..n).map(|_| rng.range_inclusive(1, 4) as u32).collect();
    let last_holder = rng.range_inclusive(1, 4) as u32;
    // Owner consistency: owners hold the newest version, so the acquirer's
    // local version never exceeds global.
    let local: BTreeMap<u16, u64> = (0..n)
        .filter_map(|i| {
            if rng.chance(0.5) {
                Some((i as u16, rng.next_below(4).min(global[i])))
            } else {
                None
            }
        })
        .collect();
    let pred: PageSet = (0..n)
        .filter_map(|i| rng.chance(0.5).then_some(PageIndex::new(i as u16)))
        .collect();
    (
        RandomView {
            num_pages,
            global,
            owners,
            last_holder,
            local,
        },
        pred,
    )
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
    lotec::core::protocol::plan_transfer(kind, view, node, object, predicted, &mut plan);
    plan
}

fn pages_of(plan: &TransferPlan) -> Vec<u16> {
    let mut v: Vec<u16> = plan
        .sources()
        .flat_map(|(_, pages)| pages.iter().map(|p| p.get()))
        .collect();
    v.sort_unstable();
    v
}

/// Per-event plan inclusion: LOTEC ⊆ OTEC ⊆ COTEC on identical state.
#[test]
fn plan_inclusion_chain() {
    for mut rng in cases(1) {
        let (view, predicted) = random_view(&mut rng);
        let node = NodeId::new(0);
        let obj = ObjectId::new(0);
        let all: PageSet = (0..view.num_pages).map(PageIndex::new).collect();
        let lotec = pages_of(&plan_transfer(
            ProtocolKind::Lotec,
            &view,
            node,
            obj,
            &predicted,
        ));
        let otec = pages_of(&plan_transfer(ProtocolKind::Otec, &view, node, obj, &all));
        let cotec = pages_of(&plan_transfer(ProtocolKind::Cotec, &view, node, obj, &all));
        assert!(
            lotec.iter().all(|p| otec.contains(p)),
            "LOTEC ⊆ OTEC: {lotec:?} vs {otec:?}"
        );
        assert!(
            otec.iter().all(|p| cotec.contains(p)),
            "OTEC ⊆ COTEC: {otec:?} vs {cotec:?}"
        );
    }
}

/// OTEC fetches exactly the stale pages (global version newer than the
/// acquirer's copy, missing copies counting as version 0).
#[test]
fn otec_fetches_exactly_stale_pages() {
    for mut rng in cases(2) {
        let (view, _p) = random_view(&mut rng);
        let all: PageSet = (0..view.num_pages).map(PageIndex::new).collect();
        let otec = pages_of(&plan_transfer(
            ProtocolKind::Otec,
            &view,
            NodeId::new(0),
            ObjectId::new(0),
            &all,
        ));
        let expected: Vec<u16> = (0..view.num_pages)
            .filter(|&i| {
                let local = view.local.get(&i).copied().unwrap_or(0);
                view.global[i as usize] > local
            })
            .collect();
        assert_eq!(otec, expected);
    }
}

/// LOTEC never plans a page outside its prediction, and within the
/// prediction it matches OTEC's staleness decision exactly.
#[test]
fn lotec_is_otec_restricted_to_prediction() {
    for mut rng in cases(3) {
        let (view, predicted) = random_view(&mut rng);
        let node = NodeId::new(0);
        let obj = ObjectId::new(0);
        let all: PageSet = (0..view.num_pages).map(PageIndex::new).collect();
        let lotec = pages_of(&plan_transfer(
            ProtocolKind::Lotec,
            &view,
            node,
            obj,
            &predicted,
        ));
        let otec = pages_of(&plan_transfer(ProtocolKind::Otec, &view, node, obj, &all));
        let expected: Vec<u16> = otec
            .into_iter()
            .filter(|&p| predicted.contains(PageIndex::new(p)))
            .collect();
        assert_eq!(lotec, expected);
    }
}

/// COTEC ships the whole object unless the acquirer is the last holder;
/// it never gathers from more than one source.
#[test]
fn cotec_is_whole_object_single_source() {
    for mut rng in cases(4) {
        let (view, _p) = random_view(&mut rng);
        let all: PageSet = (0..view.num_pages).map(PageIndex::new).collect();
        let plan = plan_transfer(
            ProtocolKind::Cotec,
            &view,
            NodeId::new(0),
            ObjectId::new(0),
            &all,
        );
        assert_eq!(plan.num_pages(), view.num_pages as usize);
        assert_eq!(plan.num_sources(), 1);
        let (src, _) = plan.sources().next().expect("one source");
        assert_eq!(src, NodeId::new(view.last_holder));
    }
}

/// LOTEC gathers each page from its owner — sources are exactly the
/// owners of the planned pages.
#[test]
fn lotec_sources_are_page_owners() {
    for mut rng in cases(5) {
        let (view, predicted) = random_view(&mut rng);
        let plan = plan_transfer(
            ProtocolKind::Lotec,
            &view,
            NodeId::new(0),
            ObjectId::new(0),
            &predicted,
        );
        for (source, pages) in plan.sources() {
            for page in pages {
                assert_eq!(
                    NodeId::new(view.owners[page.get() as usize]),
                    source,
                    "page {} must come from its owner",
                    page
                );
            }
        }
    }
}

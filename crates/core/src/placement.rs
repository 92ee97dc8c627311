//! Per-protocol page-placement state for trace replay.
//!
//! A [`PlacementModel`] tracks, for one protocol, where every page of every
//! object lives and at which version — the same information the live
//! engine keeps in `PageStore`s and GDO page maps, but as a lightweight
//! state machine advanced by trace events. Each protocol evolves its own
//! placement because partial transfers (LOTEC) leave different nodes with
//! different staleness than full transfers (COTEC/OTEC) or eager pushes
//! (RC).
//!
//! Placement is created on first touch. An object no grant has reached is
//! still whole, at version 0, at its home node, so the model answers for
//! it from the registry and builds its state only when the first grant
//! (or demand fetch) changes something. A schedule that touches a few
//! thousand of a registry's objects pays for those few thousand.

use lotec_mem::{ObjectId, PageIndex, Version};
use lotec_object::{ObjectRegistry, PageSet};
use lotec_sim::NodeId;

use crate::protocol::{plan_transfer, PlacementView, ProtocolKind, TransferPlan};

/// A touched object's placement.
#[derive(Debug, Clone)]
struct ObjectPlacement {
    last_holder: NodeId,
    /// Per page: the newest committed version and the node holding it.
    global: Vec<(Version, NodeId)>,
    /// The caching sites in node order, each with its per-page cached
    /// versions (`None` = no copy).
    local: Vec<(NodeId, Vec<Option<Version>>)>,
}

impl ObjectPlacement {
    /// The state an untouched object implies: whole at `home`, version 0.
    fn initial(home: NodeId, num_pages: u16) -> Self {
        let np = usize::from(num_pages);
        ObjectPlacement {
            last_holder: home,
            global: vec![(Version::INITIAL, home); np],
            local: vec![(home, vec![Some(Version::INITIAL); np])],
        }
    }

    fn row(&self, node: NodeId) -> Option<&[Option<Version>]> {
        self.local
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.local[i].1.as_slice())
    }
}

/// `node`'s cached versions in `local`, adding an empty row (no copies) in
/// node order if `node` caches nothing yet.
fn row_mut(
    local: &mut Vec<(NodeId, Vec<Option<Version>>)>,
    node: NodeId,
    num_pages: usize,
) -> &mut [Option<Version>] {
    let i = match local.binary_search_by_key(&node, |&(n, _)| n) {
        Ok(i) => i,
        Err(i) => {
            local.insert(i, (node, vec![None; num_pages]));
            i
        }
    };
    &mut local[i].1
}

/// One protocol's evolving view of page placement.
#[derive(Debug, Clone)]
pub struct PlacementModel<'r> {
    kind: ProtocolKind,
    registry: &'r ObjectRegistry,
    /// The governing protocol of each class.
    class_kind: Vec<ProtocolKind>,
    /// Per object: 0 while untouched, else 1 + its index in `placed`.
    /// Zero-initialised, so an untouched stretch costs no written memory.
    slot: Vec<u32>,
    placed: Vec<ObjectPlacement>,
}

impl<'r> PlacementModel<'r> {
    /// Initial placement: every object whole, at version 0, at its home
    /// node; every object governed by `kind`.
    pub fn new(kind: ProtocolKind, registry: &'r ObjectRegistry) -> Self {
        Self::with_assignment(kind, registry, |_| kind)
    }

    /// Initial placement with a per-object protocol assignment (the
    /// per-class consistency extension): `protocol_of` maps each object's
    /// class to its governing protocol. `default` is reported by
    /// [`PlacementModel::kind`].
    pub fn with_assignment(
        default: ProtocolKind,
        registry: &'r ObjectRegistry,
        protocol_of: impl Fn(lotec_object::ClassId) -> ProtocolKind,
    ) -> Self {
        let class_kind = (0..registry.num_classes())
            .map(|c| protocol_of(lotec_object::ClassId::new(c as u32)))
            .collect();
        PlacementModel {
            kind: default,
            registry,
            class_kind,
            slot: vec![0; registry.num_objects()],
            placed: Vec::new(),
        }
    }

    /// The default protocol this model evolves under (individual objects
    /// may override it via [`PlacementModel::with_assignment`]).
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The protocol governing `object` under this model's assignment.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn kind_of(&self, object: ObjectId) -> ProtocolKind {
        self.class_kind[self.registry.object(object).class.index() as usize]
    }

    /// The placement of `object`, or `None` while nothing has touched it.
    fn placed(&self, object: ObjectId) -> Option<&ObjectPlacement> {
        match self.slot[object.index() as usize] {
            0 => None,
            s => Some(&self.placed[s as usize - 1]),
        }
    }

    /// The placement of `object`, created from its initial state on first
    /// touch.
    fn placed_mut(&mut self, object: ObjectId) -> &mut ObjectPlacement {
        let slot = &mut self.slot[object.index() as usize];
        if *slot == 0 {
            let home = self.registry.object(object).home;
            self.placed.push(ObjectPlacement::initial(
                home,
                self.registry.num_pages(object),
            ));
            *slot = self.placed.len() as u32;
        }
        &mut self.placed[*slot as usize - 1]
    }

    /// Advances the model over a lock grant: plans the transfer the
    /// protocol performs for this acquisition (given the acquiring
    /// method's `prefetch` page set — the conservative prediction for
    /// LOTEC, the full page set otherwise) and applies its effects.
    ///
    /// Returns the plan so the caller can charge messages and bytes.
    pub fn on_grant(&mut self, node: NodeId, object: ObjectId, prefetch: &PageSet) -> TransferPlan {
        let kind = self.kind_of(object);
        let mut plan = TransferPlan::default();
        plan_transfer(kind, &*self, node, object, prefetch, &mut plan);
        let o = self.placed_mut(object);
        let row = row_mut(&mut o.local, node, o.global.len());
        match kind {
            // Under COTEC/OTEC the acquirer fetches every stale page and
            // demand-zeroes any never-written one, making it a complete
            // current copy.
            ProtocolKind::Cotec | ProtocolKind::Otec | ProtocolKind::ReleaseConsistency => {
                for (cached, &(global, _)) in row.iter_mut().zip(&o.global) {
                    *cached = Some(global);
                }
            }
            ProtocolKind::Lotec => {
                // Only fetched pages (plus demand-zeroed v0 pages within the
                // prefetch set) become current.
                for page in plan.sources().flat_map(|(_, pages)| pages) {
                    let idx = page.get() as usize;
                    row[idx] = Some(o.global[idx].0);
                }
                for page in prefetch.iter() {
                    let idx = page.get() as usize;
                    if idx < row.len() && row[idx].is_none() && o.global[idx].0 == Version::INITIAL
                    {
                        row[idx] = Some(Version::INITIAL);
                    }
                }
            }
        }
        o.last_holder = node;
        plan
    }

    /// Applies a demand fetch (the misprediction path): `node` now caches
    /// the newest version of every page in `stale`, the demand set of
    /// `object` as `protocol::demand_set` computes it over this model.
    pub fn demand_fetch(&mut self, node: NodeId, object: ObjectId, stale: &[(PageIndex, NodeId)]) {
        // An untouched object is never stale: leave it untouched.
        if stale.is_empty() {
            return;
        }
        let o = self.placed_mut(object);
        let row = row_mut(&mut o.local, node, o.global.len());
        for &(page, _) in stale {
            let idx = page.get() as usize;
            row[idx] = Some(o.global[idx].0);
        }
    }

    /// Advances the model over a root commit: `node` committed updates to
    /// `dirty` pages of `object`. Bumps global versions and ownership;
    /// under RC also pushes the dirty pages to every other caching site,
    /// returning those sites (empty under every other protocol).
    pub fn on_commit(
        &mut self,
        node: NodeId,
        object: ObjectId,
        dirty: &[PageIndex],
    ) -> Vec<NodeId> {
        let pushes = self.kind_of(object).pushes_on_commit();
        let o = self.placed_mut(object);
        debug_assert!(o.row(node).is_some(), "committer must cache the object");
        if !dirty.is_empty() {
            let row = row_mut(&mut o.local, node, o.global.len());
            for &page in dirty {
                let idx = page.get() as usize;
                let (version, owner) = &mut o.global[idx];
                *version = version.next();
                *owner = node;
                row[idx] = Some(*version);
            }
        }
        // `last_holder` is NOT updated here: it tracks the last *grantee*.
        // A write committer is necessarily the last grantee already (the
        // write lock excluded everyone since its grant), and a read-only
        // commit changes nothing — while under read sharing several
        // families commit in arbitrary order and updating here would
        // diverge from the grant-ordered view the engine maintains.

        let mut sites = Vec::new();
        if pushes && !dirty.is_empty() {
            for (site, row) in o.local.iter_mut().filter(|(site, _)| *site != node) {
                for &page in dirty {
                    let idx = page.get() as usize;
                    row[idx] = Some(o.global[idx].0);
                }
                sites.push(*site);
            }
        }
        sites
    }

    /// Checks internal coherence: owners hold what the map claims; local
    /// versions never exceed the global version. Used by tests. Untouched
    /// objects are coherent by construction.
    pub fn check_coherence(&self) -> Result<(), String> {
        for i in 0..self.slot.len() as u32 {
            let Some(o) = self.placed(ObjectId::new(i)) else {
                continue;
            };
            for (idx, &(global, owner)) in o.global.iter().enumerate() {
                let at_owner = o
                    .row(owner)
                    .and_then(|r| r[idx])
                    .unwrap_or(Version::INITIAL);
                if at_owner != global {
                    return Err(format!(
                        "O{i}/p{idx}: owner {owner} has {at_owner}, global is {global}"
                    ));
                }
                for (node, versions) in &o.local {
                    if let Some(v) = versions[idx] {
                        if v.is_newer_than(global) {
                            return Err(format!(
                                "O{i}/p{idx}: {node} caches {v} newer than global {global}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl PlacementView for PlacementModel<'_> {
    fn local_version(&self, node: NodeId, object: ObjectId, page: PageIndex) -> Option<Version> {
        match self.placed(object) {
            Some(o) => o.row(node).and_then(|r| r[page.get() as usize]),
            None => (node == self.registry.object(object).home).then_some(Version::INITIAL),
        }
    }

    fn global_version(&self, object: ObjectId, page: PageIndex) -> Version {
        self.placed(object)
            .map_or(Version::INITIAL, |o| o.global[page.get() as usize].0)
    }

    fn page_owner(&self, object: ObjectId, page: PageIndex) -> NodeId {
        match self.placed(object) {
            Some(o) => o.global[page.get() as usize].1,
            None => self.registry.object(object).home,
        }
    }

    fn last_holder(&self, object: ObjectId) -> NodeId {
        match self.placed(object) {
            Some(o) => o.last_holder,
            None => self.registry.object(object).home,
        }
    }

    fn num_pages(&self, object: ObjectId) -> u16 {
        match self.placed(object) {
            Some(o) => o.global.len() as u16,
            None => self.registry.num_pages(object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::demand_set;
    use lotec_object::{ClassBuilder, ClassId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn registry() -> ObjectRegistry {
        // One class spanning 4 pages of 100 bytes.
        let class = ClassBuilder::new("Blob")
            .attribute("a", 100)
            .attribute("b", 100)
            .attribute("c", 100)
            .attribute("d", 100)
            .method("m", |m| m.path(|p| p.reads(&["a"]).writes(&["a"])))
            .build();
        ObjectRegistry::build(&[class], &[(ClassId::new(0), n(0))], 100).unwrap()
    }

    fn obj() -> ObjectId {
        ObjectId::new(0)
    }

    fn pages(idx: &[u16]) -> Vec<PageIndex> {
        idx.iter().map(|&i| PageIndex::new(i)).collect()
    }

    fn all() -> PageSet {
        (0..4).map(PageIndex::new).collect()
    }

    #[test]
    fn fresh_object_needs_no_transfer_under_otec() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::Otec, &reg);
        let plan = m.on_grant(n(1), obj(), &all());
        assert!(plan.is_empty(), "all pages are version 0");
        m.check_coherence().unwrap();
    }

    #[test]
    fn commit_then_foreign_grant_moves_dirty_pages() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::Otec, &reg);
        m.on_grant(n(1), obj(), &all());
        let pushed = m.on_commit(n(1), obj(), &pages(&[0, 2]));
        assert!(pushed.is_empty(), "OTEC never pushes");
        let plan = m.on_grant(n(2), obj(), &all());
        assert_eq!(plan.num_pages(), 2, "only the two updated pages move");
        assert_eq!(plan.sources().next().unwrap().0, n(1));
        m.check_coherence().unwrap();
    }

    #[test]
    fn cotec_moves_whole_object_every_time() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::Cotec, &reg);
        let plan = m.on_grant(n(1), obj(), &all());
        assert_eq!(plan.num_pages(), 4, "COTEC ships v0 pages too");
        m.on_commit(n(1), obj(), &pages(&[0]));
        let plan = m.on_grant(n(2), obj(), &all());
        assert_eq!(plan.num_pages(), 4);
        // Re-acquisition by the same node is free (it is the last holder).
        m.on_commit(n(2), obj(), &pages(&[0]));
        let plan = m.on_grant(n(2), obj(), &all());
        assert!(plan.is_empty());
        m.check_coherence().unwrap();
    }

    #[test]
    fn lotec_fetches_predicted_intersection_and_scatters() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::Lotec, &reg);
        // N1 updates p0+p1; N2 updates p2.
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[0, 1]));
        let pred: PageSet = [PageIndex::new(2), PageIndex::new(3)].into_iter().collect();
        m.on_grant(n(2), obj(), &pred);
        m.on_commit(n(2), obj(), &pages(&[2]));
        // N3 predicted to need p0 and p2: must gather from two sources.
        let pred: PageSet = [PageIndex::new(0), PageIndex::new(2)].into_iter().collect();
        let plan = m.on_grant(n(3), obj(), &pred);
        assert_eq!(plan.num_pages(), 2);
        assert_eq!(plan.num_sources(), 2, "scattered up-to-date pages");
        m.check_coherence().unwrap();
    }

    #[test]
    fn lotec_unfetched_pages_stay_stale_and_cost_later() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::Lotec, &reg);
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[0, 1, 2, 3]));
        // N2 predicted only p0.
        let pred0: PageSet = [PageIndex::new(0)].into_iter().collect();
        let plan = m.on_grant(n(2), obj(), &pred0);
        assert_eq!(plan.num_pages(), 1);
        m.on_commit(n(2), obj(), &pages(&[0]));
        // N2 re-acquires, now needing p1: it is still stale locally.
        let pred1: PageSet = [PageIndex::new(1)].into_iter().collect();
        let plan = m.on_grant(n(2), obj(), &pred1);
        assert_eq!(plan.num_pages(), 1);
        assert_eq!(plan.sources().next().unwrap().0, n(1));
        m.check_coherence().unwrap();
    }

    #[test]
    fn rc_pushes_to_all_caching_sites() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::ReleaseConsistency, &reg);
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[0]));
        m.on_grant(n(2), obj(), &all());
        let pushed = m.on_commit(n(2), obj(), &pages(&[1]));
        // Caching sites: home N0, N1, N2 -> pushes to N0 and N1.
        assert_eq!(pushed, vec![n(0), n(1)]);
        // After the push, N1 acquiring again needs nothing.
        let plan = m.on_grant(n(1), obj(), &all());
        assert!(plan.is_empty(), "RC keeps caching sites current");
        m.check_coherence().unwrap();
    }

    #[test]
    fn demand_fetch_updates_local_copy() {
        let reg = registry();
        let mut m = PlacementModel::new(ProtocolKind::Lotec, &reg);
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[3]));
        // N2 acquires predicting nothing, then touches p2 and p3: only p3
        // was ever written, so only p3 is demand-fetched (p2 is
        // demand-zeroed).
        m.on_grant(n(2), obj(), &PageSet::new());
        let config = crate::SystemConfig::default();
        let reads: PageSet = [PageIndex::new(2), PageIndex::new(3)].into_iter().collect();
        let writes = PageSet::new();
        let demand =
            |m: &PlacementModel| demand_set(&config, m.kind(), m, n(2), obj(), &reads, &writes);
        let stale = demand(&m);
        assert_eq!(stale, vec![(PageIndex::new(3), n(1))]);
        m.demand_fetch(n(2), obj(), &stale);
        // Second touch: now current, no fetch.
        assert!(demand(&m).is_empty());
        m.check_coherence().unwrap();
    }

    #[test]
    fn byte_ordering_over_a_shared_random_schedule() {
        // Drive all three paper protocols over one identical schedule and
        // check LOTEC <= OTEC <= COTEC on cumulative pages moved.
        let reg = registry();
        let mut rng = lotec_sim::SimRng::seed_from_u64(99);
        let mut models: Vec<PlacementModel> = ProtocolKind::PAPER_TRIO
            .iter()
            .map(|&k| PlacementModel::new(k, &reg))
            .collect();
        let mut moved = [0usize; 3];
        for _ in 0..200 {
            let node = n(rng.next_below(4) as u32);
            let pred: PageSet = (0..4)
                .filter(|_| rng.chance(0.5))
                .map(PageIndex::new)
                .collect();
            let writes: Vec<PageIndex> = pred.iter().filter(|_| rng.chance(0.6)).collect();
            for (i, m) in models.iter_mut().enumerate() {
                let full: PageSet = (0..4).map(PageIndex::new).collect();
                let prefetch = if m.kind() == ProtocolKind::Lotec {
                    &pred
                } else {
                    &full
                };
                let plan = m.on_grant(node, obj(), prefetch);
                moved[i] += plan.num_pages();
                m.on_commit(node, obj(), &writes);
                m.check_coherence().unwrap();
            }
        }
        let [cotec, otec, lotec] = moved;
        assert!(lotec <= otec, "LOTEC {lotec} > OTEC {otec}");
        assert!(otec <= cotec, "OTEC {otec} > COTEC {cotec}");
        assert!(lotec > 0);
    }
}

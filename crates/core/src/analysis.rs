//! Post-run trace analysis: contention profiles and object heat.
//!
//! The paper selects figure objects "to reflect a variety of reference
//! patterns that arose in the randomized nested transactions" (§5). This
//! module recovers those reference patterns from a [`ScheduleTrace`]:
//! which objects are hot, how reads and writes mix per object, and how
//! long each family's lock tenure lasts — the inputs an operator would use
//! to choose per-class protocols or aggregation boundaries.

use std::collections::BTreeMap;

use lotec_mem::{ObjectId, PageIndex};
use lotec_sim::{SimDuration, SimTime};
use lotec_txn::LockMode;

use crate::trace::{ScheduleTrace, TraceEvent};

/// Per-object reference profile recovered from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectProfile {
    /// Lock grants in write mode.
    pub write_grants: u64,
    /// Lock grants in read mode.
    pub read_grants: u64,
    /// Grants served locally (retained by an ancestor).
    pub local_grants: u64,
    /// Number of distinct families that acquired the object.
    pub distinct_families: u64,
    /// Number of distinct nodes the object was acquired from.
    pub distinct_nodes: u64,
}

impl ObjectProfile {
    /// Total grants.
    pub fn grants(&self) -> u64 {
        self.write_grants + self.read_grants
    }

    /// Fraction of grants that were writes (`None` when never granted).
    pub fn write_fraction(&self) -> Option<f64> {
        let total = self.grants();
        (total > 0).then(|| self.write_grants as f64 / total as f64)
    }
}

/// Whole-trace contention analysis.
///
/// ```
/// use lotec_core::analysis::TraceAnalysis;
/// use lotec_core::spec::demo_workload;
/// use lotec_core::{Engine, SystemConfig};
///
/// let config = SystemConfig::default();
/// let (registry, families) = demo_workload(&config, 7);
/// let report = Engine::new(&config, &registry, &families)?.run()?;
/// let analysis = TraceAnalysis::of(&report.trace);
/// let (hottest, grants) = analysis.hottest()[0];
/// assert!(grants >= 1);
/// assert!(analysis.object(hottest).distinct_families >= 1);
/// # Ok::<(), lotec_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    objects: BTreeMap<ObjectId, ObjectProfile>,
    /// Family root id -> (first grant, commit time) for committed families.
    family_span: BTreeMap<u64, (SimTime, SimTime)>,
    commits: u64,
    aborts: u64,
}

impl TraceAnalysis {
    /// Analyzes a trace.
    pub fn of(trace: &ScheduleTrace) -> Self {
        let mut objects: BTreeMap<ObjectId, ObjectProfile> = BTreeMap::new();
        let mut fams: BTreeMap<ObjectId, std::collections::BTreeSet<u64>> = BTreeMap::new();
        let mut nodes: BTreeMap<ObjectId, std::collections::BTreeSet<u32>> = BTreeMap::new();
        let mut first_grant: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut family_span = BTreeMap::new();
        let mut commits = 0;
        let mut aborts = 0;
        for event in trace.events() {
            match event {
                TraceEvent::Grant {
                    at,
                    family,
                    node,
                    object,
                    mode,
                    global,
                    ..
                } => {
                    let p = objects.entry(*object).or_default();
                    match mode {
                        LockMode::Write => p.write_grants += 1,
                        LockMode::Read => p.read_grants += 1,
                    }
                    if !global {
                        p.local_grants += 1;
                    }
                    fams.entry(*object).or_default().insert(*family);
                    nodes.entry(*object).or_default().insert(node.index());
                    first_grant.entry(*family).or_insert(*at);
                }
                TraceEvent::RootCommit { at, family, .. } => {
                    commits += 1;
                    if let Some(&start) = first_grant.get(family) {
                        family_span.insert(*family, (start, *at));
                    }
                }
                TraceEvent::FamilyAbort { .. } => aborts += 1,
                TraceEvent::SubAbortRelease { .. } => {}
            }
        }
        for (object, profile) in objects.iter_mut() {
            profile.distinct_families = fams.get(object).map_or(0, |s| s.len() as u64);
            profile.distinct_nodes = nodes.get(object).map_or(0, |s| s.len() as u64);
        }
        TraceAnalysis {
            objects,
            family_span,
            commits,
            aborts,
        }
    }

    /// Profile of one object (default/empty if never referenced).
    pub fn object(&self, object: ObjectId) -> ObjectProfile {
        self.objects.get(&object).cloned().unwrap_or_default()
    }

    /// Objects sorted by total grants, hottest first.
    pub fn hottest(&self) -> Vec<(ObjectId, u64)> {
        let mut v: Vec<(ObjectId, u64)> =
            self.objects.iter().map(|(&o, p)| (o, p.grants())).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Committed root commits observed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Family-level aborts observed.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Mean lock-tenure span (first grant → commit) over committed
    /// families.
    pub fn mean_family_span(&self) -> Option<SimDuration> {
        if self.family_span.is_empty() {
            return None;
        }
        let total: SimDuration = self
            .family_span
            .values()
            .map(|&(start, end)| end.duration_since(start))
            .sum();
        Some(total / self.family_span.len() as u64)
    }
}

/// Number of maximal runs of adjacent page indices in a sorted page list.
/// A coalesced page request encodes one ranged entry per run, so this is
/// the quantity that decides whether the ranged encoding beats the plain
/// one (see `MessageSizes::coalesced_page_request`). The crate's charging
/// module sizes every adaptive page request through this helper, for the
/// engine and replay alike.
pub fn adjacent_run_count(pages: &[PageIndex]) -> usize {
    debug_assert!(pages.windows(2).all(|w| w[0].get() < w[1].get()));
    pages
        .iter()
        .enumerate()
        .filter(|&(i, p)| i == 0 || pages[i - 1].get() + 1 != p.get())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::demo_workload;
    use crate::{Engine, SystemConfig};

    fn analyzed() -> TraceAnalysis {
        let config = SystemConfig::default();
        let (registry, families) = demo_workload(&config, 55);
        let report = Engine::new(&config, &registry, &families)
            .and_then(Engine::run)
            .unwrap();
        TraceAnalysis::of(&report.trace)
    }

    #[test]
    fn commits_match_workload() {
        let a = analyzed();
        assert_eq!(a.commits(), 8);
        assert_eq!(a.aborts(), 0);
    }

    #[test]
    fn hottest_is_sorted_and_consistent() {
        let a = analyzed();
        let hot = a.hottest();
        assert!(!hot.is_empty());
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let (top, grants) = hot[0];
        assert_eq!(a.object(top).grants(), grants);
        assert!(grants > 0);
    }

    #[test]
    fn profiles_track_modes_and_spread() {
        let a = analyzed();
        let total: u64 = a.hottest().iter().map(|(_, g)| g).sum();
        assert!(total >= 8, "at least one grant per family");
        for (object, _) in a.hottest() {
            let p = a.object(object);
            assert!(p.distinct_families >= 1);
            assert!(p.distinct_nodes >= 1);
            if let Some(wf) = p.write_fraction() {
                assert!((0.0..=1.0).contains(&wf));
            }
        }
    }

    #[test]
    fn family_span_is_positive() {
        let a = analyzed();
        let span = a.mean_family_span().expect("families committed");
        assert!(span > SimDuration::ZERO);
    }

    #[test]
    fn adjacent_run_count_splits_on_gaps() {
        let pages = |ids: &[u16]| ids.iter().map(|&i| PageIndex::new(i)).collect::<Vec<_>>();
        assert_eq!(adjacent_run_count(&[]), 0);
        assert_eq!(adjacent_run_count(&pages(&[3])), 1);
        assert_eq!(adjacent_run_count(&pages(&[0, 1, 2, 3])), 1);
        assert_eq!(adjacent_run_count(&pages(&[0, 2, 4])), 3);
        assert_eq!(adjacent_run_count(&pages(&[0, 1, 3, 4, 7])), 3);
    }

    #[test]
    fn unreferenced_object_has_empty_profile() {
        let a = analyzed();
        let p = a.object(ObjectId::new(999));
        assert_eq!(p.grants(), 0);
        assert_eq!(p.write_fraction(), None);
    }
}

//! The serializability oracle.
//!
//! Strict nested O2PL holds every lock until root commit, so any correct
//! distributed execution must be equivalent to the *serial* execution of
//! the committed families in root-commit order (§4.3's correctness
//! argument: a distributed execution is correct iff every transaction
//! always accesses the most up-to-date version of each object as defined
//! by O2PL).
//!
//! The oracle exploits the content chains the engine maintains: every
//! write folds a unique stamp into the target page's 64-bit chain, so two
//! executions applied the same writes in the same order iff their chains
//! are equal. [`verify`] re-executes the committed families' operations
//! serially against a model heap and checks
//!
//! 1. every *read* the engine observed saw exactly the model's value at
//!    that serial point (no stale or torn reads — the consistency protocol
//!    delivered the right bytes), and
//! 2. the final model heap equals the newest page copies in the live run
//!    (no lost updates).

use lotec_mem::{mix, ObjectId, PageIndex};

use crate::engine::{FamilyOp, RunReport};
use crate::error::CoreError;

/// Dense numbering of the model heap's pages: object `o`'s page `p` sits
/// at `bases[o] + p`, so slot order is (object, page) order.
struct PageAtlas {
    /// `bases[o]` = slot of page 0 of object `o`; one trailing entry holds
    /// the total page count.
    bases: Vec<usize>,
}

impl PageAtlas {
    /// Numbers objects `O0..On` where object `i` spans
    /// `pages_per_object[i]` pages.
    fn new(pages_per_object: &[u16]) -> Self {
        let mut bases = Vec::with_capacity(pages_per_object.len() + 1);
        let mut total = 0usize;
        for &n in pages_per_object {
            bases.push(total);
            total += usize::from(n);
        }
        bases.push(total);
        PageAtlas { bases }
    }

    /// Total number of pages across all objects.
    fn total_pages(&self) -> usize {
        self.bases[self.bases.len() - 1]
    }

    /// The slot of `object`'s page `page`.
    fn slot(&self, object: ObjectId, page: PageIndex) -> usize {
        let o = object.index() as usize;
        let slot = self.bases[o] + usize::from(page.get());
        debug_assert!(
            slot < self.bases[o + 1],
            "{object}/{page} outside the layout"
        );
        slot
    }
}

/// Verifies that `report`'s execution is equivalent to the serial
/// execution of its committed families in commit order.
///
/// # Errors
///
/// Returns [`CoreError::OracleViolation`] describing the first divergence.
pub fn verify(report: &RunReport) -> Result<(), CoreError> {
    // Two passes: first size a dense page numbering from the touched
    // pages, then replay against a flat model heap — the replay's inner
    // loop indexes an array instead of walking an ordered map.
    let mut pages_per_object: Vec<u16> = Vec::new();
    {
        let mut note = |object: ObjectId, page: PageIndex| {
            let o = object.index() as usize;
            if o >= pages_per_object.len() {
                pages_per_object.resize(o + 1, 0);
            }
            pages_per_object[o] = pages_per_object[o].max(page.get() + 1);
        };
        for fam in &report.committed {
            for op in &fam.ops {
                match *op {
                    FamilyOp::Read { object, page, .. } | FamilyOp::Write { object, page, .. } => {
                        note(object, page);
                    }
                }
            }
        }
        for (&(object, page), _) in &report.final_chains {
            note(object, page);
        }
    }
    let atlas = PageAtlas::new(&pages_per_object);
    let mut model = vec![0u64; atlas.total_pages()];

    for fam in &report.committed {
        for op in &fam.ops {
            match *op {
                FamilyOp::Read {
                    object,
                    page,
                    chain,
                } => {
                    let expected = model[atlas.slot(object, page)];
                    if chain != expected {
                        return Err(CoreError::OracleViolation(format!(
                            "family {} read {}/{} = {chain:#x}, serial order expects {expected:#x}",
                            fam.family, object, page
                        )));
                    }
                }
                FamilyOp::Write {
                    object,
                    page,
                    stamp,
                } => {
                    let entry = &mut model[atlas.slot(object, page)];
                    *entry = mix(*entry, stamp);
                }
            }
        }
    }

    // Every page the model numbers, in key order, against the report's
    // list: a listed page must end at the model's chain, and an unlisted
    // one reads as chain 0, so a write whose page the report lost is
    // caught too.
    let mut listed = report.final_chains.iter().peekable();
    for (o, &pages) in pages_per_object.iter().enumerate() {
        let object = ObjectId::new(o as u32);
        for page in (0..pages).map(PageIndex::new) {
            let final_chain = listed
                .next_if(|&(&key, _)| key == (object, page))
                .map_or(0, |(_, &chain)| chain);
            let expected = model[atlas.slot(object, page)];
            if final_chain != expected {
                return Err(CoreError::OracleViolation(format!(
                    "final state of {object}/{page} is {final_chain:#x}, serial replay gives {expected:#x}"
                )));
            }
        }
    }
    debug_assert!(
        listed.next().is_none(),
        "the model numbers every listed page"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CommittedFamily;
    use crate::metrics::{ProtocolTraffic, RunStats};
    use crate::protocol::ProtocolKind;
    use crate::trace::ScheduleTrace;
    use lotec_net::TrafficLedger;

    fn report(committed: Vec<CommittedFamily>, finals: Vec<((u32, u16), u64)>) -> RunReport {
        RunReport {
            protocol: ProtocolKind::Lotec,
            stats: RunStats::default(),
            trace: ScheduleTrace::new(),
            traffic: ProtocolTraffic::new(TrafficLedger::new()),
            committed,
            final_chains: finals
                .into_iter()
                .map(|((o, p), c)| ((ObjectId::new(o), PageIndex::new(p)), c))
                .collect(),
            forensics: Vec::new(),
        }
    }

    fn w(o: u32, p: u16, stamp: u64) -> FamilyOp {
        FamilyOp::Write {
            object: ObjectId::new(o),
            page: PageIndex::new(p),
            stamp,
        }
    }

    fn r(o: u32, p: u16, chain: u64) -> FamilyOp {
        FamilyOp::Read {
            object: ObjectId::new(o),
            page: PageIndex::new(p),
            chain,
        }
    }

    #[test]
    fn slots_are_dense_and_ordered() {
        let layout = [3, 1, 4, 0, 2];
        let atlas = PageAtlas::new(&layout);
        assert_eq!(atlas.total_pages(), 10);
        let mut expected = 0;
        for (o, &n) in layout.iter().enumerate() {
            for p in 0..n {
                let slot = atlas.slot(ObjectId::new(o as u32), PageIndex::new(p));
                assert_eq!(slot, expected, "O{o}/{p}");
                expected += 1;
            }
        }
    }

    #[test]
    fn empty_objects_are_allowed() {
        let atlas = PageAtlas::new(&[2, 0, 3]);
        assert_eq!(atlas.total_pages(), 5);
        assert_eq!(atlas.slot(ObjectId::new(2), PageIndex::new(0)), 2);
        assert_eq!(PageAtlas::new(&[]).total_pages(), 0);
    }

    #[test]
    fn empty_run_verifies() {
        verify(&report(vec![], vec![])).unwrap();
    }

    #[test]
    fn consistent_chain_verifies() {
        let c1 = mix(0, 7);
        let c2 = mix(c1, 9);
        let committed = vec![
            CommittedFamily {
                family: 1,
                index: 0,
                ops: vec![r(0, 0, 0), w(0, 0, 7)],
            },
            CommittedFamily {
                family: 2,
                index: 1,
                ops: vec![r(0, 0, c1), w(0, 0, 9)],
            },
        ];
        verify(&report(committed, vec![((0, 0), c2)])).unwrap();
    }

    #[test]
    fn stale_read_detected() {
        let committed = vec![
            CommittedFamily {
                family: 1,
                index: 0,
                ops: vec![w(0, 0, 7)],
            },
            // Family 2 read chain 0 — it missed family 1's committed write.
            CommittedFamily {
                family: 2,
                index: 1,
                ops: vec![r(0, 0, 0)],
            },
        ];
        let err = verify(&report(committed, vec![])).unwrap_err();
        assert!(err.to_string().contains("serial order expects"));
    }

    #[test]
    fn lost_update_detected() {
        let committed = vec![CommittedFamily {
            family: 1,
            index: 0,
            ops: vec![w(0, 0, 7)],
        }];
        // Final state still 0: the write vanished.
        let err = verify(&report(committed, vec![((0, 0), 0)])).unwrap_err();
        assert!(err.to_string().contains("final state"));
    }

    #[test]
    fn written_page_missing_from_the_report_is_a_lost_update() {
        let committed = vec![CommittedFamily {
            family: 1,
            index: 0,
            ops: vec![w(0, 0, 7), w(2, 1, 8)],
        }];
        // An unlisted page reads as chain 0, which the writes contradict.
        let err = verify(&report(committed.clone(), vec![((0, 0), mix(0, 7))])).unwrap_err();
        assert!(err.to_string().contains("final state of O2/p1"), "{err}");
        let finals = vec![((0, 0), mix(0, 7)), ((2, 0), 0), ((2, 1), mix(0, 8))];
        verify(&report(committed, finals)).expect("every written page listed");
    }

    #[test]
    fn read_own_write_within_family_verifies() {
        let c1 = mix(0, 5);
        let committed = vec![CommittedFamily {
            family: 1,
            index: 0,
            ops: vec![w(0, 0, 5), r(0, 0, c1)],
        }];
        verify(&report(committed, vec![((0, 0), c1)])).unwrap();
    }

    #[test]
    fn wrong_order_detected_via_chain() {
        // Chains are order-sensitive: applying stamps 5 then 9 differs from
        // 9 then 5, so a run that serialized the other way is caught.
        let c_right = mix(mix(0, 5), 9);
        let c_wrong = mix(mix(0, 9), 5);
        assert_ne!(c_right, c_wrong);
        let committed = vec![
            CommittedFamily {
                family: 1,
                index: 0,
                ops: vec![w(0, 0, 5)],
            },
            CommittedFamily {
                family: 2,
                index: 1,
                ops: vec![w(0, 0, 9)],
            },
        ];
        let err = verify(&report(committed, vec![((0, 0), c_wrong)])).unwrap_err();
        assert!(err.to_string().contains("final state"));
    }
}

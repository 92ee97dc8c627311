//! Span trees: the causal view of a recorded trace.
//!
//! Every [sub-]transaction invocation opens a span (`SpanOpen`) and closes
//! it with an outcome (`SpanClose`); parent links mirror the O2PL
//! transaction tree exactly, so replaying the two events reconstructs the
//! nesting structure of every family. Spans carry *typed annotations* —
//! lock waits with full waits-for provenance (who held, who retained, who
//! was queued ahead), gather batches and demand fetches with byte counts
//! and source sites, and retransmit stalls — attached to the span that was
//! executing when the underlying event fired.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lotec_sim::{SimDuration, SimTime};

use crate::event::{ObsEvent, ObsEventKind, SpanOutcome, WireEnum};

/// A typed annotation attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanAnnotation {
    /// The span's transaction queued for a lock and (possibly) waited.
    ///
    /// `until` is `None` while the wait is unresolved at trace end.
    LockWait {
        /// Object being locked.
        object: u32,
        /// When the request queued.
        since: SimTime,
        /// When the lock was granted, if it was.
        until: Option<SimTime>,
        /// Transactions holding the lock in a conflicting mode.
        holders: Vec<u64>,
        /// Foreign retainers blocking the request (Algorithm 4.1 rule 1).
        retainers: Vec<u64>,
        /// Family roots queued ahead (FIFO fairness).
        queued_behind: Vec<u64>,
    },
    /// One source site's batch of a planned gather (Algorithm 4.5).
    Gather {
        /// Object whose pages move.
        object: u32,
        /// Source site of the batch.
        source: u32,
        /// Pages in the batch.
        pages: u32,
        /// Transfer-message bytes.
        bytes: u64,
        /// Round-trip delay of the batch, in sim nanoseconds.
        delay_ns: u64,
        /// When the batch was issued.
        at: SimTime,
    },
    /// A mispredicted page forced a synchronous demand fetch.
    DemandFetch {
        /// Object of the missed page.
        object: u32,
        /// The missed page.
        page: u16,
        /// Site the page came from.
        source: u32,
        /// Transfer-message bytes.
        bytes: u64,
        /// When the miss occurred.
        at: SimTime,
    },
    /// A latency-critical message needed retransmissions.
    RetransmitWait {
        /// Destination site of the lossy message.
        dst: u32,
        /// Total transmission attempts.
        attempts: u32,
        /// Sender idle time waiting out RTOs, in sim nanoseconds.
        wait_ns: u64,
        /// When the stall was accounted.
        at: SimTime,
    },
}

impl SpanAnnotation {
    /// Short kind label used in rendered trees.
    pub fn label(&self) -> &'static str {
        match self {
            SpanAnnotation::LockWait { .. } => "lock-wait",
            SpanAnnotation::Gather { .. } => "gather",
            SpanAnnotation::DemandFetch { .. } => "demand-fetch",
            SpanAnnotation::RetransmitWait { .. } => "retransmit-wait",
        }
    }
}

/// One [sub-]transaction's span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The transaction this span belongs to.
    pub txn: u64,
    /// Family index (workload order).
    pub family: u64,
    /// Parent transaction; `None` for family roots.
    pub parent: Option<u64>,
    /// Receiver object of the invocation.
    pub object: u32,
    /// Executing node.
    pub node: u32,
    /// When the span opened.
    pub open: SimTime,
    /// When the span closed; `None` if still open at trace end.
    pub close: Option<SimTime>,
    /// How the span ended, when it did.
    pub outcome: Option<SpanOutcome>,
    /// Child spans, in open order.
    pub children: Vec<u64>,
    /// Typed annotations, in event order.
    pub annotations: Vec<SpanAnnotation>,
}

impl Span {
    /// Span duration; open spans are measured up to `end`.
    pub fn duration(&self, end: SimTime) -> SimDuration {
        self.close
            .unwrap_or(end)
            .saturating_duration_since(self.open)
    }
}

/// The span forest of a trace: one tree per (re)started family root.
///
/// Built by replaying `SpanOpen`/`SpanClose` events; annotation-bearing
/// events (`LockQueued`/`LockBlocked`/`LockGranted`, `GatherBatch`,
/// `DemandFetch`, family-attributed `Retransmit`) attach to the span that
/// was innermost-open for their transaction or family at that moment.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    spans: BTreeMap<u64, Span>,
    roots: Vec<u64>,
    end: SimTime,
}

impl SpanTree {
    /// Replays an event stream into a span forest.
    pub fn build(events: &[ObsEvent]) -> Self {
        let mut tree = SpanTree::default();
        // Innermost-open span per family (invocation stack).
        let mut stack: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // txn -> index of its unresolved LockWait annotation.
        let mut pending_lock: BTreeMap<u64, usize> = BTreeMap::new();
        for event in events {
            tree.end = tree.end.max(event.at);
            match &event.kind {
                ObsEventKind::SpanOpen {
                    family,
                    txn,
                    parent,
                    object,
                } => {
                    let span = Span {
                        txn: *txn,
                        family: *family,
                        parent: *parent,
                        object: *object,
                        node: event.node,
                        open: event.at,
                        close: None,
                        outcome: None,
                        children: Vec::new(),
                        annotations: Vec::new(),
                    };
                    match parent.and_then(|p| tree.spans.get_mut(&p)) {
                        Some(parent_span) => parent_span.children.push(*txn),
                        None => tree.roots.push(*txn),
                    }
                    tree.spans.insert(*txn, span);
                    stack.entry(*family).or_default().push(*txn);
                }
                ObsEventKind::SpanClose { txn, outcome, .. } => {
                    if let Some(span) = tree.spans.get_mut(txn) {
                        span.close = Some(event.at);
                        span.outcome = Some(*outcome);
                        if let Some(frames) = stack.get_mut(&span.family) {
                            frames.retain(|t| t != txn);
                        }
                    }
                    pending_lock.remove(txn);
                }
                ObsEventKind::LockQueued { object, txn, .. } => {
                    if let Some(span) = tree.spans.get_mut(txn) {
                        pending_lock.insert(*txn, span.annotations.len());
                        span.annotations.push(SpanAnnotation::LockWait {
                            object: *object,
                            since: event.at,
                            until: None,
                            holders: Vec::new(),
                            retainers: Vec::new(),
                            queued_behind: Vec::new(),
                        });
                    }
                }
                ObsEventKind::LockBlocked {
                    txn,
                    holders,
                    retainers,
                    queued_behind,
                    ..
                } => {
                    if let Some((span, &idx)) = tree.spans.get_mut(txn).zip(pending_lock.get(txn)) {
                        if let Some(SpanAnnotation::LockWait {
                            holders: h,
                            retainers: r,
                            queued_behind: q,
                            ..
                        }) = span.annotations.get_mut(idx)
                        {
                            h.clone_from(holders);
                            r.clone_from(retainers);
                            q.clone_from(queued_behind);
                        }
                    }
                }
                ObsEventKind::LockGranted { txn, .. } => {
                    if let Some((span, idx)) = tree.spans.get_mut(txn).zip(pending_lock.remove(txn))
                    {
                        if let Some(SpanAnnotation::LockWait { until, .. }) =
                            span.annotations.get_mut(idx)
                        {
                            *until = Some(event.at);
                        }
                    }
                }
                ObsEventKind::GatherBatch {
                    family,
                    object,
                    source,
                    pages,
                    bytes,
                    delay_ns,
                } => {
                    if let Some(span) = Self::innermost(&mut tree.spans, &stack, *family) {
                        span.annotations.push(SpanAnnotation::Gather {
                            object: *object,
                            source: *source,
                            pages: *pages,
                            bytes: *bytes,
                            delay_ns: *delay_ns,
                            at: event.at,
                        });
                    }
                }
                ObsEventKind::DemandFetch {
                    family,
                    object,
                    page,
                    source,
                    bytes,
                } => {
                    if let Some(span) = Self::innermost(&mut tree.spans, &stack, *family) {
                        span.annotations.push(SpanAnnotation::DemandFetch {
                            object: *object,
                            page: *page,
                            source: *source,
                            bytes: *bytes,
                            at: event.at,
                        });
                    }
                }
                ObsEventKind::Retransmit {
                    dst,
                    attempts,
                    wait_ns,
                    family: Some(family),
                    ..
                } => {
                    if let Some(span) = Self::innermost(&mut tree.spans, &stack, *family) {
                        span.annotations.push(SpanAnnotation::RetransmitWait {
                            dst: *dst,
                            attempts: *attempts,
                            wait_ns: *wait_ns,
                            at: event.at,
                        });
                    }
                }
                _ => {}
            }
        }
        tree
    }

    fn innermost<'t>(
        spans: &'t mut BTreeMap<u64, Span>,
        stack: &BTreeMap<u64, Vec<u64>>,
        family: u64,
    ) -> Option<&'t mut Span> {
        let txn = stack.get(&family)?.last()?;
        spans.get_mut(txn)
    }

    /// Root spans (no parent), in open order. A family that restarted has
    /// one root span per attempt.
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// Looks up a span by transaction id.
    pub fn get(&self, txn: u64) -> Option<&Span> {
        self.spans.get(&txn)
    }

    /// All spans, in transaction-id order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.values()
    }

    /// Number of spans in the forest.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the trace contained no span events.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Timestamp of the last event seen while building.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Root spans of one family, in open order (one per attempt).
    pub fn family_roots(&self, family: u64) -> impl Iterator<Item = &Span> {
        self.roots
            .iter()
            .filter_map(move |t| self.spans.get(t))
            .filter(move |s| s.family == family)
    }

    /// Nesting depth of a span (roots are depth 0).
    pub fn depth(&self, txn: u64) -> usize {
        let mut depth = 0;
        let mut cur = self.spans.get(&txn);
        while let Some(span) = cur {
            match span.parent {
                Some(p) => {
                    depth += 1;
                    cur = self.spans.get(&p);
                }
                None => break,
            }
        }
        depth
    }

    /// Renders the whole forest as an indented ASCII tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &root in &self.roots {
            self.render_span(&mut out, root, 0);
        }
        out
    }

    fn render_span(&self, out: &mut String, txn: u64, depth: usize) {
        let Some(span) = self.spans.get(&txn) else {
            return;
        };
        let outcome = span.outcome.map_or("open", SpanOutcome::name);
        let _ = write!(
            out,
            "{:indent$}T{} O{} [{}] {}ns",
            "",
            span.txn,
            span.object,
            outcome,
            span.duration(self.end).as_nanos(),
            indent = depth * 2,
        );
        if depth == 0 {
            let _ = write!(out, "  (family {}, node {})", span.family, span.node);
        }
        for ann in &span.annotations {
            let _ = match ann {
                SpanAnnotation::LockWait {
                    object,
                    since,
                    until,
                    holders,
                    retainers,
                    queued_behind,
                } => {
                    let waited = until
                        .map(|u| u.saturating_duration_since(*since).as_nanos())
                        .unwrap_or(0);
                    write!(
                        out,
                        "  lock-wait(O{object} {waited}ns h={} r={} q={})",
                        holders.len(),
                        retainers.len(),
                        queued_behind.len()
                    )
                }
                SpanAnnotation::Gather {
                    object,
                    source,
                    pages,
                    bytes,
                    ..
                } => write!(
                    out,
                    "  gather(O{object}\u{2190}n{source} {pages}p {bytes}B)"
                ),
                SpanAnnotation::DemandFetch {
                    object,
                    page,
                    source,
                    ..
                } => write!(out, "  demand(O{object}/p{page}\u{2190}n{source})"),
                SpanAnnotation::RetransmitWait {
                    attempts, wait_ns, ..
                } => write!(out, "  retransmit({attempts}x {wait_ns}ns)"),
            };
        }
        out.push('\n');
        for &child in &span.children {
            self.render_span(out, child, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsLockMode;

    fn ev(at: u64, node: u32, kind: ObsEventKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(at),
            node,
            kind,
        }
    }

    fn sample() -> Vec<ObsEvent> {
        vec![
            ev(
                10,
                1,
                ObsEventKind::SpanOpen {
                    family: 0,
                    txn: 1,
                    parent: None,
                    object: 3,
                },
            ),
            ev(
                20,
                1,
                ObsEventKind::SpanOpen {
                    family: 0,
                    txn: 2,
                    parent: Some(1),
                    object: 4,
                },
            ),
            ev(
                25,
                1,
                ObsEventKind::LockQueued {
                    object: 4,
                    txn: 2,
                    mode: ObsLockMode::Write,
                    waiters: 2,
                },
            ),
            ev(
                25,
                1,
                ObsEventKind::LockBlocked {
                    object: 4,
                    txn: 2,
                    holders: vec![9],
                    retainers: vec![7],
                    queued_behind: vec![],
                },
            ),
            ev(
                60,
                1,
                ObsEventKind::LockGranted {
                    object: 4,
                    txn: 2,
                    mode: ObsLockMode::Write,
                    global: true,
                    holders: 1,
                },
            ),
            ev(
                65,
                1,
                ObsEventKind::GatherBatch {
                    family: 0,
                    object: 4,
                    source: 2,
                    pages: 3,
                    bytes: 12_288,
                    delay_ns: 900,
                },
            ),
            ev(
                70,
                1,
                ObsEventKind::Retransmit {
                    dst: 2,
                    attempts: 2,
                    duplicates: 0,
                    wait_ns: 500,
                    family: Some(0),
                },
            ),
            ev(
                80,
                1,
                ObsEventKind::SpanClose {
                    family: 0,
                    txn: 2,
                    outcome: SpanOutcome::PreCommit,
                },
            ),
            ev(
                85,
                1,
                ObsEventKind::DemandFetch {
                    family: 0,
                    object: 3,
                    page: 1,
                    source: 0,
                    bytes: 4_160,
                },
            ),
            ev(
                100,
                1,
                ObsEventKind::SpanClose {
                    family: 0,
                    txn: 1,
                    outcome: SpanOutcome::Commit,
                },
            ),
        ]
    }

    #[test]
    fn tree_mirrors_nesting_and_outcomes() {
        let tree = SpanTree::build(&sample());
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.roots(), &[1]);
        let root = tree.get(1).unwrap();
        assert_eq!(root.children, vec![2]);
        assert_eq!(root.outcome, Some(SpanOutcome::Commit));
        assert_eq!(root.duration(tree.end()).as_nanos(), 90);
        let child = tree.get(2).unwrap();
        assert_eq!(child.parent, Some(1));
        assert_eq!(child.outcome, Some(SpanOutcome::PreCommit));
        assert_eq!(tree.depth(2), 1);
        assert_eq!(tree.family_roots(0).count(), 1);
    }

    #[test]
    fn annotations_attach_to_the_causing_span() {
        let tree = SpanTree::build(&sample());
        let child = tree.get(2).unwrap();
        // Lock wait with provenance, resolved at grant time.
        match &child.annotations[0] {
            SpanAnnotation::LockWait {
                object,
                since,
                until,
                holders,
                retainers,
                ..
            } => {
                assert_eq!(*object, 4);
                assert_eq!(since.as_nanos(), 25);
                assert_eq!(until.unwrap().as_nanos(), 60);
                assert_eq!(holders, &[9]);
                assert_eq!(retainers, &[7]);
            }
            other => panic!("expected lock wait, got {other:?}"),
        }
        // Gather and retransmit fired while T2 was innermost.
        assert_eq!(child.annotations[1].label(), "gather");
        assert_eq!(child.annotations[2].label(), "retransmit-wait");
        // The demand fetch after T2 closed lands on the root.
        let root = tree.get(1).unwrap();
        assert_eq!(root.annotations.len(), 1);
        assert_eq!(root.annotations[0].label(), "demand-fetch");
    }

    #[test]
    fn render_shows_structure() {
        let tree = SpanTree::build(&sample());
        let text = tree.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("T1 O3 [commit]"));
        assert!(lines[1].starts_with("  T2 O4 [pre_commit]"));
        assert!(lines[1].contains("lock-wait(O4 35ns"));
    }
}

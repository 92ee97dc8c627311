//! Per-root critical-path profiles.
//!
//! For every family that commits, the profiler walks its phase segments in
//! trace order and labels each with the *cause* that made it take as long
//! as it did: a lock-wait segment carries the blocking families (from the
//! `LockBlocked` waits-for provenance), a transfer-wait segment carries
//! the slowest gather batch of the grant (the batch that determined the
//! segment, Algorithm 4.5), a compute segment carries its demand fetches,
//! and retransmit stalls are carved out of their enclosing segment into
//! explicit edges. The resulting edge chain tiles the family's
//! arrival-to-commit window — restarted attempts and backoff included —
//! so summing edges reproduces the commit latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lotec_sim::{SimDuration, SimTime};

use crate::event::{ObsEvent, ObsEventKind, ObsPhase};
use crate::json::Json;
use crate::report::{PhaseTimes, RetransmitStalls};

/// Why a critical-path edge took the time it did.
#[derive(Debug, Clone, PartialEq)]
pub enum PathEdgeKind {
    /// Waiting for a lock grant.
    LockWait {
        /// Object being locked, when the segment saw a queue event.
        object: Option<u32>,
        /// Families whose locks blocked this one (deduplicated).
        blockers: Vec<u64>,
    },
    /// Waiting for planned page transfers; carries the slowest batch.
    PageGather {
        /// Object whose pages moved.
        object: u32,
        /// Source site of the slowest batch.
        source: u32,
        /// Pages in the slowest batch.
        pages: u32,
        /// Bytes of the slowest batch.
        bytes: u64,
        /// Total batches in the segment (fan-out).
        batches: u32,
    },
    /// Executing method bodies.
    Compute {
        /// Demand fetches that interrupted the segment.
        demand_fetches: u32,
        /// Bytes moved by those fetches.
        demand_bytes: u64,
    },
    /// Sender idle time waiting out retransmission timeouts.
    RetransmitWait {
        /// Accumulated RTO wait in the segment, in sim nanoseconds.
        wait_ns: u64,
    },
    /// Backing off before a restart.
    Backoff {
        /// Restart attempt the backoff preceded (1 = first retry).
        attempt: u32,
    },
}

impl PathEdgeKind {
    /// Stable kind name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            PathEdgeKind::LockWait { .. } => "lock-wait",
            PathEdgeKind::PageGather { .. } => "page-gather",
            PathEdgeKind::Compute { .. } => "compute",
            PathEdgeKind::RetransmitWait { .. } => "retransmit-wait",
            PathEdgeKind::Backoff { .. } => "backoff",
        }
    }
}

/// One edge of a critical path: a cause and the window it occupied.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEdge {
    /// What determined the edge's latency.
    pub kind: PathEdgeKind,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
}

impl PathEdge {
    /// Length of the edge's window.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The latency-determining chain of one committed family.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Family index (workload order).
    pub family: u64,
    /// Root transaction of the committing attempt.
    pub root_txn: u64,
    /// First phase entry (family arrival).
    pub start: SimTime,
    /// Commit time.
    pub end: SimTime,
    /// Edge chain, in time order; zero-length segments are elided.
    pub edges: Vec<PathEdge>,
    /// Per-phase self-time over the whole window (retransmit stalls are
    /// booked as backoff, matching the engine's accounting).
    pub self_time: PhaseTimes,
}

impl CriticalPath {
    /// Arrival-to-commit latency.
    pub fn latency(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }

    /// Renders the path as indented human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let st = &self.self_time;
        let _ = writeln!(
            out,
            "family {} (root T{}): {}ns = lock {} | xfer {} | run {} | backoff {}",
            self.family,
            self.root_txn,
            self.latency().as_nanos(),
            st.lock_wait.as_nanos(),
            st.transfer_wait.as_nanos(),
            st.running.as_nanos(),
            st.backoff.as_nanos(),
        );
        for edge in &self.edges {
            let _ = write!(
                out,
                "  {:<15} {:>9}ns",
                edge.kind.name(),
                edge.duration().as_nanos()
            );
            let _ = match &edge.kind {
                PathEdgeKind::LockWait { object, blockers } => {
                    if let Some(o) = object {
                        let _ = write!(out, "  O{o}");
                    }
                    if blockers.is_empty() {
                        Ok(())
                    } else {
                        let list: Vec<String> = blockers.iter().map(|f| format!("F{f}")).collect();
                        write!(out, "  blocked by {}", list.join(","))
                    }
                }
                PathEdgeKind::PageGather {
                    object,
                    source,
                    pages,
                    bytes,
                    batches,
                } => write!(
                    out,
                    "  O{object} \u{2190} node {source} ({pages}p, {bytes}B, {batches} batch(es))"
                ),
                PathEdgeKind::Compute {
                    demand_fetches,
                    demand_bytes,
                } => {
                    if *demand_fetches > 0 {
                        write!(out, "  {demand_fetches} demand fetch(es), {demand_bytes}B")
                    } else {
                        Ok(())
                    }
                }
                PathEdgeKind::RetransmitWait { wait_ns } => write!(out, "  {wait_ns}ns RTO"),
                PathEdgeKind::Backoff { attempt } => write!(out, "  before attempt {attempt}"),
            };
            out.push('\n');
        }
        out
    }

    /// Machine-readable form (used by `BENCH_obs.json`).
    pub fn to_json(&self) -> Json {
        let st = &self.self_time;
        let edges: Vec<Json> = self
            .edges
            .iter()
            .map(|edge| {
                let mut pairs = vec![
                    ("kind", Json::str(edge.kind.name())),
                    ("start_ns", Json::U64(edge.start.as_nanos())),
                    ("end_ns", Json::U64(edge.end.as_nanos())),
                ];
                match &edge.kind {
                    PathEdgeKind::LockWait { object, blockers } => {
                        if let Some(o) = object {
                            pairs.push(("object", Json::U64(*o as u64)));
                        }
                        pairs.push((
                            "blockers",
                            Json::Arr(blockers.iter().map(|&f| Json::U64(f)).collect()),
                        ));
                    }
                    PathEdgeKind::PageGather {
                        object,
                        source,
                        pages,
                        bytes,
                        batches,
                    } => {
                        pairs.push(("object", Json::U64(*object as u64)));
                        pairs.push(("source", Json::U64(*source as u64)));
                        pairs.push(("pages", Json::U64(*pages as u64)));
                        pairs.push(("bytes", Json::U64(*bytes)));
                        pairs.push(("batches", Json::U64(*batches as u64)));
                    }
                    PathEdgeKind::Compute {
                        demand_fetches,
                        demand_bytes,
                    } => {
                        pairs.push(("demand_fetches", Json::U64(*demand_fetches as u64)));
                        pairs.push(("demand_bytes", Json::U64(*demand_bytes)));
                    }
                    PathEdgeKind::RetransmitWait { wait_ns } => {
                        pairs.push(("wait_ns", Json::U64(*wait_ns)));
                    }
                    PathEdgeKind::Backoff { attempt } => {
                        pairs.push(("attempt", Json::U64(*attempt as u64)));
                    }
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj(vec![
            ("family", Json::U64(self.family)),
            ("root_txn", Json::U64(self.root_txn)),
            ("latency_ns", Json::U64(self.latency().as_nanos())),
            ("lock_wait_ns", Json::U64(st.lock_wait.as_nanos())),
            ("transfer_wait_ns", Json::U64(st.transfer_wait.as_nanos())),
            ("running_ns", Json::U64(st.running.as_nanos())),
            ("backoff_ns", Json::U64(st.backoff.as_nanos())),
            ("edges", Json::Arr(edges)),
        ])
    }
}

#[derive(Default)]
struct FamState {
    open: Option<(ObsPhase, SimTime)>,
    start: Option<SimTime>,
    edges: Vec<PathEdge>,
    self_time: PhaseTimes,
    root_txn: u64,
    attempt: u32,
    // Lock context, reset at every phase transition.
    seg_object: Option<u32>,
    seg_blockers: Vec<u64>,
    // Gather batches and demand fetches are emitted at the *boundary*
    // instant, before the `PhaseEnter` that opens the window they stall
    // (the engine emits them while processing the grant arrival, then
    // transitions). They accumulate here and are consumed by the close of
    // the next matching segment — transfer-wait for gathers, compute for
    // demand fetches (demand latency is served inside compute).
    pending_gathers: Vec<(u32, u32, u32, u64, u64)>,
    pending_demand: (u32, u64),
    stalls: RetransmitStalls,
}

impl FamState {
    fn close_segment(&mut self, now: SimTime) {
        let Some((phase, since)) = self.open.take() else {
            return;
        };
        // Stalls that elapsed inside this segment come off its tail as an
        // explicit edge.
        let stall = self.stalls.close(&mut self.self_time, phase, since, now);
        let body_end = now - stall;
        if body_end > since {
            let kind = match phase {
                ObsPhase::LockWait => PathEdgeKind::LockWait {
                    object: self.seg_object,
                    blockers: std::mem::take(&mut self.seg_blockers),
                },
                ObsPhase::TransferWait => {
                    let gathers = std::mem::take(&mut self.pending_gathers);
                    let slowest = gathers.iter().max_by_key(|g| g.4).copied().unwrap_or((
                        self.seg_object.unwrap_or(0),
                        0,
                        0,
                        0,
                        0,
                    ));
                    PathEdgeKind::PageGather {
                        object: slowest.0,
                        source: slowest.1,
                        pages: slowest.2,
                        bytes: slowest.3,
                        batches: gathers.len() as u32,
                    }
                }
                ObsPhase::Running => {
                    let (demand_fetches, demand_bytes) = std::mem::take(&mut self.pending_demand);
                    PathEdgeKind::Compute {
                        demand_fetches,
                        demand_bytes,
                    }
                }
                ObsPhase::Backoff | ObsPhase::Committed | ObsPhase::Failed => {
                    PathEdgeKind::Backoff {
                        attempt: self.attempt,
                    }
                }
            };
            self.edges.push(PathEdge {
                kind,
                start: since,
                end: body_end,
            });
        }
        if stall > SimDuration::ZERO {
            self.edges.push(PathEdge {
                kind: PathEdgeKind::RetransmitWait {
                    wait_ns: stall.as_nanos(),
                },
                start: body_end,
                end: now,
            });
        }
        self.seg_object = None;
        self.seg_blockers.clear();
    }
}

/// Computes the critical path of every family that committed, in family
/// order. Families that failed (or never terminated) produce no path.
pub fn critical_paths(events: &[ObsEvent]) -> Vec<CriticalPath> {
    let (_, _, mut paths) = fold_paths(events);
    paths.sort_by_key(|p| p.family);
    paths
}

/// Like [`critical_paths`], but additionally flushes families still
/// in flight when the stream ends: their open segment is closed at
/// `cutoff` and the partial arrival-to-cutoff edge chain is emitted.
/// The forensics triage uses this — its anomaly interrupts the victim
/// mid-flight, so the victim never reaches the committed-only walker.
pub fn partial_paths(events: &[ObsEvent], cutoff: SimTime) -> Vec<CriticalPath> {
    let (states, _, mut paths) = fold_paths(events);
    for (family, mut st) in states {
        if st.edges.is_empty() && st.open.is_none() {
            continue; // committed (already emitted), failed, or untracked
        }
        st.close_segment(cutoff);
        paths.push(CriticalPath {
            family,
            root_txn: st.root_txn,
            start: st.start.unwrap_or(cutoff),
            end: cutoff,
            edges: st.edges,
            self_time: st.self_time,
        });
    }
    paths.sort_by_key(|p| p.family);
    paths
}

/// The shared walker: folds the event stream into per-family segment
/// state, emitting a finished [`CriticalPath`] at each root commit.
#[allow(clippy::type_complexity)]
fn fold_paths(
    events: &[ObsEvent],
) -> (
    BTreeMap<u64, FamState>,
    BTreeMap<u64, u64>,
    Vec<CriticalPath>,
) {
    let mut states: BTreeMap<u64, FamState> = BTreeMap::new();
    let mut txn_family: BTreeMap<u64, u64> = BTreeMap::new();
    let mut paths: Vec<CriticalPath> = Vec::new();
    for event in events {
        match &event.kind {
            ObsEventKind::PhaseEnter { family, phase } => {
                let st = states.entry(*family).or_default();
                st.close_segment(event.at);
                if st.start.is_none() {
                    st.start = Some(event.at);
                }
                match phase {
                    ObsPhase::Committed => {
                        paths.push(CriticalPath {
                            family: *family,
                            root_txn: st.root_txn,
                            start: st.start.unwrap_or(event.at),
                            end: event.at,
                            edges: std::mem::take(&mut st.edges),
                            self_time: std::mem::take(&mut st.self_time),
                        });
                    }
                    ObsPhase::Failed => {
                        st.edges.clear();
                        st.self_time = PhaseTimes::default();
                    }
                    _ => {
                        st.open = Some((*phase, event.at));
                    }
                }
            }
            ObsEventKind::SpanOpen {
                family,
                txn,
                parent,
                ..
            } => {
                txn_family.insert(*txn, *family);
                if parent.is_none() {
                    states.entry(*family).or_default().root_txn = *txn;
                }
            }
            ObsEventKind::LockQueued { object, txn, .. } => {
                if let Some(family) = txn_family.get(txn) {
                    states.entry(*family).or_default().seg_object = Some(*object);
                }
            }
            ObsEventKind::LockBlocked {
                object,
                txn,
                holders,
                retainers,
                queued_behind,
                ..
            } => {
                if let Some(&family) = txn_family.get(txn) {
                    let mut blockers: Vec<u64> = holders
                        .iter()
                        .chain(retainers.iter())
                        .chain(queued_behind.iter())
                        .filter_map(|t| txn_family.get(t).copied())
                        .filter(|&f| f != family)
                        .collect();
                    blockers.sort_unstable();
                    blockers.dedup();
                    let st = states.entry(family).or_default();
                    st.seg_object = Some(*object);
                    st.seg_blockers = blockers;
                }
            }
            ObsEventKind::LockGranted { object, txn, .. } => {
                if let Some(&family) = txn_family.get(txn) {
                    let st = states.entry(family).or_default();
                    if st.seg_object.is_none() {
                        st.seg_object = Some(*object);
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
                states
                    .entry(*family)
                    .or_default()
                    .pending_gathers
                    .push((*object, *source, *pages, *bytes, *delay_ns));
            }
            ObsEventKind::DemandFetch { family, bytes, .. } => {
                let st = states.entry(*family).or_default();
                st.pending_demand.0 += 1;
                st.pending_demand.1 += bytes;
            }
            ObsEventKind::Retransmit {
                wait_ns,
                family: Some(family),
                ..
            } => {
                states
                    .entry(*family)
                    .or_default()
                    .stalls
                    .accrue(event.at, *wait_ns);
            }
            ObsEventKind::Restart {
                family, attempt, ..
            } => {
                // The engine drops the aborted attempt's accrued stalls and
                // un-served transfers on restart; pending context from the
                // dead attempt must not label the retry's segments.
                let st = states.entry(*family).or_default();
                st.attempt = *attempt;
                st.pending_gathers.clear();
                st.pending_demand = (0, 0);
                st.stalls.clear();
            }
            _ => {}
        }
    }
    (states, txn_family, paths)
}

/// JSON array of every committed family's critical path.
pub fn critical_paths_json(events: &[ObsEvent]) -> Json {
    Json::Arr(
        critical_paths(events)
            .iter()
            .map(CriticalPath::to_json)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsLockMode;

    fn ev(at: u64, kind: ObsEventKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(at),
            node: 0,
            kind,
        }
    }

    fn phase(at: u64, family: u64, phase: ObsPhase) -> ObsEvent {
        ev(at, ObsEventKind::PhaseEnter { family, phase })
    }

    #[test]
    fn path_edges_tile_the_latency_window() {
        let events = vec![
            ev(
                0,
                ObsEventKind::SpanOpen {
                    family: 1,
                    txn: 10,
                    parent: None,
                    object: 5,
                },
            ),
            ev(
                0,
                ObsEventKind::SpanOpen {
                    family: 2,
                    txn: 20,
                    parent: None,
                    object: 5,
                },
            ),
            phase(0, 1, ObsPhase::LockWait),
            ev(
                0,
                ObsEventKind::LockQueued {
                    object: 5,
                    txn: 10,
                    mode: ObsLockMode::Write,
                    waiters: 2,
                },
            ),
            ev(
                0,
                ObsEventKind::LockBlocked {
                    object: 5,
                    txn: 10,
                    holders: vec![20],
                    retainers: vec![],
                    queued_behind: vec![],
                },
            ),
            phase(100, 1, ObsPhase::TransferWait),
            ev(
                100,
                ObsEventKind::GatherBatch {
                    family: 1,
                    object: 5,
                    source: 2,
                    pages: 1,
                    bytes: 4_096,
                    delay_ns: 10,
                },
            ),
            ev(
                100,
                ObsEventKind::GatherBatch {
                    family: 1,
                    object: 5,
                    source: 3,
                    pages: 4,
                    bytes: 16_384,
                    delay_ns: 50,
                },
            ),
            phase(150, 1, ObsPhase::Running),
            ev(
                160,
                ObsEventKind::DemandFetch {
                    family: 1,
                    object: 5,
                    page: 7,
                    source: 3,
                    bytes: 4_160,
                },
            ),
            ev(
                170,
                ObsEventKind::Retransmit {
                    dst: 3,
                    attempts: 2,
                    duplicates: 0,
                    wait_ns: 30,
                    family: Some(1),
                },
            ),
            phase(250, 1, ObsPhase::Committed),
        ];
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let path = &paths[0];
        assert_eq!(path.family, 1);
        assert_eq!(path.root_txn, 10);
        assert_eq!(path.latency().as_nanos(), 250);
        let kinds: Vec<&str> = path.edges.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec!["lock-wait", "page-gather", "compute", "retransmit-wait"]
        );
        // Edges tile [0, 250) with no gaps.
        let mut cursor = 0;
        for edge in &path.edges {
            assert_eq!(edge.start.as_nanos(), cursor);
            cursor = edge.end.as_nanos();
        }
        assert_eq!(cursor, 250);
        let total: u64 = path.edges.iter().map(|e| e.duration().as_nanos()).sum();
        assert_eq!(total, path.latency().as_nanos());
        assert_eq!(path.self_time.total().as_nanos(), 250);
        // Lock-wait blockers resolved through the span map to family 2.
        match &path.edges[0].kind {
            PathEdgeKind::LockWait { object, blockers } => {
                assert_eq!(*object, Some(5));
                assert_eq!(blockers, &[2]);
            }
            other => panic!("expected lock wait, got {other:?}"),
        }
        // Page-gather carries the slowest batch.
        match &path.edges[1].kind {
            PathEdgeKind::PageGather {
                source,
                pages,
                bytes,
                batches,
                ..
            } => {
                assert_eq!(*source, 3);
                assert_eq!(*pages, 4);
                assert_eq!(*bytes, 16_384);
                assert_eq!(*batches, 2);
            }
            other => panic!("expected page gather, got {other:?}"),
        }
        // Retransmit stall carved out of the compute tail.
        match &path.edges[3].kind {
            PathEdgeKind::RetransmitWait { wait_ns } => assert_eq!(*wait_ns, 30),
            other => panic!("expected retransmit wait, got {other:?}"),
        }
        // Stall is booked as backoff in self-time, like the engine does.
        assert_eq!(path.self_time.backoff.as_nanos(), 30);
        assert_eq!(path.self_time.running.as_nanos(), 70);
        // JSON form parses back.
        let json = path.to_json();
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }

    #[test]
    fn backoff_and_restart_edges_survive_restarts() {
        let events = vec![
            phase(0, 3, ObsPhase::Running),
            ev(
                40,
                ObsEventKind::Restart {
                    family: 3,
                    attempt: 1,
                    backoff_ns: 60,
                },
            ),
            phase(40, 3, ObsPhase::Backoff),
            phase(100, 3, ObsPhase::Running),
            phase(130, 3, ObsPhase::Committed),
        ];
        let paths = critical_paths(&events);
        assert_eq!(paths.len(), 1);
        let kinds: Vec<&str> = paths[0].edges.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["compute", "backoff", "compute"]);
        match &paths[0].edges[1].kind {
            PathEdgeKind::Backoff { attempt } => assert_eq!(*attempt, 1),
            other => panic!("expected backoff, got {other:?}"),
        }
        assert_eq!(paths[0].self_time.backoff.as_nanos(), 60);
    }

    #[test]
    fn failed_families_produce_no_path() {
        let events = vec![
            phase(0, 7, ObsPhase::Running),
            phase(50, 7, ObsPhase::Failed),
        ];
        assert!(critical_paths(&events).is_empty());
    }
}

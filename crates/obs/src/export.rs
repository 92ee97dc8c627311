//! Trace export: JSONL (one event per line, lossless round-trip) and
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The JSONL form is the archival one — `jsonl_decode(jsonl_encode(ev))`
//! returns events identical to the originals, which a facade test asserts.
//! The Chrome form is a *view*: one track per node (`pid`), one row per
//! family (`tid`), one complete slice (`"ph":"X"`) per contiguous stay in
//! a phase, plus instant markers for deadlocks, sub-aborts, restarts and
//! demand fetches.

use std::collections::BTreeMap;

use lotec_sim::SimTime;

use crate::critical_path::{critical_paths, PathEdgeKind};
use crate::event::{
    FieldSink, FieldSource, ObsEvent, ObsEventKind, ObsPhase, SpanOutcome, WireEnum, KIND_NAMES,
};
use crate::json::{Json, JsonError};

/// The JSONL side of the wire schema, writing: each field becomes an
/// object pair, an enum its wire name, and a `None` option no pair at all.
impl FieldSink for Vec<(&'static str, Json)> {
    fn uint(&mut self, key: &'static str, value: u64) {
        self.push((key, Json::U64(value)));
    }

    fn flag(&mut self, key: &'static str, value: bool) {
        self.push((key, Json::Bool(value)));
    }

    fn wire<T: WireEnum>(&mut self, key: &'static str, value: T) {
        self.push((key, Json::str(value.name())));
    }

    fn opt(&mut self, key: &'static str, value: Option<u64>) {
        if let Some(value) = value {
            self.uint(key, value);
        }
    }

    fn u64s(&mut self, key: &'static str, values: &[u64]) {
        let list = values.iter().map(|&v| Json::U64(v)).collect();
        self.push((key, Json::Arr(list)));
    }

    fn pages(&mut self, key: &'static str, values: &[u16]) {
        let pages = values.iter().map(|&p| Json::U64(p.into())).collect();
        self.push((key, Json::Arr(pages)));
    }
}

/// The JSONL side of the wire schema, reading: typed getters over one
/// JSON object, which check types and ranges and name the key in every
/// error. Forensics parses its dump header through them too.
#[derive(Clone, Copy)]
pub(crate) struct JsonFields<'j>(pub(crate) &'j Json);

impl<'j> JsonFields<'j> {
    /// A required string field.
    pub(crate) fn str(self, key: &str) -> Result<&'j str, JsonError> {
        self.0
            .require(key)?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be a string")))
    }

    /// A required array field.
    pub(crate) fn array(self, key: &str) -> Result<&'j [Json], JsonError> {
        self.0
            .require(key)?
            .as_array()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be an array")))
    }

    /// A required array of integers that each fit in `T`.
    fn list<T: TryFrom<u64>>(self, key: &str) -> Result<Vec<T>, JsonError> {
        self.array(key)?
            .iter()
            .map(|v| {
                v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
                    let ty = std::any::type_name::<T>();
                    JsonError::new(format!("`{key}` entries must be {ty}"))
                })
            })
            .collect()
    }
}

impl FieldSource for JsonFields<'_> {
    type Error = JsonError;

    fn uint(&mut self, key: &'static str, bits: u32) -> Result<u64, JsonError> {
        let value = self
            .0
            .require(key)?
            .as_u64()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be a non-negative integer")))?;
        if bits < 64 && value >> bits != 0 {
            return Err(JsonError::new(format!("`{key}` out of u{bits} range")));
        }
        Ok(value)
    }

    fn flag(&mut self, key: &'static str) -> Result<bool, JsonError> {
        self.0
            .require(key)?
            .as_bool()
            .ok_or_else(|| JsonError::new(format!("`{key}` must be a bool")))
    }

    fn wire<T: WireEnum>(&mut self, key: &'static str) -> Result<T, JsonError> {
        let name = self.str(key)?;
        T::ALL
            .iter()
            .copied()
            .find(|v| v.name() == name)
            .ok_or_else(|| JsonError::new(format!("unknown {key} `{name}`")))
    }

    fn opt(&mut self, key: &'static str) -> Result<Option<u64>, JsonError> {
        self.0.get(key).map(|_| self.u64(key)).transpose()
    }

    fn u64s(&mut self, key: &'static str) -> Result<Vec<u64>, JsonError> {
        self.list(key)
    }

    fn pages(&mut self, key: &'static str) -> Result<Vec<u16>, JsonError> {
        self.list(key)
    }
}

/// Converts one event to its JSONL object form: `at`, `node` and `kind`,
/// then the kind's fields in declaration order.
pub fn event_to_json(event: &ObsEvent) -> Json {
    let mut pairs = vec![
        ("at", Json::U64(event.at.as_nanos())),
        ("node", Json::U64(event.node.into())),
        ("kind", Json::str(event.kind.name())),
    ];
    event.kind.write_fields(&mut pairs);
    Json::obj(pairs)
}

/// Parses one JSONL object back into an event.
pub fn event_from_json(json: &Json) -> Result<ObsEvent, JsonError> {
    let mut fields = JsonFields(json);
    let at = SimTime::from_nanos(fields.u64("at")?);
    let node = fields.u32("node")?;
    let name = fields.str("kind")?;
    let tag = KIND_NAMES
        .iter()
        .position(|&kind| kind == name)
        .ok_or_else(|| JsonError::new(format!("unknown event kind `{name}`")))?;
    let kind = ObsEventKind::read_fields(tag as u8, &mut fields)?;
    Ok(ObsEvent { at, node, kind })
}

/// Encodes events as JSONL: one compact JSON object per line.
pub fn jsonl_encode(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_to_json(event).render());
        out.push('\n');
    }
    out
}

/// Decodes a JSONL document produced by [`jsonl_encode`].
///
/// Blank lines are skipped; any malformed line aborts with an error naming
/// the line number.
pub fn jsonl_decode(text: &str) -> Result<Vec<ObsEvent>, JsonError> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json =
            Json::parse(line).map_err(|e| JsonError::new(format!("line {}: {e}", lineno + 1)))?;
        let event = event_from_json(&json)
            .map_err(|e| JsonError::new(format!("line {}: {e}", lineno + 1)))?;
        events.push(event);
    }
    Ok(events)
}

fn micros(t: SimTime) -> Json {
    Json::F64(t.as_nanos() as f64 / 1000.0)
}

/// Span rows live on separate `tid`s from the phase rows so that the
/// nested span slices of a family never partially overlap its phase
/// slices (Perfetto requires proper nesting within one thread track).
const SPAN_ROW_OFFSET: u64 = 1 << 32;

/// Builds a Chrome trace-event JSON document from recorded events.
///
/// Layout: `pid` = simulated node, `tid` = family index; each contiguous
/// stay in a phase becomes one complete (`"ph":"X"`) slice named after the
/// phase. Deadlocks, sub-aborts, restarts and demand fetches become
/// instant (`"ph":"i"`) markers on the same rows. [Sub-]transaction spans
/// (`SpanOpen`/`SpanClose`) become nested `"X"` slices (cat `"span"`) on a
/// sibling row per family (`tid = family + 2^32`), mirroring the O2PL
/// transaction tree. When span events are present, the per-root critical
/// path is overlaid as flow arrows (`"ph":"s"`/`"f"`, cat
/// `"critical_path"`) chaining the latency-determining edges, plus
/// lock-handoff arrows from blocker families. Events are sorted by `ts`,
/// so the output satisfies Perfetto's monotonicity expectations.
pub fn chrome_trace(events: &[ObsEvent]) -> Json {
    // family -> (node, phase, entered-at) for the currently open slice.
    let mut open: BTreeMap<u64, (u32, ObsPhase, SimTime)> = BTreeMap::new();
    // txn -> (node, family, object, opened-at) for open spans.
    let mut open_spans: BTreeMap<u64, (u32, u64, u32, SimTime)> = BTreeMap::new();
    let mut seen_nodes: BTreeMap<u32, ()> = BTreeMap::new();
    // (node, family) rows that carry span slices, for thread-name metadata.
    let mut span_rows: BTreeMap<(u32, u64), ()> = BTreeMap::new();
    // family -> home node, for placing flow arrows.
    let mut family_node: BTreeMap<u64, u32> = BTreeMap::new();
    // (start, duration-ns, json); duration breaks ts ties parent-first.
    let mut slices: Vec<(SimTime, u64, Json)> = Vec::new();
    let mut last_at = SimTime::ZERO;

    fn close_slice(
        open: &mut BTreeMap<u64, (u32, ObsPhase, SimTime)>,
        slices: &mut Vec<(SimTime, u64, Json)>,
        family: u64,
        until: SimTime,
    ) {
        if let Some((node, phase, since)) = open.remove(&family) {
            let dur = until.saturating_duration_since(since);
            let slice = Json::obj(vec![
                ("name", Json::str(phase.name())),
                ("cat", Json::str("phase")),
                ("ph", Json::str("X")),
                ("ts", micros(since)),
                ("dur", Json::F64(dur.as_nanos() as f64 / 1000.0)),
                ("pid", Json::U64(node as u64)),
                ("tid", Json::U64(family)),
            ]);
            slices.push((since, dur.as_nanos(), slice));
        }
    }

    fn close_span(
        open_spans: &mut BTreeMap<u64, (u32, u64, u32, SimTime)>,
        slices: &mut Vec<(SimTime, u64, Json)>,
        txn: u64,
        until: SimTime,
        outcome: Option<SpanOutcome>,
    ) {
        if let Some((node, family, object, since)) = open_spans.remove(&txn) {
            let dur = until.saturating_duration_since(since);
            let label = match outcome {
                Some(o) => format!("T{txn} O{object} [{}]", o.name()),
                None => format!("T{txn} O{object} [open]"),
            };
            let slice = Json::obj(vec![
                ("name", Json::str(label)),
                ("cat", Json::str("span")),
                ("ph", Json::str("X")),
                ("ts", micros(since)),
                ("dur", Json::F64(dur.as_nanos() as f64 / 1000.0)),
                ("pid", Json::U64(node as u64)),
                ("tid", Json::U64(SPAN_ROW_OFFSET + family)),
            ]);
            slices.push((since, dur.as_nanos(), slice));
        }
    }

    for event in events {
        last_at = last_at.max(event.at);
        seen_nodes.entry(event.node).or_insert(());
        match &event.kind {
            ObsEventKind::PhaseEnter { family, phase } => {
                family_node.entry(*family).or_insert(event.node);
                close_slice(&mut open, &mut slices, *family, event.at);
                if !phase.is_terminal() {
                    open.insert(*family, (event.node, *phase, event.at));
                }
            }
            ObsEventKind::SpanOpen {
                family,
                txn,
                object,
                ..
            } => {
                span_rows.entry((event.node, *family)).or_insert(());
                open_spans.insert(*txn, (event.node, *family, *object, event.at));
            }
            ObsEventKind::SpanClose { txn, outcome, .. } => {
                close_span(&mut open_spans, &mut slices, *txn, event.at, Some(*outcome));
            }
            ObsEventKind::Deadlock { victim, cycle } => {
                let marker = Json::obj(vec![
                    (
                        "name",
                        Json::str(format!(
                            "deadlock (victim T{victim}, cycle {})",
                            cycle.len()
                        )),
                    ),
                    ("cat", Json::str("lock")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("g")),
                    ("ts", micros(event.at)),
                    ("pid", Json::U64(event.node as u64)),
                    ("tid", Json::U64(0)),
                ]);
                slices.push((event.at, 0, marker));
            }
            ObsEventKind::SubAbort { family, txn, .. } => {
                let marker = Json::obj(vec![
                    ("name", Json::str(format!("sub-abort T{txn}"))),
                    ("cat", Json::str("abort")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", micros(event.at)),
                    ("pid", Json::U64(event.node as u64)),
                    ("tid", Json::U64(*family)),
                ]);
                slices.push((event.at, 0, marker));
            }
            ObsEventKind::Restart {
                family, attempt, ..
            } => {
                let marker = Json::obj(vec![
                    ("name", Json::str(format!("restart #{attempt}"))),
                    ("cat", Json::str("abort")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", micros(event.at)),
                    ("pid", Json::U64(event.node as u64)),
                    ("tid", Json::U64(*family)),
                ]);
                slices.push((event.at, 0, marker));
            }
            ObsEventKind::DemandFetch {
                family,
                object,
                page,
                ..
            } => {
                let marker = Json::obj(vec![
                    ("name", Json::str(format!("demand fetch O{object}/p{page}"))),
                    ("cat", Json::str("transfer")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", micros(event.at)),
                    ("pid", Json::U64(event.node as u64)),
                    ("tid", Json::U64(*family)),
                ]);
                slices.push((event.at, 0, marker));
            }
            ObsEventKind::NodeCrashed { aborted_families } => {
                let marker = Json::obj(vec![
                    (
                        "name",
                        Json::str(format!("node crash ({aborted_families} aborted)")),
                    ),
                    ("cat", Json::str("fault")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("g")),
                    ("ts", micros(event.at)),
                    ("pid", Json::U64(event.node as u64)),
                    ("tid", Json::U64(0)),
                ]);
                slices.push((event.at, 0, marker));
            }
            ObsEventKind::NodeRecovered { .. } => {
                let marker = Json::obj(vec![
                    ("name", Json::str("node recovered")),
                    ("cat", Json::str("fault")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("g")),
                    ("ts", micros(event.at)),
                    ("pid", Json::U64(event.node as u64)),
                    ("tid", Json::U64(0)),
                ]);
                slices.push((event.at, 0, marker));
            }
            ObsEventKind::StateSample {
                queue_depth,
                locks_held,
                locks_retained,
                locks_waiting,
                inflight_messages,
                blocked_families,
                cache_bytes,
            } => {
                // Counter tracks ("ph":"C"): Perfetto renders each named
                // counter as a stacked area chart keyed by its args.
                let counter = |name: &str, pid: u64, args: Vec<(&str, Json)>| -> Json {
                    Json::obj(vec![
                        ("name", Json::str(name)),
                        ("cat", Json::str("state")),
                        ("ph", Json::str("C")),
                        ("ts", micros(event.at)),
                        ("pid", Json::U64(pid)),
                        ("args", Json::obj(args)),
                    ])
                };
                slices.push((
                    event.at,
                    0,
                    counter(
                        "sim queue depth",
                        0,
                        vec![("events", Json::U64(*queue_depth))],
                    ),
                ));
                slices.push((
                    event.at,
                    0,
                    counter(
                        "lock table",
                        0,
                        vec![
                            ("held", Json::U64(*locks_held as u64)),
                            ("retained", Json::U64(*locks_retained as u64)),
                            ("waiting", Json::U64(*locks_waiting as u64)),
                        ],
                    ),
                ));
                slices.push((
                    event.at,
                    0,
                    counter(
                        "families",
                        0,
                        vec![
                            ("blocked", Json::U64(*blocked_families as u64)),
                            ("inflight_messages", Json::U64(*inflight_messages as u64)),
                        ],
                    ),
                ));
                for (node, bytes) in cache_bytes.iter().enumerate() {
                    slices.push((
                        event.at,
                        0,
                        counter(
                            "cache bytes",
                            node as u64,
                            vec![("bytes", Json::U64(*bytes))],
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    // Close any slice still open at the end of the recording.
    let families: Vec<u64> = open.keys().copied().collect();
    for family in families {
        close_slice(&mut open, &mut slices, family, last_at);
    }
    let txns: Vec<u64> = open_spans.keys().copied().collect();
    for txn in txns {
        close_span(&mut open_spans, &mut slices, txn, last_at, None);
    }

    // Overlay the per-root critical paths as flow arrows: one chain per
    // committed family linking consecutive edges, plus lock-handoff
    // arrows from the blocker family's row into the lock-wait edge.
    let mut flow_id: u64 = 0;
    let flow = |name: &str, ph: &str, id: u64, at: SimTime, node: u32, tid: u64| -> Json {
        let mut pairs = vec![
            ("name", Json::str(name)),
            ("cat", Json::str("critical_path")),
            ("ph", Json::str(ph)),
            ("id", Json::U64(id)),
            ("ts", micros(at)),
            ("pid", Json::U64(node as u64)),
            ("tid", Json::U64(tid)),
        ];
        if ph == "f" {
            pairs.push(("bp", Json::str("e")));
        }
        Json::obj(pairs)
    };
    for path in critical_paths(events) {
        let node = family_node.get(&path.family).copied().unwrap_or(0);
        for pair in path.edges.windows(2) {
            flow_id += 1;
            slices.push((
                pair[0].end,
                0,
                flow(
                    "critical-path",
                    "s",
                    flow_id,
                    pair[0].end,
                    node,
                    path.family,
                ),
            ));
            slices.push((
                pair[1].start,
                0,
                flow(
                    "critical-path",
                    "f",
                    flow_id,
                    pair[1].start,
                    node,
                    path.family,
                ),
            ));
        }
        for edge in &path.edges {
            if let PathEdgeKind::LockWait { blockers, .. } = &edge.kind {
                for &blocker in blockers {
                    let bnode = family_node.get(&blocker).copied().unwrap_or(node);
                    flow_id += 1;
                    slices.push((
                        edge.end,
                        0,
                        flow("lock-handoff", "s", flow_id, edge.end, bnode, blocker),
                    ));
                    slices.push((
                        edge.end,
                        0,
                        flow("lock-handoff", "f", flow_id, edge.end, node, path.family),
                    ));
                }
            }
        }
    }

    let mut trace_events: Vec<Json> = seen_nodes
        .keys()
        .map(|&node| {
            Json::obj(vec![
                ("name", Json::str("process_name")),
                ("ph", Json::str("M")),
                ("ts", Json::F64(0.0)),
                ("pid", Json::U64(node as u64)),
                (
                    "args",
                    Json::obj(vec![("name", Json::str(format!("node {node}")))]),
                ),
            ])
        })
        .collect();
    trace_events.extend(span_rows.keys().map(|&(node, family)| {
        Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("ts", Json::F64(0.0)),
            ("pid", Json::U64(node as u64)),
            ("tid", Json::U64(SPAN_ROW_OFFSET + family)),
            (
                "args",
                Json::obj(vec![("name", Json::str(format!("family {family} spans")))]),
            ),
        ])
    }));
    // Stable sort: equal timestamps keep parent slices (longer duration)
    // ahead of their children, which Perfetto's nesting relies on.
    slices.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    trace_events.extend(slices.into_iter().map(|(_, _, j)| j));

    Json::obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::every_kind;
    use crate::event::ObsLockMode;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent {
                at: SimTime::from_nanos(100),
                node: 0,
                kind: ObsEventKind::LockQueued {
                    object: 3,
                    txn: 7,
                    mode: ObsLockMode::Write,
                    waiters: 2,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(110),
                node: 0,
                kind: ObsEventKind::LockBlocked {
                    object: 3,
                    txn: 7,
                    holders: vec![4],
                    retainers: vec![5],
                    queued_behind: vec![1],
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(150),
                node: 1,
                kind: ObsEventKind::PhaseEnter {
                    family: 2,
                    phase: ObsPhase::LockWait,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(150),
                node: 1,
                kind: ObsEventKind::SpanOpen {
                    family: 2,
                    txn: 11,
                    parent: None,
                    object: 3,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(160),
                node: 1,
                kind: ObsEventKind::SpanOpen {
                    family: 2,
                    txn: 12,
                    parent: Some(11),
                    object: 4,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(200),
                node: 1,
                kind: ObsEventKind::PhaseEnter {
                    family: 2,
                    phase: ObsPhase::Running,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(210),
                node: 1,
                kind: ObsEventKind::GatherBatch {
                    family: 2,
                    object: 3,
                    source: 0,
                    pages: 2,
                    bytes: 8 * 1024,
                    delay_ns: 1_500,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(220),
                node: 1,
                kind: ObsEventKind::DemandFetch {
                    family: 2,
                    object: 3,
                    page: 5,
                    source: 2,
                    bytes: 4_096 + 64,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(230),
                node: 1,
                kind: ObsEventKind::SpanClose {
                    family: 2,
                    txn: 12,
                    outcome: SpanOutcome::PreCommit,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(250),
                node: 0,
                kind: ObsEventKind::Deadlock {
                    cycle: vec![1, 5, 9],
                    victim: 9,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(300),
                node: 1,
                kind: ObsEventKind::GrantPlan {
                    family: 2,
                    object: 3,
                    predicted: vec![0, 1, 4],
                    actual_reads: vec![0, 1],
                    actual_writes: vec![4, 5],
                    planned_pages: 3,
                    sources: 2,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(300),
                node: 1,
                kind: ObsEventKind::PredictionSample {
                    class: 1,
                    method: 2,
                    predicted: 3,
                    actual: 4,
                    true_positives: 3,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(305),
                node: 1,
                kind: ObsEventKind::DemandBatch {
                    family: 2,
                    object: 3,
                    source: 2,
                    pages: vec![5, 6],
                    bytes: 2 * 4_096 + 64,
                    delay_ns: 2_000,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(310),
                node: 1,
                kind: ObsEventKind::ProfileUpdate {
                    class: 1,
                    method: 2,
                    expanded: vec![5],
                    shrunk: vec![1, 4],
                    predicted: 2,
                    observations: 9,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(320),
                node: 0,
                kind: ObsEventKind::Retransmit {
                    dst: 3,
                    attempts: 3,
                    duplicates: 1,
                    wait_ns: 200_000,
                    family: None,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(340),
                node: 3,
                kind: ObsEventKind::NodeCrashed {
                    aborted_families: 2,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(350),
                node: 3,
                kind: ObsEventKind::NodeRecovered { outage_ns: 10 },
            },
            ObsEvent {
                at: SimTime::from_nanos(360),
                node: 0,
                kind: ObsEventKind::LockTimeout {
                    object: 3,
                    txn: 7,
                    waited_ns: 50_000,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(370),
                node: 0,
                kind: ObsEventKind::PageMapRepaired {
                    object: 3,
                    page: 4,
                    from: 3,
                    to: 1,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(380),
                node: 0,
                kind: ObsEventKind::StateSample {
                    queue_depth: 12,
                    locks_held: 3,
                    locks_retained: 1,
                    locks_waiting: 2,
                    inflight_messages: 4,
                    blocked_families: 1,
                    cache_bytes: vec![4096, 0, 8192, 1024],
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(395),
                node: 1,
                kind: ObsEventKind::SpanClose {
                    family: 2,
                    txn: 11,
                    outcome: SpanOutcome::Commit,
                },
            },
            ObsEvent {
                at: SimTime::from_nanos(400),
                node: 1,
                kind: ObsEventKind::PhaseEnter {
                    family: 2,
                    phase: ObsPhase::Committed,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        for events in [every_kind(), sample_events()] {
            let text = jsonl_encode(&events);
            let back = jsonl_decode(&text).unwrap();
            assert_eq!(events, back);
        }
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(jsonl_decode("{\"kind\": \"nope\"}\n").is_err());
        assert!(jsonl_decode("not json\n").is_err());
        let missing_field = "{\"at\":1,\"node\":0,\"kind\":\"phase_enter\",\"family\":1}";
        assert!(jsonl_decode(missing_field).is_err());
    }

    #[test]
    fn jsonl_errors_name_the_offending_key() {
        let fetch = r#"{"at":1,"node":0,"kind":"demand_fetch","family":2,"object":4,"page":6,"source":3,"bytes":9}"#;
        assert!(jsonl_decode(fetch).is_ok());
        for (from, to, error) in [
            (
                r#""object":4"#,
                r#""object":4294967297"#,
                "`object` out of u32 range",
            ),
            (r#""page":6"#, r#""page":65536"#, "`page` out of u16 range"),
            (
                r#""bytes":9"#,
                r#""bytes":-9"#,
                "`bytes` must be a non-negative integer",
            ),
            (
                r#""node":0"#,
                r#""node":"0""#,
                "`node` must be a non-negative integer",
            ),
        ] {
            let err = jsonl_decode(&fetch.replace(from, to))
                .unwrap_err()
                .to_string();
            assert!(err.contains(error), "{to}: {err}");
        }
        let queued = r#"{"at":1,"node":0,"kind":"lock_queued","object":3,"txn":7,"mode":"upgrade","waiters":2}"#;
        let err = jsonl_decode(queued).unwrap_err().to_string();
        assert!(err.contains("unknown mode `upgrade`"), "{err}");
    }

    #[test]
    fn chrome_trace_has_monotonic_ts_and_slices() {
        let trace = chrome_trace(&sample_events());
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let mut last = f64::NEG_INFINITY;
        let mut phase_slices = 0;
        let mut span_slices = 0;
        for e in events {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
            if e.get("ph").unwrap().as_str() == Some("X") {
                assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                match e.get("cat").unwrap().as_str() {
                    Some("phase") => phase_slices += 1,
                    Some("span") => span_slices += 1,
                    other => panic!("unexpected slice category {other:?}"),
                }
            }
        }
        // lock_wait [150,200) and running [200,400) for family 2.
        assert_eq!(phase_slices, 2);
        // Root span T11 and child span T12.
        assert_eq!(span_slices, 2);
        // The whole document survives a JSON re-parse.
        assert_eq!(Json::parse(&trace.render_pretty()).unwrap(), trace);
    }

    #[test]
    fn chrome_trace_emits_counter_tracks_for_state_samples() {
        let trace = chrome_trace(&sample_events());
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        // Three global counter tracks plus one cache-bytes track per node.
        assert_eq!(counters.len(), 3 + 4);
        let queue = counters
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("sim queue depth"))
            .expect("queue-depth counter");
        assert_eq!(
            queue
                .get("args")
                .and_then(|a| a.get("events"))
                .and_then(Json::as_u64),
            Some(12)
        );
        let lock = counters
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("lock table"))
            .expect("lock-table counter");
        let args = lock.get("args").unwrap();
        assert_eq!(args.get("held").and_then(Json::as_u64), Some(3));
        assert_eq!(args.get("waiting").and_then(Json::as_u64), Some(2));
        // Per-node cache-bytes counters carry the node id as the pid.
        let cache2 = counters
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("cache bytes")
                    && e.get("pid").and_then(Json::as_u64) == Some(2)
            })
            .expect("node-2 cache counter");
        assert_eq!(
            cache2
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Json::as_u64),
            Some(8192)
        );
    }

    #[test]
    fn chrome_trace_spans_nest_and_ride_their_own_rows() {
        let trace = chrome_trace(&sample_events());
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2);
        // Parent slice comes first (stable sort puts the longer-duration
        // slice ahead on ties) and fully contains the child slice.
        let (p, c) = (&spans[0], &spans[1]);
        assert!(p.get("name").unwrap().as_str().unwrap().contains("T11"));
        assert!(c.get("name").unwrap().as_str().unwrap().contains("T12"));
        let (pts, pdur) = (
            p.get("ts").unwrap().as_f64().unwrap(),
            p.get("dur").unwrap().as_f64().unwrap(),
        );
        let (cts, cdur) = (
            c.get("ts").unwrap().as_f64().unwrap(),
            c.get("dur").unwrap().as_f64().unwrap(),
        );
        assert!(pts <= cts && cts + cdur <= pts + pdur);
        // Span rows live on a separate tid from the phase rows.
        let tid = p.get("tid").unwrap().as_u64().unwrap();
        assert_eq!(tid, SPAN_ROW_OFFSET + 2);
        // The critical-path overlay produced at least one flow pair.
        let flows = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("critical_path"))
            .count();
        assert!(flows >= 2, "expected flow arrows, got {flows}");
    }
}

//! A hand-rolled metrics registry fed from the event sink.
//!
//! The workspace is dependency-free, so this is the whole metrics stack:
//! monotonically increasing counters, last-value + high-water gauges, and
//! streaming quantile sketches ([`QuantileSketch`], ≤ 1.57% relative
//! error, memory-flat at any event count, deterministically mergeable),
//! each keyed by `(metric name, label)` where the label scopes the series
//! to an object, a node, or the whole run. The registry implements
//! [`EventSink`] so it can sit directly behind the
//! engine, or be fed a recorded trace after the fact — both produce the
//! same deterministic `BTreeMap`-ordered contents.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use lotec_sim::SimTime;

use crate::event::{ObsEvent, ObsEventKind, ObsPhase, SpanOutcome};
use crate::json::Json;
use crate::sink::EventSink;
use crate::sketch::QuantileSketch;

/// Scopes a metric series to an object, a node, or the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricLabel {
    /// Run-wide series.
    Global,
    /// Per-object series.
    Object(u32),
    /// Per-node series.
    Node(u32),
    /// Per-(class, method) series — the adaptive-prediction attribution
    /// unit. The key is derived from static schema indices only, so the
    /// rendered label is stable across runs, thread counts, and event
    /// orderings.
    Method {
        /// Class index.
        class: u32,
        /// Method index within the class.
        method: u32,
    },
}

impl fmt::Display for MetricLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricLabel::Global => Ok(()),
            MetricLabel::Object(o) => write!(f, "[object={o}]"),
            MetricLabel::Node(n) => write!(f, "[node={n}]"),
            MetricLabel::Method { class, method } => {
                write!(f, "[class={class},method={method}]")
            }
        }
    }
}

/// A last-value gauge with a high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Current value.
    pub value: u64,
    /// Largest value ever set.
    pub max: u64,
}

impl Gauge {
    fn set(&mut self, value: u64) {
        self.value = value;
        self.max = self.max.max(value);
    }
}

/// One row of the per-object contention table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectContention {
    /// Object index.
    pub object: u32,
    /// Contended lock waits resolved on the object.
    pub waits: u64,
    /// Total time those waits spent queued, in sim nanoseconds.
    pub total_wait_ns: u64,
    /// Longest single wait, in sim nanoseconds.
    pub max_wait_ns: u64,
}

/// The registry: counters, gauges, and quantile sketches keyed by
/// `(metric, label)`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<(&'static str, MetricLabel), u64>,
    gauges: BTreeMap<(&'static str, MetricLabel), Gauge>,
    histograms: BTreeMap<(&'static str, MetricLabel), QuantileSketch>,
    // txn -> (object, queued-at), for the lock-wait histograms.
    pending_lock: BTreeMap<u64, (u32, SimTime)>,
    open_spans: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a recorded trace through the registry.
    pub fn feed(&mut self, events: &[ObsEvent]) {
        for event in events {
            self.record(event);
        }
    }

    fn add(&mut self, name: &'static str, label: MetricLabel, delta: u64) {
        *self.counters.entry((name, label)).or_default() += delta;
    }

    fn gauge_set(&mut self, name: &'static str, label: MetricLabel, value: u64) {
        self.gauges.entry((name, label)).or_default().set(value);
    }

    fn observe(&mut self, name: &'static str, label: MetricLabel, value: u64) {
        self.histograms
            .entry((name, label))
            .or_default()
            .record(value);
    }

    /// Updates the registry from one event.
    pub fn record(&mut self, event: &ObsEvent) {
        let at = event.at;
        match &event.kind {
            ObsEventKind::LockQueued {
                object,
                txn,
                waiters,
                ..
            } => {
                self.add("lock_queued", MetricLabel::Object(*object), 1);
                self.gauge_set(
                    "lock_queue_depth",
                    MetricLabel::Object(*object),
                    *waiters as u64,
                );
                self.pending_lock.insert(*txn, (*object, at));
            }
            ObsEventKind::LockGranted {
                object,
                txn,
                global,
                ..
            } => {
                self.add("lock_granted", MetricLabel::Object(*object), 1);
                if *global {
                    self.add("lock_granted_global", MetricLabel::Global, 1);
                } else {
                    self.add("lock_granted_local", MetricLabel::Global, 1);
                }
                if let Some((queued_object, since)) = self.pending_lock.remove(txn) {
                    let waited = at.saturating_duration_since(since).as_nanos();
                    self.add("contended_grants", MetricLabel::Object(queued_object), 1);
                    self.observe("lock_wait_ns", MetricLabel::Object(queued_object), waited);
                }
            }
            ObsEventKind::LockRetained { object, .. } => {
                self.add("lock_retained", MetricLabel::Object(*object), 1);
            }
            ObsEventKind::LockBlocked { object, .. } => {
                self.add("lock_blocked", MetricLabel::Object(*object), 1);
            }
            ObsEventKind::LockReleased { object, .. } => {
                self.add("lock_released", MetricLabel::Object(*object), 1);
            }
            ObsEventKind::Deadlock { .. } => {
                self.add("deadlocks", MetricLabel::Global, 1);
            }
            ObsEventKind::SpanOpen { .. } => {
                self.add("spans_opened", MetricLabel::Global, 1);
                self.open_spans += 1;
                self.gauge_set("open_spans", MetricLabel::Global, self.open_spans);
            }
            ObsEventKind::SpanClose { outcome, .. } => {
                let name = match outcome {
                    SpanOutcome::PreCommit => "span_pre_commits",
                    SpanOutcome::Commit => "span_commits",
                    SpanOutcome::Abort => "span_aborts",
                    SpanOutcome::CrashAbort => "span_crash_aborts",
                };
                self.add(name, MetricLabel::Global, 1);
                self.open_spans = self.open_spans.saturating_sub(1);
                self.gauge_set("open_spans", MetricLabel::Global, self.open_spans);
            }
            ObsEventKind::PhaseEnter { phase, .. } => match phase {
                ObsPhase::Committed => self.add("families_committed", MetricLabel::Global, 1),
                ObsPhase::Failed => self.add("families_failed", MetricLabel::Global, 1),
                _ => {}
            },
            ObsEventKind::SubAbort { .. } => {
                self.add("sub_aborts", MetricLabel::Global, 1);
            }
            ObsEventKind::Restart { backoff_ns, .. } => {
                self.add("restarts", MetricLabel::Global, 1);
                self.observe("backoff_ns", MetricLabel::Global, *backoff_ns);
            }
            ObsEventKind::GrantPlan {
                object,
                planned_pages,
                sources,
                ..
            } => {
                self.add("grants_planned", MetricLabel::Object(*object), 1);
                self.add(
                    "planned_pages",
                    MetricLabel::Object(*object),
                    *planned_pages as u64,
                );
                self.observe("gather_fanout", MetricLabel::Global, *sources as u64);
            }
            ObsEventKind::GatherBatch {
                object,
                source,
                pages,
                bytes,
                delay_ns,
                ..
            } => {
                self.add("gather_batches", MetricLabel::Object(*object), 1);
                self.add("gather_pages", MetricLabel::Object(*object), *pages as u64);
                self.add("transfer_bytes", MetricLabel::Node(*source), *bytes);
                self.observe("gather_delay_ns", MetricLabel::Object(*object), *delay_ns);
            }
            ObsEventKind::PredictionSample {
                class,
                method,
                predicted,
                actual,
                true_positives,
            } => {
                let label = MetricLabel::Method {
                    class: *class,
                    method: *method,
                };
                self.add("prediction_grants", label, 1);
                self.add("predicted_pages", label, *predicted as u64);
                self.add("actual_pages", label, *actual as u64);
                self.add("true_positive_pages", label, *true_positives as u64);
            }
            ObsEventKind::ProfileUpdate {
                class,
                method,
                expanded,
                shrunk,
                predicted,
                ..
            } => {
                let label = MetricLabel::Method {
                    class: *class,
                    method: *method,
                };
                self.add("profile_updates", label, 1);
                self.add("profile_expanded_pages", label, expanded.len() as u64);
                self.add("profile_shrunk_pages", label, shrunk.len() as u64);
                self.gauge_set("profile_predicted_pages", label, *predicted as u64);
            }
            ObsEventKind::DemandBatch {
                object,
                source,
                pages,
                bytes,
                ..
            } => {
                self.add(
                    "demand_fetches",
                    MetricLabel::Object(*object),
                    pages.len() as u64,
                );
                self.add("demand_batches", MetricLabel::Object(*object), 1);
                self.add("transfer_bytes", MetricLabel::Node(*source), *bytes);
            }
            ObsEventKind::DemandFetch {
                object,
                source,
                bytes,
                ..
            } => {
                self.add("demand_fetches", MetricLabel::Object(*object), 1);
                self.add("transfer_bytes", MetricLabel::Node(*source), *bytes);
            }
            ObsEventKind::Retransmit {
                dst,
                attempts,
                duplicates,
                wait_ns,
                ..
            } => {
                self.add(
                    "retransmits",
                    MetricLabel::Node(*dst),
                    attempts.saturating_sub(1) as u64,
                );
                self.add("duplicates", MetricLabel::Node(*dst), *duplicates as u64);
                self.observe("retransmit_wait_ns", MetricLabel::Global, *wait_ns);
            }
            ObsEventKind::NodeCrashed { .. } => {
                self.add("node_crashes", MetricLabel::Node(event.node), 1);
            }
            ObsEventKind::NodeRecovered { outage_ns } => {
                self.add("node_recoveries", MetricLabel::Node(event.node), 1);
                self.observe("outage_ns", MetricLabel::Global, *outage_ns);
            }
            ObsEventKind::LockTimeout {
                object, waited_ns, ..
            } => {
                self.add("lock_timeouts", MetricLabel::Object(*object), 1);
                self.observe("lock_timeout_wait_ns", MetricLabel::Global, *waited_ns);
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
                self.add("state_samples", MetricLabel::Global, 1);
                self.gauge_set("sim_queue_depth", MetricLabel::Global, *queue_depth);
                self.gauge_set("locks_held", MetricLabel::Global, *locks_held as u64);
                self.gauge_set(
                    "locks_retained",
                    MetricLabel::Global,
                    *locks_retained as u64,
                );
                self.gauge_set("locks_waiting", MetricLabel::Global, *locks_waiting as u64);
                self.gauge_set(
                    "inflight_messages",
                    MetricLabel::Global,
                    *inflight_messages as u64,
                );
                self.gauge_set(
                    "blocked_families",
                    MetricLabel::Global,
                    *blocked_families as u64,
                );
                for (node, bytes) in cache_bytes.iter().enumerate() {
                    self.gauge_set("cache_bytes", MetricLabel::Node(node as u32), *bytes);
                }
            }
            ObsEventKind::PageMapRepaired { object, .. } => {
                self.add("page_map_repairs", MetricLabel::Object(*object), 1);
            }
        }
    }

    /// A single counter's value (0 when never incremented).
    pub fn counter(&self, name: &str, label: MetricLabel) -> u64 {
        self.counters
            .iter()
            .find(|((n, l), _)| *n == name && *l == label)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of a counter over all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// A gauge's current value and high-water mark.
    pub fn gauge(&self, name: &str, label: MetricLabel) -> Option<Gauge> {
        self.gauges
            .iter()
            .find(|((n, l), _)| *n == name && *l == label)
            .map(|(_, g)| *g)
    }

    /// A distribution series (a [`QuantileSketch`]), when it recorded
    /// anything.
    pub fn histogram(&self, name: &str, label: MetricLabel) -> Option<&QuantileSketch> {
        self.histograms
            .iter()
            .find(|((n, l), _)| *n == name && *l == label)
            .map(|(_, h)| h)
    }

    /// Per-method prediction quality as `(precision, recall)`, aggregated
    /// over every [`PredictionSample`](ObsEventKind::PredictionSample) of
    /// `(class, method)`. `None` when the method recorded no samples.
    /// Precision = true positives / predicted; recall = true positives /
    /// actual (1.0 when the respective denominator is zero).
    pub fn method_precision_recall(&self, class: u32, method: u32) -> Option<(f64, f64)> {
        let label = MetricLabel::Method { class, method };
        if self.counter("prediction_grants", label) == 0 {
            return None;
        }
        let predicted = self.counter("predicted_pages", label);
        let actual = self.counter("actual_pages", label);
        let tp = self.counter("true_positive_pages", label);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        Some((ratio(tp, predicted), ratio(tp, actual)))
    }

    /// Every (class, method) pair that recorded prediction samples, in
    /// label order.
    pub fn sampled_methods(&self) -> Vec<(u32, u32)> {
        self.counters
            .iter()
            .filter_map(|((name, label), _)| match (name, label) {
                (&"prediction_grants", MetricLabel::Method { class, method }) => {
                    Some((*class, *method))
                }
                _ => None,
            })
            .collect()
    }

    /// Top-`k` objects by total contended lock-wait time (ties broken by
    /// object index, so the table is deterministic).
    pub fn top_object_contention(&self, k: usize) -> Vec<ObjectContention> {
        let mut rows: Vec<ObjectContention> = self
            .histograms
            .iter()
            .filter_map(|((name, label), h)| match (name, label) {
                (&"lock_wait_ns", MetricLabel::Object(object)) => Some(ObjectContention {
                    object: *object,
                    waits: h.count(),
                    total_wait_ns: u64::try_from(h.sum()).unwrap_or(u64::MAX),
                    max_wait_ns: h.max(),
                }),
                _ => None,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_wait_ns
                .cmp(&a.total_wait_ns)
                .then(a.object.cmp(&b.object))
        });
        rows.truncate(k);
        rows
    }

    /// Top-`k` nodes by bytes served as a transfer source (gathers plus
    /// demand fetches), ties broken by node index.
    pub fn top_node_transfer_bytes(&self, k: usize) -> Vec<(u32, u64)> {
        let mut rows: Vec<(u32, u64)> = self
            .counters
            .iter()
            .filter_map(|((name, label), v)| match (name, label) {
                (&"transfer_bytes", MetricLabel::Node(node)) => Some((*node, *v)),
                _ => None,
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Renders the two top-K tables as human-readable text.
    pub fn render_top_tables(&self, k: usize) -> String {
        let mut out = String::new();
        let contention = self.top_object_contention(k);
        let _ = writeln!(out, "top {} objects by lock contention:", contention.len());
        let _ = writeln!(
            out,
            "  {:>8} {:>8} {:>14} {:>12}",
            "object", "waits", "total_wait_ns", "max_wait_ns"
        );
        for row in &contention {
            let _ = writeln!(
                out,
                "  {:>8} {:>8} {:>14} {:>12}",
                row.object, row.waits, row.total_wait_ns, row.max_wait_ns
            );
        }
        let transfer = self.top_node_transfer_bytes(k);
        let _ = writeln!(
            out,
            "top {} nodes by transfer bytes served:",
            transfer.len()
        );
        let _ = writeln!(out, "  {:>8} {:>14}", "node", "bytes");
        for (node, bytes) in &transfer {
            let _ = writeln!(out, "  {node:>8} {bytes:>14}");
        }
        out
    }

    /// Machine-readable dump: counters, gauges, and histogram summaries,
    /// deterministically ordered.
    pub fn to_json(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .counters
            .iter()
            .map(|((name, label), v)| (format!("{name}{label}"), Json::U64(*v)))
            .collect();
        let gauges: Vec<(String, Json)> = self
            .gauges
            .iter()
            .map(|((name, label), g)| {
                (
                    format!("{name}{label}"),
                    Json::obj(vec![
                        ("value", Json::U64(g.value)),
                        ("max", Json::U64(g.max)),
                    ]),
                )
            })
            .collect();
        let histograms: Vec<(String, Json)> = self
            .histograms
            .iter()
            .map(|((name, label), h)| {
                (
                    format!("{name}{label}"),
                    Json::obj(vec![
                        ("count", Json::U64(h.count())),
                        ("sum", Json::U64(u64::try_from(h.sum()).unwrap_or(u64::MAX))),
                        ("p50", Json::U64(h.quantile(0.5))),
                        ("p99", Json::U64(h.quantile(0.99))),
                        ("max", Json::U64(h.max())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }
}

impl EventSink for MetricsRegistry {
    #[inline(always)]
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: ObsEvent) {
        self.record(&event);
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

    fn lock_pair(object: u32, txn: u64, queued_at: u64, granted_at: u64) -> Vec<ObsEvent> {
        vec![
            ev(
                queued_at,
                0,
                ObsEventKind::LockQueued {
                    object,
                    txn,
                    mode: ObsLockMode::Write,
                    waiters: 1,
                },
            ),
            ev(
                granted_at,
                0,
                ObsEventKind::LockGranted {
                    object,
                    txn,
                    mode: ObsLockMode::Write,
                    global: true,
                    holders: 1,
                },
            ),
        ]
    }

    #[test]
    fn lock_wait_histograms_and_contention_ranking() {
        let mut reg = MetricsRegistry::new();
        let mut events = lock_pair(3, 1, 0, 100);
        events.extend(lock_pair(3, 2, 10, 40));
        events.extend(lock_pair(8, 3, 0, 900));
        events.extend(lock_pair(5, 4, 0, 0));
        reg.feed(&events);
        assert_eq!(reg.counter("lock_queued", MetricLabel::Object(3)), 2);
        assert_eq!(reg.counter_total("lock_granted"), 4);
        let h = reg
            .histogram("lock_wait_ns", MetricLabel::Object(3))
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 130);
        let top = reg.top_object_contention(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].object, 8);
        assert_eq!(top[0].total_wait_ns, 900);
        assert_eq!(top[1].object, 3);
        assert_eq!(top[1].total_wait_ns, 130);
        assert_eq!(top[1].max_wait_ns, 100);
    }

    #[test]
    fn transfer_bytes_aggregate_across_gathers_and_demand_fetches() {
        let mut reg = MetricsRegistry::new();
        reg.feed(&[
            ev(
                0,
                1,
                ObsEventKind::GatherBatch {
                    family: 0,
                    object: 2,
                    source: 3,
                    pages: 2,
                    bytes: 8_192,
                    delay_ns: 100,
                },
            ),
            ev(
                5,
                1,
                ObsEventKind::DemandFetch {
                    family: 0,
                    object: 2,
                    page: 1,
                    source: 3,
                    bytes: 4_096,
                },
            ),
            ev(
                9,
                1,
                ObsEventKind::DemandFetch {
                    family: 0,
                    object: 2,
                    page: 2,
                    source: 0,
                    bytes: 4_096,
                },
            ),
        ]);
        let top = reg.top_node_transfer_bytes(8);
        assert_eq!(top, vec![(3, 12_288), (0, 4_096)]);
        assert_eq!(reg.counter("demand_fetches", MetricLabel::Object(2)), 2);
        let tables = reg.render_top_tables(4);
        assert!(tables.contains("transfer bytes"));
        assert!(tables.contains("12288"));
    }

    #[test]
    fn prediction_series_aggregate_per_method_under_stable_labels() {
        let mut reg = MetricsRegistry::new();
        reg.feed(&[
            ev(
                0,
                1,
                ObsEventKind::PredictionSample {
                    class: 0,
                    method: 1,
                    predicted: 4,
                    actual: 2,
                    true_positives: 2,
                },
            ),
            ev(
                5,
                2,
                ObsEventKind::PredictionSample {
                    class: 0,
                    method: 1,
                    predicted: 2,
                    actual: 4,
                    true_positives: 2,
                },
            ),
            ev(
                9,
                1,
                ObsEventKind::ProfileUpdate {
                    class: 0,
                    method: 1,
                    expanded: vec![5, 6],
                    shrunk: vec![3],
                    predicted: 3,
                    observations: 2,
                },
            ),
            ev(
                9,
                1,
                ObsEventKind::DemandBatch {
                    family: 0,
                    object: 2,
                    source: 3,
                    pages: vec![5, 6],
                    bytes: 8_192,
                    delay_ns: 100,
                },
            ),
        ]);
        // precision = 4/6, recall = 4/6 over both samples.
        let (p, r) = reg.method_precision_recall(0, 1).unwrap();
        assert!((p - 4.0 / 6.0).abs() < 1e-12);
        assert!((r - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(reg.method_precision_recall(0, 0), None);
        assert_eq!(reg.sampled_methods(), vec![(0, 1)]);
        let label = MetricLabel::Method {
            class: 0,
            method: 1,
        };
        assert_eq!(reg.counter("profile_expanded_pages", label), 2);
        assert_eq!(reg.counter("profile_shrunk_pages", label), 1);
        assert_eq!(
            reg.gauge("profile_predicted_pages", label).unwrap().value,
            3
        );
        // A batched demand fetch counts each page and the batch.
        assert_eq!(reg.counter("demand_fetches", MetricLabel::Object(2)), 2);
        assert_eq!(reg.counter("demand_batches", MetricLabel::Object(2)), 1);
        assert_eq!(reg.counter("transfer_bytes", MetricLabel::Node(3)), 8_192);
        // The label renders from schema indices only: stable across runs.
        assert_eq!(label.to_string(), "[class=0,method=1]");
        let json = reg.to_json();
        assert!(json
            .render_pretty()
            .contains("prediction_grants[class=0,method=1]"));
    }

    #[test]
    fn span_gauge_tracks_high_water_and_json_parses() {
        let mut reg = MetricsRegistry::new();
        let open = |txn| ObsEventKind::SpanOpen {
            family: 0,
            txn,
            parent: None,
            object: 0,
        };
        reg.feed(&[
            ev(0, 0, open(1)),
            ev(1, 0, open(2)),
            ev(
                2,
                0,
                ObsEventKind::SpanClose {
                    family: 0,
                    txn: 2,
                    outcome: SpanOutcome::PreCommit,
                },
            ),
            ev(
                3,
                0,
                ObsEventKind::SpanClose {
                    family: 0,
                    txn: 1,
                    outcome: SpanOutcome::Commit,
                },
            ),
        ]);
        assert_eq!(reg.counter("spans_opened", MetricLabel::Global), 2);
        assert_eq!(reg.counter("span_commits", MetricLabel::Global), 1);
        assert_eq!(reg.counter("span_pre_commits", MetricLabel::Global), 1);
        let gauge = reg.gauge("open_spans", MetricLabel::Global).unwrap();
        assert_eq!(gauge.value, 0);
        assert_eq!(gauge.max, 2);
        let json = reg.to_json();
        assert_eq!(Json::parse(&json.render_pretty()).unwrap(), json);
    }
}

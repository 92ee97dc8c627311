//! Structured observability for the LOTEC reproduction.
//!
//! The paper's evaluation (§5) is entirely about *attribution*: where do
//! lock-operation overhead, page propagation and misprediction-triggered
//! demand fetches spend their time and bytes? This crate provides the
//! probe layer that makes those questions answerable on any run:
//!
//! * [`EventSink`] / [`NoopSink`] / [`RecordingSink`] — the probe trait
//!   the engine is generic over. The no-op default monomorphizes to
//!   nothing (zero cost when disabled).
//! * [`ObsEvent`] — structured, sim-time-stamped events with primitive
//!   ids, so this crate sits below `txn`/`core` in the dependency graph.
//!   A probe site lends each event with [`Borrowed`] lists; sinks that
//!   keep it copy what they keep.
//! * [`export`] — lossless JSONL round-trip plus Chrome trace-event JSON
//!   loadable in Perfetto (one track per node, one slice per family
//!   phase, nested span slices per transaction tree, critical-path flow
//!   arrows).
//! * [`span`] — causal span trees mirroring the O2PL transaction tree,
//!   with typed annotations (lock waits with waits-for provenance, gather
//!   batches, demand fetches, retransmit stalls).
//! * [`critical_path`] — per-root-commit latency attribution: the edge
//!   chain that determined the commit latency, plus per-phase self-time.
//! * [`registry`] — hand-rolled counters, gauges and histograms keyed by
//!   `(metric, object/node label)`, fed from the sink, with top-K
//!   contention and transfer tables.
//! * [`sketch`] — [`QuantileSketch`], the one distribution type: run
//!   commit latencies, registry histograms and host-profiler self times.
//! * [`report`] — trace summarization: event census, phase-attributed
//!   time, prediction precision/recall, gather fan-out.
//! * [`json`] — the dependency-free JSON value type everything above (and
//!   the workload persistence layer) serializes through.
//!
//! A second, orthogonal plane measures the *host* rather than the model:
//!
//! * [`host`] — wall-clock self-profiling of the engine's hot regions
//!   ([`HostProfiler`] / [`NoopHostProfiler`] / [`WallProfiler`]), the
//!   same zero-cost-when-disabled shape as the sink layer.
//! * [`alloc`] — optional allocation accounting ([`CountingAlloc`]) that
//!   attributes allocator traffic to the profiled region that caused it.

#![warn(missing_docs)]

pub mod alloc;
pub mod critical_path;
pub mod event;
pub mod export;
pub mod forensics;
pub mod host;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod sink;
pub mod sketch;
pub mod span;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use critical_path::{
    critical_paths, critical_paths_json, partial_paths, CriticalPath, PathEdge, PathEdgeKind,
};
pub use event::{
    Borrowed, Lists, ObsEvent, ObsEventKind, ObsLockMode, ObsPhase, Owned, ReleaseCause,
    SpanOutcome, WireEnum,
};
pub use export::{chrome_trace, event_from_json, event_to_json, jsonl_decode, jsonl_encode};
pub use forensics::{find_cycle, Anomaly, FamilySnapshot, ForensicsDump, OccupancySnapshot};
pub use host::{
    HostProfile, HostProfiler, HostRegion, NoopHostProfiler, ProfiledSink, RegionStat, WallProfiler,
};
pub use json::{Json, JsonError};
pub use recorder::{CompactRecord, FlightRecorder};
pub use registry::{Gauge, MetricLabel, MetricsRegistry, ObjectContention};
pub use report::{PhaseTimes, PredictionTotals, TraceSummary};
pub use sink::{EventSink, NoopSink, RecordingSink};
pub use sketch::QuantileSketch;
pub use span::{Span, SpanAnnotation, SpanTree};

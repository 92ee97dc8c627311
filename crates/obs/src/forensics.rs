//! Post-mortem forensics dumps: what the engine writes when something
//! goes wrong.
//!
//! A [`ForensicsDump`] is a deterministic snapshot taken at an anomaly —
//! deadlock-victim selection, a lock timeout, crash repair, or a
//! serializability-oracle violation. It bundles:
//!
//! * the [`FlightRecorder`] ring (the most recent
//!   event history, oldest first, with eviction accounting),
//! * the live lock-table occupancy and family-level waits-for edges at
//!   capture time (the lock table's incremental graph, which its
//!   validation mode checks against the from-scratch reference detector
//!   after every mutation),
//! * per-family span state (phase + restart count), and
//! * the anomaly itself ([`Anomaly`]).
//!
//! Serialization is a JSONL pair: a header line carrying everything but
//! the events, then one line per ring event (the same wire format as
//! trace export, so existing tooling can replay the ring), plus a
//! Perfetto-loadable Chrome trace alongside. [`ForensicsDump::parse`]
//! inverts [`ForensicsDump::to_jsonl`] exactly; round-tripping is
//! asserted by `obs_report --forensics`.
//!
//! [`ForensicsDump::render_triage`] turns a dump into the human report:
//! the anomaly headline, the waits-for cycle reconstructed from the
//! dumped edges, contributing grants on the cycle's objects, and the
//! victim's causal chain walked backwards from the anomaly (reusing the
//! critical-path walker in partial-path mode).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::critical_path::partial_paths;
use crate::event::{FieldSink, FieldSource, ObsEvent, ObsEventKind, ObsPhase, WireEnum};
use crate::export::{chrome_trace, event_from_json, event_to_json, JsonFields};
use crate::json::{Json, JsonError};
use crate::recorder::FlightRecorder;

/// What went wrong. Each variant carries the identifiers triage needs to
/// anchor the causal chain.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// The deadlock detector found a waits-for cycle and chose a victim.
    DeadlockVictim {
        /// Root transaction ids forming the cycle, in detection order.
        cycle: Vec<u64>,
        /// Family indices of the cycle members, aligned with `cycle`.
        cycle_families: Vec<u64>,
        /// The victim root transaction.
        victim: u64,
        /// The victim's family index.
        family: u64,
    },
    /// A queued lock request waited past the configured timeout.
    LockTimeout {
        /// Object index.
        object: u32,
        /// The waiting (sub)transaction.
        txn: u64,
        /// The waiter's family index.
        family: u64,
        /// How long it had been queued, in sim nanoseconds.
        waited_ns: u64,
    },
    /// A node crashed and the GDO repaired page ownership around it.
    CrashRepair {
        /// The crashed node.
        node: u32,
        /// In-flight families crash-aborted with it.
        aborted_families: u32,
        /// Page-map entries repointed to surviving copies.
        repairs: u32,
    },
    /// The serializability oracle rejected a finished run.
    OracleViolation {
        /// The oracle's error message.
        detail: String,
    },
}

impl Anomaly {
    /// Stable wire name of the anomaly type.
    pub fn name(&self) -> &'static str {
        match self {
            Anomaly::DeadlockVictim { .. } => "deadlock_victim",
            Anomaly::LockTimeout { .. } => "lock_timeout",
            Anomaly::CrashRepair { .. } => "crash_repair",
            Anomaly::OracleViolation { .. } => "oracle_violation",
        }
    }

    /// One-line human headline for the triage report.
    pub fn headline(&self) -> String {
        match self {
            Anomaly::DeadlockVictim {
                cycle_families,
                family,
                ..
            } => {
                // The engine's cycle lists each member once (no closing
                // repeat), but dedup anyway in case a caller hands us the
                // closed form.
                let mut fams = cycle_families.clone();
                fams.sort_unstable();
                fams.dedup();
                format!(
                    "victim family {family} aborted to break a {}-family waits-for cycle",
                    fams.len().max(2)
                )
            }
            Anomaly::LockTimeout {
                object,
                txn,
                family,
                waited_ns,
            } => {
                format!("family {family}: T{txn} timed out after {waited_ns}ns queued on O{object}")
            }
            Anomaly::CrashRepair {
                node,
                aborted_families,
                repairs,
            } => format!(
                "node {node} crashed: {aborted_families} families aborted, \
                 {repairs} page-map entries repaired"
            ),
            Anomaly::OracleViolation { detail } => {
                format!("serializability oracle violation: {detail}")
            }
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![("type", Json::str(self.name()))];
        match self {
            Anomaly::DeadlockVictim {
                cycle,
                cycle_families,
                victim,
                family,
            } => {
                pairs.u64s("cycle", cycle);
                pairs.u64s("cycle_families", cycle_families);
                pairs.uint("victim", *victim);
                pairs.uint("family", *family);
            }
            Anomaly::LockTimeout {
                object,
                txn,
                family,
                waited_ns,
            } => {
                pairs.uint("object", (*object).into());
                pairs.uint("txn", *txn);
                pairs.uint("family", *family);
                pairs.uint("waited_ns", *waited_ns);
            }
            Anomaly::CrashRepair {
                node,
                aborted_families,
                repairs,
            } => {
                pairs.uint("node", (*node).into());
                pairs.uint("aborted_families", (*aborted_families).into());
                pairs.uint("repairs", (*repairs).into());
            }
            Anomaly::OracleViolation { detail } => {
                pairs.push(("detail", Json::str(detail)));
            }
        }
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> Result<Anomaly, JsonError> {
        let mut j = JsonFields(json);
        Ok(match j.str("type")? {
            "deadlock_victim" => Anomaly::DeadlockVictim {
                cycle: j.u64s("cycle")?,
                cycle_families: j.u64s("cycle_families")?,
                victim: j.u64("victim")?,
                family: j.u64("family")?,
            },
            "lock_timeout" => Anomaly::LockTimeout {
                object: j.u32("object")?,
                txn: j.u64("txn")?,
                family: j.u64("family")?,
                waited_ns: j.u64("waited_ns")?,
            },
            "crash_repair" => Anomaly::CrashRepair {
                node: j.u32("node")?,
                aborted_families: j.u32("aborted_families")?,
                repairs: j.u32("repairs")?,
            },
            "oracle_violation" => Anomaly::OracleViolation {
                detail: j.str("detail")?.to_string(),
            },
            other => return Err(JsonError::new(format!("unknown anomaly type `{other}`"))),
        })
    }
}

/// Lock-table occupancy at capture time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Holder-list entries across all objects.
    pub held: u32,
    /// Retainer-map entries across all objects.
    pub retained: u32,
    /// Queued (waiting) requests across all objects.
    pub waiting: u32,
}

/// One family's span state at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// Family index (workload order).
    pub family: u64,
    /// Coarse phase, `None` before the family's arrival.
    pub phase: Option<ObsPhase>,
    /// Restarts performed so far.
    pub restarts: u32,
}

/// A complete post-mortem snapshot. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsDump {
    /// Index of this dump within the run (anomalies beyond the per-run
    /// cap are counted but not captured).
    pub seq: u64,
    /// Sim time of the anomaly, nanoseconds.
    pub at_ns: u64,
    /// What went wrong.
    pub anomaly: Anomaly,
    /// Total events ever emitted into the recorder.
    pub recorded: u64,
    /// Events evicted by ring wraparound before capture.
    pub dropped: u64,
    /// Lock-table occupancy at capture.
    pub occupancy: OccupancySnapshot,
    /// Family-level waits-for edges at capture: `(waiter_root,
    /// blocker_roots)`, sorted by waiter.
    pub waits_for: Vec<(u64, Vec<u64>)>,
    /// Root-transaction → family-index mapping for every edge endpoint.
    pub root_families: Vec<(u64, u64)>,
    /// Per-family span state at capture, sorted by family.
    pub families: Vec<FamilySnapshot>,
    /// The ring snapshot, oldest first.
    pub events: Vec<ObsEvent>,
}

impl ForensicsDump {
    /// A post-run dump for a serializability-oracle violation: by the
    /// time the oracle runs the engine (and its lock table) is gone, so
    /// the dump carries the recorder's ring and the violation detail but
    /// no live occupancy or waits-for edges. Timestamped at the ring's
    /// newest event.
    pub fn oracle_violation(detail: String, recorder: &FlightRecorder) -> ForensicsDump {
        let events = recorder.snapshot();
        ForensicsDump {
            seq: 0,
            at_ns: events.last().map_or(0, |e| e.at.as_nanos()),
            anomaly: Anomaly::OracleViolation { detail },
            recorded: recorder.recorded(),
            dropped: recorder.dropped(),
            occupancy: OccupancySnapshot::default(),
            waits_for: Vec::new(),
            root_families: Vec::new(),
            families: Vec::new(),
            events,
        }
    }

    /// The dump header (everything but the per-event lines) as JSON.
    fn header_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("forensics")),
            ("seq", Json::U64(self.seq)),
            ("at_ns", Json::U64(self.at_ns)),
            ("anomaly", self.anomaly.to_json()),
            ("recorded", Json::U64(self.recorded)),
            ("dropped", Json::U64(self.dropped)),
            (
                "occupancy",
                Json::obj(vec![
                    ("held", Json::U64(u64::from(self.occupancy.held))),
                    ("retained", Json::U64(u64::from(self.occupancy.retained))),
                    ("waiting", Json::U64(u64::from(self.occupancy.waiting))),
                ]),
            ),
            (
                "waits_for",
                Json::Arr(
                    self.waits_for
                        .iter()
                        .map(|(waiter, blockers)| {
                            let mut edge = vec![("waiter", Json::U64(*waiter))];
                            edge.u64s("blockers", blockers);
                            Json::obj(edge)
                        })
                        .collect(),
                ),
            ),
            (
                "root_families",
                Json::Arr(
                    self.root_families
                        .iter()
                        .map(|(root, family)| Json::Arr(vec![Json::U64(*root), Json::U64(*family)]))
                        .collect(),
                ),
            ),
            (
                "families",
                Json::Arr(
                    self.families
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("family", Json::U64(f.family)),
                                ("phase", f.phase.map_or(Json::Null, |p| Json::str(p.name()))),
                                ("restarts", Json::U64(u64::from(f.restarts))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("events", Json::U64(self.events.len() as u64)),
        ])
    }

    /// Serializes the dump: one header line, then one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.header_json().render();
        out.push('\n');
        for event in &self.events {
            out.push_str(&event_to_json(event).render());
            out.push('\n');
        }
        out
    }

    /// Parses a dump serialized by [`ForensicsDump::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or a header/event-count
    /// mismatch.
    pub fn parse(text: &str) -> Result<ForensicsDump, JsonError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = Json::parse(
            lines
                .next()
                .ok_or_else(|| JsonError::new("empty forensics dump"))?,
        )?;
        if header.get("kind").and_then(Json::as_str) != Some("forensics") {
            return Err(JsonError::new("not a forensics dump (missing kind header)"));
        }
        let mut h = JsonFields(&header);
        let mut occ = JsonFields(header.require("occupancy")?);
        let occupancy = OccupancySnapshot {
            held: occ.u32("held")?,
            retained: occ.u32("retained")?,
            waiting: occ.u32("waiting")?,
        };
        let waits_for = h
            .array("waits_for")?
            .iter()
            .map(|edge| {
                let mut edge = JsonFields(edge);
                Ok((edge.u64("waiter")?, edge.u64s("blockers")?))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let root_families = h
            .array("root_families")?
            .iter()
            .map(|pair| match pair.as_array() {
                Some([root, family]) => root.as_u64().zip(family.as_u64()),
                _ => None,
            })
            .map(|pair| {
                pair.ok_or_else(|| JsonError::new("`root_families` entries must be u64 pairs"))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let families = h
            .array("families")?
            .iter()
            .map(|f| {
                let mut f = JsonFields(f);
                Ok(FamilySnapshot {
                    family: f.u64("family")?,
                    phase: match f.0.require("phase")? {
                        Json::Null => None,
                        _ => Some(f.wire("phase")?),
                    },
                    restarts: f.u32("restarts")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let expected_events = h.u64("events")?;
        let events = lines
            .map(|line| event_from_json(&Json::parse(line)?))
            .collect::<Result<Vec<_>, JsonError>>()?;
        if events.len() as u64 != expected_events {
            return Err(JsonError::new(format!(
                "header promises {expected_events} events, dump carries {}",
                events.len()
            )));
        }
        Ok(ForensicsDump {
            seq: h.u64("seq")?,
            at_ns: h.u64("at_ns")?,
            anomaly: Anomaly::from_json(header.require("anomaly")?)?,
            recorded: h.u64("recorded")?,
            dropped: h.u64("dropped")?,
            occupancy,
            waits_for,
            root_families,
            families,
            events,
        })
    }

    /// Writes the dump pair next to `stem`: `<stem>.jsonl` (the parseable
    /// dump) and `<stem>.chrome.json` (the ring as a Perfetto-loadable
    /// Chrome trace). Returns both paths.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the parent directory or
    /// writing either file.
    pub fn write_pair(&self, stem: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        if let Some(dir) = stem.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let jsonl = stem.with_extension("jsonl");
        let chrome = stem.with_extension("chrome.json");
        std::fs::write(&jsonl, self.to_jsonl())?;
        std::fs::write(&chrome, chrome_trace(&self.events).render_pretty())?;
        Ok((jsonl, chrome))
    }

    /// Family index of a root transaction, when the dump knows it.
    fn family_of_root(&self, root: u64) -> Option<u64> {
        self.root_families
            .iter()
            .find(|(r, _)| *r == root)
            .map(|(_, f)| *f)
    }

    /// The family the anomaly anchors to, when it has one.
    pub fn anchor_family(&self) -> Option<u64> {
        match &self.anomaly {
            Anomaly::DeadlockVictim { family, .. } | Anomaly::LockTimeout { family, .. } => {
                Some(*family)
            }
            _ => None,
        }
    }

    /// Renders the human triage report. See the [module docs](self).
    pub fn render_triage(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== forensics triage (dump #{}) ===", self.seq);
        let _ = writeln!(
            out,
            "anomaly: {} at t={}ns",
            self.anomaly.headline(),
            self.at_ns
        );
        if let Anomaly::DeadlockVictim {
            cycle,
            cycle_families,
            victim,
            ..
        } = &self.anomaly
        {
            let fams: Vec<String> = cycle_families.iter().map(|f| f.to_string()).collect();
            let roots: Vec<String> = cycle.iter().map(|r| format!("T{r}")).collect();
            let _ = writeln!(
                out,
                "cycle: family {} (roots {}) formed at t={}ns; victim root T{victim}",
                fams.join(" -> "),
                roots.join(" -> "),
                self.at_ns
            );
        }
        let _ = writeln!(
            out,
            "lock table at capture: {} held / {} retained / {} waiting",
            self.occupancy.held, self.occupancy.retained, self.occupancy.waiting
        );
        if !self.waits_for.is_empty() {
            let _ = writeln!(out, "waits-for edges at capture (family-level roots):");
            for (waiter, blockers) in &self.waits_for {
                let pretty: Vec<String> = blockers
                    .iter()
                    .map(|b| match self.family_of_root(*b) {
                        Some(f) => format!("T{b}(F{f})"),
                        None => format!("T{b}"),
                    })
                    .collect();
                let waiter_fam = self
                    .family_of_root(*waiter)
                    .map_or(String::new(), |f| format!("(F{f})"));
                let _ = writeln!(out, "  T{waiter}{waiter_fam} -> [{}]", pretty.join(", "));
            }
            match find_cycle(&self.waits_for) {
                Some(cycle) => {
                    let pretty: Vec<String> = cycle
                        .iter()
                        .map(|r| match self.family_of_root(*r) {
                            Some(f) => format!("F{f}"),
                            None => format!("T{r}"),
                        })
                        .collect();
                    let matches = match &self.anomaly {
                        Anomaly::DeadlockVictim { cycle: c, .. } => {
                            // Rotations (and a possible closing repeat)
                            // don't matter; compare as vertex sets.
                            let mut a: Vec<u64> = cycle.clone();
                            let mut b: Vec<u64> = c.clone();
                            a.sort_unstable();
                            a.dedup();
                            b.sort_unstable();
                            b.dedup();
                            if a == b {
                                "yes"
                            } else {
                                "NO"
                            }
                        }
                        _ => "n/a",
                    };
                    let _ = writeln!(
                        out,
                        "cycle reconstructed from dumped edges: {} -> {} \
                         (matches anomaly: {matches})",
                        pretty.join(" -> "),
                        pretty.first().map(String::as_str).unwrap_or("?")
                    );
                }
                None => {
                    let _ = writeln!(out, "no cycle among dumped edges");
                }
            }
        }
        // Contributing grants: the most recent grants held by the cycle's
        // (or anchor family's) transactions — the acquisitions that built
        // the deadlock, newest last.
        let cycle_roots: Vec<u64> = match &self.anomaly {
            Anomaly::DeadlockVictim { cycle, .. } => {
                let mut roots = cycle.clone();
                roots.sort_unstable();
                roots.dedup();
                roots
            }
            Anomaly::LockTimeout { txn, .. } => vec![*txn],
            _ => Vec::new(),
        };
        if !cycle_roots.is_empty() {
            let grants: Vec<&ObsEvent> = self
                .events
                .iter()
                .filter(|e| {
                    matches!(&e.kind, ObsEventKind::LockGranted { txn, .. }
                        if cycle_roots.contains(txn))
                })
                .collect();
            if !grants.is_empty() {
                let _ = writeln!(out, "contributing grants (cycle members, newest last):");
                for event in grants.iter().rev().take(8).rev() {
                    if let ObsEventKind::LockGranted {
                        object,
                        txn,
                        mode,
                        global,
                        ..
                    } = &event.kind
                    {
                        let _ = writeln!(
                            out,
                            "  t={}ns T{txn} granted O{object} ({}, {})",
                            event.at.as_nanos(),
                            mode.name(),
                            if *global { "global" } else { "local" }
                        );
                    }
                }
            }
        }
        // The causal chain: the anchor family's partial critical path,
        // walked backwards from the anomaly.
        if let Some(anchor) = self.anchor_family() {
            let cutoff = lotec_sim::SimTime::from_nanos(self.at_ns);
            let paths = partial_paths(&self.events, cutoff);
            match paths.iter().find(|p| p.family == anchor) {
                Some(path) => {
                    let _ = writeln!(
                        out,
                        "causal chain for family {anchor}, backwards from the anomaly:"
                    );
                    for edge in path.edges.iter().rev() {
                        let _ = writeln!(
                            out,
                            "  t=[{}..{}]ns {:<15} ({}ns)",
                            edge.start.as_nanos(),
                            edge.end.as_nanos(),
                            edge.kind.name(),
                            edge.duration().as_nanos()
                        );
                    }
                }
                None => {
                    let _ = writeln!(
                        out,
                        "causal chain for family {anchor}: no events in the ring \
                         (history evicted; enlarge flight_recorder.slots)"
                    );
                }
            }
        }
        // Family phase census.
        if !self.families.is_empty() {
            let mut census: BTreeMap<&str, u32> = BTreeMap::new();
            for f in &self.families {
                *census
                    .entry(f.phase.map_or("not-started", |p| p.name()))
                    .or_default() += 1;
            }
            let parts: Vec<String> = census
                .iter()
                .map(|(phase, n)| format!("{n} {phase}"))
                .collect();
            let _ = writeln!(out, "families at capture: {}", parts.join(" / "));
        }
        let _ = writeln!(
            out,
            "ring: {} events captured ({} recorded, {} dropped)",
            self.events.len(),
            self.recorded,
            self.dropped
        );
        out
    }
}

/// Finds a waits-for cycle in dumped `(waiter, blockers)` edges via
/// deterministic DFS from the smallest waiter. Returns the cycle's
/// vertices rotated to start at the smallest member, without the closing
/// repeat. `None` when the edge set is acyclic.
pub fn find_cycle(edges: &[(u64, Vec<u64>)]) -> Option<Vec<u64>> {
    let graph: BTreeMap<u64, &Vec<u64>> = edges.iter().map(|(w, b)| (*w, b)).collect();
    // Iterative DFS with an explicit path stack; visits neighbors in the
    // dumped (deterministic) order.
    let mut done: std::collections::BTreeSet<u64> = Default::default();
    for &start in graph.keys() {
        if done.contains(&start) {
            continue;
        }
        let mut path: Vec<u64> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        while let (Some(&node), Some(next)) = (path.last(), iters.last_mut()) {
            let neighbors = graph.get(&node).map(|b| b.as_slice()).unwrap_or(&[]);
            if *next >= neighbors.len() {
                done.insert(node);
                path.pop();
                iters.pop();
                if let Some(i) = iters.last_mut() {
                    *i += 1;
                }
                continue;
            }
            let neighbor = neighbors[*next];
            if let Some(pos) = path.iter().position(|&n| n == neighbor) {
                let mut cycle: Vec<u64> = path[pos..].to_vec();
                // Rotate to start at the smallest member for a canonical
                // representation.
                let min_at = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &v)| v)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(min_at);
                return Some(cycle);
            }
            if done.contains(&neighbor) {
                *next += 1;
                continue;
            }
            path.push(neighbor);
            iters.push(0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_sim::SimTime;

    fn sample_dump() -> ForensicsDump {
        ForensicsDump {
            seq: 0,
            at_ns: 4000,
            anomaly: Anomaly::DeadlockVictim {
                cycle: vec![10, 20, 10],
                cycle_families: vec![1, 2, 1],
                victim: 20,
                family: 2,
            },
            recorded: 5,
            dropped: 0,
            occupancy: OccupancySnapshot {
                held: 2,
                retained: 1,
                waiting: 2,
            },
            waits_for: vec![(10, vec![20]), (20, vec![10])],
            root_families: vec![(10, 1), (20, 2)],
            families: vec![
                FamilySnapshot {
                    family: 1,
                    phase: Some(ObsPhase::LockWait),
                    restarts: 0,
                },
                FamilySnapshot {
                    family: 2,
                    phase: Some(ObsPhase::LockWait),
                    restarts: 1,
                },
            ],
            events: vec![
                ObsEvent {
                    at: SimTime::from_nanos(1000),
                    node: 0,
                    kind: ObsEventKind::SpanOpen {
                        family: 2,
                        txn: 20,
                        parent: None,
                        object: 4,
                    },
                },
                ObsEvent {
                    at: SimTime::from_nanos(1500),
                    node: 0,
                    kind: ObsEventKind::PhaseEnter {
                        family: 2,
                        phase: ObsPhase::LockWait,
                    },
                },
                ObsEvent {
                    at: SimTime::from_nanos(2000),
                    node: 0,
                    kind: ObsEventKind::LockGranted {
                        object: 4,
                        txn: 20,
                        mode: crate::event::ObsLockMode::Write,
                        global: true,
                        holders: 1,
                    },
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let dump = sample_dump();
        let text = dump.to_jsonl();
        let parsed = ForensicsDump::parse(&text).expect("parses");
        assert_eq!(parsed, dump);
        // Byte-exact re-render: parse ∘ render is the identity.
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn parse_rejects_wrong_event_count() {
        let dump = sample_dump();
        let mut text = dump.to_jsonl();
        let cut = text.rfind('\n').unwrap();
        let cut = text[..cut].rfind('\n').unwrap();
        text.truncate(cut + 1);
        assert!(ForensicsDump::parse(&text).is_err());
    }

    #[test]
    fn parse_rejects_out_of_range_and_mistyped_fields() {
        // A dump comes from outside the program: a field that does not
        // fit its type is refused with an error naming it, never
        // truncated or defaulted.
        let timeout = ForensicsDump {
            anomaly: Anomaly::LockTimeout {
                object: 4,
                txn: 20,
                family: 2,
                waited_ns: 500,
            },
            ..sample_dump()
        };
        let oracle = ForensicsDump {
            anomaly: Anomaly::OracleViolation {
                detail: "chains differ".into(),
            },
            ..sample_dump()
        };
        for (dump, from, to, key) in [
            (
                &timeout,
                r#""object":4,"#,
                r#""object":4294967297,"#,
                "`object`",
            ),
            (&timeout, r#""held":2"#, r#""held":4294967296"#, "`held`"),
            (
                &timeout,
                r#""restarts":1"#,
                r#""restarts":4294967298"#,
                "`restarts`",
            ),
            (
                &oracle,
                r#""detail":"chains differ""#,
                r#""detail":42"#,
                "`detail`",
            ),
        ] {
            let text = dump.to_jsonl();
            let (header, events) = text.split_once('\n').unwrap();
            assert!(header.contains(from), "{from} not in {header}");
            let tampered = format!("{}\n{events}", header.replacen(from, to, 1));
            let err = ForensicsDump::parse(&tampered).unwrap_err().to_string();
            assert!(err.contains(key), "{to}: {err}");
        }
    }

    #[test]
    fn triage_names_the_victim_and_cycle() {
        let triage = sample_dump().render_triage();
        assert!(triage.contains("victim family 2"), "{triage}");
        assert!(
            triage.contains("cycle reconstructed from dumped edges"),
            "{triage}"
        );
        assert!(triage.contains("matches anomaly: yes"), "{triage}");
        assert!(triage.contains("contributing grants"), "{triage}");
        assert!(triage.contains("causal chain for family 2"), "{triage}");
    }

    #[test]
    fn find_cycle_handles_cycles_and_dags() {
        assert_eq!(
            find_cycle(&[(10, vec![20]), (20, vec![10])]),
            Some(vec![10, 20])
        );
        assert_eq!(
            find_cycle(&[(3, vec![7]), (7, vec![9]), (9, vec![3])]),
            Some(vec![3, 7, 9])
        );
        assert_eq!(find_cycle(&[(1, vec![2]), (2, vec![3])]), None);
        assert_eq!(find_cycle(&[]), None);
        // A diamond without a cycle must not false-positive on the
        // revisited node.
        assert_eq!(
            find_cycle(&[(1, vec![2, 3]), (2, vec![4]), (3, vec![4])]),
            None
        );
    }
}

//! In-memory span log around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end on the process's monotonic clock,
//! the span that encloses it, and the cell it belongs to (every span of
//! one cell shares the cell's id). Spans stay in memory while the
//! benchmark runs and are written once at exit: as JSONL, one span per
//! line, and as a Chrome trace loadable in Perfetto. A span's self time is
//! its duration minus the part covered by its children.

use std::time::Instant;

use lotec_obs::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Layer-qualified name, e.g. `core.engine_run`.
    pub name: &'static str,
    /// Cell this span belongs to.
    pub cell: u32,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Free-form qualifier (the protocol of a replay span).
    pub arg: Option<&'static str>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log of one benchmark process.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub(crate) fn enter(&mut self, name: &'static str, cell: u32, arg: Option<&'static str>) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            arg,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub(crate) fn exit(&mut self) {
        let now = self.now_ns();
        let idx = self.open.pop().expect("SpanLog::exit with no open span");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub(crate) fn time<R>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> R) -> R {
        self.time_arg(name, cell, None, f)
    }

    /// Runs `f` inside a span carrying `arg`.
    pub(crate) fn time_arg<R>(
        &mut self,
        name: &'static str,
        cell: u32,
        arg: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, cell, arg);
        let r = f();
        self.exit();
        r
    }

    /// Total seconds spent in spans named `name` of cell `cell`.
    pub(crate) fn seconds(&self, cell: u32, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .rev()
            .take_while(|s| s.cell >= cell)
            .filter(|s| s.cell == cell && s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover, index-aligned with [`SpanLog::spans`].
    pub(crate) fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let json = Json::obj(vec![
                ("id", Json::U64(i as u64)),
                ("name", Json::str(s.name)),
                ("cell", Json::U64(u64::from(s.cell))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("self_ns", Json::U64(self_ns)),
                ("arg", s.arg.map_or(Json::Null, Json::str)),
            ]);
            out.push_str(&json.render());
            out.push('\n');
        }
        out
    }

    /// Chrome trace-event document: one complete (`X`) event per span on
    /// a single track, so nesting shows as stacked slices.
    pub fn to_chrome(&self, process: &str) -> Json {
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::U64(1)),
            ("args", Json::obj(vec![("name", Json::str(process))])),
        ])];
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let mut args = vec![
                ("cell", Json::U64(u64::from(s.cell))),
                ("self_us", Json::F64(self_ns as f64 / 1e3)),
            ];
            if let Some(arg) = s.arg {
                args.push(("arg", Json::str(arg)));
            }
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64(s.duration_ns() as f64 / 1e3)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        log.enter("cell", 1, None);
        log.time("child", 1, log_sleep);
        log.exit();
        let spans = &log.spans;
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = log.self_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(self_ns[1], spans[1].duration_ns());
        assert!(log.seconds(1, "child") >= 1e-3);
        assert_eq!(log.seconds(2, "child"), 0.0);
    }

    #[test]
    fn exports_parse_back() {
        let mut log = SpanLog::new();
        log.enter("cell", 3, None);
        log.time_arg("core.replay", 3, Some("LOTEC"), || ());
        log.exit();
        let lines: Vec<Json> = log
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).expect("valid JSONL"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[1].get("arg").and_then(Json::as_str), Some("LOTEC"));
        let chrome = Json::parse(&log.to_chrome("bench").render()).expect("valid JSON");
        let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 3, "metadata + two slices");
    }

    fn log_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

//! Event sinks: where probes deliver their events.
//!
//! The engine is generic over [`EventSink`], defaulting to [`NoopSink`].
//! Because `NoopSink::enabled` is a `const false` and every emission is
//! guarded by `sink.enabled()`, the disabled configuration monomorphizes
//! to *zero* instructions — no branch, no allocation, no event
//! construction. That is the zero-overhead-when-disabled guarantee
//! DESIGN.md documents; a property test (`tests/obs_trace.rs` in the
//! facade crate) additionally proves that *enabling* a recording sink
//! changes no simulation outcome.

use crate::event::ObsEvent;
use crate::recorder::FlightRecorder;

/// Receives structured events from the instrumented engine.
pub trait EventSink {
    /// Cheap gate consulted before an event is even constructed.
    ///
    /// Implementations should make this a constant so the optimizer can
    /// delete disabled probe sites entirely.
    fn enabled(&self) -> bool;

    /// Delivers one event. Only called when [`EventSink::enabled`] is true
    /// (probe sites guard on it), but implementations must tolerate being
    /// called anyway.
    fn emit(&mut self, event: ObsEvent);

    /// The [`FlightRecorder`] behind this sink, when there is one.
    ///
    /// The engine's forensics path uses this to snapshot the recent event
    /// history on anomaly; the default (`None`) means forensics capture is
    /// silently skipped — no recorder, no black box to dump.
    fn recorder(&self) -> Option<&FlightRecorder> {
        None
    }
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _event: ObsEvent) {}
}

/// A sink that buffers every event in memory, in emission order.
///
/// Emission order is deterministic (the simulator is), so two runs with
/// the same seed record byte-identical traces.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Vec<ObsEvent>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<ObsEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for RecordingSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: ObsEvent) {
        self.events.push(event);
    }
}

/// Forwarding impl so callers can lend a sink to the engine (`&mut sink`)
/// and keep ownership of the recorded events after the run.
impl<T: EventSink + ?Sized> EventSink for &mut T {
    #[inline(always)]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline(always)]
    fn emit(&mut self, event: ObsEvent) {
        (**self).emit(event);
    }

    #[inline(always)]
    fn recorder(&self) -> Option<&FlightRecorder> {
        (**self).recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObsEventKind, ObsPhase};
    use lotec_sim::SimTime;

    fn sample(at: u64) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_nanos(at),
            node: 0,
            kind: ObsEventKind::PhaseEnter {
                family: 1,
                phase: ObsPhase::Running,
            },
        }
    }

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.emit(sample(5));
    }

    #[test]
    fn recording_preserves_order() {
        let mut sink = RecordingSink::new();
        assert!(sink.is_empty());
        for at in [3u64, 1, 2] {
            sink.emit(sample(at));
        }
        assert_eq!(sink.len(), 3);
        let ats: Vec<u64> = sink.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(ats, vec![3, 1, 2]);
    }

    #[test]
    fn borrowed_sink_forwards() {
        let mut sink = RecordingSink::new();
        {
            let lent = &mut sink;
            assert!(lent.enabled());
            lent.emit(sample(9));
        }
        assert_eq!(sink.len(), 1);
    }
}

//! Discrete-event simulation kernel for the LOTEC reproduction.
//!
//! This crate is the bottom of the workspace dependency graph. It provides
//! the small set of primitives every other subsystem builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with nanosecond
//!   resolution (the paper sweeps software message costs down to 500 ns, so
//!   nanoseconds are the natural unit),
//! * [`NodeId`] — the identity of a simulated site (processor/workstation),
//! * [`EventQueue`] — a deterministic future-event list,
//! * [`KeyedLists`] — many short per-key FIFO lists sharing one recycled
//!   node arena (per-transaction bookkeeping without a vector each),
//! * [`Simulator`] — clock + queue glue with run-loop helpers,
//! * [`SimRng`] — a small, fully deterministic PRNG (xoshiro256**) so that
//!   every experiment is reproducible from a single seed,
//! * [`FaultPlan`] — a seeded fault-injection schedule (message loss,
//!   duplication, delay, node crash windows) interpreted by upper layers.
//!
//! # Example
//!
//! ```
//! use lotec_sim::{Simulator, SimDuration};
//!
//! let mut sim: Simulator<&'static str> = Simulator::new();
//! sim.schedule_in(SimDuration::from_micros(5), "second");
//! sim.schedule_in(SimDuration::from_micros(1), "first");
//! let (t1, e1) = sim.next_event().unwrap();
//! assert_eq!(e1, "first");
//! assert_eq!(t1, sim.now());
//! let (_, e2) = sim.next_event().unwrap();
//! assert_eq!(e2, "second");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod lists;
pub mod rng;
pub mod slab;
pub mod time;

mod node;

pub use event::EventQueue;
pub use fault::{CrashWindow, FaultPlan};
pub use lists::KeyedLists;
pub use node::NodeId;
pub use rng::SimRng;
pub use slab::Slab;
pub use time::{SimDuration, SimTime};

/// A discrete-event simulator: a virtual clock plus a future-event list.
///
/// `Simulator` is deliberately minimal: it owns the clock and the queue and
/// guarantees that events are delivered in non-decreasing time order with
/// deterministic FIFO tie-breaking. Domain logic (what an event *means*)
/// lives in the crates layered on top.
#[derive(Debug, Clone)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    delivered: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` after a relative delay from the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` once the queue is exhausted.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now);
        self.now = t;
        self.delivered += 1;
        Some((t, e))
    }

    /// Runs the simulation to completion, calling `handler` for each event.
    ///
    /// The handler receives `&mut Simulator` so it can schedule follow-up
    /// events. Returns the number of events processed.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, SimTime, E)) -> u64 {
        let start = self.delivered;
        while let Some((t, e)) = self.next_event() {
            handler(self, t, e);
        }
        self.delivered - start
    }

    /// Runs until the clock would pass `deadline`; events at exactly
    /// `deadline` are still delivered. Returns `true` if the queue drained.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Self, SimTime, E),
    ) -> bool {
        loop {
            match self.queue.peek_time() {
                None => return true,
                Some(t) if t > deadline => return false,
                Some(_) => {
                    let (t, e) = self.next_event().expect("peeked event vanished");
                    handler(self, t, e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let sim: Simulator<u32> = Simulator::new();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.is_idle());
    }

    #[test]
    fn events_delivered_in_time_order() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(30), 3);
        sim.schedule_at(SimTime::from_nanos(10), 1);
        sim.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_broken_fifo() {
        let mut sim: Simulator<u32> = Simulator::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.next_event().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule_in(SimDuration::from_micros(7), ());
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t, SimTime::from_nanos(7_000));
        assert_eq!(sim.now(), t);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.next_event();
        sim.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn run_processes_cascading_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(1), 0);
        let n = sim.run(|sim, _, depth| {
            if depth < 9 {
                sim.schedule_in(SimDuration::from_nanos(1), depth + 1);
            }
        });
        assert_eq!(n, 10);
        assert_eq!(sim.now(), SimTime::from_nanos(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 1..=10 {
            sim.schedule_at(SimTime::from_nanos(i * 10), i as u32);
        }
        let mut seen = Vec::new();
        let drained = sim.run_until(SimTime::from_nanos(50), |_, _, e| seen.push(e));
        assert!(!drained);
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        // Events at exactly the deadline are delivered; the rest remain.
        assert_eq!(sim.pending(), 5);
        let drained = sim.run_until(SimTime::from_nanos(1_000), |_, _, e| seen.push(e));
        assert!(drained);
        assert_eq!(seen.len(), 10);
    }
}

//! LOTEC — Lazy Object Transactional Entry Consistency.
//!
//! This crate is the paper's primary contribution: the LOTEC DSM
//! consistency protocol for nested object transactions, its two in-paper
//! baselines (COTEC and OTEC), the release-consistency extension the paper
//! lists as work-in-progress (RC), and the simulated distributed execution
//! engine used to evaluate them.
//!
//! ## The protocol suite (paper §5)
//!
//! All four protocols share nested O2PL locking (crate `lotec-txn`); they
//! differ only in *which pages move, when*:
//!
//! | Protocol | Pages transferred on lock acquisition | Eager pushes |
//! |----------|----------------------------------------|--------------|
//! | COTEC    | every page of the object               | none         |
//! | OTEC     | pages updated since the acquirer's copy | none        |
//! | LOTEC    | updated ∩ predicted-needed pages        | none         |
//! | RC       | only never-seen pages                   | updates to all caching sites at root commit |
//!
//! ## Two evaluation paths
//!
//! * [`engine::Engine`] — a full discrete-event simulation: families of
//!   nested transactions execute at their sites, lock traffic flows to GDO
//!   partitions, pages move with realistic message timing, faults and
//!   deadlocks abort and restart families. One protocol per run.
//! * [`replay`] — the figure-generation path: one engine run records a
//!   [`trace::ScheduleTrace`] (every grant and commit); the trace is then
//!   replayed through each protocol's [`placement::PlacementModel`] to
//!   count exactly the bytes/messages each protocol *would* send for the
//!   identical transaction schedule. This is the fair same-workload
//!   comparison the paper's Figures 2–8 report, and because the lock
//!   schedule is shared, byte differences are purely protocol effects.
//!
//! The two paths drive one set of rules. Both take the acquisition
//! decisions (prefetch set, transfer plan, demand set) from [`protocol`]
//! and build every message in one crate-private charging module, so
//! replaying a run's own trace under the run's configuration charges
//! exactly the engine's ledger; the engine adds only timing, lossy
//! delivery, probes and page content.
//!
//! Correctness is checked by [`oracle`]: strict O2PL makes every execution
//! equivalent to the serial execution in root-commit order, so the oracle
//! re-executes the committed stamps serially and verifies every page chain
//! and every recorded read.
//!
//! # Quickstart
//!
//! ```
//! use lotec_core::compare::compare_protocols;
//! use lotec_core::config::SystemConfig;
//! use lotec_core::spec::demo_workload;
//!
//! let config = SystemConfig::default();
//! let (registry, families) = demo_workload(&config, 42);
//! let cmp = compare_protocols(&config, &registry, &families).unwrap();
//! let lotec = cmp.total(lotec_core::protocol::ProtocolKind::Lotec).bytes;
//! let otec = cmp.total(lotec_core::protocol::ProtocolKind::Otec).bytes;
//! let cotec = cmp.total(lotec_core::protocol::ProtocolKind::Cotec).bytes;
//! assert!(lotec <= otec && otec <= cotec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod charge;
pub mod compare;
pub mod config;
pub mod engine;
pub mod error;
pub mod granularity;
pub mod metrics;
pub mod oracle;
pub mod placement;
pub mod protocol;
pub mod replay;
pub mod spec;
pub mod trace;

pub use compare::{compare_protocols, ProtocolComparison};
pub use config::{AdaptiveConfig, CostModel, FlightRecorderConfig, SystemConfig};
pub use engine::{Engine, RunReport};
pub use error::CoreError;
pub use protocol::ProtocolKind;
pub use spec::{FamilySpec, InvocationSpec};
pub use trace::ScheduleTrace;

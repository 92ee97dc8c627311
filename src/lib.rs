//! # LOTEC — Lazy Object Transactional Entry Consistency
//!
//! A from-scratch reproduction of *Graham & Sui, "LOTEC: A Simple DSM
//! Consistency Protocol for Nested Object Transactions" (PODC 1999)*:
//! a software-only, page-based DSM consistency protocol for nested object
//! transactions, together with every substrate its evaluation needs —
//! a discrete-event cluster simulator, a network cost model, a versioned
//! page store with undo/shadow recovery, an object model with
//! compiler-style conservative access prediction, a nested object
//! two-phase-locking (O2PL) manager with a global directory of objects
//! (GDO), the in-paper baselines COTEC and OTEC, a release-consistency
//! extension, and a randomized workload generator regenerating every
//! figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! names so applications need a single dependency.
//!
//! ## Quickstart
//!
//! ```
//! use lotec::prelude::*;
//!
//! // Generate a paper workload (quick variant) and compare protocols
//! // on the identical transaction schedule.
//! let scenario = lotec::workload::presets::quick(lotec::workload::presets::fig2());
//! let (registry, families) = scenario.generate()?;
//! let config = scenario.system_config();
//! let cmp = compare_protocols(&config, &registry, &families)?;
//!
//! let lotec = cmp.total(ProtocolKind::Lotec).bytes;
//! let otec = cmp.total(ProtocolKind::Otec).bytes;
//! let cotec = cmp.total(ProtocolKind::Cotec).bytes;
//! assert!(lotec <= otec && otec <= cotec);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Layout
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`sim`] | discrete-event kernel: virtual time, event queue, RNG |
//! | [`net`] | bandwidth/software-cost model, message sizing, ledgers |
//! | [`mem`] | pages, versions, per-node stores, undo/shadow recovery |
//! | [`object`] | classes, methods, layouts, conservative prediction |
//! | [`txn`] | transaction trees, nested O2PL, GDO entries, deadlock |
//! | [`core`] | the protocols, the engine, replay comparison, oracle |
//! | [`workload`] | randomized scenario generation, figure presets |
//! | [`obs`] | event probes, trace summaries, JSONL/Chrome export |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lotec_core as core;
pub use lotec_mem as mem;
pub use lotec_net as net;
pub use lotec_object as object;
pub use lotec_obs as obs;
pub use lotec_sim as sim;
pub use lotec_txn as txn;
pub use lotec_workload as workload;

/// The most common imports, in one place.
pub mod prelude {
    pub use lotec_core::compare::{compare_protocols, ProtocolComparison};
    pub use lotec_core::config::SystemConfig;
    pub use lotec_core::engine::{Engine, RunReport};
    pub use lotec_core::oracle;
    pub use lotec_core::protocol::ProtocolKind;
    pub use lotec_core::spec::{FamilySpec, InvocationSpec};
    pub use lotec_mem::{ObjectId, PageIndex};
    pub use lotec_net::{Bandwidth, NetworkConfig, SoftwareCost};
    pub use lotec_object::{ClassBuilder, ClassId, MethodId, ObjectRegistry, PathId};
    pub use lotec_obs::{EventSink, NoopSink, RecordingSink, TraceSummary};
    pub use lotec_sim::{NodeId, SimDuration, SimTime};
    pub use lotec_workload::{Scenario, WorkloadConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = SystemConfig::default();
        assert_eq!(cfg.protocol, ProtocolKind::Lotec);
        assert_eq!(NodeId::new(3).index(), 3);
    }
}

//! Page-grained shared memory for the LOTEC reproduction.
//!
//! LOTEC is described in the paper as a *page-based* DSM system in which
//! objects span one or more pages and consistency is maintained at object
//! granularity but transferred at page granularity. This crate provides the
//! memory substrate:
//!
//! * [`ObjectId`], [`PageIndex`], [`PageId`], [`Version`] — identities,
//! * [`Page`] — a page's version and content chain, a sixteen-byte value
//!   copied wherever the page moves,
//! * [`PageStore`] — one node's local page cache. It keeps no dirty bits:
//!   the dirty set a global lock release piggybacks comes from the
//!   family's write log,
//! * [`UndoLog`] / [`ShadowPages`] — the two recovery mechanisms the paper
//!   names for sub-transaction UNDO (both purely local, no network),
//! * [`PageMaps`] — the GDO-side maps from each page of an object to the
//!   node holding its most up-to-date version (the structure that lets
//!   LOTEC leave an object's current pages *scattered* across nodes), one
//!   [`PageMap`] per object over a shared location arena, with the
//!   object's caching sites in an inline [`NodeSet`].
//!
//! # Example
//!
//! ```
//! use lotec_mem::{ObjectId, PageId, PageStore};
//!
//! let mut store = PageStore::new(128, &[4]);
//! let page = PageId::new(ObjectId::new(0), 3);
//! store.install(page, lotec_mem::Version::new(1), 0xAB);
//! assert_eq!(store.version_of(page).unwrap().get(), 1);
//! let chain = store.apply_stamp(page, 42);
//! assert_eq!(chain, lotec_mem::mix(0xAB, 42));
//! assert_eq!(store.chain(page), chain);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod page;
pub mod pagemap;
pub mod store;
pub mod undo;

pub use ids::{ObjectId, PageId, PageIndex, Version};
pub use page::{mix, Page};
pub use pagemap::{NodeSet, PageLocation, PageMap, PageMapMut, PageMaps};
pub use store::PageStore;
pub use undo::{Recovery, ShadowPages, UndoLog};

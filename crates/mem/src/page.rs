//! A versioned page of shared memory.

use std::sync::Arc;

use crate::ids::Version;

/// A copy-on-write page payload: a cheaply clonable handle to the bytes.
///
/// Page payloads are copied around constantly — gather batches, installs
/// into caches, undo pre-images, crash repair — but mutated only at the
/// single write site, [`Page::apply_stamp`]. Backing
/// the bytes with an [`Arc`] makes every one of those copies a refcount
/// bump; the bytes themselves are cloned lazily, only when a write lands
/// on a payload that still shares its allocation.
///
/// The representation is *compact*: only the written prefix of the page
/// is materialized, and every byte past it is logically zero. `len()`
/// always reports the full logical size. In this simulator the only
/// mutation a page ever sees is the eight-byte content chain, so a 4 KiB
/// page costs an eight-byte buffer — and the copy-on-write clone a
/// pre-image forces is eight bytes instead of the whole page.
#[derive(Debug, Clone, Eq)]
pub struct PageData {
    /// Materialized prefix; `bytes.len() <= len`, the tail is logically
    /// zero.
    bytes: Arc<Vec<u8>>,
    /// Logical payload length in bytes.
    len: usize,
}

/// The shared empty allocation behind every never-written payload.
fn empty_bytes() -> Arc<Vec<u8>> {
    static EMPTY: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

impl PageData {
    /// A zero-filled payload of `size` logical bytes. No byte buffer is
    /// allocated until something writes.
    pub fn zeroed(size: usize) -> Self {
        PageData {
            bytes: empty_bytes(),
            len: size,
        }
    }

    /// Logical payload length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload is logically empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of the materialized prefix. Bytes at and beyond
    /// `as_slice().len()` are logically zero up to [`Self::len`].
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable view of the first `need` bytes, cloning the (prefix-sized)
    /// allocation first if it is still shared with another handle and
    /// materializing zeros up to `need`.
    ///
    /// # Panics
    ///
    /// Panics if `need` exceeds the logical length.
    fn make_mut(&mut self, need: usize) -> &mut [u8] {
        assert!(need <= self.len, "write larger than page");
        let bytes = Arc::make_mut(&mut self.bytes);
        if bytes.len() < need {
            bytes.resize(need, 0);
        }
        &mut bytes[..need]
    }
}

impl From<Vec<u8>> for PageData {
    fn from(bytes: Vec<u8>) -> Self {
        PageData {
            len: bytes.len(),
            bytes: Arc::new(bytes),
        }
    }
}

impl PartialEq for PageData {
    /// Logical equality: equal lengths and equal bytes, treating the
    /// unmaterialized tail of either side as zeros.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let common = a.len().min(b.len());
        a[..common] == b[..common]
            && a[common..].iter().all(|&x| x == 0)
            && b[common..].iter().all(|&x| x == 0)
    }
}

impl std::ops::Deref for PageData {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// One page: a version stamp plus its byte payload.
///
/// The first eight bytes of every page double as a *content chain*: each
/// logical write folds the writer's stamp into them via [`mix`]. The chain
/// is what the correctness tests compare against a serial re-execution
/// oracle — two executions that applied the same writes in the same order
/// produce byte-identical chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    version: Version,
    data: PageData,
}

/// Deterministically folds a write `stamp` into a content chain value.
///
/// The function is a strong 64-bit mixer (SplitMix64 finalizer over the XOR
/// of the inputs), so distinct write sequences collide with negligible
/// probability and *order matters*: `mix(mix(h, a), b) != mix(mix(h, b), a)`
/// in general.
pub fn mix(chain: u64, stamp: u64) -> u64 {
    let mut z = chain.rotate_left(17).wrapping_add(0x9E37_79B9_7F4A_7C15)
        ^ stamp.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Page {
    /// Creates a zero-filled page of `size` bytes at [`Version::INITIAL`].
    ///
    /// # Panics
    ///
    /// Panics if `size < 8` — every page must be able to hold its content
    /// chain.
    pub fn zeroed(size: usize) -> Self {
        assert!(size >= 8, "page size must be at least 8 bytes");
        Page {
            version: Version::INITIAL,
            data: PageData::zeroed(size),
        }
    }

    /// Creates a page from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() < 8`.
    pub fn from_parts(version: Version, data: impl Into<PageData>) -> Self {
        let data = data.into();
        assert!(data.len() >= 8, "page size must be at least 8 bytes");
        Page { version, data }
    }

    /// The page's version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Sets the page's version (used when a committed update is published).
    pub fn set_version(&mut self, version: Version) {
        self.version = version;
    }

    /// Page size in logical bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the payload's materialized prefix; bytes beyond
    /// it are logically zero up to [`Self::size`].
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// A cheap copy-on-write handle to the payload (a refcount bump, not a
    /// byte copy).
    pub fn payload(&self) -> PageData {
        self.data.clone()
    }

    /// The current content-chain value (first eight bytes, little-endian).
    pub fn chain(&self) -> u64 {
        let prefix = self.data.as_slice();
        if prefix.len() >= 8 {
            u64::from_le_bytes(prefix[..8].try_into().expect("just checked"))
        } else {
            // Never stamped: the chain bytes are still logical zeros.
            let mut b = [0u8; 8];
            b[..prefix.len()].copy_from_slice(prefix);
            u64::from_le_bytes(b)
        }
    }

    /// Folds `stamp` into the content chain, mutating the page.
    /// Returns the new chain value.
    pub fn apply_stamp(&mut self, stamp: u64) -> u64 {
        let next = mix(self.chain(), stamp);
        self.data.make_mut(8).copy_from_slice(&next.to_le_bytes());
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_has_initial_state() {
        let p = Page::zeroed(64);
        assert_eq!(p.version(), Version::INITIAL);
        assert_eq!(p.size(), 64);
        assert!(p.data().iter().all(|&b| b == 0));
        assert_eq!(p.chain(), 0);
    }

    #[test]
    fn stamp_materializes_only_the_chain() {
        let mut p = Page::zeroed(4096);
        let chain = p.apply_stamp(7);
        // Only the eight chain bytes are materialized; the logical size
        // and the zero tail are unchanged.
        assert_eq!(p.data(), &chain.to_le_bytes());
        assert_eq!(p.size(), 4096);
    }

    #[test]
    fn never_written_page_materializes_nothing() {
        let p = Page::zeroed(4096);
        assert_eq!(p.size(), 4096);
        assert_eq!(p.chain(), 0);
        assert!(p.data().is_empty(), "no bytes materialized before a write");
        // Logical equality ignores how much of the zero tail is backed.
        let mut q = Page::zeroed(4096);
        q.apply_stamp(3);
        assert_ne!(p.payload(), q.payload());
        assert_eq!(p.payload(), Page::zeroed(4096).payload());
    }

    #[test]
    fn stamp_chain_is_order_sensitive() {
        let mut ab = Page::zeroed(8);
        ab.apply_stamp(1);
        ab.apply_stamp(2);
        let mut ba = Page::zeroed(8);
        ba.apply_stamp(2);
        ba.apply_stamp(1);
        assert_ne!(ab.chain(), ba.chain());
    }

    #[test]
    fn same_stamps_same_chain() {
        let mut a = Page::zeroed(8);
        let mut b = Page::zeroed(8);
        for s in [5u64, 9, 13] {
            a.apply_stamp(s);
            b.apply_stamp(s);
        }
        assert_eq!(a.chain(), b.chain());
    }

    #[test]
    fn mix_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = mix(0xDEAD_BEEF, 42);
        let flipped = mix(0xDEAD_BEEF, 43);
        let differing = (base ^ flipped).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "differing bits: {differing}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 8 bytes")]
    fn tiny_pages_rejected() {
        Page::zeroed(4);
    }

    #[test]
    fn payload_handle_is_copy_on_write() {
        let mut p = Page::zeroed(16);
        p.apply_stamp(7);
        let snapshot = p.payload();
        // A write after taking the handle must not be visible through it.
        p.apply_stamp(8);
        assert_eq!(
            snapshot.as_slice(),
            {
                let mut q = Page::zeroed(16);
                q.apply_stamp(7);
                q.payload()
            }
            .as_slice()
        );
        assert_ne!(snapshot.as_slice(), p.data());
    }

    #[test]
    fn unshared_payload_writes_in_place() {
        let mut p = Page::zeroed(16);
        p.apply_stamp(1); // materializes the chain prefix
        let before = p.data().as_ptr();
        p.apply_stamp(2);
        // No other handle exists, so the allocation must be reused.
        assert_eq!(before, p.data().as_ptr());
    }
}

//! A versioned page of shared memory.

use crate::ids::Version;

/// One page: a version stamp plus its content chain.
///
/// A page's logical size is its store's page size, but in this simulator
/// the only content a page ever carries is an eight-byte *content chain*:
/// each logical write folds the writer's stamp into it via [`mix`], and
/// every other byte stays zero. So a page is its version and its chain —
/// sixteen bytes, copied by value wherever a page moves (gather, install,
/// undo pre-image, update push). The chain is what the correctness tests
/// compare against a serial re-execution oracle: two executions that
/// applied the same writes in the same order produce identical chains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Page {
    version: Version,
    chain: u64,
}

const _: () = assert!(std::mem::size_of::<Page>() == 16);

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
    /// A page at `version` whose content chain is `chain`. The zero-filled
    /// page at [`Version::INITIAL`] is `Page::default()`.
    pub const fn new(version: Version, chain: u64) -> Self {
        Page { version, chain }
    }

    /// The page's version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Sets the page's version (used when a committed update is published).
    pub fn set_version(&mut self, version: Version) {
        self.version = version;
    }

    /// The current content-chain value.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Folds `stamp` into the content chain, mutating the page.
    /// Returns the new chain value.
    pub fn apply_stamp(&mut self, stamp: u64) -> u64 {
        self.chain = mix(self.chain, stamp);
        self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_has_initial_state() {
        let p = Page::default();
        assert_eq!(p.version(), Version::INITIAL);
        assert_eq!(p.chain(), 0);
    }

    #[test]
    fn stamp_changes_only_the_chain() {
        let mut p = Page::new(Version::new(3), 0);
        let chain = p.apply_stamp(7);
        assert_eq!(chain, mix(0, 7));
        assert_eq!(p, Page::new(Version::new(3), chain));
    }

    #[test]
    fn stamp_chain_is_order_sensitive() {
        let mut ab = Page::default();
        ab.apply_stamp(1);
        ab.apply_stamp(2);
        let mut ba = Page::default();
        ba.apply_stamp(2);
        ba.apply_stamp(1);
        assert_ne!(ab.chain(), ba.chain());
    }

    #[test]
    fn same_stamps_same_chain() {
        let mut a = Page::default();
        let mut b = Page::default();
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
}

//! Transfer granularity: page-based DSM vs data-based DSD sizing.
//!
//! LOTEC "is described as being a page-based DSM system in this paper,
//! \[but\] only updates to the objects (not the entire pages they are stored
//! on) really need to be transmitted between nodes. In this respect, LOTEC
//! is more like a Distributed Shared Data system" (§4.2). With
//! [`SystemConfig::dsd_transfers`](crate::config::SystemConfig::dsd_transfers)
//! enabled, page transfers carry only each page's *occupied* object bytes;
//! otherwise full pages move. The crate's charging module sizes every page
//! transfer and update push through [`transfer_message_bytes`], for the
//! engine and replay alike.

use lotec_mem::{ObjectId, PageIndex};
use lotec_object::ObjectRegistry;

use crate::config::SystemConfig;

/// Bytes of `object`'s data that live on `page` — the final page of an
/// object is usually only partially occupied.
///
/// # Panics
///
/// Panics if `page` is outside the object's layout.
pub fn occupied_bytes(
    registry: &ObjectRegistry,
    page_size: u32,
    object: ObjectId,
    page: PageIndex,
) -> u64 {
    let total = registry.class_of(object).layout().total_bytes();
    let ps = u64::from(page_size);
    let start = u64::from(page.get()) * ps;
    assert!(
        start < total || (start == 0 && total == 0),
        "page {page} outside {object}"
    );
    (total - start).min(ps)
}

/// Wire size of one page-transfer (or update-push) message carrying
/// `pages` of `object`, respecting the configured transfer granularity.
pub fn transfer_message_bytes(
    config: &SystemConfig,
    registry: &ObjectRegistry,
    object: ObjectId,
    pages: &[PageIndex],
) -> u64 {
    if config.dsd_transfers {
        let occupied: Vec<u64> = pages
            .iter()
            .map(|&p| occupied_bytes(registry, config.page_size, object, p))
            .collect();
        config.sizes.data_transfer(&occupied)
    } else {
        config
            .sizes
            .page_transfer(pages.len(), u64::from(config.page_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotec_object::{ClassBuilder, ClassId};
    use lotec_sim::NodeId;

    fn registry() -> ObjectRegistry {
        // 2.5-page object with 100-byte pages: 250 bytes total.
        let class = ClassBuilder::new("Half")
            .attribute("a", 250)
            .method("m", |m| m.path(|p| p.reads(&["a"])))
            .build();
        ObjectRegistry::build(&[class], &[(ClassId::new(0), NodeId::new(0))], 100).unwrap()
    }

    #[test]
    fn occupied_bytes_full_and_partial_pages() {
        let reg = registry();
        let o = ObjectId::new(0);
        assert_eq!(occupied_bytes(&reg, 100, o, PageIndex::new(0)), 100);
        assert_eq!(occupied_bytes(&reg, 100, o, PageIndex::new(1)), 100);
        assert_eq!(
            occupied_bytes(&reg, 100, o, PageIndex::new(2)),
            50,
            "last page half full"
        );
    }

    #[test]
    fn dsd_transfers_are_never_larger_than_page_transfers() {
        let reg = registry();
        let o = ObjectId::new(0);
        let pages: Vec<PageIndex> = (0..3).map(PageIndex::new).collect();
        let page_cfg = SystemConfig {
            page_size: 100,
            ..SystemConfig::default()
        };
        let dsd_cfg = SystemConfig {
            dsd_transfers: true,
            ..page_cfg.clone()
        };
        let full = transfer_message_bytes(&page_cfg, &reg, o, &pages);
        let dsd = transfer_message_bytes(&dsd_cfg, &reg, o, &pages);
        assert!(dsd < full, "dsd {dsd} >= page {full}");
        // Exactly the 50 unoccupied bytes of the last page are saved.
        assert_eq!(full - dsd, 50);
    }

    #[test]
    fn page_mode_matches_messagesizes_directly() {
        let reg = registry();
        let cfg = SystemConfig {
            page_size: 100,
            ..SystemConfig::default()
        };
        let pages = [PageIndex::new(0), PageIndex::new(2)];
        assert_eq!(
            transfer_message_bytes(&cfg, &reg, ObjectId::new(0), &pages),
            cfg.sizes.page_transfer(2, 100)
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_page_panics() {
        occupied_bytes(&registry(), 100, ObjectId::new(0), PageIndex::new(9));
    }
}

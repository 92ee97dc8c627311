//! Typed consistency-protocol messages.

use std::fmt;

use lotec_mem::ObjectId;
use lotec_sim::NodeId;

/// The kind of a consistency-protocol message.
///
/// These are exactly the message classes LOTEC's algorithms (paper §4.1)
/// generate: lock traffic between a site and the GDO, page traffic between
/// sites, and the eager update pushes of the release-consistency extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageKind {
    /// Site → GDO: forwardable global lock acquisition request (Alg. 4.2).
    LockRequest,
    /// GDO → site: lock grant carrying the holder list and the object's
    /// page map (Alg. 4.2).
    LockGrant,
    /// Site → GDO: global lock release with piggybacked dirty-page
    /// information (Alg. 4.4).
    LockRelease,
    /// Acquiring site → holding site: request for a set of pages
    /// (Alg. 4.5).
    PageRequest,
    /// Holding site → acquiring site: the requested page payloads
    /// (Alg. 4.5).
    PageTransfer,
    /// Acquiring site → holding site: demand fetch of a page that was not
    /// predicted (LOTEC misprediction path).
    DemandPageRequest,
    /// Holding site → acquiring site: demand-fetched page payload.
    DemandPageTransfer,
    /// Updating site → caching site: eager update push (release-consistency
    /// extension only; LOTEC/OTEC/COTEC never send these).
    UpdatePush,
    /// GDO partition primary → replica: directory-state update (lock grant
    /// or release propagated to backups; write-behind, off the critical
    /// path).
    GdoReplicate,
}

impl MessageKind {
    /// All message kinds, in declaration order.
    pub const ALL: [MessageKind; 9] = [
        MessageKind::LockRequest,
        MessageKind::LockGrant,
        MessageKind::LockRelease,
        MessageKind::PageRequest,
        MessageKind::PageTransfer,
        MessageKind::DemandPageRequest,
        MessageKind::DemandPageTransfer,
        MessageKind::UpdatePush,
        MessageKind::GdoReplicate,
    ];

    /// True for the kinds that carry page payloads (the bulk of the bytes
    /// in Figures 2–5).
    pub fn carries_pages(self) -> bool {
        matches!(
            self,
            MessageKind::PageTransfer | MessageKind::DemandPageTransfer | MessageKind::UpdatePush
        )
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::LockRequest => "lock-request",
            MessageKind::LockGrant => "lock-grant",
            MessageKind::LockRelease => "lock-release",
            MessageKind::PageRequest => "page-request",
            MessageKind::PageTransfer => "page-transfer",
            MessageKind::DemandPageRequest => "demand-page-request",
            MessageKind::DemandPageTransfer => "demand-page-transfer",
            MessageKind::UpdatePush => "update-push",
            MessageKind::GdoReplicate => "gdo-replicate",
        };
        f.write_str(s)
    }
}

/// One consistency-protocol message, sized in bytes.
///
/// Messages are accounting records: the simulator computes their transfer
/// time from [`NetworkConfig`](crate::NetworkConfig) and charges their
/// bytes to the object they maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    kind: MessageKind,
    src: NodeId,
    dst: NodeId,
    object: ObjectId,
    bytes: u64,
}

impl Message {
    /// Constructs a message.
    pub fn new(kind: MessageKind, src: NodeId, dst: NodeId, object: ObjectId, bytes: u64) -> Self {
        Message {
            kind,
            src,
            dst,
            object,
            bytes,
        }
    }

    /// The message kind.
    pub fn kind(&self) -> MessageKind {
        self.kind
    }

    /// Sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Receiving node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The object whose consistency this message maintains.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Total size in bytes (headers + payload).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True when source and destination are the same site, so the message
    /// never crosses the network. The caller's charging rules decide what
    /// that costs; a [`TrafficLedger`](crate::TrafficLedger) must never be
    /// handed one.
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} [{}] {}B",
            self.kind, self.src, self.dst, self.object, self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let m = Message::new(
            MessageKind::LockGrant,
            NodeId::new(1),
            NodeId::new(2),
            ObjectId::new(7),
            128,
        );
        assert_eq!(m.kind(), MessageKind::LockGrant);
        assert_eq!(m.src(), NodeId::new(1));
        assert_eq!(m.dst(), NodeId::new(2));
        assert_eq!(m.object(), ObjectId::new(7));
        assert_eq!(m.bytes(), 128);
        assert!(!m.is_local());
        assert_eq!(m.to_string(), "lock-grant N1->N2 [O7] 128B");
    }

    #[test]
    fn page_carrying_kinds() {
        assert!(MessageKind::PageTransfer.carries_pages());
        assert!(MessageKind::UpdatePush.carries_pages());
        assert!(!MessageKind::LockRequest.carries_pages());
        assert!(!MessageKind::PageRequest.carries_pages());
    }

    #[test]
    fn all_kinds_listed_once() {
        let mut kinds = MessageKind::ALL.to_vec();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 9);
        assert!(!MessageKind::GdoReplicate.carries_pages());
    }

    #[test]
    fn local_detection() {
        let m = Message::new(
            MessageKind::PageRequest,
            NodeId::new(3),
            NodeId::new(3),
            ObjectId::new(0),
            10,
        );
        assert!(m.is_local());
    }
}

//! TCP flags and SACK blocks.
//!
//! The SACK option's size is counted in the frame length
//! (`Packet::tcp_frame_len`), so serialization delays see it.

use serde::{Deserialize, Serialize};

/// TCP flags used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgment field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Push.
    pub psh: bool,
    /// ECN echo (receiver saw CE).
    pub ece: bool,
    /// Congestion window reduced (sender reacted to ECE).
    pub cwr: bool,
}

/// A SACK block: bytes in `[start, end)` have been received out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SackBlock {
    /// First sequence number of the block.
    pub start: u32,
    /// One past the last sequence number of the block.
    pub end: u32,
}

/// Maximum SACK blocks in one header (RFC 2018 allows 4 without timestamps;
/// 3 with — we model 3, matching Linux with timestamps enabled).
pub const MAX_SACK_BLOCKS: usize = 3;

/// Inline, fixed-capacity SACK block list.
///
/// Capacity is 4 — the TCP option-space maximum — so the list lives
/// entirely inside the segment (`Copy`, no heap). This is what lets the
/// per-segment hot path in the transports stay allocation-free: building
/// an ACK writes into the segment in place instead of growing a `Vec`.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct SackList {
    blocks: [SackBlock; SackList::CAPACITY],
    len: u8,
}

impl SackList {
    /// Hard capacity: the TCP option space fits at most 4 SACK blocks.
    pub const CAPACITY: usize = 4;

    /// An empty list.
    pub const fn new() -> SackList {
        SackList {
            blocks: [SackBlock { start: 0, end: 0 }; SackList::CAPACITY],
            len: 0,
        }
    }

    /// Build from a slice (panics if `blocks.len() > CAPACITY`).
    pub fn from_blocks(blocks: &[SackBlock]) -> SackList {
        let mut s = SackList::new();
        for &b in blocks {
            s.push(b);
        }
        s
    }

    /// Append a block; panics when full (callers guard with
    /// [`MAX_SACK_BLOCKS`], which is below the capacity).
    pub fn push(&mut self, b: SackBlock) {
        assert!(self.try_push(b), "SackList full");
    }

    /// Append a block, returning `false` when full.
    pub fn try_push(&mut self, b: SackBlock) -> bool {
        if (self.len as usize) < Self::CAPACITY {
            self.blocks[self.len as usize] = b;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Number of blocks.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The blocks as a slice.
    pub fn as_slice(&self) -> &[SackBlock] {
        &self.blocks[..self.len as usize]
    }

    /// Iterate over the blocks.
    pub fn iter(&self) -> std::slice::Iter<'_, SackBlock> {
        self.as_slice().iter()
    }

    /// Remove all blocks.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for SackList {
    fn default() -> SackList {
        SackList::new()
    }
}

// Equality and debug ignore the uninitialized tail beyond `len`.
impl PartialEq for SackList {
    fn eq(&self, other: &SackList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SackList {}

impl std::fmt::Debug for SackList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a SackList {
    type Item = &'a SackBlock;
    type IntoIter = std::slice::Iter<'a, SackBlock>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<SackBlock> for SackList {
    fn from_iter<I: IntoIterator<Item = SackBlock>>(iter: I) -> SackList {
        let mut s = SackList::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sack_list_inline_semantics() {
        let mut s = SackList::new();
        assert!(s.is_empty());
        for i in 0..SackList::CAPACITY {
            assert!(s.try_push(SackBlock {
                start: i as u32,
                end: i as u32 + 1,
            }));
        }
        assert_eq!(s.len(), SackList::CAPACITY);
        assert!(!s.try_push(SackBlock { start: 9, end: 10 }), "full");
        // equality ignores stale slots beyond len
        let a = SackList::from_blocks(&[SackBlock { start: 1, end: 2 }]);
        let mut b = SackList::new();
        b.push(SackBlock { start: 7, end: 8 });
        b.clear();
        b.push(SackBlock { start: 1, end: 2 });
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.as_slice(), &[SackBlock { start: 1, end: 2 }]);
    }
}

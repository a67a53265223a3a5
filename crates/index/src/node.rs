//! B⁺-tree node representation and block (de)serialization.
//!
//! Nodes are persisted one-per-block on the simulated device so that index
//! traversals cost real (simulated) I/O — that is what the paper's `I`
//! term measures. Layouts, after the `data ‖ u16 offsets ‖ count` blocks
//! of an LSM store's sorted runs:
//!
//! ```text
//! leaf:     [0u8][nkeys u16][next u32][ (klen u16, key, value u64) * ][ off u16 * nkeys ][count u16]
//! internal: [1u8][nkeys u16][child0 u32][ (klen u16, key, child u32) * ][ off u16 * nkeys ][count u16]
//! ```
//!
//! Entries sit in ascending key order, back to back from the header on;
//! `off[i]` is the byte offset of entry `i` in the node, and the trailing
//! `count` repeats `nkeys`. In an internal node, `key[i]` separates
//! `child[i]` from `child[i+1]`: every key in `child[i+1]`'s subtree is
//! `≥ key[i]`.
//!
//! A read ([`NodeView::search`], [`NodeView::route`], [`NodeView::child`],
//! [`NodeView::entry`]) halves over the offsets and bounds-checks each
//! entry it touches, so it costs O(log nkeys) entries. A leaf edit that
//! does not split first checks the whole node ([`NodeView::slot`]: every
//! offset names the entry that ends where the previous one did) and is
//! then a splice of these bytes: an upsert patches the 8 value bytes, an
//! insert writes `prefix ‖ entry ‖ suffix` and a delete `prefix ‖ suffix`,
//! each with the offsets past the edit moved, one offset added or dropped
//! and both counts patched. Only a split decodes into [`Node`].

use crate::error::IndexError;
use avq_storage::BlockId;

/// Sentinel for "no next leaf".
pub(crate) const NO_LEAF: BlockId = BlockId::MAX;

const TAG_LEAF: u8 = 0;
const TAG_INTERNAL: u8 = 1;

/// Bytes before the first entry: tag, `nkeys`, `next`/`child0`.
pub(crate) const HEADER: usize = 7;
/// Where `nkeys` sits in the header.
pub(crate) const NKEYS_AT: core::ops::Range<usize> = 1..3;
/// Bytes of a node besides its entries and their offsets: the header and
/// the trailing count.
pub(crate) const FIXED: usize = HEADER + 2;
/// The largest node an offset table of `u16`s addresses.
pub(crate) const MAX_NODE_BYTES: usize = u16::MAX as usize;

/// Bytes one entry with a `klen`-byte key adds to a leaf (`leaf`) or an
/// internal node: the entry and its offset.
pub(crate) fn entry_bytes(klen: usize, leaf: bool) -> usize {
    2 + klen + if leaf { 8 } else { 4 } + 2
}

/// A decoded B⁺-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Node {
    Leaf {
        /// (key, payload) pairs in strictly ascending key order.
        entries: Vec<(Vec<u8>, u64)>,
        /// Right sibling for range scans, or [`NO_LEAF`].
        next: BlockId,
    },
    Internal {
        /// `children.len() == keys.len() + 1`.
        keys: Vec<Vec<u8>>,
        children: Vec<BlockId>,
    },
}

impl Node {
    pub fn empty_leaf() -> Self {
        Node::Leaf {
            entries: Vec::new(),
            next: NO_LEAF,
        }
    }

    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of keys stored in the node.
    pub fn key_count(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { keys, .. } => keys.len(),
        }
    }

    /// Serialized size in bytes, offset table and count included.
    pub fn serialized_len(&self) -> usize {
        FIXED
            + match self {
                Node::Leaf { entries, .. } => entries
                    .iter()
                    .map(|(k, _)| entry_bytes(k.len(), true))
                    .sum::<usize>(),
                Node::Internal { keys, .. } => {
                    keys.iter().map(|k| entry_bytes(k.len(), false)).sum()
                }
            }
    }

    /// Serializes the node into a fresh buffer. The node must fit
    /// [`MAX_NODE_BYTES`] (the tree never stores a larger one).
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.serialized_len();
        debug_assert!(len <= MAX_NODE_BYTES, "a node of {len} bytes");
        let mut out = Vec::with_capacity(len);
        let (tag, first) = match self {
            Node::Leaf { next, .. } => (TAG_LEAF, *next),
            Node::Internal { children, .. } => (TAG_INTERNAL, children[0]),
        };
        let n = self.key_count() as u16;
        out.push(tag);
        out.extend_from_slice(&n.to_le_bytes());
        out.extend_from_slice(&first.to_le_bytes());
        let entry = |out: &mut Vec<u8>, key: &[u8], value: &[u8]| {
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(value);
        };
        match self {
            Node::Leaf { entries, .. } => {
                for (k, v) in entries {
                    entry(&mut out, k, &v.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                for (k, c) in keys.iter().zip(&children[1..]) {
                    entry(&mut out, k, &c.to_le_bytes());
                }
            }
        }
        // The entries are back to back, so each offset follows from the
        // key length stored at the previous one.
        let value_len = if self.is_leaf() { 8 } else { 4 };
        let mut at = HEADER;
        for _ in 0..n {
            out.extend_from_slice(&(at as u16).to_le_bytes());
            at += 2 + u16::from_le_bytes([out[at], out[at + 1]]) as usize + value_len;
        }
        out.extend_from_slice(&n.to_le_bytes());
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Parses a node from a block's bytes into its owned form (what
    /// inserts, splits and deletes edit), after checking all of it
    /// ([`NodeView::check`]).
    pub fn from_bytes(block: BlockId, bytes: &[u8]) -> Result<Self, IndexError> {
        let view = NodeView::parse(block, bytes)?;
        view.check()?;
        if view.is_leaf() {
            let entries = (0..view.nkeys)
                .map(|i| view.entry(i).map(|(k, v)| (k.to_vec(), v)))
                .collect::<Result<_, _>>()?;
            return Ok(Node::Leaf {
                entries,
                next: view.first(),
            });
        }
        let mut keys = Vec::with_capacity(view.nkeys);
        let mut children = Vec::with_capacity(view.nkeys + 1);
        children.push(view.first());
        for i in 0..view.nkeys {
            let (key, child) = view.entry(i)?;
            keys.push(key.to_vec());
            children.push(child as BlockId);
        }
        Ok(Node::Internal { keys, children })
    }
}

fn corrupt(block: BlockId, detail: &str) -> IndexError {
    IndexError::CorruptNode {
        block,
        detail: detail.to_owned(),
    }
}

/// A node read in place: the header, the trailing count and the extent of
/// the offset table are checked when the view is made, and each entry is
/// bounds-checked when it is read ([`Self::entry`]) — the one parser of
/// the node layout. Lookups descend on views and copy out only the keys
/// they return.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeView<'a> {
    block: BlockId,
    leaf: bool,
    nkeys: usize,
    /// A leaf's next-leaf link, or an internal node's `child0`.
    first: BlockId,
    /// The node up to its offset table: header, then entries.
    data: &'a [u8],
    /// The offset table: `nkeys` little-endian `u16`s.
    offsets: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Checks the header, the trailing count and the offset table's extent
    /// of the node stored in `block`.
    pub fn parse(block: BlockId, bytes: &'a [u8]) -> Result<Self, IndexError> {
        let Some((&[tag, n0, n1, f0, f1, f2, f3], _)) = bytes.split_first_chunk::<HEADER>() else {
            return Err(corrupt(block, "shorter than node header"));
        };
        let leaf = match tag {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            t => return Err(corrupt(block, &format!("unknown node tag {t}"))),
        };
        let nkeys = u16::from_le_bytes([n0, n1]) as usize;
        let Some((body, &count)) = bytes
            .split_last_chunk::<2>()
            .filter(|(b, _)| b.len() >= HEADER)
        else {
            return Err(corrupt(block, "no trailing count"));
        };
        if u16::from_le_bytes(count) as usize != nkeys {
            return Err(corrupt(block, "trailing count disagrees with nkeys"));
        }
        let Some(table_at) = (body.len() - HEADER)
            .checked_sub(2 * nkeys)
            .map(|entries| HEADER + entries)
        else {
            return Err(corrupt(block, "offset table overlaps the header"));
        };
        let (data, offsets) = body.split_at(table_at);
        Ok(NodeView {
            block,
            leaf,
            nkeys,
            first: u32::from_le_bytes([f0, f1, f2, f3]),
            data,
            offsets,
        })
    }

    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries the header declares.
    pub fn nkeys(&self) -> usize {
        self.nkeys
    }

    /// A leaf's right sibling ([`NO_LEAF`] for none), or an internal
    /// node's leftmost child.
    pub fn first(&self) -> BlockId {
        self.first
    }

    fn value_len(&self) -> usize {
        if self.leaf {
            8
        } else {
            4
        }
    }

    /// Byte offset of entry `i` in the node, as the offset table has it.
    pub fn offset(&self, i: usize) -> Result<usize, IndexError> {
        match self.offsets.get(2 * i..2 * i + 2) {
            Some(&[a, b]) => Ok(u16::from_le_bytes([a, b]) as usize),
            _ => Err(corrupt(self.block, "entry index past the node")),
        }
    }

    /// The entry at byte offset `at` and the offset just past it, checked
    /// to lie between the header and the offset table.
    fn entry_at(&self, at: usize) -> Result<(&'a [u8], u64, usize), IndexError> {
        if at < HEADER {
            return Err(corrupt(self.block, "offset inside the header"));
        }
        let rest = self
            .data
            .get(at..)
            .ok_or_else(|| corrupt(self.block, "offset past the entries"))?;
        let (&klen, rest) = rest
            .split_first_chunk::<2>()
            .ok_or_else(|| corrupt(self.block, "truncated key length"))?;
        let klen = u16::from_le_bytes(klen) as usize;
        let (key, rest) = rest
            .split_at_checked(klen)
            .ok_or_else(|| corrupt(self.block, "truncated key"))?;
        let value = rest.get(..self.value_len()).ok_or_else(|| {
            corrupt(
                self.block,
                if self.leaf {
                    "truncated value"
                } else {
                    "truncated child pointer"
                },
            )
        })?;
        let mut word = [0u8; 8];
        word[..value.len()].copy_from_slice(value);
        Ok((key, u64::from_le_bytes(word), at + 2 + klen + value.len()))
    }

    /// `(key, value)` of entry `i`: a leaf's payload, or the child to the
    /// right of separator `i`.
    pub fn entry(&self, i: usize) -> Result<(&'a [u8], u64), IndexError> {
        let (key, value, _) = self.entry_at(self.offset(i)?)?;
        Ok((key, value))
    }

    /// Where `key` sits among the entries, found by halving over the
    /// offsets: `Ok(i)` when entry `i` holds it, else `Err(i)` with `i` the
    /// number of entries below it (as [`slice::binary_search`]). Reads
    /// O(log nkeys) entries; on a node whose keys are out of order the
    /// answer is some position, never a panic.
    pub fn search(&self, key: &[u8]) -> Result<Result<usize, usize>, IndexError> {
        let (mut lo, mut hi) = (0, self.nkeys);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.entry(mid)?.0.cmp(key) {
                core::cmp::Ordering::Less => lo = mid + 1,
                core::cmp::Ordering::Equal => return Ok(Ok(mid)),
                core::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(Err(lo))
    }

    /// Of an internal node: the position and id of the child whose subtree
    /// holds `key` — the one right of the last separator `≤ key`.
    pub fn route(&self, key: &[u8]) -> Result<(usize, BlockId), IndexError> {
        let pos = match self.search(key)? {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        Ok((pos, self.child(pos)?))
    }

    /// Of an internal node: the id of child `i` (`0 ..= nkeys`).
    pub fn child(&self, i: usize) -> Result<BlockId, IndexError> {
        match i.checked_sub(1) {
            None => Ok(self.first),
            Some(j) => self.entry(j).map(|(_, child)| child as BlockId),
        }
    }

    /// Checks the whole node: entry `i` starts at `off[i]`, where entry
    /// `i − 1` ends (the first right after the header), and the last ends
    /// where the offset table begins. What an edit runs before it writes.
    pub fn check(&self) -> Result<(), IndexError> {
        let mut at = HEADER;
        for i in 0..self.nkeys {
            if self.offset(i)? != at {
                return Err(corrupt(self.block, "offset does not start its entry"));
            }
            at = self.entry_at(at)?.2;
        }
        if at != self.data.len() {
            return Err(corrupt(
                self.block,
                "bytes between the entries and the offsets",
            ));
        }
        Ok(())
    }

    /// Of a leaf: where `key` sits, after checking the whole node
    /// ([`Self::check`]), so a leaf that would not parse is refused before
    /// any edit is made to it.
    pub fn slot(&self, key: &[u8]) -> Result<LeafSlot, IndexError> {
        self.check()?;
        let (index, found) = match self.search(key)? {
            Ok(i) => (i, Some(self.entry(i)?.1)),
            Err(i) => (i, None),
        };
        let at = match index < self.nkeys {
            true => self.offset(index)?,
            false => self.data.len(),
        };
        Ok(LeafSlot { index, at, found })
    }

    /// The node with `value` over the payload of the entry `slot` found.
    pub fn with_value(&self, slot: &LeafSlot, key: &[u8], value: u64) -> Vec<u8> {
        let mut out = self.image();
        let at = slot.at + 2 + key.len();
        out[at..at + 8].copy_from_slice(&value.to_le_bytes());
        out
    }

    /// The node with `(key, value)` inserted at `slot`. The caller has
    /// checked that the result fits a `u16` count and offsets.
    pub fn with_inserted(&self, slot: &LeafSlot, key: &[u8], value: u64) -> Vec<u8> {
        let grow = 2 + key.len() + 8;
        let n = self.nkeys + 1;
        let mut out = Vec::with_capacity(self.data.len() + grow + 2 * n + 2);
        out.extend_from_slice(&self.data[..slot.at]);
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&value.to_le_bytes());
        out.extend_from_slice(&self.data[slot.at..]);
        let (below, above) = self.offsets.split_at(2 * slot.index);
        out.extend_from_slice(below);
        out.extend_from_slice(&(slot.at as u16).to_le_bytes());
        shifted(&mut out, above, |off| off + grow as u16);
        self.finish(out, n)
    }

    /// The node with the entry `slot` found removed.
    pub fn without(&self, slot: &LeafSlot, key: &[u8]) -> Vec<u8> {
        let shrink = 2 + key.len() + 8;
        let n = self.nkeys - 1;
        let mut out = Vec::with_capacity(self.data.len() - shrink + 2 * n + 2);
        out.extend_from_slice(&self.data[..slot.at]);
        out.extend_from_slice(&self.data[slot.at + shrink..]);
        let (below, above) = self.offsets.split_at(2 * slot.index);
        out.extend_from_slice(below);
        shifted(&mut out, &above[2..], |off| off - shrink as u16);
        self.finish(out, n)
    }

    /// The node's bytes, as stored.
    pub fn image(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() + self.offsets.len() + 2);
        out.extend_from_slice(self.data);
        out.extend_from_slice(self.offsets);
        out.extend_from_slice(&(self.nkeys as u16).to_le_bytes());
        out
    }

    /// Appends the trailing count `n` and patches `nkeys` to match.
    fn finish(&self, mut out: Vec<u8>, n: usize) -> Vec<u8> {
        let n = (n as u16).to_le_bytes();
        out.extend_from_slice(&n);
        out[NKEYS_AT].copy_from_slice(&n);
        out
    }
}

/// Appends the `u16` offsets of `table`, each mapped through `f`.
fn shifted(out: &mut Vec<u8>, table: &[u8], f: impl Fn(u16) -> u16) {
    let start = out.len();
    out.extend_from_slice(table);
    for off in out[start..].chunks_exact_mut(2) {
        let moved = f(u16::from_le_bytes([off[0], off[1]]));
        off.copy_from_slice(&moved.to_le_bytes());
    }
}

/// Where a key sits in a checked leaf (see [`NodeView::slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeafSlot {
    /// Index of the first entry whose key is `≥` the sought one (`nkeys`
    /// when there is none): where an insert goes.
    pub index: usize,
    /// Byte offset of that entry (the end of the entries when there is
    /// none).
    pub at: usize,
    /// The payload when the entry at `index` holds exactly the key.
    pub found: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let n = Node::Leaf {
            entries: vec![
                (Vec::new(), 0), // empty keys are legal
                (vec![1, 2, 3], 42),
                (vec![9], u64::MAX),
            ],
            next: 7,
        };
        let bytes = n.to_bytes();
        assert_eq!(bytes.len(), n.serialized_len());
        assert_eq!(Node::from_bytes(0, &bytes).unwrap(), n);
        let view = NodeView::parse(0, &bytes).unwrap();
        assert_eq!(view.search(&[1, 2, 3]).unwrap(), Ok(1));
        assert_eq!(view.search(&[5]).unwrap(), Err(2));
        assert_eq!(view.search(&[]).unwrap(), Ok(0));
        assert_eq!(view.image(), bytes);
    }

    #[test]
    fn internal_roundtrip() {
        let n = Node::Internal {
            keys: vec![vec![5, 5], vec![9, 9, 9]],
            children: vec![10, 20, 30],
        };
        let bytes = n.to_bytes();
        assert_eq!(bytes.len(), n.serialized_len());
        assert_eq!(Node::from_bytes(0, &bytes).unwrap(), n);
        let view = NodeView::parse(0, &bytes).unwrap();
        assert_eq!(view.route(&[1]).unwrap(), (0, 10));
        assert_eq!(view.route(&[5, 5]).unwrap(), (1, 20));
        assert_eq!(view.route(&[9, 9, 9, 0]).unwrap(), (2, 30));
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let n = Node::empty_leaf();
        assert_eq!(n.to_bytes().len(), FIXED);
        assert_eq!(Node::from_bytes(0, &n.to_bytes()).unwrap(), n);
    }

    #[test]
    fn splices_equal_fresh_serialisations() {
        let leaf = |keys: &[u8]| Node::Leaf {
            entries: keys
                .iter()
                .map(|&k| (vec![k; k as usize], k as u64))
                .collect(),
            next: 3,
        };
        let bytes = leaf(&[1, 4, 6]).to_bytes();
        let view = NodeView::parse(0, &bytes).unwrap();
        for (key, want) in [(0u8, [0, 1, 4, 6]), (5, [1, 4, 5, 6]), (9, [1, 4, 6, 9])] {
            let k = vec![key; key as usize];
            let slot = view.slot(&k).unwrap();
            assert_eq!(slot.found, None);
            assert_eq!(
                view.with_inserted(&slot, &k, key as u64),
                leaf(&want).to_bytes()
            );
        }
        for (key, want) in [(1u8, [4, 6]), (4, [1, 6]), (6, [1, 4])] {
            let k = vec![key; key as usize];
            let slot = view.slot(&k).unwrap();
            assert_eq!(slot.found, Some(key as u64));
            assert_eq!(view.without(&slot, &k), leaf(&want).to_bytes());
        }
    }

    #[test]
    fn corrupt_rejected() {
        assert!(Node::from_bytes(0, &[]).is_err());
        assert!(
            Node::from_bytes(0, &[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err(),
            "bad tag"
        );
        assert!(
            Node::from_bytes(0, &[TAG_LEAF, 0, 0, 0, 0, 0, 0]).is_err(),
            "no trailing count"
        );
        // Leaf promising one entry but no bytes for it.
        assert!(Node::from_bytes(0, &[TAG_LEAF, 1, 0, 0, 0, 0, 0, 1, 0]).is_err());
        // Truncated key.
        let mut bytes = vec![TAG_LEAF, 1, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&5u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 2]); // promised 5 key bytes, gave 2
        bytes.extend_from_slice(&(HEADER as u16).to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        assert!(Node::from_bytes(0, &bytes).is_err());
    }

    #[test]
    fn key_count() {
        assert_eq!(Node::empty_leaf().key_count(), 0);
        let n = Node::Internal {
            keys: vec![vec![1]],
            children: vec![0, 1],
        };
        assert_eq!(n.key_count(), 1);
        assert!(!n.is_leaf());
    }
}

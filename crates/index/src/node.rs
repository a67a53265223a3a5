//! B⁺-tree node representation and block (de)serialization.
//!
//! Nodes are persisted one-per-block on the simulated device so that index
//! traversals cost real (simulated) I/O — that is what the paper's `I`
//! term measures. Layouts:
//!
//! ```text
//! leaf:     [0u8][nkeys u16][next u32][ (klen u16, key, value u64) * ]
//! internal: [1u8][nkeys u16][child0 u32][ (klen u16, key, child u32) * ]
//! ```
//!
//! In an internal node, `key[i]` separates `child[i]` from `child[i+1]`:
//! every key in `child[i+1]`'s subtree is `≥ key[i]`.
//!
//! A leaf edit that does not split is a splice of these bytes
//! ([`NodeView::slot`] finds where): an upsert patches the 8 value bytes,
//! an insert writes `prefix ‖ entry ‖ suffix` and a delete `prefix ‖
//! suffix`, each with `nkeys` patched. Only a split decodes into [`Node`].

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

    #[cfg_attr(not(test), allow(dead_code))]
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

    /// Serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                1 + 2 + 4 + entries.iter().map(|(k, _)| 2 + k.len() + 8).sum::<usize>()
            }
            Node::Internal { keys, .. } => {
                1 + 2 + 4 + keys.iter().map(|k| 2 + k.len() + 4).sum::<usize>()
            }
        }
    }

    /// Serializes the node into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        match self {
            Node::Leaf { entries, next } => {
                out.push(TAG_LEAF);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&next.to_le_bytes());
                for (k, v) in entries {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                out.push(TAG_INTERNAL);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                out.extend_from_slice(&children[0].to_le_bytes());
                for (k, &c) in keys.iter().zip(&children[1..]) {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses a node from a block's bytes into its owned form (what
    /// inserts, splits and deletes edit), collecting [`NodeView::entries`].
    pub fn from_bytes(block: BlockId, bytes: &[u8]) -> Result<Self, IndexError> {
        let view = NodeView::parse(block, bytes)?;
        if view.is_leaf() {
            let entries = view
                .entries()
                .map(|e| e.map(|(k, v)| (k.to_vec(), v)))
                .collect::<Result<_, _>>()?;
            return Ok(Node::Leaf {
                entries,
                next: view.first(),
            });
        }
        let mut keys = Vec::with_capacity(view.nkeys);
        let mut children = Vec::with_capacity(view.nkeys + 1);
        children.push(view.first());
        for entry in view.entries() {
            let (key, child) = entry?;
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

/// A node read in place: the header is checked when the view is made, and
/// [`Self::entries`] walks the entries straight off the block's bytes,
/// bounds-checking each one — the one parser of the node layout. Lookups
/// descend on views and copy out only the keys they return.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeView<'a> {
    block: BlockId,
    leaf: bool,
    nkeys: usize,
    /// A leaf's next-leaf link, or an internal node's `child0`.
    first: BlockId,
    body: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Checks the header of the node stored in `block`.
    pub fn parse(block: BlockId, bytes: &'a [u8]) -> Result<Self, IndexError> {
        let Some((&[tag, n0, n1, f0, f1, f2, f3], body)) = bytes.split_first_chunk::<7>() else {
            return Err(corrupt(block, "shorter than node header"));
        };
        let leaf = match tag {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            t => return Err(corrupt(block, &format!("unknown node tag {t}"))),
        };
        Ok(NodeView {
            block,
            leaf,
            nkeys: u16::from_le_bytes([n0, n1]) as usize,
            first: u32::from_le_bytes([f0, f1, f2, f3]),
            body,
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

    /// `(key, value)` in stored order: a leaf's payloads, or the child to
    /// the right of each separator. Yields one `Err` and stops at the first
    /// entry that runs past the block.
    pub fn entries(&self) -> Entries<'a> {
        Entries {
            block: self.block,
            value_len: if self.leaf { 8 } else { 4 },
            left: self.nkeys,
            end: HEADER + self.body.len(),
            rest: self.body,
        }
    }

    /// Of an internal node: the position and id of the child whose subtree
    /// holds `key` — the one right of the last separator `≤ key`.
    pub fn route(&self, key: &[u8]) -> Result<(usize, BlockId), IndexError> {
        let mut at = (0, self.first);
        for (i, entry) in self.entries().enumerate() {
            let (sep, child) = entry?;
            if sep > key {
                break;
            }
            at = (i + 1, child as BlockId);
        }
        Ok(at)
    }

    /// Of an internal node: the id of child `i` (`0 ..= nkeys`).
    pub fn child(&self, i: usize) -> Result<BlockId, IndexError> {
        match i.checked_sub(1) {
            None => Ok(self.first),
            Some(j) => match self.entries().nth(j) {
                Some(entry) => entry.map(|(_, child)| child as BlockId),
                None => Err(corrupt(self.block, "child index past the node")),
            },
        }
    }

    /// Of a leaf: where `key` sits, found by walking *every* entry, so a
    /// leaf that would not parse is refused before any edit is made to it.
    pub fn slot(&self, key: &[u8]) -> Result<LeafSlot, IndexError> {
        let mut entries = self.entries();
        let mut hit = None;
        loop {
            let here = entries.offset();
            let Some(entry) = entries.next() else {
                let (at, found) = hit.unwrap_or((here, None));
                return Ok(LeafSlot {
                    at,
                    found,
                    end: here,
                });
            };
            let (k, v) = entry?;
            if hit.is_none() && k >= key {
                hit = Some((here, (k == key).then_some(v)));
            }
        }
    }
}

/// Where a key sits in a leaf's bytes (see [`NodeView::slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeafSlot {
    /// Offset of the first entry whose key is `≥` the sought one (the end
    /// of the entries when there is none): where an insert goes.
    pub at: usize,
    /// The payload when the entry at `at` holds exactly the key.
    pub found: Option<u64>,
    /// Offset just past the last entry.
    pub end: usize,
}

/// The entry walker behind [`NodeView::entries`].
pub(crate) struct Entries<'a> {
    block: BlockId,
    value_len: usize,
    left: usize,
    /// Offset in the node just past its bytes.
    end: usize,
    rest: &'a [u8],
}

impl<'a> Entries<'a> {
    /// Offset in the node of the next entry: just past the last one once
    /// the walk has ended.
    pub fn offset(&self) -> usize {
        self.end - self.rest.len()
    }

    fn parse_one(&mut self) -> Result<(&'a [u8], u64), IndexError> {
        let rest = self.rest;
        let (&klen, rest) = rest
            .split_first_chunk::<2>()
            .ok_or_else(|| corrupt(self.block, "truncated key length"))?;
        let klen = u16::from_le_bytes(klen) as usize;
        let (key, rest) = rest
            .split_at_checked(klen)
            .ok_or_else(|| corrupt(self.block, "truncated key"))?;
        let (value, rest) = rest.split_at_checked(self.value_len).ok_or_else(|| {
            corrupt(
                self.block,
                if self.value_len == 8 {
                    "truncated value"
                } else {
                    "truncated child pointer"
                },
            )
        })?;
        let mut word = [0u8; 8];
        word[..value.len()].copy_from_slice(value);
        self.rest = rest;
        Ok((key, u64::from_le_bytes(word)))
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = Result<(&'a [u8], u64), IndexError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let entry = self.parse_one();
        self.left = if entry.is_ok() { self.left - 1 } else { 0 };
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let n = Node::Leaf {
            entries: vec![
                (vec![1, 2, 3], 42),
                (vec![9], u64::MAX),
                (Vec::new(), 0), // empty keys are legal
            ],
            next: 7,
        };
        let bytes = n.to_bytes();
        assert_eq!(bytes.len(), n.serialized_len());
        assert_eq!(Node::from_bytes(0, &bytes).unwrap(), n);
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
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let n = Node::empty_leaf();
        assert_eq!(Node::from_bytes(0, &n.to_bytes()).unwrap(), n);
    }

    #[test]
    fn corrupt_rejected() {
        assert!(Node::from_bytes(0, &[]).is_err());
        assert!(
            Node::from_bytes(0, &[9, 0, 0, 0, 0, 0, 0]).is_err(),
            "bad tag"
        );
        // Leaf promising one entry but no bytes for it.
        assert!(Node::from_bytes(0, &[TAG_LEAF, 1, 0, 0, 0, 0, 0]).is_err());
        // Truncated key.
        let mut bytes = vec![TAG_LEAF, 1, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&5u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 2]); // promised 5 key bytes, gave 2
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

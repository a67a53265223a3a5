//! A disk-resident B⁺-tree over the simulated block device.
//!
//! This is the access-method substrate of §4.1: the primary index keys are
//! *entire serialized tuples* (fixed-width big-endian serialization preserves
//! the φ order as raw byte comparison), and secondary indexes key on
//! attribute values. Payloads are `u64` (data-block ids or bucket heads).
//!
//! Properties:
//!
//! * nodes live one-per-block on the device, read through the buffer pool,
//!   so traversals are charged simulated I/O (the paper's `I` term);
//! * node capacity is bounded both by serialized bytes (the block size) and
//!   by an optional key-count cap (`order`), which lets tests build the
//!   order-3 trees of Figs. 4.4/4.5;
//! * keys are unique; [`BPlusTree::insert`] upserts;
//! * reads and leaf edits work on node bytes in place: a read halves over
//!   each node's offset table (see `node.rs`), so a warm lookup reads
//!   O(log keys) entries per level and copies no key; an upsert, an insert
//!   that fits and a delete splice the leaf after checking all of it, and
//!   only an insert that splits decodes the leaf and its path into owned
//!   nodes;
//! * deletion is *lazy* (keys are removed, nodes are never merged) — the
//!   strategy PostgreSQL uses; separator invariants are preserved because
//!   deletion never moves keys between nodes.

use crate::error::IndexError;
use crate::node::{entry_bytes, Node, NodeView, FIXED, MAX_NODE_BYTES, NO_LEAF};
use avq_storage::{BlockId, BufferPool, StorageError};
use std::sync::Arc;

/// No sound tree is taller: every internal node has at least two children
/// and block ids are 32-bit. A longer descent is a pointer cycle.
const MAX_HEIGHT: usize = 33;

/// Where a floor search ended: the leaf's id and bytes, and the index of
/// the entry found in it.
type FloorHit = (BlockId, Arc<Vec<u8>>, usize);

/// Aggregate shape statistics for a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Levels from root to leaf inclusive (1 for a lone leaf root).
    pub height: usize,
    /// Total nodes (= blocks) in the tree.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Total key entries across leaves.
    pub entries: usize,
}

/// A B⁺-tree mapping byte-string keys to `u64` payloads.
#[derive(Debug)]
pub struct BPlusTree {
    pool: Arc<BufferPool>,
    root: BlockId,
    /// Maximum keys per node (`usize::MAX` = bytes-only limit).
    max_keys: usize,
}

impl BPlusTree {
    /// Creates an empty tree whose nodes are capped at the block size only.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self, IndexError> {
        Self::create_with_order(pool, usize::MAX)
    }

    /// Creates an empty tree with at most `max_keys` keys per node
    /// (in addition to the block-size byte limit). `max_keys` must be ≥ 2.
    pub fn create_with_order(pool: Arc<BufferPool>, max_keys: usize) -> Result<Self, IndexError> {
        assert!(max_keys >= 2, "a B+ tree node needs at least 2 keys");
        let root = pool.device().allocate()?;
        pool.write(root, &Node::empty_leaf().to_bytes())?;
        Ok(BPlusTree {
            pool,
            root,
            max_keys,
        })
    }

    /// Bulk-builds a tree from strictly ascending `(key, value)` pairs,
    /// filling nodes completely (classic bottom-up build).
    pub fn bulk_build(
        pool: Arc<BufferPool>,
        max_keys: usize,
        pairs: &[(Vec<u8>, u64)],
    ) -> Result<Self, IndexError> {
        assert!(max_keys >= 2, "a B+ tree node needs at least 2 keys");
        if let Some(pos) = pairs.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(IndexError::UnsortedBuildInput { position: pos + 1 });
        }
        let capacity = node_capacity(&pool);
        let mut tree = BPlusTree {
            pool,
            root: 0,
            max_keys,
        };
        if pairs.is_empty() {
            tree.root = tree.pool.device().allocate()?;
            tree.pool.write(tree.root, &Node::empty_leaf().to_bytes())?;
            return Ok(tree);
        }

        // Cut pairs into leaves.
        let mut leaf_runs: Vec<&[(Vec<u8>, u64)]> = Vec::new();
        {
            let mut start = 0usize;
            let mut bytes = FIXED;
            let mut keys = 0usize;
            for (i, (k, _)) in pairs.iter().enumerate() {
                let entry = entry_bytes(k.len(), true);
                if FIXED + entry > capacity {
                    return Err(IndexError::EntryTooLarge {
                        entry_bytes: entry,
                        block_size: capacity,
                    });
                }
                if keys + 1 > max_keys || bytes + entry > capacity {
                    leaf_runs.push(&pairs[start..i]);
                    start = i;
                    bytes = FIXED;
                    keys = 0;
                }
                bytes += entry;
                keys += 1;
            }
            leaf_runs.push(&pairs[start..]);
        }

        // Allocate leaf blocks up front so next pointers are known.
        let leaf_ids: Vec<BlockId> = leaf_runs
            .iter()
            .map(|_| tree.pool.device().allocate())
            .collect::<Result<_, _>>()?;
        let mut level: Vec<(Vec<u8>, BlockId)> = Vec::with_capacity(leaf_ids.len());
        for (i, run) in leaf_runs.iter().enumerate() {
            let node = Node::Leaf {
                entries: run.to_vec(),
                next: leaf_ids.get(i + 1).copied().unwrap_or(NO_LEAF),
            };
            tree.pool.write(leaf_ids[i], &node.to_bytes())?;
            level.push((run[0].0.clone(), leaf_ids[i]));
        }

        // Build internal levels until a single root remains.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            let mut start = 0usize;
            while start < level.len() {
                // Greedy: take children while the node fits (bytes + order).
                let mut end = start + 1;
                let mut bytes = FIXED; // child0 sits in the header
                while end < level.len() && end - start <= max_keys {
                    let add = entry_bytes(level[end].0.len(), false);
                    if bytes + add > capacity {
                        break;
                    }
                    bytes += add;
                    end += 1;
                }
                // Avoid a dangling single-child node at the end (except when
                // the whole level is one child, which becomes the root).
                if end == level.len() - 1 && end - start >= 2 {
                    end -= 1;
                }
                let group = &level[start..end];
                let node = Node::Internal {
                    keys: group[1..].iter().map(|(k, _)| k.clone()).collect(),
                    children: group.iter().map(|&(_, id)| id).collect(),
                };
                let id = tree.pool.device().allocate()?;
                tree.pool.write(id, &node.to_bytes())?;
                next_level.push((group[0].0.clone(), id));
                start = end;
            }
            level = next_level;
        }
        tree.root = level[0].1;
        Ok(tree)
    }

    /// The block id of the root node.
    #[inline]
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// The buffer pool this tree reads through.
    #[inline]
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    fn load(&self, id: BlockId) -> Result<Node, IndexError> {
        let bytes = self.pool.read(id)?;
        Node::from_bytes(id, &bytes)
    }

    fn store(&self, id: BlockId, node: &Node) -> Result<(), IndexError> {
        self.pool.write(id, &node.to_bytes())?;
        Ok(())
    }

    fn node_overflows(&self, node: &Node) -> bool {
        node.key_count() > self.max_keys || node.serialized_len() > node_capacity(&self.pool)
    }

    /// Reads the node `parent` points at: a pointer to no block is the
    /// parent's corruption, not a storage fault.
    fn read_child(&self, parent: BlockId, id: BlockId) -> Result<Arc<Vec<u8>>, IndexError> {
        self.pool.read(id).map_err(|e| match e {
            StorageError::NoSuchBlock { .. } => IndexError::CorruptNode {
                block: parent,
                detail: format!("pointer to missing block {id}"),
            },
            e => e.into(),
        })
    }

    /// The id and bytes of the leaf whose key range holds `key`, found by
    /// halving over each internal node's separators in place.
    fn leaf_for(&self, key: &[u8]) -> Result<(BlockId, Arc<Vec<u8>>), IndexError> {
        self.descend(key, |_, _| {})
    }

    /// [`Self::leaf_for`], telling `visit` each internal node passed and
    /// the position of the child taken.
    fn descend(
        &self,
        key: &[u8],
        mut visit: impl FnMut(BlockId, usize),
    ) -> Result<(BlockId, Arc<Vec<u8>>), IndexError> {
        let (mut id, mut bytes) = (self.root, self.pool.read(self.root)?);
        for _ in 0..MAX_HEIGHT {
            let view = NodeView::parse(id, &bytes)?;
            if view.is_leaf() {
                return Ok((id, bytes));
            }
            let (pos, child) = view.route(key)?;
            visit(id, pos);
            bytes = self.read_child(id, child)?;
            id = child;
        }
        Err(IndexError::CorruptNode {
            block: id,
            detail: format!("no leaf within {MAX_HEIGHT} levels"),
        })
    }

    /// Exact lookup. Allocates nothing when the path is in the pool.
    pub fn get(&self, key: &[u8]) -> Result<Option<u64>, IndexError> {
        let (id, bytes) = self.leaf_for(key)?;
        let view = NodeView::parse(id, &bytes)?;
        match view.search(key)? {
            Ok(i) => Ok(Some(view.entry(i)?.1)),
            Err(_) => Ok(None),
        }
    }

    /// Greatest entry with key ≤ `key`, if any.
    pub fn floor(&self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>, IndexError> {
        self.floor_with(key, |k, v| (k.to_vec(), v))
    }

    /// [`Self::floor`], handing the entry's key to `f` in place instead of
    /// copying it out: allocates nothing when the path is in the pool.
    pub fn floor_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8], u64) -> R,
    ) -> Result<Option<R>, IndexError> {
        let Some((id, bytes, i)) =
            self.floor_rec(self.root, self.pool.read(self.root)?, key, MAX_HEIGHT)?
        else {
            return Ok(None);
        };
        let (k, v) = NodeView::parse(id, &bytes)?.entry(i)?;
        Ok(Some(f(k, v)))
    }

    /// The paper's Fig. 4.4 routing: at each node, follow the child whose
    /// separator (or entry) is *closest* to the key by absolute numeric
    /// difference, treating keys as fixed-width big-endian integers.
    ///
    /// Provided for fidelity and for the test demonstrating why this crate
    /// routes by [`Self::floor`] instead: closest-difference routing can
    /// misdirect a key lying just past a block boundary (see
    /// `closest_routing_can_misroute`), while floor search is exact.
    pub fn closest(&self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>, IndexError> {
        let mut id = self.root;
        loop {
            match self.load(id)? {
                Node::Leaf { entries, .. } => {
                    return Ok(entries
                        .iter()
                        .min_by_key(|(k, _)| byte_distance(k, key))
                        .cloned());
                }
                Node::Internal { keys, children } => {
                    // The paper compares the key against each separator and
                    // follows "the link corresponding to the smaller of the
                    // differences": pick the child adjacent to the closest
                    // separator, on the side the key falls.
                    let (best, _) = keys
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, k)| byte_distance(k, key))
                        .expect("internal nodes have >= 1 key");
                    id = if key < keys[best].as_slice() {
                        children[best]
                    } else {
                        children[best + 1]
                    };
                }
            }
        }
    }

    /// The leaf holding the greatest entry `≤ key` under node `id`, and
    /// that entry's index in it.
    fn floor_rec(
        &self,
        id: BlockId,
        bytes: Arc<Vec<u8>>,
        key: &[u8],
        levels: usize,
    ) -> Result<Option<FloorHit>, IndexError> {
        let view = NodeView::parse(id, &bytes)?;
        if view.is_leaf() {
            let below = match view.search(key)? {
                Ok(i) => i + 1,
                Err(i) => i,
            };
            return Ok(below.checked_sub(1).map(|i| (id, bytes, i)));
        }
        let Some(levels) = levels.checked_sub(1) else {
            return Err(IndexError::CorruptNode {
                block: id,
                detail: format!("no leaf within {MAX_HEIGHT} levels"),
            });
        };
        // Fall back leftward across children emptied by lazy deletes.
        for i in (0..=view.route(key)?.0).rev() {
            let child = view.child(i)?;
            if let Some(hit) = self.floor_rec(child, self.read_child(id, child)?, key, levels)? {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// All entries with `lo ≤ key ≤ hi`, in key order.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Vec<u8>, u64)>, IndexError> {
        let mut out = Vec::new();
        self.range_each(lo, hi, |k, v| {
            out.push((k.to_vec(), v));
            Ok(())
        })?;
        Ok(out)
    }

    /// Hands each entry with `lo ≤ key ≤ hi` to `visit` in key order, its
    /// key borrowed from the leaf: allocates nothing when the leaves are in
    /// the pool. The first leaf is entered where `lo` would sit; an error
    /// from `visit` ends the walk and is returned.
    pub fn range_each(
        &self,
        lo: &[u8],
        hi: &[u8],
        mut visit: impl FnMut(&[u8], u64) -> Result<(), IndexError>,
    ) -> Result<(), IndexError> {
        if lo > hi {
            return Ok(());
        }
        // Walk the leaf chain from the leaf that would contain `lo`. A chain
        // longer than the device has blocks is a cycle; the device is
        // counted only once a walk gets that long.
        let (mut id, mut bytes) = self.leaf_for(lo)?;
        let (mut hops, mut max_hops) = (0usize, usize::MAX);
        let mut from = None;
        loop {
            let view = NodeView::parse(id, &bytes)?;
            if !view.is_leaf() {
                return Err(IndexError::CorruptNode {
                    block: id,
                    detail: "leaf chain reached internal node".into(),
                });
            }
            let start = match from {
                Some(start) => start,
                None => view.search(lo)?.unwrap_or_else(|i| i),
            };
            for i in start..view.nkeys() {
                let (k, v) = view.entry(i)?;
                if k > hi {
                    return Ok(());
                }
                visit(k, v)?;
            }
            from = Some(0);
            let next = view.first();
            if next == NO_LEAF {
                return Ok(());
            }
            hops += 1;
            if hops == MAX_HEIGHT {
                max_hops = self.pool.device().live_blocks();
            }
            if hops > max_hops {
                return Err(IndexError::CorruptNode {
                    block: id,
                    detail: "leaf chain revisits a leaf".into(),
                });
            }
            bytes = self.read_child(id, next)?;
            id = next;
        }
    }

    /// Inserts or replaces `key`, returning the previous payload if any.
    /// A leaf with room is edited in place (see `NodeView::slot`); only
    /// a leaf that would overflow is decoded and split.
    pub fn insert(&mut self, key: &[u8], value: u64) -> Result<Option<u64>, IndexError> {
        let entry = entry_bytes(key.len(), true);
        let capacity = node_capacity(&self.pool);
        if FIXED + entry > capacity {
            return Err(IndexError::EntryTooLarge {
                entry_bytes: entry,
                block_size: capacity,
            });
        }
        let (id, bytes) = self.leaf_for(key)?;
        let view = NodeView::parse(id, &bytes)?;
        let slot = view.slot(key)?;
        if let Some(old) = slot.found {
            self.pool.write(id, &view.with_value(&slot, key, value))?;
            return Ok(Some(old));
        }
        let nkeys = view.nkeys() + 1;
        if nkeys <= self.max_keys.min(u16::MAX as usize) && bytes.len() + entry <= capacity {
            self.pool
                .write(id, &view.with_inserted(&slot, key, value))?;
            return Ok(None);
        }
        self.insert_splitting(key, value)?;
        Ok(None)
    }

    /// Inserts absent `key` into a leaf it overflows: the leaf and every
    /// node on the path above it are decoded before anything is written,
    /// then the leaf splits and each split carries a separator up, growing
    /// a new root when the old one splits.
    fn insert_splitting(&mut self, key: &[u8], value: u64) -> Result<(), IndexError> {
        let mut path = Vec::new();
        let (id, bytes) = self.descend(key, |id, pos| path.push((id, pos)))?;
        let parents = path
            .iter()
            .map(|&(id, _)| self.load(id))
            .collect::<Result<Vec<_>, _>>()?;
        let Node::Leaf { mut entries, next } = Node::from_bytes(id, &bytes)? else {
            unreachable!("a descent ends at a leaf")
        };
        let at = entries.partition_point(|(k, _)| k.as_slice() < key);
        entries.insert(at, (key.to_vec(), value));
        let appended = next == NO_LEAF && at + 1 == entries.len();
        let mut carry = self.split_leaf(id, entries, next, appended)?;
        for ((id, pos), parent) in path.into_iter().zip(parents).rev() {
            let Some((sep, right)) = carry else {
                return Ok(());
            };
            let Node::Internal {
                mut keys,
                mut children,
            } = parent
            else {
                unreachable!("a descent passes internal nodes")
            };
            keys.insert(pos, sep);
            children.insert(pos + 1, right);
            carry = self.split_internal(id, keys, children)?;
        }
        if let Some((sep, right)) = carry {
            let new_root = self.pool.device().allocate()?;
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.store(new_root, &node)?;
            self.root = new_root;
        }
        Ok(())
    }

    /// Stores a leaf, split in two when it overflows; returns the right
    /// half's first key and id.
    fn split_leaf(
        &self,
        id: BlockId,
        entries: Vec<(Vec<u8>, u64)>,
        next: BlockId,
        appended: bool,
    ) -> Result<Option<(Vec<u8>, BlockId)>, IndexError> {
        let node = Node::Leaf { entries, next };
        if !self.node_overflows(&node) {
            self.store(id, &node)?;
            return Ok(None);
        }
        let Node::Leaf { mut entries, next } = node else {
            unreachable!()
        };
        // A key appended past the last leaf's last key starts a leaf of its
        // own and the full leaf stays full, so ascending inserts fill leaves
        // instead of leaving each half empty; any other split halves.
        let cut = if appended {
            entries.len() - 1
        } else {
            entries.len() / 2
        };
        let right_entries = entries.split_off(cut);
        let sep = right_entries[0].0.clone();
        let right_id = self.pool.device().allocate()?;
        self.store(
            right_id,
            &Node::Leaf {
                entries: right_entries,
                next,
            },
        )?;
        self.store(
            id,
            &Node::Leaf {
                entries,
                next: right_id,
            },
        )?;
        Ok(Some((sep, right_id)))
    }

    /// Stores an internal node, split in two when it overflows; returns
    /// the separator that moves up and the right half's id.
    fn split_internal(
        &self,
        id: BlockId,
        keys: Vec<Vec<u8>>,
        children: Vec<BlockId>,
    ) -> Result<Option<(Vec<u8>, BlockId)>, IndexError> {
        let node = Node::Internal { keys, children };
        if !self.node_overflows(&node) {
            self.store(id, &node)?;
            return Ok(None);
        }
        let Node::Internal {
            mut keys,
            mut children,
        } = node
        else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid + 1);
        let up = keys.pop().expect("`up` moves to the parent");
        let right_children = children.split_off(mid + 1);
        let right_id = self.pool.device().allocate()?;
        self.store(
            right_id,
            &Node::Internal {
                keys: right_keys,
                children: right_children,
            },
        )?;
        self.store(id, &Node::Internal { keys, children })?;
        Ok(Some((up, right_id)))
    }

    /// Removes `key` (lazy: no rebalancing), returning its payload. The
    /// entry is spliced out of the leaf's bytes.
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, IndexError> {
        let (id, bytes) = self.leaf_for(key)?;
        let view = NodeView::parse(id, &bytes)?;
        let slot = view.slot(key)?;
        let val = slot.found.ok_or(IndexError::KeyNotFound)?;
        self.pool.write(id, &view.without(&slot, key))?;
        Ok(val)
    }

    /// Rewrites the payloads of keys the tree holds, for a batch of
    /// strictly ascending `keys`, one leaf at a time: each leaf is reached
    /// by one descent, each key that falls in it is found by binary search,
    /// and `patch(i, payload)` returns the new payload of present key
    /// `keys[i]` or `None` to keep it. A key the tree does not hold is
    /// passed over, and no key is added or removed, so no node splits.
    ///
    /// Every touched leaf is parsed whole and patched in a private copy
    /// before the first is written; then each leaf with a changed payload
    /// is written exactly once. A node that does not parse fails the batch
    /// with `CorruptNode` and nothing is written (`patch` may already have
    /// been called). Returns the number of leaves written.
    pub fn patch_sorted<K: AsRef<[u8]>>(
        &mut self,
        keys: &[K],
        mut patch: impl FnMut(usize, u64) -> Option<u64>,
    ) -> Result<usize, IndexError> {
        debug_assert!(keys.windows(2).all(|w| w[0].as_ref() < w[1].as_ref()));
        let mut pending: Vec<(BlockId, Vec<u8>)> = Vec::new();
        let mut edits: Vec<(usize, u64)> = Vec::new();
        let mut i = 0;
        while i < keys.len() {
            let (id, bytes) = self.leaf_for(keys[i].as_ref())?;
            let view = NodeView::parse(id, &bytes)?;
            view.check()?;
            // Each key is found by halving; keys past the leaf's last entry
            // are looked for from the next descent on, and the key that
            // routed here and is absent is done.
            let mut j = i;
            while let Some(key) = keys.get(j) {
                match view.search(key.as_ref())? {
                    Ok(e) => {
                        let (k, v) = view.entry(e)?;
                        if let Some(new) = patch(j, v).filter(|&new| new != v) {
                            edits.push((view.offset(e)? + 2 + k.len(), new));
                        }
                    }
                    Err(e) if e == view.nkeys() => break,
                    Err(_) => {}
                }
                j += 1;
            }
            i = j.max(i + 1);
            if edits.is_empty() {
                continue;
            }
            let copy = match pending.iter().position(|(p, _)| *p == id) {
                Some(at) => &mut pending[at].1,
                None => {
                    pending.push((id, bytes.to_vec()));
                    &mut pending.last_mut().expect("just pushed").1
                }
            };
            for (at, new) in edits.drain(..) {
                copy[at..at + 8].copy_from_slice(&new.to_le_bytes());
            }
        }
        for (id, bytes) in &pending {
            self.pool.write(*id, bytes)?;
        }
        Ok(pending.len())
    }

    /// Walks the whole tree, returning shape statistics.
    pub fn stats(&self) -> Result<TreeStats, IndexError> {
        let mut stats = TreeStats {
            height: 0,
            nodes: 0,
            leaves: 0,
            entries: 0,
        };
        self.stats_rec(self.root, 1, &mut stats)?;
        Ok(stats)
    }

    fn stats_rec(&self, id: BlockId, depth: usize, st: &mut TreeStats) -> Result<(), IndexError> {
        st.nodes += 1;
        st.height = st.height.max(depth);
        match self.load(id)? {
            Node::Leaf { entries, .. } => {
                st.leaves += 1;
                st.entries += entries.len();
            }
            Node::Internal { children, .. } => {
                for c in children {
                    self.stats_rec(c, depth + 1, st)?;
                }
            }
        }
        Ok(())
    }

    /// Verifies structural invariants (used by tests): in-node key order,
    /// separator bounds, uniform leaf depth, leaf-chain order, and node
    /// capacity. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        let mut last_key: Option<Vec<u8>> = None;
        self.validate_rec(self.root, None, None, 1, &mut leaf_depths, &mut last_key)
            .map_err(|e| e.to_string())?;
        if let Some((&first, _)) = leaf_depths.split_first() {
            if leaf_depths.iter().any(|&d| d != first) {
                return Err("leaves at differing depths".into());
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_rec(
        &self,
        id: BlockId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
        last_key: &mut Option<Vec<u8>>,
    ) -> Result<(), String> {
        let node = self.load(id).map_err(|e| e.to_string())?;
        if node.key_count() > self.max_keys {
            return Err(format!("node {id} exceeds max_keys"));
        }
        if node.serialized_len() > node_capacity(&self.pool) {
            return Err(format!("node {id} exceeds block size"));
        }
        match node {
            Node::Leaf { entries, .. } => {
                leaf_depths.push(depth);
                for (k, _) in &entries {
                    if let Some(l) = lo {
                        if k.as_slice() < l {
                            return Err(format!("leaf {id} key below separator"));
                        }
                    }
                    if let Some(h) = hi {
                        if k.as_slice() >= h {
                            return Err(format!("leaf {id} key at/above separator"));
                        }
                    }
                    if let Some(prev) = last_key {
                        if k <= prev {
                            return Err(format!("leaf chain out of order at node {id}"));
                        }
                    }
                    *last_key = Some(k.clone());
                }
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(format!("node {id} child/key arity mismatch"));
                }
                if keys.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("node {id} keys out of order"));
                }
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 {
                        lo
                    } else {
                        Some(keys[i - 1].as_slice())
                    };
                    let child_hi = if i == keys.len() {
                        hi
                    } else {
                        Some(keys[i].as_slice())
                    };
                    self.validate_rec(child, child_lo, child_hi, depth + 1, leaf_depths, last_key)?;
                }
            }
        }
        Ok(())
    }
}

/// The largest node `pool`'s blocks hold: the block size, up to what a
/// `u16` offset table addresses.
fn node_capacity(pool: &BufferPool) -> usize {
    pool.device().block_size().min(MAX_NODE_BYTES)
}

/// |a − b| over big-endian byte strings of possibly different lengths,
/// returned as a comparable byte vector (shorter-padded comparison).
fn byte_distance(a: &[u8], b: &[u8]) -> Vec<u8> {
    // Normalize to a common width.
    let w = a.len().max(b.len());
    let pad = |x: &[u8]| -> Vec<u8> {
        let mut v = vec![0u8; w - x.len()];
        v.extend_from_slice(x);
        v
    };
    let (a, b) = (pad(a), pad(b));
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    // Schoolbook borrow subtraction, big-endian.
    let mut out = vec![0u8; w];
    let mut borrow = 0i16;
    for i in (0..w).rev() {
        let mut d = hi[i] as i16 - lo[i] as i16 - borrow;
        if d < 0 {
            d += 256;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out[i] = d as u8;
    }
    debug_assert_eq!(borrow, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use avq_storage::{BlockDevice, DiskProfile};

    fn pool(block_size: usize) -> Arc<BufferPool> {
        BufferPool::new(BlockDevice::new(block_size, DiskProfile::instant()), 64)
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn empty_tree() {
        let t = BPlusTree::create(pool(256)).unwrap();
        assert_eq!(t.get(&key(1)).unwrap(), None);
        assert_eq!(t.floor(&key(1)).unwrap(), None);
        assert!(t.range(&key(0), &key(9)).unwrap().is_empty());
        let st = t.stats().unwrap();
        assert_eq!((st.height, st.nodes, st.entries), (1, 1, 0));
        t.validate().unwrap();
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::create(pool(256)).unwrap();
        for i in [5u64, 1, 9, 3, 7] {
            assert_eq!(t.insert(&key(i), i * 10).unwrap(), None);
        }
        for i in [1u64, 3, 5, 7, 9] {
            assert_eq!(t.get(&key(i)).unwrap(), Some(i * 10));
        }
        assert_eq!(t.get(&key(2)).unwrap(), None);
        t.validate().unwrap();
    }

    #[test]
    fn upsert_replaces() {
        let mut t = BPlusTree::create(pool(256)).unwrap();
        assert_eq!(t.insert(&key(1), 10).unwrap(), None);
        assert_eq!(t.insert(&key(1), 20).unwrap(), Some(10));
        assert_eq!(t.get(&key(1)).unwrap(), Some(20));
        assert_eq!(t.stats().unwrap().entries, 1);
    }

    #[test]
    fn many_inserts_split_and_stay_valid() {
        let mut t = BPlusTree::create_with_order(pool(4096), 4).unwrap();
        // Insert in a scrambled order.
        for i in 0..500u64 {
            let k = (i * 7919) % 1000; // distinct mod 1000 since gcd(7919,1000)=1
            t.insert(&key(k), k).unwrap();
        }
        t.validate().unwrap();
        let st = t.stats().unwrap();
        assert_eq!(st.entries, 500);
        assert!(st.height >= 4, "order-4 tree of 500 keys must be deep");
        for i in 0..500u64 {
            let k = (i * 7919) % 1000;
            assert_eq!(t.get(&key(k)).unwrap(), Some(k));
        }
    }

    #[test]
    fn byte_capacity_forces_splits() {
        // Tiny blocks: a few entries per node even without an order cap.
        let mut t = BPlusTree::create(pool(64)).unwrap();
        for i in 0..100u64 {
            t.insert(&key(i), i).unwrap();
        }
        t.validate().unwrap();
        let st = t.stats().unwrap();
        assert!(st.nodes > 20);
        assert_eq!(st.entries, 100);
    }

    #[test]
    fn floor_semantics() {
        let mut t = BPlusTree::create_with_order(pool(4096), 4).unwrap();
        for i in (0..100u64).map(|i| i * 10) {
            t.insert(&key(i), i).unwrap();
        }
        assert_eq!(t.floor(&key(55)).unwrap().unwrap().1, 50);
        assert_eq!(t.floor(&key(50)).unwrap().unwrap().1, 50);
        assert_eq!(t.floor(&key(0)).unwrap().unwrap().1, 0);
        assert_eq!(t.floor(&[0u8; 8]).unwrap().unwrap().1, 0);
        assert_eq!(t.floor(&7u64.to_be_bytes()).unwrap().unwrap().1, 0);
        assert_eq!(t.floor(&key(99999)).unwrap().unwrap().1, 990);
    }

    #[test]
    fn floor_below_min_is_none() {
        let mut t = BPlusTree::create(pool(256)).unwrap();
        t.insert(&key(10), 1).unwrap();
        assert_eq!(t.floor(&key(9)).unwrap(), None);
    }

    #[test]
    fn range_scan() {
        let mut t = BPlusTree::create_with_order(pool(4096), 4).unwrap();
        for i in 0..200u64 {
            t.insert(&key(i), i).unwrap();
        }
        let hits = t.range(&key(50), &key(60)).unwrap();
        assert_eq!(hits.len(), 11);
        assert_eq!(hits[0].1, 50);
        assert_eq!(hits[10].1, 60);
        // Degenerate ranges.
        assert_eq!(t.range(&key(7), &key(7)).unwrap().len(), 1);
        assert!(t.range(&key(8), &key(7)).unwrap().is_empty());
        // Range covering everything.
        assert_eq!(t.range(&key(0), &key(1000)).unwrap().len(), 200);
    }

    #[test]
    fn delete_then_lookup() {
        let mut t = BPlusTree::create_with_order(pool(4096), 4).unwrap();
        for i in 0..100u64 {
            t.insert(&key(i), i).unwrap();
        }
        for i in (0..100u64).step_by(2) {
            assert_eq!(t.delete(&key(i)).unwrap(), i);
        }
        assert_eq!(t.delete(&key(0)).unwrap_err(), IndexError::KeyNotFound);
        for i in 0..100u64 {
            let expect = (i % 2 == 1).then_some(i);
            assert_eq!(t.get(&key(i)).unwrap(), expect);
        }
        // Floor skips deleted keys (possibly across emptied leaves).
        assert_eq!(t.floor(&key(50)).unwrap().unwrap().1, 49);
        t.validate().unwrap();
        assert_eq!(t.stats().unwrap().entries, 50);
    }

    #[test]
    fn floor_across_fully_emptied_subtree() {
        let mut t = BPlusTree::create_with_order(pool(4096), 2).unwrap();
        for i in 0..30u64 {
            t.insert(&key(i), i).unwrap();
        }
        // Empty out a stretch in the middle.
        for i in 10..20u64 {
            t.delete(&key(i)).unwrap();
        }
        assert_eq!(t.floor(&key(19)).unwrap().unwrap().1, 9);
        assert_eq!(t.range(&key(8), &key(21)).unwrap().len(), 4); // 8,9,20,21
    }

    #[test]
    fn bulk_build_matches_inserts() {
        let pairs: Vec<(Vec<u8>, u64)> = (0..300u64).map(|i| (key(i * 3), i)).collect();
        let t = BPlusTree::bulk_build(pool(512), 8, &pairs).unwrap();
        t.validate().unwrap();
        let st = t.stats().unwrap();
        assert_eq!(st.entries, 300);
        for (k, v) in &pairs {
            assert_eq!(t.get(k).unwrap(), Some(*v));
        }
        assert_eq!(t.floor(&key(4)).unwrap().unwrap().1, 1);
        assert_eq!(t.range(&key(30), &key(60)).unwrap().len(), 11);
    }

    #[test]
    fn bulk_build_empty_and_single() {
        let t = BPlusTree::bulk_build(pool(256), 4, &[]).unwrap();
        assert_eq!(t.stats().unwrap().entries, 0);
        let t = BPlusTree::bulk_build(pool(256), 4, &[(key(1), 11)]).unwrap();
        assert_eq!(t.get(&key(1)).unwrap(), Some(11));
        t.validate().unwrap();
    }

    #[test]
    fn bulk_build_rejects_unsorted() {
        let pairs = vec![(key(2), 0), (key(1), 1)];
        assert!(matches!(
            BPlusTree::bulk_build(pool(256), 4, &pairs).unwrap_err(),
            IndexError::UnsortedBuildInput { position: 1 }
        ));
        let dup = vec![(key(1), 0), (key(1), 1)];
        assert!(BPlusTree::bulk_build(pool(256), 4, &dup).is_err());
    }

    #[test]
    fn order3_tree_like_fig_4_4() {
        // An order-3 B⁺ tree (max 3 keys per node) over 7 block keys, as in
        // the paper's Fig. 4.4.
        let pairs: Vec<(Vec<u8>, u64)> = (0..7u64).map(|i| (key(i * 100), i)).collect();
        let t = BPlusTree::bulk_build(pool(4096), 3, &pairs).unwrap();
        t.validate().unwrap();
        let st = t.stats().unwrap();
        assert_eq!(st.height, 2);
        assert_eq!(st.entries, 7);
        // Whole-tuple key search descends to the correct data block.
        assert_eq!(t.floor(&key(350)).unwrap().unwrap().1, 3);
    }

    #[test]
    fn byte_distance_behaves_like_abs_diff() {
        let d = |a: u64, b: u64| byte_distance(&a.to_be_bytes(), &b.to_be_bytes());
        assert_eq!(d(100, 58), d(58, 100));
        assert_eq!(u64::from_be_bytes(d(100, 58).try_into().unwrap()), 42);
        assert_eq!(u64::from_be_bytes(d(7, 7).try_into().unwrap()), 0);
        // Mixed widths normalize.
        assert_eq!(byte_distance(&[1, 0], &[255]), vec![0, 1]);
    }

    #[test]
    fn closest_routing_finds_nearest_key() {
        // The paper's Fig. 4.4 walkthrough: whole-tuple keys, order-3 tree;
        // a lookup lands on the block whose key is nearest.
        let pairs: Vec<(Vec<u8>, u64)> = (0..7u64).map(|i| (key(i * 100), i)).collect();
        let t = BPlusTree::bulk_build(pool(4096), 3, &pairs).unwrap();
        // 310 is nearest to 300.
        assert_eq!(t.closest(&key(310)).unwrap().unwrap().1, 3);
        // 370 is nearest to 400.
        assert_eq!(t.closest(&key(370)).unwrap().unwrap().1, 4);
    }

    #[test]
    fn closest_routing_can_misroute() {
        // Why this crate uses floor search for block lookup instead of the
        // paper's closest-difference routing: a tuple belonging to block
        // [200, …) can sit *nearer* to the previous block's key, and
        // closest-routing then returns the wrong block.
        let pairs: Vec<(Vec<u8>, u64)> = [0u64, 190, 200].iter().map(|&v| (key(v), v)).collect();
        let t = BPlusTree::bulk_build(pool(4096), 3, &pairs).unwrap();
        // Key 195 belongs to the block starting at 190 (floor), and closest
        // agrees here...
        assert_eq!(t.floor(&key(195)).unwrap().unwrap().1, 190);
        assert_eq!(t.closest(&key(195)).unwrap().unwrap().1, 190);
        // ...but key 203 *belongs* to block 200 while sitting closer to 200
        // too — construct the actual divergence: key 196 belongs to block
        // 190 yet is closer to 200.
        assert_eq!(t.floor(&key(196)).unwrap().unwrap().1, 190);
        assert_eq!(
            t.closest(&key(196)).unwrap().unwrap().1,
            200,
            "closest-difference routing picks the wrong block"
        );
    }

    #[test]
    fn patch_sorted_writes_each_touched_leaf_once() {
        let device = BlockDevice::new(256, DiskProfile::instant());
        let pool = BufferPool::new(device.clone(), 512);
        let pairs: Vec<(Vec<u8>, u64)> = (0..2000u64).map(|i| (key(2 * i), i)).collect();
        let mut t = BPlusTree::bulk_build(pool, usize::MAX, &pairs).unwrap();
        let mut model: std::collections::BTreeMap<u64, u64> =
            (0..2000u64).map(|i| (2 * i, i)).collect();
        // Present and absent keys, scattered, some left unchanged.
        let keys: Vec<[u8; 8]> = (0..700u64).map(|i| (i * 11 % 4100).to_be_bytes()).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let mut touched = std::collections::BTreeSet::new();
        for k in &keys {
            let v = u64::from_be_bytes(*k);
            if !v.is_multiple_of(3) && model.contains_key(&v) {
                touched.insert(t.leaf_for(k).unwrap().0);
            }
        }
        let writes = device.io_stats().writes;
        let mut seen = Vec::new();
        let written = t
            .patch_sorted(&keys, |i, old| {
                let v = u64::from_be_bytes(keys[i]);
                assert_eq!(Some(&old), model.get(&v), "payload handed over");
                seen.push(v);
                (!v.is_multiple_of(3)).then_some(old + 1_000_000)
            })
            .unwrap();
        assert!(touched.len() > 10, "the batch spans many leaves");
        assert_eq!(written, touched.len());
        assert_eq!(device.io_stats().writes - writes, touched.len() as u64);
        let present: Vec<u64> = keys
            .iter()
            .map(|k| u64::from_be_bytes(*k))
            .filter(|v| model.contains_key(v))
            .collect();
        assert_eq!(seen, present, "each present key once, in order");
        for v in present.iter().filter(|v| !v.is_multiple_of(3)) {
            *model.get_mut(v).unwrap() += 1_000_000;
        }
        for v in 0..4100u64 {
            assert_eq!(t.get(&key(v)).unwrap(), model.get(&v).copied(), "key {v}");
        }
        t.validate().unwrap();
        assert_eq!(t.patch_sorted(&[key(1)], |_, _| Some(0)).unwrap(), 0);
    }

    #[test]
    fn ascending_inserts_fill_their_leaves() {
        // Each key past the last leaf's last one starts a leaf of its own,
        // so the leaf it overflows stays full: ascending inserts leave full
        // leaves, where halving splits left every leaf half empty.
        let mut t = BPlusTree::create_with_order(pool(4096), 8).unwrap();
        for i in 0..2000u64 {
            t.insert(&key(i), i).unwrap();
        }
        t.validate().unwrap();
        let st = t.stats().unwrap();
        assert_eq!((st.entries, st.leaves), (2000, 250));
        // A key that lands inside a full leaf still halves it.
        t.insert(&key(2000 + 7), 0).unwrap();
        t.insert(&[0, 0, 0, 0, 0, 0, 0, 0, 1], 0).unwrap();
        t.validate().unwrap();
        assert_eq!(t.stats().unwrap().leaves, 252);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = BPlusTree::create(pool(64)).unwrap();
        let huge = vec![0u8; 100];
        assert!(matches!(
            t.insert(&huge, 1).unwrap_err(),
            IndexError::EntryTooLarge { .. }
        ));
    }

    #[test]
    fn index_io_is_charged() {
        let device = BlockDevice::new(4096, DiskProfile::paper_fixed());
        let pool = BufferPool::new(device.clone(), 128);
        let pairs: Vec<(Vec<u8>, u64)> = (0..500u64).map(|i| (key(i), i)).collect();
        let t = BPlusTree::bulk_build(pool.clone(), 8, &pairs).unwrap();
        pool.clear();
        device.reset_stats();
        device.clock().reset();
        t.get(&key(250)).unwrap();
        let reads = device.io_stats().reads;
        assert_eq!(reads as usize, t.stats().unwrap().height.min(4));
        assert!(device.clock().now_ms() >= 30.0 * reads as f64 - 1e-9);
    }
}

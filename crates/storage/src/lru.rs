//! An O(1) intrusive LRU list over slab indices, used by the buffer pool
//! and the decoded-block cache.

/// Doubly-linked LRU order over `usize` slots. All operations are O(1).
///
/// The list tracks *recency order only*; the caller owns the slot payloads.
#[derive(Debug)]
pub(crate) struct LruList {
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    len: usize,
}

const NIL: usize = usize::MAX;

impl LruList {
    /// A list with capacity for `cap` slots, all initially detached.
    pub fn new(cap: usize) -> Self {
        LruList {
            prev: vec![NIL; cap],
            next: vec![NIL; cap],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of attached slots.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Attaches a slot at the most-recently-used end.
    ///
    /// # Panics
    /// Panics (in debug builds) if the slot is already attached.
    pub fn push_front(&mut self, slot: usize) {
        debug_assert!(self.prev[slot] == NIL && self.next[slot] == NIL && self.head != slot);
        self.next[slot] = self.head;
        self.prev[slot] = NIL;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.len += 1;
    }

    /// Attaches a slot at the least-recently-used end: the next slot
    /// [`Self::lru`] names, unless another is attached behind it first.
    ///
    /// # Panics
    /// Panics (in debug builds) if the slot is already attached.
    pub fn push_back(&mut self, slot: usize) {
        debug_assert!(self.prev[slot] == NIL && self.next[slot] == NIL && self.head != slot);
        self.prev[slot] = self.tail;
        self.next[slot] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = slot;
        }
        self.tail = slot;
        if self.head == NIL {
            self.head = slot;
        }
        self.len += 1;
    }

    /// Detaches a slot from wherever it is.
    pub fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else if self.head == slot {
            self.head = n;
        } else {
            return; // not attached
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.len -= 1;
    }

    /// Moves an attached slot to the most-recently-used end.
    pub fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// The least-recently-used slot, if any.
    pub fn lru(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// The attached slots, most recently used first.
    #[cfg(test)]
    pub fn order(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NIL {
            v.push(cur);
            cur = self.next[cur];
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_order() {
        let mut l = LruList::new(4);
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        assert_eq!(l.order(), vec![2, 1, 0]);
        assert_eq!(l.lru(), Some(0));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn push_back_attaches_at_lru_end() {
        let mut l = LruList::new(5);
        l.push_back(0); // into an empty list: both ends
        assert_eq!((l.order(), l.lru()), (vec![0], Some(0)));
        l.push_front(1);
        l.push_back(2);
        assert_eq!(l.order(), vec![1, 0, 2]);
        assert_eq!(l.lru(), Some(2), "the cold slot is the next victim");
        assert_eq!(l.len(), 3);
        l.touch(2); // a hit promotes a cold slot like any other
        assert_eq!(l.order(), vec![2, 1, 0]);
        l.unlink(0);
        l.push_back(3);
        assert_eq!(l.order(), vec![2, 1, 3]);
        l.unlink(3); // unlinking the cold tail restores the old one
        assert_eq!(l.lru(), Some(1));
        l.unlink(2);
        l.unlink(1);
        l.push_back(4);
        assert_eq!((l.order(), l.lru(), l.len()), (vec![4], Some(4), 1));
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new(4);
        for i in 0..4 {
            l.push_front(i);
        }
        l.touch(1);
        assert_eq!(l.order(), vec![1, 3, 2, 0]);
        l.touch(1); // touching the head is a no-op
        assert_eq!(l.order(), vec![1, 3, 2, 0]);
        assert_eq!(l.lru(), Some(0));
    }

    #[test]
    fn unlink_middle_head_tail() {
        let mut l = LruList::new(4);
        for i in 0..4 {
            l.push_front(i);
        }
        l.unlink(2); // middle
        assert_eq!(l.order(), vec![3, 1, 0]);
        l.unlink(3); // head
        assert_eq!(l.order(), vec![1, 0]);
        l.unlink(0); // tail
        assert_eq!(l.order(), vec![1]);
        assert_eq!(l.lru(), Some(1));
        l.unlink(1);
        assert_eq!(l.len(), 0);
        assert_eq!(l.lru(), None);
    }

    #[test]
    fn unlink_detached_is_noop() {
        let mut l = LruList::new(3);
        l.push_front(0);
        l.unlink(2);
        assert_eq!(l.order(), vec![0]);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn reattach_after_unlink() {
        let mut l = LruList::new(3);
        l.push_front(0);
        l.push_front(1);
        l.unlink(0);
        l.push_front(0);
        assert_eq!(l.order(), vec![0, 1]);
    }
}

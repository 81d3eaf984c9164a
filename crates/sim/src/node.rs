//! Generational node storage, laid out struct-of-arrays.
//!
//! Under churn the simulator constantly removes and inserts nodes. A plain
//! `Vec` would either leak slots or let a stale [`NodeId`] silently address
//! a *different* node after slot reuse. [`NodeSlab`] therefore pairs each
//! slot with a generation counter; a `NodeId` is only valid while its
//! generation matches.
//!
//! The slab stores slot *metadata* (generation, live-list back pointer,
//! occupancy) and node *payload* in separate parallel columns indexed by
//! slot. Membership operations — `contains`, id iteration, random peer
//! selection, live-list bookkeeping — walk only the 12-byte metadata
//! column, so at 10⁶ nodes they stay in cache instead of striding over
//! multi-kilobyte protocol states. The generational-id API is unchanged,
//! so callers are oblivious to the layout.

use rand::rngs::StdRng;
use rand::RngExt as _;

/// Identifier of a node in a [`NodeSlab`].
///
/// Ids are cheap `Copy` handles. An id becomes *stale* once its node is
/// removed; stale ids are safely rejected by all slab accessors (overlay
/// views hold stale ids routinely under churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    slot: u32,
    generation: u32,
}

impl NodeId {
    /// The slot index, useful for dense per-node side tables (traffic
    /// counters, etc.). Slots are reused across generations.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The generation of this id.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Builds an id from raw parts, for unit tests that need ids without a
    /// slab.
    #[cfg(test)]
    pub(crate) fn for_tests(slot: u32, generation: u32) -> Self {
        Self { slot, generation }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}g{}", self.slot, self.generation)
    }
}

/// Per-slot metadata column entry: everything membership queries need,
/// without touching the payload column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotMeta {
    pub(crate) generation: u32,
    /// Index of this slot in `live`, valid only while occupied.
    live_pos: u32,
    /// Mirrors `payload[slot].is_some()`.
    pub(crate) occupied: bool,
}

/// Generational slab of live nodes with O(1) insert, remove, lookup and
/// uniform random selection.
///
/// # Examples
///
/// ```
/// let mut slab = adam2_sim::NodeSlab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.len(), 2);
/// assert_eq!(slab.remove(a), Some("alpha"));
/// assert!(slab.get(a).is_none());
/// assert_eq!(slab.get(b), Some(&"beta"));
/// ```
#[derive(Debug)]
pub struct NodeSlab<N> {
    meta: Vec<SlotMeta>,
    payload: Vec<Option<N>>,
    free: Vec<u32>,
    live: Vec<u32>,
}

impl<N> Default for NodeSlab<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N> NodeSlab<N> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self {
            meta: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Creates an empty slab with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            meta: Vec::with_capacity(n),
            payload: Vec::with_capacity(n),
            free: Vec::new(),
            live: Vec::with_capacity(n),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Total number of slots ever allocated (live + free). Useful for
    /// sizing dense side tables indexed by [`NodeId::slot`].
    pub fn slot_count(&self) -> usize {
        self.meta.len()
    }

    /// Inserts a node and returns its id.
    pub fn insert(&mut self, node: N) -> NodeId {
        let slot = match self.free.pop() {
            Some(slot) => {
                let m = &mut self.meta[slot as usize];
                m.generation = m.generation.wrapping_add(1);
                m.live_pos = self.live.len() as u32;
                m.occupied = true;
                self.payload[slot as usize] = Some(node);
                slot
            }
            None => {
                let slot = self.meta.len() as u32;
                self.meta.push(SlotMeta {
                    generation: 0,
                    live_pos: self.live.len() as u32,
                    occupied: true,
                });
                self.payload.push(Some(node));
                slot
            }
        };
        self.live.push(slot);
        NodeId {
            slot,
            generation: self.meta[slot as usize].generation,
        }
    }

    /// Removes a node, returning its state, or `None` if `id` is stale.
    pub fn remove(&mut self, id: NodeId) -> Option<N> {
        if !self.contains(id) {
            return None;
        }
        let slot = id.slot as usize;
        let node = self.payload[slot].take();
        self.meta[slot].occupied = false;
        let pos = self.meta[slot].live_pos as usize;
        // Swap-remove from the live list, fixing the moved entry's back
        // pointer.
        let last = *self.live.last().expect("live list non-empty");
        self.live.swap_remove(pos);
        if pos < self.live.len() {
            self.meta[last as usize].live_pos = pos as u32;
        }
        self.free.push(id.slot);
        node
    }

    /// Whether `id` addresses a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.meta
            .get(id.slot as usize)
            .map(|m| m.generation == id.generation && m.occupied)
            .unwrap_or(false)
    }

    /// Shared access to a node.
    pub fn get(&self, id: NodeId) -> Option<&N> {
        let m = self.meta.get(id.slot as usize)?;
        if m.generation != id.generation {
            return None;
        }
        self.payload[id.slot as usize].as_ref()
    }

    /// Exclusive access to a node.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut N> {
        let m = self.meta.get(id.slot as usize)?;
        if m.generation != id.generation {
            return None;
        }
        self.payload[id.slot as usize].as_mut()
    }

    /// The id of the live node in `slot`, if any.
    pub fn id_at_slot(&self, slot: usize) -> Option<NodeId> {
        let m = self.meta.get(slot)?;
        if !m.occupied {
            return None;
        }
        Some(NodeId {
            slot: slot as u32,
            generation: m.generation,
        })
    }

    /// A uniformly random live node id, or `None` if the slab is empty.
    pub fn random_id(&self, rng: &mut StdRng) -> Option<NodeId> {
        if self.live.is_empty() {
            return None;
        }
        let slot = self.live[rng.random_range(0..self.live.len())];
        self.id_at_slot(slot as usize)
    }

    /// A uniformly random live node id different from `not`, or `None` if
    /// no such node exists.
    pub fn random_other(&self, not: NodeId, rng: &mut StdRng) -> Option<NodeId> {
        if self.live.len() < 2 {
            let only = self.ids().next()?;
            return (only != not).then_some(only);
        }
        // Rejection sampling terminates quickly because len >= 2.
        loop {
            let candidate = self.random_id(rng)?;
            if candidate != not {
                return Some(candidate);
            }
        }
    }

    /// The live slots in live-list order (the order [`random_id`] samples
    /// from). Stable between membership changes.
    ///
    /// [`random_id`]: NodeSlab::random_id
    pub fn live_slots(&self) -> &[u32] {
        &self.live
    }

    /// Iterates over live `(id, &node)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.meta
            .iter()
            .zip(&self.payload)
            .enumerate()
            .filter_map(|(slot, (m, n))| {
                n.as_ref().map(|n| {
                    (
                        NodeId {
                            slot: slot as u32,
                            generation: m.generation,
                        },
                        n,
                    )
                })
            })
    }

    /// Iterates over live `(id, &mut node)` pairs in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut N)> {
        self.meta
            .iter()
            .zip(self.payload.iter_mut())
            .enumerate()
            .filter_map(|(slot, (m, n))| {
                let generation = m.generation;
                n.as_mut().map(move |n| {
                    (
                        NodeId {
                            slot: slot as u32,
                            generation,
                        },
                        n,
                    )
                })
            })
    }

    /// Iterates over live node ids in slot order (a pure metadata-column
    /// scan — the payload is never touched).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.meta.iter().enumerate().filter_map(|(slot, m)| {
            m.occupied.then_some(NodeId {
                slot: slot as u32,
                generation: m.generation,
            })
        })
    }

    /// Collects the live ids into a vector (handy for iteration orders that
    /// must survive concurrent mutation of the slab). Hot loops should
    /// prefer [`collect_ids`](NodeSlab::collect_ids) into a reused buffer.
    pub fn id_vec(&self) -> Vec<NodeId> {
        self.ids().collect()
    }

    /// Collects the live ids (slot order) into `buf`, reusing its
    /// allocation. The per-round replacement for [`id_vec`]
    /// (`NodeSlab::id_vec`) in hot loops.
    ///
    /// [`id_vec`]: NodeSlab::id_vec
    pub fn collect_ids(&self, buf: &mut Vec<NodeId>) {
        buf.clear();
        buf.extend(self.ids());
    }

    /// Visits every live node with exclusive access, splitting the slot
    /// space into contiguous chunks processed by up to `threads` scoped
    /// threads, and stores each node's result at `out[id.slot()]`.
    ///
    /// The chunks partition the slot array, so each node is owned by exactly
    /// one thread — no synchronisation is needed. Entries of `out` at free
    /// slots are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.slot_count()`.
    pub(crate) fn par_for_each_live_mut<R, F>(
        &mut self,
        threads: usize,
        out: &mut [Option<R>],
        f: F,
    ) where
        N: Send,
        R: Send,
        F: Fn(NodeId, &mut N) -> R + Sync,
    {
        let meta = &self.meta;
        crate::executor::par_zip(&mut self.payload, out, threads, |base, nodes, outs| {
            for (i, (n, out)) in nodes.iter_mut().zip(outs.iter_mut()).enumerate() {
                if let Some(node) = n.as_mut() {
                    let id = NodeId {
                        slot: (base + i) as u32,
                        generation: meta[base + i].generation,
                    };
                    *out = Some(f(id, node));
                }
            }
        });
    }

    /// An unsynchronised shared handle over the payload column, for the
    /// apply phase, where the *caller* guarantees disjointness (each slot
    /// borrowed by at most one thread, and once, at a time).
    pub(crate) fn raw_slots(&mut self) -> RawSlots<'_, N> {
        RawSlots {
            meta: &self.meta,
            ptr: self.payload.as_mut_ptr(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Splits the slab into a read-only membership view and a raw payload
    /// handle, so parallel batch phases can sample peers (metadata column)
    /// while mutating slot-disjoint node states (payload column).
    pub(crate) fn batch_split(&mut self) -> (PeerView<'_>, RawSlots<'_, N>) {
        let view = PeerView {
            meta: &self.meta,
            live: &self.live,
        };
        let raw = RawSlots {
            meta: &self.meta,
            ptr: self.payload.as_mut_ptr(),
            _marker: std::marker::PhantomData,
        };
        (view, raw)
    }
}

/// Read-only membership view over the metadata column: id validation and
/// random peer selection without touching (or borrowing) the payload.
/// Mirrors the corresponding [`NodeSlab`] methods bit-exactly.
#[derive(Clone, Copy)]
pub(crate) struct PeerView<'a> {
    meta: &'a [SlotMeta],
    live: &'a [u32],
}

impl PeerView<'_> {
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.meta
            .get(id.slot as usize)
            .map(|m| m.generation == id.generation && m.occupied)
            .unwrap_or(false)
    }

    pub(crate) fn id_at_slot(&self, slot: usize) -> Option<NodeId> {
        let m = self.meta.get(slot)?;
        if !m.occupied {
            return None;
        }
        Some(NodeId {
            slot: slot as u32,
            generation: m.generation,
        })
    }

    pub(crate) fn random_id(&self, rng: &mut StdRng) -> Option<NodeId> {
        if self.live.is_empty() {
            return None;
        }
        let slot = self.live[rng.random_range(0..self.live.len())];
        self.id_at_slot(slot as usize)
    }

    /// The live node with the lowest slot other than `not` (the
    /// deterministic victim of a targeted-partner attack).
    pub(crate) fn lowest_other(&self, not: NodeId) -> Option<NodeId> {
        let mut best: Option<u32> = None;
        for &slot in self.live {
            if slot == not.slot {
                continue;
            }
            best = Some(best.map_or(slot, |b| b.min(slot)));
        }
        best.and_then(|slot| self.id_at_slot(slot as usize))
    }

    pub(crate) fn random_other(&self, not: NodeId, rng: &mut StdRng) -> Option<NodeId> {
        if self.live.len() < 2 {
            let only = self
                .meta
                .iter()
                .position(|m| m.occupied)
                .and_then(|slot| self.id_at_slot(slot))?;
            return (only != not).then_some(only);
        }
        loop {
            let candidate = self.random_id(rng)?;
            if candidate != not {
                return Some(candidate);
            }
        }
    }
}

/// Shared handle that hands out `&mut N` by raw pointer for slot-disjoint
/// parallel mutation (see [`NodeSlab::raw_slots`]). Generation checks go
/// through the (read-only) metadata column.
pub(crate) struct RawSlots<'a, N> {
    meta: &'a [SlotMeta],
    ptr: *mut Option<N>,
    _marker: std::marker::PhantomData<&'a mut N>,
}

// One RawSlots is shared across the scoped workers of an apply phase on
// more than one thread, which meet at a barrier between batches; the engine
// guarantees the payload slots they dereference within one batch are
// disjoint. The metadata side is a plain shared slice.
unsafe impl<N: Send> Sync for RawSlots<'_, N> {}
unsafe impl<N: Send> Send for RawSlots<'_, N> {}

impl<'a, N> RawSlots<'a, N> {
    /// Exclusive access to the node addressed by `id`, or `None` if the id
    /// is stale or out of range.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no other reference to the same slot
    /// (through this handle or otherwise) is alive for the duration of the
    /// returned borrow.
    pub(crate) unsafe fn get_mut(&self, id: NodeId) -> Option<&'a mut N> {
        let m = self.meta.get(id.slot())?;
        if m.generation != id.generation {
            return None;
        }
        (*self.ptr.add(id.slot())).as_mut()
    }

    /// Payload slot `slot`, shared, with no generation check (for cache
    /// hints).
    ///
    /// # Safety
    ///
    /// No exclusive borrow of the slot may be alive while the result is.
    pub(crate) unsafe fn peek_slot(&self, slot: usize) -> &'a Option<N> {
        assert!(slot < self.meta.len(), "slot {slot} out of range");
        &*self.ptr.add(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn insert_get_remove() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
    }

    #[test]
    fn stale_ids_are_rejected_after_reuse() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // Slot is reused but generation differs.
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a, b);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), Some(&2));
        assert!(!slab.contains(a));
        assert!(slab.contains(b));
    }

    #[test]
    fn random_other_never_returns_self() {
        let mut slab = NodeSlab::new();
        let ids: Vec<_> = (0..10).map(|i| slab.insert(i)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let other = slab.random_other(ids[0], &mut rng).unwrap();
            assert_ne!(other, ids[0]);
        }
    }

    #[test]
    fn random_other_in_singleton_slab_is_none() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(1);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(slab.random_other(a, &mut rng), None);
    }

    #[test]
    fn live_list_stays_consistent_under_churn() {
        let mut slab = NodeSlab::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ids: Vec<NodeId> = (0..100).map(|i| slab.insert(i)).collect();
        for round in 0..1000 {
            if !ids.is_empty() && round % 3 != 0 {
                let pick = rng.random_range(0..ids.len());
                let id = ids.swap_remove(pick);
                assert!(slab.remove(id).is_some());
            } else {
                ids.push(slab.insert(round));
            }
            assert_eq!(slab.len(), ids.len());
        }
        // All remembered ids are still addressable.
        for id in &ids {
            assert!(slab.contains(*id));
        }
        assert_eq!(slab.ids().count(), ids.len());
    }

    #[test]
    fn iter_mut_visits_every_live_node() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(1);
        let _b = slab.insert(2);
        slab.remove(a);
        let visited: Vec<i32> = slab.iter_mut().map(|(_, n)| *n).collect();
        assert_eq!(visited, vec![2]);
    }

    #[test]
    fn par_for_each_live_mut_visits_exactly_the_live_nodes() {
        for threads in [1, 2, 4] {
            let mut slab = NodeSlab::new();
            let ids: Vec<NodeId> = (0..50).map(|i| slab.insert(i)).collect();
            for id in ids.iter().step_by(3) {
                slab.remove(*id);
            }
            let mut out: Vec<Option<i32>> = vec![None; slab.slot_count()];
            slab.par_for_each_live_mut(threads, &mut out, |id, n| {
                *n += 1;
                assert_eq!(id.slot(), *n as usize - 1);
                *n
            });
            for (slot, o) in out.iter().enumerate() {
                match slab.id_at_slot(slot) {
                    Some(_) => assert_eq!(*o, Some(slot as i32 + 1)),
                    None => assert_eq!(*o, None),
                }
            }
        }
    }

    #[test]
    fn raw_slots_checks_generation_and_bounds() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        let c = slab.insert(3); // reuses a's slot with a newer generation
        let d = slab.insert(4);
        slab.remove(d);
        let raw = slab.raw_slots();
        unsafe {
            assert_eq!(raw.get_mut(a), None, "stale id rejected");
            assert_eq!(raw.get_mut(d), None, "dead slot rejected");
            assert_eq!(raw.get_mut(b).map(|n| *n), Some(2));
            assert_eq!(raw.get_mut(c).map(|n| *n), Some(3));
        }
    }

    #[test]
    fn peer_view_mirrors_slab_sampling_bit_exactly() {
        let mut slab = NodeSlab::new();
        let ids: Vec<NodeId> = (0..40).map(|i| slab.insert(i)).collect();
        for id in ids.iter().step_by(4) {
            slab.remove(*id);
        }
        // Same seed, same membership history -> identical draws.
        let mut a = StdRng::seed_from_u64(9);
        let reference: Vec<Option<NodeId>> = (0..100)
            .map(|_| slab.random_other(ids[1], &mut a))
            .collect();
        let mut b = StdRng::seed_from_u64(9);
        let (view, _raw) = slab.batch_split();
        let sampled: Vec<Option<NodeId>> = (0..100)
            .map(|_| view.random_other(ids[1], &mut b))
            .collect();
        assert_eq!(reference, sampled);
        assert_eq!(view.len(), 30);
        assert!(view.contains(ids[1]));
        assert!(!view.contains(ids[0]));
    }

    #[test]
    fn collect_ids_reuses_the_buffer() {
        let mut slab = NodeSlab::new();
        let ids: Vec<NodeId> = (0..10).map(|i| slab.insert(i)).collect();
        slab.remove(ids[3]);
        let mut buf = Vec::new();
        slab.collect_ids(&mut buf);
        assert_eq!(buf, slab.id_vec());
        let cap = buf.capacity();
        slab.collect_ids(&mut buf);
        assert_eq!(buf.capacity(), cap, "second collect must not reallocate");
    }

    /// Reference slab: the naive AoS implementation the SoA layout must
    /// match operation-for-operation.
    struct RefSlab<N> {
        slots: Vec<(u32, Option<N>)>,
        free: Vec<u32>,
        live: Vec<u32>,
        live_pos: Vec<u32>,
    }

    impl<N: Clone + PartialEq + std::fmt::Debug> RefSlab<N> {
        fn new() -> Self {
            Self {
                slots: Vec::new(),
                free: Vec::new(),
                live: Vec::new(),
                live_pos: Vec::new(),
            }
        }

        fn insert(&mut self, node: N) -> NodeId {
            let slot = match self.free.pop() {
                Some(slot) => {
                    let s = &mut self.slots[slot as usize];
                    s.0 = s.0.wrapping_add(1);
                    s.1 = Some(node);
                    self.live_pos[slot as usize] = self.live.len() as u32;
                    slot
                }
                None => {
                    let slot = self.slots.len() as u32;
                    self.slots.push((0, Some(node)));
                    self.live_pos.push(self.live.len() as u32);
                    slot
                }
            };
            self.live.push(slot);
            NodeId::for_tests(slot, self.slots[slot as usize].0)
        }

        fn remove(&mut self, id: NodeId) -> Option<N> {
            let s = self.slots.get_mut(id.slot())?;
            if s.0 != id.generation() {
                return None;
            }
            let node = s.1.take()?;
            let pos = self.live_pos[id.slot()] as usize;
            let last = *self.live.last().unwrap();
            self.live.swap_remove(pos);
            if pos < self.live.len() {
                self.live_pos[last as usize] = pos as u32;
            }
            self.free.push(id.slot() as u32);
            Some(node)
        }

        fn get(&self, id: NodeId) -> Option<&N> {
            let s = self.slots.get(id.slot())?;
            if s.0 != id.generation() {
                return None;
            }
            s.1.as_ref()
        }
    }

    #[test]
    fn soa_slab_round_trips_against_reference_under_churn() {
        // Property test: a long randomized insert/remove/lookup schedule
        // must produce identical ids, payloads, live sets, and live-list
        // orders in both layouts (the live order feeds random peer
        // selection, so it must match exactly, not just as a set).
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut soa: NodeSlab<u64> = NodeSlab::new();
        let mut reference: RefSlab<u64> = RefSlab::new();
        let mut ids: Vec<NodeId> = Vec::new();
        let mut retired: Vec<NodeId> = Vec::new();
        for step in 0..5000u64 {
            match rng.random_range(0..10) {
                // Weighted towards inserts early, removals once populated.
                0..=4 => {
                    let a = soa.insert(step);
                    let b = reference.insert(step);
                    assert_eq!(a, b, "ids diverged at step {step}");
                    ids.push(a);
                }
                5..=8 if !ids.is_empty() => {
                    let pick = rng.random_range(0..ids.len());
                    let id = ids.swap_remove(pick);
                    assert_eq!(soa.remove(id), reference.remove(id));
                    retired.push(id);
                }
                _ => {
                    // Lookups: live, stale, and out-of-range ids.
                    if let Some(id) = ids.last() {
                        assert_eq!(soa.get(*id), reference.get(*id));
                    }
                    if let Some(id) = retired.last() {
                        assert_eq!(soa.get(*id), reference.get(*id));
                        assert!(!soa.contains(*id));
                    }
                }
            }
            assert_eq!(soa.len(), reference.live.len());
            assert_eq!(soa.live_slots(), &reference.live[..], "live order diverged");
        }
        // Full sweeps agree at the end.
        for id in &ids {
            assert_eq!(soa.get(*id), reference.get(*id));
        }
        for id in &retired {
            if !ids.contains(id) {
                assert!(soa.get(*id).is_none() || soa.contains(*id));
            }
        }
        assert_eq!(soa.ids().count(), ids.len());
    }
}

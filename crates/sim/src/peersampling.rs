//! The generic gossip-based peer-sampling framework (Jelasity, Voulgaris,
//! Guerraoui, Kermarrec & van Steen, TOCS 2007) — the paper's overlay
//! substrate, the paper's reference \[11\].
//!
//! Every node keeps a *partial view*: up to `view_size` node descriptors,
//! each with an *age*. Periodically a node selects a peer (uniformly at
//! random or the oldest descriptor — `rand`/`tail`), the two exchange
//! buffers of `exchange_len` descriptors (each side's buffer leads with a
//! fresh self-descriptor), and each installs the received buffer with two
//! tunable clean-up steps:
//!
//! * **healing `H`** — after merging, drop up to `H` of the *oldest*
//!   descriptors: old descriptors are the likeliest to be dead, so larger
//!   `H` purges failed nodes faster;
//! * **swapping `S`** — drop up to `S` of the descriptors that were just
//!   sent to the peer: larger `S` makes the exchange closer to a swap
//!   (Cyclon), reducing descriptor replication.
//!
//! The framework subsumes the classic protocols: `H=0, S=ℓ` ≈ Cyclon,
//! `H=ℓ, S=0` ≈ Newscast-with-healing. The [`Overlay`](crate::Overlay)
//! shuffle mode drives this module once per round.
//!
//! All steps are pure functions over [`PsView`]s so the policies can be
//! unit-tested without an engine.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt as _;

use crate::node::{NodeId, NodeSlab};

/// How the gossip partner is selected from the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerSelection {
    /// A uniformly random view entry.
    #[default]
    Random,
    /// The entry with the highest age ("tail") — detects failed peers
    /// sooner and evens out descriptor ages.
    Tail,
}

/// Parameters of the peer-sampling framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSamplingPolicy {
    /// Partial view size `c`.
    pub view_size: usize,
    /// Descriptors exchanged per gossip (`ℓ`, including the fresh
    /// self-descriptor).
    pub exchange_len: usize,
    /// Healing parameter `H`: old descriptors dropped after a merge.
    pub healing: usize,
    /// Swapping parameter `S`: sent descriptors dropped after a merge.
    pub swap: usize,
    /// Partner selection policy.
    pub selection: PeerSelection,
}

impl PeerSamplingPolicy {
    /// A balanced default (the TOCS paper's healer/swapper middle ground):
    /// `ℓ = c/2`, `H = 1`, `S = ℓ/2 - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `view_size < 2`.
    pub fn balanced(view_size: usize) -> Self {
        assert!(view_size >= 2, "view_size must be at least 2");
        let exchange_len = (view_size / 2).max(2);
        Self {
            view_size,
            exchange_len,
            healing: 1,
            swap: (exchange_len / 2).saturating_sub(1),
            selection: PeerSelection::Tail,
        }
    }

    /// Validates the invariants `ℓ <= c` and `H + S <= ℓ`.
    pub fn is_valid(&self) -> bool {
        self.view_size >= 2
            && self.exchange_len >= 1
            && self.exchange_len <= self.view_size
            && self.healing + self.swap <= self.exchange_len
    }
}

/// One view entry: a node descriptor and its age in gossip rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The descriptor.
    pub id: NodeId,
    /// Rounds since the descriptor was created.
    pub age: u32,
}

/// A node's partial view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PsView {
    entries: Vec<ViewEntry>,
}

impl PsView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current entries.
    pub fn entries(&self) -> &[ViewEntry] {
        &self.entries
    }

    /// The descriptors currently in the view.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.id)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a descriptor if not already present (used for bootstrap).
    pub fn insert(&mut self, id: NodeId, age: u32) {
        if !self.entries.iter().any(|e| e.id == id) {
            self.entries.push(ViewEntry { id, age });
        }
    }

    /// Ages every descriptor by one round.
    pub fn increase_ages(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// Removes descriptors of dead nodes.
    pub fn prune_dead<N>(&mut self, slab: &NodeSlab<N>) {
        self.entries.retain(|e| slab.contains(e.id));
    }

    /// Removes the descriptor for `id`, returning whether one was present
    /// (used by the overlay's incremental churn scrub).
    pub fn remove_id(&mut self, id: NodeId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() != before
    }

    /// Selects the gossip partner per the policy (`None` if the view is
    /// empty).
    pub fn select_peer(&self, selection: PeerSelection, rng: &mut StdRng) -> Option<NodeId> {
        if self.entries.is_empty() {
            return None;
        }
        match selection {
            PeerSelection::Random => Some(self.entries[rng.random_range(0..self.entries.len())].id),
            PeerSelection::Tail => self.entries.iter().max_by_key(|e| e.age).map(|e| e.id),
        }
    }

    /// Appends the buffer to send to `buffer`: a fresh self-descriptor
    /// followed by `ℓ - 1` entries of a shuffled view with the `H` oldest
    /// moved to the end (so old descriptors are the least likely to
    /// propagate).
    pub fn build_buffer(
        &mut self,
        own: NodeId,
        policy: &PeerSamplingPolicy,
        rng: &mut StdRng,
        buffer: &mut Vec<ViewEntry>,
    ) {
        self.entries.shuffle(rng);
        // Move only the H oldest descriptors to the back of the view so
        // they are least likely to propagate; the rest stays in shuffled
        // (uniform) order — sorting everything would systematically
        // over-propagate young descriptors and skew in-degrees.
        let len = self.entries.len();
        let h = policy.healing.min(len);
        for k in 0..h {
            let back = len - 1 - k;
            let oldest = self.entries[..=back]
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.age)
                .map(|(i, _)| i)
                .expect("non-empty prefix");
            self.entries.swap(oldest, back);
        }
        buffer.push(ViewEntry { id: own, age: 0 });
        let sent = policy.exchange_len.saturating_sub(1).min(len);
        buffer.extend_from_slice(&self.entries[..sent]);
    }

    /// Installs a received buffer: merge it in (keeping the youngest copy
    /// of each descriptor and dropping self-references), then shrink back
    /// to `c` by healing (`H` oldest), swapping (`S` just-sent entries)
    /// and finally random eviction.
    ///
    /// The resulting entry *order* is part of the trajectory — the next
    /// [`build_buffer`](PsView::build_buffer) shuffle permutes it — and is
    /// fixed as: by `(age, id)` when healing truncated, by `id` otherwise,
    /// before swapping and eviction.
    pub fn select(
        &mut self,
        own: NodeId,
        received: &[ViewEntry],
        sent: &[ViewEntry],
        policy: &PeerSamplingPolicy,
        rng: &mut StdRng,
    ) {
        self.entries.retain(|e| e.id != own);
        // View ids are unique, so merging the few received descriptors by
        // scanning keeps them unique without a sort-and-dedup pass.
        for r in received.iter().filter(|r| r.id != own) {
            match self.entries.iter_mut().find(|e| e.id == r.id) {
                Some(e) => e.age = e.age.min(r.age),
                None => self.entries.push(*r),
            }
        }

        // Healing: drop the H oldest while above the target size. Unique
        // ids make both sort keys total, so the unstable (allocation-free)
        // sort is deterministic.
        let over = |len: usize| len.saturating_sub(policy.view_size);
        let h = policy.healing.min(over(self.entries.len()));
        if h > 0 {
            self.entries.sort_unstable_by_key(|e| (e.age, e.id));
            self.entries.truncate(self.entries.len() - h);
        } else {
            self.entries.sort_unstable_by_key(|e| e.id);
        }
        // Swapping: drop up to S of the entries we just sent.
        let mut s = policy.swap.min(over(self.entries.len()));
        if s > 0 {
            self.entries.retain(|e| {
                if s > 0 && sent.iter().any(|x| x.id == e.id) {
                    s -= 1;
                    false
                } else {
                    true
                }
            });
        }
        // Random eviction down to the view size.
        while self.entries.len() > policy.view_size {
            let victim = rng.random_range(0..self.entries.len());
            self.entries.swap_remove(victim);
        }
    }
}

/// One full push–pull peer-sampling exchange between nodes `a` and `b`
/// (both views mutated).
pub fn ps_exchange(
    a_id: NodeId,
    a: &mut PsView,
    b_id: NodeId,
    b: &mut PsView,
    policy: &PeerSamplingPolicy,
    rng: &mut StdRng,
) {
    let mut buffers = Vec::with_capacity(2 * policy.exchange_len);
    ps_exchange_with(a_id, a, b_id, b, policy, rng, &mut buffers);
}

/// [`ps_exchange`] with both send buffers built in the caller's reusable
/// `buffers` (overwritten), so a round of exchanges allocates nothing.
pub(crate) fn ps_exchange_with(
    a_id: NodeId,
    a: &mut PsView,
    b_id: NodeId,
    b: &mut PsView,
    policy: &PeerSamplingPolicy,
    rng: &mut StdRng,
    buffers: &mut Vec<ViewEntry>,
) {
    buffers.clear();
    a.build_buffer(a_id, policy, rng, buffers);
    let split = buffers.len();
    b.build_buffer(b_id, policy, rng, buffers);
    let (buffer_a, buffer_b) = buffers.split_at(split);
    b.select(b_id, buffer_a, buffer_b, policy, rng);
    a.select(a_id, buffer_b, buffer_a, policy, rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn ids(n: usize) -> (NodeSlab<u32>, Vec<NodeId>) {
        let mut slab = NodeSlab::new();
        let ids = (0..n as u32).map(|i| slab.insert(i)).collect();
        (slab, ids)
    }

    fn policy() -> PeerSamplingPolicy {
        PeerSamplingPolicy::balanced(8)
    }

    #[test]
    fn balanced_policy_is_valid() {
        for c in [2, 4, 8, 20, 50] {
            assert!(PeerSamplingPolicy::balanced(c).is_valid(), "c = {c}");
        }
        let bad = PeerSamplingPolicy {
            view_size: 4,
            exchange_len: 8,
            healing: 0,
            swap: 0,
            selection: PeerSelection::Random,
        };
        assert!(!bad.is_valid());
    }

    #[test]
    fn insert_is_idempotent_and_ages_grow() {
        let (_, nodes) = ids(3);
        let mut view = PsView::new();
        view.insert(nodes[1], 0);
        view.insert(nodes[1], 5);
        assert_eq!(view.len(), 1);
        view.increase_ages();
        view.increase_ages();
        assert_eq!(view.entries()[0].age, 2);
    }

    #[test]
    fn tail_selection_picks_the_oldest() {
        let (_, nodes) = ids(4);
        let mut view = PsView::new();
        view.insert(nodes[1], 3);
        view.insert(nodes[2], 9);
        view.insert(nodes[3], 1);
        let mut rng = seeded_rng(1);
        assert_eq!(
            view.select_peer(PeerSelection::Tail, &mut rng),
            Some(nodes[2])
        );
        assert_eq!(
            PsView::new().select_peer(PeerSelection::Tail, &mut rng),
            None
        );
    }

    #[test]
    fn buffer_leads_with_fresh_self_descriptor() {
        let (_, nodes) = ids(10);
        let mut view = PsView::new();
        for n in &nodes[1..] {
            view.insert(*n, 4);
        }
        let mut rng = seeded_rng(2);
        let p = policy();
        let mut buffer = Vec::new();
        view.build_buffer(nodes[0], &p, &mut rng, &mut buffer);
        assert_eq!(buffer.len(), p.exchange_len);
        assert_eq!(
            buffer[0],
            ViewEntry {
                id: nodes[0],
                age: 0
            }
        );
    }

    #[test]
    fn select_deduplicates_keeping_the_youngest() {
        let (_, nodes) = ids(4);
        let mut view = PsView::new();
        view.insert(nodes[1], 7);
        let received = [
            ViewEntry {
                id: nodes[1],
                age: 2,
            },
            ViewEntry {
                id: nodes[2],
                age: 0,
            },
        ];
        let mut rng = seeded_rng(3);
        view.select(nodes[0], &received, &[], &policy(), &mut rng);
        let e1 = view
            .entries()
            .iter()
            .find(|e| e.id == nodes[1])
            .expect("kept");
        assert_eq!(e1.age, 2, "youngest copy wins");
        assert!(view.ids().any(|i| i == nodes[2]));
    }

    /// The straightforward `select` the one-sort version replaced: extend,
    /// drop self, sort by id to dedup, sort by age to heal, truncate.
    fn select_reference(
        view: &mut PsView,
        own: NodeId,
        received: &[ViewEntry],
        sent: &[ViewEntry],
        policy: &PeerSamplingPolicy,
        rng: &mut StdRng,
    ) {
        view.entries.extend(received.iter().copied());
        view.entries.retain(|e| e.id != own);
        view.entries
            .sort_by(|a, b| a.id.cmp(&b.id).then(a.age.cmp(&b.age)));
        view.entries.dedup_by_key(|e| e.id);
        let over = |len: usize| len.saturating_sub(policy.view_size);
        let h = policy.healing.min(over(view.entries.len()));
        if h > 0 {
            view.entries.sort_by_key(|e| e.age);
            view.entries.truncate(view.entries.len() - h);
        }
        let mut s = policy.swap.min(over(view.entries.len()));
        if s > 0 {
            view.entries.retain(|e| {
                if s > 0 && sent.iter().any(|x| x.id == e.id) {
                    s -= 1;
                    false
                } else {
                    true
                }
            });
        }
        while view.entries.len() > policy.view_size {
            let victim = rng.random_range(0..view.entries.len());
            view.entries.swap_remove(victim);
        }
    }

    proptest::proptest! {
        /// `select` equals the reference in contents *and order*, and
        /// draws the same random numbers: few distinct ids and ages force
        /// duplicates with different ages, age ties, `own` inside
        /// `received` and the no-healing (`h == 0`) path.
        #[test]
        fn select_matches_the_reference(
            held in proptest::collection::vec(0u32..120, 0..12),
            received in proptest::collection::vec(0u32..120, 0..8),
            sent in proptest::collection::vec(0u32..24, 0..6),
            view_size in 1usize..10,
            healing in 0usize..4,
            swap in 0usize..4,
            seed in 0u64..1 << 32,
        ) {
            // 12 slots × 2 generations × 5 ages, packed into one integer.
            let entry = |x: u32| ViewEntry {
                id: NodeId::for_tests(x % 12, x / 12 % 2),
                age: x / 24,
            };
            let own = NodeId::for_tests(0, 0);
            let mut view = PsView::new();
            for e in held.into_iter().map(entry) {
                view.insert(e.id, e.age);
            }
            let received: Vec<ViewEntry> = received.into_iter().map(entry).collect();
            let sent: Vec<ViewEntry> = sent.into_iter().map(entry).collect();
            let policy = PeerSamplingPolicy {
                view_size,
                exchange_len: received.len().max(1),
                healing,
                swap,
                selection: PeerSelection::Tail,
            };
            let (mut expected, mut rng_ref) = (view.clone(), seeded_rng(seed));
            let mut rng = seeded_rng(seed);
            select_reference(&mut expected, own, &received, &sent, &policy, &mut rng_ref);
            view.select(own, &received, &sent, &policy, &mut rng);
            proptest::prop_assert_eq!(view.entries(), expected.entries());
            proptest::prop_assert_eq!(rng.random::<u64>(), rng_ref.random::<u64>());
        }
    }

    #[test]
    fn select_never_keeps_self_and_respects_view_size() {
        let (_, nodes) = ids(30);
        let p = policy();
        let mut view = PsView::new();
        for n in &nodes[1..20] {
            view.insert(*n, 1);
        }
        let received: Vec<ViewEntry> = nodes[20..]
            .iter()
            .map(|n| ViewEntry { id: *n, age: 0 })
            .chain(std::iter::once(ViewEntry {
                id: nodes[0],
                age: 0,
            }))
            .collect();
        let mut rng = seeded_rng(4);
        view.select(nodes[0], &received, &[], &p, &mut rng);
        assert!(view.len() <= p.view_size);
        assert!(
            !view.ids().any(|i| i == nodes[0]),
            "self reference survived"
        );
    }

    #[test]
    fn healing_preferentially_drops_old_entries() {
        let (_, nodes) = ids(20);
        let p = PeerSamplingPolicy {
            view_size: 8,
            exchange_len: 4,
            healing: 4,
            swap: 0,
            selection: PeerSelection::Tail,
        };
        let mut view = PsView::new();
        // Fill with 8 very old entries, receive 4 fresh ones.
        for n in &nodes[1..9] {
            view.insert(*n, 50);
        }
        let received: Vec<ViewEntry> = nodes[9..13]
            .iter()
            .map(|n| ViewEntry { id: *n, age: 0 })
            .collect();
        let mut rng = seeded_rng(5);
        view.select(nodes[0], &received, &[], &p, &mut rng);
        // All four fresh descriptors must survive; the healing dropped old
        // ones to make room.
        for n in &nodes[9..13] {
            assert!(view.ids().any(|i| i == *n), "fresh descriptor evicted");
        }
    }

    #[test]
    fn exchange_spreads_descriptors_both_ways() {
        let (_, nodes) = ids(12);
        let p = policy();
        let mut a = PsView::new();
        let mut b = PsView::new();
        for n in &nodes[2..7] {
            a.insert(*n, 3);
        }
        for n in &nodes[7..12] {
            b.insert(*n, 3);
        }
        let mut rng = seeded_rng(6);
        ps_exchange(nodes[0], &mut a, nodes[1], &mut b, &p, &mut rng);
        // Each side now knows the other.
        assert!(a.ids().any(|i| i == nodes[1]), "a must learn b");
        assert!(b.ids().any(|i| i == nodes[0]), "b must learn a");
        // And some cross-pollination of third parties happened.
        let a_from_b = a.ids().filter(|i| nodes[7..12].contains(i)).count();
        let b_from_a = b.ids().filter(|i| nodes[2..7].contains(i)).count();
        assert!(a_from_b + b_from_a > 0, "no descriptors crossed");
    }

    #[test]
    fn repeated_exchanges_converge_to_connected_overlay() {
        // A line bootstrap: node i only knows node i-1. After enough
        // exchanges every view is full and references live nodes.
        let n = 64;
        let (slab, nodes) = ids(n);
        let p = PeerSamplingPolicy::balanced(8);
        let mut views: Vec<PsView> = (0..n)
            .map(|i| {
                let mut v = PsView::new();
                v.insert(nodes[(i + n - 1) % n], 0);
                v
            })
            .collect();
        let mut rng = seeded_rng(7);
        for _ in 0..50 {
            for i in 0..n {
                views[i].increase_ages();
                let Some(peer) = views[i].select_peer(p.selection, &mut rng) else {
                    continue;
                };
                let j = peer.slot();
                if i == j {
                    continue;
                }
                let (x, y) = if i < j {
                    let (l, r) = views.split_at_mut(j);
                    (&mut l[i], &mut r[0])
                } else {
                    let (l, r) = views.split_at_mut(i);
                    (&mut r[0], &mut l[j])
                };
                ps_exchange(nodes[i], x, nodes[j], y, &p, &mut rng);
            }
        }
        for (i, v) in views.iter_mut().enumerate() {
            assert_eq!(v.len(), p.view_size, "view {i} not full");
            v.prune_dead(&slab);
            assert_eq!(v.len(), p.view_size, "view {i} held dead entries");
        }
        // Descriptor ages stay low: views keep refreshing.
        let max_age = views
            .iter()
            .flat_map(|v| v.entries().iter().map(|e| e.age))
            .max()
            .unwrap();
        assert!(max_age < 30, "stale descriptors survived: {max_age}");
    }
}

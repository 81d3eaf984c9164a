//! Random peer-sampling overlays.
//!
//! Adam2 assumes "each peer maintains links to a small number of randomly
//! selected nodes ... the set of neighbours of a peer changes over time, as
//! peers exchange neighbour lists" — i.e. a gossip-based peer-sampling
//! service (Jelasity et al., TOCS 2007). Two implementations are provided:
//!
//! * [`OverlayKind::Oracle`] — an idealised service where every live node is
//!   a potential neighbour. This is what PeerSim evaluations typically use
//!   and is the default.
//! * [`OverlayKind::Shuffle`] — fixed-degree partial views maintained by
//!   the full generic peer-sampling framework of
//!   [`peersampling`](crate::peersampling) (aged descriptors, tail peer
//!   selection, healing and swapping), with re-bootstrap when a view
//!   empties. Use it to check that results do not depend on the oracle
//!   idealisation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt as _;

use crate::node::{NodeId, NodeSlab};
use crate::peersampling::{ps_exchange_with, PeerSamplingPolicy, PeerSelection, PsView, ViewEntry};

/// Which peer-sampling implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlayKind {
    /// Idealised peer sampling: any live node can be drawn as a neighbour.
    #[default]
    Oracle,
    /// Fixed-degree partial views maintained by the generic peer-sampling
    /// framework (see [`crate::peersampling`]).
    Shuffle,
}

/// Overlay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayConfig {
    /// Peer-sampling implementation.
    pub kind: OverlayKind,
    /// Target view size (only meaningful for [`OverlayKind::Shuffle`]; also
    /// the default sample size for neighbour-based bootstrap in the oracle).
    pub degree: usize,
    /// Number of view entries exchanged per shuffle.
    pub shuffle_len: usize,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        Self {
            kind: OverlayKind::Oracle,
            degree: 20,
            shuffle_len: 5,
        }
    }
}

impl OverlayConfig {
    /// An oracle overlay with the default degree.
    pub fn oracle() -> Self {
        Self::default()
    }

    /// A shuffling overlay with the given view size.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn shuffle(degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        Self {
            kind: OverlayKind::Shuffle,
            degree,
            shuffle_len: (degree / 4).max(1),
        }
    }
}

/// The overlay network: who can gossip with whom.
#[derive(Debug)]
pub struct Overlay {
    config: OverlayConfig,
    /// Per-slot partial views (only used by [`OverlayKind::Shuffle`]).
    views: Vec<PsView>,
    /// Reverse descriptor index, read only by [`Overlay::remove_node`] and
    /// derived from `views` on demand. While `holders_stale` is unset,
    /// `holders[s]` ⊇ the view slots whose view holds a descriptor for
    /// node slot `s`; extra slots are harmless (scrubbing a view that does
    /// not hold the id is a no-op), missing ones would leave a dead
    /// descriptor behind.
    holders: Vec<Vec<u32>>,
    /// Set whenever views changed without `holders` following: initially,
    /// and by every [`Overlay::maintain`]. Cleared by the rebuild.
    holders_stale: bool,
    /// Optional network partition: per-slot group ids; nodes can only
    /// gossip within their group while set.
    partition: Option<Vec<u32>>,
    /// Scratch buffers reused across [`Overlay::maintain`] calls.
    ids_scratch: Vec<NodeId>,
    exchange_scratch: Vec<ViewEntry>,
}

/// The index list of node slot `target`, grown on demand: a descriptor may
/// name a slot beyond every slot registered so far.
fn holder_list(holders: &mut Vec<Vec<u32>>, target: usize) -> &mut Vec<u32> {
    if holders.len() <= target {
        holders.resize_with(target + 1, Vec::new);
    }
    &mut holders[target]
}

impl Overlay {
    /// Creates an empty overlay.
    pub fn new(config: OverlayConfig) -> Self {
        Self {
            config,
            views: Vec::new(),
            holders: Vec::new(),
            holders_stale: true,
            partition: None,
            ids_scratch: Vec::new(),
            exchange_scratch: Vec::new(),
        }
    }

    /// The peer-sampling policy derived from the configured degree and
    /// shuffle length.
    pub fn sampling_policy(&self) -> PeerSamplingPolicy {
        let exchange_len = (self.config.shuffle_len + 1).clamp(1, self.config.degree.max(1));
        let healing = usize::from(exchange_len >= 2);
        let swap = (exchange_len - healing) / 2;
        PeerSamplingPolicy {
            view_size: self.config.degree.max(1),
            exchange_len,
            healing,
            swap,
            selection: PeerSelection::Tail,
        }
    }

    /// The configuration this overlay was built with.
    pub fn config(&self) -> OverlayConfig {
        self.config
    }

    /// Imposes a network partition: node in slot `i` belongs to group
    /// `groups[i]` and can only reach nodes of the same group. Slots
    /// beyond the vector default to group 0.
    pub fn set_partition(&mut self, groups: Vec<u32>) {
        self.partition = Some(groups);
    }

    /// Heals a partition.
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Whether a partition is currently in force.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// The partition group of a node (0 when unpartitioned).
    pub fn group_of(&self, id: NodeId) -> u32 {
        self.partition
            .as_ref()
            .and_then(|g| g.get(id.slot()).copied())
            .unwrap_or(0)
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(_) => self.group_of(from) == self.group_of(to),
        }
    }

    /// Registers a (possibly recycled) node: initialises its view with up
    /// to `degree` random live peers (fresh descriptors). Oracle overlays
    /// keep no per-node state.
    pub fn register_node<N>(&mut self, id: NodeId, slab: &NodeSlab<N>, rng: &mut StdRng) {
        if self.config.kind == OverlayKind::Oracle {
            return;
        }
        let slot = id.slot();
        if self.views.len() <= slot {
            self.views.resize(slot + 1, PsView::new());
        }
        let view = &mut self.views[slot];
        *view = PsView::new();
        for _ in 0..self.config.degree * 3 {
            if view.len() >= self.config.degree {
                break;
            }
            let Some(other) = slab.random_other(id, rng) else {
                break;
            };
            view.insert(other, 0);
            if !self.holders_stale {
                let list = holder_list(&mut self.holders, other.slot());
                if !list.contains(&(slot as u32)) {
                    list.push(slot as u32);
                }
            }
        }
    }

    /// Forgets a node: clears its own view and scrubs its descriptor from
    /// the views holding it, found through the reverse index rather than
    /// by a global sweep. The first removal after a
    /// [`maintain`](Overlay::maintain) rebuilds the index in one O(n·c)
    /// pass; the other removals and registrations of the same churn batch
    /// keep it current and cost O(changed).
    pub fn remove_node(&mut self, id: NodeId) {
        if self.config.kind == OverlayKind::Oracle {
            return;
        }
        if self.holders_stale {
            self.rebuild_holders();
        }
        if let Some(view) = self.views.get_mut(id.slot()) {
            *view = PsView::new();
        }
        if let Some(holding) = self.holders.get_mut(id.slot()) {
            for holder in holding.drain(..) {
                if let Some(view) = self.views.get_mut(holder as usize) {
                    view.remove_id(id);
                }
            }
        }
    }

    /// Derives `holders` from `views`, reusing the lists' allocations.
    fn rebuild_holders(&mut self) {
        self.holders.iter_mut().for_each(Vec::clear);
        for (holder, view) in self.views.iter().enumerate() {
            for target in view.ids() {
                // A view's ids are unique but two may share a slot (a dead
                // generation and its successor); the duplicate is harmless.
                holder_list(&mut self.holders, target.slot()).push(holder as u32);
            }
        }
        self.holders_stale = false;
    }

    /// Draws a random live neighbour of `of`, or `None` if the node is
    /// alone.
    ///
    /// For the shuffle overlay, if every view entry turns out to be dead
    /// the peer-sampling service's recovery is modelled by falling back to
    /// a uniform random live node.
    pub fn random_neighbour<N>(
        &self,
        of: NodeId,
        slab: &NodeSlab<N>,
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        match self.config.kind {
            OverlayKind::Oracle => {
                if self.partition.is_none() {
                    return slab.random_other(of, rng);
                }
                // Rejection-sample within the partition group.
                for _ in 0..64 {
                    let candidate = slab.random_other(of, rng)?;
                    if self.reachable(of, candidate) {
                        return Some(candidate);
                    }
                }
                None
            }
            OverlayKind::Shuffle => {
                let view = self.views.get(of.slot())?;
                if !view.is_empty() {
                    let entries = view.entries();
                    for _ in 0..entries.len().min(8) {
                        let candidate = entries[rng.random_range(0..entries.len())].id;
                        if candidate != of
                            && slab.contains(candidate)
                            && self.reachable(of, candidate)
                        {
                            return Some(candidate);
                        }
                    }
                }
                if self.partition.is_none() {
                    return slab.random_other(of, rng);
                }
                for _ in 0..64 {
                    let candidate = slab.random_other(of, rng)?;
                    if self.reachable(of, candidate) {
                        return Some(candidate);
                    }
                }
                None
            }
        }
    }

    /// Samples up to `count` distinct live neighbours of `of` (used for
    /// neighbour-based interpolation-point bootstrap).
    pub fn neighbour_sample<N>(
        &self,
        of: NodeId,
        slab: &NodeSlab<N>,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(count);
        match self.config.kind {
            OverlayKind::Oracle => {
                // The oracle view is "count random peers right now".
                let mut attempts = 0;
                while out.len() < count && attempts < count * 8 {
                    attempts += 1;
                    if let Some(other) = slab.random_other(of, rng) {
                        if self.reachable(of, other) && !out.contains(&other) {
                            out.push(other);
                        }
                    } else {
                        break;
                    }
                }
            }
            OverlayKind::Shuffle => {
                if let Some(view) = self.views.get(of.slot()) {
                    let mut shuffled: Vec<NodeId> = view
                        .ids()
                        .filter(|id| *id != of && slab.contains(*id) && self.reachable(of, *id))
                        .collect();
                    shuffled.shuffle(rng);
                    shuffled.truncate(count);
                    out = shuffled;
                }
            }
        }
        out
    }

    /// Runs one round of overlay maintenance (shuffle overlays only):
    /// ages descriptors, re-bootstraps empty views, and performs one
    /// peer-sampling exchange per node with the oldest live, reachable
    /// descriptor of its view (healing + swapping per the derived
    /// [`PeerSamplingPolicy`]).
    ///
    /// Dead descriptors are *not* swept here: [`Overlay::remove_node`]
    /// scrubs them when the churn event happens. Nor is the reverse index
    /// it uses kept up: a round only marks it stale, so a churn-free round
    /// pays nothing for it and per-round cost does not depend on past
    /// churn.
    pub fn maintain<N>(&mut self, slab: &NodeSlab<N>, rng: &mut StdRng) {
        if self.config.kind == OverlayKind::Oracle {
            return;
        }
        let policy = self.sampling_policy();
        self.holders_stale = true;
        let mut ids = std::mem::take(&mut self.ids_scratch);
        slab.collect_ids(&mut ids);
        if self.views.len() < slab.slot_count() {
            self.views.resize(slab.slot_count(), PsView::new());
        }
        for id in &ids {
            let view = &mut self.views[id.slot()];
            view.increase_ages();
            // Re-bootstrap an empty view (the service's recovery path).
            let mut attempts = 0;
            while view.is_empty() && attempts < 16 {
                attempts += 1;
                if let Some(other) = slab.random_other(*id, rng) {
                    view.insert(other, 0);
                } else {
                    break;
                }
            }
        }
        for &id in &ids {
            // Tail selection: the last of the oldest eligible descriptors.
            // A live partner other than `id` occupies a slot of its own.
            let Some(partner) = self.views[id.slot()]
                .entries()
                .iter()
                .filter(|e| e.id != id && slab.contains(e.id) && self.reachable(id, e.id))
                .max_by_key(|e| e.age)
                .map(|e| e.id)
            else {
                continue;
            };
            let (a, b) = pair_views(&mut self.views, id.slot(), partner.slot());
            ps_exchange_with(id, a, partner, b, &policy, rng, &mut self.exchange_scratch);
        }
        self.ids_scratch = ids;
    }

    /// The current view of `of` as descriptors (empty for oracle
    /// overlays).
    pub fn view(&self, of: NodeId) -> Vec<NodeId> {
        self.views
            .get(of.slot())
            .map(|v| v.ids().collect())
            .unwrap_or_default()
    }
}

/// Mutable access to two distinct view slots at once.
fn pair_views(views: &mut [PsView], a: usize, b: usize) -> (&mut PsView, &mut PsView) {
    debug_assert_ne!(a, b);
    if a < b {
        let (l, r) = views.split_at_mut(b);
        (&mut l[a], &mut r[0])
    } else {
        let (l, r) = views.split_at_mut(a);
        (&mut r[0], &mut l[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn slab_of(n: usize) -> (NodeSlab<u32>, Vec<NodeId>) {
        let mut slab = NodeSlab::new();
        let ids = (0..n as u32).map(|i| slab.insert(i)).collect();
        (slab, ids)
    }

    fn shuffle_overlay_of(
        n: usize,
        degree: usize,
        seed: u64,
    ) -> (NodeSlab<u32>, Vec<NodeId>, Overlay, StdRng) {
        let (slab, ids) = slab_of(n);
        let mut overlay = Overlay::new(OverlayConfig::shuffle(degree));
        let mut rng = seeded_rng(seed);
        for id in &ids {
            overlay.register_node(*id, &slab, &mut rng);
        }
        (slab, ids, overlay, rng)
    }

    /// The documented index invariant: every descriptor held by a view is
    /// listed under its target's slot.
    fn index_covers_views(overlay: &Overlay) -> bool {
        overlay.views.iter().enumerate().all(|(holder, view)| {
            view.ids().all(|target| {
                overlay
                    .holders
                    .get(target.slot())
                    .is_some_and(|list| list.contains(&(holder as u32)))
            })
        })
    }

    /// FNV-1a over every view's `(slot, generation, age)` entries in
    /// order, then the next RNG draw.
    fn trajectory_hash(overlay: &Overlay, rng: &mut StdRng) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for view in &overlay.views {
            mix(view.len() as u64);
            for e in view.entries() {
                mix(e.id.slot() as u64);
                mix(u64::from(e.id.generation()));
                mix(u64::from(e.age));
            }
        }
        mix(rng.random::<u64>());
        h
    }

    /// Entry order and RNG draws are observable (the next exchange
    /// shuffles the entries), so an optimisation of `maintain`,
    /// `build_buffer` or `select` must reproduce both exactly. The
    /// constants were recorded at commit 8e4ddd4, before the reverse index
    /// became derived and `select` lost its second sort.
    #[test]
    fn golden_trajectories_are_pinned() {
        let golden = |n, degree, rounds, seed| {
            let (slab, _, mut overlay, mut rng) = shuffle_overlay_of(n, degree, seed);
            for _ in 0..rounds {
                overlay.maintain(&slab, &mut rng);
            }
            trajectory_hash(&overlay, &mut rng)
        };
        assert_eq!(golden(2000, 20, 30, 42), 0x1aad_bd80_45c9_517f);
        assert_eq!(golden(200, 8, 3, 7), 0xe12f_f6db_9287_e35a);
    }

    /// Descriptors registered before their target's index slot existed
    /// used to be dropped from the index, so removing the highest slots
    /// right after registration left their descriptors in live views.
    #[test]
    fn remove_node_scrubs_descriptors_registered_before_their_target() {
        let (mut slab, ids, mut overlay, _) = shuffle_overlay_of(200, 8, 11);
        for id in &ids[180..] {
            slab.remove(*id);
            overlay.remove_node(*id);
        }
        let dead = slab
            .ids()
            .flat_map(|id| overlay.view(id))
            .filter(|n| !slab.contains(*n))
            .count();
        assert_eq!(dead, 0, "dead descriptors survived in live views");
    }

    /// Oracle overlays keep no per-slot state, whatever is asked of them.
    #[test]
    fn oracle_overlay_allocates_no_per_slot_state() {
        let (mut slab, ids) = slab_of(50);
        let mut overlay = Overlay::new(OverlayConfig::oracle());
        let mut rng = seeded_rng(12);
        let before = rng.clone().random::<u64>();
        for id in &ids {
            overlay.register_node(*id, &slab, &mut rng);
        }
        overlay.maintain(&slab, &mut rng);
        slab.remove(ids[3]);
        overlay.remove_node(ids[3]);
        assert!(overlay.views.is_empty() && overlay.holders.is_empty());
        assert_eq!(
            rng.random::<u64>(),
            before,
            "oracle overlay drew from the RNG"
        );
    }

    #[test]
    fn oracle_returns_random_other_nodes() {
        let (slab, ids) = slab_of(10);
        let overlay = Overlay::new(OverlayConfig::oracle());
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            let n = overlay.random_neighbour(ids[0], &slab, &mut rng).unwrap();
            assert_ne!(n, ids[0]);
            assert!(slab.contains(n));
        }
    }

    #[test]
    fn oracle_neighbour_sample_is_distinct() {
        let (slab, ids) = slab_of(50);
        let overlay = Overlay::new(OverlayConfig::oracle());
        let mut rng = seeded_rng(2);
        let sample = overlay.neighbour_sample(ids[3], &slab, 10, &mut rng);
        assert_eq!(sample.len(), 10);
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(!sample.contains(&ids[3]));
    }

    #[test]
    fn shuffle_views_are_initialised_to_degree() {
        let (slab, _, overlay, _) = shuffle_overlay_of(100, 8, 3);
        for id in slab.ids() {
            assert_eq!(overlay.view(id).len(), 8);
            assert!(!overlay.view(id).contains(&id));
        }
    }

    #[test]
    fn shuffle_maintain_keeps_views_live() {
        let (mut slab, ids, mut overlay, mut rng) = shuffle_overlay_of(60, 6, 4);
        // Kill a third of the network.
        for id in &ids[..20] {
            slab.remove(*id);
            overlay.remove_node(*id);
        }
        for _ in 0..5 {
            overlay.maintain(&slab, &mut rng);
        }
        for id in slab.ids() {
            let view = overlay.view(id);
            assert!(!view.is_empty());
            assert!(
                view.iter().all(|n| slab.contains(*n)),
                "dead entries survived"
            );
            assert!(!view.contains(&id), "self loop");
        }
    }

    #[test]
    fn remove_node_scrubs_descriptors_incrementally() {
        let (mut slab, ids, mut overlay, mut rng) = shuffle_overlay_of(60, 6, 7);
        for _ in 0..3 {
            overlay.maintain(&slab, &mut rng);
        }
        // Remove a quarter of the network: their descriptors must vanish
        // from every surviving view immediately — no maintenance sweep.
        // Only the first removal finds the index stale.
        for id in &ids[..15] {
            slab.remove(*id);
            overlay.remove_node(*id);
            assert!(!overlay.holders_stale);
            assert!(index_covers_views(&overlay));
        }
        for id in slab.ids() {
            let view = overlay.view(id);
            assert!(
                view.iter().all(|n| slab.contains(*n)),
                "dead descriptor survived the incremental scrub"
            );
        }
        // Recycled slots re-register cleanly.
        let recycled = slab.insert(999);
        overlay.register_node(recycled, &slab, &mut rng);
        assert!(!overlay.view(recycled).is_empty());
    }

    proptest::proptest! {
        /// Random interleavings of join, leave and maintenance on a small
        /// slab: after every removal no view holds the removed id, views
        /// never hold their owner, and the index invariant holds whenever
        /// the index is not marked stale.
        #[test]
        fn churn_interleavings_leave_no_dead_descriptor(
            seed in 0u64..1 << 32,
            ops in proptest::collection::vec(0u8..8, 1..60),
        ) {
            let (mut slab, mut live, mut overlay, mut rng) = shuffle_overlay_of(24, 4, seed);
            for op in ops {
                match op {
                    0..=2 if live.len() > 2 => {
                        let id = live.swap_remove(rng.random_range(0..live.len()));
                        slab.remove(id);
                        overlay.remove_node(id);
                        assert!(
                            overlay.views.iter().all(|v| v.ids().all(|x| x != id)),
                            "{id} survived its removal"
                        );
                    }
                    3..=5 => {
                        let id = slab.insert(0);
                        overlay.register_node(id, &slab, &mut rng);
                        live.push(id);
                    }
                    _ => overlay.maintain(&slab, &mut rng),
                }
                assert!(overlay.holders_stale || index_covers_views(&overlay));
                for id in slab.ids() {
                    assert!(!overlay.view(id).contains(&id), "{id} holds itself");
                    assert!(
                        overlay.view(id).iter().all(|n| slab.contains(*n)),
                        "{id} holds a dead descriptor"
                    );
                }
            }
        }
    }

    #[test]
    fn shuffle_random_neighbour_is_live() {
        let (mut slab, ids, overlay, mut rng) = shuffle_overlay_of(30, 5, 5);
        for id in &ids[..10] {
            slab.remove(*id);
        }
        for id in slab.ids() {
            for _ in 0..20 {
                if let Some(n) = overlay.random_neighbour(id, &slab, &mut rng) {
                    assert!(slab.contains(n));
                    assert_ne!(n, id);
                }
            }
        }
    }

    #[test]
    fn views_mix_over_time() {
        let (slab, ids, mut overlay, mut rng) = shuffle_overlay_of(200, 10, 6);
        let before: Vec<NodeId> = overlay.view(ids[0]).to_vec();
        for _ in 0..20 {
            overlay.maintain(&slab, &mut rng);
        }
        let after = overlay.view(ids[0]);
        let overlap = after.iter().filter(|n| before.contains(n)).count();
        assert!(
            overlap < before.len(),
            "view should change over 20 shuffle rounds (overlap {overlap}/{})",
            before.len()
        );
    }
}

#[cfg(test)]
mod sampling_quality_tests {
    use super::*;
    use crate::node::NodeSlab;
    use crate::rng::seeded_rng;

    /// The shuffle overlay must approximate uniform peer sampling: over
    /// many rounds, how often each node is selected as a partner should
    /// concentrate around the mean (Jelasity et al. show shuffling views
    /// approach uniform random graphs).
    #[test]
    fn shuffle_overlay_samples_near_uniformly() {
        let n = 200;
        let mut slab = NodeSlab::new();
        let ids: Vec<NodeId> = (0..n as u32).map(|i| slab.insert(i)).collect();
        let mut overlay = Overlay::new(OverlayConfig::shuffle(12));
        let mut rng = seeded_rng(99);
        for id in &ids {
            overlay.register_node(*id, &slab, &mut rng);
        }
        let mut selected = vec![0u32; n];
        let rounds = 300;
        for _ in 0..rounds {
            overlay.maintain(&slab, &mut rng);
            for id in &ids {
                if let Some(partner) = overlay.random_neighbour(*id, &slab, &mut rng) {
                    selected[partner.slot()] += 1;
                }
            }
        }
        let mean = selected.iter().sum::<u32>() as f64 / n as f64;
        assert!(mean > 250.0, "selection volume too low: {mean}");
        // No node may be starved or wildly over-selected.
        for (slot, count) in selected.iter().enumerate() {
            let ratio = *count as f64 / mean;
            assert!(
                (0.5..2.0).contains(&ratio),
                "slot {slot} selected {count} times (mean {mean:.1})"
            );
        }
    }

    #[test]
    fn partitioned_overlay_never_crosses_groups() {
        let n = 100;
        let mut slab = NodeSlab::new();
        let ids: Vec<NodeId> = (0..n as u32).map(|i| slab.insert(i)).collect();
        let mut overlay = Overlay::new(OverlayConfig::oracle());
        let mut rng = seeded_rng(100);
        let groups: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        overlay.set_partition(groups.clone());
        assert!(overlay.is_partitioned());
        for id in &ids {
            for _ in 0..30 {
                if let Some(p) = overlay.random_neighbour(*id, &slab, &mut rng) {
                    assert_eq!(
                        groups[p.slot()],
                        groups[id.slot()],
                        "cross-partition neighbour"
                    );
                }
            }
            let sample = overlay.neighbour_sample(*id, &slab, 10, &mut rng);
            assert!(sample.iter().all(|p| groups[p.slot()] == groups[id.slot()]));
        }
        overlay.clear_partition();
        assert!(!overlay.is_partitioned());
        assert_eq!(overlay.group_of(ids[5]), 0);
    }
}

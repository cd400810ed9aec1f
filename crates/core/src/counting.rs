//! The counting weighted Bloom filter — incremental pattern maintenance.
//!
//! The paper's [`WeightedBloomFilter`] is build-once: every pattern
//! insertion forces a full rebuild and re-broadcast, which is exactly the
//! per-query dissemination cost Fig. 4c punishes at city scale. A
//! [`CountingWbf`] keeps the weighted per-key structure intact while making
//! the underlying array *counting*: each position holds a reference count
//! per attached weight instead of a single bit, so patterns can be inserted
//! **and removed** without touching the rest of the filter.
//!
//! The data center maintains the counting filter; base stations keep
//! probing the cheap membership projection ([`CountingWbf::snapshot`] — an
//! ordinary [`WeightedBloomFilter`]) and receive only the positions whose
//! *visible* state changed ([`CountingWbf::drain_dirty`]) as delta
//! broadcasts. Counter values never cross the wire: a station only needs to
//! know whether a position is occupied and by which weights, while the
//! center alone needs the counts to know when a removal retires a position.

use crate::error::{CoreError, Result};
use crate::filter::FilterCore;
use crate::params::{FilterParams, MAX_HASHES};
use crate::probe::QueryScratch;
use crate::wbf::WeightedBloomFilter;
use crate::weight::Weight;
use crate::weight_set::WeightSet;

/// The visible change of one filter position between two broadcast epochs:
/// the weights that left and the weights that arrived.
///
/// A diff is what streaming deltas ship instead of absolute weight sets —
/// every position a churned pattern touches carries the *same* few-weight
/// diff, so diffs intern massively on the wire where absolute sets (each
/// grafted onto a different pre-existing set) would not.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct WeightDiff {
    /// Weights no longer attached to the position.
    pub removed: WeightSet,
    /// Weights newly attached to the position.
    pub added: WeightSet,
}

impl WeightDiff {
    /// Whether the diff changes nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// A weighted Bloom filter over `u64` keys supporting exact removal.
///
/// Every position stores a reference count per weight; the position's
/// visible weight set is the set of weights with a non-zero count, and the
/// position is *occupied* while any count is non-zero. Queries behave
/// exactly like [`WeightedBloomFilter`] queries against the visible state,
/// and after any interleaving of inserts and removes **of
/// previously-inserted pairs** the filter is query-equivalent to a fresh
/// filter built over the surviving multiset of `(key, weight)` pairs
/// (property-tested in the streaming conformance suite; see
/// [`CountingWbf::remove`] for the aliasing caveat on foreign removals).
///
/// The visible state *is* a [`WeightedBloomFilter`] — the same dense
/// per-bit slots and sorted weight sets stations probe — with the refcounts
/// held in a parallel per-slot array, so queries, snapshots and the full
/// broadcast's encoding read it directly, and a mutation touches only the
/// `k` probed slots.
///
/// # Examples
///
/// ```
/// use dipm_core::{CountingWbf, FilterParams, Weight};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::new(1 << 12, 4)?;
/// let mut filter = CountingWbf::new(params, 7);
///
/// let w = Weight::new(1, 2)?;
/// filter.insert(42, w)?;
/// assert!(filter.query(42).expect("occupied").contains(w));
///
/// filter.remove(42, w)?;
/// assert!(filter.query(42).is_none());
/// // Removing again is an error (the pair is no longer live).
/// assert!(filter.remove(42, w).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CountingWbf {
    /// The visible state; its `inserted` is the live insertion count.
    visible: WeightedBloomFilter,
    /// Per-slot refcounts, parallel to the visible filter's slots: entry
    /// `i` of `counts[slot]` counts weight `i` of that slot's sorted set,
    /// so a position's visible set and its counts cannot fall out of sync.
    counts: Vec<Vec<u32>>,
    /// Positions whose visible state (occupancy or weight set) changed
    /// since the last [`CountingWbf::drain_dirty`], each with its visible
    /// weight set *as of that drain* — the baseline the next delta diffs
    /// against. In marking order; drains sort by position.
    dirty: Vec<(u32, WeightSet)>,
    /// Per position: whether it has an entry in `dirty`.
    dirty_marks: Vec<bool>,
}

impl PartialEq for CountingWbf {
    /// Equality over the *filter state* — counts, geometry and live count.
    /// The pending dirty set is broadcast bookkeeping, not state: a freshly
    /// built filter and an incrementally maintained one holding the same
    /// multiset compare equal whatever deltas were already drained.
    fn eq(&self, other: &CountingWbf) -> bool {
        self.visible == other.visible && self.position_counts().eq(other.position_counts())
    }
}

impl Eq for CountingWbf {}

/// The `k` probe positions of one key with their multiplicities (distinct
/// hash functions may collide on a position; insert and remove must count
/// them symmetrically), on the stack.
struct ProbeCounts {
    entries: [(u32, u32); MAX_HASHES as usize],
    len: usize,
}

impl ProbeCounts {
    fn as_slice(&self) -> &[(u32, u32)] {
        &self.entries[..self.len]
    }
}

impl CountingWbf {
    /// Creates an empty counting filter with the given geometry and seed.
    ///
    /// The geometry is fixed for the filter's lifetime: incremental updates
    /// never resize (a resize would rehash every key, i.e. a rebuild).
    pub fn new(params: FilterParams, seed: u64) -> CountingWbf {
        CountingWbf {
            visible: WeightedBloomFilter::new(params, seed),
            counts: Vec::new(),
            dirty: Vec::new(),
            dirty_marks: vec![false; params.bits()],
        }
    }

    /// Every occupied position with its per-weight counts, ascending.
    fn position_counts(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.visible
            .occupied_slots()
            .map(|(idx, slot)| (idx, self.counts[slot].as_slice()))
    }

    /// The slot and set index of `weight` at `idx`, or the index where it
    /// would be inserted.
    fn locate(&self, idx: usize, weight: Weight) -> std::result::Result<(usize, usize), usize> {
        match self.visible.slot_of(idx) {
            None => Err(0),
            Some(slot) => match self
                .visible
                .slot_set(slot)
                .as_slice()
                .binary_search(&weight)
            {
                Ok(at) => Ok((slot, at)),
                Err(at) => Err(at),
            },
        }
    }

    /// The live count of `weight` at `idx`.
    fn count(&self, idx: usize, weight: Weight) -> u32 {
        self.locate(idx, weight)
            .map_or(0, |(slot, at)| self.counts[slot][at])
    }

    /// Records the baseline for a position about to change visibly, unless
    /// one is already pending from an earlier change this epoch.
    fn mark_dirty(&mut self, idx: usize) {
        if !self.dirty_marks[idx] {
            self.dirty_marks[idx] = true;
            let baseline = self.visible.set_or_empty(idx).clone();
            self.dirty.push((idx as u32, baseline));
        }
    }

    /// Inserts `key` carrying `weight`, incrementing the weight's count at
    /// every probed position.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WeightOverflow`] if any touched count would
    /// exceed `u32::MAX`; the filter is left untouched.
    pub fn insert(&mut self, key: u64, weight: Weight) -> Result<()> {
        let probes = self.probe_multiplicities(key);
        // Validate every touched count before mutating anything.
        for &(idx, mult) in probes.as_slice() {
            if self.count(idx as usize, weight).checked_add(mult).is_none() {
                return Err(CoreError::WeightOverflow);
            }
        }
        for &(idx, mult) in probes.as_slice() {
            let idx = idx as usize;
            match self.locate(idx, weight) {
                Ok((slot, at)) => self.counts[slot][at] += mult,
                Err(at) => {
                    self.mark_dirty(idx);
                    let slot = self.visible.attach_at(idx, at, weight);
                    if slot == self.counts.len() {
                        self.counts.push(Vec::new());
                    }
                    self.counts[slot].insert(at, mult);
                }
            }
        }
        self.visible.set_inserted(self.visible.inserted() + 1);
        Ok(())
    }

    /// Removes one prior insertion of `key` with `weight`, decrementing the
    /// weight's count at every probed position and retiring positions whose
    /// counts reach zero.
    ///
    /// The rebuild-equivalence guarantee holds for removals of
    /// previously-inserted pairs — the only removals the streaming session
    /// ever issues. Like any counting Bloom filter, a *never-inserted*
    /// pair is usually caught (some probed position lacks the weight), but
    /// with probability on the order of the filter's false-positive rate
    /// its probes may all alias live positions carrying the same weight;
    /// such a removal passes the check and decrements other patterns'
    /// counts. Callers must therefore only remove what they inserted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AbsentRemoval`] if the pair is not currently
    /// live at every probed position; the filter is left untouched.
    pub fn remove(&mut self, key: u64, weight: Weight) -> Result<()> {
        let probes = self.probe_multiplicities(key);
        for &(idx, mult) in probes.as_slice() {
            if self.count(idx as usize, weight) < mult {
                return Err(CoreError::AbsentRemoval);
            }
        }
        for &(idx, mult) in probes.as_slice() {
            let idx = idx as usize;
            let (slot, at) = self.locate(idx, weight).expect("validated above");
            if self.counts[slot][at] == mult {
                self.mark_dirty(idx);
                self.counts[slot].remove(at);
                self.visible.detach_at(idx, slot, at);
            } else {
                self.counts[slot][at] -= mult;
            }
        }
        self.visible.set_inserted(self.visible.inserted() - 1);
        Ok(())
    }

    /// The `k` probe positions of `key` with their multiplicities.
    fn probe_multiplicities(&self, key: u64) -> ProbeCounts {
        let mut probes = ProbeCounts {
            entries: [(0, 0); MAX_HASHES as usize],
            len: 0,
        };
        for idx in self.visible.probe_indices(key) {
            let idx = idx as u32;
            let seen = probes.entries[..probes.len]
                .iter_mut()
                .find(|(seen, _)| *seen == idx);
            match seen {
                Some((_, mult)) => *mult += 1,
                None => {
                    probes.entries[probes.len] = (idx, 1);
                    probes.len += 1;
                }
            }
        }
        probes
    }

    /// Pure membership test: whether every probed position is occupied.
    pub fn contains(&self, key: u64) -> bool {
        self.visible.contains(key)
    }

    /// Queries a single key: `None` if any probed position is empty,
    /// otherwise the intersection of the probed positions' visible weight
    /// sets — identical semantics to [`WeightedBloomFilter::query`], which
    /// answers it over the visible state.
    pub fn query(&self, key: u64) -> Option<WeightSet> {
        self.visible.query(key)
    }

    /// Allocation-free [`CountingWbf::query`]: the intersection is written
    /// into `out` (cleared and overwritten, capacity reused) — identical
    /// semantics to [`WeightedBloomFilter::query_into`].
    pub fn query_into(&self, key: u64, out: &mut WeightSet) -> Option<()> {
        self.visible.query_into(key, out)
    }

    /// Queries a sequence of keys, returning the weights common to every
    /// point — identical semantics to
    /// [`WeightedBloomFilter::query_sequence`].
    pub fn query_sequence<I>(&self, keys: I) -> Option<WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        self.visible.query_sequence(keys)
    }

    /// Allocation-free [`CountingWbf::query_sequence`] — identical semantics
    /// to [`WeightedBloomFilter::query_sequence_into`], which answers it
    /// over the visible state.
    pub fn query_sequence_into<'s, I>(
        &'s self,
        keys: I,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        self.visible.query_sequence_into(keys, scratch)
    }

    /// The membership projection, borrowed: an ordinary
    /// [`WeightedBloomFilter`] holding the current visible state, with
    /// `inserted` set to the live insertion count. Encode it for a full
    /// broadcast, or size that broadcast, without copying anything.
    pub fn visible(&self) -> &WeightedBloomFilter {
        &self.visible
    }

    /// An owned copy of [`CountingWbf::visible`], suitable for the existing
    /// wire encoding and for station-side probing.
    pub fn snapshot(&self) -> WeightedBloomFilter {
        self.visible.clone()
    }

    /// The diff of one pending position against its baseline, if the
    /// position changed at all.
    fn diff_against(&self, idx: u32, baseline: &WeightSet) -> Option<(u32, WeightDiff)> {
        let now = self.visible.set_or_empty(idx as usize);
        let diff = WeightDiff {
            removed: baseline.difference(now),
            added: now.difference(baseline),
        };
        (!diff.is_empty()).then_some((idx, diff))
    }

    /// Drains the positions whose visible state changed since the last
    /// drain, as `(position, diff)` entries in ascending position order —
    /// the payload of one delta broadcast. Each diff carries the weights
    /// that left and arrived relative to the last drain's state, so a
    /// receiver holding that state reconstructs the current one exactly.
    ///
    /// Positions that changed and changed *back* within one epoch produce
    /// no entry at all — the diff against the baseline is empty.
    pub fn drain_dirty(&mut self) -> Vec<(u32, WeightDiff)> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable_by_key(|&(idx, _)| idx);
        for &(idx, _) in &dirty {
            self.dirty_marks[idx as usize] = false;
        }
        dirty
            .iter()
            .filter_map(|(idx, baseline)| self.diff_against(*idx, baseline))
            .collect()
    }

    /// The pending delta, *without* draining it: the same `(position,
    /// diff)` entries [`CountingWbf::drain_dirty`] would return, computed
    /// against the same baselines, with the baselines left in place.
    ///
    /// A service admission policy uses this to price a tenant's next delta
    /// broadcast before deciding whether to run the epoch at all — a
    /// deferred tenant's churn must stay queued, so the sizing pass cannot
    /// consume the dirty set.
    pub fn pending_dirty(&self) -> Vec<(u32, WeightDiff)> {
        let mut pending: Vec<(u32, WeightDiff)> = self
            .dirty
            .iter()
            .filter_map(|(idx, baseline)| self.diff_against(*idx, baseline))
            .collect();
        pending.sort_unstable_by_key(|&(idx, _)| idx);
        pending
    }

    /// The pending per-position baselines, ascending by position — each
    /// dirtied position with its visible weight set as of the last drain.
    /// This is the epoch bookkeeping a session checkpoint must carry: a
    /// recovered center that restores these baselines emits exactly the
    /// delta the crashed one would have.
    pub fn dirty_baselines(&self) -> Vec<(u32, WeightSet)> {
        let mut baselines = self.dirty.clone();
        baselines.sort_unstable_by_key(|&(idx, _)| idx);
        baselines
    }

    /// Replaces the pending dirty baselines wholesale — the checkpoint
    /// *recovery* counterpart of [`CountingWbf::dirty_baselines`].
    /// Positions must be strictly ascending and inside the filter's
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] if any position is out of
    /// range or out of order; the filter is left untouched.
    pub fn restore_dirty(&mut self, baselines: Vec<(u32, WeightSet)>) -> Result<()> {
        if baselines.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(CoreError::invalid_params(
                "restored dirty positions must be strictly ascending",
            ));
        }
        if let Some(&(idx, _)) = baselines.last() {
            if idx as usize >= self.bit_len() {
                return Err(CoreError::invalid_params(format!(
                    "restored dirty position {idx} outside filter of {} positions",
                    self.bit_len()
                )));
            }
        }
        for (idx, _) in std::mem::replace(&mut self.dirty, baselines) {
            self.dirty_marks[idx as usize] = false;
        }
        for &(idx, _) in &self.dirty {
            self.dirty_marks[idx as usize] = true;
        }
        Ok(())
    }

    /// The full refcounted state, position-ascending: each occupied
    /// position with its `(weight, count)` entries in weight order. This is
    /// what a session checkpoint serializes (counts never cross the wire
    /// otherwise) and what recovery verifies a replayed registry against.
    pub fn counts_snapshot(&self) -> Vec<(u32, Vec<(Weight, u32)>)> {
        self.visible
            .occupied_slots()
            .map(|(idx, slot)| {
                let weights = self.visible.slot_set(slot).iter();
                (
                    idx,
                    weights.zip(self.counts[slot].iter().copied()).collect(),
                )
            })
            .collect()
    }

    /// How many positions currently await a delta broadcast.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Live insertions (inserts minus removes).
    pub fn live(&self) -> u64 {
        self.visible.inserted()
    }

    /// The filter length in positions.
    pub fn bit_len(&self) -> usize {
        self.visible.bit_len()
    }

    /// The number of hash functions.
    pub fn hashes(&self) -> u16 {
        self.visible.hashes()
    }

    /// The hash seed shared between data center and base stations.
    pub fn seed(&self) -> u64 {
        self.visible.seed()
    }

    /// The fraction of occupied positions.
    pub fn fill_ratio(&self) -> f64 {
        self.visible.fill_ratio()
    }

    /// The total number of live `(position, weight)` attachments.
    pub fn weight_entries(&self) -> usize {
        self.visible.weight_entries()
    }

    /// The sorted set of every live weight — the score universe a pruning
    /// scan bounds candidates against, mirroring
    /// [`WeightedBloomFilter::weight_universe`] over the visible state.
    /// Computed once per filter state and cached; [`CountingWbf::insert`]
    /// and [`CountingWbf::remove`] invalidate the cache.
    pub fn weight_universe(&self) -> &WeightSet {
        self.visible.weight_universe()
    }

    /// The largest live weight — the static score upper bound. `None` for
    /// an empty filter.
    pub fn max_weight(&self) -> Option<Weight> {
        self.visible.max_weight()
    }
}

impl FilterCore for CountingWbf {
    fn bit_len(&self) -> usize {
        CountingWbf::bit_len(self)
    }

    fn hashes(&self) -> u16 {
        CountingWbf::hashes(self)
    }

    fn seed(&self) -> u64 {
        CountingWbf::seed(self)
    }

    fn contains(&self, key: u64) -> bool {
        CountingWbf::contains(self, key)
    }

    fn fill_ratio(&self) -> f64 {
        CountingWbf::fill_ratio(self)
    }

    fn inserted(&self) -> u64 {
        CountingWbf::live(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FilterParams {
        FilterParams::new(1 << 12, 4).unwrap()
    }

    fn w(n: u64, d: u64) -> Weight {
        Weight::new(n, d).unwrap()
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut filter = CountingWbf::new(params(), 1);
        filter.insert(42, w(1, 3)).unwrap();
        assert!(filter.contains(42));
        assert!(filter.query(42).unwrap().contains(w(1, 3)));
        assert_eq!(filter.live(), 1);
        filter.remove(42, w(1, 3)).unwrap();
        assert!(filter.query(42).is_none());
        assert_eq!(filter.live(), 0);
        assert_eq!(filter.weight_entries(), 0);
    }

    #[test]
    fn absent_removal_is_rejected_without_corruption() {
        let mut filter = CountingWbf::new(params(), 1);
        filter.insert(7, w(1, 2)).unwrap();
        let before = filter.clone();
        // Wrong weight, wrong key, double removal: all rejected, state kept.
        assert_eq!(filter.remove(7, w(1, 4)), Err(CoreError::AbsentRemoval));
        assert_eq!(filter.remove(8, w(1, 2)), Err(CoreError::AbsentRemoval));
        assert_eq!(filter, before);
        filter.remove(7, w(1, 2)).unwrap();
        assert_eq!(filter.remove(7, w(1, 2)), Err(CoreError::AbsentRemoval));
    }

    #[test]
    fn overlapping_keys_survive_partial_removal() {
        // Two patterns share key 2; removing one must keep the other's
        // weight alive at the shared positions.
        let mut filter = CountingWbf::new(params(), 5);
        for v in [1u64, 2, 3] {
            filter.insert(v, w(1, 2)).unwrap();
        }
        for v in [2u64, 4, 5] {
            filter.insert(v, w(1, 4)).unwrap();
        }
        for v in [1u64, 2, 3] {
            filter.remove(v, w(1, 2)).unwrap();
        }
        assert_eq!(
            filter.query_sequence([2u64, 4, 5]).unwrap().max(),
            Some(w(1, 4))
        );
        assert!(filter.query_sequence([1u64, 2, 3]).is_none());
    }

    #[test]
    fn matches_wbf_semantics_on_stitched_false_positives() {
        let mut counting = CountingWbf::new(params(), 5);
        let mut wbf = WeightedBloomFilter::new(params(), 5);
        for v in [1u64, 2, 3] {
            counting.insert(v, w(1, 2)).unwrap();
            wbf.insert(v, w(1, 2));
        }
        for v in [2u64, 4, 5] {
            counting.insert(v, w(1, 4)).unwrap();
            wbf.insert(v, w(1, 4));
        }
        for probe in [[1u64, 4, 5], [1, 2, 3], [2, 4, 5], [9, 10, 11]] {
            assert_eq!(
                counting.query_sequence(probe.iter().copied()),
                wbf.query_sequence(probe.iter().copied()),
                "probe {probe:?} diverged from WBF semantics"
            );
        }
    }

    #[test]
    fn snapshot_equals_fresh_wbf_build() {
        let mut counting = CountingWbf::new(params(), 9);
        let mut reference = WeightedBloomFilter::new(params(), 9);
        for i in 0..60u64 {
            let weight = w(i % 7 + 1, 10);
            counting.insert(i * 31, weight).unwrap();
        }
        // Remove a third of them; the reference only ever sees survivors.
        for i in 0..60u64 {
            let weight = w(i % 7 + 1, 10);
            if i % 3 == 0 {
                counting.remove(i * 31, weight).unwrap();
            } else {
                reference.insert(i * 31, weight);
            }
        }
        assert_eq!(counting.snapshot(), reference);
    }

    #[test]
    fn drain_dirty_reports_diffs_against_the_last_drain() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        let delta = filter.drain_dirty();
        assert!(!delta.is_empty());
        for (_, diff) in &delta {
            assert!(diff.removed.is_empty());
            assert!(diff.added.contains(w(1, 2)));
        }
        assert!(delta.windows(2).all(|e| e[0].0 < e[1].0), "ascending order");
        // Nothing changed since: the next drain is empty.
        assert!(filter.drain_dirty().is_empty());
        assert_eq!(filter.dirty_len(), 0);
        // Removing the key retires its positions: the weight leaves.
        filter.remove(10, w(1, 2)).unwrap();
        let delta = filter.drain_dirty();
        assert!(!delta.is_empty());
        for (_, diff) in &delta {
            assert!(diff.removed.contains(w(1, 2)));
            assert!(diff.added.is_empty());
        }
    }

    #[test]
    fn duplicate_count_increments_do_not_dirty() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        // Same key, same weight: counts move but visible state does not.
        filter.insert(10, w(1, 2)).unwrap();
        assert_eq!(filter.dirty_len(), 0, "invisible count changes stay local");
        // A new weight on the same positions is visible.
        filter.insert(10, w(1, 3)).unwrap();
        assert!(filter.dirty_len() > 0);
    }

    #[test]
    fn reverted_changes_produce_no_diff_entries() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        // Insert-then-remove within one epoch: back to the baseline.
        filter.insert(10, w(1, 3)).unwrap();
        filter.remove(10, w(1, 3)).unwrap();
        assert!(filter.dirty_len() > 0, "positions were touched…");
        assert!(
            filter.drain_dirty().is_empty(),
            "…but the diff against the baseline is empty"
        );
    }

    #[test]
    fn pending_dirty_previews_drain_without_consuming() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        filter.insert(10, w(1, 3)).unwrap();
        filter.remove(10, w(1, 2)).unwrap();
        let preview = filter.pending_dirty();
        assert!(!preview.is_empty());
        assert!(preview.windows(2).all(|e| e[0].0 < e[1].0), "ascending");
        // The preview is exactly what the drain then produces…
        assert_eq!(preview, filter.drain_dirty());
        // …and the preview itself consumed nothing.
        assert!(filter.pending_dirty().is_empty());
    }

    #[test]
    fn checkpointed_baselines_reproduce_the_same_delta() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        filter.drain_dirty();
        filter.insert(11, w(1, 3)).unwrap();
        // Checkpoint: counts + baselines, mid-epoch with a pending delta.
        let counts = filter.counts_snapshot();
        let baselines = filter.dirty_baselines();
        assert!(!baselines.is_empty());
        // Recover into a fresh filter by replaying the live pairs, then
        // restoring the baselines: the next drain is byte-identical.
        let mut recovered = CountingWbf::new(params(), 3);
        recovered.insert(10, w(1, 2)).unwrap();
        recovered.insert(11, w(1, 3)).unwrap();
        assert_eq!(recovered.counts_snapshot(), counts);
        recovered.restore_dirty(baselines).unwrap();
        assert_eq!(recovered.drain_dirty(), filter.drain_dirty());
    }

    #[test]
    fn restore_dirty_rejects_out_of_range_positions() {
        let mut filter = CountingWbf::new(params(), 3);
        filter.insert(10, w(1, 2)).unwrap();
        let kept = filter.dirty_baselines();
        let bad = vec![((1u32 << 12) + 1, WeightSet::new())];
        assert!(matches!(
            filter.restore_dirty(bad),
            Err(CoreError::InvalidParams { .. })
        ));
        let unordered = vec![(5u32, WeightSet::new()), (5, WeightSet::new())];
        assert!(matches!(
            filter.restore_dirty(unordered),
            Err(CoreError::InvalidParams { .. })
        ));
        // Rejected restores leave the pending set untouched.
        assert_eq!(filter.dirty_baselines(), kept);
        // An accepted restore replaces it wholesale.
        filter.restore_dirty(vec![(7, WeightSet::new())]).unwrap();
        assert_eq!(filter.dirty_len(), 1);
        filter.insert(11, w(1, 2)).unwrap();
        let positions: Vec<u32> = filter.dirty_baselines().iter().map(|e| e.0).collect();
        assert!(positions.contains(&7));
        assert!(positions.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn counts_snapshot_orders_positions_and_weights() {
        let mut filter = CountingWbf::new(params(), 9);
        for i in 0..20u64 {
            filter.insert(i * 31, w(i % 4 + 1, 8)).unwrap();
        }
        filter.insert(0, w(1, 8)).unwrap();
        let snapshot = filter.counts_snapshot();
        assert!(snapshot.windows(2).all(|e| e[0].0 < e[1].0));
        let mut total = 0u64;
        for (_, weights) in &snapshot {
            assert!(!weights.is_empty());
            assert!(weights.windows(2).all(|e| e[0].0 < e[1].0));
            assert!(weights.iter().all(|&(_, count)| count > 0));
            total += weights.iter().map(|&(_, count)| count as u64).sum::<u64>();
        }
        assert_eq!(total, 21 * filter.hashes() as u64, "k counts per insert");
    }

    #[test]
    fn filter_core_surface() {
        let mut filter = CountingWbf::new(params(), 7);
        filter.insert(42, Weight::ONE).unwrap();
        let core: &dyn FilterCore = &filter;
        assert_eq!(core.bit_len(), 1 << 12);
        assert_eq!(core.hashes(), 4);
        assert_eq!(core.seed(), 7);
        assert!(core.contains(42));
        assert!(core.fill_ratio() > 0.0);
        assert_eq!(core.inserted(), 1);
    }

    #[test]
    fn weight_universe_follows_inserts_and_removes() {
        let mut filter = CountingWbf::new(params(), 1);
        assert!(filter.weight_universe().is_empty());
        assert_eq!(filter.max_weight(), None);
        filter.insert(1, w(1, 3)).unwrap();
        filter.insert(2, w(2, 3)).unwrap();
        assert_eq!(filter.weight_universe().as_slice(), &[w(1, 3), w(2, 3)]);
        assert_eq!(filter.max_weight(), Some(w(2, 3)));
        // Removing the last carrier of a weight retires it from the
        // universe; the cached set must not go stale.
        filter.remove(2, w(2, 3)).unwrap();
        assert_eq!(filter.weight_universe().as_slice(), &[w(1, 3)]);
        assert_eq!(filter.max_weight(), Some(w(1, 3)));
        // The universe matches the snapshot's.
        assert_eq!(
            filter.weight_universe(),
            filter.snapshot().weight_universe()
        );
    }

    #[test]
    fn equality_ignores_pending_deltas() {
        let mut a = CountingWbf::new(params(), 1);
        let mut b = CountingWbf::new(params(), 1);
        a.insert(5, w(1, 2)).unwrap();
        b.insert(5, w(1, 2)).unwrap();
        a.drain_dirty();
        assert_eq!(a, b, "drained and pending filters hold the same state");
        assert_ne!(a, CountingWbf::new(params(), 1));
        assert_ne!(a, CountingWbf::new(params(), 2));
    }
}

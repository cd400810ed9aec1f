//! The Weighted Bloom Filter — the paper's central data structure.
//!
//! A WBF extends a Bloom filter so that "each bit with 1 … has a pointer
//! pointing to the weight of corresponding hashed values" (Section II-B).
//! Insertion attaches the inserting pattern's weight to every probed bit;
//! lookup succeeds only if all probed bits are set *and* their weight sets
//! share at least one common weight. Sharing a weight across all `b` sampled
//! points of a candidate pattern is the paper's mechanism for (a) telling
//! global-pattern matches (weight 1) from local-pattern matches (weight < 1)
//! and (b) rejecting Bloom false positives whose probed bits were set by
//! *different* patterns — e.g. `{1,4,5}` probing a filter holding `{1,2,3}`
//! and `{2,4,5}` hits only set bits but no consistent weight.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::bitset::BitSet;
use crate::counting::WeightDiff;
use crate::error::{CoreError, Result};
use crate::hash::{HashFamily, Probes};
use crate::params::FilterParams;
use crate::probe::{self, ProbeTable, QueryScratch};
use crate::weight::Weight;
use crate::weight_set::WeightSet;

/// A weighted Bloom filter over `u64` keys.
///
/// # Examples
///
/// Distinguishing a stitched-together false positive, per Section IV-B:
///
/// ```
/// use dipm_core::{FilterParams, Weight, WeightedBloomFilter};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::new(1 << 12, 4)?;
/// let mut wbf = WeightedBloomFilter::new(params, 99);
///
/// let w1 = Weight::new(1, 3)?;
/// let w2 = Weight::new(2, 3)?;
/// for v in [1u64, 2, 3] {
///     wbf.insert(v, w1);
/// }
/// for v in [2u64, 4, 5] {
///     wbf.insert(v, w2);
/// }
///
/// // {1,4,5} hits only set bits, so a plain Bloom filter accepts it…
/// assert!([1u64, 4, 5].iter().all(|&v| wbf.contains(v)));
/// // …but no single weight is shared by all three values, so the WBF
/// // rejects it: the intersection of the points' weight sets is empty.
/// let stitched = wbf.query_sequence([1u64, 4, 5]).expect("bits are set");
/// assert!(stitched.is_empty());
/// // A genuine pattern still reports its weight.
/// assert_eq!(wbf.query_sequence([1u64, 2, 3]).map(|ws| ws.max()), Some(Some(w1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WeightedBloomFilter {
    bits: BitSet,
    // Dense per-bit slot index into `sets`: the probe hot path resolves a
    // bit's weight set with one bounds-free load instead of a tree walk.
    // `EMPTY_SLOT` marks a bit with no weights; a slot whose set has been
    // emptied by a delta stays allocated (tombstone) and is reused when the
    // position refills.
    slots: Vec<u32>,
    sets: Vec<WeightSet>,
    family: HashFamily,
    inserted: u64,
    // Lazily computed union of every attached weight set — the score
    // universe dynamic-pruning scans bound against. Derived state: every
    // mutation path resets it, equality and the wire format ignore it.
    universe: OnceLock<WeightSet>,
    // Lazily computed fold acceleration (see `FoldTable`). Derived state
    // like `universe`, ignored by equality and the wire format: `apply_diff`
    // keeps a warm table in step, every other mutation resets it. `None`
    // inside the cell means the universe is too wide for the mask
    // representation and folds take the generic path.
    fold: OnceLock<Option<FoldTable>>,
}

/// Fold acceleration for the scan hot path: each weight-set slot reduced to
/// a bitmask over a sorted weight universe, so the per-row weight fold —
/// intersect the weight sets of every probed position — is a chain of
/// `AND`s over one `u64` with a zero early-exit, instead of up to `b × k`
/// sorted-set merges. Only kept while the universe fits in 64 weights;
/// wider filters (rare — the universe is one entry per distinct pattern
/// weight) keep the generic merge fold.
///
/// A delta keeps a warm table warm ([`FoldTable::apply`]): the touched
/// slot's mask is edited, and a weight new to the table is spliced into
/// the universe by remapping every mask. Removals leave their weight in the
/// universe with no live mask bit, so the universe may be a superset of the
/// filter's weights; [`FoldTable::live_mask`] recovers the exact set.
#[derive(Debug, Clone)]
struct FoldTable {
    /// The sorted weight universe the mask bits index into.
    universe: WeightSet,
    /// One mask per slot in `sets`, parallel to it: bit `i` set iff the
    /// slot's set contains `universe.as_slice()[i]`.
    masks: Vec<u64>,
}

impl FoldTable {
    /// The table over `sets`, whose union is `universe`; `None` when the
    /// universe exceeds the 64-bit mask width.
    fn build(universe: &WeightSet, sets: &[WeightSet]) -> Option<FoldTable> {
        if universe.len() > 64 {
            return None;
        }
        let mut table = FoldTable {
            universe: universe.clone(),
            masks: Vec::new(),
        };
        table.masks = sets.iter().map(|set| table.mask_of(set)).collect();
        Some(table)
    }

    /// The mask of `weights`, every one of which must be in the universe.
    fn mask_of(&self, weights: &WeightSet) -> u64 {
        weights.iter().fold(0u64, |mask, w| {
            let pos = self
                .universe
                .as_slice()
                .binary_search(&w)
                .expect("universe contains every attached weight");
            mask | 1u64 << pos
        })
    }

    /// The universe bits some slot still holds.
    fn live_mask(&self) -> u64 {
        self.masks.iter().fold(0, |acc, &mask| acc | mask)
    }

    /// Brings the table in step with `diff`, just applied to the set in
    /// `slot` (a slot one past the end is newly allocated). Returns `false`
    /// when an added weight cannot get a mask bit even after dropping dead
    /// weights; the caller then discards the table.
    fn apply(&mut self, slot: usize, diff: &WeightDiff) -> bool {
        if slot == self.masks.len() {
            self.masks.push(0);
        }
        self.masks[slot] &= !self.mask_of(&diff.removed);
        // Each added weight's bit is set at once, so a compaction forced by
        // a later one cannot drop it as dead.
        for w in diff.added.iter() {
            let at = match self.universe.as_slice().binary_search(&w) {
                Ok(at) => at,
                Err(at) => match self.insert_weight(at, w) {
                    Some(at) => at,
                    None => return false,
                },
            };
            self.masks[slot] |= 1u64 << at;
        }
        true
    }

    /// Splices `w` into the universe at sorted index `at`, shifting every
    /// mask bit at or above `at` up by one, and returns `w`'s final index.
    /// A full universe first drops the weights no live mask holds; `None`
    /// if it is still full.
    fn insert_weight(&mut self, mut at: usize, w: Weight) -> Option<usize> {
        if self.universe.len() == 64 {
            self.compact();
            if self.universe.len() == 64 {
                return None;
            }
            at = self
                .universe
                .as_slice()
                .binary_search(&w)
                .expect_err("the weight was absent before compaction");
        }
        self.universe.insert_at(at, w);
        let low = (1u64 << at) - 1;
        for mask in &mut self.masks {
            *mask = (*mask & low) | ((*mask & !low) << 1);
        }
        Some(at)
    }

    /// Drops every universe weight no slot's mask holds, highest first so
    /// the lower indices stay valid while the masks shift down.
    fn compact(&mut self) {
        let live = self.live_mask();
        for at in (0..self.universe.len()).rev() {
            if live & (1u64 << at) != 0 {
                continue;
            }
            self.universe.remove_at(at);
            let low = (1u64 << at) - 1;
            for mask in &mut self.masks {
                *mask = (*mask & low) | ((*mask >> 1) & !low);
            }
        }
    }
}

/// Sentinel in `slots` for a position carrying no weights.
const EMPTY_SLOT: u32 = u32::MAX;

/// The weight set of every position without a slot.
static NO_WEIGHTS: WeightSet = WeightSet::new();

impl WeightedBloomFilter {
    /// Creates an empty weighted filter with the given geometry and seed.
    pub fn new(params: FilterParams, seed: u64) -> WeightedBloomFilter {
        WeightedBloomFilter {
            bits: BitSet::new(params.bits()),
            slots: vec![EMPTY_SLOT; params.bits()],
            sets: Vec::new(),
            family: HashFamily::new(params.hashes(), seed),
            inserted: 0,
            universe: OnceLock::new(),
            fold: OnceLock::new(),
        }
    }

    pub(crate) fn from_parts(
        bits: BitSet,
        weights: BTreeMap<u32, WeightSet>,
        family: HashFamily,
        inserted: u64,
    ) -> Result<WeightedBloomFilter> {
        let mut slots = vec![EMPTY_SLOT; bits.len()];
        let mut sets = Vec::with_capacity(weights.len());
        for (idx, set) in weights {
            if idx as usize >= bits.len() {
                return Err(CoreError::decode("weight entry beyond filter length"));
            }
            if !bits.get(idx as usize) {
                return Err(CoreError::decode("weight entry on an unset bit"));
            }
            if set.is_empty() {
                return Err(CoreError::decode("empty weight set entry"));
            }
            slots[idx as usize] = sets.len() as u32;
            sets.push(set);
        }
        Ok(WeightedBloomFilter {
            bits,
            slots,
            sets,
            family,
            inserted,
            universe: OnceLock::new(),
            fold: OnceLock::new(),
        })
    }

    /// The weight set slot for `bit`, allocating one on first attachment
    /// (a tombstoned slot is reused as is).
    fn slot_or_insert(&mut self, bit: usize) -> usize {
        if self.slots[bit] == EMPTY_SLOT {
            self.slots[bit] = self.sets.len() as u32;
            self.sets.push(WeightSet::new());
        }
        self.slots[bit] as usize
    }

    /// The weight set at `bit` — empty for a position without weights.
    pub(crate) fn set_or_empty(&self, bit: usize) -> &WeightSet {
        self.slot_of(bit)
            .map_or(&NO_WEIGHTS, |slot| &self.sets[slot])
    }

    /// Iterates `(bit, slot)` over every position carrying weights, in
    /// ascending bit order.
    pub(crate) fn occupied_slots(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.slots.iter().enumerate().filter_map(|(idx, &slot)| {
            (slot != EMPTY_SLOT && !self.sets[slot as usize].is_empty())
                .then_some((idx as u32, slot as usize))
        })
    }

    /// Iterates `(bit, weight set)` over every position carrying weights, in
    /// ascending bit order — the canonical order the wire encoding and
    /// equality rely on.
    pub(crate) fn weight_positions(&self) -> impl Iterator<Item = (u32, &WeightSet)> {
        self.occupied_slots()
            .map(|(idx, slot)| (idx, &self.sets[slot]))
    }

    /// The slot holding `bit`'s weight set, if one was ever allocated
    /// (tombstones included). Slots index the counting filter's parallel
    /// refcounts.
    pub(crate) fn slot_of(&self, bit: usize) -> Option<usize> {
        match self.slots[bit] {
            EMPTY_SLOT => None,
            slot => Some(slot as usize),
        }
    }

    /// The weight set in `slot`.
    pub(crate) fn slot_set(&self, slot: usize) -> &WeightSet {
        &self.sets[slot]
    }

    /// Attaches `weight` to `bit` at index `at` of its sorted set (located
    /// by the caller, which keeps data parallel to it) and sets the bit.
    /// Returns the position's slot; a new slot is one past the previous
    /// end.
    pub(crate) fn attach_at(&mut self, bit: usize, at: usize, weight: Weight) -> usize {
        let slot = self.slot_or_insert(bit);
        self.sets[slot].insert_at(at, weight);
        self.bits.set(bit);
        self.invalidate_derived();
        slot
    }

    /// Detaches the weight at index `at` of the set in `slot`, which `bit`
    /// owns; a position left without weights clears its bit and keeps the
    /// slot as a tombstone.
    pub(crate) fn detach_at(&mut self, bit: usize, slot: usize, at: usize) {
        let set = &mut self.sets[slot];
        set.remove_at(at);
        if set.is_empty() {
            self.bits.unset(bit);
        }
        self.invalidate_derived();
    }

    /// Overwrites the insert count (the counting filter keeps it equal to
    /// its live insertions).
    pub(crate) fn set_inserted(&mut self, inserted: u64) {
        self.inserted = inserted;
    }

    /// Drops the cached universe and fold table after a mutation that does
    /// not maintain them.
    fn invalidate_derived(&mut self) {
        self.universe.take();
        self.fold.take();
    }

    /// Inserts `key` carrying `weight`: sets all `k` probed bits and attaches
    /// the weight to each.
    pub fn insert(&mut self, key: u64, weight: Weight) {
        let m = self.bits.len();
        for idx in self.family.probes(key, m) {
            self.bits.set(idx);
            let slot = self.slot_or_insert(idx);
            self.sets[slot].insert(weight);
        }
        self.inserted += 1;
        self.invalidate_derived();
    }

    /// The `k` probe positions of `key`, in hash-function order.
    pub(crate) fn probe_indices(&self, key: u64) -> Probes {
        self.family.probes(key, self.bits.len())
    }

    /// Pure membership test (ignores weights): whether all probed bits are
    /// set. Matches classic Bloom semantics — no false negatives.
    pub fn contains(&self, key: u64) -> bool {
        let m = self.bits.len();
        self.bits.contains_probes(self.family.probes(key, m))
    }

    /// Queries a single key: `None` if any probed bit is unset, otherwise the
    /// intersection of the probed bits' weight sets (Algorithm 2, lines 4–9).
    ///
    /// An empty returned set means the bits were set but by values of
    /// inconsistent weights — the candidate is rejected. Membership is
    /// tested across *all* probed bits (word-level) before any weight set is
    /// read, so a miss never touches the weight table.
    ///
    /// Allocates the result; the scan hot path uses
    /// [`WeightedBloomFilter::query_into`] with a reused buffer instead.
    pub fn query(&self, key: u64) -> Option<WeightSet> {
        let mut out = WeightSet::new();
        probe::query_into(self, key, &mut out).map(|()| out)
    }

    /// Allocation-free [`WeightedBloomFilter::query`]: the intersection is
    /// written into `out` (cleared and overwritten, capacity reused). The
    /// first occupied probe is borrowed from the filter; only a second
    /// distinct probe copies anything.
    pub fn query_into(&self, key: u64, out: &mut WeightSet) -> Option<()> {
        probe::query_into(self, key, out)
    }

    /// Queries a sequence of keys (the `b` sampled points of one candidate
    /// pattern) and returns the weights common to *every* point, or `None`
    /// if any point misses entirely (Algorithm 2, lines 3–15).
    ///
    /// The caller accepts the candidate iff the result is `Some` of a
    /// non-empty set; [`WeightSet::max`] is then the reported weight.
    ///
    /// Allocates the result; the scan hot path uses
    /// [`WeightedBloomFilter::query_sequence_into`] with reusable scratch.
    pub fn query_sequence<I>(&self, keys: I) -> Option<WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let mut scratch = QueryScratch::new();
        self.query_sequence_into(keys, &mut scratch).cloned()
    }

    /// Allocation-free [`WeightedBloomFilter::query_sequence`]: the running
    /// intersection lives in `scratch` (capacity reused across calls) and
    /// the result borrows from it — or directly from the filter when a
    /// single position's set *is* the answer, in which case nothing is
    /// copied at all.
    pub fn query_sequence_into<'s, I>(
        &'s self,
        keys: I,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        probe::query_sequence_into(self, keys, scratch)
    }

    /// [`WeightedBloomFilter::query_sequence_into`] over a probe set hashed
    /// once via [`PrecomputedProbes`](crate::PrecomputedProbes): membership
    /// is tested with the precomputed word masks in one batched pass, and
    /// the weight fold replays the stored indices — no re-hashing. Batch
    /// scans use this to probe one row against many sections sharing this
    /// filter's geometry.
    ///
    /// `pre` must have been computed against an identical `(hash family,
    /// bit length)` geometry; results are then exactly those of
    /// `query_sequence_into` over the same keys.
    pub fn query_precomputed<'s>(
        &'s self,
        pre: &crate::probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        if pre.is_empty() || !self.bits.contains_probes_simd(pre.words(), pre.mask_bits()) {
            return None;
        }
        self.fold_weights_precomputed(pre, scratch)
    }

    /// The weight fold of [`WeightedBloomFilter::query_precomputed`] alone,
    /// for scans that already verified membership of every key (e.g. key by
    /// key via [`PrecomputedProbes::key_masks`](crate::PrecomputedProbes::key_masks)
    /// and [`BitSet::contains_probes_simd`](crate::BitSet::contains_probes_simd)).
    /// Returns `None` for an empty probe set.
    ///
    /// # Panics
    ///
    /// May panic if any precomputed probe index is unoccupied — run the
    /// membership test first.
    pub fn fold_weights_precomputed<'s>(
        &'s self,
        pre: &crate::probe::PrecomputedProbes,
        scratch: &'s mut QueryScratch,
    ) -> Option<&'s WeightSet> {
        let indices = pre.indices();
        if let Some(table) = self.fold_table() {
            if indices.is_empty() {
                return None;
            }
            // Every probed position's set as one mask over the universe:
            // the whole fold is an AND chain with a zero early-exit, and
            // the surviving intersection materializes straight from the
            // sorted universe.
            let mut mask = u64::MAX;
            for &idx in indices {
                mask &= table.masks[self.slots[idx as usize] as usize];
                if mask == 0 {
                    break;
                }
            }
            scratch.acc.assign_mask(&table.universe, mask);
            return Some(&scratch.acc);
        }
        probe::fold_weights_at(self, indices, scratch)
    }

    /// The lazily built fold acceleration table, or `None` when the weight
    /// universe exceeds the 64-weight mask width.
    fn fold_table(&self) -> Option<&FoldTable> {
        self.fold
            .get_or_init(|| FoldTable::build(self.weight_universe(), &self.sets))
            .as_ref()
    }

    /// The number of insert operations performed.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The filter length in bits.
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    /// The number of hash functions.
    pub fn hashes(&self) -> u16 {
        self.family.hashes()
    }

    /// The hash seed shared between data center and base stations.
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// The total number of stored `(bit, weight)` attachments — the extra
    /// storage a WBF pays over a plain Bloom filter (Fig. 4d).
    pub fn weight_entries(&self) -> usize {
        self.sets.iter().map(WeightSet::len).sum()
    }

    /// The number of distinct weights across all bits.
    pub fn distinct_weights(&self) -> usize {
        self.weight_universe().len()
    }

    /// The sorted set of every distinct weight attached anywhere in the
    /// filter — the score universe a pruning scan bounds candidates
    /// against. Any weight a query of this filter can ever report is drawn
    /// from this set, so its maximum is the section's score upper bound.
    ///
    /// Computed once per filter state and cached; [`insert`], [`union_with`]
    /// and [`apply_diff`] invalidate the cache. While the fold table is
    /// warm the universe is read off the OR of its live masks, so a table
    /// that still indexes weights a delta retired never widens it.
    ///
    /// [`insert`]: WeightedBloomFilter::insert
    /// [`union_with`]: WeightedBloomFilter::union_with
    /// [`apply_diff`]: WeightedBloomFilter::apply_diff
    pub fn weight_universe(&self) -> &WeightSet {
        self.universe.get_or_init(|| {
            let mut all = WeightSet::new();
            match self.fold.get() {
                Some(Some(table)) => all.assign_mask(&table.universe, table.live_mask()),
                _ => {
                    for set in &self.sets {
                        all.union_with(set);
                    }
                }
            }
            all
        })
    }

    /// The largest weight any candidate could report — the static
    /// per-section score upper bound. `None` for a filter with no attached
    /// weights.
    pub fn max_weight(&self) -> Option<Weight> {
        self.weight_universe().max()
    }

    /// Theoretical false-positive probability of the *membership* layer at
    /// the current fill; weight consistency only lowers the real rate.
    pub fn estimated_membership_fpp(&self) -> f64 {
        self.bits.fill_ratio().powi(self.family.hashes() as i32)
    }

    /// Merges another WBF built with identical geometry and seed, unioning
    /// bits and per-bit weight sets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`] if geometry or seed differ.
    pub fn union_with(&mut self, other: &WeightedBloomFilter) -> Result<()> {
        if self.family != other.family {
            return Err(CoreError::IncompatibleFilters);
        }
        self.bits.union_with(&other.bits)?;
        for (idx, set) in other.weight_positions() {
            let slot = self.slot_or_insert(idx as usize);
            self.sets[slot].union_with(set);
        }
        self.inserted += other.inserted;
        self.invalidate_derived();
        Ok(())
    }

    /// Applies one filter-delta entry: the [`WeightDiff`] of a single
    /// position relative to this filter's current state, as broadcast by a
    /// streaming data center maintaining a
    /// [`CountingWbf`](crate::CountingWbf).
    ///
    /// Every removed weight must currently be attached and every added
    /// weight absent — a mismatch means the station's state diverged from
    /// the baseline the center diffed against (a missed or replayed epoch)
    /// and is rejected before anything is mutated. A position whose set
    /// empties is cleared; a previously clear position gains its first
    /// weights and its bit.
    ///
    /// The cost follows the diff, not the filter: the position's sorted
    /// set is edited in place, and a warm fold table stays warm — the
    /// slot's mask is edited and a weight new to the table is spliced into
    /// its universe. Only a universe still over 64 weights after dropping
    /// the dead ones discards the table, for a lazy rebuild on the next
    /// fold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] if `bit` is outside the filter, the
    /// diff is empty, or the diff does not match the current state.
    pub fn apply_diff(&mut self, bit: u32, diff: &WeightDiff) -> Result<()> {
        let idx = bit as usize;
        if idx >= self.bits.len() {
            return Err(CoreError::decode("delta entry beyond filter length"));
        }
        if diff.is_empty() {
            return Err(CoreError::decode("empty delta entry"));
        }
        let current = self.set_or_empty(idx);
        if !diff.removed.iter().all(|w| current.contains(w)) {
            return Err(CoreError::decode(
                "delta removes a weight the position does not carry",
            ));
        }
        if diff.added.iter().any(|w| current.contains(w)) {
            return Err(CoreError::decode(
                "delta adds a weight the position already carries",
            ));
        }
        // An emptied set stays allocated (tombstone) for reuse when the
        // position refills; an empty set reads as "no weights".
        let slot = self.slot_or_insert(idx);
        let set = &mut self.sets[slot];
        set.remove_all(&diff.removed);
        set.union_with(&diff.added);
        if set.is_empty() {
            self.bits.unset(idx);
        } else {
            self.bits.set(idx);
        }
        self.universe.take();
        let keep = match self.fold.get_mut() {
            Some(Some(table)) => table.apply(slot, diff),
            // Too wide before: the diff may have narrowed it.
            Some(None) => false,
            None => true,
        };
        if !keep {
            self.fold.take();
        }
        Ok(())
    }

    /// Borrows the underlying bit set.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }
}

/// Equality is semantic — per-position weight sets in bit order — because
/// the slot layout depends on attachment order: a filter built by inserts
/// and the same filter decoded from the wire (or snapshotted from a
/// counting filter) must compare equal.
impl PartialEq for WeightedBloomFilter {
    fn eq(&self, other: &WeightedBloomFilter) -> bool {
        self.inserted == other.inserted
            && self.family == other.family
            && self.bits == other.bits
            && self.weight_positions().eq(other.weight_positions())
    }
}

impl Eq for WeightedBloomFilter {}

impl ProbeTable for WeightedBloomFilter {
    fn geometry(&self) -> (&HashFamily, usize) {
        (&self.family, self.bits.len())
    }

    fn occupied(&self, probes: Probes) -> bool {
        self.bits.contains_probes(probes)
    }

    fn set_at(&self, idx: usize) -> Option<&WeightSet> {
        match self.slots[idx] {
            EMPTY_SLOT => None,
            slot => {
                let set = &self.sets[slot as usize];
                (!set.is_empty()).then_some(set)
            }
        }
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
    fn insert_then_query_returns_weight() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(42, w(1, 3));
        let set = wbf.query(42).unwrap();
        assert!(set.contains(w(1, 3)));
    }

    #[test]
    fn query_missing_key_is_none() {
        let wbf = WeightedBloomFilter::new(params(), 1);
        assert!(wbf.query(42).is_none());
        assert!(wbf.query_sequence([1u64, 2]).is_none());
    }

    #[test]
    fn query_sequence_of_nothing_is_none() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(1, Weight::ONE);
        assert!(wbf.query_sequence(std::iter::empty()).is_none());
    }

    #[test]
    fn same_key_two_weights_keeps_both() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(7, w(1, 3));
        wbf.insert(7, w(2, 3));
        let set = wbf.query(7).unwrap();
        assert!(set.contains(w(1, 3)) && set.contains(w(2, 3)));
    }

    #[test]
    fn paper_section_iv_false_positive_rejection() {
        // Patterns {1,2,3} (weight a) and {2,4,5} (weight b) are inserted;
        // the stitched pattern {1,4,5} must be rejected by weight
        // inconsistency even though its bits are all set.
        let mut wbf = WeightedBloomFilter::new(params(), 5);
        for v in [1u64, 2, 3] {
            wbf.insert(v, w(1, 2));
        }
        for v in [2u64, 4, 5] {
            wbf.insert(v, w(1, 4));
        }
        let res = wbf.query_sequence([1u64, 4, 5]);
        assert_eq!(res, Some(WeightSet::new()));
        // Both originals still match with their own weight.
        assert_eq!(
            wbf.query_sequence([1u64, 2, 3]).unwrap().max(),
            Some(w(1, 2))
        );
        assert_eq!(
            wbf.query_sequence([2u64, 4, 5]).unwrap().max(),
            Some(w(1, 4))
        );
    }

    #[test]
    fn no_false_negatives_for_inserted_sequences() {
        let mut wbf = WeightedBloomFilter::new(params(), 9);
        let seqs: Vec<Vec<u64>> = (0..50)
            .map(|i| (0..8).map(|j| (i * 1009 + j * 97) as u64).collect())
            .collect();
        for (i, seq) in seqs.iter().enumerate() {
            let weight = w(i as u64 + 1, 100);
            for &v in seq {
                wbf.insert(v, weight);
            }
        }
        for (i, seq) in seqs.iter().enumerate() {
            let weight = w(i as u64 + 1, 100);
            let res = wbf.query_sequence(seq.iter().copied()).unwrap();
            assert!(res.contains(weight), "sequence {i} lost its weight");
        }
    }

    #[test]
    fn weight_entries_counts_attachments() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        assert_eq!(wbf.weight_entries(), 0);
        wbf.insert(1, Weight::ONE);
        // k = 4 probes, possibly fewer distinct bits on collision.
        assert!(wbf.weight_entries() >= 1 && wbf.weight_entries() <= 4);
    }

    #[test]
    fn distinct_weights_across_bits() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(1, w(1, 3));
        wbf.insert(2, w(2, 3));
        wbf.insert(3, w(1, 3));
        assert_eq!(wbf.distinct_weights(), 2);
    }

    #[test]
    fn weight_universe_tracks_every_mutation_path() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        assert!(wbf.weight_universe().is_empty());
        assert_eq!(wbf.max_weight(), None);

        // Insert invalidates the cached (empty) universe.
        wbf.insert(1, w(1, 3));
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3)]);
        assert_eq!(wbf.max_weight(), Some(w(1, 3)));

        // Union invalidates it again.
        let mut other = WeightedBloomFilter::new(params(), 1);
        other.insert(9, w(2, 3));
        wbf.union_with(&other).unwrap();
        assert_eq!(wbf.weight_universe().as_slice(), &[w(1, 3), w(2, 3)]);

        // Delta application does too — replay a counting filter's churn.
        let mut counting = crate::counting::CountingWbf::new(params(), 1);
        counting.insert(5, Weight::ONE).unwrap();
        let mut replayed = counting.snapshot();
        assert_eq!(replayed.max_weight(), Some(Weight::ONE));
        counting.drain_dirty();
        counting.remove(5, Weight::ONE).unwrap();
        for (bit, diff) in counting.drain_dirty() {
            replayed.apply_diff(bit, &diff).unwrap();
        }
        assert!(replayed.weight_universe().is_empty());

        // A clone carries an independent, consistent cache.
        let cloned = wbf.clone();
        assert_eq!(cloned.weight_universe(), wbf.weight_universe());
    }

    #[test]
    fn precomputed_probes_match_query_sequence() {
        use crate::probe::PrecomputedProbes;
        let mut wbf = WeightedBloomFilter::new(params(), 5);
        for v in [1u64, 2, 3] {
            wbf.insert(v, w(1, 2));
        }
        for v in [2u64, 4, 5] {
            wbf.insert(v, w(1, 4));
        }
        let mut pre = PrecomputedProbes::new();
        let mut scratch_a = QueryScratch::new();
        let mut scratch_b = QueryScratch::new();
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![1, 2, 3],   // genuine match
            vec![2, 4, 5],   // genuine match, other weight
            vec![1, 4, 5],   // stitched: bits set, empty intersection
            vec![9, 10, 11], // miss
            vec![1, 9],      // partial miss
            vec![2, 2, 2],   // repeated key
        ];
        for keys in cases {
            pre.compute(
                &HashFamily::new(wbf.hashes(), wbf.seed()),
                wbf.bit_len(),
                &keys,
            );
            let fast = wbf.query_precomputed(&pre, &mut scratch_a).cloned();
            let slow = wbf
                .query_sequence_into(keys.iter().copied(), &mut scratch_b)
                .cloned();
            assert_eq!(fast, slow, "keys {keys:?}");
        }
    }

    #[test]
    fn union_merges_weights() {
        let mut a = WeightedBloomFilter::new(params(), 1);
        let mut b = WeightedBloomFilter::new(params(), 1);
        a.insert(1, w(1, 2));
        b.insert(1, w(1, 4));
        b.insert(9, Weight::ONE);
        a.union_with(&b).unwrap();
        let set = a.query(1).unwrap();
        assert!(set.contains(w(1, 2)) && set.contains(w(1, 4)));
        assert!(a.query(9).unwrap().contains(Weight::ONE));
    }

    #[test]
    fn union_rejects_mismatched_seed() {
        let mut a = WeightedBloomFilter::new(params(), 1);
        let b = WeightedBloomFilter::new(params(), 2);
        assert_eq!(a.union_with(&b), Err(CoreError::IncompatibleFilters));
    }

    #[test]
    fn contains_matches_bloom_semantics() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(10, Weight::ONE);
        assert!(wbf.contains(10));
        assert!(!wbf.contains(11) || wbf.query(11).is_some());
    }

    #[test]
    fn apply_diff_mirrors_counting_updates() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(5, w(1, 2));
        let mut counting = crate::counting::CountingWbf::new(params(), 1);
        counting.insert(5, w(1, 2)).unwrap();
        counting.drain_dirty();
        // Churn the counting side, replay its diffs onto the plain filter.
        counting.insert(9, w(1, 3)).unwrap();
        counting.remove(5, w(1, 2)).unwrap();
        for (bit, diff) in counting.drain_dirty() {
            wbf.apply_diff(bit, &diff).unwrap();
        }
        assert_eq!(wbf, counting.snapshot());
    }

    #[test]
    fn apply_diff_rejects_divergent_state() {
        let mut wbf = WeightedBloomFilter::new(params(), 1);
        wbf.insert(5, w(1, 2));
        let bit = {
            let m = wbf.bit_len();
            wbf.family.probes(5, m).next().unwrap() as u32
        };
        let before = wbf.clone();
        // Removing a weight the position never carried…
        let diff = WeightDiff {
            removed: WeightSet::singleton(w(1, 7)),
            added: WeightSet::new(),
        };
        assert!(wbf.apply_diff(bit, &diff).is_err());
        // …adding one it already carries…
        let diff = WeightDiff {
            removed: WeightSet::new(),
            added: WeightSet::singleton(w(1, 2)),
        };
        assert!(wbf.apply_diff(bit, &diff).is_err());
        // …an empty diff, and an out-of-range position: all rejected
        // without mutating anything.
        assert!(wbf.apply_diff(bit, &WeightDiff::default()).is_err());
        assert!(wbf.apply_diff(u32::MAX, &WeightDiff::default()).is_err());
        assert_eq!(wbf, before);
    }

    #[test]
    fn from_parts_validates_consistency() {
        let wbf = WeightedBloomFilter::new(params(), 1);
        let bits = wbf.bits().clone();
        let mut weights = BTreeMap::new();
        weights.insert(3u32, WeightSet::singleton(Weight::ONE));
        // Bit 3 is not set → invalid.
        let family = HashFamily::new(4, 1);
        assert!(WeightedBloomFilter::from_parts(bits, weights, family, 0).is_err());
    }
}

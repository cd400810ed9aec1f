//! The classic Bloom filter (Bloom, 1970) — the paper's baseline.
//!
//! DI-matching's `BF` comparison method (Section V-A) runs the same
//! distributed protocol with this unweighted filter: membership only, no
//! per-bit weight queues, and therefore no way to tell a global-pattern match
//! from a local-pattern match, and no weight-consistency rejection of false
//! positives.
//!
//! [`CountingBloom`] adds reference counts underneath, so keys can be
//! removed as well as inserted — the summary a routing-tree leaf keeps per
//! station under row churn.

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::hash::HashFamily;
use crate::params::FilterParams;

/// A classic Bloom filter over `u64` keys.
///
/// Guarantees no false negatives; false positives occur with probability
/// approaching [`FilterParams::false_positive_rate`].
///
/// # Examples
///
/// ```
/// use dipm_core::{BloomFilter, FilterParams};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::optimal(100, 0.01)?;
/// let mut filter = BloomFilter::new(params, 7);
/// filter.insert(42);
/// assert!(filter.contains(42));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BloomFilter {
    bits: BitSet,
    family: HashFamily,
    inserted: u64,
}

impl BloomFilter {
    /// Creates an empty filter with the given geometry and hash seed.
    ///
    /// The seed must match between the encoder (data center) and every
    /// decoder (base station); it travels in the wire header.
    pub fn new(params: FilterParams, seed: u64) -> BloomFilter {
        BloomFilter {
            bits: BitSet::new(params.bits()),
            family: HashFamily::new(params.hashes(), seed),
            inserted: 0,
        }
    }

    pub(crate) fn from_parts(bits: BitSet, family: HashFamily, inserted: u64) -> BloomFilter {
        BloomFilter {
            bits,
            family,
            inserted,
        }
    }

    /// Inserts `key`, returning `true` if at least one bit was newly set
    /// (i.e. the key was definitely not present before).
    pub fn insert(&mut self, key: u64) -> bool {
        let m = self.bits.len();
        let mut newly = false;
        for idx in self.family.probes(key, m) {
            newly |= self.bits.set(idx);
        }
        self.inserted += 1;
        newly
    }

    /// Whether `key` may have been inserted (no false negatives).
    ///
    /// Probes at word level through the active
    /// [`Kernel`](crate::Kernel), so routing-tree descent
    /// ([`may_contain_any`](BloomFilter::may_contain_any)) inherits the
    /// vectorized membership test.
    pub fn contains(&self, key: u64) -> bool {
        let m = self.bits.len();
        self.bits.contains_probes(self.family.probes(key, m))
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

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// The theoretical false-positive probability at the current load.
    pub fn estimated_fpp(&self) -> f64 {
        // Use the observed fill ratio, which is exact, rather than the
        // expected ratio from the insert count.
        self.bits.fill_ratio().powi(self.family.hashes() as i32)
    }

    /// Merges another filter built with identical geometry and seed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`](crate::CoreError) if the
    /// geometry or seed differs.
    pub fn union_with(&mut self, other: &BloomFilter) -> Result<()> {
        if self.family != other.family {
            return Err(crate::error::CoreError::IncompatibleFilters);
        }
        self.bits.union_with(&other.bits)?;
        self.inserted += other.inserted;
        Ok(())
    }

    /// Merges this filter into `dst` — the union direction a routing tree
    /// uses when folding children into their parent summary.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleFilters`](crate::CoreError) if the
    /// geometry or seed differs.
    pub fn union_into(&self, dst: &mut BloomFilter) -> Result<()> {
        dst.union_with(self)
    }

    /// Whether **any** of `keys` may have been inserted — the routing-tree
    /// subtree test. No false negatives: if any key was inserted into this
    /// filter (or any filter unioned into it), this returns `true`.
    ///
    /// An empty key set trivially matches nothing.
    pub fn may_contain_any<I>(&self, keys: I) -> bool
    where
        I: IntoIterator<Item = u64>,
    {
        keys.into_iter().any(|key| self.contains(key))
    }

    /// Borrows the underlying bit set.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }
}

/// A counting Bloom filter: one `u32` reference count per bit, with its
/// membership projection kept current.
///
/// A counter going 0→1 sets the projection's bit and 1→0 clears it, so the
/// [`projection`](CountingBloom::projection) is always exactly the classic
/// [`BloomFilter`] of the live keys, with `inserted` counting live
/// insertions (inserts minus removes). Removal is the exact inverse of
/// insertion, so after any interleaving of inserts and removes of
/// previously inserted keys the filter equals a fresh build over the
/// survivors. As with any counting Bloom filter, a never-inserted key is
/// usually caught on removal, but its probes may all alias live counters;
/// callers must only remove what they inserted.
///
/// # Examples
///
/// ```
/// use dipm_core::{CountingBloom, FilterParams};
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let params = FilterParams::new(1 << 12, 4)?;
/// let mut filter = CountingBloom::new(params, 7);
/// filter.insert(42)?;
/// filter.insert(42)?;
/// filter.remove(42)?;
/// assert!(filter.projection().contains(42));
/// filter.remove(42)?;
/// assert!(!filter.projection().contains(42));
/// assert!(filter.remove(42).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloom {
    counts: Vec<u32>,
    projection: BloomFilter,
}

impl CountingBloom {
    /// Creates an empty counting filter with the given geometry and seed.
    pub fn new(params: FilterParams, seed: u64) -> CountingBloom {
        CountingBloom {
            counts: vec![0; params.bits()],
            projection: BloomFilter::new(params, seed),
        }
    }

    /// Inserts `key`, incrementing every probed counter (colliding probes
    /// count by multiplicity).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WeightOverflow`] if a counter would exceed
    /// `u32::MAX`; the filter is left untouched.
    pub fn insert(&mut self, key: u64) -> Result<()> {
        self.step_probes(key, true, CoreError::WeightOverflow)?;
        self.projection.inserted += 1;
        Ok(())
    }

    /// Removes one prior insertion of `key`, decrementing every probed
    /// counter (colliding probes count by multiplicity).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AbsentRemoval`] if a probed counter would drop
    /// below zero; the filter is left untouched.
    pub fn remove(&mut self, key: u64) -> Result<()> {
        self.step_probes(key, false, CoreError::AbsentRemoval)?;
        self.projection.inserted -= 1;
        Ok(())
    }

    /// The membership projection: set bits are exactly the nonzero
    /// counters.
    pub fn projection(&self) -> &BloomFilter {
        &self.projection
    }

    /// Steps every probed counter of `key` up or down by one. All or
    /// nothing: at the first counter that would leave `u32`, the steps
    /// already taken are undone and `err` is returned.
    fn step_probes(&mut self, key: u64, up: bool, err: CoreError) -> Result<()> {
        let probes = self.projection.family.probes(key, self.counts.len());
        for (done, idx) in probes.clone().enumerate() {
            if !self.step(idx, up) {
                for idx in probes.take(done) {
                    self.step(idx, !up);
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// Steps one counter by one, keeping its projection bit in step;
    /// returns `false` (changing nothing) if the counter would leave `u32`.
    fn step(&mut self, idx: usize, up: bool) -> bool {
        let count = self.counts[idx];
        let next = if up {
            count.checked_add(1)
        } else {
            count.checked_sub(1)
        };
        let Some(next) = next else {
            return false;
        };
        self.counts[idx] = next;
        if count == 0 {
            self.projection.bits.set(idx);
        } else if next == 0 {
            self.projection.bits.unset(idx);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BloomFilter {
        BloomFilter::new(FilterParams::new(1 << 12, 4).unwrap(), 11)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = small();
        for key in 0..500u64 {
            f.insert(key * 7919);
        }
        for key in 0..500u64 {
            assert!(f.contains(key * 7919));
        }
    }

    #[test]
    fn insert_returns_newness() {
        let mut f = small();
        assert!(f.insert(1));
        assert!(!f.insert(1));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = small();
        assert!(!f.contains(0));
        assert!(!f.contains(u64::MAX));
        assert_eq!(f.inserted(), 0);
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn observed_fpp_close_to_theory() {
        let params = FilterParams::optimal(1000, 0.02).unwrap();
        let mut f = BloomFilter::new(params, 3);
        for key in 0..1000u64 {
            f.insert(key);
        }
        let mut false_positives = 0;
        let probes = 20_000u64;
        for key in 1_000_000..1_000_000 + probes {
            if f.contains(key) {
                false_positives += 1;
            }
        }
        let observed = false_positives as f64 / probes as f64;
        // Theory says ~2%; accept up to 2x (small-sample noise).
        assert!(observed < 0.04, "observed fpp {observed}");
    }

    #[test]
    fn union_merges_membership() {
        let mut a = small();
        let mut b = small();
        a.insert(1);
        b.insert(2);
        a.union_with(&b).unwrap();
        assert!(a.contains(1));
        assert!(a.contains(2));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn union_rejects_different_seed() {
        let mut a = small();
        let b = BloomFilter::new(FilterParams::new(1 << 12, 4).unwrap(), 12);
        assert!(a.union_with(&b).is_err());
    }

    #[test]
    fn union_rejects_different_geometry() {
        let mut a = small();
        let b = BloomFilter::new(FilterParams::new(1 << 11, 4).unwrap(), 11);
        assert!(a.union_with(&b).is_err());
    }

    #[test]
    fn may_contain_any_is_an_existential_contains() {
        let mut f = small();
        f.insert(10);
        f.insert(20);
        assert!(f.may_contain_any([999, 20]));
        assert!(f.may_contain_any([10]));
        assert!(
            !f.may_contain_any([] as [u64; 0]),
            "empty set matches nothing"
        );
        // A union keeps every constituent reachable.
        let mut g = small();
        g.insert(30);
        g.union_into(&mut f).unwrap();
        assert!(f.may_contain_any([30]));
        // Incompatible union direction errors symmetrically.
        let other_seed = BloomFilter::new(FilterParams::new(1 << 12, 4).unwrap(), 99);
        assert!(other_seed.union_into(&mut f).is_err());
    }

    #[test]
    fn order_insensitive_membership() {
        // A plain BF cannot distinguish {1,2,3} from {3,2,1}: this is exactly
        // the weakness the paper's accumulation + WBF design addresses.
        let mut f = small();
        for v in [1u64, 2, 3] {
            f.insert(v);
        }
        assert!([3u64, 2, 1].iter().all(|&v| f.contains(v)));
    }

    fn counting() -> CountingBloom {
        CountingBloom::new(FilterParams::new(1 << 12, 4).unwrap(), 11)
    }

    #[test]
    fn counting_colliding_probes_round_trip_to_empty() {
        // 12 bits and 6 hashes: a probe stride of 3 or 9 (mod 12) revisits
        // a position within six probes.
        let params = FilterParams::new(12, 6).unwrap();
        let family = HashFamily::new(6, 5);
        let (key, idx) = (0u64..)
            .find_map(|key| {
                let probes: Vec<usize> = family.probes(key, 12).collect();
                let dup = probes
                    .iter()
                    .find(|&&i| probes.iter().filter(|&&j| j == i).count() > 1);
                dup.map(|&i| (key, i))
            })
            .unwrap();
        let empty = CountingBloom::new(params, 5);
        let mut filter = empty.clone();
        filter.insert(key).unwrap();
        assert!(filter.counts[idx] > 1, "collision counted by multiplicity");
        assert!(filter.projection().contains(key));
        filter.remove(key).unwrap();
        assert_eq!(filter, empty);
        assert_eq!(filter.remove(key), Err(CoreError::AbsentRemoval));
    }

    #[test]
    fn counting_absent_removal_leaves_the_filter_untouched() {
        let mut filter = counting();
        for key in 0..300u64 {
            filter.insert(key * 7919).unwrap();
        }
        // A never-inserted key whose first probe hits a live counter but a
        // later one does not: the failed removal must undo its first steps.
        let family = filter.projection().family;
        let key = (1_000_000u64..)
            .find(|&key| {
                let live: Vec<bool> = family
                    .probes(key, 1 << 12)
                    .map(|i| filter.counts[i] > 0)
                    .collect();
                live[0] && live.contains(&false)
            })
            .unwrap();
        let before = filter.clone();
        assert_eq!(filter.remove(key), Err(CoreError::AbsentRemoval));
        assert_eq!(filter, before);
    }

    #[test]
    fn counting_overflow_leaves_the_filter_untouched() {
        let mut filter = counting();
        filter.insert(1).unwrap();
        // Saturate the key's last probe so the earlier steps must be undone.
        let last = filter
            .projection()
            .family
            .probes(2, 1 << 12)
            .last()
            .unwrap();
        filter.counts[last] = u32::MAX;
        filter.projection.bits.set(last);
        let before = filter.clone();
        assert_eq!(filter.insert(2), Err(CoreError::WeightOverflow));
        assert_eq!(filter, before);
    }

    #[test]
    fn counting_projection_is_exactly_the_nonzero_counters() {
        let mut filter = counting();
        let mut reference = small();
        for i in 0..40u64 {
            filter.insert(i * 131).unwrap();
        }
        for i in 0..40u64 {
            if i % 4 == 0 {
                filter.remove(i * 131).unwrap();
            } else {
                reference.insert(i * 131);
            }
        }
        let projection = filter.projection();
        for (idx, &count) in filter.counts.iter().enumerate() {
            assert_eq!(projection.bits().get(idx), count > 0, "bit {idx}");
        }
        assert_eq!(
            *projection, reference,
            "projection diverged from a fresh build"
        );
        assert_eq!(projection.inserted(), 30);
    }
}

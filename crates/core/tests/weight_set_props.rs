//! Property tests for [`WeightSet`] edge cases: empty sets, duplicate
//! weights (equal after reduction), and the weight-sum>1 behaviour that
//! Algorithm 3's deletion path relies on.

use dipm_core::{sum_weights, Weight, WeightSet};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_weight() -> impl Strategy<Value = Weight> {
    (1u64..=100_000, 1u64..=100_000)
        .prop_map(|(a, b)| Weight::new(a.min(b), a.max(b)).expect("non-zero denominator"))
}

/// Weights over a small domain, so random sets overlap (and unreduced
/// duplicates such as 2/4 and 1/2 collide).
fn arb_small_weight() -> impl Strategy<Value = Weight> {
    (1u64..=8, 1u64..=8)
        .prop_map(|(a, b)| Weight::new(a.min(b), a.max(b)).expect("non-zero denominator"))
}

proptest! {
    // ---------- empty sets ----------

    #[test]
    fn empty_set_is_intersection_absorbing(ws in vec(arb_weight(), 0..24)) {
        let set: WeightSet = ws.into_iter().collect();
        let empty = WeightSet::new();
        prop_assert!(set.intersection(&empty).is_empty());
        prop_assert!(empty.intersection(&set).is_empty());
        prop_assert_eq!(empty.max(), None);
        prop_assert_eq!(empty.min(), None);
    }

    #[test]
    fn empty_set_is_union_identity(ws in vec(arb_weight(), 0..24)) {
        let set: WeightSet = ws.iter().copied().collect();
        let mut merged = set.clone();
        merged.union_with(&WeightSet::new());
        prop_assert_eq!(&merged, &set);
        let mut from_empty = WeightSet::new();
        from_empty.union_with(&set);
        prop_assert_eq!(&from_empty, &set);
    }

    // ---------- duplicate weights ----------

    #[test]
    fn unreduced_duplicates_collapse(num in 1u64..1000, den in 1u64..1000, k in 2u64..8) {
        // k·num / k·den reduces to num/den: the set must treat them as one
        // weight, or stations would report the same combination twice.
        let mut set = WeightSet::new();
        let reduced = Weight::new(num, den).unwrap();
        let scaled = Weight::new(num * k, den * k).unwrap();
        prop_assert!(set.insert(reduced));
        prop_assert!(!set.insert(scaled), "scaled duplicate must not enter");
        prop_assert_eq!(set.len(), 1);
        prop_assert!(set.contains(scaled));
    }

    #[test]
    fn insert_reports_novelty_consistently(ws in vec(arb_weight(), 1..32)) {
        let mut set = WeightSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for w in ws {
            prop_assert_eq!(set.insert(w), reference.insert(w));
        }
        prop_assert_eq!(set.len(), reference.len());
        let sorted: Vec<Weight> = set.iter().collect();
        let expect: Vec<Weight> = reference.into_iter().collect();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn intersection_of_duplicated_inputs_is_idempotent(ws in vec(arb_weight(), 0..24)) {
        let doubled: WeightSet = ws.iter().chain(ws.iter()).copied().collect();
        let once: WeightSet = ws.iter().copied().collect();
        prop_assert_eq!(&doubled, &once);
        prop_assert_eq!(&doubled.intersection(&once), &once);
    }

    // ---------- linear set operations against BTreeSet ----------

    #[test]
    fn set_operations_match_btreeset(
        a in vec(arb_small_weight(), 0..24),
        b in vec(arb_small_weight(), 0..24),
        extra in vec(arb_small_weight(), 0..12),
    ) {
        use std::collections::BTreeSet;
        let set_a: WeightSet = a.iter().copied().collect();
        let set_b: WeightSet = b.iter().copied().collect();
        let ref_a: BTreeSet<Weight> = a.iter().copied().collect();
        let ref_b: BTreeSet<Weight> = b.iter().copied().collect();
        let listed = |set: &WeightSet| set.iter().collect::<Vec<Weight>>();
        let sorted = |set: BTreeSet<Weight>| set.into_iter().collect::<Vec<Weight>>();

        prop_assert_eq!(listed(&set_a), sorted(ref_a.clone()));

        let mut union = set_a.clone();
        union.union_with(&set_b);
        prop_assert_eq!(listed(&union), sorted(&ref_a | &ref_b));

        prop_assert_eq!(listed(&set_a.difference(&set_b)), sorted(&ref_a - &ref_b));

        prop_assert_eq!(listed(&set_a.intersection(&set_b)), sorted(&ref_a & &ref_b));
        let mut intersected = set_a.clone();
        intersected.intersect_with(&set_b);
        prop_assert_eq!(listed(&intersected), sorted(&ref_a & &ref_b));

        let mut extended = set_a.clone();
        extended.extend(extra.iter().copied());
        let mut ref_extended = ref_a.clone();
        ref_extended.extend(extra.iter().copied());
        prop_assert_eq!(listed(&extended), sorted(ref_extended));
    }

    // ---------- the weight-sum>1 deletion path ----------

    #[test]
    fn strict_superset_of_decomposition_sums_above_one(
        parts in vec(1u64..10_000, 1..12),
        extra in arb_weight(),
    ) {
        // Algorithm 3 deletes users whose reported weights sum above 1.
        // The property it rests on: an exact decomposition sums to exactly
        // 1, so any strict superset of reports must exceed it.
        let total: u64 = parts.iter().sum();
        let decomposition: Vec<Weight> = parts
            .iter()
            .map(|&p| Weight::ratio(p, total).unwrap())
            .collect();
        let exact = sum_weights(decomposition.iter().copied()).unwrap();
        prop_assert!(exact.is_one());
        // Overflowed sums (None) are treated as above 1 by the aggregator.
        if let Some(inflated) = exact.checked_add(extra) {
            prop_assert_eq!(
                inflated.cmp_one(),
                std::cmp::Ordering::Greater,
                "1 + {} must compare above one",
                extra
            );
        }
    }

    #[test]
    fn set_max_bounded_by_one_iff_all_members_are(ws in vec(arb_weight(), 1..24)) {
        // Stations report WeightSet::max / min; the deletion decision at
        // the center only sees sums, so the set must preserve order: max
        // is ≥ every member and min ≤ every member.
        let set: WeightSet = ws.iter().copied().collect();
        let max = set.max().unwrap();
        let min = set.min().unwrap();
        for w in set.iter() {
            prop_assert!(min <= w && w <= max);
        }
        prop_assert!(set.contains(max) && set.contains(min));
    }
}

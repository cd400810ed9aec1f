//! Warm derived state after deltas equals a cold rebuild.
//!
//! A base station keeps its filter across epochs and applies the center's
//! per-position diffs in place. Its derived state — the fold table's masks
//! and mask universe, and the cached weight universe — is kept in step
//! with each diff instead of being rebuilt. These properties drive a
//! [`CountingWbf`] through random insert / remove / drain churn, apply
//! every drained delta to a station filter whose fold table was warmed
//! first, and after every drain compare the station with a filter decoded
//! fresh from the center's snapshot: equality, `weight_universe()`,
//! `fold_weights_precomputed` and `query_sequence` must all agree. The
//! weight universe is driven across the 64-weight mask width and back, and
//! rejected diffs must leave the filter and its derived state untouched.

use dipm_core::{
    encode, CountingWbf, FilterParams, HashFamily, PrecomputedProbes, QueryScratch, Weight,
    WeightDiff, WeightSet, WeightedBloomFilter,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const BITS: usize = 1024;
const HASHES: u16 = 3;
const SEED: u64 = 17;
/// Keys per pattern; pattern `p` owns keys `p * KEYS_PER .. (p + 1) * KEYS_PER`.
const KEYS_PER: u64 = 4;

fn params() -> FilterParams {
    FilterParams::new(BITS, HASHES).unwrap()
}

/// The `i`-th distinct weight.
fn weight(i: u64) -> Weight {
    Weight::new(i + 1, 1000).unwrap()
}

fn pattern_keys(pattern: u64) -> impl Iterator<Item = u64> + Clone {
    pattern * KEYS_PER..(pattern + 1) * KEYS_PER
}

/// The filter's wire frame with the insert count zeroed: deltas do not
/// carry that statistic (it refreshes on full broadcasts only and never
/// affects matching), so a station and a cold decode agree on everything
/// else — geometry, bits and every position's weight set.
fn state_bytes(filter: &WeightedBloomFilter) -> Vec<u8> {
    // Header: magic u32, version u8, kind u8, hashes u16, seed u64,
    // bits u64, then the insert count u64 at bytes 24..32.
    let mut frame = encode::encode_wbf(filter).unwrap().to_vec();
    frame[24..32].fill(0);
    frame
}

/// A center, the station replica it feeds, and the patterns it may retire.
struct Replica {
    center: CountingWbf,
    station: WeightedBloomFilter,
    /// Live `(pattern, weight index)` registrations.
    live: Vec<(u64, u64)>,
    patterns: u64,
    family: HashFamily,
    pre: PrecomputedProbes,
    warm: QueryScratch,
    cold: QueryScratch,
}

impl Replica {
    fn new(patterns: u64) -> Replica {
        let center = CountingWbf::new(params(), SEED);
        let station = center.snapshot();
        Replica {
            center,
            station,
            live: Vec::new(),
            patterns,
            family: HashFamily::new(HASHES, SEED),
            pre: PrecomputedProbes::new(),
            warm: QueryScratch::new(),
            cold: QueryScratch::new(),
        }
    }

    fn insert(&mut self, pattern: u64, weight_index: u64) {
        for key in pattern_keys(pattern) {
            self.center.insert(key, weight(weight_index)).unwrap();
        }
        self.live.push((pattern, weight_index));
    }

    fn remove(&mut self, pick: usize) {
        if self.live.is_empty() {
            return;
        }
        let (pattern, weight_index) = self.live.swap_remove(pick % self.live.len());
        for key in pattern_keys(pattern) {
            self.center.remove(key, weight(weight_index)).unwrap();
        }
    }

    /// Retires every live registration of weight `weight_index`.
    fn remove_weight(&mut self, weight_index: u64) {
        while let Some(at) = self.live.iter().position(|&(_, w)| w == weight_index) {
            self.remove(at);
        }
    }

    /// Builds the station's fold table (an empty probe set still builds it).
    fn warm_up(&mut self) {
        let empty = PrecomputedProbes::new();
        assert!(self
            .station
            .fold_weights_precomputed(&empty, &mut self.warm)
            .is_none());
    }

    /// Drains the center's delta into the warmed-up station, then checks
    /// the station against a cold decode.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        self.warm_up();
        for (bit, diff) in self.center.drain_dirty() {
            if let Err(e) = self.station.apply_diff(bit, &diff) {
                return Err(TestCaseError::fail(format!("delta at {bit} rejected: {e}")));
            }
        }
        self.check()
    }

    /// The station equals a filter decoded fresh from the center's
    /// snapshot, and every derived answer matches that cold filter's.
    fn check(&mut self) -> Result<(), TestCaseError> {
        let frame = encode::encode_wbf(&self.center.snapshot()).unwrap();
        let cold = encode::decode_wbf(frame).unwrap();
        prop_assert_eq!(state_bytes(&self.station), state_bytes(&cold));
        prop_assert_eq!(self.station.weight_universe(), cold.weight_universe());
        prop_assert_eq!(self.station.max_weight(), cold.max_weight());
        // Genuine patterns, stitched neighbours and single keys.
        let mut probes: Vec<Vec<u64>> = (0..self.patterns)
            .map(|p| pattern_keys(p).collect())
            .collect();
        probes.extend((0..self.patterns).map(|p| vec![p * KEYS_PER, (p + 1) * KEYS_PER + 1]));
        probes.extend((0..self.patterns * KEYS_PER).map(|key| vec![key]));
        for keys in &probes {
            self.pre.compute(&self.family, BITS, keys);
            let warm = self
                .station
                .query_precomputed(&self.pre, &mut self.warm)
                .cloned();
            let fresh = cold.query_precomputed(&self.pre, &mut self.cold).cloned();
            prop_assert_eq!(&warm, &fresh, "precomputed query of {:?}", keys);
            if warm.is_some() {
                // Membership holds, so the fold alone may run.
                let warm = self
                    .station
                    .fold_weights_precomputed(&self.pre, &mut self.warm)
                    .cloned();
                let fresh = cold
                    .fold_weights_precomputed(&self.pre, &mut self.cold)
                    .cloned();
                prop_assert_eq!(&warm, &fresh, "fold of {:?}", keys);
            }
            prop_assert_eq!(
                self.station.query_sequence(keys.iter().copied()),
                cold.query_sequence(keys.iter().copied()),
                "sequence query of {:?}",
                keys
            );
        }
        Ok(())
    }
}

/// One churn step: `(kind, pattern, weight index, removal pick)`; kinds
/// 0–4 insert, 5–7 remove, 8–9 drain.
fn run_churn(replica: &mut Replica, steps: &[(u8, u64, u64, usize)]) -> Result<(), TestCaseError> {
    for &(kind, pattern, weight_index, pick) in steps {
        match kind {
            0..=4 => replica.insert(pattern, weight_index),
            5..=7 => replica.remove(pick),
            _ => replica.drain()?,
        }
    }
    replica.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Weights from a 24-weight domain: the table always fits, so it must
    // stay warm and exact through arbitrary churn.
    #[test]
    fn warm_station_tracks_churn_within_the_mask_width(
        steps in vec((0u8..10, 0u64..24, 0u64..24, 0usize..64), 1..80),
    ) {
        let mut replica = Replica::new(24);
        run_churn(&mut replica, &steps)?;
    }

    // Weights from a 96-weight domain: the universe wanders across 64 and
    // back, through splicing, compaction and the lazy rebuild.
    #[test]
    fn warm_station_tracks_churn_across_the_mask_width(
        steps in vec((0u8..10, 0u64..32, 0u64..96, 0usize..64), 1..160),
    ) {
        let mut replica = Replica::new(32);
        run_churn(&mut replica, &steps)?;
    }

    // The universe crosses 64 and comes back: 40 weights, then 80 (too
    // wide — the table is dropped), then 40 again (rebuilt) and 64 (new
    // weights spliced in until the table is full); then 20 retire and 20
    // new ones arrive (the full table compacts out the dead weights to make
    // room), and one more tips it over 64 again.
    #[test]
    fn universe_crosses_the_mask_width_and_comes_back(
        layout in vec(0u64..40, 80),
    ) {
        let mut replica = Replica::new(40);
        for w in 0..40 {
            replica.insert(layout[w as usize], w);
        }
        replica.drain()?;
        for w in 40..80 {
            replica.insert(layout[w as usize], w);
        }
        replica.drain()?;
        prop_assert_eq!(replica.station.weight_universe().len(), 80);
        for w in 40..80 {
            replica.remove_weight(w);
        }
        replica.drain()?;
        prop_assert_eq!(replica.station.weight_universe().len(), 40);
        for w in 60..84 {
            replica.insert(layout[(w - 4) as usize], w);
        }
        replica.drain()?;
        for w in 0..20 {
            replica.remove_weight(w);
        }
        replica.drain()?;
        prop_assert_eq!(replica.station.weight_universe().len(), 44);
        for w in 84..104 {
            replica.insert(layout[(w - 84) as usize], w);
        }
        replica.drain()?;
        prop_assert_eq!(replica.station.weight_universe().len(), 64);
        replica.insert(layout[20], 104);
        replica.drain()?;
        prop_assert_eq!(replica.station.weight_universe().len(), 65);
    }

    // A rejected diff changes nothing: not the filter, not its fold table,
    // not its universe — and the next valid delta still applies exactly.
    #[test]
    fn rejected_diffs_leave_warm_state_untouched(
        steps in vec((0u8..10, 0u64..16, 0u64..20, 0usize..64), 1..40),
        victim in 0usize..1024,
    ) {
        let mut replica = Replica::new(16);
        run_churn(&mut replica, &steps)?;
        replica.insert(0, 0);
        replica.drain()?;
        let counts = replica.center.counts_snapshot();
        let (bit, entries) = &counts[victim % counts.len()];
        let carried: WeightSet = entries.iter().map(|&(w, _)| w).collect();
        let absent = (0..).map(weight).find(|&w| !carried.contains(w)).unwrap();
        let present = carried.max().unwrap();
        let fresh_weight = weight(999);
        let before = replica.station.clone();
        let bad = [
            // Removes a weight the position does not carry, while adding
            // a weight new to the whole filter.
            (*bit, WeightDiff {
                removed: WeightSet::singleton(absent),
                added: WeightSet::singleton(fresh_weight),
            }),
            // Adds a weight the position already carries.
            (*bit, WeightDiff {
                removed: WeightSet::new(),
                added: WeightSet::singleton(present),
            }),
            // Removes a carried weight but re-adds another carried one.
            (*bit, WeightDiff {
                removed: WeightSet::singleton(present),
                added: carried.clone(),
            }),
            (*bit, WeightDiff::default()),
            (BITS as u32, WeightDiff {
                removed: WeightSet::new(),
                added: WeightSet::singleton(fresh_weight),
            }),
        ];
        for (bit, diff) in &bad {
            replica.warm_up();
            prop_assert!(replica.station.apply_diff(*bit, diff).is_err(), "accepted {:?}", diff);
            prop_assert_eq!(&replica.station, &before);
            replica.check()?;
            prop_assert!(!replica.station.weight_universe().contains(fresh_weight));
        }
        replica.remove(0);
        replica.insert(1, 23);
        replica.drain()?;
    }
}

//! Bloofi-style query routing: a tree of OR-merged station summary filters.
//!
//! Broadcasting every query to every station is the paper's cost model and
//! a hard cap on station count. Bloofi (Crainiceanu & Lemire) shows the way
//! out: each station summarizes its local key population in a plain Bloom
//! filter, and the data center arranges those summaries as the leaves of a
//! configurable-fanout tree whose interior nodes are the **unions** of
//! their children. A query's probe set then descends only into subtrees
//! whose union summary can match ([`BloomFilter::may_contain_any`]), and
//! only the surviving leaf stations receive the broadcast.
//!
//! Routing is **sound** for the DI-matching scan: a station row survives
//! Algorithm 2 only if *every* sampled key of the row is set in the query
//! filter, so a station holding a matching row shares a key with the
//! query's probe set and is never pruned. Summary false positives only ever
//! *add* stations (wasted broadcasts, never wrong answers), which is why
//! the routed pipeline is conformance-pinned bit-identical to
//! [`RoutingPolicy::BroadcastAll`](crate::config::RoutingPolicy).
//!
//! Summaries hold each row's **informative** keys: accumulated patterns
//! start at zero, so the zero-value keys of a row's idle prefix appear in
//! every population and every tolerance band that brushes zero — probing on
//! them keeps every station alive and the tree never prunes. A row
//! therefore contributes only its nonzero-value keys, *unless the row is
//! entirely idle*, in which case its zero keys are kept so a query that
//! genuinely admits idle rows still reaches the stations holding them.
//! Soundness is preserved: a reporting row with any nonzero sample matched
//! the query filter at that sample, so its station's summary intersects the
//! probe set. (The residual exception — a row whose every nonzero sample
//! hits the query filter only through a filter false positive — needs one
//! independent bit-collision per distinct nonzero value and is the same
//! probability class as the WBF's own false reports.)
//!
//! Leaves are [`CountingBloom`]s — one `u32` reference count per summary
//! bit, with the leaf's plain [`BloomFilter`] projection kept current — so
//! row insertion and removal are exact inverses. A streaming session keeps
//! the tree hot under CDR churn: each station's row diff updates its leaf
//! and then recomputes only that leaf's root path, once. After any
//! interleaving the tree equals a from-scratch build, which fills every
//! leaf and then unions the interior levels in one pass.

use std::collections::{BTreeMap, BTreeSet};

use dipm_core::{BloomFilter, CountingBloom, FilterParams};
use dipm_distsim::CostMeter;
use dipm_mobilenet::{Dataset, UserId};

use crate::basestation::sample_keys_into;
use crate::config::DiMatchingConfig;
use crate::error::{ProtocolError, Result};
use crate::wire;

/// Decorrelates the summary filters' hash family from the query filter's:
/// the two are probed with the same keys, and independent families keep a
/// query-filter false positive from implying a summary false positive.
const SUMMARY_SEED_TWEAK: u64 = 0x00B1_00F1;

/// Per-key false-positive rate the summary filters are sized for. Routing
/// probes a summary with the query's *whole* banded key set (any-match), so
/// the per-key rate must be far below `1 / probe_count` for the any-test to
/// discriminate at all; the query filter's own `target_fpp` (per-key, tested
/// twelve times per row, ~1%) would saturate every summary. ~29 bits per
/// key buys six nines, and summaries ship once per tree build, not per
/// query.
const SUMMARY_FPP: f64 = 1e-6;

/// The data center's routing state: per-station summary leaves and the
/// union tree above them.
///
/// Station identity is positional (leaf `i` is station index `i`), matching
/// the pipeline's station numbering. A tree over fewer than two stations is
/// *degenerate*: there is nothing to prune, and [`RoutingTree::route`]
/// falls back to broadcasting to every station.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTree {
    fanout: usize,
    params: FilterParams,
    seed: u64,
    /// Reference-counted per-station key populations; each leaf's
    /// projection is the summary that unions, ships and probes.
    leaves: Vec<CountingBloom>,
    /// Interior levels bottom-up: `levels[0]` unions chunks of the leaf
    /// projections, each next level unions chunks of the previous, the last
    /// level is the single root. Empty when degenerate.
    levels: Vec<Vec<BloomFilter>>,
}

impl RoutingTree {
    /// An empty tree over `station_count` stations with uniform summary
    /// geometry `params` and hash seed derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidConfig`] if `fanout < 2`.
    pub fn new(
        station_count: usize,
        fanout: usize,
        params: FilterParams,
        seed: u64,
    ) -> Result<RoutingTree> {
        Self::from_rows(&vec![BTreeMap::new(); station_count], fanout, params, seed)
    }

    /// Builds the tree over a dataset's current station populations: one
    /// leaf per station holding every local row's routing signature,
    /// geometry sized for the most populous station at the summary
    /// false-positive rate.
    ///
    /// # Errors
    ///
    /// Propagates configuration, pattern and filter errors.
    pub fn from_dataset(
        dataset: &Dataset,
        fanout: usize,
        config: &DiMatchingConfig,
    ) -> Result<RoutingTree> {
        let rows = station_row_keys(dataset, config)?;
        Self::from_rows(&rows, fanout, summary_params(&rows)?, config.seed)
    }

    /// The bulk builder: one leaf per station of `rows` (as
    /// [`station_row_keys`] produces them) filled with every row's keys,
    /// then the interior levels unioned once.
    pub(crate) fn from_rows(
        rows: &[BTreeMap<UserId, Vec<u64>>],
        fanout: usize,
        params: FilterParams,
        seed: u64,
    ) -> Result<RoutingTree> {
        if fanout < 2 {
            return Err(ProtocolError::invalid_config(
                "routing tree fanout must be at least 2",
            ));
        }
        let seed = seed ^ SUMMARY_SEED_TWEAK;
        let mut leaves = vec![CountingBloom::new(params, seed); rows.len()];
        for (leaf, station_rows) in leaves.iter_mut().zip(rows) {
            for &key in station_rows.values().flatten() {
                leaf.insert(key).map_err(ProtocolError::Core)?;
            }
        }
        let mut tree = RoutingTree {
            fanout,
            params,
            seed,
            leaves,
            levels: Vec::new(),
        };
        tree.rebuild_levels()?;
        Ok(tree)
    }

    /// The number of leaf stations.
    pub fn station_count(&self) -> usize {
        self.leaves.len()
    }

    /// Children per interior node.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The uniform summary-filter geometry.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// Whether the tree cannot prune anything (fewer than two stations) and
    /// [`RoutingTree::route`] falls back to broadcast.
    pub fn is_degenerate(&self) -> bool {
        self.station_count() < 2
    }

    /// One station's current summary filter (what it would upload).
    pub fn summary(&self, station: usize) -> &BloomFilter {
        self.leaves[station].projection()
    }

    /// Registers one row's sampled keys at `station`, refreshing the leaf
    /// summary and its root path.
    ///
    /// # Errors
    ///
    /// Propagates filter errors (counter overflow) and rejects an
    /// out-of-range station.
    pub fn insert_row(&mut self, station: usize, keys: &[u64]) -> Result<()> {
        self.update_station(station, [], [keys])
    }

    /// Removes one previously inserted row's keys from `station` —
    /// the exact inverse of [`RoutingTree::insert_row`], reference-counted
    /// so rows sharing keys survive each other's removal.
    ///
    /// # Errors
    ///
    /// Propagates filter errors (removing keys never inserted) and rejects
    /// an out-of-range station.
    pub fn remove_row(&mut self, station: usize, keys: &[u64]) -> Result<()> {
        self.update_station(station, [keys], [])
    }

    /// Applies one station's row diff — every `removed` row out, then every
    /// `inserted` row in — and recomputes the station's root path once,
    /// however many rows changed. The streaming session's per-epoch update.
    ///
    /// # Errors
    ///
    /// Propagates filter errors (removing keys never inserted, counter
    /// overflow) and rejects an out-of-range station. The root path is
    /// refreshed even then, so the tree stays consistent with its leaves.
    pub fn update_station<'a>(
        &mut self,
        station: usize,
        removed: impl IntoIterator<Item = &'a [u64]>,
        inserted: impl IntoIterator<Item = &'a [u64]>,
    ) -> Result<()> {
        if station >= self.station_count() {
            return Err(ProtocolError::invalid_config(format!(
                "routing tree has {} stations, no station {station}",
                self.station_count()
            )));
        }
        let leaf = &mut self.leaves[station];
        let applied = removed
            .into_iter()
            .flatten()
            .try_for_each(|&key| leaf.remove(key))
            .and_then(|()| {
                inserted
                    .into_iter()
                    .flatten()
                    .try_for_each(|&key| leaf.insert(key))
            });
        self.refresh_path(station)?;
        applied.map_err(ProtocolError::Core)
    }

    /// Recomputes the union nodes on one leaf's path to the root — the only
    /// nodes an update can change.
    fn refresh_path(&mut self, station: usize) -> Result<()> {
        let mut child = station;
        for level in 0..self.levels.len() {
            let parent = child / self.fanout;
            let node = self.union_of_children(level, parent)?;
            self.levels[level][parent] = node;
            child = parent;
        }
        Ok(())
    }

    /// Node `index` of tree layer `layer`: layer 0 is the leaf summaries,
    /// layer `l > 0` is `levels[l - 1]`.
    fn node(&self, layer: usize, index: usize) -> &BloomFilter {
        match layer {
            0 => self.summary(index),
            _ => &self.levels[layer - 1][index],
        }
    }

    /// The number of nodes in tree layer `layer` (see [`RoutingTree::node`]).
    fn layer_len(&self, layer: usize) -> usize {
        match layer {
            0 => self.leaves.len(),
            _ => self.levels[layer - 1].len(),
        }
    }

    /// The index range of node `parent`'s children in layer `layer`.
    fn children(&self, layer: usize, parent: usize) -> std::ops::Range<usize> {
        let lo = parent * self.fanout;
        lo..((parent + 1) * self.fanout).min(self.layer_len(layer))
    }

    /// The union of node `parent`'s children, which live in layer `layer`.
    fn union_of_children(&self, layer: usize, parent: usize) -> Result<BloomFilter> {
        let mut node = BloomFilter::new(self.params, self.seed);
        for child in self.children(layer, parent) {
            self.node(layer, child)
                .union_into(&mut node)
                .map_err(ProtocolError::Core)?;
        }
        Ok(node)
    }

    /// Rebuilds every interior level bottom-up from the current summaries.
    fn rebuild_levels(&mut self) -> Result<()> {
        self.levels.clear();
        let mut width = self.leaves.len();
        while width > 1 {
            let layer = self.levels.len();
            let parents = width.div_ceil(self.fanout);
            let nodes = (0..parents)
                .map(|parent| self.union_of_children(layer, parent))
                .collect::<Result<Vec<_>>>()?;
            self.levels.push(nodes);
            width = parents;
        }
        Ok(())
    }

    /// The station indices whose subtree summaries can match any of `keys`,
    /// ascending — the broadcast's recipient set. A degenerate tree falls
    /// back to every station; otherwise the probe descends from the root
    /// and an empty or unmatched key set prunes everything (an empty query
    /// filter reports nothing anyway).
    pub fn route(&self, keys: &[u64]) -> Vec<u32> {
        if self.is_degenerate() {
            return (0..self.station_count() as u32).collect();
        }
        // Start from a virtual parent above the root, whose one child in
        // the top layer is the root itself.
        let mut survivors = vec![0];
        for layer in (0..=self.levels.len()).rev() {
            survivors = survivors
                .into_iter()
                .flat_map(|parent| self.children(layer, parent))
                .filter(|&child| {
                    self.node(layer, child)
                        .may_contain_any(keys.iter().copied())
                })
                .collect();
        }
        survivors
            .into_iter()
            .map(|station| station as u32)
            .collect()
    }

    /// [`RoutingTree::route`], grouped into per-subtree claim frames: one
    /// `(lo, hi, targets)` triple per surviving bottom-level node, covering
    /// the leaf range `[lo, hi)`. Disjoint by construction — the wire
    /// plan's overlap rejection guards against a *corrupted* plan, and a
    /// degenerate tree emits one whole-range claim.
    pub fn route_frames(&self, keys: &[u64]) -> Vec<(u32, u32, Vec<u32>)> {
        let n = self.station_count() as u32;
        let targets = self.route(keys);
        if self.is_degenerate() {
            return vec![(0, n, targets)];
        }
        let mut frames: Vec<(u32, u32, Vec<u32>)> = Vec::new();
        for target in targets {
            let group = target / self.fanout as u32;
            let lo = group * self.fanout as u32;
            let hi = (lo + self.fanout as u32).min(n);
            match frames.last_mut() {
                Some((last_lo, _, list)) if *last_lo == lo => list.push(target),
                _ => frames.push((lo, hi, vec![target])),
            }
        }
        frames
    }
}

/// The sampled-zero keys under `config`'s hash scheme — the keys an idle
/// sample produces ([`HashScheme::ValueOnly`](crate::config::HashScheme)
/// collapses them all to the single key `0`).
fn zero_value_keys(config: &DiMatchingConfig) -> BTreeSet<u64> {
    (0..config.samples)
        .map(|i| config.hash_scheme.key(i, 0))
        .collect()
}

/// One row's routing signature: its nonzero-value keys, or — for a row with
/// no traffic at any sample — its zero keys, kept so idle rows stay visible
/// to queries that genuinely admit them (see the module docs).
fn routing_signature(keys: &[u64], zero_keys: &BTreeSet<u64>) -> Vec<u64> {
    let nonzero: Vec<u64> = keys
        .iter()
        .copied()
        .filter(|k| !zero_keys.contains(k))
        .collect();
    if nonzero.is_empty() {
        keys.to_vec()
    } else {
        nonzero
    }
}

/// Every station's current routing signatures, positionally indexed:
/// `rows[station][user]` is the user's [`routing_signature`] — derived from
/// exactly the keys Algorithm 2 would probe for that row. Streaming
/// sessions diff successive epochs' maps to keep the tree hot.
pub(crate) fn station_row_keys(
    dataset: &Dataset,
    config: &DiMatchingConfig,
) -> Result<Vec<BTreeMap<UserId, Vec<u64>>>> {
    let zero_keys = zero_value_keys(config);
    let empty = BTreeMap::new();
    let mut keys = Vec::new();
    dataset
        .stations()
        .iter()
        .map(|&station| {
            let locals = dataset.station_locals(station).unwrap_or(&empty);
            locals
                .iter()
                .map(|(&user, pattern)| {
                    sample_keys_into(pattern, config, &mut keys)?;
                    Ok((user, routing_signature(&keys, &zero_keys)))
                })
                .collect::<Result<BTreeMap<UserId, Vec<u64>>>>()
        })
        .collect()
}

/// Uniform summary geometry: sized for the most populous station's distinct
/// keys at [`SUMMARY_FPP`]. Uniformity is what makes the leaves unionable
/// all the way to the root.
pub(crate) fn summary_params(rows: &[BTreeMap<UserId, Vec<u64>>]) -> Result<FilterParams> {
    let max_distinct = rows
        .iter()
        .map(|station| {
            station
                .values()
                .flat_map(|keys| keys.iter().copied())
                .collect::<BTreeSet<u64>>()
                .len()
        })
        .max()
        .unwrap_or(0);
    FilterParams::optimal(max_distinct.max(1), SUMMARY_FPP).map_err(ProtocolError::Core)
}

/// One station's summary-upload cost in wire bytes, pushed through the
/// encoder *and* decoder so the metered bytes are exactly what a validated
/// frame weighs.
pub(crate) fn summary_upload_bytes(tree: &RoutingTree, station: usize) -> Result<u64> {
    let frame = wire::encode_routing_summary(station as u32, tree.summary(station));
    let len = frame.len() as u64;
    let (decoded_station, _) = wire::decode_routing_summary(frame)?;
    debug_assert_eq!(decoded_station as usize, station);
    Ok(len)
}

/// Routes `keys` through `tree` via the wire plan — every routed-probe
/// frame is encoded, decoded and admitted into a [`wire::RoutingPlan`] (so
/// overlap and range validation run on the real frames) — returning the
/// per-station active mask and the plan's total wire bytes.
pub(crate) fn metered_route(tree: &RoutingTree, keys: &[u64]) -> Result<(Vec<bool>, u64)> {
    let station_count = tree.station_count();
    let mut bytes = 0u64;
    let mut plan = wire::RoutingPlan::new(station_count as u32);
    for (lo, hi, targets) in tree.route_frames(keys) {
        let frame = wire::encode_routed_probes(lo, hi, &targets)?;
        bytes += frame.len() as u64;
        plan.claim(&wire::decode_routed_probes(frame)?)?;
    }
    let mut active = vec![false; station_count];
    for station in plan.into_targets() {
        active[station as usize] = true;
    }
    Ok((active, bytes))
}

/// The center's routing decision for one batch: builds the tree over the
/// dataset, moves the summary-upload and routed-plan frames across the
/// meter's routing ledger, and returns the per-station active mask.
pub(crate) fn route_batch(
    dataset: &Dataset,
    keys: &[u64],
    fanout: usize,
    config: &DiMatchingConfig,
    meter: &CostMeter,
) -> Result<Vec<bool>> {
    let tree = RoutingTree::from_dataset(dataset, fanout, config)?;
    let mut routing_bytes = 0u64;
    // Each station uploads its summary once per tree (re)build.
    for station in 0..tree.station_count() {
        routing_bytes += summary_upload_bytes(&tree, station)?;
    }
    let (active, plan_bytes) = metered_route(&tree, keys)?;
    routing_bytes += plan_bytes;
    meter.record_routing_bytes(routing_bytes);
    meter.record_stations_pruned(active.iter().filter(|&&a| !a).count() as u64);
    Ok(active)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FilterParams {
        FilterParams::new(1 << 12, 4).unwrap()
    }

    #[test]
    fn fanout_below_two_rejected() {
        for fanout in [0, 1] {
            assert!(RoutingTree::new(8, fanout, params(), 7).is_err());
        }
    }

    #[test]
    fn routes_only_subtrees_holding_the_keys() {
        let mut tree = RoutingTree::new(9, 2, params(), 7).unwrap();
        tree.insert_row(2, &[10, 20, 30]).unwrap();
        tree.insert_row(7, &[40, 50]).unwrap();
        // A key only station 2 holds routes to exactly station 2.
        assert_eq!(tree.route(&[10]), vec![2]);
        // Keys from both stations route to both, ascending.
        assert_eq!(tree.route(&[30, 40]), vec![2, 7]);
        // A key nobody holds routes nowhere, as does an empty probe set.
        assert!(tree.route(&[999_999]).is_empty());
        assert!(tree.route(&[]).is_empty());
    }

    #[test]
    fn degenerate_trees_fall_back_to_broadcast() {
        // One station: nothing to prune, everything routes everywhere.
        let tree = RoutingTree::new(1, 4, params(), 7).unwrap();
        assert!(tree.is_degenerate());
        assert_eq!(tree.route(&[123]), vec![0]);
        assert_eq!(tree.route(&[]), vec![0]);
        assert_eq!(tree.route_frames(&[5]), vec![(0, 1, vec![0])]);
        // Zero stations: empty fallback.
        let tree = RoutingTree::new(0, 4, params(), 7).unwrap();
        assert!(tree.route(&[123]).is_empty());
        // Fanout above the station count still builds a working one-root
        // tree (not degenerate — the root can prune the whole deployment).
        let mut tree = RoutingTree::new(3, 8, params(), 7).unwrap();
        assert!(!tree.is_degenerate());
        tree.insert_row(1, &[77]).unwrap();
        assert_eq!(tree.route(&[77]), vec![1]);
        assert!(tree.route(&[78]).is_empty());
    }

    #[test]
    fn insert_remove_interleaving_equals_fresh_build() {
        let mut incremental = RoutingTree::new(6, 3, params(), 11).unwrap();
        let rows: [(usize, &[u64]); 4] = [(0, &[1, 2, 3]), (4, &[2, 9]), (4, &[50, 60]), (5, &[7])];
        for &(station, keys) in &rows {
            incremental.insert_row(station, keys).unwrap();
        }
        // Shared key 2 survives removing only one of its rows.
        incremental.remove_row(0, &[1, 2, 3]).unwrap();
        let mut fresh = RoutingTree::new(6, 3, params(), 11).unwrap();
        for &(station, keys) in &rows[1..] {
            fresh.insert_row(station, keys).unwrap();
        }
        assert_eq!(incremental, fresh);
        assert_eq!(incremental.route(&[2]), vec![4]);
        // Removing the remaining rows restores the empty tree.
        incremental.remove_row(4, &[2, 9]).unwrap();
        incremental.remove_row(4, &[50, 60]).unwrap();
        incremental.remove_row(5, &[7]).unwrap();
        assert_eq!(incremental, RoutingTree::new(6, 3, params(), 11).unwrap());
    }

    #[test]
    fn removal_of_uninserted_keys_errors() {
        let mut tree = RoutingTree::new(2, 2, params(), 3).unwrap();
        assert!(tree.remove_row(0, &[42]).is_err());
        assert!(tree.insert_row(9, &[1]).is_err(), "unknown station");
        assert!(tree.remove_row(9, &[1]).is_err(), "unknown station");
    }

    #[test]
    fn route_frames_group_by_bottom_subtree() {
        let mut tree = RoutingTree::new(10, 4, params(), 5).unwrap();
        tree.insert_row(0, &[100]).unwrap();
        tree.insert_row(3, &[100]).unwrap();
        tree.insert_row(9, &[100]).unwrap();
        let frames = tree.route_frames(&[100]);
        assert_eq!(
            frames,
            vec![(0, 4, vec![0, 3]), (8, 10, vec![9])],
            "targets grouped by their fanout-4 leaf chunk"
        );
    }

    #[test]
    fn dataset_tree_covers_every_local_row() {
        let dataset = Dataset::small(61);
        let config = DiMatchingConfig::default();
        let tree = RoutingTree::from_dataset(&dataset, 3, &config).unwrap();
        assert_eq!(tree.station_count(), dataset.stations().len());
        // Soundness witness: every row's own keys route to (at least) the
        // station holding the row.
        let rows = station_row_keys(&dataset, &config).unwrap();
        for (station, station_rows) in rows.iter().enumerate() {
            for keys in station_rows.values() {
                assert!(
                    tree.route(keys).contains(&(station as u32)),
                    "station {station} pruned for its own row"
                );
            }
        }
    }

    #[test]
    fn bulk_build_equals_row_by_row_inserts() {
        let config = DiMatchingConfig::default();
        // The conformance suites' four dataset seeds.
        for seed in [5, 17, 29, 42] {
            let dataset = Dataset::small(seed);
            let rows = station_row_keys(&dataset, &config).unwrap();
            let params = summary_params(&rows).unwrap();
            for fanout in [2, 3, 4, 8] {
                let bulk = RoutingTree::from_dataset(&dataset, fanout, &config).unwrap();
                let mut by_row = RoutingTree::new(rows.len(), fanout, params, config.seed).unwrap();
                for (station, station_rows) in rows.iter().enumerate() {
                    for keys in station_rows.values() {
                        by_row.insert_row(station, keys).unwrap();
                    }
                }
                assert_eq!(bulk, by_row, "seed {seed}, fanout {fanout}");
            }
        }
    }

    #[test]
    fn failed_station_update_still_refreshes_the_root_path() {
        let mut tree = RoutingTree::new(4, 2, params(), 9).unwrap();
        tree.insert_row(1, &[5, 6]).unwrap();
        // Key 5 leaves, then the absent key 404 fails the diff: the interior
        // nodes must still agree with the leaf as it was left.
        assert!(tree.update_station(1, [&[5u64][..], &[404]], []).is_err());
        let mut fresh = RoutingTree::new(4, 2, params(), 9).unwrap();
        fresh.insert_row(1, &[6]).unwrap();
        assert_eq!(tree, fresh);
    }
}

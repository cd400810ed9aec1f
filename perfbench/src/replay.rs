//! The traced replay of one `run_pipeline::<Wbf>` batch.
//!
//! The benchmark touches no production code, so it measures layers from
//! outside: it calls the public `FilterStrategy` methods, wire codecs and
//! routing tree in the order `run_pipeline` calls them, one station at a
//! time over `BaseStation::from_locals` shards, and times each call. The
//! glue between calls (the simulated network's mailboxes and meters, the
//! report collector's admission checks) is not replayed; the traced run
//! reports how much of a `Sequential` pipeline run the stages cover.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use dipm_distsim::CostMeter;
use dipm_mobilenet::{Dataset, UserId};
use dipm_protocol::{
    wire, BaseStation, DiMatchingConfig, FilterStrategy, PatternQuery, RoutingPolicy, RoutingTree,
    Shards, Wbf,
};

use crate::measure::timed;
use crate::Error;

/// Wall time per stage of one replayed batch, plus the work it did.
#[derive(Debug, Default)]
pub struct Stages {
    pub build: Duration,
    pub route_build: Duration,
    pub route: Duration,
    pub route_wire: Duration,
    pub encode: Duration,
    pub view: Duration,
    pub layout: Duration,
    pub scan: Duration,
    pub report: Duration,
    pub aggregate: Duration,
    /// Rows scanned × sections probed.
    pub probes: u64,
    /// Report rows the stations produced.
    pub reports: u64,
    /// The replay's wall time, glue included.
    pub wall: Duration,
}

impl Stages {
    /// The sum of the timed stages.
    pub fn covered(&self) -> Duration {
        self.build
            + self.route_build
            + self.route
            + self.route_wire
            + self.encode
            + self.view
            + self.layout
            + self.scan
            + self.report
            + self.aggregate
    }
}

/// Replays one per-query-section batch and returns its rankings, in query
/// order, with the stage times.
pub fn replay(
    dataset: &Dataset,
    queries: &[PatternQuery],
    config: &DiMatchingConfig,
    shards: Shards,
    top_k: Option<usize>,
) -> Result<(Vec<Vec<UserId>>, Stages), Error> {
    let started = Instant::now();
    let mut st = Stages::default();
    let stations = dataset.stations();

    // Algorithm 1: one section per query.
    let sections = timed(&mut st.build, || {
        queries
            .chunks(1)
            .map(|group| Wbf::build(group, config))
            .collect::<Result<Vec<_>, _>>()
    })?;

    // Routing: summary tree rebuilt per batch, summary uploads and routed
    // probe frames through the wire codecs, as the pipeline meters them.
    let targets: Vec<usize> = match config.routing {
        RoutingPolicy::Tree { fanout } => {
            let keys: Vec<u64> = sections
                .iter()
                .flat_map(|s| Wbf::routing_keys(s).iter().copied())
                .collect::<BTreeSet<u64>>()
                .into_iter()
                .collect();
            let tree = timed(&mut st.route_build, || {
                RoutingTree::from_dataset(dataset, fanout, config)
            })?;
            timed(&mut st.route_wire, || {
                (0..tree.station_count()).try_for_each(|station| {
                    let frame = wire::encode_routing_summary(station as u32, tree.summary(station));
                    wire::decode_routing_summary(frame).map(drop)
                })
            })?;
            let frames = timed(&mut st.route, || tree.route_frames(&keys));
            let plan = timed(&mut st.route_wire, || {
                let mut plan = wire::RoutingPlan::new(tree.station_count() as u32);
                for (lo, hi, targets) in frames {
                    let frame = wire::encode_routed_probes(lo, hi, &targets)?;
                    plan.claim(&wire::decode_routed_probes(frame)?)?;
                }
                Ok::<_, dipm_protocol::ProtocolError>(plan)
            })?;
            plan.into_targets()
                .into_iter()
                .map(|s| s as usize)
                .collect()
        }
        RoutingPolicy::BroadcastAll => (0..stations.len()).collect(),
    };

    let frame = timed(&mut st.encode, || {
        let payloads = sections
            .iter()
            .enumerate()
            .map(|(i, s)| Ok((i as u32, Wbf::encode_filter(s)?)))
            .collect::<Result<Vec<_>, dipm_protocol::ProtocolError>>()?;
        wire::encode_batch_broadcast(&payloads)
    })?;

    // Algorithm 2, one targeted station at a time.
    let meter = CostMeter::new();
    let empty = BTreeMap::new();
    let shard_count = shards.count() as u32;
    let mut collected = Vec::new();
    for station_index in targets {
        let station = stations[station_index];
        let decoded = timed(&mut st.view, || {
            wire::decode_batch_broadcast(frame.clone())?
                .into_iter()
                .map(|(query, bytes)| Ok((query, Wbf::decode_filter(bytes)?)))
                .collect::<Result<Vec<_>, dipm_protocol::ProtocolError>>()
        })?;
        let locals = dataset.station_locals(station).unwrap_or(&empty);
        let layout = timed(&mut st.layout, || {
            BaseStation::from_locals(station, locals, shards)
        });
        let mut merged = Vec::new();
        for shard_index in 0..layout.shard_count() {
            let shard = layout.shard(shard_index);
            st.probes += (shard.len() * decoded.len()) as u64;
            merged.extend(timed(&mut st.scan, || {
                Wbf::scan_shard(&decoded, shard, config, Some(&meter))
            })?);
        }
        merged.sort_by_key(Wbf::report_key);
        st.reports += merged.len() as u64;
        let rows = timed(&mut st.report, || {
            let payload = Wbf::encode_reports(&merged)?;
            let frame = wire::encode_batch_reports(shard_count, station_index as u32, 0, payload);
            Wbf::decode_reports(wire::decode_batch_reports(frame, shard_count)?.payload)
        })?;
        collected.extend(rows);
    }

    // Algorithm 3.
    let verdicts = timed(&mut st.aggregate, || {
        Wbf::aggregate(&sections, collected, config, &meter, top_k)
    })?;
    st.wall = started.elapsed();
    Ok((verdicts.into_iter().map(|v| v.ranked).collect(), st))
}

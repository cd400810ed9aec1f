//! The `standing` workload: a multi-tenant `Service` under
//! `ExecutionMode::Async` with one worker ([`crate::WORKERS`]), with data
//! churn every epoch and query churn every fourth.
//!
//! Three tenants hold ten standing queries each, geometry pinned at 2×
//! headroom as `repro streaming`/`service` do. Station data alternates
//! between two snapshots of one seed, 1000 and 1050 users over 16 stations.
//! The generator's per-user streams make the shared 1000 users identical,
//! so each epoch 50 subscribers join or leave (≈5 % row churn) instead of
//! the whole city changing; the generator has no row-update API, so partial
//! churn is modeled as join/leave. Every fourth epoch one tenant, round
//! robin, retires its oldest query and registers a new resident one. Every
//! epoch ends with a checkpoint, as a durable center would.
//!
//! This workload puts writes beside reads: counting-filter insert/remove,
//! delta frames, station diffs, owned-filter scans, checkpoint encoding and
//! the async executor. By design p50 is a quiet epoch (≈20 ms epoch plus
//! ≈35 ms for a 5.7 MB checkpoint, measured with two workers on a 2-core
//! host) and p90 a query-churn epoch (≈0.35–0.45 s).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dipm_core::FilterParams;
use dipm_distsim::{CostReport, ExecutionMode};
use dipm_mobilenet::{Dataset, UserId};
use dipm_protocol::{
    build_wbf, run_pipeline, DiMatchingConfig, EpochBroadcast, PatternQuery, PipelineOptions,
    SectionGrouping, Service, ServiceEpoch, StreamQueryId, TenantId, Wbf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{self, ms, Budget, Layers, Phase};
use crate::{Error, Outcome, Scale};

const TENANTS: u64 = 3;
const STANDING: usize = 10;
const CHURN_EVERY: u64 = 4;
/// Standing-set sizes in the sample the pinned geometry is sized from.
const SIZING_SAMPLE: usize = 6;
const TOP_K: usize = 10;

struct Tenant {
    id: TenantId,
    /// Every query the tenant ever registered, for the oracle pass.
    queries: BTreeMap<StreamQueryId, PatternQuery>,
    /// The live ids, oldest first (ids are handed out in order).
    live: Vec<StreamQueryId>,
}

struct Standing {
    /// `[shared users, shared users + joiners]`.
    snapshots: [Dataset; 2],
    /// Every tenant's configuration, geometry pinned.
    config: DiMatchingConfig,
    service: Service,
    tenants: Vec<Tenant>,
    rng: StdRng,
    /// The next epoch to run.
    epoch: u64,
}

/// One epoch as the oracle pass needs it.
struct Record {
    snapshot: usize,
    /// Per tenant: the live query ids and the ranking the service returned.
    answers: Vec<(Vec<StreamQueryId>, Vec<UserId>)>,
}

/// One operation's calls, timed.
struct Step {
    churn: bool,
    churn_wall: Duration,
    epoch_wall: Duration,
    checkpoint_wall: Duration,
    checkpoint_bytes: usize,
    result: ServiceEpoch,
    /// Per-tenant clock base before the epoch (async ticks carry over).
    clock_bases: Vec<u64>,
    record: Record,
}

impl Standing {
    fn new(scale: Scale, seed: u64, workers: usize) -> Result<Standing, Error> {
        let (users, joiners, stations) = match scale {
            Scale::Full => (1000, 50, 16),
            Scale::Tiny => (200, 10, 6),
        };
        let mut standing = Standing {
            snapshots: [
                Dataset::city_slice(users, stations, seed)?,
                Dataset::city_slice(users + joiners, stations, seed)?,
            ],
            service: Service::new(PipelineOptions {
                mode: ExecutionMode::Async { workers },
                top_k: Some(TOP_K),
                ..PipelineOptions::default()
            }),
            config: DiMatchingConfig::default(),
            tenants: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x57A2_D126),
            epoch: 0,
        };
        // Pin one geometry at 2× headroom over a ten-query set, sized from
        // a larger resident sample so that it does not swing with which ten
        // users a seed happens to draw (checkpoint size follows geometry).
        let sample: Vec<PatternQuery> = (0..SIZING_SAMPLE * STANDING)
            .map(|_| standing.resident_query())
            .collect::<Result<_, _>>()?;
        let sized = build_wbf(&sample, &DiMatchingConfig::default())?.stats;
        standing.config = DiMatchingConfig {
            fixed_geometry: Some(FilterParams::new(
                sized.bits * 2 / SIZING_SAMPLE,
                sized.hashes,
            )?),
            ..DiMatchingConfig::default()
        };
        for t in 0..TENANTS {
            let initial: Vec<PatternQuery> = (0..STANDING)
                .map(|_| standing.resident_query())
                .collect::<Result<_, _>>()?;
            let id = TenantId(t);
            standing
                .service
                .register(id, &initial, standing.config.clone())?;
            let live = standing.service.session(id)?.live_queries();
            standing.tenants.push(Tenant {
                id,
                queries: live.iter().copied().zip(initial).collect(),
                live,
            });
        }
        // Warm-up: every tenant's one-time full broadcast.
        standing.step()?;
        Ok(standing)
    }

    /// A query for a random user present in both snapshots.
    fn resident_query(&mut self) -> Result<PatternQuery, Error> {
        let users = self.snapshots[0].users();
        let user = users[self.rng.gen_range(0..users.len())].id;
        let fragments = self.snapshots[0]
            .fragments(user)
            .ok_or("resident user without traffic")?;
        Ok(PatternQuery::from_fragments(fragments)?)
    }

    /// Runs one operation: this epoch's query churn, the epoch itself and
    /// the checkpoint.
    fn step(&mut self) -> Result<Step, Error> {
        let churn = self.epoch > 0 && self.epoch.is_multiple_of(CHURN_EVERY);
        let incoming = if churn {
            Some(self.resident_query()?)
        } else {
            None
        };
        let churn_tenant = ((self.epoch / CHURN_EVERY) % TENANTS) as usize;
        let snapshot = (self.epoch % 2) as usize;
        self.epoch += 1;
        let clock_bases = self
            .tenants
            .iter()
            .map(|t| Ok(self.service.session(t.id)?.clock_base()))
            .collect::<Result<Vec<u64>, Error>>()?;

        let mut churn_wall = Duration::ZERO;
        if let Some(query) = incoming {
            let tenant = &mut self.tenants[churn_tenant];
            let oldest = tenant.live.remove(0);
            let service = &mut self.service;
            let added = measure::timed(&mut churn_wall, || {
                service.remove_query(tenant.id, oldest)?;
                service.insert_query(tenant.id, &query)
            })?;
            tenant.live.push(added);
            tenant.queries.insert(added, query);
        }
        let mut epoch_wall = Duration::ZERO;
        let service = &mut self.service;
        let dataset = &self.snapshots[snapshot];
        let result = measure::timed(&mut epoch_wall, || service.run_epoch(dataset))?;
        let mut checkpoint_wall = Duration::ZERO;
        let checkpoint = measure::timed(&mut checkpoint_wall, || self.service.checkpoint())?;
        let answers = self
            .tenants
            .iter()
            .map(|t| {
                let ranked = result.outcomes.get(&t.id).map(|o| o.outcome.ranked.clone());
                (t.live.clone(), ranked.unwrap_or_default())
            })
            .collect();
        Ok(Step {
            churn,
            churn_wall,
            epoch_wall,
            checkpoint_wall,
            checkpoint_bytes: checkpoint.len(),
            result,
            clock_bases,
            record: Record { snapshot, answers },
        })
    }

    /// A digest of the generated inputs: every registered query, in
    /// registration order per tenant.
    fn fingerprint(&self) -> u64 {
        crate::fingerprint(self.tenants.iter().flat_map(|t| t.queries.values()))
    }

    /// Checks every recorded epoch against a from-scratch merged
    /// `run_pipeline::<Wbf>` over the tenant's live queries, in
    /// `StreamQueryId` order, on that epoch's snapshot, with the pinned
    /// geometry. Query sets change only every fourth epoch, so each
    /// distinct (tenant, live set, snapshot) runs once. Returns how many
    /// epochs failed; a `None` record is an epoch that returned an error.
    fn verify(&self, records: &[Option<Record>]) -> usize {
        type Key = (usize, usize, Vec<StreamQueryId>);
        let mut memo: BTreeMap<Key, Option<Vec<UserId>>> = BTreeMap::new();
        let options = PipelineOptions {
            mode: ExecutionMode::ThreadPool {
                workers: crate::oracle_workers(),
            },
            top_k: Some(TOP_K),
            grouping: SectionGrouping::Merged,
            ..PipelineOptions::default()
        };
        let mut oracle = |t: usize, snapshot: usize, ids: &[StreamQueryId]| {
            memo.entry((t, snapshot, ids.to_vec()))
                .or_insert_with(|| {
                    let tenant = &self.tenants[t];
                    let queries: Vec<PatternQuery> =
                        ids.iter().map(|id| tenant.queries[id].clone()).collect();
                    run_pipeline::<Wbf>(&self.snapshots[snapshot], &queries, &self.config, &options)
                        .ok()
                        .map(|mut o| o.queries.remove(0).ranked)
                })
                .clone()
        };
        records
            .iter()
            .filter(|record| match record {
                None => true,
                Some(r) => {
                    r.answers.iter().enumerate().any(|(t, (ids, ranked))| {
                        oracle(t, r.snapshot, ids).as_ref() != Some(ranked)
                    })
                }
            })
            .count()
    }
}

impl Step {
    fn wall(&self) -> Duration {
        self.churn_wall + self.epoch_wall + self.checkpoint_wall
    }

    fn costs(&self) -> impl Iterator<Item = &CostReport> {
        self.result.outcomes.values().map(|o| &o.outcome.cost)
    }

    /// The epoch's modeled time: the largest tenant makespan past that
    /// tenant's clock base.
    fn ticks(&self) -> u64 {
        self.result
            .outcomes
            .values()
            .zip(&self.clock_bases)
            .map(|(o, &base)| o.outcome.cost.makespan_ticks.saturating_sub(base))
            .max()
            .unwrap_or(0)
    }
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(
    scale: Scale,
    seed: u64,
    budget: Budget,
    workers: usize,
) -> Result<Outcome, Error> {
    let mut setup = Vec::new();
    let mut standing = None;
    for _ in 0..crate::SETUP_REPEATS {
        // Drop the previous set-up first, so peak memory counts one.
        drop(standing.take());
        let started = Instant::now();
        standing = Some(Standing::new(scale, seed, workers)?);
        setup.push(started.elapsed());
    }
    let mut standing = standing.expect("at least one set-up");
    let mut records = Vec::new();
    let mut ticks = Vec::new();
    let phase = Phase::run(budget.for_percentiles(), |_, wall| match standing.step() {
        Ok(step) => {
            *wall = step.wall();
            ticks.push(step.ticks());
            let bytes = step.costs().map(CostReport::total_bytes).sum();
            let answers = step.result.outcomes.len() as u64;
            records.push(Some(step.record));
            (answers, bytes)
        }
        Err(_) => {
            records.push(None);
            (0, 0)
        }
    })?;
    ticks.truncate(measure::P90_MIN_OPS);
    Ok(Outcome {
        attempted: records.len(),
        failed: standing.verify(&records),
        metrics: measure::end_to_end(&setup, &phase, &ticks),
        inputs: standing.fingerprint(),
    })
}

/// The traced run: the first half of the budget runs untraced, the second
/// times each `Service` call and reads the returned meters. The tracing
/// overhead is the ratio of the halves' median operation walls.
pub fn traced(scale: Scale, seed: u64, budget: Budget, workers: usize) -> Result<Outcome, Error> {
    let mut standing = Standing::new(scale, seed, workers)?;
    let mut records = Vec::new();
    let half = budget.share(0.5);
    let untraced = Phase::run(half, |_, wall| match standing.step() {
        Ok(step) => {
            *wall = step.wall();
            records.push(Some(step.record));
            (0, 0)
        }
        Err(_) => {
            records.push(None);
            (0, 0)
        }
    })?;

    let rest = Budget {
        ops: budget
            .ops
            .map(|ops| ops.saturating_sub(records.len()).max(1)),
        ..half
    };
    let mut layers = Layers::default();
    let mut traced_ms = Vec::new();
    let started = Instant::now();
    while rest.more(traced_ms.len(), started) {
        let Ok(step) = standing.step() else {
            records.push(None);
            traced_ms.push(0.0);
            continue;
        };
        traced_ms.push(ms(step.wall()));
        layers.sample("service.churn_ms", ms(step.churn_wall));
        let epoch_metric = if step.churn {
            "service.epoch_churn_ms"
        } else {
            "service.epoch_quiet_ms"
        };
        layers.sample(epoch_metric, ms(step.epoch_wall));
        layers.sample("service.checkpoint_ms", ms(step.checkpoint_wall));
        layers.sample(
            "service.checkpoint_kb",
            step.checkpoint_bytes as f64 / 1024.0,
        );
        let mut total = CostReport::default();
        for cost in step.costs() {
            total.hash_ops += cost.hash_ops;
            total.comparisons += cost.comparisons;
            total.rows_pruned += cost.rows_pruned;
            total.query_bytes += cost.query_bytes;
            total.report_bytes += cost.report_bytes;
            total.routing_bytes += cost.routing_bytes;
        }
        crate::batches::record_meters(&mut layers, &total);
        let mut entries = 0;
        let mut skew = 0;
        for outcome in step.result.outcomes.values() {
            if let EpochBroadcast::Delta { entries: e } = outcome.broadcast {
                entries += e;
            }
            layers.total(
                "streaming.delta_ratio",
                outcome.broadcast_bytes as f64,
                outcome.rebuild_bytes as f64,
            );
            if let Some(latency) = &outcome.latency {
                skew = skew.max(measure::station_skew(latency));
            }
        }
        layers.sample("streaming.delta_entries", entries as f64);
        layers.sample("distsim.station_skew_ticks", skew as f64);
        records.push(Some(step.record));
    }
    layers.sample(
        "trace.overhead",
        measure::ratio(
            measure::median(&traced_ms),
            measure::median(&untraced.op_ms),
        ),
    );
    Ok(Outcome {
        attempted: records.len(),
        failed: standing.verify(&records),
        metrics: layers.metrics(),
        inputs: standing.fingerprint(),
    })
}

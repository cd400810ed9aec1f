//! The two ad-hoc workloads: closed-loop `run_pipeline::<Wbf>` batches
//! from one client, each checked against an oracle run after the timed
//! phase.

use std::time::{Duration, Instant};

use dipm_distsim::{CostReport, ExecutionMode};
use dipm_mobilenet::{Dataset, UserId};
use dipm_protocol::{
    run_pipeline, DiMatchingConfig, HashScheme, PatternQuery, PipelineOptions, RoutingPolicy, Wbf,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{self, ms, Budget, Layers, Phase};
use crate::replay::replay;
use crate::{Error, Outcome, Scale};

/// Candidates kept per ranking.
const TOP_K: usize = 10;

/// Batches per run whose modeled makespan is replayed under
/// `ExecutionMode::Async` after the timed phase, when no oracle run already
/// gave it. The makespan is a deterministic function of the batch, so the
/// first batches of a run repeat exactly under one seed.
const TICK_SAMPLES: usize = 16;

/// Batches per untraced `adhoc` run checked against the `Sequential`
/// oracle, spread evenly over the run. A `Sequential` rerun costs as much
/// as a one-worker pooled batch, so checking every batch would double the
/// run; `routed`'s broadcast oracle is cheap and checks every batch, as do
/// the traced runs.
const ADHOC_ORACLE_SAMPLES: usize = 32;

/// Which batches a workload fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `adhoc`: an operator firing batches of fresh queries at the city.
    /// Eight resident users per batch over the harness's default scale
    /// (3000 users × 24 stations), per-query sections, default config
    /// (exhaustive scan, broadcast to all, value-only keys) on the thread
    /// pool with one worker ([`crate::WORKERS`]). This is the read path.
    /// Station scan is ≈85 % of a batch (≈87 ms of a two-worker batch
    /// measured on a 2-core host). It exercises filter build, broadcast
    /// encode and view, shard scan and aggregation. It does no routing and
    /// no counting-filter writes.
    Adhoc,
    /// `routed`: Q=1 selective queries under a fanout-4 summary tree with
    /// position-tagged keys, 300 users × 12 stations, `Sequential`. Batches
    /// alternate resident users (which prune none of the 12 stations at
    /// this scale) and absent always-on profiles at seeded rates in the
    /// 300–450 band `repro routing` uses (which prune all 12 and must rank
    /// nobody). The per-batch tree rebuild is ≈0.12 s of a ≈0.14 s batch
    /// (at 600 users, ≈0.19 s of ≈0.20 s), so routing does ≈90 % of the
    /// work here and none in the other workloads. 300 users rather than
    /// 600 halve the batch, so that a run fits its 100 batches in well
    /// under its time budget even when the shared host runs slow.
    /// `Sequential` is the single-threaded baseline, so a runtime change is
    /// predicted not to move this workload.
    Routed,
}

/// One batch and what its answer must look like.
struct Batch {
    queries: Vec<PatternQuery>,
    /// An absent query: every ranking must be empty.
    absent: bool,
}

struct Workload {
    kind: Kind,
    dataset: Dataset,
    config: DiMatchingConfig,
    options: PipelineOptions,
    /// Batch size.
    q: usize,
    workers: usize,
    rng: StdRng,
    next: usize,
}

impl Workload {
    fn new(kind: Kind, scale: Scale, seed: u64, workers: usize) -> Result<Workload, Error> {
        let (users, stations, q) = match (kind, scale) {
            (Kind::Adhoc, Scale::Full) => (3000, 24, 8),
            (Kind::Adhoc, Scale::Tiny) => (300, 6, 3),
            (Kind::Routed, Scale::Full) => (300, 12, 1),
            (Kind::Routed, Scale::Tiny) => (200, 6, 1),
        };
        let (config, mode) = match kind {
            Kind::Adhoc => (
                DiMatchingConfig::default(),
                ExecutionMode::ThreadPool { workers },
            ),
            Kind::Routed => (
                DiMatchingConfig {
                    hash_scheme: HashScheme::PositionTagged,
                    routing: RoutingPolicy::Tree { fanout: 4 },
                    ..DiMatchingConfig::default()
                },
                ExecutionMode::Sequential,
            ),
        };
        Ok(Workload {
            kind,
            dataset: Dataset::city_slice(users, stations, seed)?,
            config,
            options: PipelineOptions {
                mode,
                top_k: Some(TOP_K),
                ..PipelineOptions::default()
            },
            q,
            workers,
            rng: StdRng::seed_from_u64(seed ^ 0x0BA7_C4E5),
            next: 0,
        })
    }

    fn next_batch(&mut self) -> Result<Batch, Error> {
        let absent = self.kind == Kind::Routed && self.next % 2 == 1;
        self.next += 1;
        let queries = if absent {
            let rate: u64 = self.rng.gen_range(300..=450);
            let constant = |v: u64| (0..self.dataset.intervals()).map(|_| v).collect();
            vec![PatternQuery::from_locals(vec![
                constant(rate),
                constant(rate / 2),
            ])?]
        } else {
            let users = self.dataset.users();
            let mut picked: Vec<usize> = Vec::with_capacity(self.q);
            while picked.len() < self.q {
                let i = self.rng.gen_range(0..users.len());
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            picked
                .into_iter()
                .map(|i| {
                    let fragments = self
                        .dataset
                        .fragments(users[i].id)
                        .ok_or("resident user without traffic")?;
                    Ok(PatternQuery::from_fragments(fragments)?)
                })
                .collect::<Result<_, Error>>()?
        };
        Ok(Batch { queries, absent })
    }

    fn run(&self, queries: &[PatternQuery], options: &PipelineOptions) -> Result<Run, Error> {
        let outcome = run_pipeline::<Wbf>(&self.dataset, queries, &self.config, options)?;
        Ok(Run {
            rankings: outcome.queries.into_iter().map(|v| v.ranked).collect(),
            cost: outcome.cost,
        })
    }

    /// The oracle run: the same batch under `Sequential` (adhoc), or
    /// broadcast to every station (routed). The routed oracle runs under
    /// `Async`: when the tree pruned no station, the routed batch sent the
    /// same frames to the same stations, so the oracle's modeled makespan
    /// is the routed batch's too.
    fn oracle(&self, queries: &[PatternQuery]) -> Result<Run, Error> {
        let config = DiMatchingConfig {
            routing: RoutingPolicy::BroadcastAll,
            ..self.config.clone()
        };
        let mode = match self.kind {
            Kind::Adhoc => ExecutionMode::Sequential,
            Kind::Routed => ExecutionMode::Async {
                workers: self.workers,
            },
        };
        let outcome = run_pipeline::<Wbf>(&self.dataset, queries, &config, &self.with_mode(mode))?;
        Ok(Run {
            rankings: outcome.queries.into_iter().map(|v| v.ranked).collect(),
            cost: outcome.cost,
        })
    }

    /// Whether `run` answered `batch` with the oracle's rankings.
    fn agrees(batch: &Batch, run: &Run, oracle: &[Vec<UserId>]) -> bool {
        let absent_ok = !batch.absent || run.rankings.iter().all(Vec::is_empty);
        absent_ok && run.rankings == oracle
    }

    fn with_mode(&self, mode: ExecutionMode) -> PipelineOptions {
        PipelineOptions {
            mode,
            ..self.options
        }
    }
}

struct Run {
    rankings: Vec<Vec<UserId>>,
    cost: CostReport,
}

/// Builds the workload and fires its discarded warm-up batch.
fn set_up(kind: Kind, scale: Scale, seed: u64, workers: usize) -> Result<Workload, Error> {
    let mut workload = Workload::new(kind, scale, seed, workers)?;
    let warm_up = workload.next_batch()?;
    workload.run(&warm_up.queries, &workload.options)?;
    Ok(workload)
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(
    kind: Kind,
    scale: Scale,
    seed: u64,
    budget: Budget,
    workers: usize,
) -> Result<Outcome, Error> {
    let mut setup = Vec::new();
    let mut workload = None;
    for _ in 0..crate::SETUP_REPEATS {
        // Drop the previous set-up first, so peak memory counts one.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(set_up(kind, scale, seed, workers)?);
        setup.push(started.elapsed());
    }
    let mut workload = workload.expect("at least one set-up");

    let mut ops: Vec<(Batch, Option<Run>)> = Vec::new();
    let mut next_error: Option<Error> = None;
    let phase = Phase::run(budget.for_percentiles(), |_, wall| {
        let batch = match workload.next_batch() {
            Ok(batch) => batch,
            Err(e) => {
                next_error = Some(e);
                return (0, 0);
            }
        };
        let started = Instant::now();
        let run = workload.run(&batch.queries, &workload.options).ok();
        *wall = started.elapsed();
        let done = run
            .as_ref()
            .map_or((0, 0), |r| (r.rankings.len() as u64, r.cost.total_bytes()));
        ops.push((batch, run));
        done
    })?;
    if let Some(e) = next_error {
        return Err(e);
    }

    // Verification and modeled time, on the recorded inputs. Modeled time
    // counts batches among the first `P90_MIN_OPS` that reach a station: a
    // batch the tree prunes entirely is answered at the center at tick 0.
    let mut failed = 0;
    let mut ticks = Vec::new();
    let mut replays = 0;
    let stations = workload.dataset.stations().len() as u64;
    let async_options = workload.with_mode(ExecutionMode::Async { workers });
    let stride = match kind {
        Kind::Adhoc => ops.len().div_ceil(ADHOC_ORACLE_SAMPLES),
        Kind::Routed => 1,
    };
    for (i, (batch, run)) in ops.iter().enumerate() {
        let Some(run) = run else {
            failed += 1;
            continue;
        };
        let mut oracle_ticks = 0;
        if i % stride == 0 {
            match workload.oracle(&batch.queries) {
                Ok(oracle) if Workload::agrees(batch, run, &oracle.rankings) => {
                    oracle_ticks = oracle.cost.makespan_ticks;
                }
                _ => failed += 1,
            }
        }
        if i >= measure::P90_MIN_OPS {
            continue;
        }
        if run.cost.stations_pruned == 0 && oracle_ticks > 0 {
            ticks.push(oracle_ticks);
        } else if run.cost.stations_pruned < stations && replays < TICK_SAMPLES {
            replays += 1;
            ticks.push(
                workload
                    .run(&batch.queries, &async_options)?
                    .cost
                    .makespan_ticks,
            );
        }
    }
    Ok(Outcome {
        attempted: ops.len(),
        failed,
        metrics: measure::end_to_end(&setup, &phase, &ticks),
        inputs: fingerprint(ops.iter().map(|(b, _)| b)),
    })
}

/// One traced batch, kept for the check after the loop.
struct TracedOp {
    batch: Batch,
    /// The untraced answer and the replay's rankings; `None` when either
    /// returned an error.
    answers: Option<(Run, Vec<Vec<UserId>>)>,
    /// The `Sequential` run's rankings when the workload runs another mode:
    /// the adhoc oracle's answer.
    sequential: Option<Vec<Vec<UserId>>>,
}

/// The traced run: each batch runs untraced in the workload's mode, under
/// `Sequential` when that differs, and once more as a stage-by-stage
/// replay. Answers are checked after the loop.
pub fn traced(
    kind: Kind,
    scale: Scale,
    seed: u64,
    budget: Budget,
    workers: usize,
) -> Result<Outcome, Error> {
    let mut workload = set_up(kind, scale, seed, workers)?;
    let stations = workload.dataset.stations().len() as f64;
    let sequential = workload.with_mode(ExecutionMode::Sequential);
    let mut layers = Layers::default();
    let mut ops: Vec<TracedOp> = Vec::new();
    let started = Instant::now();
    while budget.more(ops.len(), started) {
        let batch = workload.next_batch()?;
        let mut mode_wall = Duration::ZERO;
        let run = measure::timed(&mut mode_wall, || {
            workload.run(&batch.queries, &workload.options)
        });
        let mut seq_wall = mode_wall;
        let mut seq_answer = None;
        if workload.options.mode != ExecutionMode::Sequential {
            seq_wall = Duration::ZERO;
            seq_answer =
                measure::timed(&mut seq_wall, || workload.run(&batch.queries, &sequential))
                    .ok()
                    .map(|r| r.rankings);
            layers.sample(
                "runtime.speedup",
                measure::ratio(ms(seq_wall), ms(mode_wall)),
            );
        }
        let replayed = replay(
            &workload.dataset,
            &batch.queries,
            &workload.config,
            workload.options.shards,
            workload.options.top_k,
        );
        let answers = match (run, replayed) {
            (Ok(run), Ok((rankings, st))) => {
                for (name, d) in [
                    ("datacenter.build_ms", st.build),
                    ("routing.build_ms", st.route_build),
                    ("routing.route_ms", st.route),
                    ("routing.wire_ms", st.route_wire),
                    ("wire.encode_ms", st.encode),
                    ("wire.view_ms", st.view),
                    ("basestation.layout_ms", st.layout),
                    ("basestation.scan_ms", st.scan),
                    ("wire.report_ms", st.report),
                    ("datacenter.aggregate_ms", st.aggregate),
                ] {
                    layers.sample(name, ms(d));
                }
                let probes = st.probes as f64;
                layers.total("basestation.rows_per_s", probes, st.scan.as_secs_f64());
                layers.total("basestation.report_ratio", st.reports as f64, probes);
                record_meters(&mut layers, &run.cost);
                layers.total(
                    "routing.pruned_frac",
                    run.cost.stations_pruned as f64,
                    stations,
                );
                layers.sample(
                    "pipeline.coverage",
                    measure::ratio(ms(st.covered()), ms(seq_wall)),
                );
                layers.sample("trace.overhead", measure::ratio(ms(st.wall), ms(seq_wall)));
                Some((run, rankings))
            }
            _ => None,
        };
        ops.push(TracedOp {
            batch,
            answers,
            sequential: seq_answer,
        });
    }

    let failed = ops
        .iter()
        .filter(|op| {
            let Some((run, replayed)) = &op.answers else {
                return true;
            };
            let oracle = match kind {
                Kind::Adhoc => op.sequential.clone(),
                Kind::Routed => workload.oracle(&op.batch.queries).ok().map(|o| o.rankings),
            };
            *replayed != run.rankings
                || !oracle.is_some_and(|oracle| Workload::agrees(&op.batch, run, &oracle))
        })
        .count();
    Ok(Outcome {
        attempted: ops.len(),
        failed,
        metrics: layers.metrics(),
        inputs: fingerprint(ops.iter().map(|op| &op.batch)),
    })
}

/// The per-operation `CostReport` meters every traced workload reports.
pub fn record_meters(layers: &mut Layers, cost: &CostReport) {
    layers.sample("basestation.hash_ops", cost.hash_ops as f64);
    layers.sample("basestation.comparisons", cost.comparisons as f64);
    layers.sample("basestation.rows_pruned", cost.rows_pruned as f64);
    layers.sample("wire.query_kb", cost.query_bytes as f64 / 1024.0);
    layers.sample("wire.report_kb", cost.report_bytes as f64 / 1024.0);
    layers.sample("routing.kb", cost.routing_bytes as f64 / 1024.0);
}

fn fingerprint<'a>(batches: impl Iterator<Item = &'a Batch>) -> u64 {
    crate::fingerprint(batches.flat_map(|b| b.queries.iter()))
}

//! The repo benchmark: four workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced replay. See README.md
//! and ../BENCHMARK.json; run through run.sh.
//!
//! `obstacle_benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out-dir <dir>]` prints every metric by name with its
//! unit, then one JSON line `{correct, attempted, failed, metrics}`, and
//! exits non-zero when a correctness or degeneracy check failed.

mod batch;
mod gen;
mod joins;
mod service;
mod stats;
mod trace;

use gen::{Database, Indexes, JoinIndexes, JoinOp, ServiceTraffic};
use obstacle_core::{Query, QueryEngine, Schedule};
use obstacle_geom::Point;
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::Backend;
use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// The four workloads (why each exists: README.md, BENCHMARK.json).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Scattered,
    Clustered,
    Joins,
    ServiceChurn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Scattered,
        Workload::Clustered,
        Workload::Joins,
        Workload::ServiceChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scattered => "scattered",
            Workload::Clustered => "clustered",
            Workload::Joins => "joins",
            Workload::ServiceChurn => "service_churn",
        }
    }

    /// Storage backend the workload's indexes are built on.
    pub fn backend(self) -> Backend {
        match self {
            Workload::ServiceChurn => Backend::Packed,
            _ => Backend::Paged,
        }
    }

    /// Claim order of the workload's batches.
    pub fn schedule(self) -> Schedule {
        match self {
            Workload::Clustered => Schedule::Hilbert,
            _ => Schedule::InputOrder,
        }
    }

    /// The percentile reported as `tta_tail_ms`: the highest that has at
    /// least ten samples beyond it in one run *and* holds its bound across
    /// seeds. The batch workloads time thousands of queries: p99. `joins`
    /// answers ≈ 400 operators per run: p90. An open-loop p99 over a 14 s
    /// window moves ±13 % with the arrival pattern alone (p90: ±6 %), so
    /// `service_churn` reports p90 too; its p99s are layer metrics.
    fn tail(self) -> f64 {
        match self {
            Workload::Scattered | Workload::Clustered => 0.99,
            Workload::Joins | Workload::ServiceChurn => 0.90,
        }
    }
}

/// Point queries of one `scattered` chunk and of one `clustered` chunk
/// (each ≈ 4.5 s when the benchmark was defined; 60 queries per hotspot
/// keep scene reuse above 0.9).
const SCATTERED_QUERIES: usize = 2_000;
const CLUSTERED_QUERIES: usize = 1_920;
/// Queries of the warm-up pass that ends every set-up.
const WARM_UP_QUERIES: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SET_UPS: usize = 7;
/// Seconds both cores are kept busy before the first set-up is timed. A
/// process started after an idle gap gets its second core late: for its
/// first ≈ 3 s two busy threads run like one, which made the two-thread
/// warm-up pass of a set-up take 0.28 s instead of 0.14 s in the runs that
/// followed a pause and in no other.
const SPIN_UP_SECONDS: f64 = 4.0;
/// Share of `--seconds` the open-loop phase of `service_churn` takes; the
/// closed-loop phase takes the rest.
const STEADY_SHARE: f64 = 0.7;

/// Everything `--seed` generates, for all layers: a traced run feeds
/// every layer, whichever workload it replays.
pub struct Traffic {
    /// The workload's point queries, in distinct chunks a batch run
    /// cycles through. `joins` and `service_churn` have no NN/range/path
    /// mix of their own: one chunk of probes at obstacle-distributed
    /// points (the distribution of `S`) and at the arrival points, which
    /// only their traced runs use.
    pub chunks: Vec<Vec<Query>>,
    /// The point queries of every set-up's warm-up pass (seed-independent).
    pub warm_up: Vec<Query>,
    pub round: Vec<JoinOp>,
    pub service: ServiceTraffic,
}

impl Traffic {
    /// Generates the traffic of `workload` for `seed`, with an open-loop
    /// phase of `steady` seconds. Uses indexes of its own: the generator
    /// is no part of the program under test.
    pub fn generate(workload: Workload, seed: u64, steady: f64) -> Traffic {
        let db = Database::generate();
        let ix = Indexes::build(&db, Backend::Paged);
        let service = gen::service_traffic(&db, &ix, steady, seed);
        let chunks = match workload {
            Workload::Scattered => (0..gen::CHUNKS)
                .map(|c| gen::scattered_queries(&db, &ix, SCATTERED_QUERIES, seed, c))
                .collect(),
            Workload::Clustered => (0..gen::CHUNKS)
                .map(|c| gen::clustered_queries(&db, &ix, CLUSTERED_QUERIES, seed, c))
                .collect(),
            Workload::Joins => {
                vec![gen::scattered_queries(
                    &db,
                    &ix,
                    trace::BATCH_QUERIES,
                    seed,
                    0,
                )]
            }
            Workload::ServiceChurn => {
                let at: Vec<Point> = service
                    .arrivals
                    .iter()
                    .map(|(_, q)| gen::anchor(q))
                    .collect();
                vec![gen::probe_queries_at(&db, &ix, &at, seed)]
            }
        };
        Traffic {
            chunks,
            warm_up: gen::warm_up_queries(&db, &ix, WARM_UP_QUERIES),
            round: gen::join_round(&db, seed),
            service,
        }
    }
}

/// A workload's state after set-up, ready for its first timed operation.
pub enum Ready {
    Batch(Database, Indexes),
    Joins(Database, Box<JoinIndexes>),
    Service(Database, Indexes),
}

/// One set-up as a user pays it: generate the database, build the
/// workload's indexes, run a short warm-up pass through the workload's
/// own entry point.
fn set_up(workload: Workload, traffic: &Traffic) -> Ready {
    let db = Database::generate();
    match workload {
        Workload::Scattered | Workload::Clustered => {
            let ix = Indexes::build(&db, workload.backend());
            let engine = QueryEngine::new(&ix.entities, &ix.obstacles);
            std::hint::black_box(
                engine
                    .batch(&traffic.warm_up)
                    .threads(batch::THREADS)
                    .schedule(workload.schedule())
                    .collect(),
            );
            Ready::Batch(db, ix)
        }
        Workload::Joins => {
            let ix = JoinIndexes::build(&db, workload.backend());
            for &op in &traffic.round {
                std::hint::black_box(joins::execute(&ix, op));
            }
            Ready::Joins(db, Box::new(ix))
        }
        Workload::ServiceChurn => {
            let ix = Indexes::build(&db, workload.backend());
            let (_, ix) = service::saturate(ix, &traffic.warm_up, f64::MAX, WARM_UP_QUERIES);
            Ready::Service(db, ix)
        }
    }
}

/// Keeps [`batch::THREADS`] threads busy for `seconds` (see
/// [`SPIN_UP_SECONDS`]); allocates nothing, so `peak_rss_mb` is unmoved.
fn spin_up(seconds: f64) {
    std::thread::scope(|scope| {
        for _ in 0..batch::THREADS {
            scope.spawn(|| {
                let clock = Stopwatch::start();
                let mut x = 1u64;
                while clock.elapsed().as_secs_f64() < seconds {
                    for _ in 0..1 << 16 {
                        x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 29));
                    }
                }
            });
        }
    });
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload <scattered|clustered|joins|service_churn>")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// Counts behind the result line's `correct` / `attempted` / `failed`.
#[derive(Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
    /// Degeneracy findings: the workload no longer exercises what it
    /// exists to exercise.
    pub degenerate: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, finding: impl FnOnce() -> String) {
        if !ok {
            self.degenerate.push(finding());
        }
    }
}

/// Records `tta_p50_ms` / `tta_tail_ms` from raw samples.
fn put_tta(m: &mut Metrics, workload: Workload, samples: &mut [f64]) {
    stats::sort(samples);
    let n = samples.len();
    let tail = workload.tail();
    m.put(
        "tta_p50_ms",
        stats::quantile(samples, 0.5),
        "ms",
        format!("n={n}"),
    );
    let resolved = if stats::percentile_is_resolved(n, tail) {
        ""
    } else {
        " UNRESOLVED: fewer than 10 samples beyond"
    };
    m.put(
        "tta_tail_ms",
        stats::quantile(samples, tail),
        "ms",
        format!("p{:.0} n={n}{resolved}", tail * 100.0),
    );
}

/// The untraced run: set up, measure for `seconds`, check.
fn run_end_to_end(args: &Args, traffic: &Traffic, checks: &mut Checks) -> Metrics {
    let workload = args.workload;
    let mut m = Metrics::default();
    spin_up(SPIN_UP_SECONDS);
    let mut set_ups = Vec::with_capacity(SET_UPS);
    let mut ready = None;
    for _ in 0..SET_UPS {
        drop(ready.take());
        let t = Stopwatch::start();
        ready = Some(set_up(workload, traffic));
        set_ups.push(t.elapsed().as_secs_f64());
    }
    m.put(
        "setup_s",
        stats::median(&set_ups),
        "s",
        format!(
            "median of {SET_UPS}, spread {:.3} {set_ups:.3?}",
            stats::spread(&set_ups)
        ),
    );

    match ready.expect("at least one set-up ran") {
        Ready::Batch(db, ix) => {
            let out = batch::run(&db, &ix, &traffic.chunks, workload.schedule(), args.seconds);
            m.put(
                "qps",
                stats::median(&out.qps),
                "1/s",
                format!(
                    "median of {} chunk passes x {} queries, spread {:.3}",
                    out.qps.len(),
                    traffic.chunks[0].len(),
                    stats::spread(&out.qps)
                ),
            );
            let mut tta = out.tta_ms;
            put_tta(&mut m, workload, &mut tta);
            checks.attempted += out.attempted;
            checks.failed += out.failed;
            println!(
                "  class share of time nn/range/path: {:.3}/{:.3}/{:.3}; median range hits {}; scene reuse {:.3}; checksum {:016x}",
                out.class_share[0], out.class_share[1], out.class_share[2],
                out.median_range_hits, out.reuse_frac, out.checksum
            );
            if workload == Workload::Scattered {
                checks.require(out.median_range_hits >= 4.0, || {
                    format!("median range result count {} < 4", out.median_range_hits)
                });
                for (name, share) in gen::CLASS_NAMES.iter().zip(out.class_share) {
                    checks.require((0.05..=0.70).contains(&share), || {
                        format!("{name} queries take {share:.3} of the time, outside [0.05, 0.70]")
                    });
                }
            } else {
                checks.require(out.reuse_frac >= 0.9, || {
                    format!("scene reuse fraction {:.3} < 0.9", out.reuse_frac)
                });
            }
        }
        Ready::Joins(db, ix) => {
            let out = joins::run(&db, &ix, &traffic.round, args.seconds);
            m.put(
                "qps",
                stats::median(&out.ops_per_s),
                "1/s",
                format!(
                    "operators/s, median of {} rounds x {}, spread {:.3}",
                    out.ops_per_s.len(),
                    traffic.round.len(),
                    stats::spread(&out.ops_per_s)
                ),
            );
            let mut tta = out.tta_ms;
            put_tta(&mut m, workload, &mut tta);
            checks.attempted += out.attempted;
            checks.failed += out.failed;
            println!(
                "  smallest operator result {} rows; checksum {:016x}",
                out.min_rows, out.checksum
            );
            checks.require(out.min_rows >= 1, || {
                "a join operator returned no rows".into()
            });
        }
        Ready::Service(db, ix) => {
            let steady_s = STEADY_SHARE * args.seconds;
            let (steady, ix) = service::steady(ix, &traffic.service, service::steady_config());
            let (saturate, ix) = service::saturate(
                ix,
                &traffic.service.saturate,
                args.seconds - steady_s,
                usize::MAX,
            );
            m.put(
                "qps",
                saturate.qps,
                "1/s",
                format!(
                    "closed loop, median window of 100 answers, {} answered",
                    saturate.stats.answered
                ),
            );
            let mut tta = service::tta_ms(&steady);
            put_tta(&mut m, workload, &mut tta);
            println!(
                "  steady tta p90/p95/p99 {:.3}/{:.3}/{:.3} ms",
                stats::quantile(&tta, 0.90),
                stats::quantile(&tta, 0.95),
                stats::quantile(&tta, 0.99)
            );
            let verdict = service::verify(&db, &ix, &traffic.service, &steady, &saturate);
            checks.attempted += steady.arrivals.len() + saturate.answers.len();
            checks.failed += verdict.failed;
            let updates: Vec<f64> = steady.updates.iter().map(|(_, d)| stats::ms(*d)).collect();
            println!(
                "  steady: {} arrivals at {} q/s, {} shed, {} edit batches (update p50 {:.3} ms), {} scene invalidations; {} answers replayed; checksum {:016x} (timing-dependent here)",
                steady.arrivals.len(), gen::ARRIVAL_RATE, steady.stats.shed, updates.len(),
                stats::median(&updates), steady.stats.scene_invalidations,
                verdict.replayed, verdict.checksum
            );
            let batches = steady.updates.len();
            checks.require(
                steady.stats.scene_invalidations * 3 >= batches && batches >= 4,
                || {
                    format!(
                        "{} scene invalidations over {batches} edit batches (need >= 1/3, >= 4 batches)",
                        steady.stats.scene_invalidations
                    )
                },
            );
        }
    }
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB", "VmHWM");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("obstacle_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {cores} profile {} commit {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        option_env!("BENCH_COMMIT").unwrap_or("unknown"),
    );
    if cores < 2 {
        println!("WARNING: nproc < 2 — two busy threads will share one core; thread-dependent numbers are not comparable");
    }

    let steady_s = if args.trace {
        trace::STEADY_SECONDS
    } else {
        STEADY_SHARE * args.seconds
    };
    let traffic = Traffic::generate(args.workload, args.seed, steady_s);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        trace::run(args.workload, &traffic, &args.out_dir, &mut checks)
    } else {
        run_end_to_end(&args, &traffic, &mut checks)
    };
    metrics.print();
    for finding in &checks.degenerate {
        println!("DEGENERATE: {finding}");
    }
    let correct = checks.failed == 0 && checks.degenerate.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted.max(1),
        checks.failed + checks.degenerate.len(),
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

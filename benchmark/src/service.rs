//! The `service_churn` workload: a resident `QueryService` driven open
//! loop beside edit batches (`steady`), then closed loop (`saturate`).
//!
//! Latency is timed from outside and from each query's *due* time: a
//! receiver thread stamps completions the moment they arrive, the driver
//! thread submits on schedule and applies the edit batches itself — so a
//! query that falls due during an edit is charged the stall it would have
//! waited out behind the write lock anyway. Raw samples are kept (the
//! service's own log-bucketed histogram merges nearby values).

use crate::gen::{Database, Indexes, ServiceTraffic};
use crate::stats::{self, Fnv};
use obstacle_core::{
    Admission, Answer, Completion, EngineOptions, Outcome, Query, QueryEngine, QueryService,
    ServiceConfig, ServiceStats, Update,
};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::Backend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Closed-loop queries kept in flight by `saturate`.
const IN_FLIGHT: usize = 8;
/// Answers per throughput window of the closed-loop phase (≈ 0.6 s).
const WINDOW: usize = 100;
/// Every n-th closed-loop answer is replayed sequentially.
const RECHECK_EVERY: usize = 16;
/// Closed-loop answers compared against the other storage backend.
const CROSS_BACKEND_SAMPLE: usize = 64;

/// The service configuration of the open-loop phase: one worker (the
/// driver thread takes the other core), the default depth, shedding the
/// oldest pending query on overload.
pub fn steady_config() -> ServiceConfig {
    ServiceConfig::default()
        .workers(1)
        .queue_depth(64)
        .admission(Admission::ShedOldest)
}

/// What happened to one open-loop arrival. Times are offsets from the
/// phase start.
pub struct Arrival {
    pub due: Duration,
    pub submitted: Duration,
    /// How long `submit` took.
    pub submit: Duration,
    /// When the receiver thread saw the completion.
    pub done: Duration,
    /// The service's own submission-to-completion time.
    pub latency: Duration,
    /// `None` when the query was shed, rejected or cancelled.
    pub answered: Option<Answered>,
}

/// The answered part of an [`Arrival`].
pub struct Answered {
    pub answer: Answer,
    pub entity_epoch: u64,
    pub obstacle_epoch: u64,
}

/// Log of one open-loop phase.
pub struct SteadyLog {
    pub arrivals: Vec<Arrival>,
    /// `(start offset, caller-seen duration)` of each `apply_updates`.
    pub updates: Vec<(Duration, Duration)>,
    pub stats: ServiceStats,
}

fn sleep_until(clock: &Stopwatch, due: Duration) {
    let now = clock.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Receiver thread: stamps completions as they arrive until the driver
/// has finished and `expected` of them are in.
fn receive(
    svc: &QueryService<'_>,
    clock: &Stopwatch,
    expected: usize,
    closing: &AtomicBool,
) -> Vec<(Completion, Duration)> {
    let mut got = Vec::with_capacity(expected);
    let mut idle_polls = 0;
    while got.len() < expected {
        match svc.recv_timeout(Duration::from_millis(20)) {
            Some(c) => {
                got.push((c, clock.elapsed()));
                idle_polls = 0;
            }
            // Every admitted submission completes exactly once, so the
            // count is normally reached; five silent seconds after the
            // driver finished mean a submission was refused.
            None if closing.load(Ordering::SeqCst) => {
                idle_polls += 1;
                if idle_polls > 250 {
                    break;
                }
            }
            None => {}
        }
    }
    got
}

/// Runs the open-loop phase over `ix` and hands the (edited) indexes back.
pub fn steady(
    ix: Indexes,
    traffic: &ServiceTraffic,
    config: ServiceConfig,
) -> (SteadyLog, Indexes) {
    let arrivals = &traffic.arrivals;
    let run = QueryService::run(
        ix.entities,
        ix.obstacles,
        EngineOptions::default(),
        config,
        |svc| {
            let clock = Stopwatch::start();
            let closing = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let receiver = scope.spawn(|| receive(svc, &clock, arrivals.len(), &closing));
                let mut log: Vec<Arrival> = Vec::with_capacity(arrivals.len());
                let mut by_ticket: HashMap<u64, usize> = HashMap::with_capacity(arrivals.len());
                let mut updates = Vec::with_capacity(traffic.edits.len());
                let mut edits = traffic.edits.iter().peekable();
                for (due, query) in arrivals {
                    while let Some((edit_due, batch)) = edits.next_if(|(d, _)| d <= due) {
                        sleep_until(&clock, *edit_due);
                        let start = clock.elapsed();
                        let batch: Vec<Update> = batch.clone();
                        let t = Stopwatch::start();
                        svc.apply_updates(batch);
                        updates.push((start, t.elapsed()));
                    }
                    sleep_until(&clock, *due);
                    let submitted = clock.elapsed();
                    let ticket = svc.submit(*query);
                    let submit = clock.elapsed() - submitted;
                    if let Ok(ticket) = ticket {
                        by_ticket.insert(ticket.detach(), log.len());
                    }
                    log.push(Arrival {
                        due: *due,
                        submitted,
                        submit,
                        done: Duration::ZERO,
                        latency: Duration::ZERO,
                        answered: None,
                    });
                }
                closing.store(true, Ordering::SeqCst);
                let completions = receiver.join().expect("receiver thread panicked");
                for (c, done) in completions {
                    let Some(&k) = by_ticket.get(&c.id) else {
                        continue;
                    };
                    log[k].done = done;
                    log[k].latency = c.latency;
                    if let Outcome::Answered {
                        answer,
                        entity_epoch,
                        obstacle_epoch,
                    } = c.outcome
                    {
                        log[k].answered = Some(Answered {
                            answer,
                            entity_epoch,
                            obstacle_epoch,
                        });
                    }
                }
                (log, updates)
            })
        },
    );
    let (arrivals, updates) = run.output;
    (
        SteadyLog {
            arrivals,
            updates,
            stats: run.stats,
        },
        Indexes {
            entities: run.entities,
            obstacles: run.obstacles,
        },
    )
}

/// Log of one closed-loop phase.
pub struct SaturateLog {
    /// Answered queries per second: the median over the phase's full
    /// windows of [`WINDOW`] answers (the whole phase when it is shorter),
    /// so a machine hiccup costs one window, not the figure.
    pub qps: f64,
    /// `(query index, answer)` of every completion, in completion order
    /// (`None`: not answered).
    pub answers: Vec<(usize, Option<Answer>)>,
    pub stats: ServiceStats,
}

/// Runs the closed-loop phase: `Admission::Block`, [`IN_FLIGHT`] queries
/// outstanding, cycling through `queries` until `seconds` have passed or
/// `limit` queries were submitted, no edits.
pub fn saturate(
    ix: Indexes,
    queries: &[Query],
    seconds: f64,
    limit: usize,
) -> (SaturateLog, Indexes) {
    let config = steady_config().admission(Admission::Block);
    let run = QueryService::run(
        ix.entities,
        ix.obstacles,
        EngineOptions::default(),
        config,
        |svc| {
            let mut answers: Vec<(usize, Option<Answer>)> = Vec::new();
            let mut done_at: Vec<f64> = Vec::new();
            let mut submitted = 0usize;
            let clock = Stopwatch::start();
            loop {
                let open = clock.elapsed().as_secs_f64() < seconds;
                while open && submitted < limit && submitted - answers.len() < IN_FLIGHT {
                    match svc.submit(queries[submitted % queries.len()]) {
                        Ok(ticket) => {
                            ticket.detach();
                            submitted += 1;
                        }
                        Err(_) => break,
                    }
                }
                if submitted == answers.len() {
                    break;
                }
                let Some(c) = svc.recv() else { break };
                if c.outcome.answer().is_some() {
                    done_at.push(clock.elapsed().as_secs_f64());
                }
                // Ticket ids count this run's submissions from 0.
                answers.push((c.id as usize % queries.len(), c.outcome.answer().cloned()));
            }
            (answers, done_at)
        },
    );
    let (answers, done_at) = run.output;
    // Windows are cut by answer count, not by the clock: a count per clock
    // second is a whole number, and the same one on most runs.
    let mut per_window: Vec<f64> = Vec::new();
    let mut opened = 0.0;
    for closed in done_at.iter().skip(WINDOW - 1).step_by(WINDOW) {
        per_window.push(WINDOW as f64 / (closed - opened));
        opened = *closed;
    }
    let qps = if per_window.len() >= 2 {
        stats::median(&per_window)
    } else {
        done_at.len() as f64 / done_at.last().copied().unwrap_or(f64::INFINITY)
    };
    (
        SaturateLog {
            qps,
            answers,
            stats: run.stats,
        },
        Indexes {
            entities: run.entities,
            obstacles: run.obstacles,
        },
    )
}

/// Result of checking both phases.
pub struct Verdict {
    /// Unanswered open-loop arrivals, broken conservation, and answers
    /// that differ from their sequential replay.
    pub failed: usize,
    /// Answers replayed.
    pub replayed: usize,
    pub checksum: u64,
}

fn conserved(stats: &ServiceStats) -> bool {
    stats.submitted == stats.answered + stats.shed + stats.cancelled
}

/// Checks the two phases: exact admission accounting; every open-loop
/// arrival answered (a shed or refused query missed every latency limit);
/// every answer stamped with the final epochs — the open-loop tail and a
/// sample of the closed loop — bit-identical to a sequential replay on
/// the indexes the service handed back, and a closed-loop sample also on
/// a paged twin brought to the same state through the same edit batches.
pub fn verify(
    db: &Database,
    final_ix: &Indexes,
    traffic: &ServiceTraffic,
    steady: &SteadyLog,
    saturate: &SaturateLog,
) -> Verdict {
    let mut failed = 0;
    let mut replayed = 0;
    let mut checksum = Fnv::default();
    for (name, stats) in [("steady", &steady.stats), ("saturate", &saturate.stats)] {
        if !conserved(stats) {
            eprintln!("MISMATCH: {name} admission counters do not add up: {stats:?}");
            failed += 1;
        }
    }

    let engine = QueryEngine::new(&final_ix.entities, &final_ix.obstacles);
    let final_epochs = (final_ix.entities.epoch(), final_ix.obstacles.epoch());
    for (k, (arrival, (_, query))) in steady.arrivals.iter().zip(&traffic.arrivals).enumerate() {
        let Some(done) = &arrival.answered else {
            failed += 1;
            continue;
        };
        checksum.answer(&done.answer);
        if (done.entity_epoch, done.obstacle_epoch) == final_epochs {
            replayed += 1;
            if !engine.execute(query).same_results(&done.answer) {
                eprintln!("MISMATCH: open-loop arrival {k} differs from its replay");
                failed += 1;
            }
        }
    }

    let twin = {
        let mut twin = Indexes::build(db, Backend::Paged);
        for (_, batch) in &traffic.edits {
            QueryEngine::apply_updates(&mut twin.entities, &mut twin.obstacles, batch.clone());
        }
        twin
    };
    let twin_engine = QueryEngine::new(&twin.entities, &twin.obstacles);
    let cross_stride = (saturate.answers.len() / CROSS_BACKEND_SAMPLE).max(1);
    for (n, (k, answer)) in saturate.answers.iter().enumerate() {
        let Some(answer) = answer else {
            failed += 1;
            continue;
        };
        let query = &traffic.saturate[*k];
        if n % RECHECK_EVERY == 0 {
            replayed += 1;
            if !engine.execute(query).same_results(answer) {
                eprintln!("MISMATCH: closed-loop completion {n} differs from its replay");
                failed += 1;
            }
        }
        if n % cross_stride == 0 && !twin_engine.execute(query).same_results(answer) {
            eprintln!("MISMATCH: closed-loop completion {n} differs on the paged backend");
            failed += 1;
        }
    }
    Verdict {
        failed,
        replayed,
        checksum: checksum.0,
    }
}

/// Milliseconds from due time to completion of every answered arrival.
pub fn tta_ms(log: &SteadyLog) -> Vec<f64> {
    log.arrivals
        .iter()
        .filter(|a| a.answered.is_some())
        .map(|a| stats::ms(a.done.saturating_sub(a.due)))
        .collect()
}

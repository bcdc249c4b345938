//! PR 9 service suite: the resident [`QueryService`] under concurrent
//! load, edits, and admission pressure.
//!
//! * **Soak**: concurrent submitter threads racing edit batches
//!   (`apply_updates`) on both storage backends; every answered
//!   completion is replayed through a sequential `execute` against a
//!   fresh-built engine at the index state identified by the
//!   completion's epoch pair, and must be **bit-identical**
//!   ([`Answer::same_results`]). Ids align because the replay applies
//!   the exact same edit sequence to identically-built indexes.
//! * **Admission**: a paused service with a full queue produces *exact*
//!   Reject / ShedOldest counts, deterministically.
//! * **Cancellation**: dropping a ticket cancels a pending query and
//!   delivers exactly one `Cancelled` completion.
//! * **Claim order**: a paused-then-resumed single-worker service
//!   answers in the batch engine's Hilbert schedule order — the live
//!   queue and the static scheduler share one key space.
//! * **Non-finite input**: a query at ±∞ is answered, and its worker
//!   keeps serving.
//! * **Panicking body**: `run` closes the queue while unwinding, so the
//!   panic reaches the caller instead of parking the workers forever.

use obstacle_core::{
    Admission, Answer, EngineOptions, EntityIndex, ObstacleIndex, Outcome, Query, QueryEngine,
    QueryService, Schedule, ServiceConfig, ServiceStats, SubmitError, Update,
};
use obstacle_datagen::{sample_entities, City, CityConfig};
use obstacle_geom::Point;
use obstacle_rtree::sync::Mutex;
use obstacle_rtree::{Backend, RTreeConfig};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

fn config(backend: Backend) -> RTreeConfig {
    RTreeConfig::tiny(8).with_backend(backend)
}

/// Identically rebuildable world: the service copy and every replay copy
/// are built from these exact inputs, so ids and epochs align.
fn world_inputs() -> (Vec<Point>, Vec<obstacle_geom::Polygon>) {
    let city = City::generate(CityConfig::new(32, 9));
    let pts = sample_entities(&city, 24, 1);
    (pts, city.obstacles)
}

fn build_world(backend: Backend) -> (EntityIndex, ObstacleIndex) {
    let (pts, polys) = world_inputs();
    (
        EntityIndex::build(config(backend), pts),
        ObstacleIndex::build(config(backend), polys),
    )
}

/// One deterministic edit batch against the current live state: retire
/// and re-open the first live obstacle, churn the first live entity
/// (re-inserting a duplicate of a surviving entity, so the new point is
/// guaranteed outside every obstacle). Touches both indexes, so each
/// batch bumps both epochs — every index state has a unique epoch pair.
fn plan_edit_batch(entities: &EntityIndex, obstacles: &ObstacleIndex) -> Vec<Update> {
    let (oid, poly) = obstacles
        .live_polygons()
        .next()
        .map(|(id, p)| (id, p.clone()))
        .expect("soak world keeps obstacles live");
    let (eid, _) = entities.live_points().next().expect("entities live");
    let (_, dup) = entities.live_points().last().expect("entities live");
    vec![
        Update::DeleteObstacle(oid),
        Update::InsertObstacle(poly),
        Update::DeleteEntity(eid),
        Update::InsertEntity(dup),
    ]
}

/// Deterministic per-submitter query stream: NN / range / path probes
/// scattered over the unit city.
fn submitter_queries(t: usize) -> Vec<Query> {
    (0..12)
        .map(|j| {
            let x = 0.08 + 0.075 * ((j + 4 * t) % 11) as f64;
            let y = 0.12 + 0.065 * ((j * 5 + t) % 12) as f64;
            match j % 3 {
                0 => Query::Nearest {
                    q: Point::new(x, y),
                    k: 3,
                },
                1 => Query::Range {
                    q: Point::new(x, y),
                    e: 0.15,
                },
                _ => Query::Path {
                    from: Point::new(x, y),
                    to: Point::new(1.0 - x, 1.0 - y),
                },
            }
        })
        .collect()
}

/// The soak body: returns `(id → query, completions, stats)` out of the
/// service run for replay verification.
fn soak(backend: Backend) {
    let (entities, obstacles) = build_world(backend);

    // Plan the edit batches against a planning copy of the world, so the
    // batches are fixed data the replay can re-apply verbatim.
    let (mut plan_e, mut plan_o) = build_world(backend);
    let mut batches: Vec<Vec<Update>> = Vec::new();
    for _ in 0..3 {
        let batch = plan_edit_batch(&plan_e, &plan_o);
        QueryEngine::apply_updates(&mut plan_e, &mut plan_o, batch.clone());
        batches.push(batch);
    }

    let cfg = ServiceConfig::default()
        .workers(2)
        .queue_depth(64)
        .schedule(Schedule::Hilbert);
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        let ids: Mutex<HashMap<u64, Query>> = Mutex::new(HashMap::new());
        std::thread::scope(|s| {
            for t in 0..2usize {
                let ids = &ids;
                let svc = &*svc;
                s.spawn(move || {
                    for (j, q) in submitter_queries(t).into_iter().enumerate() {
                        let ticket = svc.submit(q).expect("open service admits");
                        ids.lock().insert(ticket.detach(), q);
                        if j % 3 == t {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                });
            }
            // Edit batches race the submitters from the body thread.
            for batch in &batches {
                std::thread::sleep(Duration::from_millis(2));
                let stats = svc.apply_updates(batch.clone());
                assert_eq!(stats.missed_deletes, 0, "planned deletes must land");
            }
        });
        let ids = ids.into_inner();
        let mut completions = Vec::new();
        for _ in 0..ids.len() {
            completions.push(svc.recv().expect("every submission completes"));
        }
        (ids, completions)
    });

    let (ids, completions) = run.output;
    assert_eq!(ids.len(), 24);
    let stats: &ServiceStats = &run.stats;
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.answered, 24);
    assert_eq!(stats.rejected + stats.shed + stats.cancelled, 0);
    assert_eq!(stats.latency.count(), 24);
    assert!(stats.latency.p50() <= stats.latency.p99());

    // Group answered completions by the epoch pair their execution saw.
    let mut by_state: BTreeMap<(u64, u64), Vec<(u64, Answer)>> = BTreeMap::new();
    for c in completions {
        match c.outcome {
            Outcome::Answered {
                answer,
                entity_epoch,
                obstacle_epoch,
            } => by_state
                .entry((entity_epoch, obstacle_epoch))
                .or_default()
                .push((c.id, answer)),
            other => panic!("soak run produced non-answer outcome {other:?}"),
        }
    }

    // Replay: rebuild the same initial world, re-apply the same batches,
    // and execute each completion's query sequentially at its state.
    let (mut re, mut ro) = build_world(backend);
    let mut verified = 0usize;
    for k in 0..=batches.len() {
        if let Some(group) = by_state.get(&(re.epoch(), ro.epoch())) {
            let engine = QueryEngine::new(&re, &ro);
            for (id, answer) in group {
                let fresh = engine.execute(&ids[id]);
                assert!(
                    answer.same_results(&fresh),
                    "{backend:?} ticket {id} at state {k}: service answer \
                     diverges from sequential replay"
                );
                verified += 1;
            }
        }
        if k < batches.len() {
            QueryEngine::apply_updates(&mut re, &mut ro, batches[k].clone());
        }
    }
    assert_eq!(
        verified,
        24,
        "{backend:?}: every completion must replay at a known epoch state \
         (states seen: {:?})",
        by_state.keys().collect::<Vec<_>>()
    );

    // The handed-back indexes carry all three edit batches.
    assert_eq!(run.entities.epoch(), re.epoch());
    assert_eq!(run.obstacles.epoch(), ro.epoch());
}

#[test]
fn soak_answers_replay_bit_identical_paged() {
    soak(Backend::Paged);
}

#[test]
fn soak_answers_replay_bit_identical_packed() {
    soak(Backend::Packed);
}

#[test]
fn reject_admission_counts_exactly() {
    let (entities, obstacles) = build_world(Backend::Paged);
    let cfg = ServiceConfig::default()
        .workers(1)
        .queue_depth(3)
        .admission(Admission::Reject)
        .schedule(Schedule::InputOrder)
        .paused(true);
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        let queries = submitter_queries(0);
        let mut rejected = 0;
        let mut admitted = Vec::new();
        for q in queries.into_iter().take(5) {
            match svc.submit(q) {
                Ok(t) => admitted.push(t.detach()),
                Err(SubmitError::Rejected) => rejected += 1,
                Err(e) => panic!("unexpected submit error {e}"),
            }
        }
        // Paused workers claim nothing: the queue is exactly full.
        assert_eq!(rejected, 2);
        assert_eq!(admitted, vec![0, 1, 2]);
        assert_eq!(svc.pending(), 3);
        assert_eq!(svc.stats().rejected, 2);
        svc.resume();
        for _ in 0..3 {
            let c = svc.recv().expect("resumed worker answers");
            assert!(c.outcome.answer().is_some());
            assert!(admitted.contains(&c.id));
        }
    });
    assert_eq!(run.stats.submitted, 3);
    assert_eq!(run.stats.answered, 3);
    assert_eq!(run.stats.rejected, 2);
    assert_eq!(run.stats.shed, 0);
}

#[test]
fn shed_oldest_evicts_exactly_the_oldest() {
    let (entities, obstacles) = build_world(Backend::Packed);
    let cfg = ServiceConfig::default()
        .workers(1)
        .queue_depth(3)
        .admission(Admission::ShedOldest)
        .schedule(Schedule::InputOrder)
        .paused(true);
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        for q in submitter_queries(1).into_iter().take(5) {
            let t = svc.submit(q).expect("shedding admission always admits");
            t.detach();
        }
        // Submissions 3 and 4 each evicted the then-oldest: ids 0, 1.
        let shed_a = svc.recv().expect("shed completion is immediate");
        let shed_b = svc.recv().expect("shed completion is immediate");
        assert!(matches!(shed_a.outcome, Outcome::Shed));
        assert!(matches!(shed_b.outcome, Outcome::Shed));
        assert_eq!((shed_a.id, shed_b.id), (0, 1));
        assert_eq!(svc.pending(), 3);
        svc.resume();
        let mut answered: Vec<u64> = (0..3)
            .map(|_| {
                let c = svc.recv().expect("resumed worker answers");
                assert!(c.outcome.answer().is_some());
                c.id
            })
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, vec![2, 3, 4]);
    });
    assert_eq!(run.stats.submitted, 5);
    assert_eq!(run.stats.shed, 2);
    assert_eq!(run.stats.answered, 3);
    assert_eq!(run.stats.rejected, 0);
}

#[test]
fn dropping_a_ticket_cancels_its_pending_query() {
    let (entities, obstacles) = build_world(Backend::Paged);
    let cfg = ServiceConfig::default()
        .workers(1)
        .queue_depth(8)
        .paused(true);
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        let queries = submitter_queries(0);
        let keep_a = svc.submit(queries[0]).expect("admits").detach();
        let cancel_me = svc.submit(queries[1]).expect("admits");
        let cancelled_id = cancel_me.id();
        let keep_b = svc.submit(queries[2]).expect("admits").detach();
        drop(cancel_me);
        let c = svc.recv().expect("cancellation completes immediately");
        assert!(matches!(c.outcome, Outcome::Cancelled));
        assert_eq!(c.id, cancelled_id);
        assert_eq!(svc.pending(), 2);
        svc.resume();
        let mut answered: Vec<u64> = (0..2)
            .map(|_| svc.recv().expect("resumed worker answers").id)
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, vec![keep_a, keep_b]);
    });
    assert_eq!(run.stats.cancelled, 1);
    assert_eq!(run.stats.answered, 2);
    assert_eq!(run.stats.submitted, 3);
}

#[test]
fn paused_queue_drains_in_hilbert_claim_order() {
    let (entities, obstacles) = build_world(Backend::Paged);
    // The static scheduler over a twin world gives the expected order.
    let (twin_e, twin_o) = build_world(Backend::Paged);
    let queries = submitter_queries(0);
    let expected = QueryEngine::new(&twin_e, &twin_o).schedule_order(&queries, Schedule::Hilbert);

    let cfg = ServiceConfig::default()
        .workers(1)
        .queue_depth(64)
        .schedule(Schedule::Hilbert)
        .paused(true);
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        for q in &queries {
            svc.submit(*q).expect("admits").detach();
        }
        svc.resume();
        // Ticket ids are submit order, i.e. indices into `queries`:
        // the single worker's completion order is its claim order.
        (0..queries.len())
            .map(|_| svc.recv().expect("drains").id as usize)
            .collect::<Vec<_>>()
    });
    assert_eq!(run.output, expected);
}

/// A query at a non-finite coordinate is answered like any other, and
/// the worker that ran it goes on serving.
#[test]
fn non_finite_queries_are_answered_and_the_worker_keeps_serving() {
    let (entities, obstacles) = build_world(Backend::Paged);
    let queries = [
        Query::Nearest {
            q: Point::new(f64::INFINITY, 0.0),
            k: 2,
        },
        Query::Path {
            from: Point::new(f64::NEG_INFINITY, 0.5),
            to: Point::new(0.5, 0.5),
        },
        submitter_queries(0)[0],
    ];
    let cfg = ServiceConfig::default().workers(1).queue_depth(4);
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        queries
            .iter()
            .map(|&q| {
                let id = svc.submit(q).expect("admits").detach();
                let c = svc
                    .recv_timeout(Duration::from_secs(30))
                    .expect("the worker answers instead of dying");
                assert_eq!(c.id, id);
                c.outcome.answer().cloned().expect("answered")
            })
            .collect::<Vec<_>>()
    });
    match &run.output[0] {
        Answer::Nearest(r) => assert!(r.neighbors.is_empty()),
        other => panic!("nearest answered {other:?}"),
    }
    assert!(matches!(run.output[1], Answer::Path(None)));
    match &run.output[2] {
        Answer::Nearest(r) => assert_eq!(r.neighbors.len(), 3),
        other => panic!("nearest answered {other:?}"),
    }
    assert_eq!(run.stats.answered, 3);
}

#[test]
fn a_panicking_body_propagates_instead_of_hanging() {
    let (entities, obstacles) = build_world(Backend::Paged);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    // Detached on purpose: if `run` hangs (the defect this test pins) a
    // scoped thread would hang the test with it instead of failing it.
    // lint:allow(lock-discipline): the wait below must stay bounded
    let runner = std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QueryService::run(
                entities,
                obstacles,
                EngineOptions::default(),
                ServiceConfig::default().workers(2),
                |_svc| -> () { panic!("service body failed") },
            )
        }));
        let _ = done_tx.send(result.is_err());
    });
    // The wait only bounds the failure: on success the runner reports as
    // soon as the two idle workers have been woken and joined.
    let panicked = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a panicking body must close the queue, not leave the workers parked");
    assert!(panicked, "the body's panic must reach run's caller");
    runner.join().expect("runner thread");
}

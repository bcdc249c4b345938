//! Cross-operator consistency: the four query types plus their
//! incremental variants must tell one coherent story about the
//! obstructed distance metric.

use obstacle_suite::datagen::{query_workload, sample_entities, City, CityConfig};
use obstacle_suite::queries::compute_obstructed_distance;
use obstacle_suite::queries::{
    closest_pairs, distance_join, incremental_closest_pairs, EngineOptions, EntityIndex,
    LocalGraph, ObstacleIndex, QueryEngine,
};
use obstacle_suite::rtree::RTreeConfig;
use obstacle_suite::visibility::EdgeBuilder;

const TOL: f64 = 1e-9;

struct World {
    city: City,
    entities: EntityIndex,
    obstacles: ObstacleIndex,
}

fn world(seed: u64) -> World {
    let city = City::generate(CityConfig::new(40, seed));
    let pts = sample_entities(&city, 60, seed + 1);
    World {
        entities: EntityIndex::build(RTreeConfig::tiny(8), pts),
        obstacles: ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone()),
        city,
    }
}

fn pair_distance(
    w: &World,
    a: obstacle_suite::geom::Point,
    b: obstacle_suite::geom::Point,
) -> Option<f64> {
    let mut g = LocalGraph::new(EdgeBuilder::RotationalSweep);
    let na = g.add_waypoint(a, 1);
    let nb = g.add_waypoint(b, 2);
    compute_obstructed_distance(&mut g, na, nb, &w.obstacles)
}

#[test]
fn obstructed_distance_is_a_metric_on_samples() {
    let w = world(1);
    let pts = sample_entities(&w.city, 8, 50);
    for i in 0..pts.len() {
        for j in 0..pts.len() {
            let dij = pair_distance(&w, pts[i], pts[j]).unwrap();
            // Symmetry.
            let dji = pair_distance(&w, pts[j], pts[i]).unwrap();
            assert!((dij - dji).abs() < TOL, "symmetry {i},{j}");
            // Identity and non-negativity.
            if i == j {
                assert_eq!(dij, 0.0);
            } else {
                assert!(dij >= pts[i].dist(pts[j]) - TOL, "Euclidean lower bound");
            }
        }
    }
    // Triangle inequality on a few triples.
    for (i, j, k) in [(0usize, 1usize, 2usize), (3, 4, 5), (1, 6, 7), (0, 4, 7)] {
        let dij = pair_distance(&w, pts[i], pts[j]).unwrap();
        let djk = pair_distance(&w, pts[j], pts[k]).unwrap();
        let dik = pair_distance(&w, pts[i], pts[k]).unwrap();
        assert!(dik <= dij + djk + TOL, "triangle {i},{j},{k}");
    }
}

#[test]
fn range_result_equals_nn_prefix_filter() {
    // OR(q, e) must equal the prefix of the incremental NN stream with
    // distance ≤ e.
    let w = world(2);
    let engine = QueryEngine::new(&w.entities, &w.obstacles);
    for q in query_workload(&w.city, 3, 60) {
        for e in [0.1, 0.25] {
            let range: Vec<(u64, f64)> = engine.range(q, e).hits;
            let stream: Vec<(u64, f64)> = engine
                .nearest_incremental(q)
                .take_while(|(_, d)| *d <= e)
                .collect();
            assert_eq!(range.len(), stream.len(), "q {q} e {e}");
            for (r, s) in range.iter().zip(stream.iter()) {
                assert!((r.1 - s.1).abs() < TOL);
            }
        }
    }
}

#[test]
fn nearest_k_is_prefix_of_nearest_k_plus_one() {
    let w = world(3);
    let engine = QueryEngine::new(&w.entities, &w.obstacles);
    let q = query_workload(&w.city, 1, 70)[0];
    let k5 = engine.nearest(q, 5).neighbors;
    let k9 = engine.nearest(q, 9).neighbors;
    for (a, b) in k5.iter().zip(k9.iter()) {
        assert!((a.1 - b.1).abs() < TOL);
    }
    // Distances ascend.
    for win in k9.windows(2) {
        assert!(win[0].1 <= win[1].1 + TOL);
    }
}

#[test]
fn join_is_symmetric_in_its_inputs() {
    let w = world(4);
    let city = &w.city;
    let s = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 30, 80));
    let t = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 25, 90));
    let e = 0.15;
    let ab = distance_join(&s, &t, &w.obstacles, e, EngineOptions::default());
    let ba = distance_join(&t, &s, &w.obstacles, e, EngineOptions::default());
    let mut x: Vec<(u64, u64)> = ab.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
    let mut y: Vec<(u64, u64)> = ba.pairs.iter().map(|(a, b, _)| (*b, *a)).collect();
    x.sort_unstable();
    y.sort_unstable();
    assert_eq!(x, y);
}

#[test]
fn join_pairs_match_pairwise_distances() {
    let w = world(5);
    let city = &w.city;
    let s = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 20, 100));
    let t = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 20, 110));
    let e = 0.12;
    let join = distance_join(&s, &t, &w.obstacles, e, EngineOptions::default());
    for (a, b, d) in &join.pairs {
        let check = pair_distance(&w, s.position(*a), t.position(*b)).unwrap();
        assert!((d - check).abs() < TOL);
        assert!(*d <= e + TOL);
    }
}

#[test]
fn closest_pairs_agree_with_join_at_matching_range() {
    // OCP's k-th distance defines a range; ODJ at that range must return
    // at least k pairs, and the k smallest must match.
    let w = world(6);
    let city = &w.city;
    let s = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 18, 120));
    let t = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 15, 130));
    let k = 6;
    let cp = closest_pairs(&s, &t, &w.obstacles, k, EngineOptions::default());
    assert_eq!(cp.pairs.len(), k);
    let kth = cp.pairs[k - 1].2;
    let join = distance_join(&s, &t, &w.obstacles, kth + 1e-9, EngineOptions::default());
    assert!(join.pairs.len() >= k);
    let mut join_d: Vec<f64> = join.pairs.iter().map(|(_, _, d)| *d).collect();
    join_d.sort_by(|a, b| obstacle_geom::total_cmp(*a, *b));
    for (i, (_, _, d)) in cp.pairs.iter().enumerate() {
        assert!((d - join_d[i]).abs() < TOL, "pair {i}");
    }
}

#[test]
fn iocp_prefix_equals_ocp_for_every_k() {
    let w = world(7);
    let city = &w.city;
    let s = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 12, 140));
    let t = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 10, 150));
    let stream: Vec<(u64, u64, f64)> =
        incremental_closest_pairs(&s, &t, &w.obstacles, EngineOptions::default())
            .take(10)
            .collect();
    for k in [1usize, 3, 7, 10] {
        let batch = closest_pairs(&s, &t, &w.obstacles, k, EngineOptions::default());
        assert_eq!(batch.pairs.len(), k);
        for (b, s) in batch.pairs.iter().zip(stream.iter()) {
            assert!((b.2 - s.2).abs() < TOL, "k {k}");
        }
    }
}

#[test]
fn semi_join_agrees_with_per_point_nearest() {
    use obstacle_suite::queries::{semi_join, SemiJoinStrategy};
    let w = world(9);
    let city = &w.city;
    let s = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 20, 170));
    let t = EntityIndex::build(RTreeConfig::tiny(8), sample_entities(city, 15, 180));
    for strategy in [
        SemiJoinStrategy::PerObjectNn,
        SemiJoinStrategy::IncrementalClosestPairs,
    ] {
        let r = semi_join(&s, &t, &w.obstacles, strategy, EngineOptions::default());
        assert_eq!(r.pairs.len(), s.len());
        let engine = QueryEngine::new(&t, &w.obstacles);
        for (sid, tid, d) in &r.pairs {
            let nn = engine.nearest(s.position(*sid), 1);
            // Ties may pick a different id; the distance is unique.
            assert!(
                (nn.neighbors[0].1 - d).abs() < TOL,
                "{strategy:?} s{sid} t{tid}"
            );
        }
    }
}

#[test]
fn batch_is_thread_count_invariant() {
    // The batch engine's determinism contract: for every operator, the
    // answers of `engine.batch(..)` at any thread count are
    // result-identical to the sequential loop, and land at their input
    // index.
    use obstacle_suite::queries::{Answer, Query, SemiJoinStrategy};
    let w = world(10);
    let engine = QueryEngine::new(&w.entities, &w.obstacles);

    let mut queries = vec![
        Query::DistanceJoin { e: 0.08 },
        Query::SemiJoin {
            strategy: SemiJoinStrategy::PerObjectNn,
        },
        Query::SemiJoin {
            strategy: SemiJoinStrategy::IncrementalClosestPairs,
        },
        Query::ClosestPairs { k: 5 },
    ];
    for (i, q) in query_workload(&w.city, 8, 200).into_iter().enumerate() {
        queries.push(Query::Range {
            q,
            e: 0.08 + 0.02 * i as f64,
        });
        queries.push(Query::Nearest { q, k: 1 + i });
    }
    for pair in query_workload(&w.city, 8, 300).chunks(2) {
        if let [a, b] = pair {
            queries.push(Query::Path { from: *a, to: *b });
        }
    }

    let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
    // Sanity: the workload exercises non-trivial answers.
    assert!(sequential.iter().any(|a| a.result_count() > 0));
    for threads in [1usize, 2, 8] {
        let (parallel, _) = engine.batch(&queries).threads(threads).collect();
        assert_eq!(parallel.len(), sequential.len());
        for (i, (p, s)) in parallel.iter().zip(sequential.iter()).enumerate() {
            assert!(
                p.same_results(s),
                "query {i} diverged at {threads} threads: {p:?} vs {s:?}"
            );
        }
    }
}

#[test]
fn streaming_batches_match_collected_and_sequential_under_every_schedule() {
    // The streaming determinism contract: `.stream(..)` collected and
    // re-ordered equals `.collect()` equals the sequential loop, at
    // 1/2/4/8 threads × both schedules × all six operators. Scheduling
    // and streaming may change *when* a query runs — never its answer.
    use obstacle_suite::queries::{Answer, Query, Schedule, SemiJoinStrategy};
    let w = world(11);
    let engine = QueryEngine::new(&w.entities, &w.obstacles);

    let mut queries = vec![
        Query::DistanceJoin { e: 0.07 },
        Query::SemiJoin {
            strategy: SemiJoinStrategy::PerObjectNn,
        },
        Query::ClosestPairs { k: 4 },
    ];
    for (i, q) in query_workload(&w.city, 6, 400).into_iter().enumerate() {
        queries.push(Query::Range {
            q,
            e: 0.06 + 0.02 * i as f64,
        });
        queries.push(Query::Nearest { q, k: 1 + i });
    }
    for pair in query_workload(&w.city, 6, 500).chunks(2) {
        if let [a, b] = pair {
            queries.push(Query::Path { from: *a, to: *b });
        }
    }

    let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
    assert!(sequential.iter().any(|a| a.result_count() > 0));

    for threads in [1usize, 2, 4, 8] {
        let (batch, _) = engine.batch(&queries).threads(threads).collect();
        for (i, (p, s)) in batch.iter().zip(sequential.iter()).enumerate() {
            assert!(
                p.same_results(s),
                "collected query {i} diverged at {threads} threads"
            );
        }
        for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
            let request = engine.batch(&queries).threads(threads).schedule(schedule);
            let (scheduled, _) = request.collect();
            let (mut streamed, _) =
                request.stream(|stream| stream.collect::<Vec<(usize, Answer)>>());
            streamed.sort_by_key(|(i, _)| *i);
            assert_eq!(streamed.len(), queries.len());
            for (i, ((idx, st), sq)) in streamed.iter().zip(sequential.iter()).enumerate() {
                assert_eq!(i, *idx, "stream lost or duplicated an index");
                assert!(
                    st.same_results(sq),
                    "streamed query {i} diverged at {threads} threads / {schedule:?}"
                );
                assert!(
                    st.same_results(&scheduled[i]),
                    "stream vs collected batch diverged at query {i}"
                );
            }
        }
    }
}

#[test]
fn self_join_contains_every_point_with_itself() {
    let w = world(8);
    let pts = sample_entities(&w.city, 20, 160);
    let s = EntityIndex::build(RTreeConfig::tiny(8), pts);
    let join = distance_join(&s, &s, &w.obstacles, 0.0, EngineOptions::default());
    // d_O(x, x) = 0 ≤ 0 for all 20 points (plus any exact duplicates).
    assert!(join.pairs.len() >= 20);
    let self_pairs = join
        .pairs
        .iter()
        .filter(|(a, b, d)| a == b && *d == 0.0)
        .count();
    assert_eq!(self_pairs, 20);
}

//! Backend-equivalence oracle suite: every operator must answer
//! **bit-identically** on the paged R*-tree and the packed static tree.
//!
//! The packed backend visits leaves in Hilbert order while the paged
//! tree follows its R* topology, so candidate *orders* differ — but all
//! six operators are pure functions of the candidate *sets*, and the
//! obstructed distances they refine are sums over the same visibility
//! edges. Answers are therefore compared after canonical sorting, with
//! distances compared by `f64::to_bits` (no epsilon): any backend
//! divergence, however small, fails the suite.
//!
//! Covered, per the PR 6 acceptance bar:
//! * OR (range), ONN + iONN (nearest, incremental), ODJ (e-distance
//!   join), distance semi-join (both strategies), OCP + iOCP (closest
//!   pairs, incremental), and obstructed shortest paths;
//! * the concurrent batch engine at 1/2/4/8 worker threads under both
//!   schedules, every run compared to the paged sequential loop;
//! * a packed tree surviving a persist → decode → query round-trip.

use obstacle_core::{
    closest_pairs, distance_join, incremental_closest_pairs, semi_join, shortest_obstructed_path,
    Answer, EngineOptions, EntityIndex, ObstacleIndex, Query, QueryEngine, Schedule,
    SemiJoinStrategy,
};
use obstacle_datagen::{batch_workload, sample_entities, BatchMix, BatchQuery, City, CityConfig};
use obstacle_geom::Point;
use obstacle_rtree::{AnyTree, Backend, Item, RTreeConfig, TreeBackend};
use obstacle_visibility::EdgeBuilder;

/// One city scene indexed twice — identical data, different storage.
struct Worlds {
    paged_entities: EntityIndex,
    paged_obstacles: ObstacleIndex,
    packed_entities: EntityIndex,
    packed_obstacles: ObstacleIndex,
    city: City,
}

fn worlds(seed: u64) -> Worlds {
    // Small enough for debug-mode obstructed refinement, dense enough
    // that every operator meets real detours (cf. the schedule suite).
    let city = City::generate(CityConfig::new(64, seed));
    let points = sample_entities(&city, 48, seed ^ 0xE11);
    let paged = RTreeConfig::tiny(8);
    let packed = RTreeConfig::tiny(8).with_backend(Backend::Packed);
    Worlds {
        paged_entities: EntityIndex::build(paged, points.clone()),
        paged_obstacles: ObstacleIndex::build(paged, city.obstacles.clone()),
        packed_entities: EntityIndex::build(packed, points),
        packed_obstacles: ObstacleIndex::build(packed, city.obstacles.clone()),
        city,
    }
}

/// Canonical form of a scored id list: sorted by (distance bits, id),
/// distances collapsed to their exact bit patterns.
fn canon(rows: &[(u64, f64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = rows.iter().map(|&(id, d)| (d.to_bits(), id)).collect();
    v.sort_unstable();
    v.into_iter().map(|(bits, id)| (id, bits)).collect()
}

/// Canonical form of scored id pairs.
fn canon_pairs(rows: &[(u64, u64, f64)]) -> Vec<(u64, u64, u64)> {
    let mut v: Vec<(u64, u64, u64)> = rows.iter().map(|&(a, b, d)| (d.to_bits(), a, b)).collect();
    v.sort_unstable();
    v.into_iter().map(|(bits, a, b)| (a, b, bits)).collect()
}

#[test]
fn range_nearest_and_paths_answer_identically() {
    let w = worlds(0xBE01);
    let paged = QueryEngine::new(&w.paged_entities, &w.paged_obstacles);
    let packed = QueryEngine::new(&w.packed_entities, &w.packed_obstacles);

    let probes = [
        Point::new(0.2, 0.3),
        Point::new(0.51, 0.49),
        Point::new(0.85, 0.12),
    ];
    for q in probes {
        // OR at two radii (the second large enough to absorb detours).
        for e in [0.08, 0.3] {
            let a = paged.range(q, e);
            let b = packed.range(q, e);
            assert_eq!(canon(&a.hits), canon(&b.hits), "range({q}, {e})");
        }
        // ONN.
        for k in [1usize, 4] {
            let a = paged.nearest(q, k);
            let b = packed.nearest(q, k);
            assert_eq!(
                canon(&a.neighbors),
                canon(&b.neighbors),
                "nearest({q}, {k})"
            );
        }
        // iONN prefix.
        let a: Vec<(u64, f64)> = paged.nearest_incremental(q).take(6).collect();
        let b: Vec<(u64, f64)> = packed.nearest_incremental(q).take(6).collect();
        assert_eq!(canon(&a), canon(&b), "nearest_incremental({q})");
    }

    // Obstructed shortest paths: distance and the polyline itself.
    let (from, to) = (Point::new(0.02, 0.03), Point::new(0.97, 0.95));
    let a = shortest_obstructed_path(from, to, &w.paged_obstacles, EdgeBuilder::RotationalSweep)
        .expect("corners connected");
    let b = shortest_obstructed_path(from, to, &w.packed_obstacles, EdgeBuilder::RotationalSweep)
        .expect("corners connected");
    assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "path distance");
    assert_eq!(a.points, b.points, "path polyline");
}

#[test]
fn joins_and_closest_pairs_answer_identically() {
    let w = worlds(0xBE02);
    let t_points = sample_entities(&w.city, 40, 0xBE03);
    let paged_t = EntityIndex::build(RTreeConfig::tiny(8), t_points.clone());
    let packed_t = EntityIndex::build(RTreeConfig::tiny(8).with_backend(Backend::Packed), t_points);
    let opts = EngineOptions::default;

    // ODJ.
    for e in [0.02, 0.06] {
        let a = distance_join(&w.paged_entities, &paged_t, &w.paged_obstacles, e, opts());
        let b = distance_join(
            &w.packed_entities,
            &packed_t,
            &w.packed_obstacles,
            e,
            opts(),
        );
        assert_eq!(canon_pairs(&a.pairs), canon_pairs(&b.pairs), "join e = {e}");
    }

    // Semi-join, both strategies (strategy equivalence is its own suite;
    // here each strategy is pinned across backends).
    for strategy in [
        SemiJoinStrategy::PerObjectNn,
        SemiJoinStrategy::IncrementalClosestPairs,
    ] {
        let a = semi_join(
            &w.paged_entities,
            &paged_t,
            &w.paged_obstacles,
            strategy,
            opts(),
        );
        let b = semi_join(
            &w.packed_entities,
            &packed_t,
            &w.packed_obstacles,
            strategy,
            opts(),
        );
        assert_eq!(
            canon_pairs(&a.pairs),
            canon_pairs(&b.pairs),
            "semi-join {strategy:?}"
        );
    }

    // OCP and iOCP.
    let a = closest_pairs(&w.paged_entities, &paged_t, &w.paged_obstacles, 5, opts());
    let b = closest_pairs(
        &w.packed_entities,
        &packed_t,
        &w.packed_obstacles,
        5,
        opts(),
    );
    assert_eq!(
        canon_pairs(&a.pairs),
        canon_pairs(&b.pairs),
        "closest pairs"
    );

    let a: Vec<(u64, u64, f64)> =
        incremental_closest_pairs(&w.paged_entities, &paged_t, &w.paged_obstacles, opts())
            .take(5)
            .collect();
    let b: Vec<(u64, u64, f64)> =
        incremental_closest_pairs(&w.packed_entities, &packed_t, &w.packed_obstacles, opts())
            .take(5)
            .collect();
    assert_eq!(
        canon_pairs(&a),
        canon_pairs(&b),
        "incremental closest pairs"
    );
}

/// The datagen→core query mapping (duplicated from the bench crate so
/// this suite stays a core-only dependency).
fn to_query(spec: &BatchQuery) -> Query {
    match *spec {
        BatchQuery::Range { q, e } => Query::Range { q, e },
        BatchQuery::Nearest { q, k } => Query::Nearest { q, k: k.min(5) },
        BatchQuery::DistanceJoin { e } => Query::DistanceJoin { e },
        BatchQuery::SemiJoin => Query::SemiJoin {
            strategy: SemiJoinStrategy::PerObjectNn,
        },
        BatchQuery::ClosestPairs { k } => Query::ClosestPairs { k: k.min(5) },
        BatchQuery::Path { from, to } => Query::Path { from, to },
    }
}

#[test]
fn batch_engine_is_backend_invariant_at_every_thread_count() {
    let w = worlds(0xBE04);
    let queries: Vec<Query> = batch_workload(&w.city, 16, 0xBE05, BatchMix::point_queries())
        .iter()
        .map(to_query)
        .collect();

    let paged = QueryEngine::new(&w.paged_entities, &w.paged_obstacles);
    let packed = QueryEngine::new(&w.packed_entities, &w.packed_obstacles);
    // Oracle: the paged sequential loop.
    let oracle: Vec<Answer> = queries.iter().map(|q| paged.execute(q)).collect();
    assert!(oracle.iter().any(|a| a.result_count() > 0));

    for (name, engine) in [("paged", &paged), ("packed", &packed)] {
        for threads in [1usize, 2, 4, 8] {
            for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
                let (answers, _) = engine
                    .batch(&queries)
                    .threads(threads)
                    .schedule(schedule)
                    .collect();
                for (i, (a, o)) in answers.iter().zip(oracle.iter()).enumerate() {
                    assert!(
                        a.same_results(o),
                        "query {i} diverged on {name} at {threads} threads under {schedule:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn packed_tree_survives_persist_decode_query_round_trip() {
    let city = City::generate(CityConfig::new(96, 0xBE06));
    let items: Vec<Item> = sample_entities(&city, 64, 0xBE07)
        .iter()
        .enumerate()
        .map(|(i, &p)| Item::point(p, i as u64))
        .collect();
    let config = RTreeConfig::tiny(8).with_backend(Backend::Packed);
    let packed = AnyTree::build(config, items.clone());
    let paged = AnyTree::build(RTreeConfig::tiny(8), items);

    let bytes = packed.to_bytes();
    let decoded = AnyTree::from_bytes(&bytes).expect("valid packed image");
    assert_eq!(decoded.backend(), Backend::Packed);
    assert_eq!(decoded.len(), packed.len());

    let q = Point::new(0.42, 0.58);
    let window = obstacle_geom::Rect::from_coords(0.2, 0.1, 0.7, 0.8);
    for tree in [&decoded, &paged] {
        // Range by window, disk, and scored bound — then nearest.
        let mut a: Vec<u64> = packed.range_rect(&window).iter().map(|i| i.id).collect();
        let mut b: Vec<u64> = tree.range_rect(&window).iter().map(|i| i.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "range_rect");

        let a: Vec<(u64, f64)> = packed
            .range_circle(q, 0.25)
            .iter()
            .map(|i| (i.id, i.mbr.mindist_point(q)))
            .collect();
        let b: Vec<(u64, f64)> = tree
            .range_circle(q, 0.25)
            .iter()
            .map(|i| (i.id, i.mbr.mindist_point(q)))
            .collect();
        assert_eq!(canon(&a), canon(&b), "range_circle");

        let a: Vec<(u64, f64)> = packed
            .range_by_bound(&|r| r.mindist_point(q), 0.2)
            .iter()
            .map(|&(i, s)| (i.id, s))
            .collect();
        let b: Vec<(u64, f64)> = tree
            .range_by_bound(&|r| r.mindist_point(q), 0.2)
            .iter()
            .map(|&(i, s)| (i.id, s))
            .collect();
        assert_eq!(canon(&a), canon(&b), "range_by_bound");

        let a: Vec<(u64, f64)> = packed
            .k_nearest(q, 9)
            .iter()
            .map(|&(i, d)| (i.id, d))
            .collect();
        let b: Vec<(u64, f64)> = tree
            .k_nearest(q, 9)
            .iter()
            .map(|&(i, d)| (i.id, d))
            .collect();
        assert_eq!(canon(&a), canon(&b), "k_nearest");
    }

    // A re-serialized decoded tree is byte-identical (stable format).
    assert_eq!(&*decoded.to_bytes(), &*bytes);
}

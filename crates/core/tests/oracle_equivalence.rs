//! End-to-end correctness: every query operator must agree exactly with
//! the brute-force oracle (global naive visibility graph + Dijkstra) on
//! generated cities.

use obstacle_core::{
    closest_pairs, distance_join, incremental_closest_pairs, BruteForce, EngineOptions,
    EntityIndex, ObstacleIndex, QueryEngine,
};
use obstacle_datagen::{query_workload, sample_entities, City, CityConfig};
use obstacle_rtree::{RTreeConfig, TreeBackend};

const TOL: f64 = 1e-9;

struct World {
    entities: EntityIndex,
    obstacles: ObstacleIndex,
    oracle: BruteForce,
    entity_points: Vec<obstacle_geom::Point>,
    queries: Vec<obstacle_geom::Point>,
}

fn world(obstacle_count: usize, entity_count: usize, seed: u64) -> World {
    let city = City::generate(CityConfig::new(obstacle_count, seed));
    let entity_points = sample_entities(&city, entity_count, seed + 1);
    let queries = query_workload(&city, 6, seed + 2);
    World {
        entities: EntityIndex::build(RTreeConfig::tiny(8), entity_points.clone()),
        obstacles: ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone()),
        oracle: BruteForce::new(city.obstacles),
        entity_points,
        queries,
    }
}

#[test]
fn range_matches_oracle() {
    for seed in [1u64, 2, 3] {
        let w = world(25, 40, seed);
        let engine = QueryEngine::new(&w.entities, &w.obstacles);
        for &q in &w.queries {
            for e in [0.05, 0.15, 0.4] {
                let got = engine.range(q, e);
                let expect = w.oracle.range(&w.entity_points, q, e);
                assert_eq!(
                    got.hits.len(),
                    expect.len(),
                    "seed {seed} q {q} e {e}: {:?} vs {:?}",
                    got.hits,
                    expect
                );
                for (g, x) in got.hits.iter().zip(expect.iter()) {
                    assert_eq!(g.0, x.0, "seed {seed} q {q} e {e}");
                    assert!((g.1 - x.1).abs() < TOL);
                }
            }
        }
    }
}

/// The lazy multi-target range engine against the seed's materialized
/// formulation (Fig. 5 verbatim: build the full local visibility graph
/// over `q ∪ P' ∪ O'`, then one bounded Dijkstra expansion) on city
/// scenes — both rectangle and convex-polygon obstacles, several radii.
#[test]
fn lazy_range_matches_materialized_local_graph() {
    use obstacle_datagen::ObstacleShape;
    use obstacle_visibility::{bounded_expansion, NodeKind, VisibilityGraph};

    for (shape, seed) in [
        (ObstacleShape::StreetRect, 0xA1u64),
        (ObstacleShape::ConvexPolygon { max_vertices: 7 }, 0xA2),
    ] {
        let city = City::generate(CityConfig {
            obstacle_count: 80,
            seed,
            shape,
            ..CityConfig::default()
        });
        let entity_points = sample_entities(&city, 120, seed + 1);
        let entities = EntityIndex::bulk_load(RTreeConfig::tiny(8), entity_points.clone());
        let obstacles = ObstacleIndex::bulk_load(RTreeConfig::tiny(8), city.obstacles.clone());
        let engine = QueryEngine::new(&entities, &obstacles);
        for q in query_workload(&city, 4, seed + 2) {
            for e in [0.08, 0.2, 0.5] {
                let lazy = engine.range(q, e);

                // Materialized reference, exactly as the seed computed it.
                let cand = entities.tree().range_circle(q, e);
                let relevant = obstacles.tree().range_circle(q, e);
                let mut expect: Vec<(u64, f64)> = Vec::new();
                if !cand.is_empty() {
                    let (graph, waypoints) = VisibilityGraph::build(
                        relevant
                            .iter()
                            .map(|item| (obstacles.polygon(item.id).clone(), item.id)),
                        std::iter::once((q, u64::MAX))
                            .chain(cand.iter().map(|item| (item.mbr.min, item.id))),
                    );
                    for (node, d) in bounded_expansion(&graph, waypoints[0], e) {
                        if node == waypoints[0] {
                            continue;
                        }
                        if let NodeKind::Waypoint { tag } = graph.kind(node) {
                            expect.push((tag, d));
                        }
                    }
                }

                assert_eq!(
                    lazy.hits.len(),
                    expect.len(),
                    "seed {seed:#x} q {q} e {e}: {:?} vs {:?}",
                    lazy.hits,
                    expect
                );
                for (g, x) in lazy.hits.iter().zip(expect.iter()) {
                    assert_eq!(g.0, x.0, "seed {seed:#x} q {q} e {e}");
                    assert!((g.1 - x.1).abs() < TOL, "{} vs {}", g.1, x.1);
                }
            }
        }
    }
}

#[test]
fn nearest_matches_oracle() {
    for seed in [4u64, 5] {
        let w = world(25, 40, seed);
        let engine = QueryEngine::new(&w.entities, &w.obstacles);
        for &q in &w.queries {
            for k in [1usize, 4, 9] {
                let got = engine.nearest(q, k);
                let expect = w.oracle.nearest(&w.entity_points, q, k);
                assert_eq!(got.neighbors.len(), expect.len());
                for (g, x) in got.neighbors.iter().zip(expect.iter()) {
                    // Ties can permute ids; distances must match exactly.
                    assert!(
                        (g.1 - x.1).abs() < TOL,
                        "seed {seed} q {q} k {k}: {:?} vs {:?}",
                        got.neighbors,
                        expect
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_nearest_matches_batch() {
    let w = world(20, 30, 6);
    let engine = QueryEngine::new(&w.entities, &w.obstacles);
    for &q in &w.queries[..3] {
        let batch = engine.nearest(q, 12).neighbors;
        let inc: Vec<(u64, f64)> = engine.nearest_incremental(q).take(12).collect();
        assert_eq!(batch.len(), inc.len());
        for (b, i) in batch.iter().zip(inc.iter()) {
            assert!((b.1 - i.1).abs() < TOL);
        }
    }
}

#[test]
fn join_matches_oracle() {
    for seed in [7u64, 8] {
        let city = City::generate(CityConfig::new(20, seed));
        let s_pts = sample_entities(&city, 25, seed + 10);
        let t_pts = sample_entities(&city, 18, seed + 20);
        let s = EntityIndex::build(RTreeConfig::tiny(8), s_pts.clone());
        let t = EntityIndex::build(RTreeConfig::tiny(8), t_pts.clone());
        let o = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
        let oracle = BruteForce::new(city.obstacles);
        for e in [0.05, 0.2] {
            let got = distance_join(&s, &t, &o, e, EngineOptions::default());
            let expect = oracle.join(&s_pts, &t_pts, e);
            let mut g: Vec<(u64, u64)> = got.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
            let mut x: Vec<(u64, u64)> = expect.iter().map(|(a, b, _)| (*a, *b)).collect();
            g.sort_unstable();
            x.sort_unstable();
            assert_eq!(g, x, "seed {seed} e {e}");
            // Distances agree pair-by-pair.
            for (a, b, d) in &got.pairs {
                let xd = expect
                    .iter()
                    .find(|(i, j, _)| i == a && j == b)
                    .map(|(_, _, d)| *d)
                    .unwrap();
                assert!((d - xd).abs() < TOL);
            }
        }
    }
}

#[test]
fn closest_pairs_match_oracle() {
    for seed in [9u64, 10] {
        let city = City::generate(CityConfig::new(18, seed));
        let s_pts = sample_entities(&city, 15, seed + 10);
        let t_pts = sample_entities(&city, 12, seed + 20);
        let s = EntityIndex::build(RTreeConfig::tiny(8), s_pts.clone());
        let t = EntityIndex::build(RTreeConfig::tiny(8), t_pts.clone());
        let o = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
        let oracle = BruteForce::new(city.obstacles);
        for k in [1usize, 5, 16] {
            let got = closest_pairs(&s, &t, &o, k, EngineOptions::default());
            let expect = oracle.closest_pairs(&s_pts, &t_pts, k);
            assert_eq!(got.pairs.len(), expect.len());
            for (g, x) in got.pairs.iter().zip(expect.iter()) {
                assert!(
                    (g.2 - x.2).abs() < TOL,
                    "seed {seed} k {k}: {:?} vs {:?}",
                    got.pairs,
                    expect
                );
            }
        }
    }
}

#[test]
fn incremental_closest_pairs_match_batch() {
    let city = City::generate(CityConfig::new(15, 11));
    let s_pts = sample_entities(&city, 10, 30);
    let t_pts = sample_entities(&city, 8, 40);
    let s = EntityIndex::build(RTreeConfig::tiny(8), s_pts);
    let t = EntityIndex::build(RTreeConfig::tiny(8), t_pts);
    let o = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles);
    let batch = closest_pairs(&s, &t, &o, 20, EngineOptions::default());
    let inc: Vec<(u64, u64, f64)> = incremental_closest_pairs(&s, &t, &o, EngineOptions::default())
        .take(20)
        .collect();
    assert_eq!(batch.pairs.len(), inc.len());
    for (b, i) in batch.pairs.iter().zip(inc.iter()) {
        assert!((b.2 - i.2).abs() < TOL);
    }
}

#[test]
fn polygonal_obstacles_match_oracle() {
    // Convex-polygon obstacles exercise the general (non-rectangle) code
    // paths end to end.
    use obstacle_datagen::{CityConfig as CC, ObstacleShape};
    for seed in [13u64, 14] {
        let city = City::generate(CC {
            shape: ObstacleShape::ConvexPolygon { max_vertices: 8 },
            ..CC::new(25, seed)
        });
        let pts = sample_entities(&city, 35, seed + 1);
        let entities = EntityIndex::build(RTreeConfig::tiny(8), pts.clone());
        let obstacles = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
        let oracle = BruteForce::new(city.obstacles.clone());
        let engine = QueryEngine::new(&entities, &obstacles);
        for &q in &query_workload(&city, 4, seed + 2) {
            let got = engine.nearest(q, 6);
            let expect = oracle.nearest(&pts, q, 6);
            assert_eq!(got.neighbors.len(), expect.len());
            for (g, x) in got.neighbors.iter().zip(expect.iter()) {
                assert!(
                    (g.1 - x.1).abs() < TOL,
                    "seed {seed} q {q}: {:?} vs {:?}",
                    got.neighbors,
                    expect
                );
            }
            let r = engine.range(q, 0.2);
            let er = oracle.range(&pts, q, 0.2);
            assert_eq!(r.hits.len(), er.len());
        }
    }
}

#[test]
fn naive_builder_produces_identical_results() {
    use obstacle_visibility::EdgeBuilder;
    let w = world(22, 30, 12);
    let q = w.queries[0];
    let reference = QueryEngine::new(&w.entities, &w.obstacles).nearest(q, 8);
    let opts = EngineOptions {
        builder: EdgeBuilder::Naive,
    };
    let r = QueryEngine::with_options(&w.entities, &w.obstacles, opts).nearest(q, 8);
    assert_eq!(r.neighbors.len(), reference.neighbors.len());
    for (a, b) in r.neighbors.iter().zip(reference.neighbors.iter()) {
        assert!((a.1 - b.1).abs() < TOL);
    }
}

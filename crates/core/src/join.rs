//! Obstacle e-distance join (ODJ — §5, Fig. 10).

use crate::batch::SceneCache;
use crate::distance::compute_obstructed_range;
use crate::engine::{EngineOptions, EntityIndex, ObstacleIndex};
use crate::stats::{JoinResult, QueryStats};
use crate::QUERY_TAG;
use obstacle_geom::{hilbert_index_unit, Rect};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::TreeBackend;
use obstacle_visibility::{NodeId, NodeKind};
use std::collections::HashMap;

/// All pairs `(s, t) ∈ S × T` with obstructed distance at most `e`.
///
/// Implements ODJ (Fig. 10) on the lazy scene (the engine ONN and OR
/// already use — no materialized visibility graph remains in this crate):
///
/// 1. an Euclidean e-distance join over the two R-trees \[BKS93\]
///    produces candidate pairs (a superset, by the lower bound);
/// 2. the dataset contributing fewer **distinct** points to the candidate
///    pairs becomes the *seed* side — one obstacle range expansion per
///    distinct seed answers all of that seed's pairs (instead of one per
///    pair);
/// 3. seeds are processed in **Hilbert order**, so consecutive obstacle
///    R-tree range queries touch nearby pages and hit the LRU buffer —
///    and, since PR 4, consecutive seeds reuse one cached lazy scene
///    ([`SceneCache`]), amortizing obstacle absorption and visibility
///    sweeps exactly as the Hilbert order intends;
/// 4. per seed, false hits are eliminated exactly like an obstacle range
///    query (one bounded lazy Dijkstra expansion at radius `e` via
///    [`compute_obstructed_range`], sweeping only nodes it settles).
pub fn distance_join(
    s: &EntityIndex,
    t: &EntityIndex,
    obstacles: &ObstacleIndex,
    e: f64,
    options: EngineOptions,
) -> JoinResult {
    let t0 = Stopwatch::start();
    let same_tree = std::ptr::eq(s, t);
    let s_io = s.tree().io_snapshot();
    let t_io = (!same_tree).then(|| t.tree().io_snapshot());
    let obstacle_io = obstacles.tree().io_snapshot();

    // Step 1: Euclidean candidates.
    let candidate_pairs = obstacle_rtree::distance_join(s.tree(), t.tree(), e);
    let candidates = candidate_pairs.len();

    // Step 2: choose the seed side.
    let mut s_partners: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut t_distinct: HashMap<u64, u32> = HashMap::new();
    for (si, ti) in &candidate_pairs {
        s_partners.entry(si.id).or_default().push(ti.id);
        *t_distinct.entry(ti.id).or_default() += 1;
    }
    let seed_from_s = !options.seed_side_heuristic || s_partners.len() <= t_distinct.len();
    let groups: HashMap<u64, Vec<u64>> = if seed_from_s {
        s_partners
    } else {
        let mut g: HashMap<u64, Vec<u64>> = HashMap::new();
        for (si, ti) in &candidate_pairs {
            g.entry(ti.id).or_default().push(si.id);
        }
        g
    };
    let (seed_set, partner_set) = if seed_from_s { (s, t) } else { (t, s) };

    // Step 3: Hilbert-order the seeds for obstacle-buffer locality.
    // Falling back to the entity extent (then the unit square) keeps the
    // Hilbert order meaningful when the obstacle set is empty or has been
    // emptied by deletes — an empty tree must not collapse every seed key
    // to the unit-square clamp.
    let universe = obstacles
        .extent()
        .or_else(|| match (s.extent(), t.extent()) {
            (Some(a), Some(b)) => Some(a.union(&b)),
            (a, b) => a.or(b),
        })
        .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 1.0, 1.0));
    let mut seeds: Vec<u64> = groups.keys().copied().collect();
    if options.hilbert_seed_order {
        seeds.sort_by_key(|id| hilbert_index_unit(seed_set.position(*id), &universe));
    } else {
        seeds.sort_unstable();
    }

    // Step 4: per-seed obstacle-range elimination over one cached lazy
    // scene. Hilbert-adjacent seeds have overlapping disks, so the cache
    // almost always keeps its scene warm; a jump to a far-away seed (or
    // budget exhaustion) retires it. The `reuse_graph` ablation disables
    // the cross-seed reuse (every seed pays a fresh scene), mirroring
    // its contract for ONN candidates and `execute_with`.
    let mut pairs = Vec::new();
    let mut peak_graph_nodes = 0usize;
    let mut distance_computations = 0usize;
    let mut cache = SceneCache::new(options);
    let slack = SceneCache::slack_for(&universe);
    let mut fresh;
    for seed in seeds {
        let q_pos = seed_set.position(seed);
        let partners = &groups[&seed];
        let region = Rect::from_coords(q_pos.x - e, q_pos.y - e, q_pos.x + e, q_pos.y + e);
        let graph = if options.reuse_graph {
            cache.scene_for(region, slack)
        } else {
            fresh = crate::distance::LocalGraph::new(options.builder);
            &mut fresh
        };
        let q_node = graph.add_waypoint(q_pos, QUERY_TAG);
        let targets: Vec<NodeId> = partners
            .iter()
            .map(|&pid| graph.add_waypoint(partner_set.position(pid), pid))
            .collect();
        distance_computations += 1;
        for (node, d) in compute_obstructed_range(graph, q_node, &targets, obstacles, e) {
            if node == q_node {
                continue;
            }
            if let NodeKind::Waypoint { tag } = graph.scene.kind(node) {
                if seed_from_s {
                    pairs.push((seed, tag, d));
                } else {
                    pairs.push((tag, seed, d));
                }
            }
        }
        peak_graph_nodes = peak_graph_nodes.max(graph.scene.node_count());
        for t in targets {
            graph.remove_waypoint(t);
        }
        graph.remove_waypoint(q_node);
    }

    let mut entity_io = s_io.finish();
    if let Some(t_io) = t_io {
        let t_io = t_io.finish();
        entity_io.reads += t_io.reads;
        entity_io.buffer_hits += t_io.buffer_hits;
        entity_io.writes += t_io.writes;
    }
    let obstacle_io = obstacle_io.finish();
    let stats = QueryStats {
        entity_reads: entity_io.reads,
        obstacle_reads: obstacle_io.reads,
        entity_fetches: entity_io.fetches(),
        obstacle_fetches: obstacle_io.fetches(),
        cpu: t0.elapsed(),
        candidates,
        results: pairs.len(),
        false_hits: candidates - pairs.len(),
        distance_computations,
        peak_graph_nodes,
    };
    JoinResult { pairs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::{Point, Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    fn scene() -> (EntityIndex, EntityIndex, ObstacleIndex) {
        // S points on the west, T points on the east, wall between some.
        let s = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(0.0, 0.0), Point::new(0.0, 3.0)],
        );
        let t = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(2.0, 0.0), Point::new(2.0, 3.0)],
        );
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            // Wall between (0,0) and (2,0) only.
            vec![Polygon::from_rect(Rect::from_coords(0.9, -1.0, 1.1, 1.0))],
        );
        (s, t, obstacles)
    }

    #[test]
    fn join_eliminates_blocked_pairs() {
        let (s, t, o) = scene();
        // Euclidean pairs within 2.0: (0,0)↔(2,0) and (0,1)↔(2,1) at 2.0.
        // The wall stretches pair (0,0): d_O ≈ 2.9 — a false hit.
        let r = distance_join(&s, &t, &o, 2.0, EngineOptions::default());
        let mut ids: Vec<(u64, u64)> = r.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![(1, 1)]);
        assert_eq!(r.stats.candidates, 2);
        assert_eq!(r.stats.false_hits, 1);
    }

    #[test]
    fn wider_range_admits_the_detour() {
        let (s, t, o) = scene();
        let r = distance_join(&s, &t, &o, 3.0, EngineOptions::default());
        let mut ids: Vec<(u64, u64)> = r.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![(0, 0), (1, 1)]);
        let d00 = r
            .pairs
            .iter()
            .find(|(a, b, _)| (*a, *b) == (0, 0))
            .unwrap()
            .2;
        let detour = Point::new(0.0, 0.0).dist(Point::new(0.9, 1.0))
            + 0.2
            + Point::new(1.1, 1.0).dist(Point::new(2.0, 0.0));
        assert!((d00 - detour).abs() < 1e-9);
    }

    #[test]
    fn seed_side_and_hilbert_options_do_not_change_results() {
        let (s, t, o) = scene();
        let base = distance_join(&s, &t, &o, 3.0, EngineOptions::default());
        for (hilbert, heuristic) in [(false, true), (true, false), (false, false)] {
            let opts = EngineOptions {
                hilbert_seed_order: hilbert,
                seed_side_heuristic: heuristic,
                ..Default::default()
            };
            let r = distance_join(&s, &t, &o, 3.0, opts);
            let mut a: Vec<(u64, u64)> = base.pairs.iter().map(|(x, y, _)| (*x, *y)).collect();
            let mut b: Vec<(u64, u64)> = r.pairs.iter().map(|(x, y, _)| (*x, *y)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_inputs_yield_empty_join() {
        let (s, _, o) = scene();
        let empty = EntityIndex::build(RTreeConfig::tiny(4), vec![]);
        let r = distance_join(&s, &empty, &o, 5.0, EngineOptions::default());
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.candidates, 0);
    }
}

//! Obstacle e-distance join (ODJ — §5, Fig. 10).

use crate::batch::{direct_workers, fan_out};
use crate::distance::{compute_obstructed_range, LocalGraph};
use crate::engine::{universe_of, EngineOptions, EntityIndex, ObstacleIndex};
use crate::stats::{JoinResult, QueryStats};
use obstacle_geom::hilbert_index_unit;
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::{IoSnapshot, TreeBackend};
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
/// 3. seeds are processed in **Hilbert order** (ties by id), so
///    consecutive obstacle R-tree range queries touch nearby pages and
///    hit the LRU buffer;
/// 4. per seed, false hits are eliminated exactly like an obstacle range
///    query: one bounded lazy Dijkstra expansion at radius `e` via
///    [`compute_obstructed_range`], sweeping only nodes it settles, over
///    a local scene of the seed's own. A scene shared across seeds was
///    measured 1.1–2.8× slower (seeds are ~`e` apart and never repeat, so
///    the earlier seeds' obstacles cost more to classify against than
///    their cached sweeps save; `CHANGES.md`, PR 22). A direct call
///    spreads the seeds over one worker per core; rows keep their order.
pub fn distance_join(
    s: &EntityIndex,
    t: &EntityIndex,
    obstacles: &ObstacleIndex,
    e: f64,
    options: EngineOptions,
) -> JoinResult {
    distance_join_on(s, t, obstacles, e, options, direct_workers())
}

/// [`distance_join`] with step 4's seeds claimed by `workers` threads of
/// the batch engine's claim loop (`1`: inline, as batch workers run it).
pub(crate) fn distance_join_on(
    s: &EntityIndex,
    t: &EntityIndex,
    obstacles: &ObstacleIndex,
    e: f64,
    options: EngineOptions,
    workers: usize,
) -> JoinResult {
    let t0 = Stopwatch::start();
    let same_tree = std::ptr::eq(s, t);
    let s_io = s.tree().io_snapshot();
    let t_io = (!same_tree).then(|| t.tree().io_snapshot());

    // Step 1: Euclidean candidates (the only entity-tree accesses).
    let candidate_pairs = obstacle_rtree::distance_join(s.tree(), t.tree(), e);
    let candidates = candidate_pairs.len();
    let entity_io = s_io.finish() + t_io.map(IoSnapshot::finish).unwrap_or_default();

    // Step 2: choose the seed side.
    let mut s_partners: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut t_distinct: HashMap<u64, u32> = HashMap::new();
    for (si, ti) in &candidate_pairs {
        s_partners.entry(si.id).or_default().push(ti.id);
        *t_distinct.entry(ti.id).or_default() += 1;
    }
    let seed_from_s = s_partners.len() <= t_distinct.len();
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

    // Step 3: Hilbert-order the seeds for obstacle-buffer locality, over
    // a universe that falls back to the two entity extents when the
    // obstacle set is empty or has been emptied by deletes. The id breaks
    // ties inside one Hilbert cell: `groups` iterates in hash order,
    // which must not reach `pairs`.
    let universe = universe_of(obstacles, &[s, t]);
    let mut seeds: Vec<u64> = groups.keys().copied().collect();
    seeds.sort_by_cached_key(|&id| (hilbert_index_unit(seed_set.position(id), &universe), id));

    // Step 4: per-seed obstacle-range elimination, each seed on a local
    // scene of its own (Fig. 10 as written) and an obstacle-tree window
    // on the thread that runs it, so the windows sum to the join's I/O.
    let per_seed = fan_out(seeds.len(), workers, |rank| {
        let seed = seeds[rank];
        let obstacle_io = obstacles.tree().io_snapshot();
        let partners = groups[&seed]
            .iter()
            .map(|&pid| (partner_set.position(pid), pid));
        let mut graph = LocalGraph::new(options.builder);
        let q = seed_set.position(seed);
        let (hits, peak_graph_nodes) =
            compute_obstructed_range(&mut graph, q, partners, obstacles, e);
        let rows: Vec<_> = hits
            .into_iter()
            .map(|(pid, d)| {
                if seed_from_s {
                    (seed, pid, d)
                } else {
                    (pid, seed, d)
                }
            })
            .collect();
        let io = obstacle_io.finish();
        let stats = QueryStats {
            obstacle_reads: io.reads,
            obstacle_fetches: io.fetches(),
            distance_computations: 1,
            peak_graph_nodes,
            ..QueryStats::default()
        };
        (rows, stats)
    });

    let mut stats = QueryStats {
        entity_reads: entity_io.reads,
        entity_fetches: entity_io.fetches(),
        candidates,
        ..QueryStats::default()
    };
    let mut pairs = Vec::new();
    for (rows, seed_stats) in per_seed {
        pairs.extend(rows);
        stats.accumulate(&seed_stats);
    }
    stats.cpu = t0.elapsed();
    stats.results = pairs.len();
    stats.false_hits = candidates - pairs.len();
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
    fn seeds_in_one_hilbert_cell_come_out_in_id_order() {
        // Two S points 1e-7 apart share a cell of the 2^16 Hilbert grid
        // over the unit universe; each is within e of both T points.
        let corners = [(0.0, 0.0, 0.01, 0.01), (0.99, 0.99, 1.0, 1.0)]
            .map(|(a, b, c, d)| Polygon::from_rect(Rect::from_coords(a, b, c, d)));
        let o = ObstacleIndex::build(RTreeConfig::tiny(4), corners.to_vec());
        let s_pts = vec![Point::new(0.5, 0.5), Point::new(0.5 + 1e-7, 0.5)];
        let universe = universe_of(&o, &[]);
        assert_eq!(
            hilbert_index_unit(s_pts[0], &universe),
            hilbert_index_unit(s_pts[1], &universe)
        );
        let s = EntityIndex::build(RTreeConfig::tiny(4), s_pts);
        let t = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(0.5, 0.51), Point::new(0.5, 0.49)],
        );
        let first = distance_join(&s, &t, &o, 0.02, EngineOptions::default()).pairs;
        assert_eq!(first.len(), 4);
        for _ in 0..31 {
            let again = distance_join(&s, &t, &o, 0.02, EngineOptions::default()).pairs;
            assert_eq!(again, first, "pair order must not follow HashMap iteration");
        }
    }

    #[test]
    fn every_seed_gets_a_scene_of_its_own() {
        // A street of 16 blocks, a seed in every gap, a partner above
        // every block: consecutive seeds' e-disks overlap, so a scene
        // shared across seeds would never retire and would end up holding
        // the whole street.
        let blocks: Vec<Polygon> = (0..16)
            .map(|i| {
                Polygon::from_rect(Rect::from_coords(i as f64 + 0.2, 0.0, i as f64 + 0.8, 1.0))
            })
            .collect();
        let s_pts: Vec<Point> = (1..16).map(|i| Point::new(i as f64, 0.5)).collect();
        let t_pts: Vec<Point> = (0..16).map(|i| Point::new(i as f64 + 0.5, 1.3)).collect();
        let o = ObstacleIndex::build(RTreeConfig::tiny(4), blocks.clone());
        let s = EntityIndex::build(RTreeConfig::tiny(4), s_pts.clone());
        let t = EntityIndex::build(RTreeConfig::tiny(4), t_pts.clone());
        let e = 1.0;
        let whole = distance_join(&s, &t, &o, e, EngineOptions::default());

        let largest_single = s_pts
            .iter()
            .map(|&p| {
                let one = EntityIndex::build(RTreeConfig::tiny(4), vec![p]);
                let r = distance_join(&one, &t, &o, e, EngineOptions::default());
                r.stats.peak_graph_nodes
            })
            .max();
        assert_eq!(Some(whole.stats.peak_graph_nodes), largest_single);

        let mut got = whole.pairs;
        got.sort_by_key(|&(a, b, _)| (a, b));
        let mut want = crate::brute::BruteForce::new(blocks).join(&s_pts, &t_pts, e);
        want.sort_by_key(|&(a, b, _)| (a, b));
        assert_eq!(got.len(), 30, "each seed reaches the partners either side");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.0, g.1), (w.0, w.1));
            assert!((g.2 - w.2).abs() < 1e-9);
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

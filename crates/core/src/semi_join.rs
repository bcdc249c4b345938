//! Obstructed distance semi-join.
//!
//! §2.1 of the paper defines the distance semi-join: for every point
//! `s ∈ S`, report its nearest neighbour `t ∈ T`. The paper notes two
//! evaluation strategies: (i) one NN query per object of `S`, or (ii)
//! consuming closest pairs incrementally until every `s` has appeared.
//! Both are implemented here — under the obstructed metric — and verified
//! against each other. On the benchmark's database (|S′| = 200,
//! |T| = 3 276, |O| = 32 768) (i) takes 22–26 ms and (ii) 1.57–1.79 s,
//! ≈ 70× slower: (ii) computes the obstructed distance of every pair
//! closer than the worst-served `s`'s neighbour. (ii) stays only as the
//! cross-check until the enum goes (`ROADMAP.md`, item 7).

use crate::batch::{direct_workers, fan_out};
use crate::closest_pair::incremental_closest_pairs;
use crate::engine::{EngineOptions, EntityIndex, ObstacleIndex, QueryEngine};
use crate::stats::{JoinResult, QueryStats};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::{IoSnapshot, TreeBackend};
use std::collections::HashMap;

/// Semi-join evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemiJoinStrategy {
    /// One obstructed 1-NN query in `T` per object of `S`.
    PerObjectNn,
    /// Consume incremental closest pairs until every `s ∈ S` is matched.
    IncrementalClosestPairs,
}

/// For each `s ∈ S`, its obstructed nearest neighbour in `T`.
///
/// Returns `(s id, t id, obstructed distance)` triples sorted by `s` id;
/// objects of `S` that cannot reach any `t` (entities sealed inside
/// obstacles) are omitted. A direct call spreads the `PerObjectNn` probes
/// over one worker per core; rows keep their order.
pub fn semi_join(
    s: &EntityIndex,
    t: &EntityIndex,
    obstacles: &ObstacleIndex,
    strategy: SemiJoinStrategy,
    options: EngineOptions,
) -> JoinResult {
    semi_join_on(s, t, obstacles, strategy, options, direct_workers())
}

/// [`semi_join`] with the `PerObjectNn` probes claimed by `workers`
/// threads of the batch engine's claim loop (`1`: inline, as batch workers run it).
pub(crate) fn semi_join_on(
    s: &EntityIndex,
    t: &EntityIndex,
    obstacles: &ObstacleIndex,
    strategy: SemiJoinStrategy,
    options: EngineOptions,
    workers: usize,
) -> JoinResult {
    let t0 = Stopwatch::start();
    let mut stats = QueryStats::default();
    let mut pairs: Vec<(u64, u64, f64)> = Vec::with_capacity(s.len());
    match strategy {
        SemiJoinStrategy::PerObjectNn => {
            // Probes attribute their own I/O on the thread that runs them
            // (`S` is read from memory), so their stats sum to the join's;
            // a false hit is a probe whose Euclidean NN is not its d_O NN.
            let engine = QueryEngine::with_options(t, obstacles, options);
            let probes: Vec<(u64, _)> = s.live_points().collect();
            let found = fan_out(probes.len(), workers, |i| engine.nearest(probes[i].1, 1));
            for ((sid, _), r) in probes.into_iter().zip(found) {
                stats.accumulate(&r.stats);
                if let Some(&(tid, d)) = r.neighbors.first() {
                    pairs.push((sid, tid, d));
                }
            }
        }
        SemiJoinStrategy::IncrementalClosestPairs => {
            let s_io = s.tree().io_snapshot();
            let t_io = (!std::ptr::eq(s, t)).then(|| t.tree().io_snapshot());
            let obstacle_io = obstacles.tree().io_snapshot();
            let mut best: HashMap<u64, (u64, f64)> = HashMap::with_capacity(s.len());
            for (sid, tid, d) in incremental_closest_pairs(s, t, obstacles, options) {
                stats.distance_computations += 1;
                // Pairs arrive in ascending obstructed distance, so the
                // first pair mentioning `sid` is its nearest neighbour.
                best.entry(sid).or_insert((tid, d));
                if best.len() == s.len() {
                    break;
                }
            }
            pairs.extend(best.into_iter().map(|(sid, (tid, d))| (sid, tid, d)));
            pairs.sort_by_key(|&(sid, _, _)| sid);
            let entity_io = s_io.finish() + t_io.map(IoSnapshot::finish).unwrap_or_default();
            let obstacle_io = obstacle_io.finish();
            stats.entity_reads = entity_io.reads;
            stats.obstacle_reads = obstacle_io.reads;
            stats.entity_fetches = entity_io.fetches();
            stats.obstacle_fetches = obstacle_io.fetches();
            stats.candidates = s.len();
            stats.results = pairs.len();
        }
    }
    stats.cpu = t0.elapsed();
    JoinResult { pairs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::{Point, Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    fn scene() -> (EntityIndex, EntityIndex, ObstacleIndex) {
        let s = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 3.0),
                Point::new(3.0, 1.5),
            ],
        );
        let t = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(2.0, 0.0), Point::new(2.0, 3.0)],
        );
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(0.9, -1.0, 1.1, 1.0))],
        );
        (s, t, obstacles)
    }

    #[test]
    fn both_strategies_agree() {
        let (s, t, o) = scene();
        let a = semi_join(
            &s,
            &t,
            &o,
            SemiJoinStrategy::PerObjectNn,
            EngineOptions::default(),
        );
        let b = semi_join(
            &s,
            &t,
            &o,
            SemiJoinStrategy::IncrementalClosestPairs,
            EngineOptions::default(),
        );
        assert_eq!(a.pairs.len(), b.pairs.len());
        for (x, y) in a.pairs.iter().zip(b.pairs.iter()) {
            assert_eq!(x.0, y.0);
            assert!((x.2 - y.2).abs() < 1e-12, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn obstruction_changes_the_assigned_neighbour() {
        let (s, t, o) = scene();
        let r = semi_join(
            &s,
            &t,
            &o,
            SemiJoinStrategy::PerObjectNn,
            EngineOptions::default(),
        );
        // s0 at (0,0): Euclidean NN is t0 at distance 2, but the wall
        // forces a 2.9 detour; t1 at (2,3) costs √13 ≈ 3.61 — so t0 still
        // wins, but with the obstructed distance recorded.
        let s0 = &r.pairs[0];
        assert_eq!(s0.1, 0);
        assert!(s0.2 > 2.0 + 0.5, "detour distance, got {}", s0.2);
        // s1 at (0,3): unobstructed straight line to t1.
        let s1 = &r.pairs[1];
        assert_eq!(s1.1, 1);
        assert!((s1.2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probe_stats_count_the_fig1_false_hit() {
        // The paper's Fig. 1: from q = (0, 0), a is the Euclidean NN but a
        // wall blocks it, so b is the obstructed NN and a is a false hit.
        let s = EntityIndex::build(RTreeConfig::tiny(4), vec![Point::new(0.0, 0.0)]);
        let t = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(2.0, 0.0), Point::new(0.0, 2.2)],
        );
        let o = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(1.0, -2.0, 1.2, 2.0))],
        );
        let r = semi_join(
            &s,
            &t,
            &o,
            SemiJoinStrategy::PerObjectNn,
            EngineOptions::default(),
        );
        assert_eq!(r.pairs.len(), 1);
        assert_eq!((r.pairs[0].0, r.pairs[0].1), (0, 1), "b wins under d_O");
        assert!((r.pairs[0].2 - 2.2).abs() < 1e-12);
        assert_eq!(r.stats.false_hits, 1);
        assert_eq!(r.stats.candidates, 2, "both Euclidean candidates examined");
        assert_eq!(r.stats.distance_computations, 2);
        assert!(r.stats.peak_graph_nodes > 0);
    }

    #[test]
    fn every_s_appears_once() {
        let (s, t, o) = scene();
        let r = semi_join(
            &s,
            &t,
            &o,
            SemiJoinStrategy::IncrementalClosestPairs,
            EngineOptions::default(),
        );
        let ids: Vec<u64> = r.pairs.iter().map(|(a, _, _)| *a).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn empty_s_or_t() {
        let (s, t, o) = scene();
        let empty = EntityIndex::build(RTreeConfig::tiny(4), vec![]);
        for strat in [
            SemiJoinStrategy::PerObjectNn,
            SemiJoinStrategy::IncrementalClosestPairs,
        ] {
            assert!(semi_join(&empty, &t, &o, strat, EngineOptions::default())
                .pairs
                .is_empty());
            assert!(semi_join(&s, &empty, &o, strat, EngineOptions::default())
                .pairs
                .is_empty());
        }
    }
}

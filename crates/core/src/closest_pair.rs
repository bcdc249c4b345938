//! Obstacle closest-pair queries (OCP — §6, Fig. 11; iOCP — Fig. 12).

use crate::distance::{compute_obstructed_distance, LocalGraph};
use crate::engine::{EngineOptions, EntityIndex, ObstacleIndex};
use crate::stats::{ClosestPairsResult, QueryStats};
use crate::QUERY_TAG;
use obstacle_geom::Point;
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::{AnyTree, ClosestPairs, IoSnapshot, OrdF64, TreeBackend};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Obstructed distance of one point pair on a fresh local graph, and the
/// graph's node count.
fn pair_distance(
    a: Point,
    b: Point,
    obstacles: &ObstacleIndex,
    options: &EngineOptions,
) -> (Option<f64>, usize) {
    let mut g = LocalGraph::new(options.builder);
    let na = g.add_waypoint(a, 0);
    let nb = g.add_waypoint(b, QUERY_TAG);
    let d = compute_obstructed_distance(&mut g, na, nb, obstacles);
    (d, g.scene.node_count())
}

/// The `k` pairs `(s, t) ∈ S × T` with the smallest obstructed distances,
/// ascending.
///
/// Implements OCP (Fig. 11): Euclidean closest pairs are produced
/// incrementally \[CMTV00\]; each candidate pair's obstructed distance is
/// evaluated (Fig. 8) and the running top-k maintained; retrieval stops
/// once the next Euclidean pair distance exceeds the obstructed distance
/// of the current k-th pair.
pub fn closest_pairs(
    s: &EntityIndex,
    t: &EntityIndex,
    obstacles: &ObstacleIndex,
    k: usize,
    options: EngineOptions,
) -> ClosestPairsResult {
    let t0 = Stopwatch::start();
    let same_tree = std::ptr::eq(s, t);
    let s_io = s.tree().io_snapshot();
    let t_io = (!same_tree).then(|| t.tree().io_snapshot());
    let obstacle_io = obstacles.tree().io_snapshot();

    // `k` arrives from outside: the reservation is a hint bounded by the
    // dataset size (the vectors grow past it when more pairs exist), so
    // `k = usize::MAX` neither overflows `k + 1` nor aborts on it.
    let reserve = k.min(s.len().max(t.len()));
    let mut result: Vec<(u64, u64, f64)> = Vec::with_capacity(reserve + 1);
    let mut euclid_top_k: Vec<(u64, u64)> = Vec::with_capacity(reserve);
    let mut candidates = 0usize;
    let mut distance_computations = 0usize;
    let mut peak_graph_nodes = 0usize;

    if k > 0 {
        for (si, ti, d_e) in ClosestPairs::new(s.tree(), t.tree()) {
            if euclid_top_k.len() < k {
                euclid_top_k.push((si.id, ti.id));
            }
            if result.len() == k && d_e > result[k - 1].2 {
                break;
            }
            candidates += 1;
            distance_computations += 1;
            let (d_o, nodes) =
                pair_distance(s.position(si.id), t.position(ti.id), obstacles, &options);
            peak_graph_nodes = peak_graph_nodes.max(nodes);
            if let Some(d_o) = d_o {
                let at = result.partition_point(|&(_, _, d)| d <= d_o);
                result.insert(at, (si.id, ti.id, d_o));
                result.truncate(k);
            }
        }
    }

    let answered: HashSet<(u64, u64)> = result.iter().map(|&(a, b, _)| (a, b)).collect();
    let false_hits = euclid_top_k
        .iter()
        .filter(|pair| !answered.contains(pair))
        .count();

    let entity_io = s_io.finish() + t_io.map(IoSnapshot::finish).unwrap_or_default();
    let obstacle_io = obstacle_io.finish();
    let stats = QueryStats {
        entity_reads: entity_io.reads,
        obstacle_reads: obstacle_io.reads,
        entity_fetches: entity_io.fetches(),
        obstacle_fetches: obstacle_io.fetches(),
        cpu: t0.elapsed(),
        candidates,
        results: result.len(),
        false_hits,
        distance_computations,
        peak_graph_nodes,
    };
    ClosestPairsResult {
        pairs: result,
        stats,
    }
}

/// Incremental obstacle closest pairs (iOCP — Fig. 12): yields
/// `(s id, t id, obstructed distance)` in ascending obstructed-distance
/// order without a predefined `k`.
///
/// A computed pair is emitted as soon as its obstructed distance does not
/// exceed the Euclidean distance of the most recent candidate pair — no
/// later candidate can beat it (its obstructed distance is at least its
/// Euclidean distance, which is at least the current one).
pub fn incremental_closest_pairs<'a>(
    s: &'a EntityIndex,
    t: &'a EntityIndex,
    obstacles: &'a ObstacleIndex,
    options: EngineOptions,
) -> IncrementalClosestPairs<'a> {
    IncrementalClosestPairs {
        s,
        t,
        obstacles,
        options,
        euclid: ClosestPairs::new(s.tree(), t.tree()),
        pending: BinaryHeap::new(),
        last_euclid: 0.0,
        exhausted: s.is_empty() || t.is_empty(),
    }
}

/// Iterator type of [`incremental_closest_pairs`].
pub struct IncrementalClosestPairs<'a> {
    s: &'a EntityIndex,
    t: &'a EntityIndex,
    obstacles: &'a ObstacleIndex,
    options: EngineOptions,
    euclid: ClosestPairs<'a, AnyTree, AnyTree>,
    pending: BinaryHeap<Reverse<(OrdF64, u64, u64)>>,
    last_euclid: f64,
    exhausted: bool,
}

impl Iterator for IncrementalClosestPairs<'_> {
    type Item = (u64, u64, f64);

    fn next(&mut self) -> Option<(u64, u64, f64)> {
        loop {
            if let Some(&Reverse((OrdF64(d), a, b))) = self.pending.peek() {
                if self.exhausted || d <= self.last_euclid {
                    self.pending.pop();
                    return Some((a, b, d));
                }
            } else if self.exhausted {
                return None;
            }
            match self.euclid.next() {
                Some((si, ti, d_e)) => {
                    self.last_euclid = d_e;
                    if let (Some(d_o), _) = pair_distance(
                        self.s.position(si.id),
                        self.t.position(ti.id),
                        self.obstacles,
                        &self.options,
                    ) {
                        self.pending.push(Reverse((OrdF64::new(d_o), si.id, ti.id)));
                    }
                }
                None => self.exhausted = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::{Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    fn scene() -> (EntityIndex, EntityIndex, ObstacleIndex) {
        // Pair (0,0): Euclidean-closest but a wall forces a long detour.
        // Pair (1,1): slightly farther in Euclidean, unobstructed — the
        // true obstructed closest pair.
        let s = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(0.0, 0.0), Point::new(0.0, 5.0)],
        );
        let t = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![Point::new(2.0, 0.0), Point::new(2.2, 5.0)],
        );
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(0.9, -2.0, 1.1, 2.0))],
        );
        (s, t, obstacles)
    }

    #[test]
    fn top_pair_accounts_for_obstruction() {
        let (s, t, o) = scene();
        let r = closest_pairs(&s, &t, &o, 1, EngineOptions::default());
        assert_eq!(r.pairs.len(), 1);
        assert_eq!((r.pairs[0].0, r.pairs[0].1), (1, 1));
        assert!((r.pairs[0].2 - 2.2).abs() < 1e-12);
        assert_eq!(r.stats.false_hits, 1);
    }

    #[test]
    fn k2_includes_the_detour_pair() {
        let (s, t, o) = scene();
        let r = closest_pairs(&s, &t, &o, 2, EngineOptions::default());
        assert_eq!(r.pairs.len(), 2);
        assert_eq!((r.pairs[0].0, r.pairs[0].1), (1, 1));
        assert_eq!((r.pairs[1].0, r.pairs[1].1), (0, 0));
        let detour = Point::new(0.0, 0.0).dist(Point::new(0.9, 2.0))
            + 0.2
            + Point::new(1.1, 2.0).dist(Point::new(2.0, 0.0));
        assert!((r.pairs[1].2 - detour).abs() < 1e-9);
        // Ascending obstructed order.
        assert!(r.pairs[0].2 <= r.pairs[1].2);
    }

    #[test]
    fn incremental_matches_batch_prefix() {
        let (s, t, o) = scene();
        let batch = closest_pairs(&s, &t, &o, 4, EngineOptions::default());
        let inc: Vec<(u64, u64, f64)> =
            incremental_closest_pairs(&s, &t, &o, EngineOptions::default())
                .take(batch.pairs.len())
                .collect();
        assert_eq!(inc.len(), batch.pairs.len());
        for (a, b) in inc.iter().zip(batch.pairs.iter()) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert!((a.2 - b.2).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_enumerates_all_pairs_in_order() {
        let (s, t, o) = scene();
        let all: Vec<(u64, u64, f64)> =
            incremental_closest_pairs(&s, &t, &o, EngineOptions::default()).collect();
        assert_eq!(all.len(), 4); // |S| × |T|
        for w in all.windows(2) {
            assert!(w[0].2 <= w[1].2 + 1e-12);
        }
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        let (s, t, o) = scene();
        assert!(closest_pairs(&s, &t, &o, 0, EngineOptions::default())
            .pairs
            .is_empty());
        let empty = EntityIndex::build(RTreeConfig::tiny(4), vec![]);
        let r = closest_pairs(&s, &empty, &o, 3, EngineOptions::default());
        assert!(r.pairs.is_empty());
        assert!(
            incremental_closest_pairs(&empty, &t, &o, EngineOptions::default())
                .next()
                .is_none()
        );
    }
}

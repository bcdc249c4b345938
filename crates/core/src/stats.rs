//! Per-query cost accounting (the paper's experimental metrics).

use std::time::Duration;

/// Cost metrics of one query, matching §7 of the paper:
///
/// * `entity_reads` / `obstacle_reads` — R-tree page accesses (LRU buffer
///   misses), split by the tree they hit (the paper's I/O charts always
///   separate "data R-tree" from "obstacle R-tree"; for joins the entity
///   number sums both entity trees);
/// * `cpu` — wall-clock computation time;
/// * `candidates` vs `results` — Euclidean candidate count vs final
///   result count; `false_hits` — candidates eliminated by the obstructed
///   metric (for kNN: Euclidean top-k not in the obstructed top-k).
///
/// # Storage backends
///
/// The IO counters are attributed through the same `IoSnapshot` windows
/// on either tree backend, but they *mean* different things. On the
/// paged R*-tree, `*_fetches` are logical page fetches and `*_reads`
/// the subset that missed the LRU buffer — the paper's metric. The
/// packed backend has no pages and no buffer: there `*_fetches` counts
/// **node visits** (the structural analogue, comparable across
/// backends for the same query) and `*_reads` is honestly zero rather
/// than a misleading simulated-disk number. Compare `*_reads` only
/// between runs on the same backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Page accesses on the entity R-tree(s) that missed the LRU buffer
    /// (always 0 on the packed backend — it performs no page IO).
    pub entity_reads: u64,
    /// Page accesses on the obstacle R-tree that missed the LRU buffer
    /// (always 0 on the packed backend).
    pub obstacle_reads: u64,
    /// Logical page fetches on the entity R-tree(s) (hits + misses). The
    /// figure harness reports this metric: the paper's per-query access
    /// counts match logical fetches, with the 10 % LRU buffer absorbing
    /// repeated accesses (tracked by the `*_reads` miss counters). On
    /// the packed backend: node visits.
    pub entity_fetches: u64,
    /// Logical page fetches on the obstacle R-tree (hits + misses; node
    /// visits on the packed backend).
    pub obstacle_fetches: u64,
    /// CPU (wall-clock) time spent processing the query. For an operator
    /// that fans out over several workers (a direct `distance_join` or
    /// `semi_join` call) this is the elapsed time, not CPU summed over
    /// the workers.
    pub cpu: Duration,
    /// Euclidean candidates examined.
    pub candidates: usize,
    /// Final results returned.
    pub results: usize,
    /// Candidates dismissed by the obstructed distance.
    pub false_hits: usize,
    /// Invocations of the obstructed-distance computation.
    pub distance_computations: usize,
    /// Largest visibility scene observed (live nodes), a proxy for the
    /// paper's O(n² log n) graph-construction cost discussion. With a
    /// fresh scene per query this is the query's own local graph; when a
    /// query runs over a reused scene (`SceneCache` — batch and service
    /// workers), it reports the whole *resident* scene, obstacles
    /// absorbed by earlier queries included. A join reports its largest
    /// single-seed scene, a semi-join its largest single-probe scene.
    pub peak_graph_nodes: usize,
}

impl QueryStats {
    /// The paper's false-hit ratio: false hits per result (Figs. 15, 18).
    /// Zero when the result set is empty.
    pub fn false_hit_ratio(&self) -> f64 {
        if self.results == 0 {
            0.0
        } else {
            self.false_hits as f64 / self.results as f64
        }
    }

    /// Accumulates another query's stats (for workload averaging).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.entity_reads += other.entity_reads;
        self.obstacle_reads += other.obstacle_reads;
        self.entity_fetches += other.entity_fetches;
        self.obstacle_fetches += other.obstacle_fetches;
        self.cpu += other.cpu;
        self.candidates += other.candidates;
        self.results += other.results;
        self.false_hits += other.false_hits;
        self.distance_computations += other.distance_computations;
        self.peak_graph_nodes = self.peak_graph_nodes.max(other.peak_graph_nodes);
    }
}

/// Result of an obstacle range query: `(entity id, obstructed distance)`
/// in ascending distance order.
#[derive(Clone, Debug)]
pub struct RangeResult {
    /// Qualifying entities with their obstructed distances.
    pub hits: Vec<(u64, f64)>,
    /// Cost metrics.
    pub stats: QueryStats,
}

/// Result of an obstacle k-NN query: `(entity id, obstructed distance)`
/// in ascending distance order (at most `k` entries).
#[derive(Clone, Debug)]
pub struct NearestResult {
    /// The obstructed nearest neighbours.
    pub neighbors: Vec<(u64, f64)>,
    /// Cost metrics.
    pub stats: QueryStats,
}

/// Result of an obstacle e-distance join: `(s id, t id, obstructed
/// distance)` pairs.
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// Qualifying pairs.
    pub pairs: Vec<(u64, u64, f64)>,
    /// Cost metrics (`entity_reads` sums both entity trees).
    pub stats: QueryStats,
}

/// Result of an obstacle closest-pairs query: the `k` pairs with minimal
/// obstructed distance, ascending.
#[derive(Clone, Debug)]
pub struct ClosestPairsResult {
    /// The closest pairs.
    pub pairs: Vec<(u64, u64, f64)>,
    /// Cost metrics.
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_hit_ratio_handles_empty_results() {
        let s = QueryStats::default();
        assert_eq!(s.false_hit_ratio(), 0.0);
        let s = QueryStats {
            false_hits: 3,
            results: 12,
            ..Default::default()
        };
        assert!((s.false_hit_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_and_maxes() {
        let mut a = QueryStats {
            entity_reads: 1,
            obstacle_reads: 2,
            entity_fetches: 4,
            obstacle_fetches: 6,
            cpu: Duration::from_millis(5),
            candidates: 10,
            results: 8,
            false_hits: 2,
            distance_computations: 4,
            peak_graph_nodes: 30,
        };
        let b = QueryStats {
            entity_reads: 3,
            obstacle_reads: 1,
            entity_fetches: 5,
            obstacle_fetches: 2,
            cpu: Duration::from_millis(7),
            candidates: 5,
            results: 5,
            false_hits: 0,
            distance_computations: 2,
            peak_graph_nodes: 50,
        };
        a.accumulate(&b);
        assert_eq!(a.entity_reads, 4);
        assert_eq!(a.entity_fetches, 9);
        assert_eq!(a.obstacle_fetches, 8);
        assert_eq!(a.obstacle_reads, 3);
        assert_eq!(a.cpu, Duration::from_millis(12));
        assert_eq!(a.candidates, 15);
        assert_eq!(a.peak_graph_nodes, 50);
    }
}

//! Spatial query processing in the presence of obstacles — the primary
//! contribution of Zhang, Papadias, Mouratidis, Zhu (EDBT 2004).
//!
//! Given entity datasets and an obstacle dataset, all indexed by
//! disk-model R*-trees, this crate answers the four query types of the
//! paper under the **obstructed distance** metric `d_O` (length of the
//! shortest path avoiding all obstacle interiors):
//!
//! | Query | Entry point | Paper |
//! |---|---|---|
//! | Obstacle range | [`QueryEngine::range`] | §3, Fig. 5 |
//! | Obstacle k-NN | [`QueryEngine::nearest`] | §4, Fig. 9 |
//! | incremental NN | [`QueryEngine::nearest_incremental`] | §6 (iONN remark) |
//! | e-distance join | [`distance_join`] | §5, Fig. 10 |
//! | closest pairs | [`closest_pairs`] | §6, Fig. 11 |
//! | incremental CP | [`incremental_closest_pairs`] | §6, Fig. 12 |
//! | distance semi-join | [`semi_join`] | §2.1 (both strategies) |
//! | shortest paths | [`shortest_obstructed_path`] | application layer |
//! | concurrent batches | [`QueryEngine::batch`] | scaling layer (§7 workloads) |
//! | resident service | [`QueryService`] | serving layer |
//!
//! All algorithms share two ideas:
//!
//! 1. the **Euclidean lower bound** (`d_E ≤ d_O`): conventional R-tree
//!    queries produce candidate supersets which are then refined;
//! 2. **local visibility scenes** built on-line from only the obstacles
//!    that can influence the result, grown iteratively by
//!    [`compute_obstructed_distance`] (Fig. 8) until provably sufficient —
//!    and explored *lazily*: distances come from A\* guided by the
//!    Euclidean heuristic over an on-demand successor oracle
//!    ([`obstacle_visibility::LazyScene`]), so only the corridor the
//!    shortest path actually touches ever pays for visibility sweeps.
//!
//! Every query returns a [`QueryStats`] with the paper's cost metrics:
//! R-tree page accesses split by tree (logical fetches and buffer
//! misses), CPU time, and false-hit counts.
//!
//! # Example: the paper's Fig. 1
//!
//! ```
//! use obstacle_geom::{Point, Polygon, Rect};
//! use obstacle_core::{EntityIndex, ObstacleIndex, QueryEngine};
//! use obstacle_rtree::RTreeConfig;
//!
//! // Entity a is the Euclidean NN of q, but a wall blocks the way;
//! // entity b is the true obstructed NN.
//! let entities = EntityIndex::build(
//!     RTreeConfig::default(),
//!     vec![Point::new(2.0, 0.0), Point::new(0.0, 2.2)], // a = 0, b = 1
//! );
//! let obstacles = ObstacleIndex::build(
//!     RTreeConfig::default(),
//!     vec![Polygon::from_rect(Rect::from_coords(1.0, -2.0, 1.2, 2.0))],
//! );
//! let engine = QueryEngine::new(&entities, &obstacles);
//! let nn = engine.nearest(Point::new(0.0, 0.0), 1);
//! assert_eq!(nn.neighbors[0].0, 1); // b wins under the obstructed metric
//! assert_eq!(nn.stats.false_hits, 1); // a was a false hit
//! ```

#![warn(missing_docs)]

mod batch;
mod brute;
mod closest_pair;
mod distance;
mod engine;
mod join;
mod nn;
mod path;
mod range;
mod semi_join;
mod service;
mod stats;
mod updates;

pub use batch::{
    Answer, BatchRequest, BatchStats, BatchStream, Query, SceneBudget, SceneCache, Schedule,
};
pub use brute::BruteForce;
pub use closest_pair::{closest_pairs, incremental_closest_pairs, IncrementalClosestPairs};
pub use distance::{
    compute_obstructed_distance, compute_obstructed_path, compute_obstructed_range, LocalGraph,
};
pub use engine::{EngineOptions, EntityIndex, ObstacleIndex, QueryEngine};
pub use join::distance_join;
pub use nn::IncrementalNearest;
pub use path::{close_rel, shortest_obstructed_path, shortest_obstructed_path_in};
pub use semi_join::{semi_join, SemiJoinStrategy};
pub use service::{
    Admission, Completion, LatencyHistogram, Outcome, QueryService, ServiceConfig, ServiceRun,
    ServiceStats, SubmitError, Ticket,
};
pub use stats::{ClosestPairsResult, JoinResult, NearestResult, QueryStats, RangeResult};
pub use updates::{Update, UpdateStats};

/// Node tag used for query points inside local visibility graphs (entity
/// tags are dataset object ids, far below this sentinel).
pub(crate) const QUERY_TAG: u64 = u64::MAX;

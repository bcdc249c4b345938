//! Concurrent batch query execution.
//!
//! The paper's experiments (§7) issue workloads of hundreds of queries,
//! and downstream consumers — obstructed clustering à la El-Zawawy &
//! El-Sharkawi, navigation services, the figure harness itself — are
//! nothing but large batches of range/NN/join probes against one shared
//! pair of R-trees. All query operators take `&self` and the R-trees are
//! [`Sync`] (atomic I/O counters, mutex-guarded LRU buffer), so a batch
//! parallelises embarrassingly: [`QueryEngine::batch`] builds a
//! [`BatchRequest`] that fans a slice of heterogeneous [`Query`]s out
//! over a scoped worker pool.
//!
//! Design points:
//!
//! * **No external dependencies** — `std::thread::scope` workers pulling
//!   from a shared atomic cursor (self-balancing: a worker stuck on an
//!   expensive join simply claims fewer of the remaining queries).
//! * **Deterministic output** — every [`Answer`] lands at its query's
//!   input index, and each operator is a pure function of its inputs, so
//!   the *results* of a batch are identical for every thread count
//!   (asserted by the root `consistency` suite). Per-query
//!   [`QueryStats`] are attributed through thread-local
//!   [`IoSnapshot`](obstacle_rtree::IoSnapshot) windows and never race;
//!   their buffer-hit/miss *split* still legitimately varies with
//!   interleaving, because all threads share one LRU buffer per tree
//!   (like concurrent clients of one database buffer pool).
//! * **Binary operators self-join** — a [`QueryEngine`] carries one
//!   entity dataset, so `DistanceJoin`/`SemiJoin`/`ClosestPairs` run
//!   `P × P`, the shape obstructed clustering workloads take. Two distinct
//!   datasets call [`distance_join`](crate::distance_join) directly, which
//!   fans its seeds out over this module's claim loop (`claim_loop`).

use crate::closest_pair::closest_pairs;
use crate::distance::LocalGraph;
use crate::engine::{universe_of, EngineOptions, EntityIndex, ObstacleIndex, QueryEngine};
use crate::join::distance_join_on;
use crate::path::shortest_obstructed_path_in;
use crate::semi_join::{semi_join_on, SemiJoinStrategy};
use crate::stats::{ClosestPairsResult, JoinResult, NearestResult, QueryStats, RangeResult};
use obstacle_geom::{hilbert_index_unit, Point, Rect};
use obstacle_visibility::PathResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One query of a heterogeneous batch (see [`QueryEngine::batch`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// Obstacle range query: entities within obstructed distance `e` of `q`.
    Range {
        /// Query point.
        q: Point,
        /// Obstructed-distance radius.
        e: f64,
    },
    /// Obstacle k-nearest-neighbour query.
    Nearest {
        /// Query point.
        q: Point,
        /// Number of neighbours.
        k: usize,
    },
    /// Obstacle e-distance self-join over the engine's entity dataset.
    DistanceJoin {
        /// Obstructed-distance threshold.
        e: f64,
    },
    /// Obstructed distance semi-join of the entity dataset with itself.
    SemiJoin {
        /// Evaluation strategy (see [`SemiJoinStrategy`]).
        strategy: SemiJoinStrategy,
    },
    /// Obstacle k-closest-pairs over the engine's entity dataset.
    ClosestPairs {
        /// Number of pairs.
        k: usize,
    },
    /// Exact shortest obstructed path between two free points.
    Path {
        /// Start point.
        from: Point,
        /// End point.
        to: Point,
    },
}

/// The result of one batch [`Query`], at the same index in the output of
/// [`BatchRequest::collect`] as the query held in the input.
#[derive(Clone, Debug)]
pub enum Answer {
    /// Result of a [`Query::Range`].
    Range(RangeResult),
    /// Result of a [`Query::Nearest`].
    Nearest(NearestResult),
    /// Result of a [`Query::DistanceJoin`].
    DistanceJoin(JoinResult),
    /// Result of a [`Query::SemiJoin`].
    SemiJoin(JoinResult),
    /// Result of a [`Query::ClosestPairs`].
    ClosestPairs(ClosestPairsResult),
    /// Result of a [`Query::Path`] (`None` when unreachable).
    Path(Option<PathResult>),
}

impl Answer {
    /// The cost metrics of the answer, when the operator produces them
    /// (`Path` reports none).
    pub fn stats(&self) -> Option<&QueryStats> {
        match self {
            Answer::Range(r) => Some(&r.stats),
            Answer::Nearest(r) => Some(&r.stats),
            Answer::DistanceJoin(r) | Answer::SemiJoin(r) => Some(&r.stats),
            Answer::ClosestPairs(r) => Some(&r.stats),
            Answer::Path(_) => None,
        }
    }

    /// Number of result rows (hits, neighbours, pairs, or path corners).
    pub fn result_count(&self) -> usize {
        match self {
            Answer::Range(r) => r.hits.len(),
            Answer::Nearest(r) => r.neighbors.len(),
            Answer::DistanceJoin(r) | Answer::SemiJoin(r) => r.pairs.len(),
            Answer::ClosestPairs(r) => r.pairs.len(),
            Answer::Path(p) => p.as_ref().map_or(0, |p| p.points.len()),
        }
    }

    /// Whether two answers carry bit-identical *result payloads* (ids,
    /// distances, polylines). [`QueryStats`] are deliberately excluded:
    /// CPU time is never reproducible and the buffer-hit/miss split
    /// depends on how concurrent queries interleaved on the shared LRU
    /// buffer. This is the equality the determinism guarantee of
    /// [`BatchRequest::collect`] is stated in.
    pub fn same_results(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Range(a), Answer::Range(b)) => a.hits == b.hits,
            (Answer::Nearest(a), Answer::Nearest(b)) => a.neighbors == b.neighbors,
            (Answer::DistanceJoin(a), Answer::DistanceJoin(b)) => a.pairs == b.pairs,
            (Answer::SemiJoin(a), Answer::SemiJoin(b)) => a.pairs == b.pairs,
            (Answer::ClosestPairs(a), Answer::ClosestPairs(b)) => a.pairs == b.pairs,
            (Answer::Path(a), Answer::Path(b)) => match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => a.distance == b.distance && a.points == b.points,
                _ => false,
            },
            _ => false,
        }
    }
}

// The concurrency contract, checked at compile time: a `QueryEngine` (and
// everything it borrows) can be shared across the worker pool.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<QueryEngine<'static>>();
    assert_sync::<EntityIndex>();
    assert_sync::<ObstacleIndex>();
    assert_sync::<Query>();
};

/// Retirement budgets of a [`SceneCache`] scene: the classification
/// bookkeeping of `LazyScene::add_obstacle` and `add_waypoint` scales with
/// the resident scene, so an ever-growing cache would eventually cost more
/// than the sweeps it saves. The budgets only decide *when* a scene is
/// rebuilt — answers are identical under every setting (pinned by the
/// `scene_cache` suite).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SceneBudget {
    /// Obstacles a cached scene may absorb before it is retired.
    pub max_obstacles: usize,
    /// Waypoint-slot slack: the scene is retired once its node slots
    /// exceed `2 × live nodes + slot_slack` (waypoints are added and
    /// removed per query, so slots grow monotonically on a warm scene).
    pub slot_slack: usize,
}

impl Default for SceneBudget {
    fn default() -> Self {
        SceneBudget {
            max_obstacles: 4096,
            slot_slack: 512,
        }
    }
}

/// Execution-order policy of a batch (see [`BatchRequest::schedule`]).
///
/// Scheduling permutes only the order workers *claim* queries — answers
/// always land at their input index and are bit-identical to sequential
/// execution under every policy (the `schedule` suite pins this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Claim queries in input order (the PR 3 behaviour).
    #[default]
    InputOrder,
    /// Claim queries in ascending Hilbert order of each query's region
    /// (the locality trick ODJ applies to its join seeds, §5): every
    /// worker's [`SceneCache`] then sees maximally clustered consecutive
    /// regions instead of whatever order the batch arrived in.
    /// Dataset-wide operators (joins, closest pairs) carry no region and
    /// are scheduled first — they are also the heaviest, so fronting
    /// them helps the pool balance.
    Hilbert,
}

/// Aggregate execution diagnostics of one batch run, summed over all
/// workers. Scene reuse counts are the observable the Hilbert schedule
/// exists to improve; they never affect answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Worker threads the run actually used (after clamping).
    pub workers: usize,
    /// Queries answered on a warm (reused) scene, summed over workers —
    /// the aggregate [`SceneCache`] hit count.
    pub scene_reuses: usize,
    /// Scenes retired (region jump or budget exhaustion), summed.
    pub scene_resets: usize,
    /// Scenes retired by epoch validation — an obstacle edit after the
    /// scene's build epoch dirtied a rect intersecting its region —
    /// summed over workers. Distinct from [`BatchStats::scene_resets`]:
    /// those are reuse economics, these are correctness.
    pub scene_invalidations: usize,
}

/// Iterator over the answers of a streaming batch
/// ([`BatchRequest::stream`]): yields `(input_index, Answer)`
/// pairs the moment workers finish them, in completion order (an ordered
/// consumer slots them by index, as [`BatchRequest::collect`] does).
/// Dropping the stream early cancels the remaining queries (workers stop
/// at the next claim).
#[derive(Debug)]
pub struct BatchStream {
    rx: mpsc::Receiver<(usize, Answer)>,
    /// Answers not yet yielded (the stream ends after this many).
    remaining: usize,
}

impl Iterator for BatchStream {
    type Item = (usize, Answer);

    fn next(&mut self) -> Option<(usize, Answer)> {
        if self.remaining == 0 {
            return None;
        }
        // `recv` can only fail if a worker panicked mid-batch (every
        // sender hung up with answers still owed); ending the stream lets
        // the scope's `join` surface that panic.
        let pair = self.rx.recv().ok()?;
        self.remaining -= 1;
        Some(pair)
    }
}

/// A reusable lazy scene shared by consecutive ONN/OR/path queries — the
/// batch-granularity counterpart of the reuse ONN already does across
/// *candidates* (§4) and the cross-query amortization of Wang's
/// shortest-paths-revisited line of work.
///
/// Each batch worker owns one cache: every query it executes first
/// asks [`SceneCache::scene_for`] for a scene positioned over the query's
/// region. Nearby queries (neighbouring range disks, path corridors,
/// clustered NN probes) then reuse absorbed obstacles and cached
/// visibility sweeps instead of rebuilding a private [`LocalGraph`] from
/// scratch; sweeps survive across queries because `LazyScene` revalidates
/// successor caches geometrically when the scene grows (the PR 2
/// machinery). A query far from everything the scene has served — or a
/// scene past its obstacle/slot budget — retires the scene and starts
/// fresh, so scattered workloads degrade to exactly the per-query cost
/// they had before.
///
/// Reuse never changes answers: resident obstacles are real obstacles of
/// the one shared dataset (a superset of any query's certified region
/// only blocks paths that are genuinely blocked), every operator still
/// absorbs what its own region demands, and exact ties resolve
/// positionally rather than by node numbering. The determinism suites
/// assert this at every thread count.
#[derive(Debug)]
pub struct SceneCache {
    options: EngineOptions,
    budget: SceneBudget,
    graph: LocalGraph,
    /// Union of the query regions served by the current scene
    /// (`Rect::empty()` when the scene is fresh).
    coverage: Rect,
    /// Queries that reused a warm scene / scenes retired (diagnostics).
    reuses: usize,
    resets: usize,
    /// Scenes retired by epoch validation (obsolete geometry, not
    /// economics — see [`SceneCache::validate`]).
    invalidations: usize,
}

impl SceneCache {
    /// An empty cache building scenes with the options' edge builder and
    /// default retirement budgets.
    pub fn new(options: EngineOptions) -> Self {
        SceneCache::with_budget(options, SceneBudget::default())
    }

    /// An empty cache with explicit retirement budgets (see
    /// [`SceneBudget`]; budgets affect only reuse economics, never
    /// answers).
    pub fn with_budget(options: EngineOptions, budget: SceneBudget) -> Self {
        SceneCache {
            options,
            budget,
            graph: LocalGraph::new(options.builder),
            coverage: Rect::empty(),
            reuses: 0,
            resets: 0,
            invalidations: 0,
        }
    }

    /// Queries answered on a warm (reused) scene so far.
    pub fn reuses(&self) -> usize {
        self.reuses
    }

    /// Scenes retired (region jump or budget exhaustion) so far.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// Scenes retired by epoch validation so far (see
    /// [`SceneCache::validate`]).
    pub fn invalidations(&self) -> usize {
        self.invalidations
    }

    /// Validates the cached scene against the current obstacle set:
    /// retires it iff an edit committed after the scene's epoch stamp
    /// dirtied a rect intersecting the scene's certified region inflated
    /// by `slack` (see [`LocalGraph::sync`]). Edits elsewhere leave the
    /// scene warm — reuse stays legal because every resident obstacle
    /// intersects that region. Returns whether the scene was retired.
    /// [`QueryEngine::execute_with`] calls this before every query;
    /// callers driving the operators directly against a long-lived cache
    /// across updates get the same check through the operators' own sync.
    pub fn validate(&mut self, obstacles: &ObstacleIndex, slack: f64) -> bool {
        if self.graph.sync(obstacles, slack) {
            self.coverage = Rect::empty();
            self.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// The reuse distance for a dataset spanning `universe`: queries
    /// within a couple percent of the universe diagonal of the scene's
    /// coverage reuse it; farther jumps retire it. The one locality
    /// threshold shared by every cache user (batch and service
    /// workers).
    pub fn slack_for(universe: &Rect) -> f64 {
        0.02 * universe.min.dist(universe.max)
    }

    /// [`SceneCache::slack_for`] the working universe of `obstacles`
    /// and, when the caller has one, `entities` ([`universe_of`]): the
    /// one slack every scene user validates and coalesces with.
    pub(crate) fn slack_over(obstacles: &ObstacleIndex, entities: Option<&EntityIndex>) -> f64 {
        SceneCache::slack_for(&universe_of(obstacles, entities))
    }

    /// The cached scene, positioned for a query covering `region`; the
    /// scene is retired first unless it is fresh, within budget, and its
    /// coverage lies within `slack` of the region.
    pub fn scene_for(&mut self, region: Rect, slack: f64) -> &mut LocalGraph {
        if self.coverage.is_empty() {
            self.coverage = region;
            return &mut self.graph;
        }
        let near = self.coverage.mindist_rect(&region) <= slack;
        let slots = self.graph.scene.node_slots();
        let within_budget = self.graph.obstacle_count() <= self.budget.max_obstacles
            && slots <= 2 * self.graph.scene.node_count() + self.budget.slot_slack;
        if near && within_budget {
            self.reuses += 1;
            self.coverage = self.coverage.union(&region);
        } else {
            self.graph = LocalGraph::new(self.options.builder);
            self.coverage = region;
            self.resets += 1;
        }
        &mut self.graph
    }
}

impl<'a> QueryEngine<'a> {
    /// Executes one batch [`Query`] on this engine over a fresh scene
    /// (the sequential unit the batch engine parallelises over).
    pub fn execute(&self, query: &Query) -> Answer {
        self.execute_with(query, &mut SceneCache::new(self.options))
    }

    /// Executes one batch [`Query`] through a [`SceneCache`]: the point
    /// operators (range, NN, path) run over the cache's reusable scene,
    /// the dataset-wide operators manage their own.
    pub fn execute_with(&self, query: &Query, cache: &mut SceneCache) -> Answer {
        let slack = SceneCache::slack_over(self.obstacles, Some(self.entities));
        cache.validate(self.obstacles, slack);
        match *query {
            Query::Range { q, e } => {
                let region = Rect::from_coords(q.x - e, q.y - e, q.x + e, q.y + e);
                Answer::Range(self.range_in(cache.scene_for(region, slack), q, e))
            }
            Query::Nearest { q, k } => {
                let region = Rect::from_point(q);
                Answer::Nearest(self.nearest_in(cache.scene_for(region, slack), q, k))
            }
            Query::Path { from, to } => Answer::Path(shortest_obstructed_path_in(
                cache.scene_for(Rect::new(from, to), slack),
                from,
                to,
                self.obstacles,
            )),
            Query::DistanceJoin { e } => Answer::DistanceJoin(distance_join_on(
                self.entities,
                self.entities,
                self.obstacles,
                e,
                self.options,
                1,
            )),
            Query::SemiJoin { strategy } => Answer::SemiJoin(semi_join_on(
                self.entities,
                self.entities,
                self.obstacles,
                strategy,
                self.options,
                1,
            )),
            Query::ClosestPairs { k } => Answer::ClosestPairs(closest_pairs(
                self.entities,
                self.entities,
                self.obstacles,
                k,
                self.options,
            )),
        }
    }

    /// The order workers claim queries under `schedule`: a permutation of
    /// `0..queries.len()` (input order, or ascending Hilbert index of
    /// each query's region over the obstacle universe, regionless
    /// dataset-wide operators first; ties keep input order, so the
    /// permutation is deterministic).
    pub fn schedule_order(&self, queries: &[Query], schedule: Schedule) -> Vec<usize> {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        if schedule == Schedule::Hilbert {
            let universe = self.universe();
            let keys: Vec<u64> = queries.iter().map(|q| hilbert_key(q, &universe)).collect();
            order.sort_by_key(|&i| (keys[i], i));
        }
        order
    }

    /// Starts a [`BatchRequest`] over `queries` — the single entry point
    /// of the batch engine. Configure it with [`BatchRequest::threads`]
    /// and [`BatchRequest::schedule`], and finish with a terminal:
    /// [`BatchRequest::collect`] for answers in
    /// input order, [`BatchRequest::stream`] for answers as they
    /// complete, or [`BatchRequest::each`] for a per-answer callback.
    pub fn batch<'q>(&self, queries: &'q [Query]) -> BatchRequest<'a, 'q> {
        BatchRequest {
            engine: *self,
            queries,
            threads: 1,
            schedule: Schedule::default(),
        }
    }
}

/// A configured batch submission: the one place a batch is configured —
/// worker count and [`Schedule`] — with three terminals.
/// Built by [`QueryEngine::batch`]. The resident
/// [`QueryService`](crate::service::QueryService) shares its execution
/// unit ([`QueryEngine::execute_with`] over a per-worker [`SceneCache`])
/// but keeps its own claim loop: a live queue, owned indexes and
/// cancellation have no counterpart in a fixed slice.
///
/// The request is `Copy` (it borrows the engine's indexes and the query
/// slice), so a configured request can be re-run or forked freely.
#[derive(Clone, Copy, Debug)]
pub struct BatchRequest<'a, 'q> {
    engine: QueryEngine<'a>,
    queries: &'q [Query],
    threads: usize,
    schedule: Schedule,
}

impl BatchRequest<'_, '_> {
    /// Worker threads (default 1; clamped to `[1, queries.len()]` at
    /// the terminal).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Execution-order policy (see [`Schedule`]).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Executes the request and returns the answers **in input order**
    /// (`answers[i]` answers `queries[i]`) plus the run's [`BatchStats`].
    ///
    /// Workers are `std::thread::scope` threads claiming queries from a
    /// shared atomic cursor over the scheduled permutation — the pool
    /// self-balances without any queue structure, and heavy queries
    /// (joins) simply occupy one worker while the others drain the cheap
    /// ones. Each worker owns a [`SceneCache`], so consecutive point
    /// queries it claims reuse one lazy scene instead of rebuilding from
    /// scratch; [`Schedule::Hilbert`] maximises how often that happens.
    /// Results are guaranteed identical (in the sense of
    /// [`Answer::same_results`]) to running the same slice sequentially,
    /// under every schedule and thread count: every operator is a pure
    /// function of the shared indexes, which no query mutates, and scene
    /// reuse never changes answers (see [`SceneCache`]).
    pub fn collect(self) -> (Vec<Answer>, BatchStats) {
        let mut slots: Vec<Option<Answer>> = Vec::new();
        slots.resize_with(self.queries.len(), || None);
        let stats = self.each(|i, answer| {
            slots[i] = Some(answer);
        });
        let answers = slots
            .into_iter()
            .map(|a| a.expect("the stream delivers every query exactly once"))
            .collect();
        (answers, stats)
    }

    /// Executes the request, handing `consumer` a [`BatchStream`] that
    /// yields `(input_index, Answer)` pairs *while the workers are still
    /// running*, so the first answers are consumable long before the
    /// batch finishes (the navigation-service shape: results land as
    /// they are computed).
    ///
    /// The stream lives inside the worker scope — structured concurrency
    /// with no `'static` requirement on the engine — which is why the
    /// consumer is a closure rather than a returned iterator. Returns the
    /// consumer's result plus the run's [`BatchStats`] (available only
    /// after all workers finished, i.e. after the consumer returns or
    /// drops the stream). Dropping the stream early cancels the
    /// remaining queries: workers stop at their next claim.
    ///
    /// Answers are bit-identical to sequential execution under every
    /// schedule and thread count.
    pub fn stream<R>(self, consumer: impl FnOnce(BatchStream) -> R) -> (R, BatchStats) {
        let engine = self.engine;
        let queries = self.queries;
        let threads = self.threads.clamp(1, queries.len().max(1));
        let order = engine.schedule_order(queries, self.schedule);
        let (tx, rx) = mpsc::channel::<(usize, Answer)>();
        // `vec!` moves `tx` into the last slot: once every worker is done
        // (or has panicked) the stream sees the channel close.
        let senders = vec![tx; threads];
        let stream = BatchStream {
            rx,
            remaining: queries.len(),
        };
        let (result, counts) = claim_loop(
            order.len(),
            senders,
            |tx, claims| {
                let mut cache = SceneCache::new(engine.options);
                for slot in claims {
                    let i = order[slot];
                    let answer = engine.execute_with(&queries[i], &mut cache);
                    // A closed channel means the consumer dropped the
                    // stream: cancel the rest of the batch.
                    if tx.send((i, answer)).is_err() {
                        break;
                    }
                }
                (cache.reuses(), cache.resets(), cache.invalidations())
            },
            Some(|| consumer(stream)),
        );
        let mut stats = BatchStats {
            workers: threads,
            ..BatchStats::default()
        };
        for (reuses, resets, invalidations) in counts {
            stats.scene_reuses += reuses;
            stats.scene_resets += resets;
            stats.scene_invalidations += invalidations;
        }
        (result.expect("a caller closure always runs"), stats)
    }

    /// Executes the request, invoking `on_answer(input_index, answer)` on
    /// the calling thread for every query as workers complete them, and
    /// returns the run's [`BatchStats`].
    pub fn each(self, mut on_answer: impl FnMut(usize, Answer)) -> BatchStats {
        let ((), stats) = self.stream(|stream| {
            for (i, answer) in stream {
                on_answer(i, answer);
            }
        });
        stats
    }
}

/// The crate's one claim loop: one `worker(state, claims)` per state, all
/// claiming `0..n` from one atomic cursor on `std::thread::scope` threads.
/// With a `caller` closure (a stream consumer) the calling thread runs it
/// beside one spawned thread per state; without one the calling thread is
/// the first worker, so a single state runs inline and spawns nothing.
pub(crate) fn claim_loop<S: Send, T: Send, R>(
    n: usize,
    states: Vec<S>,
    worker: impl Fn(S, &mut dyn Iterator<Item = usize>) -> T + Sync,
    caller: Option<impl FnOnce() -> R>,
) -> (Option<R>, Vec<T>) {
    let cursor = AtomicUsize::new(0);
    let claim = || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let run = |state| worker(state, &mut std::iter::from_fn(claim));
    std::thread::scope(|scope| {
        let mut states = states.into_iter();
        let inline = caller.is_none().then(|| states.next()).flatten();
        let spawned: Vec<_> = states.map(|s| scope.spawn(move || run(s))).collect();
        let result = caller.map(|f| f());
        let mut outputs: Vec<T> = inline.map(run).into_iter().collect();
        outputs.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("claim-loop worker panicked")),
        );
        (result, outputs)
    })
}

/// `work(i)` for every `i` in `0..n`, claimed by `workers` threads of the
/// [`claim_loop`] with the calling thread among them (`1` runs inline),
/// returned in index order whatever the interleaving.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let states = vec![(); workers.clamp(1, n.max(1))];
    let (_, parts) = claim_loop(
        n,
        states,
        |(), claims| claims.map(|i| (i, work(i))).collect::<Vec<_>>(),
        None::<fn()>,
    );
    let mut done: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Workers a direct dataset-wide call fans out over: one per core (batch
/// and service workers pass 1 instead, [`QueryEngine::execute_with`]).
pub(crate) fn direct_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Hilbert scheduling key of one query: the Hilbert index of its region's
/// representative point over the obstacle universe, offset by one so
/// regionless dataset-wide operators sort first (they see the whole
/// dataset anyway, and fronting the heaviest queries helps the pool
/// balance). Shared with the service queue, whose live claim order is
/// the same key space.
pub(crate) fn hilbert_key(query: &Query, universe: &Rect) -> u64 {
    let p = match query {
        Query::Range { q, .. } | Query::Nearest { q, .. } => *q,
        Query::Path { from, to } => Point::new(0.5 * (from.x + to.x), 0.5 * (from.y + to.y)),
        Query::DistanceJoin { .. } | Query::SemiJoin { .. } | Query::ClosestPairs { .. } => {
            return 0
        }
    };
    1 + hilbert_index_unit(p, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_geom::{Polygon, Rect};
    use obstacle_rtree::RTreeConfig;

    fn scene() -> (EntityIndex, ObstacleIndex) {
        let entities = EntityIndex::build(
            RTreeConfig::tiny(4),
            vec![
                Point::new(2.0, 0.0),
                Point::new(0.0, 2.2),
                Point::new(-1.5, -0.5),
                Point::new(3.0, 2.0),
            ],
        );
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![Polygon::from_rect(Rect::from_coords(1.0, -2.0, 1.2, 2.0))],
        );
        (entities, obstacles)
    }

    fn mixed_queries() -> Vec<Query> {
        vec![
            Query::Nearest {
                q: Point::new(0.0, 0.0),
                k: 2,
            },
            Query::Range {
                q: Point::new(0.0, 0.0),
                e: 2.5,
            },
            Query::DistanceJoin { e: 2.4 },
            Query::ClosestPairs { k: 3 },
            Query::SemiJoin {
                strategy: SemiJoinStrategy::PerObjectNn,
            },
            Query::Path {
                from: Point::new(0.0, 0.0),
                to: Point::new(2.0, 0.0),
            },
            Query::Nearest {
                q: Point::new(3.0, 3.0),
                k: 1,
            },
            Query::Path {
                from: Point::new(0.5, 1.1),
                to: Point::new(0.5, 1.1),
            },
        ]
    }

    #[test]
    fn batch_matches_sequential_execution() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries = mixed_queries();
        let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = engine.batch(&queries).threads(threads).collect().0;
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(sequential.iter()).enumerate() {
                assert!(
                    p.same_results(s),
                    "threads {threads}, query {i}: {p:?} vs {s:?}"
                );
            }
        }
    }

    #[test]
    fn answers_land_at_their_input_index() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        // Distinguishable k values: answer i must hold i+1 neighbours.
        let queries: Vec<Query> = (0..4)
            .map(|i| Query::Nearest {
                q: Point::new(0.0, 0.0),
                k: i + 1,
            })
            .collect();
        let answers = engine.batch(&queries).threads(4).collect().0;
        for (i, a) in answers.iter().enumerate() {
            match a {
                Answer::Nearest(r) => assert_eq!(r.neighbors.len(), i + 1),
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }

    #[test]
    fn per_query_stats_are_attributed_not_global() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries: Vec<Query> = (0..6)
            .map(|_| Query::Nearest {
                q: Point::new(0.0, 0.0),
                k: 2,
            })
            .collect();
        // Identical queries: each answer's logical fetch count must stay
        // within the solo run's per-query count (global-counter diffing
        // under interleaving would lump several queries' reads together
        // and overshoot). Scene reuse may legitimately *reduce* obstacle
        // fetches for later queries of a worker — never inflate them.
        let solo = engine.execute(&queries[0]);
        let solo_fetches =
            solo.stats().unwrap().entity_fetches + solo.stats().unwrap().obstacle_fetches;
        assert!(solo_fetches > 0, "scene too small to observe fetches");
        for a in engine.batch(&queries).threads(3).collect().0 {
            let s = a.stats().unwrap();
            let fetches = s.entity_fetches + s.obstacle_fetches;
            assert!(
                fetches > 0 && fetches <= solo_fetches,
                "per-query window {fetches} vs solo {solo_fetches}"
            );
        }
    }

    #[test]
    fn scene_cache_reuses_and_matches_fresh_execution() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries = mixed_queries();
        let mut cache = SceneCache::new(engine.options);
        for q in &queries {
            let cached = engine.execute_with(q, &mut cache);
            let fresh = engine.execute(q);
            assert!(
                cached.same_results(&fresh),
                "scene reuse changed results: {cached:?} vs {fresh:?}"
            );
        }
        assert!(
            cache.reuses() > 0,
            "the clustered workload must reuse the scene at least once"
        );
    }

    #[test]
    fn scene_cache_tie_breaking_is_scene_independent() {
        // A perfectly symmetric wall: the two shortest paths around it
        // have *exactly* equal length, so the chosen polyline is decided
        // purely by tie-breaking — which must not depend on how many
        // obstacles/waypoints earlier queries left in the cached scene.
        let entities = EntityIndex::build(RTreeConfig::tiny(4), vec![Point::new(9.0, 0.0)]);
        let obstacles = ObstacleIndex::build(
            RTreeConfig::tiny(4),
            vec![
                Polygon::from_rect(Rect::from_coords(1.0, -2.0, 1.2, 2.0)),
                Polygon::from_rect(Rect::from_coords(4.0, -3.0, 4.4, 3.0)),
            ],
        );
        let engine = QueryEngine::new(&entities, &obstacles);
        let tie = Query::Path {
            from: Point::new(0.0, 0.0),
            to: Point::new(2.0, 0.0),
        };
        // Warm the cache with queries that absorb both obstacles (in a
        // different order than the tie query would) before the tie query.
        let warmers = [
            Query::Path {
                from: Point::new(3.5, 0.0),
                to: Point::new(5.0, 0.0),
            },
            Query::Nearest {
                q: Point::new(2.0, 0.0),
                k: 1,
            },
        ];
        let fresh = engine.execute(&tie);
        let mut cache = SceneCache::new(engine.options);
        for w in &warmers {
            let _ = engine.execute_with(w, &mut cache);
        }
        let cached = engine.execute_with(&tie, &mut cache);
        assert!(
            cached.same_results(&fresh),
            "exact tie resolved differently on a warm scene: {cached:?} vs {fresh:?}"
        );
    }

    #[test]
    fn scene_cache_resets_on_region_jump_and_budget() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let mut cache = SceneCache::new(engine.options);
        // Universe is small; jump far beyond 2 % slack to force a retire.
        let a = Query::Nearest {
            q: Point::new(0.0, 0.0),
            k: 1,
        };
        let b = Query::Nearest {
            q: Point::new(1e6, 1e6),
            k: 1,
        };
        let _ = engine.execute_with(&a, &mut cache);
        let _ = engine.execute_with(&b, &mut cache);
        assert_eq!(cache.resets(), 1, "distant query must retire the scene");
        assert_eq!(cache.reuses(), 0);
    }

    #[test]
    fn degenerate_batches() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        assert!(engine.batch(&[]).threads(4).collect().0.is_empty());
        let one = engine
            .batch(&[Query::Range {
                q: Point::new(0.0, 0.0),
                e: 1.0,
            }])
            .threads(16)
            .collect()
            .0;
        assert_eq!(one.len(), 1);
        // Zero threads clamps to one.
        assert_eq!(
            engine.batch(&mixed_queries()).threads(0).collect().0.len(),
            8
        );
    }

    #[test]
    fn schedule_order_is_a_deterministic_permutation() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries = mixed_queries();
        for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
            let order = engine.schedule_order(&queries, schedule);
            assert_eq!(order, engine.schedule_order(&queries, schedule));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..queries.len()).collect::<Vec<_>>());
        }
        assert_eq!(
            engine.schedule_order(&queries, Schedule::InputOrder),
            (0..queries.len()).collect::<Vec<_>>()
        );
        // Regionless dataset-wide operators come first under Hilbert.
        let hilbert = engine.schedule_order(&queries, Schedule::Hilbert);
        let heavy: Vec<usize> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| {
                matches!(
                    q,
                    Query::DistanceJoin { .. }
                        | Query::SemiJoin { .. }
                        | Query::ClosestPairs { .. }
                )
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hilbert[..heavy.len()], heavy[..]);
    }

    #[test]
    fn streaming_yields_every_answer_with_matching_results() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries = mixed_queries();
        let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
        for threads in [1usize, 3] {
            for schedule in [Schedule::InputOrder, Schedule::Hilbert] {
                let request = engine.batch(&queries).threads(threads).schedule(schedule);
                let (pairs, stats) =
                    request.stream(|stream| stream.collect::<Vec<(usize, Answer)>>());
                assert_eq!(pairs.len(), queries.len());
                assert_eq!(stats.workers, threads.clamp(1, queries.len()));
                let mut seen = vec![false; queries.len()];
                for (i, a) in &pairs {
                    assert!(!seen[*i], "index {i} delivered twice");
                    seen[*i] = true;
                    assert!(
                        a.same_results(&sequential[*i]),
                        "threads {threads}, {schedule:?}, query {i}"
                    );
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn dropping_the_stream_early_cancels_without_hanging() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries: Vec<Query> = (0..32)
            .map(|i| Query::Nearest {
                q: Point::new(0.1 * i as f64, 0.0),
                k: 1,
            })
            .collect();
        for threads in [1, 2] {
            let (first, stats) = engine
                .batch(&queries)
                .threads(threads)
                .stream(|mut stream| stream.next());
            let (i, a) = first.expect("at least one answer lands");
            assert!(a.same_results(&engine.execute(&queries[i])));
            assert!(stats.workers == threads);
        }
    }

    #[test]
    fn each_delivers_every_answer_exactly_once() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries = mixed_queries();
        let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
        let mut delivered = Vec::new();
        let stats = engine
            .batch(&queries)
            .threads(3)
            .each(|i, a| delivered.push((i, a)));
        delivered.sort_by_key(|(i, _)| *i);
        assert_eq!(delivered.len(), queries.len());
        for (pos, (i, a)) in delivered.iter().enumerate() {
            assert_eq!(pos, *i);
            assert!(a.same_results(&sequential[*i]));
        }
        assert!(stats.scene_reuses + stats.scene_resets <= queries.len());
    }

    #[test]
    fn fan_out_returns_outputs_in_index_order() {
        for workers in [0, 1, 2, 4, 64] {
            let squares = fan_out(100, workers, |i| i * i);
            assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    /// The cost fields a fanned-out operator must reproduce exactly at
    /// every worker count (`cpu` and the buffer hit/miss split may vary).
    fn exact_costs(s: &QueryStats) -> ([usize; 5], [u64; 2]) {
        (
            [
                s.distance_computations,
                s.peak_graph_nodes,
                s.candidates,
                s.false_hits,
                s.results,
            ],
            [s.entity_fetches, s.obstacle_fetches],
        )
    }

    #[test]
    fn direct_joins_are_identical_at_every_worker_count() {
        let city = obstacle_datagen::City::generate(obstacle_datagen::CityConfig::new(400, 0x30));
        let points = |seed| obstacle_datagen::sample_entities(&city, 150, seed);
        let s = EntityIndex::build(RTreeConfig::tiny(8), points(0x31));
        let t = EntityIndex::build(RTreeConfig::tiny(8), points(0x32));
        let o = ObstacleIndex::build(RTreeConfig::tiny(8), city.obstacles.clone());
        let options = EngineOptions::default();
        let odj = |workers| distance_join_on(&s, &t, &o, 0.05, options, workers);
        let semi =
            |workers| semi_join_on(&s, &t, &o, SemiJoinStrategy::PerObjectNn, options, workers);
        let operators: [(&str, &dyn Fn(usize) -> JoinResult); 2] = [("odj", &odj), ("semi", &semi)];
        for (name, run) in operators {
            let inline = run(1);
            assert!(
                inline.pairs.len() > 50,
                "{name}: {} rows",
                inline.pairs.len()
            );
            assert!(inline.stats.obstacle_fetches > 0);
            for workers in [2, 4] {
                let fanned = run(workers);
                assert_eq!(fanned.pairs, inline.pairs, "{name} at {workers} workers");
                assert_eq!(
                    exact_costs(&fanned.stats),
                    exact_costs(&inline.stats),
                    "{name} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn scheduled_batches_report_scene_stats() {
        let (entities, obstacles) = scene();
        let engine = QueryEngine::new(&entities, &obstacles);
        let queries = mixed_queries();
        let (answers, stats) = engine
            .batch(&queries)
            .threads(1)
            .schedule(Schedule::Hilbert)
            .collect();
        let sequential: Vec<Answer> = queries.iter().map(|q| engine.execute(q)).collect();
        for (p, s) in answers.iter().zip(sequential.iter()) {
            assert!(p.same_results(s));
        }
        assert_eq!(stats.workers, 1);
        assert!(
            stats.scene_reuses > 0,
            "the tiny clustered workload must warm the scene"
        );
    }
}

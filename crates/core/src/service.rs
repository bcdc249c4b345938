//! Resident query service: a long-lived worker pool with admission
//! control, fed concurrently while it executes.
//!
//! The batch engine ([`QueryEngine::batch`](crate::QueryEngine::batch))
//! drains one fixed slice and exits — the experiment shape. A server
//! shape is different: queries arrive while earlier ones execute, the
//! pending set must stay bounded (or the process melts under offered
//! load), and the interesting metric is *time to answer*, not batch
//! wall-clock. [`QueryService`] provides that shape on the same
//! machinery:
//!
//! * **One pool for the process lifetime.** Workers are
//!   `std::thread::scope` threads living as long as
//!   [`QueryService::run`]'s body; each owns a persistent [`SceneCache`]
//!   exactly like a batch worker, so a resident service keeps its scenes
//!   warm *across* submissions — the whole point of staying resident.
//! * **Live Hilbert re-scheduling.** The pending queue is a B-tree keyed
//!   by the batch engine's Hilbert scheduling key; workers claim in an
//!   elevator scan over that key space, so a late arrival near the
//!   current scan position slots into the live claim order instead of
//!   queueing behind everything submitted before it (under
//!   [`Schedule::InputOrder`] the queue degrades to FIFO).
//! * **Admission control.** The queue depth is bounded; a submission
//!   over the bound blocks, is rejected, or evicts the oldest pending
//!   query per [`Admission`].
//! * **Completions over the streaming channel machinery.** Every
//!   submission is eventually answered with a [`Completion`] over the
//!   same `mpsc` channel shape [`BatchStream`](crate::BatchStream)
//!   drains, carrying the answer, its time-to-answer (stamped via
//!   [`Stopwatch`] from the submission instant), and the epoch pair the
//!   execution observed — the replay handle the soak suite pins
//!   bit-identical answers with.
//! * **Edits while serving.** [`QueryService::apply_updates`] takes the
//!   world write lock, so an edit batch commits atomically between
//!   queries; workers re-validate their scene caches through the epoch
//!   machinery like any batch run.
//!
//! Determinism note: a concurrent service cannot promise a global
//! execution order, but it promises something just as testable — every
//! answer is bit-identical to a sequential
//! [`execute`](crate::QueryEngine::execute) of the same query against
//! the index state identified by the completion's epoch pair. The
//! `service` integration suite replays exactly that.

use crate::batch::{hilbert_key, Answer, SceneCache, Schedule};
use crate::engine::{EngineOptions, EntityIndex, ObstacleIndex, QueryEngine};
use crate::updates::{Update, UpdateStats};
use crate::Query;
use obstacle_geom::Rect;
use obstacle_rtree::sync::{Condvar, Mutex, RwLock, Stopwatch};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

/// Admission policy of a full service queue (depth at
/// [`ServiceConfig::queue_depth`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitting thread until a slot frees (back-pressure;
    /// closed-loop clients).
    #[default]
    Block,
    /// Refuse the new submission with [`SubmitError::Rejected`]
    /// (load-shedding at the door; the submitter keeps the query).
    Reject,
    /// Admit the new submission and evict the *oldest* pending query,
    /// which completes immediately as [`Outcome::Shed`] (freshness over
    /// fairness: under overload, old queries are the stalest).
    ShedOldest,
}

/// Configuration of a [`QueryService`] run.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads owned by the service (min 1).
    pub workers: usize,
    /// Maximum pending (submitted, unclaimed) queries.
    pub queue_depth: usize,
    /// Policy when a submission finds the queue full.
    pub admission: Admission,
    /// Claim-order policy: [`Schedule::Hilbert`] runs the elevator scan
    /// over the live queue, [`Schedule::InputOrder`] is FIFO.
    pub schedule: Schedule,
    /// Start with claiming paused: submissions queue (and admission
    /// applies) but nothing executes until [`QueryService::resume`].
    /// Lets tests — and staged warm-ups — fill the queue
    /// deterministically.
    pub paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            admission: Admission::default(),
            schedule: Schedule::Hilbert,
            paused: false,
        }
    }
}

impl ServiceConfig {
    /// Same config with `workers` worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Same config with the given queue bound.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Same config with the given admission policy.
    pub fn admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// Same config with the given claim-order policy.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Same config starting paused (see [`ServiceConfig::paused`]).
    pub fn paused(mut self, paused: bool) -> Self {
        self.paused = paused;
        self
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was full under [`Admission::Reject`].
    Rejected,
    /// The service is shutting down (its body already returned).
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected => write!(f, "query rejected: service queue full"),
            SubmitError::Closed => write!(f, "query refused: service closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a submission ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The query executed.
    Answered {
        /// The query's answer.
        answer: Answer,
        /// Entity-index epoch observed during execution.
        entity_epoch: u64,
        /// Obstacle-index epoch observed during execution.
        obstacle_epoch: u64,
    },
    /// Evicted unexecuted by [`Admission::ShedOldest`].
    Shed,
    /// Cancelled unexecuted by its [`Ticket`] being dropped.
    Cancelled,
}

impl Outcome {
    /// The answer, when the query executed.
    pub fn answer(&self) -> Option<&Answer> {
        match self {
            Outcome::Answered { answer, .. } => Some(answer),
            _ => None,
        }
    }
}

/// One delivered completion: every admitted submission produces exactly
/// one, whether it was answered, shed, or cancelled.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The ticket id of the submission this answers.
    pub id: u64,
    /// How the submission ended.
    pub outcome: Outcome,
    /// Time from submission to this completion (time-to-answer), from
    /// the submission's [`Stopwatch`].
    pub latency: Duration,
}

/// Receipt of an admitted submission. Dropping the ticket cancels the
/// query if it is still pending (it completes as [`Outcome::Cancelled`]);
/// call [`Ticket::detach`] for fire-and-forget submissions.
#[derive(Debug)]
pub struct Ticket<'s> {
    id: u64,
    shared: &'s Shared,
    armed: bool,
}

impl Ticket<'_> {
    /// The id completions for this submission carry.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Disarms cancel-on-drop and returns the id: the query will run (or
    /// shed) regardless of the ticket's lifetime.
    pub fn detach(mut self) -> u64 {
        self.armed = false;
        self.id
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.cancel(self.id);
        }
    }
}

/// Log-bucketed time-to-answer histogram (~6 % resolution: sixteen
/// linear sub-buckets per power-of-two of nanoseconds), with exact
/// count/mean/max.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    max_nanos: u64,
}

/// Bucket index of a nanosecond value: identity below 16, then sixteen
/// sub-buckets per octave keyed by the four bits after the leading one.
fn bucket_index(nanos: u64) -> usize {
    if nanos < 16 {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros() as usize; // >= 4
    let sub = ((nanos >> (exp - 4)) & 0xF) as usize;
    16 * (exp - 4) + sub + 16
}

/// Upper bound (inclusive) of a bucket, the value percentiles report.
fn bucket_upper(index: usize) -> u64 {
    if index < 16 {
        return index as u64;
    }
    let exp = (index - 16) / 16 + 4;
    let sub = ((index - 16) % 16) as u64;
    (1u64 << exp) + (sub + 1) * (1u64 << (exp - 4)) - 1
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let idx = bucket_index(nanos);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_nanos / u128::from(self.count)) as u64)
    }

    /// Exact maximum latency recorded.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The `p`-quantile (`p` in `[0, 1]`), reported as its bucket's
    /// upper bound — within ~6 % of the exact order statistic. Zero when
    /// empty.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(bucket_upper(idx).min(self.max_nanos));
            }
        }
        self.max()
    }

    /// Median time-to-answer.
    pub fn p50(&self) -> Duration {
        self.percentile(0.50)
    }

    /// 90th-percentile time-to-answer.
    pub fn p90(&self) -> Duration {
        self.percentile(0.90)
    }

    /// 99th-percentile time-to-answer.
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }
}

/// Aggregate diagnostics of a service run: admission counters, the
/// scene-cache counters summed over workers (as in
/// [`BatchStats`](crate::BatchStats)), and the time-to-answer histogram.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Submissions admitted into the queue (excludes rejections).
    pub submitted: u64,
    /// Submissions that executed to an [`Outcome::Answered`].
    pub answered: u64,
    /// Submissions refused at the door ([`Admission::Reject`]).
    pub rejected: u64,
    /// Pending queries evicted by [`Admission::ShedOldest`].
    pub shed: u64,
    /// Pending queries cancelled by ticket drop.
    pub cancelled: u64,
    /// Queries answered on a warm (reused) scene, summed over workers.
    pub scene_reuses: usize,
    /// Scenes retired (region jump or budget), summed over workers.
    pub scene_resets: usize,
    /// Scenes retired by epoch validation, summed over workers.
    pub scene_invalidations: usize,
    /// Time-to-answer distribution of answered queries.
    pub latency: LatencyHistogram,
}

/// One pending submission.
#[derive(Debug)]
struct Pending {
    query: Query,
    sw: Stopwatch,
}

/// The service queue plus every counter that must move atomically with
/// it. One mutex (paired with one condvar for all wakeups: enqueue,
/// dequeue, resume, close) keeps the locking story trivially cycle-free.
#[derive(Debug)]
struct QueueState {
    /// Pending queries keyed `(claim key, ticket id)` — the live claim
    /// order. Under Hilbert scheduling the claim key is the batch
    /// engine's [`hilbert_key`]; under input order it is 0, so the
    /// B-tree degrades to a FIFO on ticket id.
    entries: BTreeMap<(u64, u64), Pending>,
    /// Ticket id → map key, for O(log n) cancellation/shedding; ordered
    /// so the *oldest* pending (smallest id) is `first_key_value`.
    index: BTreeMap<u64, (u64, u64)>,
    /// Next ticket id.
    next_id: u64,
    /// Elevator position of the Hilbert claim scan.
    cursor: u64,
    paused: bool,
    closed: bool,
    /// Completion sender (lives in the queue state so cancellation and
    /// shedding — which hold the queue lock anyway — can deliver).
    tx: mpsc::Sender<Completion>,
    stats: ServiceStats,
}

impl QueueState {
    /// Claims the next pending query in live order: the first entry at
    /// or after the elevator cursor, wrapping to the front. Under input
    /// order every claim key is 0 and this is plain FIFO.
    fn claim(&mut self) -> Option<(u64, Pending)> {
        let key = self
            .entries
            .range((self.cursor, 0)..)
            .next()
            .or_else(|| self.entries.iter().next())
            .map(|(&k, _)| k)?;
        self.cursor = key.0;
        let pending = self.entries.remove(&key)?;
        self.index.remove(&key.1);
        Some((key.1, pending))
    }

    /// Delivers a terminal completion for an unexecuted pending query.
    fn finish_unexecuted(&mut self, id: u64, pending: Pending, outcome: Outcome) {
        let latency = pending.sw.elapsed();
        let _ = self.tx.send(Completion {
            id,
            outcome,
            latency,
        });
    }
}

/// State shared by the service handle, its tickets and its workers.
#[derive(Debug)]
struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    config: ServiceConfig,
    /// Obstacle universe captured at service start: the fixed Hilbert
    /// key space late arrivals are rescheduled into.
    universe: Rect,
}

impl Shared {
    /// Cancels `id` if still pending (ticket drop). A miss means the
    /// query was already claimed, shed, or answered — not an error.
    fn cancel(&self, id: u64) {
        let mut q = self.queue.lock();
        if let Some(key) = q.index.remove(&id) {
            if let Some(pending) = q.entries.remove(&key) {
                q.stats.cancelled += 1;
                q.finish_unexecuted(id, pending, Outcome::Cancelled);
                // A freed slot may unblock Admission::Block submitters.
                self.cv.notify_all();
            }
        }
    }
}

/// Marks the queue closed (and un-paused, so the drain makes progress)
/// and wakes everyone when dropped — at the end of [`QueryService::run`]'s
/// body, and equally when the body unwinds: workers parked on the condvar
/// would otherwise keep `thread::scope` waiting forever and the panic
/// would never surface.
struct CloseOnDrop<'s>(&'s Shared);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        let mut q = self.0.queue.lock();
        q.closed = true;
        q.paused = false;
        drop(q);
        self.0.cv.notify_all();
    }
}

/// The indexes the service owns for its lifetime, behind one lock so
/// edit batches commit atomically against every in-flight query.
#[derive(Debug)]
struct World {
    entities: EntityIndex,
    obstacles: ObstacleIndex,
}

/// Everything a finished [`QueryService::run`] hands back: the body's
/// return value, the final stats, and the (possibly edited) indexes.
#[derive(Debug)]
pub struct ServiceRun<R> {
    /// The body closure's return value.
    pub output: R,
    /// Final aggregate stats (scene counters summed at shutdown).
    pub stats: ServiceStats,
    /// The entity index, with every applied edit.
    pub entities: EntityIndex,
    /// The obstacle index, with every applied edit.
    pub obstacles: ObstacleIndex,
}

/// A live resident query service — the handle [`QueryService::run`]
/// passes to its body. Submit from any thread (the handle is `Sync`;
/// scoped submitter threads borrow it), receive completions, apply
/// edits, read stats.
#[derive(Debug)]
pub struct QueryService<'s> {
    shared: &'s Shared,
    world: &'s RwLock<World>,
    /// The single consumer end of the completion channel, lockable so
    /// any thread may drain (one at a time).
    rx: Mutex<mpsc::Receiver<Completion>>,
}

impl<'s> QueryService<'s> {
    /// Runs a resident service: takes ownership of the indexes, starts
    /// `config.workers` scoped worker threads, and calls `body` with the
    /// live service handle. When `body` returns the service closes:
    /// still-pending queries drain (they execute — a paused service is
    /// resumed for the drain), workers join, and the indexes are handed
    /// back in the [`ServiceRun`]. A `body` that panics closes the
    /// service the same way, and the panic propagates once the workers
    /// have joined.
    ///
    /// Structured concurrency, deliberately: the pool lives exactly as
    /// long as the body, no detached threads, and the indexes come back
    /// out — so a process can run the service for its whole lifetime by
    /// making its main loop the body.
    pub fn run<R>(
        entities: EntityIndex,
        obstacles: ObstacleIndex,
        options: EngineOptions,
        config: ServiceConfig,
        body: impl FnOnce(&QueryService<'_>) -> R,
    ) -> ServiceRun<R> {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let universe = QueryEngine::new(&entities, &obstacles).universe();
        let (tx, rx) = mpsc::channel();
        let shared = Shared {
            queue: Mutex::new(QueueState {
                entries: BTreeMap::new(),
                index: BTreeMap::new(),
                next_id: 0,
                cursor: 0,
                paused: config.paused,
                closed: false,
                tx,
                stats: ServiceStats::default(),
            }),
            cv: Condvar::new(),
            config,
            universe,
        };
        let world = RwLock::new(World {
            entities,
            obstacles,
        });

        let (output, stats) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..config.workers)
                .map(|_| scope.spawn(|| worker_loop(&shared, &world, options)))
                .collect();
            let service = QueryService {
                shared: &shared,
                world: &world,
                rx: Mutex::new(rx),
            };
            let output = {
                let _close = CloseOnDrop(&shared);
                body(&service)
            };
            let mut stats = {
                let mut q = shared.queue.lock();
                std::mem::take(&mut q.stats)
            };
            for worker in workers {
                // A panicking worker re-raises its own payload here.
                let (reuses, resets, invalidations) = worker
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                stats.scene_reuses += reuses;
                stats.scene_resets += resets;
                stats.scene_invalidations += invalidations;
            }
            (output, stats)
        });
        let World {
            entities,
            obstacles,
        } = world.into_inner();
        ServiceRun {
            output,
            stats,
            entities,
            obstacles,
        }
    }

    /// Submits one query. On admission returns a [`Ticket`] whose id
    /// future [`Completion`]s carry; the query's time-to-answer clock
    /// starts now. A full queue blocks, rejects, or sheds the oldest
    /// pending query per the configured [`Admission`].
    pub fn submit(&self, query: Query) -> Result<Ticket<'s>, SubmitError> {
        let depth = self.shared.config.queue_depth;
        let mut q = self.shared.queue.lock();
        if q.closed {
            return Err(SubmitError::Closed);
        }
        if q.entries.len() >= depth {
            match self.shared.config.admission {
                Admission::Block => {
                    while q.entries.len() >= depth && !q.closed {
                        q = self.shared.cv.wait(q);
                    }
                    if q.closed {
                        return Err(SubmitError::Closed);
                    }
                }
                Admission::Reject => {
                    q.stats.rejected += 1;
                    return Err(SubmitError::Rejected);
                }
                Admission::ShedOldest => {
                    if let Some((&victim, &vkey)) = q.index.first_key_value() {
                        q.index.remove(&victim);
                        if let Some(pending) = q.entries.remove(&vkey) {
                            q.stats.shed += 1;
                            q.finish_unexecuted(victim, pending, Outcome::Shed);
                        }
                    }
                }
            }
        }
        let id = q.next_id;
        q.next_id += 1;
        let key = match self.shared.config.schedule {
            Schedule::InputOrder => 0,
            Schedule::Hilbert => hilbert_key(&query, &self.shared.universe),
        };
        q.entries.insert(
            (key, id),
            Pending {
                query,
                sw: Stopwatch::start(),
            },
        );
        q.index.insert(id, (key, id));
        q.stats.submitted += 1;
        drop(q);
        self.shared.cv.notify_all();
        Ok(Ticket {
            id,
            shared: self.shared,
            armed: true,
        })
    }

    /// Receives the next completion, blocking until one arrives. Only
    /// call when completions are owed (submitted minus received, plus
    /// the cancellations/sheds those produce) — the service stays live
    /// for the whole body, so an over-call blocks until more work is
    /// submitted. Use [`QueryService::recv_timeout`] when the count is
    /// not known.
    pub fn recv(&self) -> Option<Completion> {
        self.rx.lock().recv().ok()
    }

    /// Receives the next completion, giving up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Completion> {
        self.rx.lock().recv_timeout(timeout).ok()
    }

    /// Receives a completion only if one is already queued.
    pub fn try_recv(&self) -> Option<Completion> {
        self.rx.lock().try_recv().ok()
    }

    /// Applies one edit batch atomically against the service's indexes:
    /// takes the world write lock (waiting out in-flight queries), so
    /// every query observes either the pre- or post-batch state — never
    /// a torn middle. Workers' scene caches revalidate via the epoch
    /// machinery on their next claim.
    pub fn apply_updates(&self, edits: Vec<Update>) -> UpdateStats {
        let mut w = self.world.write();
        let World {
            entities,
            obstacles,
        } = &mut *w;
        QueryEngine::apply_updates(entities, obstacles, edits)
    }

    /// Un-pauses claiming (see [`ServiceConfig::paused`]).
    pub fn resume(&self) {
        self.shared.queue.lock().paused = false;
        self.shared.cv.notify_all();
    }

    /// Current pending (admitted, unclaimed) queue depth.
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().entries.len()
    }

    /// Snapshot of the run's stats so far. Scene-cache counters are
    /// worker-owned and summed only at shutdown; the snapshot reports
    /// them as zero until then.
    pub fn stats(&self) -> ServiceStats {
        self.shared.queue.lock().stats.clone()
    }
}

/// One worker: claim → execute under the world read lock → stamp epochs
/// and latency → deliver. Returns its scene-cache counters for the final
/// stats sum.
fn worker_loop(
    shared: &Shared,
    world: &RwLock<World>,
    options: EngineOptions,
) -> (usize, usize, usize) {
    let mut cache = SceneCache::new(options);
    loop {
        let claimed = {
            let mut q = shared.queue.lock();
            loop {
                if !q.paused {
                    if let Some(c) = q.claim() {
                        break Some(c);
                    }
                }
                if q.closed {
                    break None;
                }
                q = shared.cv.wait(q);
            }
        };
        let Some((id, pending)) = claimed else {
            return (cache.reuses(), cache.resets(), cache.invalidations());
        };
        // A dequeue frees a slot: wake Admission::Block submitters.
        shared.cv.notify_all();

        let w = world.read();
        let engine = QueryEngine::with_options(&w.entities, &w.obstacles, options);
        let answer = engine.execute_with(&pending.query, &mut cache);
        let entity_epoch = w.entities.epoch();
        let obstacle_epoch = w.obstacles.epoch();
        drop(w);

        let latency = pending.sw.elapsed();
        let mut q = shared.queue.lock();
        q.stats.answered += 1;
        q.stats.latency.record(latency);
        let _ = q.tx.send(Completion {
            id,
            outcome: Outcome::Answered {
                answer,
                entity_epoch,
                obstacle_epoch,
            },
            latency,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_exhaustive() {
        // Every nanosecond value maps to a bucket whose bounds contain it.
        for nanos in [0, 1, 15, 16, 17, 255, 1_000, 65_535, 1_000_000_000] {
            let idx = bucket_index(nanos);
            assert!(bucket_upper(idx) >= nanos, "upper({idx}) < {nanos}");
            if idx > 0 {
                assert!(
                    bucket_upper(idx - 1) < nanos,
                    "bucket not minimal for {nanos}"
                );
            }
        }
    }

    #[test]
    fn histogram_percentiles_bracket_known_samples() {
        let mut h = LatencyHistogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50().as_millis() as f64;
        let p99 = h.p99().as_millis() as f64;
        // ~6 % bucket resolution around the exact order statistics.
        assert!((47.0..=54.0).contains(&p50), "p50 = {p50}");
        assert!((93.0..=106.0).contains(&p99), "p99 = {p99}");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
        assert_eq!(h.max(), Duration::from_millis(100));
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }
}

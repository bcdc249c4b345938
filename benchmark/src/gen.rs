//! The fixed database and the seeded traffic of every workload.
//!
//! The *database* is the same on every run: the city, the entity set `P`,
//! the join sets `S`/`T`/`S′`, the hotspot centres and the locations the
//! service's clients ask from. What a query costs depends on where it
//! lands by more than a factor of ten (downtown density), so with |O| =
//! 32768 the city seed alone moves `scattered` throughput by ±15 %, a
//! draw of 32 hotspots moves `clustered` by 12 %, a draw of 200 probe
//! points moves the `joins` tail by 17 % — each wider than any bound
//! worth having. `--seed` derives the *traffic*: the `scattered` points
//! (8000 i.i.d. draws average out), the points around each hotspot, path
//! endpoints, the order of the join operators, which client asks when
//! (order and Poisson arrival instants) and the edit batches. The
//! program under test only ever receives these generated inputs.
//!
//! Parameters are selectivity-scaled, never the paper's §7 grid (whose
//! `e` = 0.1 % of the side finds nothing at this density and whose
//! `k` = 256 draws are 99.9 % of the wall time): NN `k` = 16, range `e`
//! sized for ≈ 16 Euclidean hits, path endpoints ≈ 3 % of the side apart.

use obstacle_core::{EntityIndex, ObstacleIndex, Query, Update};
use obstacle_datagen::{open_loop_arrivals, sample_entities, City, CityConfig, EntitySets};
use obstacle_geom::rng::{Rng, SeedableRng, SmallRng};
use obstacle_geom::{Point, Polygon, Rect};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::{Backend, RTreeConfig, TreeBackend};
use std::time::Duration;

/// |O|: obstacles in the city.
pub const OBSTACLES: usize = 32_768;
/// |P|: entities.
pub const ENTITIES: usize = 32_768;
/// |S| = |T| (`T_RATIO` 0.1 of |O|).
pub const JOIN_SET: usize = 3_276;
/// |S′|, the semi-join probe set.
pub const SEMI_SET: usize = 200;
/// NN `k`.
pub const NN_K: usize = 16;
/// Seed of the fixed database (see the module docs).
const DATABASE_SEED: u64 = 0x0B57_2004;
/// Client locations of the service workload: the open loop asks from the
/// first n of [`STEADY_CLIENTS`] (cycling beyond), the closed loop cycles
/// through [`SATURATE_CLIENTS`].
const STEADY_CLIENTS: usize = 4_096;
const SATURATE_CLIENTS: usize = 1_024;
/// Distance between path endpoints, as a fraction of the side.
const PATH_SPAN: f64 = 0.03;
/// Hotspots per `clustered` chunk and their half-width (fraction of the
/// side; well below the scene caches' 2 % reuse slack).
const HOTSPOTS: usize = 32;
const HOTSPOT_SPREAD: f64 = 0.005;
/// Distinct query sets ("chunks") of a batch workload; a run cycles
/// through them.
pub const CHUNKS: usize = 4;
/// Offered rate of the open-loop phase (≈ 0.6 × the 1-worker capacity
/// measured when the benchmark was defined).
pub const ARRIVAL_RATE: f64 = 75.0;
/// Seconds between edit batches, and the quiet tail before the last
/// arrival (so the final completions carry the final epochs and can be
/// replayed on the indexes the service hands back).
const EDIT_PERIOD: f64 = 0.4;
const QUIET_TAIL: f64 = 1.0;
/// Edits of each kind per batch.
const EDITS_PER_KIND: usize = 8;
/// Side of an inserted obstacle, as a fraction of the side.
const INSERT_SIDE: f64 = 0.001;

/// Independent 64-bit stream `stream` of the run seed (SplitMix64).
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed database.
pub struct Database {
    pub city: City,
    pub points: Vec<Point>,
    pub sets: EntitySets,
    /// Hotspot centres of the `clustered` workload, [`HOTSPOTS`] per
    /// chunk — part of the database (the front end's points of interest):
    /// what a hotspot costs depends on where it lies by a factor of ten,
    /// so seeded centres would make `--seed` a different workload.
    pub hotspots: Vec<Point>,
    /// `S′`, the semi-join probe set.
    pub semi_probe: Vec<Point>,
    /// Client locations of the service workload: open loop, closed loop.
    pub steady_clients: Vec<Point>,
    pub saturate_clients: Vec<Point>,
    pub side: f64,
    /// Time spent in `City::generate`.
    pub city_time: Duration,
    /// Time spent sampling `P`, `S` and `T`.
    pub entities_time: Duration,
}

impl Database {
    /// Generates the database (timed per datagen call, for `datagen.*`).
    pub fn generate() -> Database {
        let t = Stopwatch::start();
        let city = City::generate(CityConfig::new(OBSTACLES, DATABASE_SEED));
        let city_time = t.elapsed();
        let t = Stopwatch::start();
        let points = sample_entities(&city, ENTITIES, derive(DATABASE_SEED, 1));
        let sets = EntitySets::generate(&city, JOIN_SET, JOIN_SET, derive(DATABASE_SEED, 2));
        let entities_time = t.elapsed();
        let hotspots = sample_entities(&city, HOTSPOTS * CHUNKS, derive(DATABASE_SEED, 3));
        let semi_probe = sample_entities(&city, SEMI_SET, derive(DATABASE_SEED, 4));
        let steady_clients = sample_entities(&city, STEADY_CLIENTS, derive(DATABASE_SEED, 5));
        let saturate_clients = sample_entities(&city, SATURATE_CLIENTS, derive(DATABASE_SEED, 6));
        let side = city.universe.width().max(city.universe.height());
        Database {
            city,
            points,
            sets,
            hotspots,
            semi_probe,
            steady_clients,
            saturate_clients,
            side,
            city_time,
            entities_time,
        }
    }

    /// Range radius sized for ≈ 16 Euclidean hits: `side·sqrt(16/(π|P|))`.
    pub fn range_e(&self) -> f64 {
        self.side * (NN_K as f64 / (std::f64::consts::PI * ENTITIES as f64)).sqrt()
    }
}

/// `P` and `O` indexed on one backend.
pub struct Indexes {
    pub entities: EntityIndex,
    pub obstacles: ObstacleIndex,
}

fn config(backend: Backend) -> RTreeConfig {
    RTreeConfig::paper().with_backend(backend)
}

impl Indexes {
    /// Bulk-loads both trees on `backend`.
    pub fn build(db: &Database, backend: Backend) -> Indexes {
        Indexes {
            entities: EntityIndex::bulk_load(config(backend), db.points.clone()),
            obstacles: ObstacleIndex::bulk_load(config(backend), db.city.obstacles.clone()),
        }
    }
}

/// `S`, `T`, the probe set `S′` and `O`, indexed for the join operators.
pub struct JoinIndexes {
    pub s: EntityIndex,
    pub t: EntityIndex,
    pub s_prime: EntityIndex,
    pub obstacles: ObstacleIndex,
}

impl JoinIndexes {
    /// Bulk-loads the four trees on `backend`.
    pub fn build(db: &Database, backend: Backend) -> JoinIndexes {
        JoinIndexes {
            s: EntityIndex::bulk_load(config(backend), db.sets.s.clone()),
            t: EntityIndex::bulk_load(config(backend), db.sets.t.clone()),
            s_prime: EntityIndex::bulk_load(config(backend), db.semi_probe.clone()),
            obstacles: ObstacleIndex::bulk_load(config(backend), db.city.obstacles.clone()),
        }
    }
}

/// One dataset-wide operator of a join round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JoinOp {
    /// `distance_join(S, T, e)`.
    DistanceJoin(f64),
    /// `closest_pairs(S, T, k)`.
    ClosestPairs(usize),
    /// `semi_join(S′, T, PerObjectNn)`.
    SemiJoin,
}

impl JoinOp {
    /// The layer-metric family this op is reported under.
    pub fn kind(&self) -> &'static str {
        match self {
            JoinOp::DistanceJoin(_) => "odj",
            JoinOp::ClosestPairs(_) => "ocp",
            JoinOp::SemiJoin => "semi",
        }
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_u64(0, i as u64 + 1) as usize);
    }
}

/// The seven ops of one join round, in this seed's order (the operators
/// are dataset-wide: their inputs are the database, the order they run in
/// is all a seed can decide).
pub fn join_round(db: &Database, seed: u64) -> Vec<JoinOp> {
    let mut round = vec![
        JoinOp::DistanceJoin(0.001 * db.side),
        JoinOp::DistanceJoin(0.002 * db.side),
        JoinOp::DistanceJoin(0.003 * db.side),
        JoinOp::ClosestPairs(4),
        JoinOp::ClosestPairs(16),
        JoinOp::ClosestPairs(64),
        JoinOp::SemiJoin,
    ];
    shuffle(&mut round, &mut SmallRng::seed_from_u64(derive(seed, 30)));
    round
}

/// Whether `p` lies in no obstacle interior.
fn is_free(obstacles: &ObstacleIndex, p: Point) -> bool {
    obstacles
        .tree()
        .range_rect(&Rect::from_point(p))
        .iter()
        .all(|item| !obstacles.polygon(item.id).contains_interior(p))
}

/// NN / range / path cycling over `points`: query `i` is anchored at
/// `points[i]`; a path ends at the entity nearest to a target
/// [`PATH_SPAN`] away in a random direction (entities are free points
/// following the obstacle distribution).
fn cycle_queries(
    db: &Database,
    ix: &Indexes,
    points: &[Point],
    classes: usize,
    rng: &mut SmallRng,
) -> Vec<Query> {
    let e = db.range_e();
    let u = db.city.universe;
    points
        .iter()
        .enumerate()
        .map(|(i, &q)| match i % classes {
            0 => Query::Nearest { q, k: NN_K },
            1 => Query::Range { q, e },
            _ => {
                let angle = rng.gen::<f64>() * std::f64::consts::TAU;
                let target = Point::new(
                    (q.x + PATH_SPAN * db.side * angle.cos()).clamp(u.min.x, u.max.x),
                    (q.y + PATH_SPAN * db.side * angle.sin()).clamp(u.min.y, u.max.y),
                );
                let to = ix
                    .entities
                    .tree()
                    .k_nearest(target, 1)
                    .first()
                    .map_or(q, |(item, _)| item.mbr.min);
                Query::Path { from: q, to }
            }
        })
        .collect()
}

/// Chunk `chunk` of the `scattered` workload: `count` NN/range/path
/// queries at obstacle-distributed points (i.i.d., so the input order is
/// already shuffled): every query lands somewhere new and builds its own
/// scene.
pub fn scattered_queries(
    db: &Database,
    ix: &Indexes,
    count: usize,
    seed: u64,
    chunk: usize,
) -> Vec<Query> {
    let points = sample_entities(&db.city, count, derive(seed, 100 + chunk as u64));
    let mut rng = SmallRng::seed_from_u64(derive(seed, 200 + chunk as u64));
    cycle_queries(db, ix, &points, 3, &mut rng)
}

/// Chunk `chunk` of the `clustered` workload: `count` NN/range/path
/// queries around the chunk's [`HOTSPOTS`] hotspot centres, round-robin
/// over the hotspots — input order maximally scattered, workload
/// spatially clustered (the obstructed-clustering front-end shape).
/// Displaced points are re-drawn until they are free, as
/// `clustered_batch_workload` does: a point inside an obstacle makes
/// every obstructed distance undefined and the operators scan everything.
pub fn clustered_queries(
    db: &Database,
    ix: &Indexes,
    count: usize,
    seed: u64,
    chunk: usize,
) -> Vec<Query> {
    let centres = &db.hotspots[chunk * HOTSPOTS..(chunk + 1) * HOTSPOTS];
    let mut rng = SmallRng::seed_from_u64(derive(seed, 300 + chunk as u64));
    let u = db.city.universe;
    let reach = HOTSPOT_SPREAD * db.side;
    let points: Vec<Point> = (0..count)
        .map(|j| {
            let c = centres[j % HOTSPOTS];
            for _ in 0..16 {
                let p = Point::new(
                    (c.x + (rng.gen::<f64>() - 0.5) * 2.0 * reach).clamp(u.min.x, u.max.x),
                    (c.y + (rng.gen::<f64>() - 0.5) * 2.0 * reach).clamp(u.min.y, u.max.y),
                );
                if is_free(&ix.obstacles, p) {
                    return p;
                }
            }
            c
        })
        .collect();
    cycle_queries(db, ix, &points, 3, &mut rng)
}

/// The warm-up pass that ends a set-up: NN/range/path at the first
/// `count` closed-loop clients — the same queries on every seed, so
/// `setup_s` does not move with the traffic.
pub fn warm_up_queries(db: &Database, ix: &Indexes, count: usize) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(derive(DATABASE_SEED, 7));
    cycle_queries(db, ix, &db.saturate_clients[..count], 3, &mut rng)
}

/// NN/range/path probes at `points` — what the traced `service_churn`
/// run feeds the point-query layers (its own traffic has no paths).
pub fn probe_queries_at(db: &Database, ix: &Indexes, points: &[Point], seed: u64) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 31));
    cycle_queries(db, ix, points, 3, &mut rng)
}

/// The traffic of the service workload.
pub struct ServiceTraffic {
    /// `(due offset, query)` of the open-loop phase, ascending.
    pub arrivals: Vec<(Duration, Query)>,
    /// `(due offset, edits)` of each edit batch, ascending.
    pub edits: Vec<(Duration, Vec<Update>)>,
    /// Queries the closed-loop phase cycles through.
    pub saturate: Vec<Query>,
}

/// Alternating NN/range queries at `clients`, in a seeded order. A
/// client's query never changes, so every seed asks the same questions
/// and only order and timing differ.
fn client_queries(
    db: &Database,
    ix: &Indexes,
    clients: impl Iterator<Item = Point>,
    rng: &mut SmallRng,
) -> Vec<Query> {
    let points: Vec<Point> = clients.collect();
    let mut queries = cycle_queries(db, ix, &points, 2, rng);
    shuffle(&mut queries, rng);
    queries
}

/// Generates the service traffic for an open-loop phase of `steady`
/// seconds: Poisson arrivals at [`ARRIVAL_RATE`] of the clients' NN/range
/// queries, and an edit batch every [`EDIT_PERIOD`] seconds of 8 obstacle
/// inserts in free space, 8 deletes of the previous batch's inserts,
/// 8 entity inserts and 8 entity deletes.
pub fn service_traffic(db: &Database, ix: &Indexes, steady: f64, seed: u64) -> ServiceTraffic {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 41));
    let budget = (ARRIVAL_RATE * steady * 1.5) as usize + 64;
    let offsets: Vec<Duration> = open_loop_arrivals(ARRIVAL_RATE, budget, derive(seed, 40))
        .into_iter()
        .take_while(|d| d.as_secs_f64() < steady)
        .collect();
    let clients = db
        .steady_clients
        .iter()
        .copied()
        .cycle()
        .take(offsets.len());
    let queries = client_queries(db, ix, clients, &mut rng);
    let last_arrival = offsets.last().map_or(0.0, Duration::as_secs_f64);
    let arrivals: Vec<(Duration, Query)> = offsets.into_iter().zip(queries).collect();

    let saturate = client_queries(db, ix, db.saturate_clients.iter().copied(), &mut rng);

    let batches = ((last_arrival - QUIET_TAIL) / EDIT_PERIOD).floor().max(0.0) as usize;
    let new_entities = sample_entities(&db.city, batches * EDITS_PER_KIND, derive(seed, 44));
    // The first `batches × 8` ids of a shuffle are the entity deletes.
    let mut doomed: Vec<u64> = (0..ENTITIES as u64).collect();
    shuffle(&mut doomed, &mut rng);

    // Inserted obstacles must keep the dataset legal: disjoint from every
    // obstacle (old or inserted), and clear of every point a query or an
    // entity will ever sit on.
    let keep_clear: Vec<Point> = arrivals
        .iter()
        .map(|(_, q)| anchor(q))
        .chain(saturate.iter().map(anchor))
        .chain(new_entities.iter().copied())
        .collect();
    let half = 0.5 * INSERT_SIDE * db.side;
    let u = db.city.universe;
    let mut inserted: Vec<Rect> = Vec::new();
    let mut draw_insert = |rng: &mut SmallRng| loop {
        let c = Point::new(
            u.min.x + half + rng.gen::<f64>() * (u.width() - 2.0 * half),
            u.min.y + half + rng.gen::<f64>() * (u.height() - 2.0 * half),
        );
        let r = Rect::from_point(c).expanded(half);
        let moat = r.expanded(half);
        if ix.obstacles.tree().range_rect(&moat).is_empty()
            && ix.entities.tree().range_rect(&moat).is_empty()
            && !inserted.iter().any(|o| o.intersects(&moat))
            && !keep_clear.iter().any(|p| moat.contains_point(*p))
        {
            inserted.push(r);
            return Polygon::from_rect(r);
        }
    };

    let mut edits = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut batch = Vec::with_capacity(4 * EDITS_PER_KIND);
        for i in 0..EDITS_PER_KIND {
            batch.push(Update::InsertObstacle(draw_insert(&mut rng)));
            if b > 0 {
                // Ids are assigned in insertion order after the bulk load.
                let id = OBSTACLES + (b - 1) * EDITS_PER_KIND + i;
                batch.push(Update::DeleteObstacle(id as u64));
            }
            batch.push(Update::InsertEntity(new_entities[b * EDITS_PER_KIND + i]));
            batch.push(Update::DeleteEntity(doomed[b * EDITS_PER_KIND + i]));
        }
        let due = Duration::from_secs_f64(EDIT_PERIOD * (b + 1) as f64);
        edits.push((due, batch));
    }
    ServiceTraffic {
        arrivals,
        edits,
        saturate,
    }
}

/// The point a point query is anchored at.
pub fn anchor(q: &Query) -> Point {
    match *q {
        Query::Range { q, .. } | Query::Nearest { q, .. } => q,
        Query::Path { from, .. } => from,
        _ => unreachable!("the benchmark generates point queries only"),
    }
}

/// 0 = NN, 1 = range, 2 = path.
pub fn class_of(q: &Query) -> usize {
    match q {
        Query::Nearest { .. } => 0,
        Query::Range { .. } => 1,
        _ => 2,
    }
}

/// Names of the point-query classes, indexed by [`class_of`].
pub const CLASS_NAMES: [&str; 3] = ["nn", "range", "path"];

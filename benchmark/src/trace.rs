//! The traced replay: per-layer metrics and the span file.
//!
//! Spans are recorded from here, around calls into each layer's public
//! functions — spans inside the program are a later change. One root span
//! per operation; its children are the real call (`core.*`) and sibling
//! *layer replays* (`rtree.*`, `visibility.*`) on the inputs that
//! operation feeds those layers: the obstacles of its final region and
//! its Euclidean candidates. The replay absorbs in one round where Fig. 8
//! iterates, so `core.self_frac` is an estimate; `trace.coverage` says
//! how much of the root spans the children account for.
//!
//! Every traced run feeds *every* layer — the point-query layers with the
//! workload's own point queries (or probes at its locations), the join
//! operators, the batch engine and the service — so one list of layer
//! metrics is printed whichever workload is replayed. End-to-end numbers
//! never come from here.

use crate::batch::{run_pass, THREADS};
use crate::gen::{self, Database, Indexes, JoinIndexes, JoinOp, NN_K};
use crate::stats::{self, Metrics};
use crate::{joins, service, Checks, Traffic, Workload};
use obstacle_core::{Answer, Query, QueryEngine, Schedule};
use obstacle_geom::Point;
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::{AnyTree, Backend, ClosestPairs, Item, TreeBackend};
use obstacle_visibility::{EdgeBuilder, LazyScene};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Length of the traced open-loop phase (≥ 1000 arrivals, so p99 has ten
/// samples beyond it).
pub const STEADY_SECONDS: f64 = 14.0;
/// Point queries replayed one by one with spans.
const REPLAY_QUERIES: usize = 384;
/// Point queries of each batch-engine pass.
pub const BATCH_QUERIES: usize = 768;
/// Join rounds replayed.
const JOIN_ROUNDS: usize = 2;
/// Set-ups timed layer by layer.
const SET_UPS: usize = 3;

const BACKENDS: [Backend; 2] = [Backend::Paged, Backend::Packed];

/// One recorded span. `parent` 0 marks a root; `query` numbers the
/// operation within its phase.
struct Span {
    id: u32,
    parent: u32,
    query: u32,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out when the run ends.
struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    fn record(&mut self, parent: u32, query: u32, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            query,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a root span; close it with [`Tracer::close`].
    fn open(&mut self, query: u32, name: &str) -> u32 {
        let now = self.now();
        self.record(0, query, name, now, now)
    }

    fn close(&mut self, id: u32) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` under a child span of `parent`; returns its result and
    /// its duration in ms.
    fn time<R>(&mut self, parent: u32, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let query = self.spans[parent as usize - 1].query;
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.record(parent, query, name, start, end);
        (out, (end - start) as f64 / 1e6)
    }

    fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"workload\": \"{workload}\", \"query\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `datagen.*`, `rtree.bulk_load_ms.*`: set-up, layer by layer.
fn set_up_layers(m: &mut Metrics) -> (Database, [Indexes; 2]) {
    let mut city = Vec::new();
    let mut entities = Vec::new();
    let mut load = [Vec::new(), Vec::new()];
    let mut last = None;
    for _ in 0..SET_UPS {
        drop(last.take());
        let db = Database::generate();
        city.push(stats::ms(db.city_time));
        entities.push(stats::ms(db.entities_time));
        let built = BACKENDS.map(|backend| {
            let t = Stopwatch::start();
            let ix = Indexes::build(&db, backend);
            (ix, stats::ms(t.elapsed()))
        });
        let [(paged, paged_ms), (packed, packed_ms)] = built;
        load[0].push(paged_ms);
        load[1].push(packed_ms);
        last = Some((db, [paged, packed]));
    }
    let note = format!("median of {SET_UPS}");
    m.put("datagen.city_ms", stats::median(&city), "ms", note.clone());
    m.put(
        "datagen.entities_ms",
        stats::median(&entities),
        "ms",
        format!("{note}; P, S and T"),
    );
    for (backend, samples) in BACKENDS.iter().zip(&load) {
        m.put(
            &format!("rtree.bulk_load_ms.{}", backend.name()),
            stats::median(samples),
            "ms",
            format!("{note}; entity + obstacle tree"),
        );
    }
    last.expect("at least one set-up ran")
}

/// `rtree.to_bytes_ms.*`, `rtree.from_bytes_ms.*`, `rtree.bytes_per_item.*`
/// — no workload loads a snapshot today; the baseline a byte-view layout
/// will be judged against.
fn storage_layers(m: &mut Metrics, ixs: &[Indexes; 2]) {
    for (backend, ix) in BACKENDS.iter().zip(ixs) {
        let mut to_ms = 0.0;
        let mut from_ms = 0.0;
        let mut bytes = 0usize;
        let mut items = 0usize;
        for tree in [ix.entities.tree(), ix.obstacles.tree()] {
            let t = Stopwatch::start();
            let image = std::hint::black_box(tree.to_bytes());
            to_ms += stats::ms(t.elapsed());
            let t = Stopwatch::start();
            let back = std::hint::black_box(AnyTree::from_bytes(&image));
            from_ms += stats::ms(t.elapsed());
            assert!(back.is_ok(), "a tree image must decode");
            bytes += image.len();
            items += tree.len();
        }
        let name = backend.name();
        m.put(
            &format!("rtree.to_bytes_ms.{name}"),
            to_ms,
            "ms",
            "entity + obstacle tree",
        );
        m.put(
            &format!("rtree.from_bytes_ms.{name}"),
            from_ms,
            "ms",
            "entity + obstacle tree",
        );
        m.put(
            &format!("rtree.bytes_per_item.{name}"),
            bytes as f64 / items as f64,
            "B",
            format!("{bytes} bytes / {items} items"),
        );
    }
}

/// Sums gathered while replaying the point queries.
#[derive(Default)]
struct Replay {
    core_ms: [Vec<f64>; 3],
    /// Per backend: `k_nearest`, obstacle `range_circle`, entity
    /// `range_circle` call durations in µs.
    knn_us: [Vec<f64>; 2],
    range_us: [Vec<f64>; 2],
    candidates_us: [Vec<f64>; 2],
    register_ms: f64,
    registered: usize,
    astar_ms: Vec<f64>,
    expansion_ms: Vec<f64>,
    sweeps: usize,
    scene_nodes: Vec<f64>,
    /// Replay time on the workload's own backend, for the shares.
    rtree_ms: f64,
    visibility_ms: f64,
    root_ms: f64,
    child_ms: f64,
    fetches: [u64; 2],
    reads: [u64; 2],
    candidates: usize,
    results: usize,
    false_hits: usize,
    distance_computations: usize,
    with_stats: usize,
}

/// What one answer says its operator fed the layers below.
struct Footprint {
    /// Centre and radius of the final obstacle range.
    centre: Point,
    radius: f64,
    /// Whether the candidates come from an entity range at that disk.
    entity_range: bool,
}

fn footprint(query: &Query, answer: &Answer) -> Option<Footprint> {
    match (query, answer) {
        (Query::Nearest { q, .. }, Answer::Nearest(r)) => r.neighbors.last().map(|n| Footprint {
            centre: *q,
            radius: n.1,
            entity_range: true,
        }),
        (Query::Range { q, e }, Answer::Range(_)) => Some(Footprint {
            centre: *q,
            radius: *e,
            entity_range: true,
        }),
        (Query::Path { to, .. }, Answer::Path(Some(p))) => Some(Footprint {
            centre: *to,
            radius: p.distance,
            entity_range: false,
        }),
        _ => None,
    }
}

/// Replays `queries` one by one: the real `engine.execute` on the
/// workload's backend, then the layer replays as sibling spans.
fn replay_points(
    tracer: &mut Tracer,
    workload: Workload,
    ixs: &[Indexes; 2],
    queries: &[Query],
) -> Replay {
    let own = BACKENDS
        .iter()
        .position(|b| *b == workload.backend())
        .expect("both backends are built");
    let engine = QueryEngine::new(&ixs[own].entities, &ixs[own].obstacles);
    let mut r = Replay::default();
    for (i, query) in queries.iter().enumerate() {
        let root = tracer.open(i as u32, "query");
        let class = gen::class_of(query);
        let (answer, core_ms) =
            tracer.time(root, &format!("core.{}", gen::CLASS_NAMES[class]), || {
                engine.execute(query)
            });
        r.core_ms[class].push(core_ms);
        r.child_ms += core_ms;
        if let Some(s) = answer.stats() {
            r.with_stats += 1;
            r.fetches[0] += s.entity_fetches;
            r.fetches[1] += s.obstacle_fetches;
            r.reads[0] += s.entity_reads;
            r.reads[1] += s.obstacle_reads;
            r.candidates += s.candidates;
            r.results += s.results;
            r.false_hits += s.false_hits;
            r.distance_computations += s.distance_computations;
        }

        if let Some(fp) = footprint(query, &answer) {
            let mut obstacles: Vec<Item> = Vec::new();
            let mut candidates: Vec<Item> = Vec::new();
            for (b, ix) in ixs.iter().enumerate() {
                let name = BACKENDS[b].name();
                let mut spent = 0.0;
                if class == 0 {
                    let (_, ms) = tracer.time(root, &format!("rtree.knn.{name}"), || {
                        ix.entities.tree().k_nearest(fp.centre, NN_K)
                    });
                    r.knn_us[b].push(ms * 1e3);
                    spent += ms;
                }
                if fp.entity_range {
                    let (items, ms) =
                        tracer.time(root, &format!("rtree.candidates.{name}"), || {
                            ix.entities.tree().range_circle(fp.centre, fp.radius)
                        });
                    r.candidates_us[b].push(ms * 1e3);
                    spent += ms;
                    candidates = items;
                }
                let (items, ms) = tracer.time(root, &format!("rtree.range.{name}"), || {
                    ix.obstacles.tree().range_circle(fp.centre, fp.radius)
                });
                r.range_us[b].push(ms * 1e3);
                spent += ms;
                obstacles = items;
                r.child_ms += spent;
                if b == own {
                    r.rtree_ms += spent;
                }
            }

            let mut scene = LazyScene::new(EdgeBuilder::RotationalSweep);
            let index = &ixs[own].obstacles;
            let ((), ms) = tracer.time(root, "visibility.register", || {
                for item in &obstacles {
                    scene.add_obstacle(index.polygon(item.id).clone(), item.id);
                }
            });
            r.register_ms += ms;
            r.registered += obstacles.len();
            let mut vis_ms = ms;
            match *query {
                Query::Range { q, e } => {
                    let from = scene.add_waypoint(q, u64::MAX);
                    let targets: Vec<_> = candidates
                        .iter()
                        .map(|c| scene.add_waypoint(c.mbr.min, c.id))
                        .collect();
                    let (_, ms) = tracer.time(root, "visibility.expansion", || {
                        scene.bounded_expansion(from, e, &targets)
                    });
                    r.expansion_ms.push(ms);
                    vis_ms += ms;
                }
                Query::Nearest { q, .. } => {
                    let from = scene.add_waypoint(q, u64::MAX);
                    let (_, ms) = tracer.time(root, "visibility.astar", || {
                        for c in &candidates {
                            let to = scene.add_waypoint(c.mbr.min, c.id);
                            std::hint::black_box(scene.astar_distance(from, to));
                            scene.remove_waypoint(to);
                        }
                    });
                    r.astar_ms.push(ms);
                    vis_ms += ms;
                }
                Query::Path { from, to } => {
                    let a = scene.add_waypoint(from, u64::MAX);
                    let b = scene.add_waypoint(to, u64::MAX - 1);
                    let (_, ms) =
                        tracer.time(root, "visibility.astar", || scene.astar_distance(a, b));
                    r.astar_ms.push(ms);
                    vis_ms += ms;
                }
                _ => {}
            }
            r.sweeps += scene.sweep_count();
            r.scene_nodes.push(scene.node_count() as f64);
            r.visibility_ms += vis_ms;
            r.child_ms += vis_ms;
        }
        r.root_ms += tracer.close(root);
    }
    r
}

fn put_point_layers(m: &mut Metrics, r: &mut Replay, queries: usize) {
    for (b, backend) in BACKENDS.iter().enumerate() {
        let name = backend.name();
        for (metric, samples, what) in [
            (
                "rtree.knn_us",
                &r.knn_us[b],
                "k_nearest(q, 16), entity tree",
            ),
            (
                "rtree.range_us",
                &r.range_us[b],
                "range_circle, obstacle tree",
            ),
            (
                "rtree.candidates_us",
                &r.candidates_us[b],
                "range_circle, entity tree",
            ),
        ] {
            m.put(
                &format!("{metric}.{name}"),
                stats::mean(samples),
                "us",
                format!("mean of {} calls; {what}", samples.len()),
            );
        }
    }
    let n = r.with_stats.max(1) as f64;
    for (t, tree) in ["entity", "obstacle"].iter().enumerate() {
        m.put(
            &format!("rtree.fetches_per_query.{tree}"),
            r.fetches[t] as f64 / n,
            "count",
            format!("{} NN/range queries (node visits on packed)", r.with_stats),
        );
        let hit = 1.0 - r.reads[t] as f64 / (r.fetches[t].max(1)) as f64;
        m.put(
            &format!("rtree.buffer_hit_rate.{tree}"),
            hit,
            "ratio",
            "1 on packed: no buffer",
        );
    }
    m.put(
        "visibility.register_us_per_obstacle",
        r.register_ms * 1e3 / r.registered.max(1) as f64,
        "us",
        format!("LazyScene::add_obstacle, {} obstacles", r.registered),
    );
    m.put(
        "visibility.astar_ms",
        stats::mean(&r.astar_ms),
        "ms",
        format!("mean per NN/path query, n={}", r.astar_ms.len()),
    );
    m.put(
        "visibility.expansion_ms",
        stats::mean(&r.expansion_ms),
        "ms",
        format!("mean per range query, n={}", r.expansion_ms.len()),
    );
    m.put(
        "visibility.sweeps_per_query",
        r.sweeps as f64 / queries as f64,
        "count",
        "sweep_count()",
    );
    stats::sort(&mut r.scene_nodes);
    m.put(
        "visibility.scene_nodes_p50",
        stats::quantile(&r.scene_nodes, 0.5),
        "count",
        "",
    );
    m.put(
        "visibility.scene_nodes_peak",
        stats::quantile(&r.scene_nodes, 1.0),
        "count",
        "",
    );
    for (class, name) in gen::CLASS_NAMES.iter().enumerate() {
        let samples = &mut r.core_ms[class];
        stats::sort(samples);
        for (label, p) in [("p50", 0.5), ("p90", 0.9)] {
            m.put(
                &format!("core.{name}_ms_{label}"),
                stats::quantile(samples, p),
                "ms",
                format!("engine.execute, fresh scene, n={}", samples.len()),
            );
        }
    }
    m.put(
        "core.candidates_per_result",
        r.candidates as f64 / r.results.max(1) as f64,
        "ratio",
        "",
    );
    m.put(
        "core.false_hit_ratio",
        r.false_hits as f64 / r.results.max(1) as f64,
        "ratio",
        "",
    );
    m.put(
        "core.distance_computations_per_query",
        r.distance_computations as f64 / n,
        "count",
        "",
    );
    let core: f64 = r.core_ms.iter().flatten().sum();
    m.put(
        "core.self_frac",
        1.0 - (r.rtree_ms + r.visibility_ms) / core,
        "ratio",
        "estimate: 1 - (rtree + visibility replay) / core",
    );
    m.put(
        "trace.rtree_share",
        r.rtree_ms / core,
        "ratio",
        "rtree.* replay / core, own backend",
    );
    m.put(
        "trace.visibility_share",
        r.visibility_ms / core,
        "ratio",
        "visibility.* replay / core",
    );
    m.put(
        "trace.coverage",
        r.child_ms / r.root_ms,
        "ratio",
        "child spans / root spans",
    );
}

/// `batch.*`: the batch engine over the workload's point queries —
/// one worker, two workers, and two workers under the other schedule.
fn batch_layers(
    m: &mut Metrics,
    tracer: &mut Tracer,
    workload: Workload,
    ix: &Indexes,
    queries: &[Query],
) {
    let engine = QueryEngine::new(&ix.entities, &ix.obstacles);
    let own = workload.schedule();
    let other = match own {
        Schedule::Hilbert => Schedule::InputOrder,
        Schedule::InputOrder => Schedule::Hilbert,
    };
    let mut pass = |name: &str, schedule: Schedule, threads: usize| {
        let root = tracer.open(0, name);
        let pass = run_pass(&engine, queries, schedule, threads);
        tracer.close(root);
        pass
    };
    let one = pass("batch.pass.1t", own, 1);
    let two = pass("batch.pass.2t", own, THREADS);
    let swapped = pass("batch.pass.2t.other_schedule", other, THREADS);
    let n = queries.len() as f64;
    m.put(
        "batch.scene_reuse_frac",
        one.stats.scene_reuses as f64 / n,
        "ratio",
        format!("1 worker, {} queries, {own:?}", queries.len()),
    );
    m.put(
        "batch.parallel_eff",
        one.wall / (THREADS as f64 * two.wall),
        "ratio",
        format!(
            "{:.1} q/s at 2 workers / 2 x {:.1} q/s at 1",
            n / two.wall,
            n / one.wall
        ),
    );
    let (hilbert, input) = match own {
        Schedule::Hilbert => (&two, &swapped),
        Schedule::InputOrder => (&swapped, &two),
    };
    m.put(
        "batch.hilbert_vs_input",
        input.wall / hilbert.wall,
        "ratio",
        format!(
            "{:.1} q/s Hilbert / {:.1} q/s input order, 2 workers",
            n / hilbert.wall,
            n / input.wall
        ),
    );
}

/// `core.odj|ocp|semi_ms_p50`, `rtree.join_ms`, `rtree.cp_ms`: the join
/// operators with their Euclidean tree joins replayed beside them.
fn join_layers(m: &mut Metrics, tracer: &mut Tracer, db: &Database, traffic: &Traffic) -> usize {
    let ix = JoinIndexes::build(db, Backend::Paged);
    let mut by_kind: [(&str, Vec<f64>); 3] = [("odj", vec![]), ("ocp", vec![]), ("semi", vec![])];
    let mut join_ms = Vec::new();
    let mut cp_ms = Vec::new();
    let mut ops = 0;
    for _ in 0..JOIN_ROUNDS {
        for &op in &traffic.round {
            let root = tracer.open(ops, "join_op");
            ops += 1;
            let (_, ms) = tracer.time(root, &format!("core.{}", op.kind()), || {
                joins::execute(&ix, op)
            });
            if let Some((_, samples)) = by_kind.iter_mut().find(|(k, _)| *k == op.kind()) {
                samples.push(ms);
            }
            match op {
                JoinOp::DistanceJoin(e) => {
                    let (_, ms) = tracer.time(root, "rtree.join", || {
                        obstacle_rtree::distance_join(ix.s.tree(), ix.t.tree(), e)
                    });
                    join_ms.push(ms);
                }
                JoinOp::ClosestPairs(k) => {
                    let (_, ms) = tracer.time(root, "rtree.cp", || {
                        ClosestPairs::new(ix.s.tree(), ix.t.tree()).take(k).count()
                    });
                    cp_ms.push(ms);
                }
                JoinOp::SemiJoin => {}
            }
            tracer.close(root);
        }
    }
    for (kind, samples) in &by_kind {
        m.put(
            &format!("core.{kind}_ms_p50"),
            stats::median(samples),
            "ms",
            format!("n={}", samples.len()),
        );
    }
    m.put(
        "rtree.join_ms",
        stats::mean(&join_ms),
        "ms",
        "Euclidean distance_join(S, T, e), mean",
    );
    m.put(
        "rtree.cp_ms",
        stats::mean(&cp_ms),
        "ms",
        "Euclidean ClosestPairs(S, T) to the k-th pair, mean",
    );
    ops as usize
}

/// `service.*`, `updates.*`: the open-loop phase again, with a record per
/// completion; then the same edit batches applied to idle indexes.
fn service_layers(
    m: &mut Metrics,
    tracer: &mut Tracer,
    workload: Workload,
    db: &Database,
    traffic: &Traffic,
    checks: &mut Checks,
) {
    let backend = workload.backend();
    let ix = Indexes::build(db, backend);
    let base = tracer.now();
    let (log, _) = service::steady(ix, &traffic.service, service::steady_config());
    let at = |d: Duration| base + d.as_nanos() as u64;

    let mut queue_wait = Vec::new();
    let mut exec = Vec::new();
    let mut late = Vec::new();
    let mut submit = Vec::new();
    for (k, a) in log.arrivals.iter().enumerate() {
        late.push(stats::ms(a.submitted.saturating_sub(a.due)));
        submit.push(a.submit.as_secs_f64() * 1e6);
        let Some(done) = &a.answered else {
            checks.failed += 1;
            continue;
        };
        let cpu = done.answer.stats().map_or(Duration::ZERO, |s| s.cpu);
        let waited = a.latency.saturating_sub(cpu);
        queue_wait.push(stats::ms(waited));
        exec.push(stats::ms(cpu));
        let root = tracer.record(0, k as u32, "arrival", at(a.due), at(a.done));
        let claimed = a.submitted + waited;
        for (name, start, end) in [
            ("service.gen_late", a.due, a.submitted),
            ("service.queue_wait", a.submitted, claimed),
            ("service.exec", claimed, a.submitted + a.latency),
        ] {
            tracer.record(root, k as u32, name, at(start), at(end));
        }
    }
    checks.attempted += log.arrivals.len();
    let n = queue_wait.len();
    for (name, samples) in [
        ("service.queue_wait_ms", &mut queue_wait),
        ("service.exec_ms", &mut exec),
    ] {
        stats::sort(samples);
        for (label, p) in [("p50", 0.5), ("p99", 0.99)] {
            m.put(
                &format!("{name}_{label}"),
                stats::quantile(samples, p),
                "ms",
                format!("n={n}"),
            );
        }
    }
    stats::sort(&mut late);
    m.put(
        "service.gen_late_ms_p99",
        stats::quantile(&late, 0.99),
        "ms",
        "generator lateness: submitted - due",
    );
    m.put("service.submit_us_p50", stats::median(&submit), "us", "");
    m.put(
        "service.scene_reuse_frac",
        log.stats.scene_reuses as f64 / log.stats.answered.max(1) as f64,
        "ratio",
        "",
    );
    m.put(
        "service.scene_invalidations",
        log.stats.scene_invalidations as f64,
        "count",
        format!("{} edit batches", log.updates.len()),
    );
    let mut tta = service::tta_ms(&log);
    stats::sort(&mut tta);
    m.put(
        "service.tta_p50_ms",
        stats::quantile(&tta, 0.5),
        "ms",
        "traced; minus the untraced tta_p50_ms = tracing overhead",
    );
    let served: Vec<f64> = log.updates.iter().map(|(_, d)| stats::ms(*d)).collect();
    for (k, (start, d)) in log.updates.iter().enumerate() {
        tracer.record(
            0,
            k as u32,
            "service.apply_updates",
            at(*start),
            at(*start + *d),
        );
    }
    m.put(
        "service.update_ms_p50",
        stats::median(&served),
        "ms",
        format!("caller-seen svc.apply_updates, n={}", served.len()),
    );

    let mut idle_own = Vec::new();
    for b in BACKENDS {
        let mut idle = Indexes::build(db, b);
        let samples: Vec<f64> = traffic
            .service
            .edits
            .iter()
            .map(|(_, batch)| {
                let batch = batch.clone();
                let t = Stopwatch::start();
                QueryEngine::apply_updates(&mut idle.entities, &mut idle.obstacles, batch);
                stats::ms(t.elapsed())
            })
            .collect();
        m.put(
            &format!("updates.apply_ms.{}", b.name()),
            stats::median(&samples),
            "ms",
            "QueryEngine::apply_updates on idle indexes, median per batch",
        );
        if b == backend {
            idle_own = samples;
        }
    }
    let lock_wait: Vec<f64> = served.iter().zip(&idle_own).map(|(s, i)| s - i).collect();
    m.put(
        "updates.lock_wait_ms_p50",
        stats::median(&lock_wait),
        "ms",
        "service-side duration - idle apply, per batch",
    );
}

/// The traced run of `workload`: every layer metric, and
/// `<out_dir>/trace-<workload>.jsonl`.
pub fn run(workload: Workload, traffic: &Traffic, out_dir: &Path, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    let mut tracer = Tracer {
        clock: Stopwatch::start(),
        spans: Vec::new(),
    };
    let (db, ixs) = set_up_layers(&mut m);
    storage_layers(&mut m, &ixs);

    let probes = &traffic.chunks[0];
    let replayed = &probes[..REPLAY_QUERIES.min(probes.len())];
    let mut replay = replay_points(&mut tracer, workload, &ixs, replayed);
    put_point_layers(&mut m, &mut replay, replayed.len());
    checks.attempted += replayed.len();

    let batched = &probes[..BATCH_QUERIES.min(probes.len())];
    let own = if workload.backend() == Backend::Paged {
        0
    } else {
        1
    };
    batch_layers(&mut m, &mut tracer, workload, &ixs[own], batched);
    drop(ixs);

    checks.attempted += join_layers(&mut m, &mut tracer, &db, traffic);
    service_layers(&mut m, &mut tracer, workload, &db, traffic, checks);

    let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    match tracer.write(&path, workload.name()) {
        Ok(()) => println!("  {} spans -> {}", tracer.spans.len(), path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            checks.failed += 1;
        }
    }
    m
}

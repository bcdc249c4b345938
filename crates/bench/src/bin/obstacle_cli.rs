//! Interactive command-line front end for the obstacle-query engine.
//!
//! Cities are deterministic functions of `(--obstacles, --seed)`, so no
//! dataset files are needed — every invocation regenerates the same world
//! (bulk loading makes this near-instant below ~10⁵ obstacles).
//!
//! ```text
//! obstacle_cli info   [--obstacles N] [--seed S]
//! obstacle_cli nn     --at X,Y [--k K] [--paths]
//! obstacle_cli range  --at X,Y --e E
//! obstacle_cli path   --from X,Y --to X,Y
//! obstacle_cli join   --e E [--s N] [--t N]
//! obstacle_cli cp     [--k K] [--s N] [--t N]
//! obstacle_cli batch  [--queries N] [--threads T] [--verify]
//!                     [--schedule input|hilbert] [--clusters N]
//! obstacle_cli update [--rounds R] [--edits N] [--queries Q] [--verify]
//! obstacle_cli serve  [--depth N] [--admission block|reject|shed]
//!                     [--generate N --rate R] [--listen HOST:PORT]
//! ```
//!
//! `--backend packed` swaps the paged R*-tree for the packed static tree
//! (one contiguous buffer, lock-free reads).
//! `batch` prints answers as workers finish them; `--schedule hilbert`
//! claims its queries in Hilbert order of their regions (scene-cache
//! locality; default `input`), `--verify` re-runs the batch on one
//! thread and compares, and `--clusters N` draws the workload around `N`
//! hotspots (the obstructed-clustering access pattern) instead of
//! scattering it.
//!
//! `serve` starts a resident [`QueryService`]: `--threads` workers stay
//! up for the whole session, stdin lines (`nn X Y [K]`, `range X Y E`,
//! `path X1 Y1 X2 Y2`) are submitted as they arrive and answered as
//! workers finish, the queue is bounded at `--depth` with the
//! `--admission` policy deciding what happens when it fills. `--generate
//! N --rate R` replaces stdin with an open-loop Poisson arrival schedule
//! (queries fired on time whether or not earlier ones finished — the
//! saturation regime), and `--listen` additionally accepts the same line
//! protocol over blocking TCP connections until the process is killed.

use obstacle_bench::batch::to_core_query;
use obstacle_core::{
    closest_pairs, distance_join, shortest_obstructed_path, Admission, Completion, EngineOptions,
    EntityIndex, ObstacleIndex, Outcome, QueryEngine, QueryService, QueryStats, SceneCache,
    Schedule, ServiceConfig, SubmitError, Update,
};
use obstacle_datagen::{
    batch_workload, clustered_batch_workload, open_loop_arrivals, sample_entities, BatchMix, City,
    CityConfig, ClusterSpec,
};
use obstacle_geom::Point;
use obstacle_rtree::sync::Mutex;
use obstacle_rtree::{Backend, RTreeConfig};
use obstacle_visibility::EdgeBuilder;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Flags shared by every subcommand — world shape, tree configuration,
/// and worker-pool sizing are parsed once here, so a new subcommand
/// (like `serve`) never grows its own copy of the parser.
struct CommonOpts {
    obstacles: usize,
    seed: u64,
    backend: Backend,
    entities: usize,
    threads: usize,
    /// `None` = flag absent: `batch` then claims in input order, `serve`
    /// in the service's Hilbert claim order.
    schedule: Option<Schedule>,
}

impl CommonOpts {
    /// Consume `flag` if it is one of the shared flags; `value` pulls
    /// the flag's argument from the command line. Returns `false` when
    /// the flag belongs to a subcommand instead.
    fn accept(&mut self, flag: &str, value: &mut dyn FnMut(&str) -> String) -> bool {
        match flag {
            "--obstacles" => {
                self.obstacles = value("--obstacles")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --obstacles"))
            }
            "--seed" => {
                self.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--backend" => {
                self.backend = Backend::parse(&value("--backend"))
                    .unwrap_or_else(|| usage("bad --backend (paged|packed)"))
            }
            "--entities" => {
                self.entities = value("--entities")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --entities"))
            }
            "--threads" => {
                self.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --threads"))
            }
            "--schedule" => {
                self.schedule = Some(match value("--schedule").as_str() {
                    "input" | "input-order" | "input_order" => Schedule::InputOrder,
                    "hilbert" => Schedule::Hilbert,
                    _ => usage("bad --schedule (input|hilbert)"),
                })
            }
            _ => return false,
        }
        true
    }
}

struct Args {
    command: String,
    common: CommonOpts,
    s_count: usize,
    t_count: usize,
    k: usize,
    e: f64,
    at: Option<Point>,
    from: Option<Point>,
    to: Option<Point>,
    paths: bool,
    queries: usize,
    verify: bool,
    clusters: usize,
    /// Edit batches of the `update` command.
    rounds: usize,
    /// Edits per batch of the `update` command.
    edits: usize,
    /// Queue depth bound of the `serve` command.
    depth: usize,
    /// What `serve` does when the queue is full.
    admission: Admission,
    /// `serve --listen HOST:PORT`: also accept the line protocol over TCP.
    listen: Option<String>,
    /// `serve --generate N`: self-drive with an open-loop workload.
    generate: usize,
    /// Offered arrival rate (queries/sec) of `serve --generate`.
    rate: f64,
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "info" => info(&args),
        "nn" => nn(&args),
        "range" => range(&args),
        "path" => path(&args),
        "join" => join(&args),
        "cp" => cp(&args),
        "batch" => batch(&args),
        "update" => update(&args),
        "serve" => serve(&args),
        other => usage(&format!("unknown command '{other}'")),
    }
}

/// Tree configuration of this invocation: the paper's cost model on the
/// storage backend `--backend` selects (paged R*-tree or packed static
/// tree).
fn tree_config(args: &Args) -> RTreeConfig {
    RTreeConfig::paper().with_backend(args.common.backend)
}

fn world(args: &Args) -> (City, ObstacleIndex) {
    let t0 = std::time::Instant::now();
    let city = City::generate(CityConfig::new(args.common.obstacles, args.common.seed));
    let obstacles = ObstacleIndex::bulk_load(tree_config(args), city.obstacles.clone());
    eprintln!(
        "[city: {} obstacles, seed {:#x}, built in {:.1?}]",
        city.len(),
        args.common.seed,
        t0.elapsed()
    );
    (city, obstacles)
}

fn entity_index(args: &Args, city: &City, count: usize, seed: u64) -> EntityIndex {
    EntityIndex::bulk_load(tree_config(args), sample_entities(city, count, seed))
}

fn info(args: &Args) {
    let (city, obstacles) = world(args);
    let stats = obstacles.tree().stats();
    println!("universe: {:?}", city.universe);
    println!("obstacles: {}", city.len());
    println!("total obstacle perimeter: {:.4}", city.total_perimeter());
    match obstacles.tree().backend() {
        Backend::Paged => println!(
            "obstacle R-tree (paged): height {}, {} pages, buffer {} pages",
            obstacles.tree().height(),
            obstacles.tree().pages(),
            obstacles.tree().buffer_capacity()
        ),
        Backend::Packed => println!(
            "obstacle R-tree (packed): height {}, {} nodes, single buffer (no page cache)",
            obstacles.tree().height(),
            obstacles.tree().pages(),
        ),
    }
    let cap = match obstacles.tree().backend() {
        Backend::Paged => obstacles.tree().config().capacity(),
        Backend::Packed => obstacles.tree().config().packed_node_size,
    };
    for (lvl, l) in stats.levels.iter().enumerate() {
        println!(
            "  level {lvl}: {} nodes, {} entries, occupancy {:.1}%",
            l.nodes,
            l.entries,
            100.0 * l.occupancy(cap)
        );
    }
}

fn nn(args: &Args) {
    let q = args.at.unwrap_or_else(|| usage("nn needs --at X,Y"));
    let (city, obstacles) = world(args);
    let entities = entity_index(args, &city, args.common.entities, args.common.seed + 1);
    let engine = QueryEngine::new(&entities, &obstacles);
    let r = engine.nearest(q, args.k);
    println!(
        "obstructed {}-NN of {} over {} entities:",
        args.k,
        q,
        entities.len()
    );
    for (id, d) in &r.neighbors {
        let p = entities.position(*id);
        let euclid = p.dist(q);
        print!("  entity {id:<6} at {p}  d_O = {d:.5} (d_E = {euclid:.5})");
        if args.paths {
            let path = shortest_obstructed_path(q, p, &obstacles, EdgeBuilder::RotationalSweep)
                .expect("reachable neighbour");
            print!("  corners: {}", path.points.len().saturating_sub(2));
        }
        println!();
    }
    print_stats(&r.stats);
}

fn range(args: &Args) {
    let q = args.at.unwrap_or_else(|| usage("range needs --at X,Y"));
    if args.e <= 0.0 {
        usage("range needs --e > 0");
    }
    let (city, obstacles) = world(args);
    let entities = entity_index(args, &city, args.common.entities, args.common.seed + 1);
    let engine = QueryEngine::new(&entities, &obstacles);
    let r = engine.range(q, args.e);
    println!(
        "entities within obstructed distance {} of {}: {}",
        args.e,
        q,
        r.hits.len()
    );
    for (id, d) in r.hits.iter().take(20) {
        println!("  entity {id:<6} d_O = {d:.5}");
    }
    if r.hits.len() > 20 {
        println!("  ... and {} more", r.hits.len() - 20);
    }
    print_stats(&r.stats);
}

fn path(args: &Args) {
    let from = args.from.unwrap_or_else(|| usage("path needs --from X,Y"));
    let to = args.to.unwrap_or_else(|| usage("path needs --to X,Y"));
    let (_city, obstacles) = world(args);
    let t0 = std::time::Instant::now();
    let result = shortest_obstructed_path(from, to, &obstacles, EdgeBuilder::RotationalSweep);
    let elapsed = t0.elapsed();
    match result {
        Some(p) => {
            println!(
                "shortest obstructed path {} -> {}: length {:.5} (Euclidean {:.5})",
                from,
                to,
                p.distance,
                from.dist(to)
            );
            for (i, w) in p.points.iter().enumerate() {
                println!("  {i:>3}: {w}");
            }
        }
        None => println!("unreachable (an endpoint lies inside an obstacle)"),
    }
    eprintln!("[lazy A* path query: {elapsed:.1?}]");
}

fn join(args: &Args) {
    if args.e <= 0.0 {
        usage("join needs --e > 0");
    }
    let (city, obstacles) = world(args);
    let s = entity_index(args, &city, args.s_count, args.common.seed + 2);
    let t = entity_index(args, &city, args.t_count, args.common.seed + 3);
    let r = distance_join(&s, &t, &obstacles, args.e, EngineOptions::default());
    println!(
        "obstructed e-distance join (e = {}): {} pairs from |S| = {}, |T| = {}",
        args.e,
        r.pairs.len(),
        s.len(),
        t.len()
    );
    for (a, b, d) in r.pairs.iter().take(15) {
        println!("  s{a} <-> t{b}  d_O = {d:.5}");
    }
    if r.pairs.len() > 15 {
        println!("  ... and {} more", r.pairs.len() - 15);
    }
    print_stats(&r.stats);
}

fn cp(args: &Args) {
    let (city, obstacles) = world(args);
    let s = entity_index(args, &city, args.s_count, args.common.seed + 2);
    let t = entity_index(args, &city, args.t_count, args.common.seed + 3);
    let r = closest_pairs(&s, &t, &obstacles, args.k, EngineOptions::default());
    println!(
        "obstructed {}-closest pairs over |S| = {}, |T| = {}:",
        args.k,
        s.len(),
        t.len()
    );
    for (a, b, d) in &r.pairs {
        println!("  s{a} <-> t{b}  d_O = {d:.5}");
    }
    print_stats(&r.stats);
}

/// `batch`: one streaming run — answers are consumed while workers still
/// run; the interesting numbers are time-to-first-answer vs total wall
/// clock and the scene-cache economics of the chosen schedule.
fn batch(args: &Args) {
    let (city, obstacles) = world(args);
    let entities = entity_index(args, &city, args.common.entities, args.common.seed + 1);
    let engine = QueryEngine::new(&entities, &obstacles);
    let specs = if args.clusters > 0 {
        clustered_batch_workload(
            &city,
            args.queries,
            args.common.seed + 4,
            BatchMix::default(),
            ClusterSpec {
                clusters: args.clusters,
                spread: 0.005,
            },
        )
    } else {
        batch_workload(
            &city,
            args.queries,
            args.common.seed + 4,
            BatchMix::default(),
        )
    };
    let queries: Vec<obstacle_core::Query> = specs.iter().map(to_core_query).collect();
    let schedule = args.common.schedule.unwrap_or_default();
    println!(
        "batch of {} mixed queries over {} entities, {} worker thread(s) \
         ({} core(s) available), {} schedule:",
        queries.len(),
        entities.len(),
        args.common.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        schedule_name(schedule)
    );
    let request = engine
        .batch(&queries)
        .threads(args.common.threads)
        .schedule(schedule);
    let progress_every = (queries.len() / 8).max(1);
    let t0 = std::time::Instant::now();
    let mut first = None;
    let mut agg = QueryStats::default();
    let mut answers: Vec<Option<obstacle_core::Answer>> = vec![None; queries.len()];
    let ((count, results), stats) = request.stream(|stream| {
        let mut count = 0usize;
        let mut results = 0usize;
        for (i, answer) in stream {
            count += 1;
            results += answer.result_count();
            if let Some(s) = answer.stats() {
                agg.accumulate(s);
            }
            if count == 1 {
                first = Some(t0.elapsed());
            }
            if count.is_multiple_of(progress_every) || count == queries.len() {
                println!(
                    "  [{:>6.2?}] {:>4}/{} answers (latest: query {} with {} result rows)",
                    t0.elapsed(),
                    count,
                    queries.len(),
                    i,
                    answer.result_count()
                );
            }
            answers[i] = Some(answer);
        }
        (count, results)
    });
    let elapsed = t0.elapsed();
    println!(
        "  {} answers, {} result rows in {:.2?} ({:.1} queries/sec); first answer after {:.2?}",
        count,
        results,
        elapsed,
        count as f64 / elapsed.as_secs_f64(),
        first.unwrap_or(elapsed)
    );
    println!(
        "  scene caches: {} reuse(s), {} reset(s) across {} worker(s)",
        stats.scene_reuses, stats.scene_resets, stats.workers
    );
    eprintln!(
        "[aggregate cost: {} entity + {} obstacle page fetches, \
         {} candidates, {} results]",
        agg.entity_fetches, agg.obstacle_fetches, agg.candidates, agg.results
    );
    if args.verify {
        let (sequential, _) = engine.batch(&queries).threads(1).collect();
        for (i, (a, s)) in answers.iter().zip(&sequential).enumerate() {
            assert!(
                a.as_ref().is_some_and(|a| a.same_results(s)),
                "query {i} diverged from the sequential loop"
            );
        }
        println!("  verified: answers identical to the sequential loop");
    }
}

/// `update`: interleaves deterministic edit batches with probe queries
/// over one scene cache that survives every edit — the staleness
/// scenario epoch validation exists for, live. Each round re-opens the
/// obstacles retired the round before (so the set stays disjoint, as
/// the paper assumes), retires a spread of live obstacles, churns a few
/// entities, then runs the probes and prints the epochs, edit timings,
/// and the cache's invalidation economics. `--verify` re-answers every
/// probe on a fresh scene and asserts identity — the check that fails
/// if a stale scene ever survives an edit.
fn update(args: &Args) {
    let (city, mut obstacles) = world(args);
    let mut entities = entity_index(args, &city, args.common.entities, args.common.seed + 1);
    let quarter = (args.edits / 4).max(1);
    let extra = sample_entities(&city, args.rounds * quarter, args.common.seed + 5);
    let specs = batch_workload(
        &city,
        args.queries,
        args.common.seed + 4,
        BatchMix::point_queries(),
    );
    let queries: Vec<obstacle_core::Query> = specs.iter().map(to_core_query).collect();
    let mut cache = SceneCache::new(EngineOptions::default());
    let mut retired: Vec<obstacle_geom::Polygon> = Vec::new();
    println!(
        "{} round(s) of ~{} edits, each followed by {} probe queries \
         (one scene cache across all rounds):",
        args.rounds,
        args.edits,
        queries.len()
    );
    for round in 0..args.rounds {
        let mut batch: Vec<Update> = retired.drain(..).map(Update::InsertObstacle).collect();
        let live_obs: Vec<u64> = obstacles.live_polygons().map(|(id, _)| id).collect();
        let stride = (live_obs.len() / quarter).max(1);
        for i in 0..quarter.min(live_obs.len()) {
            let id = live_obs[i * stride];
            retired.push(obstacles.polygon(id).clone());
            batch.push(Update::DeleteObstacle(id));
        }
        let live_ent: Vec<u64> = entities.live_points().map(|(id, _)| id).collect();
        let estride = (live_ent.len() / quarter).max(1);
        for i in 0..quarter.min(live_ent.len()) {
            batch.push(Update::DeleteEntity(live_ent[i * estride]));
        }
        for p in &extra[round * quarter..(round + 1) * quarter] {
            batch.push(Update::InsertEntity(*p));
        }
        let edits = batch.len();
        let t0 = std::time::Instant::now();
        let stats = QueryEngine::apply_updates(&mut entities, &mut obstacles, batch);
        let edit_elapsed = t0.elapsed();
        println!(
            "  round {round}: {edits} edit(s) in {edit_elapsed:.1?} — obstacles +{}/-{}, \
             entities +{}/-{} (epochs: O {}, P {})",
            stats.inserted_obstacles.len(),
            stats.deleted_obstacles,
            stats.inserted_entities.len(),
            stats.deleted_entities,
            stats.obstacle_epoch,
            stats.entity_epoch
        );
        let engine = QueryEngine::new(&entities, &obstacles);
        let t0 = std::time::Instant::now();
        let answers: Vec<obstacle_core::Answer> = queries
            .iter()
            .map(|q| engine.execute_with(q, &mut cache))
            .collect();
        let q_elapsed = t0.elapsed();
        println!(
            "    {} queries in {:.1?} ({:.1} queries/sec); scene cache: \
             {} invalidation(s), {} reuse(s), {} reset(s)",
            answers.len(),
            q_elapsed,
            answers.len() as f64 / q_elapsed.as_secs_f64(),
            cache.invalidations(),
            cache.reuses(),
            cache.resets()
        );
        if args.verify {
            for (i, (q, a)) in queries.iter().zip(&answers).enumerate() {
                assert!(
                    engine.execute(q).same_results(a),
                    "query {i} went stale in round {round}"
                );
            }
            println!("    verified: every answer identical to a fresh-scene execution");
        }
    }
}

/// `serve`: stand up a resident [`QueryService`] over the generated
/// world and feed it from stdin, an open-loop generator, or TCP
/// connections. The worker pool, the bounded queue, and the admission
/// policy all come from the service — this function is only a client.
fn serve(args: &Args) {
    let (city, obstacles) = world(args);
    let entities = entity_index(args, &city, args.common.entities, args.common.seed + 1);
    let schedule = args.common.schedule.unwrap_or(Schedule::Hilbert);
    let cfg = ServiceConfig::default()
        .workers(args.common.threads)
        .queue_depth(args.depth)
        .admission(args.admission)
        .schedule(schedule);
    eprintln!(
        "[serve: {} worker(s), queue depth {}, {} admission, {} claim order]",
        args.common.threads,
        args.depth,
        admission_name(args.admission),
        schedule_name(schedule)
    );
    let run = QueryService::run(entities, obstacles, EngineOptions::default(), cfg, |svc| {
        if let Some(addr) = &args.listen {
            serve_tcp(svc, addr);
        } else if args.generate > 0 {
            serve_generated(args, &city, svc);
        } else {
            serve_stdin(svc);
        }
    });
    let stats = &run.stats;
    println!(
        "service: {} submitted, {} answered, {} shed, {} rejected, {} cancelled",
        stats.submitted, stats.answered, stats.shed, stats.rejected, stats.cancelled
    );
    println!(
        "latency: p50 {:.2?}  p90 {:.2?}  p99 {:.2?}  max {:.2?} over {} answer(s)",
        stats.latency.p50(),
        stats.latency.p90(),
        stats.latency.p99(),
        stats.latency.max(),
        stats.latency.count()
    );
    eprintln!(
        "[scene caches: {} reuse(s), {} reset(s), {} invalidation(s)]",
        stats.scene_reuses, stats.scene_resets, stats.scene_invalidations
    );
}

/// Read the line protocol from stdin, submitting as lines arrive and
/// printing completions as workers produce them; at EOF, drain what is
/// still in flight. One completion comes back per admitted submission
/// (answered or shed), so the drain loop counts instead of guessing.
fn serve_stdin(svc: &QueryService<'_>) {
    let stdin = std::io::stdin();
    let mut submitted = 0u64;
    let mut done = 0u64;
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_query_line(line) {
            Ok(q) => match svc.submit(q) {
                Ok(ticket) => {
                    submitted += 1;
                    println!("#{} queued: {line}", ticket.detach());
                }
                Err(e) => println!("!not admitted: {e}"),
            },
            Err(msg) => println!("!parse error: {msg} (in '{line}')"),
        }
        while let Some(c) = svc.try_recv() {
            done += 1;
            print_completion(&c);
        }
    }
    drain(svc, submitted, &mut done);
}

/// `serve --generate N --rate R`: submit a deterministic point-query
/// workload on an open-loop Poisson schedule — arrivals fire on time
/// whether or not earlier queries finished, so offered load above the
/// service rate actually queues (and sheds/rejects/blocks, per the
/// admission policy) instead of silently throttling the client.
fn serve_generated(args: &Args, city: &City, svc: &QueryService<'_>) {
    let specs = batch_workload(
        city,
        args.generate,
        args.common.seed + 4,
        BatchMix::point_queries(),
    );
    let queries: Vec<obstacle_core::Query> = specs.iter().map(to_core_query).collect();
    let arrivals = open_loop_arrivals(args.rate, queries.len(), args.common.seed + 6);
    println!(
        "open-loop: {} queries offered at {:.1}/sec (schedule spans {:.2?})",
        queries.len(),
        args.rate,
        arrivals.last().copied().unwrap_or_default()
    );
    let mut submitted = 0u64;
    let mut rejected = 0u64;
    let mut done = 0u64;
    let t0 = std::time::Instant::now();
    for (q, at) in queries.iter().zip(&arrivals) {
        // Wait out the gap to this arrival instant, consuming
        // completions while we wait instead of busy-spinning.
        loop {
            let now = t0.elapsed();
            if now >= *at {
                break;
            }
            let patience = (*at - now).min(Duration::from_millis(5));
            if let Some(c) = svc.recv_timeout(patience) {
                done += 1;
                print_completion(&c);
            }
        }
        match svc.submit(*q) {
            Ok(ticket) => {
                submitted += 1;
                ticket.detach();
            }
            Err(SubmitError::Rejected) => rejected += 1,
            Err(e) => {
                println!("!not admitted: {e}");
                break;
            }
        }
    }
    drain(svc, submitted, &mut done);
    let elapsed = t0.elapsed();
    println!(
        "offered {:.1}/sec for {:.2?}: {} admitted, {} rejected at the gate, \
         {:.1} completions/sec end to end",
        args.rate,
        elapsed,
        submitted,
        rejected,
        done as f64 / elapsed.as_secs_f64()
    );
}

/// `serve --listen HOST:PORT`: blocking TCP front end speaking the same
/// line protocol, one reader thread per connection plus one dispatcher
/// routing completions back to the socket that submitted them. Serves
/// until the process is killed (the accept loop never returns).
fn serve_tcp(svc: &QueryService<'_>, addr: &str) {
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot listen on {addr}: {e}");
        std::process::exit(2);
    });
    eprintln!("[listening on {addr}; line protocol: nn X Y [K] | range X Y E | path X1 Y1 X2 Y2]");
    let routes: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        s.spawn(|| loop {
            if let Some(c) = svc.recv_timeout(Duration::from_millis(200)) {
                let target = routes.lock().remove(&c.id);
                match target {
                    Some(mut stream) => {
                        let _ = writeln!(stream, "{}", completion_line(&c));
                    }
                    None => print_completion(&c),
                }
            }
        });
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let routes = &routes;
            s.spawn(move || {
                let Ok(reader) = stream.try_clone() else {
                    return;
                };
                let mut reply = stream;
                for line in BufReader::new(reader).lines() {
                    let Ok(line) = line else { break };
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    match parse_query_line(line) {
                        Ok(q) => {
                            // The routes lock is held across submit so the
                            // dispatcher cannot look up a completion before
                            // its reply route is registered — a worker can
                            // answer a cheap query faster than two more
                            // statements run here, and an unrouted answer
                            // would fall back to the server console. Only
                            // reader threads take routes before the queue
                            // lock inside submit; nothing orders them the
                            // other way round.
                            let mut guard = routes.lock();
                            let submitted = svc.submit(q);
                            match submitted {
                                Ok(ticket) => {
                                    let id = ticket.detach();
                                    if let Ok(route) = reply.try_clone() {
                                        guard.insert(id, route);
                                    }
                                    drop(guard);
                                    let _ = writeln!(reply, "#{id} queued");
                                }
                                Err(e) => {
                                    drop(guard);
                                    let _ = writeln!(reply, "!not admitted: {e}");
                                }
                            }
                        }
                        Err(msg) => {
                            let _ = writeln!(reply, "!parse error: {msg}");
                        }
                    }
                }
            });
        }
    });
}

/// Collect the remaining in-flight completions after the input source
/// is exhausted. Bounded patience: a worker answering a pathological
/// query still gets minutes, but a lost completion cannot hang the CLI.
fn drain(svc: &QueryService<'_>, submitted: u64, done: &mut u64) {
    let t0 = std::time::Instant::now();
    while *done < submitted && t0.elapsed() < Duration::from_secs(300) {
        if let Some(c) = svc.recv_timeout(Duration::from_millis(200)) {
            *done += 1;
            print_completion(&c);
        }
    }
    if *done < submitted {
        eprintln!(
            "[drain gave up: {} of {submitted} completions arrived]",
            *done
        );
    }
}

/// One line of the `serve` protocol: `nn X Y [K]`, `range X Y E`, or
/// `path X1 Y1 X2 Y2` (whitespace-separated, `#` starts a comment).
/// Lines arrive from stdin or a socket, so everything the engine cannot
/// answer sensibly is refused here: non-finite numbers, a negative `e`,
/// and a `k` that is not an unsigned integer (`1e30`, `-3`, `2.5`).
fn parse_query_line(line: &str) -> Result<obstacle_core::Query, String> {
    let mut parts = line.split_whitespace();
    let head = parts.next().unwrap_or_default();
    let mut num = |what: &str| -> Result<f64, String> {
        let v: f64 = parts
            .next()
            .ok_or_else(|| format!("missing {what}"))?
            .parse()
            .map_err(|_| format!("bad {what}"))?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("non-finite {what}"))
        }
    };
    match head {
        "nn" => {
            let q = Point::new(num("x")?, num("y")?);
            let k = match parts.next() {
                None => 1,
                Some(k) => k.parse::<usize>().map_err(|_| "bad k".to_string())?,
            };
            Ok(obstacle_core::Query::Nearest { q, k: k.max(1) })
        }
        "range" => {
            let q = Point::new(num("x")?, num("y")?);
            let e = num("e")?;
            if e < 0.0 {
                return Err("negative e".to_string());
            }
            Ok(obstacle_core::Query::Range { q, e })
        }
        "path" => Ok(obstacle_core::Query::Path {
            from: Point::new(num("x1")?, num("y1")?),
            to: Point::new(num("x2")?, num("y2")?),
        }),
        other => Err(format!("unknown query '{other}' (nn|range|path)")),
    }
}

fn print_completion(c: &Completion) {
    println!("{}", completion_line(c));
}

fn completion_line(c: &Completion) -> String {
    match &c.outcome {
        Outcome::Answered { answer, .. } => format!(
            "#{} answered in {:.2?}: {} result row(s)",
            c.id,
            c.latency,
            answer.result_count()
        ),
        Outcome::Shed => format!("#{} shed after {:.2?} (queue full)", c.id, c.latency),
        Outcome::Cancelled => format!("#{} cancelled", c.id),
    }
}

fn admission_name(a: Admission) -> &'static str {
    match a {
        Admission::Block => "block",
        Admission::Reject => "reject",
        Admission::ShedOldest => "shed-oldest",
    }
}

fn schedule_name(s: Schedule) -> &'static str {
    match s {
        Schedule::InputOrder => "input-order",
        Schedule::Hilbert => "hilbert",
    }
}

fn print_stats(stats: &obstacle_core::QueryStats) {
    eprintln!(
        "[cost: {} entity + {} obstacle page fetches ({} + {} buffer misses), \
         {} candidates, {} false hits, {:.2?} CPU]",
        stats.entity_fetches,
        stats.obstacle_fetches,
        stats.entity_reads,
        stats.obstacle_reads,
        stats.candidates,
        stats.false_hits,
        stats.cpu
    );
}

/// `X,Y` with both coordinates finite (`nan,inf` parses as `f64` but is
/// nothing the engine can answer about).
fn parse_point(s: &str) -> Option<Point> {
    let (x, y) = s.split_once(',')?;
    let (x, y): (f64, f64) = (x.trim().parse().ok()?, y.trim().parse().ok()?);
    (x.is_finite() && y.is_finite()).then(|| Point::new(x, y))
}

fn parse_args() -> Args {
    let mut out = Args {
        command: String::new(),
        common: CommonOpts {
            obstacles: 16_384,
            seed: 0xC17,
            backend: Backend::Paged,
            entities: 4_096,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            schedule: None,
        },
        s_count: 2_048,
        t_count: 2_048,
        k: 5,
        e: 0.0,
        at: None,
        from: None,
        to: None,
        paths: false,
        queries: 128,
        verify: false,
        clusters: 0,
        rounds: 4,
        edits: 32,
        depth: 64,
        admission: Admission::Block,
        listen: None,
        generate: 0,
        rate: 50.0,
    };
    let mut argv = std::env::args().skip(1);
    out.command = argv.next().unwrap_or_else(|| usage("missing command"));
    if out.command == "--help" || out.command == "-h" {
        usage("");
    }
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next()
                .unwrap_or_else(|| usage(&format!("missing value for {what}")))
        };
        if out.common.accept(flag.as_str(), &mut value) {
            continue;
        }
        match flag.as_str() {
            "--s" => out.s_count = value("--s").parse().unwrap_or_else(|_| usage("bad --s")),
            "--t" => out.t_count = value("--t").parse().unwrap_or_else(|_| usage("bad --t")),
            "--k" => out.k = value("--k").parse().unwrap_or_else(|_| usage("bad --k")),
            "--e" => out.e = value("--e").parse().unwrap_or_else(|_| usage("bad --e")),
            "--at" => {
                out.at = Some(parse_point(&value("--at")).unwrap_or_else(|| usage("bad --at")))
            }
            "--from" => {
                out.from =
                    Some(parse_point(&value("--from")).unwrap_or_else(|| usage("bad --from")))
            }
            "--to" => {
                out.to = Some(parse_point(&value("--to")).unwrap_or_else(|| usage("bad --to")))
            }
            "--paths" => out.paths = true,
            "--queries" => {
                out.queries = value("--queries")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --queries"))
            }
            "--verify" => out.verify = true,
            "--clusters" => {
                out.clusters = value("--clusters")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --clusters"))
            }
            "--rounds" => {
                out.rounds = value("--rounds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --rounds"))
            }
            "--edits" => {
                out.edits = value("--edits")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --edits"))
            }
            "--depth" => {
                out.depth = value("--depth")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --depth"))
            }
            "--admission" => {
                out.admission = match value("--admission").as_str() {
                    "block" => Admission::Block,
                    "reject" => Admission::Reject,
                    "shed" | "shed-oldest" | "shed_oldest" => Admission::ShedOldest,
                    _ => usage("bad --admission (block|reject|shed)"),
                }
            }
            "--listen" => out.listen = Some(value("--listen")),
            "--generate" => {
                out.generate = value("--generate")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --generate"))
            }
            "--rate" => {
                out.rate = value("--rate")
                    .parse()
                    .ok()
                    .filter(|r: &f64| r.is_finite() && *r > 0.0)
                    .unwrap_or_else(|| usage("bad --rate (queries/sec, finite and > 0)"))
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    out
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: obstacle_cli <command> [flags]\n\
         commands:\n\
         \x20 info                         city + index statistics\n\
         \x20 nn    --at X,Y [--k K] [--paths]\n\
         \x20 range --at X,Y --e E\n\
         \x20 path  --from X,Y --to X,Y\n\
         \x20 join  --e E [--s N] [--t N]\n\
         \x20 cp    [--k K] [--s N] [--t N]\n\
         \x20 batch [--queries N] [--threads T] [--verify]\n\
         \x20       [--schedule input|hilbert] [--clusters N]\n\
         \x20       (one streaming run, answers printed as workers finish\n\
         \x20       them; --verify compares against a 1-thread run)\n\
         \x20 update [--rounds R] [--edits N] [--queries Q] [--verify]\n\
         \x20       (interleaves edit batches with probe queries over one\n\
         \x20       long-lived scene cache; --verify checks every answer\n\
         \x20       against a fresh-scene execution)\n\
         \x20 serve [--depth N (64)] [--admission block|reject|shed]\n\
         \x20       [--generate N --rate R] [--listen HOST:PORT]\n\
         \x20       (resident query service, --threads workers; reads\n\
         \x20       'nn X Y [K]' | 'range X Y E' | 'path X1 Y1 X2 Y2'\n\
         \x20       lines from stdin, or self-drives an open-loop Poisson\n\
         \x20       workload with --generate/--rate; prints p50/p90/p99\n\
         \x20       time-to-answer at exit)\n\
         common flags: --obstacles N (16384) --seed S --entities N (4096)\n\
         \x20              --threads T --schedule input|hilbert\n\
         \x20              --backend paged|packed (paged: the R*-tree over\n\
         \x20              simulated disk pages; packed: the static\n\
         \x20              single-buffer tree, lock-free reads)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::{parse_point, parse_query_line};
    use obstacle_core::Query;
    use obstacle_geom::Point;

    #[test]
    fn well_formed_lines_parse() {
        assert_eq!(
            parse_query_line("nn 0.5 0.25 3"),
            Ok(Query::Nearest {
                q: Point::new(0.5, 0.25),
                k: 3
            })
        );
        // `k` is optional and at least 1.
        for line in ["nn 0.5 0.25", "nn 0.5 0.25 0"] {
            assert_eq!(
                parse_query_line(line),
                Ok(Query::Nearest {
                    q: Point::new(0.5, 0.25),
                    k: 1
                })
            );
        }
        assert_eq!(
            parse_query_line("range 1 2 0"),
            Ok(Query::Range {
                q: Point::new(1.0, 2.0),
                e: 0.0
            })
        );
        assert_eq!(
            parse_query_line("path 0 0 1 1"),
            Ok(Query::Path {
                from: Point::new(0.0, 0.0),
                to: Point::new(1.0, 1.0)
            })
        );
        assert_eq!(
            parse_query_line("path 0 0 1e-3 -4"),
            Ok(Query::Path {
                from: Point::new(0.0, 0.0),
                to: Point::new(1e-3, -4.0)
            })
        );
    }

    #[test]
    fn points_on_the_command_line_must_be_finite() {
        assert_eq!(parse_point("0.5, -2"), Some(Point::new(0.5, -2.0)));
        for arg in ["nan,inf", "0,nan", "inf,0", "1", "1,2,3", "x,y"] {
            assert_eq!(parse_point(arg), None, "accepted '{arg}'");
        }
    }

    #[test]
    fn hostile_lines_are_parse_errors() {
        for line in [
            "",
            "knn 0 0",
            "nn 0",
            "nn x 0",
            "nn nan 0",
            "nn nan nan",
            "nn 0 inf",
            "nn 0 0 1e30",
            "nn 0 0 -3",
            "nn 0 0 2.5",
            "nn 0 0 abc",
            "nn 0 0 99999999999999999999999",
            "range 0 0",
            "range 0 0 -0.1",
            "range 0 0 -1",
            "range 0 0 nan",
            "range 0 0 inf",
            "range -inf 0 1",
            "path 0 0 1",
            "path 0 0 1 infinity",
        ] {
            assert!(parse_query_line(line).is_err(), "accepted '{line}'");
        }
    }
}

//! Ablation benchmarks for the paper's §4–§6 design choices.
//!
//! Each ablation toggles exactly one knob of the paper's design and
//! reports the cost difference on the same workload (results are verified
//! identical — the knobs trade cost, not correctness):
//!
//! 1. ODJ Hilbert seed ordering on/off — obstacle-buffer locality (§5);
//! 2. ODJ seed-side heuristic on/off — fewer visibility graphs (§5);
//! 3. ONN visibility-graph reuse on/off — add/delete-entity vs rebuild (§4);
//! 4. ONN shrinking threshold on/off — candidate pruning (§4);
//! 5. sweep vs naive edge construction for OR (§2.3/[SS84]);
//! 6. R* insertion vs STR vs Hilbert bulk loading — tree quality;
//! 7. iOCP vs OCP — cost of incrementality (§6).

use obstacle_bench::{Scale, Workbench};
use obstacle_core::{
    closest_pairs, distance_join, incremental_closest_pairs, EngineOptions, EntityIndex,
    QueryEngine,
};
use obstacle_datagen::parameter_grid as grid;
use obstacle_rtree::{Item, RTree, RTreeConfig};
use obstacle_visibility::EdgeBuilder;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Ablations (|O| = {}, {} queries) ==\n",
        scale.obstacles, scale.queries
    );
    let w = Workbench::new(scale);

    odj_hilbert_and_seed_side(&w);
    onn_reuse_and_threshold(&w);
    or_sweep_vs_naive(&w);
    loading_strategies(&w);
    iocp_vs_ocp(&w);
}

fn odj_hilbert_and_seed_side(w: &Workbench) {
    let e = w.range_from_fraction(grid::DEFAULT_JOIN_RANGE_FRACTION * 5.0);
    let s = w.entity_index(w.scale.entity_count(0.5), 201);
    let t = w.entity_index(w.scale.entity_count(grid::T_RATIO), 202);

    println!("-- ODJ: Hilbert seed ordering & seed-side heuristic (e scaled x5) --");
    println!(
        "  {:<34}{:>14}{:>14}{:>12}{:>10}",
        "variant", "obst. reads", "entity reads", "CPU (ms)", "pairs"
    );
    let variants: [(&str, EngineOptions); 4] = [
        ("paper (hilbert + heuristic)", EngineOptions::default()),
        (
            "no hilbert order",
            EngineOptions {
                hilbert_seed_order: false,
                ..Default::default()
            },
        ),
        (
            "no seed-side heuristic",
            EngineOptions {
                seed_side_heuristic: false,
                ..Default::default()
            },
        ),
        (
            "neither",
            EngineOptions {
                hilbert_seed_order: false,
                seed_side_heuristic: false,
                ..Default::default()
            },
        ),
    ];
    let mut reference: Option<usize> = None;
    for (name, opts) in variants {
        w.reset_io(&[&s, &t]);
        let r = distance_join(&s, &t, &w.obstacles, e, opts);
        if let Some(n) = reference {
            assert_eq!(n, r.pairs.len(), "ablations must not change results");
        } else {
            reference = Some(r.pairs.len());
        }
        println!(
            "  {:<34}{:>14}{:>14}{:>12.2}{:>10}",
            name,
            r.stats.obstacle_reads,
            r.stats.entity_reads,
            r.stats.cpu.as_secs_f64() * 1e3,
            r.pairs.len()
        );
    }
    println!();
}

fn onn_reuse_and_threshold(w: &Workbench) {
    let entities = w.entity_index(w.scale.entity_count(1.0), 203);
    let k = grid::DEFAULT_K;
    println!("-- ONN: graph reuse & shrinking threshold (k = {k}) --");
    println!(
        "  {:<34}{:>14}{:>14}{:>12}",
        "variant", "candidates", "obst. reads", "CPU (ms)"
    );
    let variants: [(&str, EngineOptions); 3] = [
        ("paper (reuse + shrink)", EngineOptions::default()),
        (
            "rebuild graph per candidate",
            EngineOptions {
                reuse_graph: false,
                ..Default::default()
            },
        ),
        (
            "fixed threshold (no shrink)",
            EngineOptions {
                shrink_threshold: false,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in variants {
        w.reset_io(&[&entities]);
        let engine = QueryEngine::with_options(&entities, &w.obstacles, opts);
        let mut cpu = 0.0;
        let mut candidates = 0usize;
        let mut obstacle_reads = 0u64;
        for q in w.queries() {
            let r = engine.nearest(q, k);
            cpu += r.stats.cpu.as_secs_f64() * 1e3;
            candidates += r.stats.candidates;
            obstacle_reads += r.stats.obstacle_reads;
        }
        let n = w.scale.queries as f64;
        println!(
            "  {:<34}{:>14.2}{:>14.2}{:>12.2}",
            name,
            candidates as f64 / n,
            obstacle_reads as f64 / n,
            cpu / n
        );
    }
    println!();
}

fn or_sweep_vs_naive(w: &Workbench) {
    let entities = w.entity_index(w.scale.entity_count(2.0), 204);
    // A larger range makes graphs big enough for the asymptotic gap
    // between O(n log n) and naive edge construction to show.
    let e = w.range_from_fraction(grid::DEFAULT_RANGE_FRACTION * 5.0);
    println!("-- OR: rotational sweep vs naive visibility construction (e scaled x5) --");
    println!("  {:<34}{:>12}{:>14}", "builder", "CPU (ms)", "graph nodes");
    for (name, builder) in [
        ("rotational sweep [SS84]", EdgeBuilder::RotationalSweep),
        ("naive pairwise", EdgeBuilder::Naive),
    ] {
        let opts = EngineOptions {
            builder,
            ..Default::default()
        };
        w.reset_io(&[&entities]);
        let engine = QueryEngine::with_options(&entities, &w.obstacles, opts);
        let mut cpu = 0.0;
        let mut peak = 0usize;
        for q in w.queries() {
            let r = engine.range(q, e);
            cpu += r.stats.cpu.as_secs_f64() * 1e3;
            peak = peak.max(r.stats.peak_graph_nodes);
        }
        println!(
            "  {:<34}{:>12.2}{:>14}",
            name,
            cpu / w.scale.queries as f64,
            peak
        );
    }
    println!();
}

fn loading_strategies(w: &Workbench) {
    // Compare tree quality: pages and range-query I/O for the three
    // construction paths, on a moderate dataset.
    let count = w.scale.entity_count(1.0).min(20_000);
    let items: Vec<Item> = w
        .entity_index(count, 205)
        .live_points()
        .map(|(id, p)| Item::point(p, id))
        .collect();
    println!("-- R-tree loading strategies ({count} points, paper node capacity) --");
    println!(
        "  {:<34}{:>12}{:>12}{:>20}",
        "strategy", "build (ms)", "pages", "range reads/query"
    );
    let universe = w.city.universe;
    type TreeBuilder<'a> = Box<dyn Fn() -> RTree + 'a>;
    let builders: [(&str, TreeBuilder); 3] = [
        (
            "one-by-one R* insertion",
            Box::new(|| RTree::build(RTreeConfig::paper(), items.iter().copied())),
        ),
        (
            "STR bulk load",
            Box::new(|| RTree::bulk_load_str(RTreeConfig::paper(), items.clone())),
        ),
        (
            "Hilbert bulk load",
            Box::new(|| RTree::bulk_load_hilbert(RTreeConfig::paper(), items.clone(), &universe)),
        ),
    ];
    for (name, build) in builders {
        let t0 = Instant::now();
        let tree = build();
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        tree.reset_buffer();
        tree.reset_io_stats();
        let e = w.range_from_fraction(0.01);
        for q in w.queries() {
            let _ = tree.range_circle(q, e);
        }
        let reads = tree.io_stats().reads as f64 / w.scale.queries as f64;
        println!(
            "  {:<34}{:>12.1}{:>12}{:>20.2}",
            name,
            build_ms,
            tree.pages(),
            reads
        );
    }
    println!();
}

fn iocp_vs_ocp(w: &Workbench) {
    let s = w.entity_index(w.scale.entity_count(grid::T_RATIO), 206);
    let t = w.entity_index(w.scale.entity_count(grid::T_RATIO), 207);
    let k = grid::DEFAULT_K;
    println!("-- OCP vs iOCP (k = {k}) --");
    w.reset_io(&[&s, &t]);
    let t0 = Instant::now();
    let batch = closest_pairs(&s, &t, &w.obstacles, k, EngineOptions::default());
    let batch_ms = t0.elapsed().as_secs_f64() * 1e3;
    w.reset_io(&[&s, &t]);
    let t0 = Instant::now();
    let inc: Vec<_> = incremental_closest_pairs(&s, &t, &w.obstacles, EngineOptions::default())
        .take(k)
        .collect();
    let inc_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(batch.pairs.len(), inc.len());
    for (a, b) in batch.pairs.iter().zip(inc.iter()) {
        assert!((a.2 - b.2).abs() < 1e-9, "OCP and iOCP must agree");
    }
    println!(
        "  {:<34}{:>12.2}\n  {:<34}{:>12.2}\n",
        "OCP (batch, known k)", batch_ms, "iOCP (incremental, take k)", inc_ms
    );
}

// Keep a type check that EntityIndex is what the helpers expect.
#[allow(dead_code)]
fn _type_assertions(e: &EntityIndex) {
    let _ = e.len();
}

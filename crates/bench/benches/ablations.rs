//! Side-by-side costs of alternatives that both still exist, on one
//! workload:
//!
//! 1. sweep vs naive edge construction for OR (§2.3/[SS84]);
//! 2. R* insertion vs STR bulk loading — tree quality;
//! 3. iOCP vs OCP — cost of incrementality (§6).

use obstacle_bench::{Scale, Workbench};
use obstacle_core::{closest_pairs, incremental_closest_pairs, EngineOptions, QueryEngine};
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

    or_sweep_vs_naive(&w);
    loading_strategies(&w);
    iocp_vs_ocp(&w);
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
        let opts = EngineOptions { builder };
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
    // Compare tree quality: pages and range-query I/O for the two
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
    type TreeBuilder<'a> = Box<dyn Fn() -> RTree + 'a>;
    let builders: [(&str, TreeBuilder); 2] = [
        (
            "one-by-one R* insertion",
            Box::new(|| RTree::build(RTreeConfig::paper(), items.iter().copied())),
        ),
        (
            "STR bulk load",
            Box::new(|| RTree::bulk_load_str(RTreeConfig::paper(), items.clone())),
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

//! Micro-benchmarks for the substrates.
//!
//! Covers the hot kernels behind the paper's cost model: obstructed
//! distance computation, Dijkstra on the oracle graph, and the R-tree
//! query operations. (Sweep vs. naive is an engine-level ablation: see
//! `ablations.rs`.)
//! Runs on the in-tree [`obstacle_bench::harness`] (the offline
//! replacement for `criterion`).

use obstacle_bench::harness::Criterion;
use obstacle_core::{compute_obstructed_distance, EntityIndex, LocalGraph, ObstacleIndex};
use obstacle_datagen::{sample_entities, City, CityConfig};
use obstacle_geom::Point;
use obstacle_rtree::{Item, RTree, RTreeConfig};
use obstacle_visibility::{bounded_expansion, EdgeBuilder, VisibilityGraph};
use std::hint::black_box;

fn scene(n_obstacles: usize) -> City {
    City::generate(CityConfig::new(n_obstacles, 42))
}

fn bench_dijkstra(c: &mut Criterion) {
    let city = scene(64);
    let wps: Vec<(Point, u64)> = sample_entities(&city, 16, 2)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let (g, ids) = VisibilityGraph::build(
        city.obstacles
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64)),
        wps,
    );
    c.bench_function("dijkstra_bounded_expansion", |b| {
        b.iter(|| black_box(bounded_expansion(&g, ids[0], 0.3).len()))
    });
}

fn bench_obstructed_distance(c: &mut Criterion) {
    let city = scene(512);
    let obstacles = ObstacleIndex::bulk_load(RTreeConfig::paper(), city.obstacles.clone());
    let pts = sample_entities(&city, 16, 3);
    c.bench_function("compute_obstructed_distance", |b| {
        b.iter(|| {
            let mut g = LocalGraph::new(EdgeBuilder::RotationalSweep);
            let a = g.add_waypoint(pts[0], 0);
            let z = g.add_waypoint(pts[9], u64::MAX);
            black_box(compute_obstructed_distance(&mut g, a, z, &obstacles))
        })
    });
}

fn bench_rtree_ops(c: &mut Criterion) {
    let city = scene(256);
    let pts = sample_entities(&city, 50_000, 4);
    let items: Vec<Item> = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| Item::point(p, i as u64))
        .collect();

    c.bench_function("rtree_str_bulk_load_50k", |b| {
        b.iter(|| black_box(RTree::bulk_load_str(RTreeConfig::paper(), items.clone()).pages()))
    });

    let tree = RTree::bulk_load_str(RTreeConfig::paper(), items.clone());
    let q = Point::new(0.37, 0.58);
    c.bench_function("rtree_range_circle", |b| {
        b.iter(|| black_box(tree.range_circle(q, 0.05).len()))
    });
    c.bench_function("rtree_k_nearest_16", |b| {
        b.iter(|| black_box(tree.k_nearest(q, 16).len()))
    });

    let entities = EntityIndex::bulk_load(RTreeConfig::paper(), pts[..5_000].to_vec());
    let entities2 = EntityIndex::bulk_load(RTreeConfig::paper(), pts[5_000..10_000].to_vec());
    c.bench_function("rtree_distance_join_5k_x_5k", |b| {
        b.iter(|| {
            black_box(obstacle_rtree::distance_join(entities.tree(), entities2.tree(), 0.001).len())
        })
    });
}

fn bench_insertion(c: &mut Criterion) {
    let city = scene(64);
    let pts = sample_entities(&city, 2_000, 5);
    let items: Vec<Item> = pts
        .iter()
        .enumerate()
        .map(|(i, &p)| Item::point(p, i as u64))
        .collect();
    c.bench_function("rtree_rstar_insert_2k", |b| {
        b.iter(|| {
            let t = RTree::build(RTreeConfig::tiny(32), items.iter().copied());
            black_box(t.pages())
        })
    });
}

fn main() {
    let mut c = Criterion::default().sample_size(10);
    bench_dijkstra(&mut c);
    bench_obstructed_distance(&mut c);
    bench_rtree_ops(&mut c);
    bench_insertion(&mut c);
}

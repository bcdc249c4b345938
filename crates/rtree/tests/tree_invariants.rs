//! Structural and semantic tests of the R*-tree.

use obstacle_geom::check;
use obstacle_geom::{Point, Rect};
use obstacle_rtree::{Item, RTree, RTreeConfig};

fn pts(n: usize, seed: u64) -> Vec<Point> {
    // Cheap deterministic pseudo-random points in the unit square.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next(), next())).collect()
}

fn items_of(points: &[Point]) -> Vec<Item> {
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| Item::point(p, i as u64))
        .collect()
}

#[test]
fn incremental_build_respects_all_invariants() {
    for cap in [3usize, 4, 8, 16] {
        let points = pts(500, cap as u64);
        let mut t = RTree::new(RTreeConfig::tiny(cap));
        for (i, it) in items_of(&points).into_iter().enumerate() {
            t.insert(it);
            if i % 97 == 0 {
                t.validate(true)
                    .unwrap_or_else(|e| panic!("cap {cap}: {e}"));
            }
        }
        t.validate(true).unwrap();
        assert_eq!(t.len(), 500);
    }
}

#[test]
fn paper_config_build_is_shallow_and_valid() {
    let points = pts(5000, 7);
    let t = RTree::build(RTreeConfig::paper(), items_of(&points));
    t.validate(true).unwrap();
    assert_eq!(t.len(), 5000);
    // 5000 items at capacity 204 needs height 2.
    assert_eq!(t.height(), 2);
    assert_eq!(t.config().capacity(), 204);
}

#[test]
fn bulk_loads_agree_with_insertion_on_queries() {
    let points = pts(2000, 42);
    let items = items_of(&points);
    let a = RTree::build(RTreeConfig::tiny(8), items.clone());
    let b = RTree::bulk_load_str(RTreeConfig::tiny(8), items);
    a.validate(true).unwrap();
    b.validate(false).unwrap();
    assert_eq!(b.len(), 2000);

    let window = Rect::from_coords(0.2, 0.3, 0.55, 0.6);
    let mut ra: Vec<u64> = a.range_rect(&window).iter().map(|i| i.id).collect();
    let mut rb: Vec<u64> = b.range_rect(&window).iter().map(|i| i.id).collect();
    ra.sort_unstable();
    rb.sort_unstable();
    assert_eq!(ra, rb);

    // Ground truth.
    let expect: Vec<u64> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| window.contains_point(**p))
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(ra, expect);
}

#[test]
fn range_circle_matches_linear_scan() {
    let points = pts(800, 3);
    let t = RTree::build(RTreeConfig::tiny(6), items_of(&points));
    let q = Point::new(0.4, 0.6);
    for radius in [0.0, 0.05, 0.2, 0.7] {
        let mut got: Vec<u64> = t.range_circle(q, radius).iter().map(|i| i.id).collect();
        got.sort_unstable();
        let expect: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(q) <= radius)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, expect, "radius {radius}");
    }
}

#[test]
fn delete_removes_and_preserves_invariants() {
    let points = pts(400, 11);
    let items = items_of(&points);
    let mut t = RTree::build(RTreeConfig::tiny(4), items.clone());
    // Delete every third item.
    for (i, it) in items.iter().enumerate() {
        if i % 3 == 0 {
            assert!(t.delete(it), "item {i} must be found");
        }
    }
    t.validate(true).unwrap();
    assert_eq!(t.len(), 400 - 134);
    // Deleted items are gone; others remain findable.
    for (i, it) in items.iter().enumerate() {
        let found = t.range_rect(&it.mbr).iter().any(|f| f.id == it.id);
        assert_eq!(found, i % 3 != 0, "item {i}");
    }
    // Deleting again returns false.
    assert!(!t.delete(&items[0]));
}

#[test]
fn delete_down_to_empty_and_reuse() {
    let points = pts(150, 5);
    let items = items_of(&points);
    let mut t = RTree::build(RTreeConfig::tiny(4), items.clone());
    for it in &items {
        assert!(t.delete(it));
        t.validate(true).unwrap();
    }
    assert!(t.is_empty());
    assert_eq!(t.height(), 1);
    // Tree remains usable after emptying.
    t.insert(Item::point(Point::new(0.5, 0.5), 999));
    assert_eq!(t.len(), 1);
    assert_eq!(t.k_nearest(Point::new(0.0, 0.0), 1)[0].0.id, 999);
}

#[test]
fn duplicate_points_are_supported() {
    let p = Point::new(0.25, 0.75);
    let items: Vec<Item> = (0..50).map(|i| Item::point(p, i)).collect();
    let mut t = RTree::build(RTreeConfig::tiny(4), items.clone());
    t.validate(true).unwrap();
    assert_eq!(t.range_circle(p, 0.0).len(), 50);
    for it in &items {
        assert!(t.delete(it));
    }
    assert!(t.is_empty());
}

#[test]
fn io_accounting_counts_misses_not_hits() {
    let points = pts(3000, 9);
    let t = RTree::build(RTreeConfig::tiny(16), items_of(&points));
    t.reset_buffer();
    t.reset_io_stats();
    let w = Rect::from_coords(0.4, 0.4, 0.42, 0.42);
    let _ = t.range_rect(&w);
    let first = t.io_stats();
    assert!(first.reads > 0, "cold buffer ⇒ some misses");
    // Re-running the identical query with a warm buffer must be cheaper.
    t.reset_io_stats();
    let _ = t.range_rect(&w);
    let second = t.io_stats();
    assert!(
        second.reads <= first.reads,
        "warm run ({}) must not exceed cold run ({})",
        second.reads,
        first.reads
    );
    assert!(second.buffer_hits > 0);
}

#[test]
fn buffer_is_ten_percent_of_pages() {
    let points = pts(4000, 13);
    let t = RTree::build(RTreeConfig::tiny(16), items_of(&points));
    t.reset_buffer();
    let expect = ((t.pages() as f64) * 0.1).ceil() as usize;
    assert_eq!(t.buffer_capacity(), expect.max(1));
}

#[test]
fn nearest_is_io_optimal_versus_range() {
    // Best-first NN should touch no more pages than a range query with the
    // radius of the found neighbour (optimality sanity check, [HS99]).
    let points = pts(3000, 21);
    let t = RTree::build(RTreeConfig::tiny(16), items_of(&points));
    let q = Point::new(0.37, 0.81);
    t.reset_buffer();
    t.reset_io_stats();
    let (_, d) = t.nearest(q).next().unwrap();
    let nn_reads = t.io_stats().reads;
    t.reset_buffer();
    t.reset_io_stats();
    let _ = t.range_circle(q, d);
    let range_reads = t.io_stats().reads;
    assert!(
        nn_reads <= range_reads + 1,
        "NN reads {nn_reads} vs range reads {range_reads}"
    );
}

#[test]
fn parallel_readers_share_one_tree() {
    // The tree is Sync: concurrent read-only queries share the LRU buffer
    // like clients of one database buffer pool, and results stay exact.
    let points = pts(2000, 33);
    let t = RTree::build(RTreeConfig::tiny(16), items_of(&points));
    t.reset_buffer();
    t.reset_io_stats();
    let queries: Vec<Point> = (0..16).map(|i| points[i * 100]).collect();
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| t.k_nearest(*q, 10).iter().map(|(i, _)| i.id).collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .zip(expected.iter())
            .map(|(q, want)| {
                let tree = &t;
                scope.spawn(move || {
                    for _ in 0..5 {
                        let got: Vec<u64> =
                            tree.k_nearest(*q, 10).iter().map(|(i, _)| i.id).collect();
                        assert_eq!(&got, want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    // All accesses were accounted (16 threads × 5 repeats × >0 fetches).
    assert!(t.io_stats().fetches() >= 16 * 5);
}

#[test]
fn random_build_query_delete_cycle() {
    check::cases(24, |g| {
        let n = g.usize(1, 300);
        let cap = g.usize(3, 10);
        let seed = g.u64(0, 1000);
        let q = Point::new(g.f64(0.0, 1.0), g.f64(0.0, 1.0));
        let r = g.f64(0.0, 0.5);

        let points = pts(n, seed);
        let items = items_of(&points);
        let mut t = RTree::build(RTreeConfig::tiny(cap), items.clone());
        assert!(t.validate(true).is_ok());

        // Range vs scan.
        let mut got: Vec<u64> = t.range_circle(q, r).iter().map(|i| i.id).collect();
        got.sort_unstable();
        let expect: Vec<u64> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(q) <= r)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, expect);

        // kNN vs scan.
        let k = (n / 3).max(1);
        let knn: Vec<f64> = t.k_nearest(q, k).iter().map(|(_, d)| *d).collect();
        let mut dists: Vec<f64> = points.iter().map(|p| p.dist(q)).collect();
        dists.sort_by(|a, b| obstacle_geom::total_cmp(*a, *b));
        for (knn_d, scan_d) in knn.iter().zip(dists.iter()) {
            assert!((knn_d - scan_d).abs() < 1e-12);
        }

        // Delete half, re-validate, re-query.
        for it in items.iter().take(n / 2) {
            assert!(t.delete(it));
        }
        assert!(t.validate(true).is_ok());
        let mut got: Vec<u64> = t.range_circle(q, r).iter().map(|i| i.id).collect();
        got.sort_unstable();
        let expect: Vec<u64> = points
            .iter()
            .enumerate()
            .skip(n / 2)
            .filter(|(_, p)| p.dist(q) <= r)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, expect);
    });
}

#[test]
fn str_bulk_load_equals_scan() {
    check::cases(24, |g| {
        let n = g.usize(1, 2000);
        let seed = g.u64(0, 100);
        let points = pts(n, seed);
        let t = RTree::bulk_load_str(RTreeConfig::tiny(8), items_of(&points));
        assert!(t.validate(false).is_ok());
        assert_eq!(t.len(), n);
        let all = t.items();
        assert_eq!(all.len(), n);
    });
}

#[test]
fn range_descents_keep_their_page_visit_order() {
    // The three range queries share one stack descent; which children it
    // pushes, and in what order, decides both how many pages are fetched
    // and — through the LRU buffer, 10 % of the tree — how many of those
    // fetches miss. The figure harness prints these counts, so they are
    // pinned to the values of the four hand-written descents this one
    // replaced. The queries overlap and run back to back, twice, on one
    // buffer, so each one's hits depend on the order in which the one
    // before it left its pages; counts are cumulative.
    let points = pts(3000, 9);
    let t = RTree::bulk_load_str(RTreeConfig::tiny(16), items_of(&points));
    t.reset_buffer();
    t.reset_io_stats();
    let mut seen = Vec::new();
    let mut record = |results: usize| {
        let io = t.io_stats();
        seen.push((results, io.fetches(), io.reads));
    };
    let center = Point::new(0.55, 0.45);
    let foci = |r: &Rect| r.mindist_point(center) + r.mindist_point(Point::new(0.45, 0.5));
    for _ in 0..2 {
        record(
            t.range_rect(&Rect::from_coords(0.35, 0.4, 0.65, 0.58))
                .len(),
        );
        record(t.range_circle(center, 0.14).len());
        record(t.range_by_bound(foci, 0.32).len());
    }
    let parent = [
        (144, 20, 20),
        (173, 45, 31),
        (206, 70, 56),
        (144, 90, 76),
        (173, 115, 87),
        (206, 140, 112),
    ];
    assert_eq!(seen, parent, "(results, fetches, misses) after each query");
}

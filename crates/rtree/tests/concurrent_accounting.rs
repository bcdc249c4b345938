//! Concurrent exactness of the paged tree's I/O accounting: one buffer
//! pool, many reader threads, no fetch lost or counted twice.

use obstacle_geom::Point;
use obstacle_rtree::{Item, RTree, RTreeConfig};

fn grid_items(n: usize) -> Vec<Item> {
    (0..n as u64)
        .map(|i| Item::point(Point::new((i % 64) as f64, (i / 64) as f64), i))
        .collect()
}

/// A mixed read-only query workload touching many pages.
fn workload(tree: &RTree, salt: u64) {
    for i in 0..40u64 {
        let j = (i * 7 + salt) % 64;
        let q = Point::new(j as f64, ((j * 5) % 64) as f64);
        assert_eq!(tree.nearest(q).take(8).count(), 8);
    }
}

#[test]
fn thread_windows_sum_to_aggregate_under_concurrency() {
    // 8 threads hammer one tree. Exactness of the aggregate — every
    // logical fetch counted exactly once, none lost to a race — is
    // checked two ways: per-thread attribution windows sum to the global
    // delta, and the total equals the single-threaded fetch count of the
    // same workload.
    let items = grid_items(4096);
    let tree = RTree::build(RTreeConfig::tiny(16), items);
    tree.reset_buffer();
    tree.reset_io_stats();

    let threads = 8;
    let solo: u64 = (0..threads)
        .map(|t| {
            let snap = tree.io_snapshot();
            workload(&tree, t as u64);
            snap.finish().fetches()
        })
        .sum();
    tree.reset_buffer();
    tree.reset_io_stats();

    let attributed: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let tree = &tree;
                scope.spawn(move || {
                    let snap = tree.io_snapshot();
                    workload(tree, t as u64);
                    snap.finish().fetches()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    let global = tree.io_stats();
    assert_eq!(
        attributed,
        global.fetches(),
        "thread-local windows must cover the global aggregate exactly"
    );
    assert_eq!(
        attributed, solo,
        "logical fetches are interleaving-independent"
    );
    assert!(global.buffer_hits > 0, "workload must exercise hits");
    assert!(global.reads > 0, "workload must exercise misses");
}

//! Obstructed k-medoids clustering — the workload of El-Zawawy &
//! El-Sharkawi's *Clustering with Obstacles in Spatial Databases*, built
//! on the streaming batch engine.
//!
//! Points of interest are clustered under the **obstructed distance**
//! metric: two points on opposite sides of a wall belong to different
//! clusters even when they almost touch in Euclidean space. Each
//! iteration's assignment step is one batch of obstacle-NN probes
//! (every point against the current medoid set), issued through
//! `engine.batch(..).stream(..)` with the **Hilbert schedule** —
//! assignments are consumed as workers finish them, and spatially
//! adjacent probes run back-to-back so each worker's scene cache stays
//! warm. The example also runs the first assignment batch under both
//! schedules to show the scene-cache hit-count gap the scheduler exists
//! to create.
//!
//! ```sh
//! cargo run --release --example obstructed_clustering
//! ```

use obstacle_suite::datagen::{
    clustered_batch_workload, BatchMix, BatchQuery, City, CityConfig, ClusterSpec,
};
use obstacle_suite::geom::{hilbert_index_unit, Point};
use obstacle_suite::queries::{Answer, EntityIndex, ObstacleIndex, Query, QueryEngine, Schedule};
use obstacle_suite::rtree::RTreeConfig;

const K: usize = 4;
const THREADS: usize = 2;
const MAX_ITERATIONS: usize = 6;

fn main() {
    let city = City::generate(CityConfig::new(400, 31));
    // Points of interest concentrate in districts — the input shape
    // clustering exists for. `clustered_batch_workload` already knows
    // how to generate it (hotspots following the obstacle distribution,
    // round-robin interleaved); an NN-only mix makes it a point source.
    let nn_only = BatchMix {
        range: 0,
        nearest: 1,
        distance_join: 0,
        semi_join: 0,
        closest_pairs: 0,
        path: 0,
    };
    let spec = ClusterSpec {
        clusters: 6,
        spread: 0.01,
    };
    let points: Vec<Point> = clustered_batch_workload(&city, 120, 17, nn_only, spec)
        .iter()
        .map(|q| match q {
            BatchQuery::Nearest { q, .. } => *q,
            _ => unreachable!("NN-only mix"),
        })
        .collect();
    let obstacles = ObstacleIndex::bulk_load(RTreeConfig::default(), city.obstacles.clone());
    println!(
        "obstructed {K}-medoids over {} points, {} obstacles",
        points.len(),
        obstacles.len()
    );

    // Initial medoids: Hilbert-order quantiles of the dataset — spread
    // across the city, deterministic, and cheap (no distance queries).
    let mut by_hilbert: Vec<usize> = (0..points.len()).collect();
    by_hilbert.sort_by_key(|&i| hilbert_index_unit(points[i], &city.universe));
    let mut medoids: Vec<usize> = (0..K)
        .map(|c| by_hilbert[(2 * c + 1) * points.len() / (2 * K)])
        .collect();

    let mut assignment = vec![0usize; points.len()];
    for iteration in 0..MAX_ITERATIONS {
        // ---- Assignment: one streaming batch of obstacle-NN probes
        // against an index of the K current medoids.
        let medoid_index = EntityIndex::build(
            RTreeConfig::default(),
            medoids.iter().map(|&m| points[m]).collect(),
        );
        let engine = QueryEngine::new(&medoid_index, &obstacles);
        let probes: Vec<Query> = points.iter().map(|&q| Query::Nearest { q, k: 1 }).collect();
        let request = engine.batch(&probes).threads(THREADS);

        if iteration == 0 {
            // Same batch, both claim orders: the answers are identical
            // (the determinism contract), only the scene-cache economics
            // move. This is the knob the scheduling layer adds.
            for (name, schedule) in [
                ("input-order", Schedule::InputOrder),
                ("hilbert    ", Schedule::Hilbert),
            ] {
                let (_, stats) = request.schedule(schedule).collect();
                println!(
                    "  schedule {name}: {} scene reuse(s), {} reset(s) across {} worker(s)",
                    stats.scene_reuses, stats.scene_resets, stats.workers
                );
            }
        }

        let mut cost = 0.0f64;
        let (moved, _stats) = request.schedule(Schedule::Hilbert).stream(|stream| {
            // Assignments land while later probes are still running —
            // a real consumer would start updating cluster summaries
            // here instead of waiting for the barrier.
            let mut moved = 0usize;
            for (i, answer) in stream {
                let Answer::Nearest(nn) = answer else {
                    unreachable!("assignment batch is all NN probes")
                };
                // An empty answer means the probe can reach no medoid
                // (walled off); leave its previous assignment alone.
                let Some(&(medoid, d)) = nn.neighbors.first() else {
                    continue;
                };
                cost += d;
                if assignment[i] != medoid as usize {
                    assignment[i] = medoid as usize;
                    moved += 1;
                }
            }
            moved
        });
        println!("iteration {iteration}: total obstructed cost {cost:.4}, {moved} reassignment(s)");

        // ---- Update: each cluster's new medoid is the member nearest
        // (under d_O) to the cluster's Euclidean centroid — the cheap
        // medoid update of the obstructed-clustering line of work.
        let mut changed = false;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..points.len()).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let centroid = Point::new(
                members.iter().map(|&i| points[i].x).sum::<f64>() / members.len() as f64,
                members.iter().map(|&i| points[i].y).sum::<f64>() / members.len() as f64,
            );
            let member_index = EntityIndex::build(
                RTreeConfig::default(),
                members.iter().map(|&i| points[i]).collect(),
            );
            let member_engine = QueryEngine::new(&member_index, &obstacles);
            let nn = member_engine.nearest(centroid, 1);
            // A centroid can land inside an obstacle (members ringing a
            // block), where obstructed distances are undefined and the
            // answer is empty — keep the old medoid in that case.
            let Some(&(nn_id, _)) = nn.neighbors.first() else {
                continue;
            };
            let new_medoid = members[nn_id as usize];
            if new_medoid != *medoid {
                *medoid = new_medoid;
                changed = true;
            }
        }
        if !changed && moved == 0 {
            println!("converged after {} iteration(s)", iteration + 1);
            break;
        }
    }

    for c in 0..K {
        let size = assignment.iter().filter(|&&a| a == c).count();
        let m = points[medoids[c]];
        println!("cluster {c}: {size} point(s) around medoid {m}");
    }
}

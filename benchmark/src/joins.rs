//! The `joins` workload: one client, closed loop, rounds of the seven
//! dataset-wide operators over `S`, `T` and the probe set `S′`.

use crate::gen::{Database, JoinIndexes, JoinOp};
use crate::stats::{self, Fnv};
use obstacle_core::{closest_pairs, distance_join, semi_join, EngineOptions, SemiJoinStrategy};
use obstacle_rtree::sync::Stopwatch;
use obstacle_rtree::Backend;

/// Executes one operator; returns its `(s, t, distance)` rows.
pub fn execute(ix: &JoinIndexes, op: JoinOp) -> Vec<(u64, u64, f64)> {
    let options = EngineOptions::default();
    match op {
        JoinOp::DistanceJoin(e) => distance_join(&ix.s, &ix.t, &ix.obstacles, e, options).pairs,
        JoinOp::ClosestPairs(k) => closest_pairs(&ix.s, &ix.t, &ix.obstacles, k, options).pairs,
        JoinOp::SemiJoin => {
            semi_join(
                &ix.s_prime,
                &ix.t,
                &ix.obstacles,
                SemiJoinStrategy::PerObjectNn,
                options,
            )
            .pairs
        }
    }
}

/// What the timed rounds measured.
pub struct JoinOutcome {
    /// Operators per second of each round.
    pub ops_per_s: Vec<f64>,
    /// Duration of every operator call in ms, pooled over the rounds.
    pub tta_ms: Vec<f64>,
    /// Smallest result size among the seven operators.
    pub min_rows: usize,
    pub attempted: usize,
    pub failed: usize,
    pub checksum: u64,
}

/// Runs rounds until `seconds` have been measured, then compares every
/// operator's rows against the packed backend once.
pub fn run(db: &Database, ix: &JoinIndexes, round: &[JoinOp], seconds: f64) -> JoinOutcome {
    let mut ops_per_s = Vec::new();
    let mut tta_ms = Vec::new();
    let mut first_rows: Vec<Vec<(u64, u64, f64)>> = Vec::new();
    let mut failed = 0;
    let clock = Stopwatch::start();
    while clock.elapsed().as_secs_f64() < seconds {
        let round_clock = Stopwatch::start();
        for (i, &op) in round.iter().enumerate() {
            let t = Stopwatch::start();
            let rows = std::hint::black_box(execute(ix, op));
            tta_ms.push(stats::ms(t.elapsed()));
            match first_rows.get(i) {
                None => first_rows.push(rows),
                Some(first) if first.len() != rows.len() => {
                    eprintln!("MISMATCH: {op:?} changed its result size between rounds");
                    failed += 1;
                }
                Some(_) => {}
            }
        }
        ops_per_s.push(round.len() as f64 / round_clock.elapsed().as_secs_f64());
    }

    let mut checksum = Fnv::default();
    let packed = JoinIndexes::build(db, Backend::Packed);
    for (&op, rows) in round.iter().zip(&first_rows) {
        checksum.rows3(rows);
        if execute(&packed, op) != *rows {
            eprintln!("MISMATCH: {op:?} differs on the packed backend");
            failed += 1;
        }
    }
    JoinOutcome {
        attempted: tta_ms.len(),
        ops_per_s,
        tta_ms,
        min_rows: first_rows.iter().map(Vec::len).min().unwrap_or(0),
        failed,
        checksum: checksum.0,
    }
}

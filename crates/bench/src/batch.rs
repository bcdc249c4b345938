//! Workload conversion for `obstacle_cli batch` / `update` / `serve`.

use obstacle_core::{Query, SemiJoinStrategy};
use obstacle_datagen::BatchQuery;

/// Converts a datagen workload spec into an executable core query
/// (`datagen` stays independent of the query processors, so the mapping
/// lives here).
pub fn to_core_query(spec: &BatchQuery) -> Query {
    match *spec {
        BatchQuery::Range { q, e } => Query::Range { q, e },
        BatchQuery::Nearest { q, k } => Query::Nearest { q, k },
        BatchQuery::DistanceJoin { e } => Query::DistanceJoin { e },
        BatchQuery::SemiJoin => Query::SemiJoin {
            strategy: SemiJoinStrategy::PerObjectNn,
        },
        BatchQuery::ClosestPairs { k } => Query::ClosestPairs { k },
        BatchQuery::Path { from, to } => Query::Path { from, to },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obstacle_datagen::{batch_workload, BatchMix, City, CityConfig};

    #[test]
    fn conversion_covers_every_operator() {
        let city = City::generate(CityConfig::new(60, 5));
        let specs = batch_workload(&city, 300, 11, BatchMix::default());
        let queries: Vec<Query> = specs.iter().map(to_core_query).collect();
        assert_eq!(queries.len(), specs.len());
        // Spot-check the mapping keeps parameters intact.
        for (s, q) in specs.iter().zip(queries.iter()) {
            match (s, q) {
                (BatchQuery::Range { q: a, e: x }, Query::Range { q: b, e: y }) => {
                    assert_eq!(a, b);
                    assert_eq!(x, y);
                }
                (BatchQuery::Nearest { q: a, k: x }, Query::Nearest { q: b, k: y }) => {
                    assert_eq!(a, b);
                    assert_eq!(x, y);
                }
                (BatchQuery::DistanceJoin { e: x }, Query::DistanceJoin { e: y }) => {
                    assert_eq!(x, y)
                }
                (BatchQuery::SemiJoin, Query::SemiJoin { .. }) => {}
                (BatchQuery::ClosestPairs { k: x }, Query::ClosestPairs { k: y }) => {
                    assert_eq!(x, y)
                }
                (BatchQuery::Path { from, to }, Query::Path { from: f, to: t }) => {
                    assert_eq!(from, f);
                    assert_eq!(to, t);
                }
                other => panic!("mismatched mapping {other:?}"),
            }
        }
    }
}

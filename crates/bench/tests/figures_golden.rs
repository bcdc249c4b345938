//! The paper's figures as a golden file.
//!
//! The page-access tables (Figs. 13a, 14a, 16a, 17a, 19a–22a) and the
//! false-hit tables (Figs. 15a/b, 18a/b) of [`figures::generate_all`] are
//! deterministic: they count logical page fetches and false hits, never
//! time. They are compared here against `golden/figures.txt`, so a change
//! that moves a figure has to edit that file in the same diff. The CPU
//! tables are excluded.
//!
//! The run is smaller than `Scale::tiny` (256 obstacles, 2 queries per
//! workload) to keep a debug build's test run short; every figure and
//! every grid point is still generated, and the columns are exact at any
//! scale.

use obstacle_bench::figures;
use obstacle_bench::{Scale, Workbench};
use std::fmt::Write as _;
use std::path::Path;

const SCALE: Scale = Scale {
    obstacles: 256,
    queries: 2,
    seed: 0xC17,
};

/// Every table of `generate_all` except the CPU ones, in `repro --csv`
/// form, under a header naming the scale.
fn deterministic_tables() -> String {
    let mut out = format!(
        "# scale: |O| = {}, {} queries/workload, seed {:#x}\n\n",
        SCALE.obstacles, SCALE.queries, SCALE.seed
    );
    for table in figures::generate_all(&Workbench::new(SCALE)) {
        if table.title.contains("CPU") {
            continue;
        }
        let _ = writeln!(out, "# {}\n{}", table.title, table.to_csv());
    }
    out
}

#[test]
fn page_accesses_and_false_hits_match_the_golden_file() {
    let actual = deterministic_tables();
    let golden = include_str!("golden/figures.txt");
    if actual != golden {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures.txt");
        std::fs::write(&path, &actual).expect("write the regenerated tables");
        panic!(
            "the figure tables differ from crates/bench/tests/golden/figures.txt; \
             the regenerated tables are in {}. If the change is intended, copy \
             them over the golden file in the same diff.",
            path.display()
        );
    }
}

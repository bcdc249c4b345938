//! Reproduction harness for the evaluation section (§7) of
//! *Spatial Queries in the Presence of Obstacles* (EDBT 2004).
//!
//! Every figure of the paper (Figs. 13–22) has a generator here that
//! re-runs the corresponding experiment and prints the same series the
//! paper plots: page accesses per R-tree, CPU time, and false-hit ratios,
//! as functions of the paper's parameter grids.
//!
//! Scaling: the paper uses |O| = 131,461 obstacles and 200-query
//! workloads. The default harness scale is smaller so `cargo bench`
//! terminates quickly; query ranges are **density-normalised** (scaled by
//! `sqrt(131461 / |O|)`) so that the expected number of candidates and
//! obstacles per query — and therefore the *shape* of every curve —
//! matches the paper at any scale. Run the `repro` binary with
//! `--scale full` for the paper-exact setup.

#![warn(missing_docs)]

pub mod batch;
pub mod figures;
pub mod scale;
pub mod setup;
pub mod table;

pub use scale::Scale;
pub use setup::Workbench;
pub use table::Table;

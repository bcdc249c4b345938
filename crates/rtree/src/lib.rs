//! A disk-model R*-tree with page-access accounting.
//!
//! This crate implements the storage substrate assumed by *Spatial Queries
//! in the Presence of Obstacles* (Zhang et al., EDBT 2004): both the entity
//! datasets and the obstacle dataset are indexed by R*-trees \[BKSS90\]
//! backed by fixed-size disk pages and an LRU buffer. The paper's
//! experimental metric is the number of **page accesses** (buffer misses),
//! so the tree simulates the disk: every node visit during a query goes
//! through an [`buffer::LruBuffer`] sized at a fraction
//! (default 10 %) of the tree, and misses are counted per tree.
//!
//! Provided query algorithms (all used by the paper):
//!
//! * window and disk **range search**,
//! * **incremental best-first nearest neighbours** \[HS99\] — optimal and
//!   resumable, as required by the ONN algorithm's shrinking threshold,
//! * **e-distance join** \[BKS93\] — synchronized traversal of two trees,
//! * **incremental closest pairs** \[HS98, CMTV00\] — a priority queue over
//!   node/item pairs, as required by OCP/iOCP.
//!
//! Construction supports both one-by-one R* insertion (ChooseSubtree,
//! forced reinsertion, R* split) and STR bulk loading, plus
//! deletion with the classic condense-tree reinsertion.
//!
//! Pages can be persisted to and reloaded from a byte image (see
//! [`persist`]); the in-memory representation always uses `f64`
//! coordinates, while the default cost-model node capacity (204 entries)
//! matches the paper's 4 KiB pages with 20-byte entries.
//!
//! # Storage backends
//!
//! The read-side query surface is abstracted by [`TreeBackend`] with two
//! implementations: the paged [`RTree`] above (the faithful reproduction,
//! with insert/delete and page-access accounting) and the
//! [`PackedRTree`] — a flatbush-style packed static tree in one
//! contiguous buffer, built by Hilbert sort, byte-serializable without a
//! rebuild, and entirely lock-free on the query path (its IO stats count
//! node visits instead of page accesses). [`AnyTree`] enum-dispatches
//! between the two, selected by [`RTreeConfig::backend`]. All query
//! algorithms ([`Nearest`], [`distance_join`], [`ClosestPairs`], the
//! range searches) are generic over the backend.
//!
//! # Example
//!
//! ```
//! use obstacle_geom::Point;
//! use obstacle_rtree::{Item, RTree, RTreeConfig};
//!
//! // Index 1,000 points with the paper's disk parameters.
//! let items = (0..1000u64)
//!     .map(|i| Item::point(Point::new((i % 32) as f64, (i / 32) as f64), i));
//! let tree = RTree::build(RTreeConfig::paper(), items);
//!
//! // Incremental nearest neighbours, in ascending distance order.
//! let q = Point::new(10.2, 14.8);
//! let two: Vec<u64> = tree.nearest(q).take(2).map(|(it, _)| it.id).collect();
//! assert_eq!(two.len(), 2);
//!
//! // Page accesses (LRU buffer misses) are counted per tree.
//! tree.reset_buffer();
//! tree.reset_io_stats();
//! let _ = tree.k_nearest(q, 8);
//! assert!(tree.io_stats().reads > 0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod codec;
pub mod sync;

mod backend;
mod config;
mod entry;
mod node;
mod packed;
pub mod persist;
mod query;
mod stats;
mod store;
mod tree;

pub use backend::{AnyTree, NodeRef, TreeBackend};
pub use config::{Backend, RTreeConfig};
pub use entry::{Entry, Item, PageId};
pub use node::Node;
pub use obstacle_geom::OrdF64;
pub use packed::PackedRTree;
pub use query::closest_pairs::ClosestPairs;
pub use query::join::distance_join;
pub use query::nn::Nearest;
pub use stats::{LevelStats, TreeStats};
pub use store::{IoSnapshot, IoStats};
pub use tree::RTree;

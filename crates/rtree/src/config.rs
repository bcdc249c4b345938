//! Tree configuration: the simulated disk-page cost model.

/// Which storage backend a tree is built on.
///
/// The engine layer ([`AnyTree::build`](crate::AnyTree::build) and the
/// indexes on top of it) dispatches on this knob; the CLI exposes it as
/// `--backend paged|packed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The paper's R*-tree over a paged store with an LRU buffer (the
    /// faithful reproduction; supports insert/delete; IO stats count
    /// page accesses).
    #[default]
    Paged,
    /// Flatbush-style packed static tree in one contiguous buffer
    /// (zero locks, zero deserialization; rebuilt on update; IO stats
    /// count node visits).
    Packed,
}

impl Backend {
    /// `"paged"` or `"packed"` — the tag used by the CLI and benches.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Paged => "paged",
            Backend::Packed => "packed",
        }
    }

    /// Parses a CLI tag (the inverse of [`Backend::name`]).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "paged" => Some(Backend::Paged),
            "packed" => Some(Backend::Packed),
            _ => None,
        }
    }
}

/// Configuration of an [`RTree`](crate::RTree).
///
/// The defaults reproduce the experimental setup of the paper (§7):
/// 4 KiB pages with 20-byte entries (four 32-bit coordinates plus a 32-bit
/// pointer) give a node capacity of 204; the LRU buffer holds 10 % of the
/// tree's pages; R* parameters follow \[BKSS90\] (40 % minimum fill, 30 %
/// forced reinsertion).
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Simulated page size in bytes (cost model only).
    pub page_size: usize,
    /// Simulated bytes per entry (cost model only).
    pub entry_bytes: usize,
    /// Simulated page-header bytes (cost model only).
    pub header_bytes: usize,
    /// Maximum entries per node. When `None`, derived from the byte
    /// parameters as `(page_size - header_bytes) / entry_bytes`.
    pub capacity_override: Option<usize>,
    /// Minimum fill ratio of non-root nodes (R*: 0.4).
    pub min_fill_ratio: f64,
    /// Fraction of entries removed by forced reinsertion (R*: 0.3).
    pub reinsert_ratio: f64,
    /// LRU buffer size as a fraction of the tree's page count (paper: 0.1).
    pub buffer_ratio: f64,
    /// Lower bound on the buffer size in pages.
    pub min_buffer_pages: usize,
    /// Storage backend trees built from this config use. The paged
    /// fields above (page/buffer geometry, R* parameters) only apply to
    /// [`Backend::Paged`]; [`Backend::Packed`] uses
    /// [`RTreeConfig::packed_node_size`].
    pub backend: Backend,
    /// Fan-out of the packed backend (entries per packed node). The
    /// flatbush-lineage default of 16 balances pruning granularity
    /// against per-node scan cost for in-memory search; the paged
    /// capacity (204) models a 4 KiB disk page instead. A build clamps it
    /// to `2..=u16::MAX`: the `OPKD` image header stores it in 16 bits.
    pub packed_node_size: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            page_size: 4096,
            entry_bytes: 20,
            header_bytes: 16,
            capacity_override: None,
            min_fill_ratio: 0.4,
            reinsert_ratio: 0.3,
            buffer_ratio: 0.1,
            min_buffer_pages: 1,
            backend: Backend::Paged,
            packed_node_size: 16,
        }
    }
}

impl RTreeConfig {
    /// The paper's configuration (this is also `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A tiny-node configuration, useful in tests to force deep trees and
    /// many splits with few items.
    pub fn tiny(capacity: usize) -> Self {
        RTreeConfig {
            capacity_override: Some(capacity),
            ..Self::default()
        }
    }

    /// Maximum number of entries per node.
    pub fn capacity(&self) -> usize {
        let cap = self
            .capacity_override
            .unwrap_or((self.page_size.saturating_sub(self.header_bytes)) / self.entry_bytes);
        cap.max(2)
    }

    /// Minimum number of entries per non-root node.
    pub fn min_fill(&self) -> usize {
        ((self.capacity() as f64 * self.min_fill_ratio).floor() as usize)
            .clamp(1, self.capacity() / 2)
    }

    /// Number of entries removed by one forced reinsertion.
    pub fn reinsert_count(&self) -> usize {
        ((self.capacity() as f64 * self.reinsert_ratio).floor() as usize).max(1)
    }

    /// Buffer size in pages for a tree currently occupying `pages` pages.
    pub fn buffer_pages(&self, pages: usize) -> usize {
        (((pages as f64) * self.buffer_ratio).ceil() as usize).max(self.min_buffer_pages)
    }

    /// This configuration targeting `backend`.
    pub fn with_backend(self, backend: Backend) -> Self {
        RTreeConfig { backend, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_give_capacity_204() {
        let c = RTreeConfig::default();
        assert_eq!(c.capacity(), 204);
        assert_eq!(c.min_fill(), 81);
        assert_eq!(c.reinsert_count(), 61);
    }

    #[test]
    fn tiny_override() {
        let c = RTreeConfig::tiny(4);
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.min_fill(), 1);
        assert_eq!(c.reinsert_count(), 1);
    }

    #[test]
    fn buffer_sizing() {
        let c = RTreeConfig::default();
        assert_eq!(c.buffer_pages(100), 10);
        assert_eq!(c.buffer_pages(5), 1);
        assert_eq!(c.buffer_pages(0), 1);
        assert_eq!(c.buffer_pages(1001), 101);
    }

    #[test]
    fn capacity_is_at_least_two() {
        let c = RTreeConfig::tiny(1);
        assert_eq!(c.capacity(), 2);
    }
}

//! Packed static R-tree backend: an [`obstacle_geom::PackedIndex`] with
//! the tree surface, a visit counter and an `OPKD` byte image.
//!
//! The layout, the Hilbert pack, the one stack descent and the structural
//! validation all live in [`PackedIndex`], which the lazy visibility scene
//! shares; this module adds what makes it a [`TreeBackend`](crate::TreeBackend):
//!
//! * queries are plain slice reads — no page buffer and no `Mutex` to
//!   acquire, so concurrent batch workers share nothing but immutable
//!   memory and a relaxed visit counter;
//! * [`PackedRTree::to_bytes`] is a header plus the raw words, and
//!   [`PackedRTree::from_bytes`] is a header check, one word copy and
//!   [`PackedIndex::from_words`]'s validation — no per-node decode, and no
//!   image that could index out of bounds at query time is ever handed
//!   out. The header stores the fan-out in 16 bits, so
//!   [`PackedRTree::build`] clamps it to `2..=u16::MAX`.
//!
//! The trade: the structure is static. There is no insert/delete here;
//! [`AnyTree`](crate::AnyTree) rebuilds the pack on update, which is the
//! right cost model for the effectively immutable per-scene obstacle and
//! entity sets this backend targets. The paged [`RTree`](crate::RTree)
//! remains the faithful reproduction of the paper's disk simulation.
//!
//! ## Cost model
//!
//! There are no page accesses to count, so [`PackedRTree::io_stats`]
//! reports **node visits** instead: every visited node adds one
//! `buffer_hit` (a "free" access in [`IoStats`] terms — `fetches()` is
//! then the visit count and `reads` stays honestly zero). Per-query
//! [`IoSnapshot`] windows work exactly as on the paged backend.

use crate::codec::{Buf, BufMut, Bytes, BytesMut};
use crate::config::{Backend, RTreeConfig};
use crate::entry::{Entry, Item};
use crate::persist::PersistError;
use crate::stats::{LevelStats, TreeStats};
use crate::store::{record_access, IoSnapshot, IoStats};
use obstacle_geom::{PackedIndex, Point, Rect};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes of a packed-tree image (`AnyTree::from_bytes` sniffs this
/// against the paged `ORTR` magic).
pub(crate) const PACKED_MAGIC: &[u8; 4] = b"OPKD";
const VERSION: u16 = 1;

/// A packed static R-tree over point/rectangle items.
///
/// Built once by Hilbert sort ([`PackedRTree::build`]); answers the same
/// query surface as the paged tree via [`TreeBackend`](crate::TreeBackend).
/// All query state is immutable borrowed memory — the only mutation on the
/// read path is a relaxed atomic visit counter, so `&PackedRTree` is
/// freely shared across batch worker threads without any lock.
#[derive(Debug)]
pub struct PackedRTree {
    config: RTreeConfig,
    /// The pack itself; its word buffer is serialized verbatim.
    index: PackedIndex,
    /// Relaxed count of nodes visited by queries (the packed cost model).
    visits: AtomicU64,
    /// How many times this pack has been rebuilt by `AnyTree` updates
    /// (0 for a fresh build or a deserialized image — the counter is a
    /// cost observable, not part of the tree, and is not persisted).
    /// `AnyTree::apply_edits` is asserted to bump it exactly once per
    /// edit batch.
    pub(crate) generation: u64,
}

impl PackedRTree {
    /// Packs `items` into a static tree with the fan-out
    /// `config.packed_node_size`, clamped to `2..=u16::MAX` (the image
    /// header's field width). Items are sorted by the Hilbert index of
    /// their MBR center over the item universe, then each level is packed
    /// left to right.
    pub fn build(config: RTreeConfig, items: impl IntoIterator<Item = Item>) -> Self {
        let node_size = config.packed_node_size.clamp(2, u16::MAX as usize);
        let index = PackedIndex::pack(node_size, items.into_iter().map(|i| (i.mbr, i.id)));
        PackedRTree::with_index(config, index)
    }

    fn with_index(config: RTreeConfig, index: PackedIndex) -> Self {
        PackedRTree {
            config,
            index,
            visits: AtomicU64::new(0),
            generation: 0,
        }
    }

    // -----------------------------------------------------------------
    // Shape accessors
    // -----------------------------------------------------------------

    /// Number of items.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The configuration the pack was built with.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Fan-out of the pack.
    pub fn node_size(&self) -> usize {
        self.index.node_size()
    }

    /// How many times this pack has been rebuilt by `AnyTree` updates
    /// since it was first built or deserialized. A batch of k edits
    /// applied through [`AnyTree::apply_edits`](crate::AnyTree::apply_edits)
    /// costs exactly one rebuild (generation +1); k single-item
    /// `insert`/`delete` calls cost k.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of tree nodes (slots above the item level) — the packed
    /// analogue of the paged tree's page count.
    pub fn num_nodes(&self) -> usize {
        self.index.num_nodes()
    }

    /// Height in node levels (1 = a single root over the items; 0 only
    /// for an empty tree).
    pub fn height(&self) -> u32 {
        self.index.height() as u32
    }

    /// MBR of the whole tree (empty rect when the tree is empty).
    pub fn root_mbr(&self) -> Rect {
        self.index.bounds()
    }

    // -----------------------------------------------------------------
    // Accounting — node visits, lock-free
    // -----------------------------------------------------------------

    fn record_visits(&self, n: usize) {
        self.visits.fetch_add(n as u64, Ordering::Relaxed);
        for _ in 0..n {
            record_access(self as *const PackedRTree as usize, true);
        }
    }

    /// Cumulative node visits, in [`IoStats`] form: visits are reported
    /// as `buffer_hits` (free accesses — there is no page IO), so
    /// `fetches()` is the visit count and `reads` is always 0.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            reads: 0,
            buffer_hits: self.visits.load(Ordering::Relaxed),
            writes: 0,
        }
    }

    /// Zeroes the visit counter.
    pub fn reset_io_stats(&self) {
        self.visits.store(0, Ordering::Relaxed);
    }

    /// Opens a per-query attribution window over this tree's node visits
    /// (same mechanism as the paged backend's page-access windows).
    pub fn io_snapshot(&self) -> IoSnapshot<'_> {
        IoSnapshot::open(self as *const PackedRTree as usize)
    }

    // -----------------------------------------------------------------
    // Queries (the TreeBackend surface, as inherent methods)
    // -----------------------------------------------------------------

    /// All items whose MBR intersects `window`.
    pub fn range_rect(&self, window: &Rect) -> Vec<Item> {
        let mut out = Vec::new();
        self.visit(
            |r| r.intersects(window).then_some(()),
            |item, ()| out.push(item),
        );
        out
    }

    /// All items whose MBR lies within Euclidean distance `radius` of
    /// `center`.
    pub fn range_circle(&self, center: Point, radius: f64) -> Vec<Item> {
        let r_sq = radius * radius;
        let mut out = Vec::new();
        self.visit(
            |r| (r.mindist_point_sq(center) <= r_sq).then_some(()),
            |item, ()| out.push(item),
        );
        out
    }

    /// Generic pruned range search with per-item bound values; see
    /// [`RTree::range_by_bound`](crate::RTree::range_by_bound) for the
    /// monotonicity contract.
    pub fn range_by_bound(&self, bound: impl Fn(&Rect) -> f64, threshold: f64) -> Vec<(Item, f64)> {
        let mut out = Vec::new();
        self.visit(
            |r| Some(bound(r)).filter(|&b| b <= threshold),
            |item, b| out.push((item, b)),
        );
        out
    }

    /// [`PackedIndex::search`] over every item, its visits counted.
    fn visit<T>(&self, keep: impl Fn(&Rect) -> Option<T>, mut emit: impl FnMut(Item, T)) {
        let visits = self.index.search(keep, |id, mbr, kept| {
            emit(Item::new(mbr, id), kept);
            false
        });
        self.record_visits(visits);
    }

    /// Every item, in storage (Hilbert) order; counts one visit per leaf
    /// node scanned.
    pub fn items(&self) -> Vec<Item> {
        if !self.is_empty() {
            // The packed analogue of the paged full scan's page fetches.
            self.record_visits(self.index.level_slots(1).len());
        }
        self.items_uncounted()
    }

    /// Every item without touching the visit counter (rebuild support,
    /// diagnostics).
    pub fn items_uncounted(&self) -> Vec<Item> {
        self.index
            .level_slots(0)
            .map(|slot| Item::new(self.index.slot_box(slot), self.index.slot_id(slot)))
            .collect()
    }

    // -----------------------------------------------------------------
    // Structure statistics and validation
    // -----------------------------------------------------------------

    /// Per-level structural statistics (leaf nodes = level 0), matching
    /// the paged [`RTree::stats`](crate::RTree::stats) conventions.
    pub fn stats(&self) -> TreeStats {
        let mut stats = TreeStats {
            levels: vec![LevelStats::default(); self.index.height()],
        };
        for (s, level) in stats.levels.iter_mut().zip(1..) {
            let slots = self.index.level_slots(level);
            s.nodes = slots.len();
            let mut mbrs = Vec::with_capacity(slots.len());
            for slot in slots {
                s.entries += self.index.children(slot).len();
                let mbr = self.index.slot_box(slot);
                s.area += mbr.area();
                mbrs.push(mbr);
            }
            for (i, a) in mbrs.iter().enumerate() {
                for b in &mbrs[i + 1..] {
                    s.overlap += a.intersection_area(b);
                }
            }
        }
        stats
    }

    /// Deep structural check of the pack ([`PackedIndex::validate`]):
    /// called on every decoded image before [`PackedRTree::from_bytes`]
    /// returns it, and via `debug_assert!` after every build and every
    /// `AnyTree::apply_edits` re-pack.
    pub fn validate(&self) -> Result<(), String> {
        self.index.validate()
    }

    // -----------------------------------------------------------------
    // Persistence — header + the raw word buffer
    // -----------------------------------------------------------------

    /// Serializes the pack: a small header followed by the word buffer
    /// verbatim (no per-node encoding — the buffer *is* the tree).
    pub fn to_bytes(&self) -> Bytes {
        let words = self.index.words();
        let mut buf = BytesMut::with_capacity(32 + words.len() * 8);
        buf.put_slice(PACKED_MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(self.index.node_size() as u16);
        buf.put_u64_le(self.index.len() as u64);
        buf.put_u64_le(words.len() as u64);
        for w in words {
            buf.put_u64_le(*w);
        }
        buf.freeze()
    }

    /// Decodes an image produced by [`PackedRTree::to_bytes`]: header
    /// check, length check, one bulk copy of the word buffer (taken
    /// as-is, so the round trip is bit-exact and costs no per-node
    /// rebuild), then [`PackedIndex::from_words`] — the bytes come from
    /// outside, and every query indexes the buffer by what they say. The
    /// level layout is recomputed from `(num_items, node_size)`; the
    /// decoded tree carries a default config tagged with the packed
    /// backend and the stored fan-out.
    pub fn from_bytes(mut data: &[u8]) -> Result<PackedRTree, PersistError> {
        if data.remaining() < 4 {
            return Err(PersistError::Truncated);
        }
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != PACKED_MAGIC {
            return Err(PersistError::BadMagic);
        }
        if data.remaining() < 2 + 2 + 8 + 8 {
            return Err(PersistError::Truncated);
        }
        let version = data.get_u16_le();
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        let node_size = data.get_u16_le() as usize;
        let header_len = |v: u64| usize::try_from(v).map_err(|_| PersistError::Truncated);
        let num_items = header_len(data.get_u64_le())?;
        let word_count = header_len(data.get_u64_le())?;
        let byte_len = word_count.checked_mul(8).ok_or(PersistError::Truncated)?;
        if data.remaining() < byte_len {
            return Err(PersistError::Truncated);
        }
        let words: Box<[u64]> = data[..byte_len]
            .chunks_exact(8)
            .map(|mut w| w.get_u64_le())
            .collect();
        let index =
            PackedIndex::from_words(num_items, node_size, words).map_err(PersistError::Corrupt)?;
        let config = RTreeConfig {
            backend: Backend::Packed,
            packed_node_size: node_size,
            ..RTreeConfig::paper()
        };
        Ok(PackedRTree::with_index(config, index))
    }

    /// Writes the byte image to a file.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a packed-tree image from a file.
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<PackedRTree, PersistError> {
        let data = std::fs::read(path)?;
        PackedRTree::from_bytes(&data)
    }
}

impl crate::backend::TreeBackend for PackedRTree {
    fn len(&self) -> usize {
        PackedRTree::len(self)
    }

    fn root_mbr(&self) -> Rect {
        PackedRTree::root_mbr(self)
    }

    fn root_node(&self) -> Option<u64> {
        self.index.root().map(|slot| slot as u64)
    }

    /// Derived from the slot index alone — free, unlike the paged
    /// backend where it costs a fetch.
    fn node_level(&self, node: u64) -> u32 {
        (self.index.level_of(node as usize) - 1) as u32
    }

    fn read_node_into(&self, node: u64, out: &mut Vec<Entry>) -> u32 {
        out.clear();
        self.record_visits(1);
        let slot = node as usize;
        let level = self.index.level_of(slot);
        for c in self.index.children(slot) {
            let ptr = if level == 1 {
                self.index.slot_id(c)
            } else {
                c as u64
            };
            out.push(Entry::new(self.index.slot_box(c), ptr));
        }
        (level - 1) as u32
    }

    fn range_rect(&self, window: &Rect) -> Vec<Item> {
        PackedRTree::range_rect(self, window)
    }

    fn range_circle(&self, center: Point, radius: f64) -> Vec<Item> {
        PackedRTree::range_circle(self, center, radius)
    }

    fn range_by_bound(&self, bound: &dyn Fn(&Rect) -> f64, threshold: f64) -> Vec<(Item, f64)> {
        PackedRTree::range_by_bound(self, bound, threshold)
    }

    fn items(&self) -> Vec<Item> {
        PackedRTree::items(self)
    }

    fn io_stats(&self) -> IoStats {
        PackedRTree::io_stats(self)
    }

    fn reset_io_stats(&self) {
        PackedRTree::reset_io_stats(self)
    }

    fn io_snapshot(&self) -> IoSnapshot<'_> {
        PackedRTree::io_snapshot(self)
    }

    fn reset_buffer(&self) {
        // Nothing is cached: the buffer-free read path is the point.
    }

    fn backend_name(&self) -> &'static str {
        "packed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTree;

    fn packed_config(node_size: usize) -> RTreeConfig {
        RTreeConfig {
            backend: Backend::Packed,
            packed_node_size: node_size,
            ..RTreeConfig::paper()
        }
    }

    fn sample_items(n: usize) -> Vec<Item> {
        (0..n as u64)
            .map(|i| {
                Item::point(
                    Point::new((i % 37) as f64 * 0.113, (i % 29) as f64 * 0.177),
                    i,
                )
            })
            .collect()
    }

    fn sorted_ids(items: Vec<Item>) -> Vec<u64> {
        let mut ids: Vec<u64> = items.into_iter().map(|i| i.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn shape_of_small_packs() {
        let t = PackedRTree::build(packed_config(4), sample_items(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_nodes(), 1);

        let t = PackedRTree::build(packed_config(4), sample_items(4));
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_nodes(), 1);

        let t = PackedRTree::build(packed_config(4), sample_items(17));
        // 17 items → 5 leaves → 2 mid → 1 root.
        assert_eq!(t.height(), 3);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(sorted_ids(t.items_uncounted()), (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn empty_pack_answers_empty() {
        let t = PackedRTree::build(packed_config(8), Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.root_mbr().is_empty());
        assert!(t
            .range_rect(&Rect::from_coords(-1.0, -1.0, 1.0, 1.0))
            .is_empty());
        assert!(t.range_circle(Point::new(0.0, 0.0), 10.0).is_empty());
        assert!(t.items().is_empty());
        assert!(t.nearest(Point::new(0.0, 0.0)).next().is_none());
    }

    #[test]
    fn range_queries_match_paged_tree() {
        let items = sample_items(500);
        let paged = RTree::bulk_load_str(RTreeConfig::tiny(8), items.clone());
        let packed = PackedRTree::build(packed_config(8), items);
        let windows = [
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            Rect::from_coords(1.0, 2.0, 3.0, 4.5),
            Rect::from_coords(-5.0, -5.0, 50.0, 50.0),
            Rect::from_coords(2.0, 2.0, 2.0, 2.0),
        ];
        for w in &windows {
            assert_eq!(
                sorted_ids(paged.range_rect(w)),
                sorted_ids(packed.range_rect(w)),
                "window {w:?}"
            );
        }
        for (c, r) in [
            (Point::new(1.0, 1.0), 0.7),
            (Point::new(2.5, 3.0), 1.3),
            (Point::new(0.0, 0.0), 100.0),
            (Point::new(-3.0, -3.0), 0.5),
        ] {
            assert_eq!(
                sorted_ids(paged.range_circle(c, r)),
                sorted_ids(packed.range_circle(c, r)),
            );
        }
    }

    #[test]
    fn scored_bound_search_matches_and_scores_are_exact() {
        let items = sample_items(300);
        let packed = PackedRTree::build(packed_config(16), items);
        let q = Point::new(1.7, 2.2);
        let got = PackedRTree::range_by_bound(&packed, |r| r.mindist_point(q), 1.5);
        for (item, score) in &got {
            assert_eq!(
                *score,
                item.mbr.mindist_point(q),
                "hoisted score is the bound value"
            );
            assert!(*score <= 1.5);
        }
        assert_eq!(
            sorted_ids(got.into_iter().map(|(i, _)| i).collect()),
            sorted_ids(packed.range_circle(q, 1.5)),
        );
    }

    #[test]
    fn nearest_iteration_matches_paged() {
        let items = sample_items(400);
        let paged = RTree::bulk_load_str(RTreeConfig::tiny(8), items.clone());
        let packed = PackedRTree::build(packed_config(8), items);
        let q = Point::new(2.05, 1.95);
        let a: Vec<(u64, u64)> = paged
            .k_nearest(q, 40)
            .into_iter()
            .map(|(i, d)| (i.id, d.to_bits()))
            .collect();
        let b: Vec<(u64, u64)> = packed
            .nearest(q)
            .take(40)
            .map(|(i, d)| (i.id, d.to_bits()))
            .collect();
        // Distances must agree bit-exactly; id order can differ on exact
        // ties, so compare (id, distance) sets.
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn visits_are_counted_and_windowed() {
        let packed = PackedRTree::build(packed_config(4), sample_items(200));
        packed.reset_io_stats();
        let snap = packed.io_snapshot();
        let hits = packed.range_circle(Point::new(1.0, 1.0), 1.0);
        assert!(!hits.is_empty());
        let io = snap.finish();
        assert_eq!(io.reads, 0, "packed has no page IO");
        assert!(io.buffer_hits > 0, "node visits are recorded");
        assert_eq!(io.fetches(), packed.io_stats().fetches());
        // Visits stay bounded by the node count per traversal.
        assert!(io.fetches() <= packed.num_nodes() as u64);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let packed = PackedRTree::build(packed_config(8), sample_items(321));
        let img = packed.to_bytes();
        let back = PackedRTree::from_bytes(&img).unwrap();
        assert_eq!(back.len(), packed.len());
        assert_eq!(back.height(), packed.height());
        assert_eq!(back.index.words(), packed.index.words());
        let w = Rect::from_coords(0.5, 0.5, 3.0, 3.0);
        assert_eq!(
            sorted_ids(back.range_rect(&w)),
            sorted_ids(packed.range_rect(&w))
        );
        // And the re-serialized image is identical.
        assert_eq!(&*back.to_bytes(), &*img);
    }

    #[test]
    fn rejects_garbage_images() {
        assert!(matches!(
            PackedRTree::from_bytes(b"nope"),
            Err(PersistError::BadMagic) | Err(PersistError::Truncated)
        ));
        assert!(matches!(
            PackedRTree::from_bytes(b"OPKD\xff\xff"),
            Err(PersistError::BadVersion(_)) | Err(PersistError::Truncated)
        ));
        let img = PackedRTree::build(packed_config(8), sample_items(64)).to_bytes();
        assert!(matches!(
            PackedRTree::from_bytes(&img[..img.len() / 2]),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn stats_mirror_paged_conventions() {
        let packed = PackedRTree::build(packed_config(4), sample_items(100));
        let s = packed.stats();
        assert_eq!(s.levels.len(), packed.height() as usize);
        assert_eq!(s.total_nodes(), packed.num_nodes());
        assert_eq!(s.leaves().entries, 100);
        for lvl in 1..s.levels.len() {
            assert_eq!(s.levels[lvl].entries, s.levels[lvl - 1].nodes);
        }
        // Hilbert packing fills every node except possibly the last per
        // level, so occupancy is near 1.
        assert!(s.leaves().occupancy(4) > 0.9);
    }

    #[test]
    fn validate_accepts_fresh_and_roundtripped_packs() {
        for n in [0usize, 1, 4, 17, 321] {
            let t = PackedRTree::build(packed_config(4), sample_items(n));
            assert_eq!(t.validate(), Ok(()), "fresh pack of {n} items");
            let back = PackedRTree::from_bytes(&t.to_bytes()).unwrap();
            assert_eq!(back.validate(), Ok(()), "roundtripped pack of {n} items");
        }
    }

    #[test]
    fn fan_outs_past_the_header_width_clamp_and_round_trip() {
        let items = sample_items(5_000);
        let w = Rect::from_coords(0.5, 0.5, 3.0, 3.0);
        for fan_out in [65_535, 65_536, 70_000] {
            let t = PackedRTree::build(packed_config(fan_out), items.clone());
            assert_eq!(t.node_size(), u16::MAX as usize, "fan-out {fan_out}");
            let back = PackedRTree::from_bytes(&t.to_bytes())
                .unwrap_or_else(|e| panic!("fan-out {fan_out}: {e}"));
            assert_eq!(back.node_size(), t.node_size(), "fan-out {fan_out}");
            assert_eq!(
                sorted_ids(back.range_rect(&w)),
                sorted_ids(t.range_rect(&w)),
                "fan-out {fan_out}"
            );
        }
    }
}

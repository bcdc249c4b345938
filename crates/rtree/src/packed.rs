//! Packed static R-tree: one contiguous buffer, zero locks, zero
//! deserialization.
//!
//! A flatbush-style layout (Kleppmann/Agafonkin lineage; see the
//! `geo-index` excerpts in `SNIPPETS.md`): every slot is four `f64` box
//! words plus one index word, items first in Hilbert order, then each
//! tree level packed bottom-up, root last. Because the whole tree is a
//! single word buffer:
//!
//! * queries are plain slice reads — no page buffer and no `Mutex` to
//!   acquire, so concurrent batch workers share nothing but immutable
//!   memory and a relaxed visit counter;
//! * [`PackedRTree::to_bytes`] is a header plus the raw words, and
//!   [`PackedRTree::from_bytes`] is a header check, one word copy and
//!   [`PackedRTree::validate`] — no per-node decode, and no image that
//!   could index out of bounds at query time is ever handed out.
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
use obstacle_geom::{hilbert_index_unit, Point, Rect};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes of a packed-tree image (`AnyTree::from_bytes` sniffs this
/// against the paged `ORTR` magic).
pub(crate) const PACKED_MAGIC: &[u8; 4] = b"OPKD";
const VERSION: u16 = 1;

/// Words per slot in the box region (min.x, min.y, max.x, max.y).
const BOX_WORDS: usize = 4;

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
    /// The single contiguous buffer: `BOX_WORDS * slots` box words (f64
    /// bit patterns) followed by `slots` index words. Serialized verbatim.
    words: Box<[u64]>,
    /// Items in the tree (slots `0..num_items` of the buffer).
    num_items: usize,
    /// Fan-out of the pack.
    node_size: usize,
    /// Exclusive end slot of each level, items (level 0) first; the last
    /// entry is the total slot count and `level_ends.len() - 1` is the
    /// number of *tree node* levels.
    level_ends: Box<[usize]>,
    /// Relaxed count of nodes visited by queries (the packed cost model).
    visits: AtomicU64,
    /// How many times this pack has been rebuilt by `AnyTree` updates
    /// (0 for a fresh build or a deserialized image — the counter is a
    /// cost observable, not part of the tree, and is not persisted).
    /// `AnyTree::apply_edits` is asserted to bump it exactly once per
    /// edit batch.
    pub(crate) generation: u64,
}

/// The level layout of a pack of `num_items` items at fan-out
/// `node_size` — the exclusive end slot of each level: items first, then
/// each node level (`ceil(below / node_size)` wide) up to a single root.
/// `num_items = 0` has no node level at all; `num_items ≥ 1` always gets
/// at least one, so the root is a real node even over a single item.
///
/// This is the one place the layout is computed — `build`, `validate` and
/// `from_bytes` all derive it from the two header values — and it is
/// checked: `None` for a fan-out below 2 or a slot total whose word
/// buffer would not fit `usize` (both reachable from image bytes).
fn level_layout(num_items: usize, node_size: usize) -> Option<Box<[usize]>> {
    if node_size < 2 {
        return None;
    }
    let mut ends = vec![num_items];
    let (mut width, mut total) = (num_items, num_items);
    while width > 0 {
        width = width.div_ceil(node_size);
        total = total.checked_add(width)?;
        ends.push(total);
        if width == 1 {
            break;
        }
    }
    total.checked_mul(BOX_WORDS + 1)?;
    Some(ends.into_boxed_slice())
}

impl PackedRTree {
    /// Packs `items` into a static tree with the fan-out
    /// `config.packed_node_size` (clamped to at least 2). Items are
    /// sorted by the Hilbert index of their MBR center over the item
    /// universe, then each level is packed left to right.
    pub fn build(config: RTreeConfig, items: impl IntoIterator<Item = Item>) -> Self {
        let mut items: Vec<Item> = items.into_iter().collect();
        let node_size = config.packed_node_size.max(2);
        let n = items.len();

        let universe = items.iter().fold(Rect::empty(), |u, i| u.union(&i.mbr));
        items.sort_by_key(|i| hilbert_index_unit(i.center(), &universe));

        // Build time, not a read path: the fan-out is clamped above and the
        // `n` items are in memory, so their slot count cannot overflow.
        // lint:allow(no-unwrap-hot-path): see above
        let level_ends = level_layout(n, node_size).expect("pack layout overflows usize");
        let total = level_ends[level_ends.len() - 1];

        let mut words = vec![0u64; total * (BOX_WORDS + 1)].into_boxed_slice();
        let index_base = total * BOX_WORDS;
        let write_box = |words: &mut [u64], slot: usize, r: &Rect| {
            let w = slot * BOX_WORDS;
            words[w] = r.min.x.to_bits();
            words[w + 1] = r.min.y.to_bits();
            words[w + 2] = r.max.x.to_bits();
            words[w + 3] = r.max.y.to_bits();
        };

        // Item slots, in Hilbert order.
        for (slot, item) in items.iter().enumerate() {
            write_box(&mut words, slot, &item.mbr);
            words[index_base + slot] = item.id;
        }

        // Pack each node level over the one below it.
        let mut child_start = 0usize;
        for level in 1..level_ends.len() {
            let child_end = level_ends[level - 1];
            let mut slot = child_end;
            let mut child = child_start;
            while child < child_end {
                let first = child;
                let last = (first + node_size).min(child_end);
                let mut mbr = Rect::empty();
                for c in first..last {
                    let w = c * BOX_WORDS;
                    mbr = mbr.union(&Rect::from_coords(
                        f64::from_bits(words[w]),
                        f64::from_bits(words[w + 1]),
                        f64::from_bits(words[w + 2]),
                        f64::from_bits(words[w + 3]),
                    ));
                }
                write_box(&mut words, slot, &mbr);
                words[index_base + slot] = first as u64;
                slot += 1;
                child = last;
            }
            debug_assert_eq!(slot, level_ends[level]);
            child_start = child_end;
        }

        let tree = PackedRTree {
            config,
            words,
            num_items: n,
            node_size,
            level_ends,
            visits: AtomicU64::new(0),
            generation: 0,
        };
        debug_assert_eq!(tree.validate(), Ok(()), "freshly packed tree must validate");
        tree
    }

    // -----------------------------------------------------------------
    // Shape accessors
    // -----------------------------------------------------------------

    /// Number of items.
    pub fn len(&self) -> usize {
        self.num_items
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// The configuration the pack was built with.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Fan-out of the pack.
    pub fn node_size(&self) -> usize {
        self.node_size
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
        self.total_slots() - self.num_items
    }

    /// Height in node levels (1 = a single root over the items; 0 only
    /// for an empty tree).
    pub fn height(&self) -> u32 {
        (self.level_ends.len() - 1) as u32
    }

    fn total_slots(&self) -> usize {
        self.words.len() / (BOX_WORDS + 1)
    }

    fn root_slot(&self) -> Option<usize> {
        (self.num_items > 0).then(|| self.total_slots() - 1)
    }

    fn slot_box(&self, slot: usize) -> Rect {
        let w = slot * BOX_WORDS;
        Rect::from_coords(
            f64::from_bits(self.words[w]),
            f64::from_bits(self.words[w + 1]),
            f64::from_bits(self.words[w + 2]),
            f64::from_bits(self.words[w + 3]),
        )
    }

    fn slot_index(&self, slot: usize) -> u64 {
        self.words[self.total_slots() * BOX_WORDS + slot]
    }

    /// Level of a slot: 0 for item slots, `k ≥ 1` for node slots. The
    /// *trait* level of a node slot is `slot_level - 1` (a node whose
    /// children are items is a leaf, level 0), matching the paged tree.
    fn slot_level(&self, slot: usize) -> usize {
        self.level_ends.partition_point(|&end| end <= slot)
    }

    /// Child slot range of the node at `slot`.
    fn children_of(&self, slot: usize) -> std::ops::Range<usize> {
        let level = self.slot_level(slot);
        debug_assert!(level >= 1, "items have no children");
        let first = self.slot_index(slot) as usize;
        let child_end = self.level_ends[level - 1];
        first..(first + self.node_size).min(child_end)
    }

    /// MBR of the whole tree (empty rect when the tree is empty).
    pub fn root_mbr(&self) -> Rect {
        match self.root_slot() {
            Some(s) => self.slot_box(s),
            None => Rect::empty(),
        }
    }

    // -----------------------------------------------------------------
    // Accounting — node visits, lock-free
    // -----------------------------------------------------------------

    fn record_visit(&self) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        record_access(self as *const PackedRTree as usize, true);
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
        self.search(
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
        self.search(
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
        self.search(
            |r| Some(bound(r)).filter(|&b| b <= threshold),
            |item, b| out.push((item, b)),
        );
        out
    }

    /// The one stack descent behind the range queries: visits each node
    /// whose box `keep` accepts and emits each accepted item together
    /// with what `keep` returned for it (`keep` runs once per box).
    fn search<T>(&self, keep: impl Fn(&Rect) -> Option<T>, mut emit: impl FnMut(Item, T)) {
        let Some(root) = self.root_slot() else {
            return;
        };
        let mut stack = vec![root];
        while let Some(slot) = stack.pop() {
            self.record_visit();
            let leaf = self.slot_level(slot) == 1;
            for c in self.children_of(slot) {
                let mbr = self.slot_box(c);
                if let Some(kept) = keep(&mbr) {
                    if leaf {
                        emit(Item::new(mbr, self.slot_index(c)), kept);
                    } else {
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// Every item, in storage (Hilbert) order; counts one visit per leaf
    /// node scanned.
    pub fn items(&self) -> Vec<Item> {
        if self.num_items == 0 {
            return Vec::new();
        }
        for _ in self.num_items..self.level_ends[1] {
            // One visit per leaf-level node: the packed analogue of the
            // paged full scan's page fetches. (Range is leaf node count.)
            self.record_visit();
        }
        self.items_uncounted()
    }

    /// Every item without touching the visit counter (rebuild support,
    /// diagnostics).
    pub fn items_uncounted(&self) -> Vec<Item> {
        (0..self.num_items)
            .map(|slot| Item::new(self.slot_box(slot), self.slot_index(slot)))
            .collect()
    }

    // -----------------------------------------------------------------
    // TreeBackend node protocol
    // -----------------------------------------------------------------

    pub(crate) fn root_node_ref(&self) -> Option<u64> {
        self.root_slot().map(|s| s as u64)
    }

    /// Trait level of node `slot` (0 = leaf). Derived from the slot index
    /// alone — free, unlike the paged backend where it costs a fetch.
    pub(crate) fn node_ref_level(&self, slot: u64) -> u32 {
        (self.slot_level(slot as usize) - 1) as u32
    }

    pub(crate) fn read_node_ref(&self, slot: u64, out: &mut Vec<Entry>) -> u32 {
        out.clear();
        self.record_visit();
        let slot = slot as usize;
        let leaf = self.slot_level(slot) == 1;
        for c in self.children_of(slot) {
            let ptr = if leaf { self.slot_index(c) } else { c as u64 };
            out.push(Entry::new(self.slot_box(c), ptr));
        }
        (self.slot_level(slot) - 1) as u32
    }

    // -----------------------------------------------------------------
    // Structure statistics
    // -----------------------------------------------------------------

    /// Per-level structural statistics (leaf nodes = level 0), matching
    /// the paged [`RTree::stats`](crate::RTree::stats) conventions.
    pub fn stats(&self) -> TreeStats {
        let node_levels = self.level_ends.len() - 1;
        let mut stats = TreeStats {
            levels: vec![LevelStats::default(); node_levels],
        };
        for lvl in 1..self.level_ends.len() {
            let slots = self.level_ends[lvl - 1]..self.level_ends[lvl];
            let s = &mut stats.levels[lvl - 1];
            s.nodes = slots.len();
            let mut mbrs = Vec::with_capacity(slots.len());
            for slot in slots {
                s.entries += self.children_of(slot).len();
                let mbr = self.slot_box(slot);
                s.area += mbr.area();
                mbrs.push(mbr);
            }
            for i in 0..mbrs.len() {
                for j in (i + 1)..mbrs.len() {
                    s.overlap += mbrs[i].intersection_area(&mbrs[j]);
                }
            }
        }
        stats
    }

    // -----------------------------------------------------------------
    // Structural validation
    // -----------------------------------------------------------------

    /// Deep structural check of the packed image. Verifies, in order:
    ///
    /// * **header sanity** — fan-out ≥ 2, the level layout matches a
    ///   recomputation from `(num_items, node_size)` (so each node level
    ///   is `ceil(below / node_size)` wide, shrinking to a single root),
    ///   and the word buffer has exactly `slots × (BOX_WORDS + 1)` words;
    /// * **item boxes** — every item MBR is finite and non-inverted;
    /// * **child coverage and index bounds** — each node's child pointer
    ///   lands exactly where the left-to-right pack put it, ranges tile
    ///   the level below with no gap, overlap, or out-of-bounds slot;
    /// * **child MBR containment** — every node box is *bit-exactly* the
    ///   union of its children's boxes (the build computes it that way,
    ///   so any drift is corruption, not rounding).
    ///
    /// Runs in `O(slots)`; called on every decoded image before
    /// [`PackedRTree::from_bytes`] returns it, and via `debug_assert!`
    /// after every build and every `AnyTree::apply_edits` re-pack. A
    /// corrupted image yields a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let expect_ends = level_layout(self.num_items, self.node_size);
        if expect_ends.as_ref() != Some(&self.level_ends) {
            return Err(format!(
                "level layout {:?} does not match recomputation {:?} for {} items at fan-out {}",
                self.level_ends, expect_ends, self.num_items, self.node_size
            ));
        }
        let slots = self.level_ends[self.level_ends.len() - 1];
        if self.words.len() != slots * (BOX_WORDS + 1) {
            return Err(format!(
                "word buffer holds {} words, layout needs {}",
                self.words.len(),
                slots * (BOX_WORDS + 1)
            ));
        }
        for slot in 0..self.num_items {
            // Read the raw words: `slot_box` round-trips through
            // `Rect::new`, whose f64::min/max would silently launder a
            // NaN coordinate into a finite box.
            let w = slot * BOX_WORDS;
            let coords = [
                f64::from_bits(self.words[w]),
                f64::from_bits(self.words[w + 1]),
                f64::from_bits(self.words[w + 2]),
                f64::from_bits(self.words[w + 3]),
            ];
            if coords.iter().any(|v| !v.is_finite()) {
                return Err(format!("item slot {slot} has non-finite box {coords:?}"));
            }
            if coords[0] > coords[2] || coords[1] > coords[3] {
                return Err(format!("item slot {slot} has inverted box {coords:?}"));
            }
        }
        for level in 1..self.level_ends.len() {
            let child_lo = if level >= 2 {
                self.level_ends[level - 2]
            } else {
                0
            };
            let child_hi = self.level_ends[level - 1];
            let mut expect_first = child_lo;
            for slot in self.level_ends[level - 1]..self.level_ends[level] {
                let first = self.slot_index(slot) as usize;
                if first != expect_first {
                    return Err(format!(
                        "node slot {slot} (level {level}) points at child {first}, \
                         left-to-right packing requires {expect_first}"
                    ));
                }
                let children = first..(first + self.node_size).min(child_hi);
                if children.is_empty() {
                    return Err(format!("node slot {slot} (level {level}) has no children"));
                }
                let parent = self.slot_box(slot);
                let mut union = Rect::empty();
                for c in children.clone() {
                    let cb = self.slot_box(c);
                    if cb.min.x < parent.min.x
                        || cb.min.y < parent.min.y
                        || cb.max.x > parent.max.x
                        || cb.max.y > parent.max.y
                    {
                        return Err(format!(
                            "child slot {c} box {cb:?} escapes parent slot {slot} box {parent:?}"
                        ));
                    }
                    union = union.union(&cb);
                }
                let pw = slot * BOX_WORDS;
                let union_bits = [
                    union.min.x.to_bits(),
                    union.min.y.to_bits(),
                    union.max.x.to_bits(),
                    union.max.y.to_bits(),
                ];
                if self.words[pw..pw + BOX_WORDS] != union_bits {
                    return Err(format!(
                        "node slot {slot} box {parent:?} is not the exact union {union:?} \
                         of its children"
                    ));
                }
                expect_first = children.end;
            }
            if expect_first != child_hi {
                return Err(format!(
                    "level {level} covers children only up to slot {expect_first}, \
                     level below ends at {child_hi}"
                ));
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Persistence — header + the raw word buffer
    // -----------------------------------------------------------------

    /// Serializes the pack: a small header followed by the word buffer
    /// verbatim (no per-node encoding — the buffer *is* the tree).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32 + self.words.len() * 8);
        buf.put_slice(PACKED_MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(self.node_size as u16);
        buf.put_u64_le(self.num_items as u64);
        buf.put_u64_le(self.words.len() as u64);
        for w in self.words.iter() {
            buf.put_u64_le(*w);
        }
        buf.freeze()
    }

    /// Decodes an image produced by [`PackedRTree::to_bytes`]: header
    /// check, length check, one bulk copy of the word buffer (taken
    /// as-is, so the round trip is bit-exact and costs no per-node
    /// rebuild), then [`PackedRTree::validate`] — the bytes come from
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
        let level_ends = level_layout(num_items, node_size).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "no level layout for {num_items} items at fan-out {node_size}"
            ))
        })?;
        let words: Box<[u64]> = data[..byte_len]
            .chunks_exact(8)
            .map(|mut w| w.get_u64_le())
            .collect();
        let tree = PackedRTree {
            config: RTreeConfig {
                backend: Backend::Packed,
                packed_node_size: node_size,
                ..RTreeConfig::paper()
            },
            words,
            num_items,
            node_size,
            level_ends,
            visits: AtomicU64::new(0),
            generation: 0,
        };
        tree.validate().map_err(PersistError::Corrupt)?;
        Ok(tree)
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
        self.root_node_ref()
    }

    fn node_level(&self, node: u64) -> u32 {
        self.node_ref_level(node)
    }

    fn read_node_into(&self, node: u64, out: &mut Vec<Entry>) -> u32 {
        self.read_node_ref(node, out)
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
        assert_eq!(back.words, packed.words);
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
    fn validate_detects_corrupted_words_and_layout() {
        // Shrink the root box: its children escape it.
        let mut t = PackedRTree::build(packed_config(4), sample_items(50));
        let root = t.total_slots() - 1;
        t.words[root * BOX_WORDS + 2] = 0.0f64.to_bits(); // max.x := 0
        let err = t.validate().unwrap_err();
        assert!(err.contains("escapes parent"), "got: {err}");

        // Point a node at the wrong child slot: packing contiguity broken.
        let mut t = PackedRTree::build(packed_config(4), sample_items(50));
        let first_node = t.num_items;
        let idx = t.total_slots() * BOX_WORDS + first_node;
        t.words[idx] += 1;
        let err = t.validate().unwrap_err();
        assert!(err.contains("left-to-right packing"), "got: {err}");

        // NaN a leaf item's coordinate: non-finite box.
        let mut t = PackedRTree::build(packed_config(4), sample_items(50));
        t.words[0] = f64::NAN.to_bits();
        let err = t.validate().unwrap_err();
        assert!(
            err.contains("non-finite") || err.contains("escapes parent"),
            "got: {err}"
        );

        // Tamper with the recorded level layout: header sanity.
        let mut t = PackedRTree::build(packed_config(4), sample_items(50));
        let mut ends = t.level_ends.to_vec();
        ends[0] += 1;
        t.level_ends = ends.into_boxed_slice();
        let err = t.validate().unwrap_err();
        assert!(err.contains("level layout"), "got: {err}");
    }
}

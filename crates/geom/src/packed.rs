//! The static packed R-tree index: one word buffer whose whole shape
//! follows from `(num_items, node_size)`.
//!
//! A flatbush-style pack (geo-index's `RTreeMetadata` lineage): every
//! slot is four `f64` box words (min.x, min.y, max.x, max.y) plus one
//! index word. Item slots come first, in Hilbert order of their box
//! centres, with the caller's id as index word; then each node level is
//! packed bottom-up over the one below, root last, with the slot of the
//! node's first child as index word. A node's children are the next
//! `node_size` slots of the level below (fewer at the level's end), so
//! the level ends, the slot total and the word count are all derived —
//! nothing but the two header values and the words needs storing.
//!
//! Two users share it: `obstacle_rtree::PackedRTree` (the packed tree
//! backend, which persists the words verbatim) and the lazy visibility
//! scene (window and wedge candidates over its obstacle MBRs). Queries go
//! through one stack descent, [`PackedIndex::search`]; a buffer that did
//! not come from [`PackedIndex::pack`] is only adopted after
//! [`PackedIndex::validate`], so reads take every box as stored.

use crate::{hilbert_index_unit, Point, Rect};
use std::ops::Range;

/// Words per slot in the box region (min.x, min.y, max.x, max.y).
const BOX_WORDS: usize = 4;

/// A static packed R-tree over `(box, id)` items (see the module docs).
#[derive(Clone, Debug)]
pub struct PackedIndex {
    /// `BOX_WORDS` box words (f64 bit patterns) per slot, then one index
    /// word per slot.
    words: Box<[u64]>,
    num_items: usize,
    node_size: usize,
    /// Exclusive end slot of each level, items (level 0) first; the last
    /// entry is the slot total and `level_ends.len() - 1` the height.
    level_ends: Box<[usize]>,
}

/// The level layout of a pack of `num_items` items at fan-out
/// `node_size` — the exclusive end slot of each level: items first, then
/// each node level (`ceil(below / node_size)` wide) up to a single root.
/// `num_items = 0` has no node level at all; `num_items ≥ 1` always gets
/// at least one, so the root is a real node even over a single item.
///
/// `None` for a fan-out below 2 or a slot total whose word buffer would
/// not fit `usize` (both reachable from image bytes).
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

fn box_bits(r: &Rect) -> [u64; BOX_WORDS] {
    [
        r.min.x.to_bits(),
        r.min.y.to_bits(),
        r.max.x.to_bits(),
        r.max.y.to_bits(),
    ]
}

fn write_box(boxes: &mut [u64], slot: usize, r: &Rect) {
    boxes[slot * BOX_WORDS..][..BOX_WORDS].copy_from_slice(&box_bits(r));
}

/// The box of `slot`, exactly as stored (no min/max normalisation).
fn read_box(boxes: &[u64], slot: usize) -> Rect {
    let w = &boxes[slot * BOX_WORDS..][..BOX_WORDS];
    Rect {
        min: Point::new(f64::from_bits(w[0]), f64::from_bits(w[1])),
        max: Point::new(f64::from_bits(w[2]), f64::from_bits(w[3])),
    }
}

impl Default for PackedIndex {
    /// The empty index.
    fn default() -> Self {
        PackedIndex::pack(2, std::iter::empty())
    }
}

impl PackedIndex {
    /// Packs `items` at fan-out `node_size` (at least 2): sorted by the
    /// Hilbert index of their box centre over the items' union (each key
    /// computed once), then each level packed left to right.
    pub fn pack(node_size: usize, items: impl IntoIterator<Item = (Rect, u64)>) -> PackedIndex {
        let mut items: Vec<(Rect, u64)> = items.into_iter().collect();
        let universe = items.iter().fold(Rect::empty(), |u, (r, _)| u.union(r));
        items.sort_by_cached_key(|(r, _)| hilbert_index_unit(r.center(), &universe));

        // Build time, not a read path: a fan-out below 2 is a caller bug,
        // and `n` in-memory items cannot overflow their slot count.
        // lint:allow(no-unwrap-hot-path): see above
        let level_ends = level_layout(items.len(), node_size).expect("pack fan-out below 2");
        let slots = level_ends[level_ends.len() - 1];
        let mut words = vec![0u64; slots * (BOX_WORDS + 1)].into_boxed_slice();
        let (boxes, ids) = words.split_at_mut(slots * BOX_WORDS);
        for (slot, (r, id)) in items.iter().enumerate() {
            write_box(boxes, slot, r);
            ids[slot] = *id;
        }
        // Each node level over the one below it, `child_start..ends[0]`.
        let mut child_start = 0;
        for ends in level_ends.windows(2) {
            for (k, slot) in (ends[0]..ends[1]).enumerate() {
                let first = child_start + k * node_size;
                let children = first..(first + node_size).min(ends[0]);
                let mbr = children.fold(Rect::empty(), |u, c| u.union(&read_box(boxes, c)));
                write_box(boxes, slot, &mbr);
                ids[slot] = first as u64;
            }
            child_start = ends[0];
        }

        let index = PackedIndex {
            words,
            num_items: items.len(),
            node_size,
            level_ends,
        };
        debug_assert_eq!(index.validate(), Ok(()), "a fresh pack must validate");
        index
    }

    /// Adopts `words` (as returned by [`PackedIndex::words`]) for
    /// `num_items` items at fan-out `node_size`: the layout is recomputed
    /// from those two values, and the index is handed out only if
    /// [`PackedIndex::validate`] passes — every query indexes the buffer
    /// by what it says.
    pub fn from_words(
        num_items: usize,
        node_size: usize,
        words: Box<[u64]>,
    ) -> Result<PackedIndex, String> {
        let level_ends = level_layout(num_items, node_size).ok_or_else(|| {
            format!("no level layout for {num_items} items at fan-out {node_size}")
        })?;
        let index = PackedIndex {
            words,
            num_items,
            node_size,
            level_ends,
        };
        index.validate()?;
        Ok(index)
    }

    /// The word buffer: box words of every slot, then index words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.num_items
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Fan-out of the pack.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Number of tree nodes (slots above the item level).
    pub fn num_nodes(&self) -> usize {
        self.slots() - self.num_items
    }

    /// Height in node levels (1 = a single root over the items; 0 only
    /// when empty).
    pub fn height(&self) -> usize {
        self.level_ends.len() - 1
    }

    fn slots(&self) -> usize {
        self.level_ends[self.level_ends.len() - 1]
    }

    /// Slot of the root node, `None` when empty.
    pub fn root(&self) -> Option<usize> {
        (self.num_items > 0).then(|| self.slots() - 1)
    }

    /// Union of every item box (the empty rect when empty).
    pub fn bounds(&self) -> Rect {
        self.root().map_or(Rect::empty(), |s| self.slot_box(s))
    }

    /// Slots of level `level`: 0 is the items, `height()` the root.
    pub fn level_slots(&self, level: usize) -> Range<usize> {
        let start = if level == 0 {
            0
        } else {
            self.level_ends[level - 1]
        };
        start..self.level_ends[level]
    }

    /// Level of `slot`: 0 for items, `k ≥ 1` for nodes (1 = leaf nodes).
    pub fn level_of(&self, slot: usize) -> usize {
        self.level_ends.partition_point(|&end| end <= slot)
    }

    /// Child slots of the node at `slot`.
    pub fn children(&self, slot: usize) -> Range<usize> {
        self.child_range(slot, self.level_of(slot))
    }

    fn child_range(&self, slot: usize, level: usize) -> Range<usize> {
        let first = self.slot_id(slot) as usize;
        first..(first + self.node_size).min(self.level_ends[level - 1])
    }

    /// Box of `slot`, as stored.
    pub fn slot_box(&self, slot: usize) -> Rect {
        read_box(&self.words, slot)
    }

    /// Index word of `slot`: the item id, or a node's first child slot.
    pub fn slot_id(&self, slot: usize) -> u64 {
        self.words[self.slots() * BOX_WORDS + slot]
    }

    /// The one stack descent. Visits the root, then every node whose box
    /// `keep` accepts; each item whose box `keep` accepts goes to `emit`
    /// with its id, its box and what `keep` returned for it, until `emit`
    /// returns `true`. `keep` runs once per box read and must accept a
    /// node whenever it accepts an item under it. Returns the number of
    /// nodes visited (the root counts; each node counts once).
    pub fn search<T>(
        &self,
        mut keep: impl FnMut(&Rect) -> Option<T>,
        mut emit: impl FnMut(u64, Rect, T) -> bool,
    ) -> usize {
        let Some(root) = self.root() else {
            return 0;
        };
        let (boxes, ids) = self.words.split_at(self.slots() * BOX_WORDS);
        let mut stack = vec![(root, self.height())];
        let mut visits = 0;
        while let Some((slot, level)) = stack.pop() {
            visits += 1;
            let first = ids[slot] as usize;
            let end = (first + self.node_size).min(self.level_ends[level - 1]);
            for (c, &id) in (first..end).zip(&ids[first..end]) {
                let mbr = read_box(boxes, c);
                let Some(kept) = keep(&mbr) else {
                    continue;
                };
                if level > 1 {
                    stack.push((c, level - 1));
                } else if emit(id, mbr, kept) {
                    return visits;
                }
            }
        }
        visits
    }

    /// Deep structural check. Verifies, in order:
    ///
    /// * **layout** — fan-out ≥ 2, the level layout matches a
    ///   recomputation from `(num_items, node_size)`, and the buffer has
    ///   exactly `slots × (BOX_WORDS + 1)` words;
    /// * **item boxes** — finite and non-inverted;
    /// * **child pointers** — each node's first child lies exactly where
    ///   the left-to-right pack put it, so the ranges tile the level below
    ///   with no gap, overlap or out-of-bounds slot;
    /// * **node boxes** — contain every child and are *bit-exactly* their
    ///   union (the pack computes them that way, so any drift is
    ///   corruption, not rounding).
    ///
    /// `O(slots)`; a failure describes the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let expect_ends = level_layout(self.num_items, self.node_size);
        if expect_ends.as_ref() != Some(&self.level_ends) {
            return Err(format!(
                "level layout {:?} does not match recomputation {:?} for {} items at fan-out {}",
                self.level_ends, expect_ends, self.num_items, self.node_size
            ));
        }
        let want = self.slots() * (BOX_WORDS + 1);
        if self.words.len() != want {
            return Err(format!(
                "word buffer holds {} words, layout needs {want}",
                self.words.len()
            ));
        }
        for slot in self.level_slots(0) {
            let b = self.slot_box(slot);
            let coords = [b.min.x, b.min.y, b.max.x, b.max.y];
            if coords.iter().any(|v| !v.is_finite()) {
                return Err(format!("item slot {slot} has non-finite box {coords:?}"));
            }
            if b.min.x > b.max.x || b.min.y > b.max.y {
                return Err(format!("item slot {slot} has inverted box {coords:?}"));
            }
        }
        for level in 1..=self.height() {
            let below = self.level_slots(level - 1);
            let mut expect_first = below.start;
            for slot in self.level_slots(level) {
                let first = self.slot_id(slot) as usize;
                if first != expect_first {
                    return Err(format!(
                        "node slot {slot} (level {level}) points at child {first}, \
                         left-to-right packing requires {expect_first}"
                    ));
                }
                let children = self.child_range(slot, level);
                if children.is_empty() {
                    return Err(format!("node slot {slot} (level {level}) has no children"));
                }
                let parent = self.slot_box(slot);
                let mut union = Rect::empty();
                for c in children.clone() {
                    let cb = self.slot_box(c);
                    if !parent.contains_rect(&cb) {
                        return Err(format!(
                            "child slot {c} box {cb:?} escapes parent slot {slot} box {parent:?}"
                        ));
                    }
                    union = union.union(&cb);
                }
                if box_bits(&parent) != box_bits(&union) {
                    return Err(format!(
                        "node slot {slot} box {parent:?} is not the exact union {union:?} \
                         of its children"
                    ));
                }
                expect_first = children.end;
            }
            if expect_first != below.end {
                return Err(format!(
                    "level {level} covers children only up to slot {expect_first}, \
                     level below ends at {}",
                    below.end
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    fn sample_items(n: usize) -> Vec<(Rect, u64)> {
        (0..n as u64)
            .map(|i| {
                let p = Point::new((i % 37) as f64 * 0.113, (i % 29) as f64 * 0.177);
                (Rect::from_point(p), i)
            })
            .collect()
    }

    fn ids_where(index: &PackedIndex, keep: impl Fn(&Rect) -> bool) -> (Vec<u64>, usize) {
        let mut ids = Vec::new();
        let visits = index.search(
            |r| keep(r).then_some(()),
            |id, _, ()| {
                ids.push(id);
                false
            },
        );
        ids.sort_unstable();
        (ids, visits)
    }

    #[test]
    fn level_layout_table() {
        let layout = |n, f| level_layout(n, f).map(|e| e.to_vec());
        // Fan-out 4: n = 0, 1, F, F + 1 and 17 (5 leaves / 2 / 1 root).
        assert_eq!(layout(0, 4), Some(vec![0]));
        assert_eq!(layout(1, 4), Some(vec![1, 2]));
        assert_eq!(layout(4, 4), Some(vec![4, 5]));
        assert_eq!(layout(5, 4), Some(vec![5, 7, 8]));
        assert_eq!(layout(17, 4), Some(vec![17, 22, 24, 25]));
        // The widest fan-out an image header can carry.
        let f = u16::MAX as usize;
        assert_eq!(layout(f, f), Some(vec![f, f + 1]));
        assert_eq!(layout(f + 1, f), Some(vec![f + 1, f + 3, f + 4]));
        // No layout below fan-out 2, or past what a buffer can address.
        assert_eq!(layout(10, 0), None);
        assert_eq!(layout(10, 1), None);
        assert_eq!(layout(usize::MAX / 2, 2), None);
    }

    #[test]
    fn search_matches_a_brute_filter() {
        check::cases(64, |g| {
            let node_size = [2, 3, 8, 16][g.usize(0, 4)];
            let items: Vec<(Rect, u64)> = (0..g.usize(0, 301) as u64)
                .map(|id| {
                    let (x, y) = (g.f64(0.0, 10.0), g.f64(0.0, 10.0));
                    let (w, h) = if g.bool() {
                        (0.0, 0.0)
                    } else {
                        (g.f64(0.0, 1.5), g.f64(0.0, 1.5))
                    };
                    (Rect::from_coords(x, y, x + w, y + h), id)
                })
                .collect();
            let index = PackedIndex::pack(node_size, items.iter().copied());
            assert_eq!(index.validate(), Ok(()));
            assert_eq!(index.len(), items.len());

            let brute = |keep: &dyn Fn(&Rect) -> bool| {
                let mut ids: Vec<u64> = items
                    .iter()
                    .filter(|(r, _)| keep(r))
                    .map(|&(_, id)| id)
                    .collect();
                ids.sort_unstable();
                ids
            };
            let (x, y) = (g.f64(-1.0, 11.0), g.f64(-1.0, 11.0));
            let window = Rect::from_coords(x, y, x + g.f64(0.0, 4.0), y + g.f64(0.0, 4.0));
            let in_window = |r: &Rect| r.intersects(&window);
            let (c, radius) = (Point::new(x, y), g.f64(0.0, 3.0));
            let in_disk = |r: &Rect| r.mindist_point_sq(c) <= radius * radius;
            for keep in [&in_window as &dyn Fn(&Rect) -> bool, &in_disk] {
                let (ids, visits) = ids_where(&index, keep);
                assert_eq!(
                    ids,
                    brute(keep),
                    "fan-out {node_size}, {} items",
                    items.len()
                );
                assert!(visits <= index.num_nodes());
                assert_eq!(visits == 0, items.is_empty(), "the root is always visited");
            }
        });
    }

    #[test]
    fn early_exit_returns_at_the_first_accepted_item() {
        let index = PackedIndex::pack(4, sample_items(200));
        let mut emitted = Vec::new();
        let visits = index.search(
            |r| Some(r.min.x),
            |id, mbr, x| {
                assert_eq!(mbr.min.x, x, "emit gets what keep returned");
                emitted.push(id);
                true
            },
        );
        assert_eq!(emitted.len(), 1);
        // Accepting everything walks one root-to-leaf path and stops.
        assert_eq!(visits, index.height());

        let far = |r: &Rect| r.min.x > 3.0;
        let (all, _) = ids_where(&index, far);
        assert!(all.len() > 1);
        let mut first = None;
        index.search(
            |r| (r.max.x > 3.0).then_some(()),
            |id, mbr, ()| {
                first = far(&mbr).then_some(id);
                first.is_some()
            },
        );
        assert!(first.is_some_and(|id| all.contains(&id)));
    }

    #[test]
    fn from_words_rejects_a_word_count_that_disagrees_with_the_layout() {
        let index = PackedIndex::pack(4, sample_items(50));
        let words = index.words().to_vec();
        let back = PackedIndex::from_words(50, 4, words.clone().into_boxed_slice()).unwrap();
        assert_eq!(back.words(), index.words());

        let mut short = words.clone();
        short.pop();
        let err = PackedIndex::from_words(50, 4, short.into_boxed_slice()).unwrap_err();
        assert!(err.contains("word buffer"), "got: {err}");
        let mut long = words.clone();
        long.push(0);
        let err = PackedIndex::from_words(50, 4, long.into_boxed_slice()).unwrap_err();
        assert!(err.contains("word buffer"), "got: {err}");
        let err = PackedIndex::from_words(49, 4, words.clone().into_boxed_slice()).unwrap_err();
        assert!(err.contains("word buffer"), "got: {err}");
        let err = PackedIndex::from_words(50, 1, words.into_boxed_slice()).unwrap_err();
        assert!(err.contains("no level layout"), "got: {err}");
    }

    #[test]
    fn validate_detects_corrupted_words_and_layout() {
        // Shrink the root box: its children escape it.
        let mut t = PackedIndex::pack(4, sample_items(50));
        let root = t.root().unwrap();
        t.words[root * BOX_WORDS + 2] = 0.0f64.to_bits(); // max.x := 0
        let err = t.validate().unwrap_err();
        assert!(err.contains("escapes parent"), "got: {err}");

        // Point a node at the wrong child slot: packing contiguity broken.
        let mut t = PackedIndex::pack(4, sample_items(50));
        let first_node = t.len();
        let idx = t.slots() * BOX_WORDS + first_node;
        t.words[idx] += 1;
        let err = t.validate().unwrap_err();
        assert!(err.contains("left-to-right packing"), "got: {err}");

        // NaN a leaf item's coordinate: non-finite box.
        let mut t = PackedIndex::pack(4, sample_items(50));
        t.words[0] = f64::NAN.to_bits();
        let err = t.validate().unwrap_err();
        assert!(
            err.contains("non-finite") || err.contains("escapes parent"),
            "got: {err}"
        );

        // Tamper with the recorded level layout: header sanity.
        let mut t = PackedIndex::pack(4, sample_items(50));
        let mut ends = t.level_ends.to_vec();
        ends[0] += 1;
        t.level_ends = ends.into_boxed_slice();
        let err = t.validate().unwrap_err();
        assert!(err.contains("level layout"), "got: {err}");
    }
}

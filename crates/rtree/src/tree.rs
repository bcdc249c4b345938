//! The R*-tree proper: construction, maintenance and basic queries.

use crate::config::RTreeConfig;
use crate::entry::{Entry, Item, PageId};
use crate::node::Node;
use crate::store::{IoStats, PageStore};
use obstacle_geom::{Point, Rect};

/// Number of least-enlargement candidates examined by the overlap-based
/// `ChooseSubtree` rule (the R* paper's "nearly minimum" optimisation that
/// avoids the quadratic overlap scan on large nodes).
const CHOOSE_SUBTREE_P: usize = 32;

/// A disk-model R*-tree over [`Item`]s.
///
/// See the [crate docs](crate) for the big picture. All query entry points
/// count page accesses through the tree's LRU buffer; use
/// [`RTree::io_stats`] / [`RTree::reset_io_stats`] to measure workloads.
#[derive(Debug)]
pub struct RTree {
    pub(crate) config: RTreeConfig,
    pub(crate) store: PageStore,
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) len: usize,
}

impl RTree {
    /// Creates an empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        let mut store = PageStore::new(config.min_buffer_pages);
        let root = store.allocate(Node::new(0));
        RTree {
            config,
            store,
            root,
            height: 1,
            len: 0,
        }
    }

    /// Builds a tree by inserting every item one by one (R* insertion, as
    /// in the paper's experiments).
    pub fn build(config: RTreeConfig, items: impl IntoIterator<Item = Item>) -> Self {
        let mut t = RTree::new(config);
        for it in items {
            t.insert(it);
        }
        t.finish_build();
        t
    }

    /// Bulk loads with Sort-Tile-Recursive packing \[LEL97-style\]:
    /// much faster than one-by-one insertion and near-100 % occupancy.
    pub fn bulk_load_str(config: RTreeConfig, items: Vec<Item>) -> Self {
        let mut t = RTree::new(config);
        if items.is_empty() {
            t.finish_build();
            return t;
        }
        let cap = config.capacity();
        let mut entries: Vec<Entry> = items.into_iter().map(Entry::from).collect();
        let mut level = 0u32;
        loop {
            entries = t.pack_str_level(entries, level, cap);
            if entries.len() == 1 {
                t.store.release(t.root); // drop the placeholder empty root
                t.root = entries[0].child();
                t.height = level + 1;
                break;
            }
            level += 1;
        }
        t.recount();
        t.finish_build();
        t
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 for a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of live pages (nodes).
    pub fn pages(&self) -> usize {
        self.store.live_pages()
    }

    /// MBR of the whole dataset.
    pub fn root_mbr(&self) -> Rect {
        self.store.node(self.root).mbr()
    }

    /// Root page id (used by the cross-tree query algorithms).
    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    /// Reads a page with I/O accounting (crate-internal query support).
    pub(crate) fn read_page(&self, id: PageId) -> &Node {
        self.store.read(id)
    }

    /// Snapshot of the I/O counters.
    ///
    /// These are **tree-global**: every query of every thread adds to
    /// them. For attributing accesses to one query — mandatory once
    /// queries run concurrently — open an [`IoSnapshot`](crate::IoSnapshot)
    /// via [`RTree::io_snapshot`] instead of diffing this.
    pub fn io_stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Opens a per-query I/O attribution window: accesses performed by
    /// the *current thread* on this tree while the handle is alive are
    /// recorded and returned by [`IoSnapshot::finish`](crate::IoSnapshot::finish),
    /// unpolluted by concurrent queries on other threads.
    pub fn io_snapshot(&self) -> crate::IoSnapshot<'_> {
        self.store.snapshot()
    }

    /// Zeroes the I/O counters.
    pub fn reset_io_stats(&self) {
        self.store.reset_stats();
    }

    /// Clears the buffer (cold start) and resizes it to the configured
    /// fraction of the current tree size. Call after bulk modifications
    /// and before a measured workload.
    pub fn reset_buffer(&self) {
        self.store
            .reset_buffer(self.config.buffer_pages(self.store.live_pages()));
    }

    /// Buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.store.buffer_capacity()
    }

    fn finish_build(&mut self) {
        // Size the buffer now that the tree's final size — and therefore
        // its 10 %-rule capacity — is known: the placeholder pool of
        // `RTree::new` was sized before any page existed.
        self.reset_buffer();
        self.reset_io_stats();
    }

    // -----------------------------------------------------------------
    // Insertion (R*: ChooseSubtree + forced reinsertion + R* split)
    // -----------------------------------------------------------------

    /// Inserts one item.
    pub fn insert(&mut self, item: Item) {
        self.len += 1;
        // One forced reinsertion per level per insertion (R* rule). The
        // vector is indexed by level and grows with the tree.
        let mut reinserted = vec![false; (self.height + 2) as usize];
        let mut queue: Vec<(Entry, u32)> = vec![(item.into(), 0)];
        while let Some((entry, level)) = queue.pop() {
            self.insert_at_level(entry, level, &mut reinserted, &mut queue);
        }
    }

    /// One root-to-level insertion pass. Overflow is handled on the way
    /// back up; forced-reinsertion victims are pushed onto `queue` and
    /// re-inserted by the caller once this pass finishes (deferring keeps
    /// the ancestor path valid during the pass).
    fn insert_at_level(
        &mut self,
        entry: Entry,
        level: u32,
        reinserted: &mut Vec<bool>,
        queue: &mut Vec<(Entry, u32)>,
    ) {
        let path = self.choose_path(entry.mbr, level);
        let target = *path.last().expect("path includes target");
        self.store.read_mut(target).entries.push(entry);

        // Walk back towards the root fixing overflows and parent MBRs.
        for i in (0..path.len()).rev() {
            let node_id = path[i];
            let (node_len, node_level) = {
                let n = self.store.node(node_id);
                (n.len(), n.level)
            };
            if node_len > self.config.capacity() {
                let is_root = i == 0;
                if reinserted.len() <= node_level as usize {
                    reinserted.resize(node_level as usize + 1, false);
                }
                if !is_root && !reinserted[node_level as usize] {
                    reinserted[node_level as usize] = true;
                    let victims = self.take_reinsert_victims(node_id);
                    for v in victims {
                        queue.push((v, node_level));
                    }
                } else {
                    let new_entry = self.split_node(node_id);
                    if is_root {
                        self.grow_root(node_id, new_entry);
                        return;
                    }
                    let parent = path[i - 1];
                    self.store.read_mut(parent).entries.push(new_entry);
                }
            }
            // Refresh this node's MBR in its parent.
            if i > 0 {
                let mbr = self.store.node(node_id).mbr();
                let parent = path[i - 1];
                let p = self.store.read_mut(parent);
                if let Some(e) = p.entries.iter_mut().find(|e| e.child() == node_id) {
                    e.mbr = mbr;
                }
            }
        }
    }

    /// Root-to-target-level descent using the R* `ChooseSubtree` rules.
    /// Returns the page ids from the root down to the target node.
    fn choose_path(&self, mbr: Rect, level: u32) -> Vec<PageId> {
        let mut path = vec![self.root];
        let mut cur = self.root;
        loop {
            let node = self.store.read(cur);
            if node.level == level {
                return path;
            }
            let child = if node.level == 1 && level == 0 {
                self.choose_subtree_overlap(node, &mbr)
            } else {
                choose_subtree_area(node, &mbr)
            };
            path.push(child);
            cur = child;
        }
    }

    /// R* leaf-parent rule: minimise overlap enlargement among the
    /// `CHOOSE_SUBTREE_P` least-area-enlargement candidates.
    fn choose_subtree_overlap(&self, node: &Node, mbr: &Rect) -> PageId {
        debug_assert!(!node.is_empty());
        let mut order: Vec<usize> = (0..node.len()).collect();
        if node.len() > CHOOSE_SUBTREE_P {
            order.sort_by(|&a, &b| {
                let ea = node.entries[a].mbr.enlargement(mbr);
                let eb = node.entries[b].mbr.enlargement(mbr);
                obstacle_geom::total_cmp(ea, eb)
            });
            order.truncate(CHOOSE_SUBTREE_P);
        }
        let mut best = order[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &order {
            let cand = &node.entries[i];
            let enlarged = cand.mbr.union(mbr);
            let mut overlap_delta = 0.0;
            for (j, other) in node.entries.iter().enumerate() {
                if j != i {
                    overlap_delta += enlarged.intersection_area(&other.mbr)
                        - cand.mbr.intersection_area(&other.mbr);
                }
            }
            let key = (overlap_delta, cand.mbr.enlargement(mbr), cand.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        node.entries[best].child()
    }

    /// Removes the `reinsert_count` entries whose centers are farthest
    /// from the node's MBR center, returning them close-first (R* "close
    /// reinsert").
    fn take_reinsert_victims(&mut self, node_id: PageId) -> Vec<Entry> {
        let p = self.config.reinsert_count();
        let node = self.store.read_mut(node_id);
        let center = node.mbr().center();
        node.entries.sort_by(|a, b| {
            let da = a.mbr.center().dist_sq(center);
            let db = b.mbr.center().dist_sq(center);
            obstacle_geom::total_cmp(da, db)
        });
        let keep = node.len() - p;
        let mut victims = node.entries.split_off(keep);
        // split_off leaves the closest entries in the node; victims are
        // ordered near-to-far already, which is exactly close-reinsert.
        victims.reverse(); // queue is a LIFO stack: reverse so that the
                           // closest victim is inserted first.
        victims
    }

    /// Splits an overflowing node in place; returns the parent entry for
    /// the newly allocated sibling.
    fn split_node(&mut self, node_id: PageId) -> Entry {
        let level = self.store.node(node_id).level;
        let entries = std::mem::take(&mut self.store.node_mut(node_id).entries);
        let (left, right) = rstar_split(entries, self.config.min_fill());
        self.store.node_mut(node_id).entries = left;
        let mut sibling = Node::new(level);
        sibling.entries = right;
        let mbr = sibling.mbr();
        let new_page = self.store.allocate(sibling);
        Entry::new(mbr, new_page as u64)
    }

    fn grow_root(&mut self, old_root: PageId, new_entry: Entry) {
        let old_mbr = self.store.node(old_root).mbr();
        let level = self.store.node(old_root).level;
        let mut root = Node::new(level + 1);
        root.entries.push(Entry::new(old_mbr, old_root as u64));
        root.entries.push(new_entry);
        self.root = self.store.allocate(root);
        self.height += 1;
    }

    // -----------------------------------------------------------------
    // Deletion (find-leaf + condense-tree)
    // -----------------------------------------------------------------

    /// Deletes an item (matched by id and exact MBR). Returns whether the
    /// item was found.
    pub fn delete(&mut self, item: &Item) -> bool {
        let Some(path) = self.find_leaf(self.root, item, &mut Vec::new()) else {
            return false;
        };
        let leaf = *path.last().unwrap();
        {
            let n = self.store.read_mut(leaf);
            let idx = n
                .entries
                .iter()
                .position(|e| e.ptr == item.id && e.mbr == item.mbr)
                .expect("find_leaf returned a leaf containing the item");
            n.entries.swap_remove(idx);
        }
        self.len -= 1;

        // Condense: walk up, dissolving underfull nodes.
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        for i in (1..path.len()).rev() {
            let node_id = path[i];
            let (node_len, node_level) = {
                let n = self.store.node(node_id);
                (n.len(), n.level)
            };
            let parent = path[i - 1];
            if node_len < self.config.min_fill() {
                // Remove from parent and schedule entries for reinsertion.
                let p = self.store.read_mut(parent);
                let idx = p
                    .entries
                    .iter()
                    .position(|e| e.child() == node_id)
                    .expect("parent lists child");
                p.entries.swap_remove(idx);
                let node_entries = std::mem::take(&mut self.store.node_mut(node_id).entries);
                for e in node_entries {
                    orphans.push((e, node_level));
                }
                self.store.release(node_id);
            } else {
                let mbr = self.store.node(node_id).mbr();
                let p = self.store.read_mut(parent);
                if let Some(e) = p.entries.iter_mut().find(|e| e.child() == node_id) {
                    e.mbr = mbr;
                }
            }
        }

        // Reinsert orphans at their original levels (highest levels first
        // so subtrees land before loose leaves rearrange the tree).
        orphans.sort_by_key(|(_, lvl)| std::cmp::Reverse(*lvl));
        for (entry, level) in orphans {
            // If the tree shrank below the orphan's level, its subtree
            // must be dissolved into items; with top-down level ordering
            // this cannot happen before the root shrink below, so clamp.
            let level = level.min(self.height - 1);
            let mut reinserted = vec![true; (self.height + 2) as usize]; // no forced reinsert on delete
            let mut queue = vec![(entry, level)];
            while let Some((e, l)) = queue.pop() {
                self.insert_at_level(e, l, &mut reinserted, &mut queue);
            }
        }

        // Shrink the root while it is an internal node with one child.
        loop {
            let root = self.store.node(self.root);
            if root.level > 0 && root.len() == 1 {
                let child = root.entries[0].child();
                self.store.release(self.root);
                self.root = child;
                self.height -= 1;
            } else {
                break;
            }
        }
        true
    }

    fn find_leaf(&self, page: PageId, item: &Item, path: &mut Vec<PageId>) -> Option<Vec<PageId>> {
        path.push(page);
        let node = self.store.read(page);
        if node.is_leaf() {
            if node
                .entries
                .iter()
                .any(|e| e.ptr == item.id && e.mbr == item.mbr)
            {
                return Some(path.clone());
            }
        } else {
            let children: Vec<PageId> = node
                .entries
                .iter()
                .filter(|e| e.mbr.contains_rect(&item.mbr))
                .map(|e| e.child())
                .collect();
            for child in children {
                if let Some(found) = self.find_leaf(child, item, path) {
                    return Some(found);
                }
            }
        }
        path.pop();
        None
    }

    // -----------------------------------------------------------------
    // Bulk-load packing helpers
    // -----------------------------------------------------------------

    /// Packs `entries` into nodes of `level` using STR tiling; returns the
    /// parent-level entries.
    fn pack_str_level(&mut self, mut entries: Vec<Entry>, level: u32, cap: usize) -> Vec<Entry> {
        let n = entries.len();
        let node_count = n.div_ceil(cap);
        let slices = (node_count as f64).sqrt().ceil() as usize;
        let slice_len = slices * cap;
        entries.sort_by(|a, b| obstacle_geom::total_cmp(a.mbr.center().x, b.mbr.center().x));
        let mut parents = Vec::with_capacity(node_count);
        for slab in entries.chunks_mut(slice_len.max(1)) {
            slab.sort_by(|a, b| obstacle_geom::total_cmp(a.mbr.center().y, b.mbr.center().y));
            for chunk in slab.chunks(cap) {
                parents.push(self.pack_node(chunk, level));
            }
        }
        parents
    }

    fn pack_node(&mut self, chunk: &[Entry], level: u32) -> Entry {
        let mut node = Node::new(level);
        node.entries.extend_from_slice(chunk);
        let mbr = node.mbr();
        let page = self.store.allocate(node);
        Entry::new(mbr, page as u64)
    }

    fn recount(&mut self) {
        fn count(t: &RTree, page: PageId) -> usize {
            let n = t.store.node(page);
            if n.is_leaf() {
                n.len()
            } else {
                n.entries.iter().map(|e| count(t, e.child())).sum()
            }
        }
        self.len = count(self, self.root);
    }

    // -----------------------------------------------------------------
    // Basic queries (range); NN / join / closest pairs live in `query`.
    // -----------------------------------------------------------------

    /// The one stack descent behind every range query: visits each
    /// subtree whose node MBR `keep` accepts and emits each accepted leaf
    /// entry together with what `keep` returned for it. `keep` runs
    /// exactly once per entry on the descent path. Accepted children are
    /// pushed in entry order (so the last one is read first) — page
    /// fetches and, through the LRU buffer, misses depend on that order.
    fn descend<T>(&self, keep: impl Fn(&Rect) -> Option<T>, mut emit: impl FnMut(Item, T)) {
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read_page(page);
            if node.is_leaf() {
                for e in &node.entries {
                    if let Some(kept) = keep(&e.mbr) {
                        emit(Item::from(*e), kept);
                    }
                }
            } else {
                stack.extend(
                    node.entries
                        .iter()
                        .filter(|e| keep(&e.mbr).is_some())
                        .map(|e| e.child()),
                );
            }
        }
    }

    /// All items whose MBR intersects `window`.
    pub fn range_rect(&self, window: &Rect) -> Vec<Item> {
        let mut out = Vec::new();
        self.descend(
            |r| r.intersects(window).then_some(()),
            |item, ()| out.push(item),
        );
        out
    }

    /// All items whose MBR lies within Euclidean distance `radius` of
    /// `center` (`mindist(MBR, center) ≤ radius`) — for point items this is
    /// the exact disk range query of the paper; for rectangle items it
    /// returns exactly the rectangles intersecting the disk.
    pub fn range_circle(&self, center: Point, radius: f64) -> Vec<Item> {
        let r_sq = radius * radius;
        let mut out = Vec::new();
        self.descend(
            |r| (r.mindist_point_sq(center) <= r_sq).then_some(()),
            |item, ()| out.push(item),
        );
        out
    }

    /// Generic pruned range search: returns all items with
    /// `bound(item.mbr) ≤ threshold`, visiting only subtrees whose node
    /// MBR satisfies the same predicate. Each qualifying item is returned
    /// together with its bound value: the closure runs exactly once per
    /// entry on the descent path, and callers that need the score again
    /// (the obstructed-distance fixpoint re-checks every fresh obstacle
    /// against the current radius) reuse it instead of re-evaluating.
    ///
    /// `bound` must be *monotone under containment*: `R ⊆ R'` implies
    /// `bound(R') ≤ bound(R)` (true for any "min distance from the
    /// rectangle to X" metric). Circle ranges use `mindist` to a point;
    /// the ellipse pruning of the obstructed-distance computation uses
    /// the sum of `mindist`s to the two foci.
    pub fn range_by_bound(&self, bound: impl Fn(&Rect) -> f64, threshold: f64) -> Vec<(Item, f64)> {
        let mut out = Vec::new();
        self.descend(
            |r| Some(bound(r)).filter(|&b| b <= threshold),
            |item, b| out.push((item, b)),
        );
        out
    }

    /// Every item in the tree, in storage order (full scan, counted I/O).
    pub fn items(&self) -> Vec<Item> {
        let mut out = Vec::with_capacity(self.len);
        self.descend(|_| Some(()), |item, ()| out.push(item));
        out
    }

    // -----------------------------------------------------------------
    // Invariant checking (tests / debugging; no I/O accounting)
    // -----------------------------------------------------------------

    /// Checks the structural invariants of the tree. When `check_fill` is
    /// true, non-root nodes must respect the R* minimum fill (disable for
    /// bulk-loaded trees whose last sibling per level may be underfull).
    ///
    /// Never panics, whatever the tree holds: this is also the check a
    /// decoded byte image must pass before it is handed out, so a
    /// dangling or shared child page, a level that does not descend, or
    /// a non-finite box is an `Err`, and the walk is iterative and visits
    /// each page once.
    pub fn validate(&self, check_fill: bool) -> Result<(), String> {
        let page = |id: PageId| {
            self.store
                .get(id)
                .ok_or_else(|| format!("page {id} is freed or out of range"))
        };
        let root = page(self.root)?;
        if root.level.checked_add(1) != Some(self.height) {
            return Err(format!(
                "root level {} inconsistent with height {}",
                root.level, self.height
            ));
        }
        if !root.is_leaf() && root.len() < 2 {
            return Err(format!(
                "internal root {} has fewer than 2 children",
                self.root
            ));
        }
        let mut seen = vec![false; self.store.slots().len()];
        let mut item_count = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = page(id)?;
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(format!("page {id} is reachable twice"));
            }
            if node.len() > self.config.capacity() {
                return Err(format!(
                    "node {id} overflows: {} > {}",
                    node.len(),
                    self.config.capacity()
                ));
            }
            if id != self.root && check_fill && node.len() < self.config.min_fill() {
                return Err(format!(
                    "node {id} underfull: {} < {}",
                    node.len(),
                    self.config.min_fill()
                ));
            }
            for e in &node.entries {
                let r = &e.mbr;
                let finite = [r.min.x, r.min.y, r.max.x, r.max.y]
                    .iter()
                    .all(|v| v.is_finite());
                if !finite || r.min.x > r.max.x || r.min.y > r.max.y {
                    return Err(format!(
                        "node {id} holds a non-finite or inverted box {r:?}"
                    ));
                }
            }
            if node.is_leaf() {
                item_count += node.len();
                continue;
            }
            for e in &node.entries {
                let child = page(e.child())?;
                if child.level.checked_add(1) != Some(node.level) {
                    return Err(format!(
                        "child {} level {} under node {id} level {}",
                        e.child(),
                        child.level,
                        node.level
                    ));
                }
                let child_mbr = child.mbr();
                if child_mbr != e.mbr {
                    return Err(format!(
                        "entry MBR for child {} is stale: {:?} != {:?}",
                        e.child(),
                        e.mbr,
                        child_mbr
                    ));
                }
                stack.push(e.child());
            }
        }
        if item_count != self.len {
            return Err(format!(
                "tree reports len {} but holds {} items",
                self.len, item_count
            ));
        }
        Ok(())
    }
}

/// `ChooseSubtree` for internal levels: least area enlargement, ties by
/// smallest area.
fn choose_subtree_area(node: &Node, mbr: &Rect) -> PageId {
    debug_assert!(!node.is_empty());
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, e) in node.entries.iter().enumerate() {
        let key = (e.mbr.enlargement(mbr), e.mbr.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    node.entries[best].child()
}

/// The R* split: choose the split axis by minimum margin sum over all
/// legal distributions (sorted by lower and upper bounds), then the
/// distribution with minimal overlap (ties: minimal total area).
fn rstar_split(entries: Vec<Entry>, min_fill: usize) -> (Vec<Entry>, Vec<Entry>) {
    let m = entries.len();
    debug_assert!(m >= 2);
    let k_lo = min_fill.max(1).min(m - 1);
    let k_hi = (m - min_fill.max(1)).max(k_lo);

    // Candidate orderings: by (lower, upper) on each axis.
    let mut orderings: Vec<Vec<Entry>> = Vec::with_capacity(4);
    for axis in 0..2 {
        for bound in 0..2 {
            let mut v = entries.clone();
            v.sort_by(|a, b| {
                let ka = sort_key(&a.mbr, axis, bound);
                let kb = sort_key(&b.mbr, axis, bound);
                obstacle_geom::total_cmp(ka.0, kb.0).then(obstacle_geom::total_cmp(ka.1, kb.1))
            });
            orderings.push(v);
        }
    }

    // Margin sum per axis (two orderings each).
    let mut axis_margin = [0.0f64; 2];
    let mut prefix_suffix: Vec<(Vec<Rect>, Vec<Rect>)> = Vec::with_capacity(4);
    for (oi, ord) in orderings.iter().enumerate() {
        let (prefix, suffix) = prefix_suffix_mbrs(ord);
        for k in k_lo..=k_hi {
            axis_margin[oi / 2] += prefix[k - 1].margin() + suffix[k].margin();
        }
        prefix_suffix.push((prefix, suffix));
    }
    let axis = if axis_margin[0] <= axis_margin[1] {
        0
    } else {
        1
    };

    // Best distribution on the chosen axis across its two orderings.
    let mut best: Option<(usize, usize)> = None; // (ordering idx, k)
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    // Indexing two parallel tables (`orderings`, `prefix_suffix`) by the
    // same slot, so a range loop is the clear form here.
    #[allow(clippy::needless_range_loop)]
    for oi in (axis * 2)..(axis * 2 + 2) {
        let (prefix, suffix) = &prefix_suffix[oi];
        for k in k_lo..=k_hi {
            let left = prefix[k - 1];
            let right = suffix[k];
            let key = (left.intersection_area(&right), left.area() + right.area());
            if key < best_key {
                best_key = key;
                best = Some((oi, k));
            }
        }
    }
    let (oi, k) = best.expect("at least one distribution");
    let mut chosen = orderings.swap_remove(oi);
    let right = chosen.split_off(k);
    (chosen, right)
}

fn sort_key(r: &Rect, axis: usize, bound: usize) -> (f64, f64) {
    match (axis, bound) {
        (0, 0) => (r.min.x, r.max.x),
        (0, _) => (r.max.x, r.min.x),
        (_, 0) => (r.min.y, r.max.y),
        (_, _) => (r.max.y, r.min.y),
    }
}

/// `prefix[i]` = MBR of `ord[0..=i]`; `suffix[i]` = MBR of `ord[i..]`.
fn prefix_suffix_mbrs(ord: &[Entry]) -> (Vec<Rect>, Vec<Rect>) {
    let n = ord.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Rect::empty();
    for e in ord {
        acc = acc.union(&e.mbr);
        prefix.push(acc);
    }
    let mut suffix = vec![Rect::empty(); n + 1];
    let mut acc = Rect::empty();
    for i in (0..n).rev() {
        acc = acc.union(&ord[i].mbr);
        suffix[i] = acc;
    }
    (prefix, suffix)
}

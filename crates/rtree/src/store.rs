//! Simulated paged storage with I/O accounting.

use crate::buffer::LruBuffer;
use crate::entry::PageId;
use crate::node::Node;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O counters of one tree.
///
/// `reads` is the paper's "page accesses" metric: the number of page
/// fetches that missed the LRU buffer. `buffer_hits` counts the fetches
/// that were served from the buffer, and `writes` counts page write-backs
/// (structure modifications).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer misses — the page-access metric reported in the paper.
    pub reads: u64,
    /// Buffer hits (free accesses).
    pub buffer_hits: u64,
    /// Page writes caused by structural modifications.
    pub writes: u64,
}

impl IoStats {
    /// Total logical page fetches (hits + misses).
    pub fn fetches(&self) -> u64 {
        self.reads + self.buffer_hits
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads + rhs.reads,
            buffer_hits: self.buffer_hits + rhs.buffer_hits,
            writes: self.writes + rhs.writes,
        }
    }
}

impl std::ops::Sub for IoStats {
    type Output = IoStats;
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            reads: self.reads - rhs.reads,
            buffer_hits: self.buffer_hits - rhs.buffer_hits,
            writes: self.writes - rhs.writes,
        }
    }
}

thread_local! {
    /// Active per-query recorders of this thread: `(store address, token,
    /// counts)`. Every page access of a store adds to *all* of that
    /// store's entries, so nested snapshots (a semi-join wrapping the NN
    /// queries it issues) each see their own full window.
    static RECORDERS: RefCell<Vec<(usize, u64, IoStats)>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-query I/O attribution window over one tree's page accesses.
///
/// The tree-global counters (`PageStore::stats`) are shared by every
/// query of every thread, so before/after deltas silently misattribute
/// reads the moment two queries interleave. A snapshot instead registers a
/// **thread-local** recorder keyed by the store's address: page accesses
/// performed *by this thread* on *this tree* while the snapshot is alive
/// are added to it, and [`IoSnapshot::finish`] returns exactly those.
/// Concurrent queries on other threads never pollute the window, which is
/// what makes [`QueryStats`](IoStats) deltas trustworthy inside a
/// multi-threaded batch engine.
///
/// The handle is deliberately `!Send`: a query must finish its snapshot on
/// the thread that opened it (queries do not migrate threads here).
///
/// Windows are keyed by the watched backend's *address*, not by a concrete
/// store type: the paged `PageStore` and the packed backend both feed the
/// same recorder list, so per-query attribution works identically across
/// backends.
#[derive(Debug)]
pub struct IoSnapshot<'a> {
    key: usize,
    token: u64,
    /// Ties the window to the borrow of the tree it watches (so the keyed
    /// address stays stable) and pins the handle to its creating thread.
    _marker: PhantomData<(&'a (), *const ())>,
}

impl<'a> IoSnapshot<'a> {
    /// Opens a window over the accesses of the backend identified by
    /// `key` (its address, stable while the `&'a` borrow is alive).
    pub(crate) fn open(key: usize) -> IoSnapshot<'a> {
        let token = NEXT_TOKEN.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        });
        RECORDERS.with(|r| r.borrow_mut().push((key, token, IoStats::default())));
        IoSnapshot {
            key,
            token,
            _marker: PhantomData,
        }
    }

    /// The accesses recorded so far without closing the window.
    pub fn so_far(&self) -> IoStats {
        RECORDERS.with(|r| {
            r.borrow()
                .iter()
                .rev()
                .find(|(k, t, _)| *k == self.key && *t == self.token)
                .map(|(_, _, s)| *s)
                .unwrap_or_default()
        })
    }

    /// Closes the window and returns the accesses it attributed.
    pub fn finish(self) -> IoStats {
        self.so_far()
        // Drop unregisters the recorder.
    }
}

impl Drop for IoSnapshot<'_> {
    fn drop(&mut self) {
        RECORDERS.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(at) = r
                .iter()
                .rposition(|(k, t, _)| *k == self.key && *t == self.token)
            {
                r.remove(at);
            }
        });
    }
}

/// Adds one access to every recorder of this thread watching the backend
/// at `key` (no-op when none is active — the common single-query case
/// costs one thread-local read and an empty-vec scan).
pub(crate) fn record_access(key: usize, hit: bool) {
    RECORDERS.with(|r| {
        for (k, _, s) in r.borrow_mut().iter_mut() {
            if *k == key {
                if hit {
                    s.buffer_hits += 1;
                } else {
                    s.reads += 1;
                }
            }
        }
    });
}

/// In-memory page store: node storage, free-list, LRU buffer pool and
/// counters.
///
/// Reads take `&self`; the buffer and counters use interior mutability so
/// that query iterators holding `&RTree` can account their page accesses.
/// The buffer pool is the paper's single LRU behind one mutex: splitting
/// it across several locks was measured under the benchmark's two
/// workers and showed nothing (the tree is 0.4 % of query time), so there
/// is one pool. The store (and therefore [`crate::RTree`]) is `Sync`.
#[derive(Debug)]
pub struct PageStore {
    pages: Vec<Option<Node>>,
    free: Vec<PageId>,
    buffer: Mutex<LruBuffer>,
    reads: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
}

impl PageStore {
    /// Creates an empty store with the given buffer capacity (pages).
    pub fn new(buffer_pages: usize) -> Self {
        Self::from_slots(Vec::new(), buffer_pages)
    }

    /// Rebuilds a store from raw page slots (used when decoding a
    /// persisted image); `None` slots become free pages.
    pub(crate) fn from_slots(pages: Vec<Option<Node>>, buffer_pages: usize) -> Self {
        let free = pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i as PageId))
            .collect();
        PageStore {
            pages,
            free,
            buffer: Mutex::new(LruBuffer::new(buffer_pages)),
            reads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Raw page slots including freed holes (persistence support).
    pub(crate) fn slots(&self) -> &[Option<Node>] {
        &self.pages
    }

    /// Number of live (allocated, non-freed) pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Allocates a page for `node` and returns its id.
    pub fn allocate(&mut self, node: Node) -> PageId {
        self.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = self.free.pop() {
            self.pages[id as usize] = Some(node);
            id
        } else {
            self.pages.push(Some(node));
            (self.pages.len() - 1) as PageId
        }
    }

    /// Frees a page (node merged away).
    pub fn release(&mut self, id: PageId) {
        assert!(
            self.pages[id as usize].take().is_some(),
            "double free of page {id}"
        );
        self.buffer.lock().invalidate(id);
        self.free.push(id);
    }

    /// Opens a per-query attribution window over this store's accesses
    /// (see [`IoSnapshot`]).
    pub fn snapshot(&self) -> IoSnapshot<'_> {
        IoSnapshot::open(self as *const PageStore as usize)
    }

    /// Adds one fetch to every recorder of this thread watching this
    /// store. Only reads are recorded: structural writes require
    /// `&mut self`, which cannot coexist with a live snapshot borrow of
    /// the same store.
    fn record(&self, hit: bool) {
        record_access(self as *const PageStore as usize, hit);
    }

    /// Fetches a page for reading, going through the buffer and counting
    /// a page access on a miss.
    pub fn read(&self, id: PageId) -> &Node {
        let hit = self.buffer.lock().access(id);
        self.count_fetch(hit);
        self.record(hit);
        self.node(id)
    }

    fn count_fetch(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.reads };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Fetches a page for modification; counts like a read plus a write.
    pub fn read_mut(&mut self, id: PageId) -> &mut Node {
        let hit = self.buffer.get_mut().access(id);
        self.count_fetch(hit);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.pages[id as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("access to freed page {id}"))
    }

    /// Direct node access without I/O accounting (tree-internal
    /// bookkeeping; never used on query paths).
    pub fn node(&self, id: PageId) -> &Node {
        self.get(id)
            .unwrap_or_else(|| panic!("access to freed page {id}"))
    }

    /// [`PageStore::node`] for ids that may not name a live page (the
    /// structural check of a decoded image): `None` for a freed or
    /// out-of-range page instead of a panic.
    pub fn get(&self, id: PageId) -> Option<&Node> {
        self.pages.get(id as usize)?.as_ref()
    }

    /// Direct mutable access without I/O accounting.
    pub fn node_mut(&mut self, id: PageId) -> &mut Node {
        self.pages[id as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("access to freed page {id}"))
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            buffer_hits: self.hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (the buffer contents are left untouched, so a
    /// measured workload starts from a warm or cold buffer as the caller
    /// arranged).
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// Empties the buffer (cold start) and resizes it to `pages`.
    pub fn reset_buffer(&self, pages: usize) {
        let mut b = self.buffer.lock();
        b.clear();
        b.resize(pages);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer.lock().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> Node {
        Node::new(0)
    }

    #[test]
    fn allocate_read_counts_misses_and_hits() {
        let mut s = PageStore::new(1);
        let a = s.allocate(leaf());
        let b = s.allocate(leaf());
        s.reset_stats();
        s.read(a); // miss
        s.read(a); // hit
        s.read(b); // miss (evicts a)
        s.read(a); // miss
        let st = s.stats();
        assert_eq!(st.reads, 3);
        assert_eq!(st.buffer_hits, 1);
        assert_eq!(st.fetches(), 4);
    }

    #[test]
    fn release_and_reuse() {
        let mut s = PageStore::new(4);
        let a = s.allocate(leaf());
        assert_eq!(s.live_pages(), 1);
        s.release(a);
        assert_eq!(s.live_pages(), 0);
        let b = s.allocate(leaf());
        assert_eq!(b, a, "freed page id is reused");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = PageStore::new(4);
        let a = s.allocate(leaf());
        s.release(a);
        s.release(a);
    }

    #[test]
    #[should_panic(expected = "freed page")]
    fn read_after_free_panics() {
        let mut s = PageStore::new(4);
        let a = s.allocate(leaf());
        s.release(a);
        s.read(a);
    }

    #[test]
    fn snapshot_attributes_only_its_window() {
        let mut s = PageStore::new(1);
        let a = s.allocate(leaf());
        let b = s.allocate(leaf());
        s.read(a); // outside any window
        let snap = s.snapshot();
        s.read(a); // hit (a resident)
        s.read(b); // miss
        let io = snap.finish();
        assert_eq!(io.buffer_hits, 1);
        assert_eq!(io.reads, 1);
        assert_eq!(io.fetches(), 2);
        s.read(b); // after the window: unattributed
        assert_eq!(io.reads, 1);
    }

    #[test]
    fn snapshots_nest_and_ignore_other_stores() {
        let mut s = PageStore::new(0);
        let mut other = PageStore::new(0);
        let a = s.allocate(leaf());
        let o = other.allocate(leaf());
        let outer = s.snapshot();
        s.read(a);
        {
            let inner = s.snapshot();
            s.read(a);
            other.read(o); // different store: invisible to both windows
            assert_eq!(inner.finish().reads, 1);
        }
        s.read(a);
        let io = outer.finish();
        assert_eq!(io.reads, 3, "outer window spans the inner one");
    }

    #[test]
    fn snapshot_drop_order_is_not_lifo_sensitive() {
        let mut s = PageStore::new(0);
        let a = s.allocate(leaf());
        let first = s.snapshot();
        let second = s.snapshot();
        s.read(a);
        // Dropping `first` before `second` must not disturb `second`.
        assert_eq!(first.finish().reads, 1);
        s.read(a);
        assert_eq!(second.finish().reads, 2);
    }

    /// Replays an access sequence against a bare [`LruBuffer`], returning
    /// `(misses, hits)` — the reference model for the store's accounting.
    fn single_lru_reference(capacity: usize, accesses: &[PageId]) -> (u64, u64) {
        let mut b = LruBuffer::new(capacity);
        let mut misses = 0;
        let mut hits = 0;
        for &p in accesses {
            if b.access(p) {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        (misses, hits)
    }

    #[test]
    fn store_reproduces_bare_lru_counts_exactly() {
        // The store's accounting must be bit-for-bit the paper's single
        // LRU: same hits, same misses, on an adversarial access pattern
        // that exercises eviction, re-entry and skew.
        let capacity = 7;
        let mut s = PageStore::new(capacity);
        let pages: Vec<PageId> = (0..32).map(|_| s.allocate(leaf())).collect();
        s.reset_stats();
        let mut accesses = Vec::new();
        for i in 0..1000usize {
            // Skewed mix: hot head, cold tail, periodic scans.
            let p = match i % 7 {
                0..=2 => pages[i % 4],
                3 | 4 => pages[(i * 13) % 16],
                _ => pages[(i * 31) % 32],
            };
            accesses.push(p);
            s.read(p);
        }
        let (misses, hits) = single_lru_reference(capacity, &accesses);
        let st = s.stats();
        assert_eq!(st.reads, misses, "store misses must match the bare LRU");
        assert_eq!(st.buffer_hits, hits, "store hits must match the bare LRU");
    }

    #[test]
    fn stats_subtraction_gives_deltas() {
        let mut s = PageStore::new(0);
        let a = s.allocate(leaf());
        s.reset_stats();
        s.read(a);
        let before = s.stats();
        s.read(a);
        s.read(a);
        let delta = s.stats() - before;
        assert_eq!(delta.reads, 2);
    }
}

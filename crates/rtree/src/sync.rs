//! Concurrency shim: the workspace's only sanctioned mutex and clock.
//!
//! Two jobs, one file:
//!
//! 1. **`parking_lot`-style ergonomics over `std::sync::Mutex`** —
//!    `lock()` returns the guard directly (no `Result`). Lock poisoning
//!    is recovered: the protected state (the LRU buffer pool — see
//!    [`crate::buffer`] and the store's `buffer` field) is a cache whose
//!    worst corruption mode is a wrong hit/miss count, and a panicking
//!    reader thread should not wedge every other reader of a shared
//!    tree.
//!
//! 2. **A debug-gated lock-discipline checker.** Every [`Mutex`] gets a
//!    unique id; every acquisition (with its [`std::panic::Location`],
//!    via `#[track_caller]`) pushes onto a per-thread held-lock stack
//!    and feeds a global acquisition-order graph. Acquiring lock *B*
//!    while holding lock *A* records the edge *A → B*; if *B ⇝ A* is
//!    already reachable the orders are contradictory — a latent
//!    deadlock — and the checker panics immediately with both hold
//!    sites, even though this particular interleaving did not deadlock.
//!    Re-acquiring a lock the thread already holds (guaranteed
//!    self-deadlock with a non-reentrant mutex) panics likewise.
//!    [`assert_unlocked`] additionally asserts a thread holds *no* shim
//!    lock — the engine calls it before every LazyScene sweep so the
//!    buffer lock can never be held across an unbounded visibility
//!    expansion.
//!
//! The shim also wraps the two companion primitives the query service
//! needs: [`Condvar`] (whose `wait` releases and re-acquires through the
//! checker, so the held-stack stays truthful across a park) and
//! [`RwLock`]. The reader/writer lock is deliberately *not* tracked by
//! the order checker: service workers execute whole queries — including
//! LazyScene sweeps, which call [`assert_unlocked`] on entry — under a
//! read guard, and read guards do not exclude each other, so holding one
//! across a sweep cannot wedge other readers the way the buffer mutex
//! could. Writers are rare (edit batches) and take no shim mutex while
//! holding the write guard.
//!
//! All checking compiles away in release builds (`cfg(debug_assertions)`);
//! the release `lock()` is exactly the old thin wrapper. The static side
//! of the same discipline — no raw `std::sync::Mutex`, `RwLock`,
//! `Condvar`, `thread::spawn` or `Instant::now` outside this file and
//! the bench crate — is enforced by the `lock-discipline` pass of
//! `crates/lint`.

use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// Mutual exclusion with `parking_lot`-style (non-poisoning) locking and
/// a debug-build lock-order checker (see the module docs).
#[derive(Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(debug_assertions)]
    id: u64,
}

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            id: order::next_id(),
        }
    }

    /// Acquires the lock, blocking the current thread until it is free.
    /// A poisoned lock is recovered rather than propagated.
    ///
    /// Debug builds first run the lock-order checker, which panics on a
    /// cycle in the global acquisition-order graph (latent deadlock) or
    /// on a same-thread re-acquisition (certain deadlock).
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let site = std::panic::Location::caller();
        #[cfg(debug_assertions)]
        order::on_acquire(self.id, site);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        order::on_locked(self.id, site);
        MutexGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            id: self.id,
        }
    }

    /// Direct access through exclusive ownership — no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Guard returned by [`Mutex::lock`]; releases the lock (and pops the
/// debug held-lock stack) on drop.
///
/// The inner guard is an `Option` only so [`Condvar::wait`] can hand it
/// back to the OS primitive while the thread parks; it is `Some` for the
/// guard's entire observable lifetime.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    id: u64,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard holds the lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard holds the lock")
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            order::on_release(self.id);
        }
    }
}

/// Condition variable paired with the shim [`Mutex`].
///
/// `wait` keeps the debug lock-order checker truthful: the held-stack
/// entry is popped before the thread parks (the lock really is
/// released) and re-pushed — running the full cycle/re-entrancy check —
/// when the thread wakes holding the lock again.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases `guard` and blocks until notified, then
    /// re-acquires the lock and returns a fresh guard. Spurious wakeups
    /// are possible; callers loop on their predicate as usual.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        let id = guard.id;
        #[cfg(debug_assertions)]
        let site = std::panic::Location::caller();
        let inner = guard.inner.take().expect("guard holds the lock");
        #[cfg(debug_assertions)]
        order::on_release(id);
        drop(guard);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        #[cfg(debug_assertions)]
        {
            order::on_acquire(id, site);
            order::on_locked(id, site);
        }
        MutexGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            id,
        }
    }

    /// Wakes one thread blocked in [`Condvar::wait`].
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every thread blocked in [`Condvar::wait`].
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Reader/writer lock with the shim's non-poisoning conventions.
///
/// Deliberately untracked by the debug lock-order checker — see the
/// module docs: read guards do not exclude each other, and the query
/// service executes whole queries (including [`assert_unlocked`]-guarded
/// LazyScene sweeps) under one.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps `value` in a new reader/writer lock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquires shared read access; a poisoned lock is recovered.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access; a poisoned lock is recovered.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Direct access through exclusive ownership — no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Panics (debug builds only) when the current thread holds any shim
/// lock. Call it at the entry of operations that must never run under a
/// lock — e.g. a LazyScene sweep, whose A\* expansion re-enters the
/// buffer pool and whose runtime is unbounded.
#[inline]
pub fn assert_unlocked(context: &str) {
    #[cfg(debug_assertions)]
    order::assert_unlocked(context);
    #[cfg(not(debug_assertions))]
    let _ = context;
}

/// Monotonic stopwatch: the workspace's only sanctioned wall-clock
/// source outside the bench crate.
///
/// Query operators time themselves through this facade rather than
/// calling `std::time::Instant::now` directly, so clock access stays
/// auditable (the `lock-discipline` lint pass forbids raw `Instant`
/// elsewhere) and can be centrally stubbed or coarsened later.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    t0: std::time::Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            t0: std::time::Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

/// Debug-build lock-order tracking: per-thread held stacks + a global
/// acquisition-order graph. See the module docs for the protocol.
#[cfg(debug_assertions)]
mod order {
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex as StdMutex, OnceLock};

    type Site = &'static Location<'static>;

    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    pub(super) fn next_id() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    thread_local! {
        /// Locks the current thread holds, acquisition order, with the
        /// `#[track_caller]` site of each acquisition.
        static HELD: RefCell<Vec<(u64, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// First observation of an "acquired `to` while holding `from`"
    /// edge: where `from` was held and where `to` was requested.
    struct Edge {
        held_site: Site,
        acquire_site: Site,
    }

    /// Global acquisition-order graph: `from → (to → first edge)`.
    fn graph() -> &'static StdMutex<HashMap<u64, HashMap<u64, Edge>>> {
        static G: OnceLock<StdMutex<HashMap<u64, HashMap<u64, Edge>>>> = OnceLock::new();
        G.get_or_init(|| StdMutex::new(HashMap::new()))
    }

    fn reachable(g: &HashMap<u64, HashMap<u64, Edge>>, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(es) = g.get(&n) {
                stack.extend(es.keys().copied());
            }
        }
        false
    }

    /// Pre-acquisition check: record held→acquiring edges, panic on a
    /// contradiction. Runs *before* blocking on the lock so the report
    /// fires even on interleavings that would have deadlocked for real.
    pub(super) fn on_acquire(id: u64, site: Site) {
        // Build the panic message inside the TLS borrow, panic outside
        // it: unwinding drops live guards, whose Drop re-enters HELD.
        let msg: Option<String> = HELD
            .try_with(|h| {
                let held = h.borrow();
                if let Some(&(_, prev)) = held.iter().find(|&&(hid, _)| hid == id) {
                    return Some(format!(
                        "lock-discipline: re-acquiring mutex #{id} already held by this \
                         thread (held at {prev}, re-requested at {site}) — certain deadlock"
                    ));
                }
                if held.is_empty() {
                    return None;
                }
                let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
                for &(hid, hsite) in held.iter() {
                    // Adding hid → id: contradiction iff id ⇝ hid exists.
                    if reachable(&g, id, hid) {
                        let reverse = match g.get(&id).and_then(|m| m.get(&hid)) {
                            Some(e) => format!(
                                "the reverse order was first observed holding #{id} at \
                                 {} while acquiring #{hid} at {}",
                                e.held_site, e.acquire_site
                            ),
                            None => format!(
                                "#{id} already reaches #{hid} through a longer \
                                 acquisition chain"
                            ),
                        };
                        return Some(format!(
                            "lock-discipline: lock-order cycle — this thread holds mutex \
                             #{hid} (acquired at {hsite}) while acquiring mutex #{id} (at \
                             {site}), but {reverse}"
                        ));
                    }
                    g.entry(hid).or_default().entry(id).or_insert(Edge {
                        held_site: hsite,
                        acquire_site: site,
                    });
                }
                None
            })
            .ok()
            .flatten();
        if let Some(m) = msg {
            panic!("{m}");
        }
    }

    /// Post-acquisition: push onto the held stack.
    pub(super) fn on_locked(id: u64, site: Site) {
        let _ = HELD.try_with(|h| h.borrow_mut().push((id, site)));
    }

    /// Guard drop: pop the newest matching entry (releases need not be
    /// LIFO — guards can outlive later acquisitions).
    pub(super) fn on_release(id: u64) {
        let _ = HELD.try_with(|h| {
            let mut v = h.borrow_mut();
            if let Some(pos) = v.iter().rposition(|&(hid, _)| hid == id) {
                v.remove(pos);
            }
        });
    }

    pub(super) fn assert_unlocked(context: &str) {
        let msg: Option<String> = HELD
            .try_with(|h| {
                let held = h.borrow();
                if held.is_empty() {
                    return None;
                }
                let sites: Vec<String> =
                    held.iter().map(|(id, s)| format!("#{id} at {s}")).collect();
                Some(format!(
                    "lock-discipline: {context} entered while this thread holds {} shim \
                     lock(s): {}",
                    held.len(),
                    sites.join(", ")
                ))
            })
            .ok()
            .flatten();
        if let Some(m) = msg {
            panic!("{m}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips_values() {
        let m = Mutex::new(41u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn consistent_nesting_order_is_clean() {
        // a → b in two threads, never inverted: no cycle, no panic.
        let a = std::sync::Arc::new(Mutex::new(0u32));
        let b = std::sync::Arc::new(Mutex::new(0u32));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..100 {
                        let mut ga = a.lock();
                        let mut gb = b.lock();
                        *ga += 1;
                        *gb += 1;
                    }
                });
            }
        });
        assert_eq!(*a.lock(), 200);
        assert_eq!(*b.lock(), 200);
    }

    #[test]
    fn non_lifo_release_keeps_the_held_stack_consistent() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release out of acquisition order
        drop(gb);
        assert_unlocked("after non-LIFO release"); // must not panic
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn detects_inverted_two_mutex_acquisition() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records a → b
        }
        let _gb = b.lock();
        let _ga = a.lock(); // b → a closes the cycle: panic with both sites
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "certain deadlock")]
    fn detects_same_thread_relock() {
        let m = Mutex::new(0u32);
        let _g = m.lock();
        let _g2 = m.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-discipline: LazyScene sweep")]
    fn assert_unlocked_trips_under_a_held_lock() {
        let m = Mutex::new(0u32);
        let _g = m.lock();
        assert_unlocked("LazyScene sweep");
    }

    #[test]
    fn assert_unlocked_passes_when_free() {
        let m = Mutex::new(0u32);
        drop(m.lock());
        assert_unlocked("test context");
    }

    #[test]
    fn condvar_hands_a_value_across_threads() {
        let slot = Mutex::new(None::<u32>);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                *slot.lock() = Some(7);
                cv.notify_all();
            });
            let mut g = slot.lock();
            while g.is_none() {
                g = cv.wait(g);
            }
            assert_eq!(*g, Some(7));
        });
    }

    #[test]
    fn condvar_wait_releases_the_held_stack() {
        // While parked in `wait` the thread must not count as holding
        // the mutex: another thread asserts progress, and after the
        // wakeup the woken thread holds it again (guard still works).
        let state = Mutex::new(0u32);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = state.lock();
                while *g == 0 {
                    g = cv.wait(g);
                }
                *g += 10;
            });
            loop {
                let mut g = state.lock();
                // This lock() succeeding at all proves the waiter
                // released the mutex; the order checker would also trip
                // on a stale held-stack entry in debug builds.
                if *g == 0 {
                    *g = 1;
                    cv.notify_all();
                    break;
                }
            }
        });
        assert_eq!(*state.lock(), 11);
        assert_unlocked("after condvar round-trip");
    }

    #[test]
    fn rwlock_allows_concurrent_readers_and_exclusive_writes() {
        let l = RwLock::new(5u32);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    fn rwlock_read_guard_is_invisible_to_the_order_checker() {
        let l = RwLock::new(0u32);
        let _r = l.read();
        // Untracked by design: a sweep under a read guard must pass.
        assert_unlocked("LazyScene sweep under world read lock");
    }

    #[test]
    fn stopwatch_reports_monotone_elapsed() {
        let sw = Stopwatch::start();
        let e1 = sw.elapsed();
        let e2 = sw.elapsed();
        assert!(e2 >= e1);
    }
}

//! NaN-safe total ordering for floats.
//!
//! The paper's Fig. 8 correctness argument assumes distance bounds are
//! *totally ordered*: every comparison in the fixpoint loop, every
//! priority-queue pop, and every plane-sweep status sort must agree on a
//! single consistent order or the pruning invariants silently break. The
//! historical idiom `a.partial_cmp(&b).unwrap()` only delivers that when
//! no NaN ever reaches a comparator — and panics (mid-query, mid-batch)
//! the first time one does.
//!
//! This module is the one sanctioned way to compare floats in the
//! workspace. The `nan-ordering` lint pass (`crates/lint`) forbids
//! `.partial_cmp(..)` everywhere else.
//!
//! # NaN policy
//!
//! [`total_cmp`] delegates to [`f64::total_cmp`] (IEEE 754
//! `totalOrder`): `-NaN < -inf < … < -0.0 < +0.0 < … < +inf < +NaN`.
//! A NaN produced by a degenerate geometry therefore sorts
//! deterministically to one end instead of aborting the whole query.
//! Callers that must *reject* NaN (e.g. tree keys) still use
//! `debug_assert!(x.is_finite())` at the construction boundary; the
//! comparator itself never panics.

use std::cmp::Ordering;

/// Total order on `f64`, never panics. See the module docs for the NaN
/// policy. This is the comparator every sort / heap / status structure
/// in the workspace goes through.
#[inline]
pub fn total_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Sort a slice by an `f64` key under [`total_cmp`] (stable).
///
/// Replaces the `v.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap())`
/// idiom: same order for finite keys, deterministic (not panicking) when
/// a key is NaN.
#[inline]
pub fn sort_by_f64_key<T, F: FnMut(&T) -> f64>(v: &mut [T], mut key: F) {
    v.sort_by(|a, b| total_cmp(key(a), key(b)));
}

/// An `f64` that implements `Ord` under [`total_cmp`]: the one key type
/// of every priority queue in the workspace (R-tree best-first searches,
/// A\* and Dijkstra frontiers, the operators' pending heaps).
///
/// Distances flowing through those queues are finite by construction
/// (Euclidean distances of finite coordinates); [`OrdF64::new`] asserts
/// that in debug builds, and a NaN that gets past it sorts last instead
/// of panicking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Wraps a distance value, debug-asserting it is not NaN.
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "NaN distance in priority queue");
        OrdF64(v)
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        total_cmp(self.0, other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cmp_agrees_with_partial_cmp_on_finite_inputs() {
        let xs = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1e300, f64::INFINITY];
        for &a in &xs {
            for &b in &xs {
                if a == b && a.is_sign_positive() != b.is_sign_positive() {
                    // -0.0 vs +0.0: totalOrder distinguishes, PartialOrd
                    // does not. Any consistent answer is fine; just make
                    // sure it is antisymmetric.
                    assert_eq!(total_cmp(a, b), total_cmp(b, a).reverse());
                    continue;
                }
                assert_eq!(total_cmp(a, b), a.partial_cmp(&b).unwrap());
            }
        }
    }

    #[test]
    fn nan_inputs_do_not_panic_and_sort_to_the_ends() {
        let mut v = [1.0, f64::NAN, -2.0, -f64::NAN, 0.0, f64::INFINITY];
        v.sort_by(|a, b| total_cmp(*a, *b));
        assert!(v[0].is_nan() && v[0].is_sign_negative());
        assert!(v[5].is_nan() && v[5].is_sign_positive());
        assert_eq!(&v[1..5], &[-2.0, 0.0, 1.0, f64::INFINITY]);
    }

    #[test]
    fn total_cmp_is_a_total_order() {
        // Reflexive / antisymmetric / transitive over a NaN-laced set.
        let xs = [f64::NAN, -f64::NAN, -1.0, 0.0, 2.0, f64::NEG_INFINITY];
        for &a in &xs {
            assert_eq!(total_cmp(a, a), Ordering::Equal);
            for &b in &xs {
                assert_eq!(total_cmp(a, b), total_cmp(b, a).reverse());
                for &c in &xs {
                    if total_cmp(a, b) == Ordering::Less && total_cmp(b, c) == Ordering::Less {
                        assert_eq!(total_cmp(a, c), Ordering::Less);
                    }
                }
            }
        }
    }

    #[test]
    fn keyed_sort_handles_nan_keys() {
        let mut pts = vec![(0u32, 2.0), (1, f64::NAN), (2, -1.0), (3, 0.5)];
        sort_by_f64_key(&mut pts, |p| p.1);
        let ids: Vec<u32> = pts.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![2, 3, 0, 1]); // NaN key sorts last, no panic
    }

    #[test]
    fn keyed_sort_is_stable() {
        let mut pts = vec![(0u32, 1.0), (1, 1.0), (2, 0.0), (3, 1.0)];
        sort_by_f64_key(&mut pts, |p| p.1);
        let ids: Vec<u32> = pts.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![2, 0, 1, 3]);
    }

    #[test]
    fn orders_like_f64() {
        assert!(OrdF64::new(1.0) < OrdF64::new(2.0));
        assert!(OrdF64::new(-1.0) < OrdF64::new(0.0));
        assert_eq!(OrdF64::new(3.5), OrdF64::new(3.5));
    }

    #[test]
    fn works_in_a_binary_heap_as_min_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        for v in [3.0, 1.0, 2.0] {
            h.push(Reverse(OrdF64::new(v)));
        }
        assert_eq!(h.pop().unwrap().0 .0, 1.0);
        assert_eq!(h.pop().unwrap().0 .0, 2.0);
        assert_eq!(h.pop().unwrap().0 .0, 3.0);
    }

    #[test]
    fn nan_keys_order_deterministically_without_panicking() {
        // Regression for the NaN burn-down: a NaN key reaching the heap
        // (bypassing `new`'s debug assert) must not abort the query.
        let nan = OrdF64(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(OrdF64(1.0) < nan);
        assert!(OrdF64(f64::INFINITY) < nan);
        let mut v = [nan, OrdF64(2.0), OrdF64(-1.0)];
        v.sort();
        assert_eq!(v[0].0, -1.0);
        assert_eq!(v[1].0, 2.0);
        assert!(v[2].0.is_nan());
    }
}

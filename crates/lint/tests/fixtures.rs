//! Golden-fixture suite: one tripping and one passing fixture per pass.
//!
//! Fixtures live under `crates/lint/fixtures/` (excluded from the
//! workspace walk) and are linted here under a *fake* repo-relative
//! path chosen so the pass under test is in scope and nothing is
//! allow-listed away.

use obstacle_lint::{
    lint_source, LOCK_DISCIPLINE, NAN_ORDERING, NO_UNWRAP_HOT_PATH, TOMBSTONE_SAFETY,
};

/// Lint `src` as if it lived at `fake_path`, returning the set of pass
/// names that fired.
fn passes_fired(fake_path: &str, src: &str) -> Vec<&'static str> {
    let violations = lint_source(fake_path, src);
    let mut names: Vec<&'static str> = violations.iter().map(|v| v.pass).collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn tombstone_safety_fixture_trips() {
    let fired = passes_fired(
        "crates/core/src/range.rs",
        include_str!("../fixtures/tombstone_safety_trip.rs"),
    );
    assert_eq!(fired, vec![TOMBSTONE_SAFETY]);
}

#[test]
fn tombstone_safety_fixture_passes() {
    let fired = passes_fired(
        "crates/core/src/range.rs",
        include_str!("../fixtures/tombstone_safety_clean.rs"),
    );
    assert!(fired.is_empty(), "unexpected violations: {fired:?}");
}

#[test]
fn nan_ordering_fixture_trips() {
    let fired = passes_fired(
        "crates/rtree/src/query/nn.rs",
        include_str!("../fixtures/nan_ordering_trip.rs"),
    );
    assert_eq!(fired, vec![NAN_ORDERING]);
}

#[test]
fn nan_ordering_fixture_passes() {
    let fired = passes_fired(
        "crates/rtree/src/query/nn.rs",
        include_str!("../fixtures/nan_ordering_clean.rs"),
    );
    assert!(fired.is_empty(), "unexpected violations: {fired:?}");
}

#[test]
fn no_unwrap_hot_path_fixture_trips() {
    let src = include_str!("../fixtures/no_unwrap_hot_path_trip.rs");
    let fired = passes_fired("crates/core/src/distance.rs", src);
    assert_eq!(fired, vec![NO_UNWRAP_HOT_PATH]);
    // Both the unwrap and the expect must be reported individually.
    let violations = lint_source("crates/core/src/distance.rs", src);
    assert_eq!(violations.len(), 2);
}

#[test]
fn no_unwrap_hot_path_fixture_passes() {
    let fired = passes_fired(
        "crates/core/src/distance.rs",
        include_str!("../fixtures/no_unwrap_hot_path_clean.rs"),
    );
    assert!(fired.is_empty(), "unexpected violations: {fired:?}");
}

#[test]
fn no_unwrap_pass_is_scoped_to_hot_path_modules() {
    // The same tripping source is fine outside the hot-path module list.
    let fired = passes_fired(
        "crates/datagen/src/city.rs",
        include_str!("../fixtures/no_unwrap_hot_path_trip.rs"),
    );
    assert!(fired.is_empty(), "unexpected violations: {fired:?}");
}

#[test]
fn lock_discipline_fixture_trips() {
    let src = include_str!("../fixtures/lock_discipline_trip.rs");
    let fired = passes_fired("crates/core/src/engine.rs", src);
    assert_eq!(fired, vec![LOCK_DISCIPLINE]);
    // Raw mutex, rwlock, condvar, spawn and clock: five violations.
    let violations = lint_source("crates/core/src/engine.rs", src);
    assert_eq!(violations.len(), 5);
}

#[test]
fn lock_discipline_fixture_passes() {
    let fired = passes_fired(
        "crates/core/src/engine.rs",
        include_str!("../fixtures/lock_discipline_clean.rs"),
    );
    assert!(fired.is_empty(), "unexpected violations: {fired:?}");
}

#[test]
fn lock_discipline_is_waived_inside_the_sync_shim() {
    // The shim itself wraps std::sync::Mutex — allow-listed by path.
    let fired = passes_fired(
        "crates/rtree/src/sync.rs",
        include_str!("../fixtures/lock_discipline_trip.rs"),
    );
    assert!(fired.is_empty(), "unexpected violations: {fired:?}");
}

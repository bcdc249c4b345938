//! The invariant passes and their allow-list configuration.
//!
//! Each pass is *named* and *allow-listable* at two levels:
//!
//! * a built-in per-pass file allow-list (the modules whose job is to be
//!   the one sanctioned home of the pattern — e.g. the `sync` shim for
//!   the lock primitives, `geom/order.rs` for float comparison);
//! * an inline annotation `// lint:allow(<pass>): <reason>` on the
//!   violating line or the line directly above it, for the rare
//!   invariant-documented exception.
//!
//! Paths are workspace-relative with `/` separators; an allow-list entry
//! ending in `/` matches the whole subtree.

use crate::lexer::{Comment, TokKind, Token};

/// A single rule violation, keyed for stable `file:line: [pass]` output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// The pass that fired (one of [`PASS_NAMES`]).
    pub pass: &'static str,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

/// Pass (1): raw tombstone-blind accessors. PR 7's stale-id bug was
/// `semi_join` enumerating `polygons()` instead of `live_polygons()`.
pub const TOMBSTONE_SAFETY: &str = "tombstone-safety";
/// Pass (2): floats must be compared through `obstacle_geom::total_cmp`.
pub const NAN_ORDERING: &str = "nan-ordering";
/// Pass (3): no `unwrap()`/`expect()` in hot-path operator modules.
pub const NO_UNWRAP_HOT_PATH: &str = "no-unwrap-hot-path";
/// Pass (4): lock/clock/thread primitives only through the `sync` shim.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";

/// Every pass name, in reporting order.
pub const PASS_NAMES: [&str; 4] = [
    TOMBSTONE_SAFETY,
    NAN_ORDERING,
    NO_UNWRAP_HOT_PATH,
    LOCK_DISCIPLINE,
];

/// Files allowed to call raw `points()` / `polygons()` accessors: the
/// index module that owns the tombstone representation itself.
const TOMBSTONE_ALLOW: &[&str] = &["crates/core/src/engine.rs"];

/// The one sanctioned home of float comparison.
const NAN_ALLOW: &[&str] = &["crates/geom/src/order.rs"];

/// Hot-path modules where `unwrap()`/`expect()` is forbidden outside
/// tests: the six paper operators, the distance/path engines, the brute
/// oracle, the resident query service, the lazy A\* scene with the
/// rotational sweep it runs, and the two tree-image byte decoders (with
/// the packed read path that trusts what they accepted).
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/brute.rs",
    "crates/core/src/closest_pair.rs",
    "crates/core/src/distance.rs",
    "crates/core/src/join.rs",
    "crates/core/src/nn.rs",
    "crates/core/src/path.rs",
    "crates/core/src/range.rs",
    "crates/core/src/semi_join.rs",
    "crates/core/src/service.rs",
    "crates/geom/src/packed.rs",
    "crates/rtree/src/packed.rs",
    "crates/rtree/src/persist.rs",
    "crates/visibility/src/astar.rs",
    "crates/visibility/src/sweep.rs",
];

/// Files/subtrees allowed to touch raw lock, thread and clock
/// primitives: the shim that wraps them, and the bench crate (whose
/// whole job is timing and thread orchestration).
const LOCK_ALLOW: &[&str] = &["crates/rtree/src/sync.rs", "crates/bench/"];

fn path_matches(file: &str, entry: &str) -> bool {
    if let Some(prefix) = entry.strip_suffix('/') {
        file.starts_with(prefix) && file[prefix.len()..].starts_with('/')
    } else {
        file == entry
    }
}

fn allow_listed(file: &str, list: &[&str]) -> bool {
    list.iter().any(|e| path_matches(file, e))
}

/// Lines carrying a `lint:allow(pass-a, pass-b): reason` annotation.
fn inline_allows(comments: &[Comment]) -> Vec<(usize, Vec<String>)> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let passes: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !passes.is_empty() {
            out.push((c.line, passes));
        }
    }
    out
}

fn is_inline_allowed(allows: &[(usize, Vec<String>)], pass: &str, line: usize) -> bool {
    allows
        .iter()
        .any(|(l, ps)| (*l == line || *l + 1 == line) && ps.iter().any(|p| p == pass))
}

fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Matches `seg0 :: seg1 :: … :: segN` starting at token `i`.
fn path_seq(tokens: &[Token], i: usize, segs: &[&str]) -> bool {
    let mut at = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !(punct(tokens, at, ':') && punct(tokens, at + 1, ':')) {
                return false;
            }
            at += 2;
        }
        if ident(tokens, at) != Some(*seg) {
            return false;
        }
        at += 1;
    }
    true
}

/// Runs every pass over one lexed file. `file` is the workspace-relative
/// path (`/`-separated) the allow-lists are keyed on.
pub fn run_passes(
    file: &str,
    tokens: &[Token],
    comments: &[Comment],
    test_mask: &[bool],
) -> Vec<Violation> {
    let allows = inline_allows(comments);
    // Integration tests, benches and examples are test/driver code for
    // the purposes of the tests-exempt pass (3).
    let file_is_test = file
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches");
    let mut out = Vec::new();

    let mut push = |pass: &'static str, line: usize, message: String| {
        if !is_inline_allowed(&allows, pass, line) {
            out.push(Violation {
                file: file.to_string(),
                line,
                pass,
                message,
            });
        }
    };

    let tombstone = !allow_listed(file, TOMBSTONE_ALLOW);
    let nan = !allow_listed(file, NAN_ALLOW);
    let hot_path = HOT_PATH_FILES.iter().any(|p| path_matches(file, p));
    let lock = !allow_listed(file, LOCK_ALLOW);

    for i in 0..tokens.len() {
        let line = tokens[i].line;
        let in_test = test_mask.get(i).copied().unwrap_or(false) || file_is_test;

        // (1) tombstone-safety: `.points()` / `.polygons()` method calls.
        if tombstone && punct(tokens, i, '.') {
            if let Some(name) = ident(tokens, i + 1) {
                if matches!(name, "points" | "polygons" | "raw_points" | "raw_polygons")
                    && punct(tokens, i + 2, '(')
                    && punct(tokens, i + 3, ')')
                {
                    push(
                        TOMBSTONE_SAFETY,
                        line,
                        format!(
                            "raw `.{name}()` ignores tombstones (the PR 7 stale-id bug \
                             class); enumerate through `live_points()` / `live_polygons()`"
                        ),
                    );
                }
            }
        }

        // (2) nan-ordering: any `.partial_cmp` call. `fn partial_cmp`
        // trait-impl definitions have no preceding `.` and do not match.
        if nan && punct(tokens, i, '.') && ident(tokens, i + 1) == Some("partial_cmp") {
            push(
                NAN_ORDERING,
                line,
                "float comparison via `.partial_cmp(..)` panics (or lies) on NaN; use \
                 `obstacle_geom::total_cmp` / `sort_by_f64_key`"
                    .to_string(),
            );
        }

        // (3) no-unwrap-hot-path: `.unwrap()` / `.expect(` outside tests.
        if hot_path && !in_test && punct(tokens, i, '.') {
            if let Some(name) = ident(tokens, i + 1) {
                if matches!(name, "unwrap" | "expect") && punct(tokens, i + 2, '(') {
                    push(
                        NO_UNWRAP_HOT_PATH,
                        line,
                        format!(
                            "`.{name}(..)` in a hot-path operator module can abort a whole \
                             batch; restructure to `Option` flow, or document the invariant \
                             with `// lint:allow({NO_UNWRAP_HOT_PATH}): <why>`"
                        ),
                    );
                }
            }
        }

        // (4) lock-discipline: raw primitives outside the shim.
        if lock {
            if path_seq(tokens, i, &["std", "sync", "Mutex"]) {
                push(
                    LOCK_DISCIPLINE,
                    line,
                    "raw `std::sync::Mutex` bypasses the lock-order checker; use \
                     `obstacle_rtree::sync::Mutex`"
                        .to_string(),
                );
            }
            if path_seq(tokens, i, &["std", "sync", "RwLock"]) {
                push(
                    LOCK_DISCIPLINE,
                    line,
                    "raw `std::sync::RwLock` bypasses the shim's poison recovery; use \
                     `obstacle_rtree::sync::RwLock`"
                        .to_string(),
                );
            }
            if path_seq(tokens, i, &["std", "sync", "Condvar"]) {
                push(
                    LOCK_DISCIPLINE,
                    line,
                    "raw `std::sync::Condvar` cannot park on the shim mutex (the debug \
                     held-stack would go stale); use `obstacle_rtree::sync::Condvar`"
                        .to_string(),
                );
            }
            if path_seq(tokens, i, &["thread", "spawn"]) && !(i > 0 && punct(tokens, i - 1, '.')) {
                push(
                    LOCK_DISCIPLINE,
                    line,
                    "`thread::spawn` creates untracked free-running threads; use scoped \
                     threads (`std::thread::scope`) so joins are structural"
                        .to_string(),
                );
            }
            // `std::time::Instant::now()` matches both arms; the bare
            // `Instant::now` arm stands down when a `time::` qualifier
            // precedes it so the site is reported exactly once.
            let qualified = i >= 3
                && punct(tokens, i - 1, ':')
                && punct(tokens, i - 2, ':')
                && ident(tokens, i - 3) == Some("time");
            if (path_seq(tokens, i, &["Instant", "now"]) && !qualified)
                || path_seq(tokens, i, &["std", "time", "Instant"])
            {
                push(
                    LOCK_DISCIPLINE,
                    line,
                    "raw `Instant` timing belongs to the bench crate; operators time \
                     themselves through `obstacle_rtree::sync::Stopwatch`"
                        .to_string(),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_region_mask};

    fn lint(file: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        run_passes(file, &lexed.tokens, &lexed.comments, &mask)
    }

    #[test]
    fn path_matching_understands_subtree_entries() {
        assert!(path_matches("crates/bench/src/setup.rs", "crates/bench/"));
        assert!(!path_matches("crates/benchmark/src/x.rs", "crates/bench/"));
        assert!(path_matches(
            "crates/geom/src/order.rs",
            "crates/geom/src/order.rs"
        ));
    }

    #[test]
    fn inline_allow_suppresses_only_its_pass_and_lines() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // lint:allow(no-unwrap-hot-path): invariant documented here
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
        let v = lint("crates/core/src/range.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn std_mutex_and_instant_flag_outside_the_shim_only() {
        let src = "use std::sync::Mutex;\nfn t() { let _ = std::time::Instant::now(); }\n";
        assert!(lint("crates/rtree/src/sync.rs", src).is_empty());
        assert!(lint("crates/bench/src/setup.rs", src).is_empty());
        let v = lint("crates/core/src/batch.rs", src);
        assert!(v.iter().any(|x| x.pass == LOCK_DISCIPLINE && x.line == 1));
        assert!(v.iter().any(|x| x.pass == LOCK_DISCIPLINE && x.line == 2));
    }

    #[test]
    fn scoped_spawn_is_not_thread_spawn() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(lint("crates/core/src/batch.rs", src).is_empty());
        let v = lint(
            "crates/core/src/batch.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn partial_cmp_definition_is_not_a_call() {
        let src = "\
impl PartialOrd for D {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
";
        assert!(lint("crates/visibility/src/astar.rs", src).is_empty());
    }
}

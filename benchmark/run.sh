#!/usr/bin/env bash
# The repo benchmark's one entry point (see README.md, ../BENCHMARK.json).
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       Builds the benchmark package (release, offline) and runs one
#       workload in its own process. The last stdout line is the result
#       JSON. --trace 1 is the per-layer replay; it also writes
#       benchmark/out/trace-W.jsonl.
#   run.sh --suite OUT.json [--seeds 1,2,..] [--workloads a,b] [--trace] [--idle S]
#       A full set of runs (default: seeds 1..10 on every workload), with
#       medians and quartile spreads against the bounds; --idle S sleeps
#       S seconds before each run (a set of cold starts).
#   run.sh --compare A.json B.json
#       Compares two sets; exits non-zero when B is worse than A.
#   run.sh --check
#       cargo fmt --check, clippy -D warnings and the unit tests of the
#       benchmark package.
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
MANIFEST="$HERE/Cargo.toml"
# A relative CARGO_TARGET_DIR resolves against the caller's directory, so
# cargo is never run from another one.
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"

case "${1:-}" in
  --check)
    cargo fmt --manifest-path "$MANIFEST" --check
    cargo clippy --offline --manifest-path "$MANIFEST" --target-dir "$TARGET" --all-targets -- -D warnings
    cargo test -q --offline --manifest-path "$MANIFEST" --target-dir "$TARGET"
    ;;
  --suite)
    shift
    exec python3 "$HERE/tools/suite.py" run "$@"
    ;;
  --compare)
    shift
    exec python3 "$HERE/tools/suite.py" compare "$@"
    ;;
  *)
    BENCH_COMMIT="$(git -C "$HERE" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
      cargo build -q --release --offline --manifest-path "$MANIFEST" --target-dir "$TARGET"
    exec "$TARGET/release/obstacle_benchmark" --out-dir "$HERE/out" "$@"
    ;;
esac

#!/usr/bin/env bash
# Tier-1 gate, fully offline. Usage:
#
#   ./ci.sh                  # every stage, in order
#   ./ci.sh build test       # just those stages (debuggable in isolation)
#
# Stages:
#   build   release build of every target
#   test    full test suite (debug)
#   path    path-scaling wall-clock gate (release; see path_scaling.rs)
#   batch   batch-engine determinism + scaling gate (release)
#   updates interleaved update/query oracle suite: edits through
#           apply_updates must never leave a stale scene — every answer
#           bit-identical to a fresh-built engine (release)
#   serve   resident-service gate (release): the soak suite (concurrent
#           submitters x apply_updates on both backends, every answer
#           bit-identical to a sequential replay; exact admission
#           counts; ticket cancellation) plus an obstacle_cli serve
#           smoke run over both the stdin protocol and the open-loop
#           generator
#   benchmark the repo benchmark (BENCHMARK.json, benchmark/) must keep
#           compiling against the public API and answering correctly:
#           its own fmt/clippy/unit-test check, then a short untraced run
#           of every workload, each of which must end with
#           "correct": true (release; numbers from these short runs are
#           not performance claims)
#   analyze in-tree static analysis: obstacle_lint must report the
#           workspace clean across all four invariant passes, and the
#           debug lock-order-cycle / held-lock-across-sweep checker
#           tests must pass
#   sanitize optional ThreadSanitizer smoke run of the sync-shim tests;
#           auto-skipped (with a message) when the toolchain lacks
#           -Zsanitizer support (stable rustc)
#   fmt     cargo fmt --check
#   clippy  cargo clippy --all-targets -D warnings
#
# Any failure fails the script; a per-stage timing summary prints at the
# end so slow gates are attributable.
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(build test path batch updates serve benchmark analyze sanitize fmt clippy)
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=("${ALL_STAGES[@]}")
fi

SUMMARY=()

stage_build() {
  cargo build --release --all-targets --offline
}

stage_test() {
  cargo test -q --offline
}

stage_path() {
  # Long obstructed paths must stay fast: corner-to-corner at |O| = 2000
  # within 2 s (the pre-lazy-A* engine took ~21 s). Wall-clock gates are
  # meaningless in debug builds, so this runs the release binary.
  cargo test -q --offline --release -p obstacle-core --test path_scaling -- --ignored
}

stage_batch() {
  # The concurrent batch engine must produce results identical to the
  # sequential loop at every thread count, and an 8-thread batch must
  # beat 1 thread by >= 2x wherever >= 4 cores are available (the
  # assertion degrades gracefully on core-starved CI runners — see the
  # test header). Direct distance_join / semi_join calls, which fan out
  # over one worker per core, must return the inline run's rows and
  # beat it by >= 1.3x on >= 2 cores. One test at a time: two
  # wall-clock gates must not share the cores they measure.
  cargo test -q --offline --release -p obstacle-core --test batch_scaling -- --ignored --nocapture --test-threads=1
}

stage_updates() {
  # Update/query interleaving correctness: insert/delete batches mixed
  # with all six operators (and the batch engine, both backends, both
  # schedules) must answer bit-identically to an engine freshly built
  # from the live data after every edit batch, through a scene cache
  # that survives every edit. Includes the stale-scene repro.
  cargo test -q --offline --release -p obstacle-core --test updates_interleaved
}

stage_serve() {
  # The resident QueryService: soak + admission + cancellation suite in
  # release (the soak races submitter threads against edit batches), then
  # an end-to-end CLI smoke: the stdin line protocol must answer every
  # line, and the open-loop generator must sustain an offered load with
  # the bounded queue without wedging.
  cargo test -q --offline --release -p obstacle-core --test service
  local out
  out="$(printf 'nn 0.5 0.5 3\nrange 0.25 0.25 0.1\npath 0.1 0.1 0.9 0.9\n' | \
    cargo run -q --release --offline -p obstacle-bench --bin obstacle_cli -- \
    serve --obstacles 512 --entities 256 --threads 2 --depth 8)"
  echo "$out"
  echo "$out" | grep -q "answered in" || {
    echo "serve: stdin protocol produced no answers" >&2; exit 1;
  }
  echo "$out" | grep -q "3 submitted, 3 answered" || {
    echo "serve: expected 3/3 answered over stdin" >&2; exit 1;
  }
  out="$(cargo run -q --release --offline -p obstacle-bench --bin obstacle_cli -- \
    serve --obstacles 512 --entities 256 --threads 1 --depth 4 \
    --admission shed --generate 32 --rate 200)"
  echo "$out"
  echo "$out" | grep -q "completions/sec end to end" || {
    echo "serve: open-loop generator did not complete" >&2; exit 1;
  }
}

# One short untraced run of a benchmark workload ($1) for $2 seconds,
# which must end with "correct": true.
benchmark_run() {
  local out
  # A failed run exits non-zero; let the result line decide, so the
  # output is printed first.
  out="$(bash benchmark/run.sh --workload "$1" --seed 1 --seconds "$2" --trace 0)" || true
  echo "$out"
  echo "$out" | tail -n 1 | grep -q '"correct": true' || {
    echo "benchmark: $1 did not end with \"correct\": true" >&2; exit 1;
  }
}

stage_benchmark() {
  # benchmark/ is a package of its own (not a workspace member), so
  # nothing above compiles it: an API change that breaks it, or a wrong
  # answer its in-run checks catch, must fail here rather than in the
  # benchmark pipeline.
  bash benchmark/run.sh --check
  # The shortest runs the in-run degeneracy checks accept: service_churn
  # needs >= 4 of its 0.4 s edit batches inside the open-loop 70 % of
  # the run, which 2 s does not hold.
  benchmark_run scattered 2
  # clustered is the workload PR 16's gain is claimed on, and its in-run
  # checks (every 16th resident-scene answer re-executed on a fresh
  # scene, scene reuse >= 0.9) are the direct guard on successor lists
  # bounded by one query's reach, cached, and resumed by the next.
  benchmark_run clustered 2
  # joins is the one workload that runs ODJ, and its in-run check (every
  # operator's rows equal across the paged and packed backends, compared
  # with !=) is the direct guard on a seed order that is a function of
  # the data alone and on per-seed scenes.
  benchmark_run joins 2
  benchmark_run service_churn 5
}

stage_analyze() {
  # The in-tree linter (crates/lint) walks every workspace .rs file and
  # enforces the four invariant passes (tombstone-safety, nan-ordering,
  # no-unwrap-hot-path, lock-discipline); any violation fails the stage.
  cargo run -q --offline -p obstacle-lint --bin obstacle_lint
  # Lint-crate self tests: golden fixtures (each pass trips and passes
  # on its fixture pair) plus the live-workspace self-check.
  cargo test -q --offline -p obstacle-lint
  # Dynamic lock-discipline: the debug-build lock-order checker must
  # detect a deliberately inverted two-mutex acquisition and enforce the
  # no-lock-held-across-a-sweep assertion (debug build: the checker
  # compiles out of release).
  cargo test -q --offline -p obstacle-rtree --lib sync::
}

stage_sanitize() {
  # ThreadSanitizer smoke run over the sync shim's concurrency tests.
  # -Zsanitizer is nightly-only; probe for it and skip gracefully on a
  # stable toolchain rather than failing the gate.
  local target
  target="$(rustc -vV | sed -n 's/^host: //p')"
  if RUSTFLAGS="-Zsanitizer=thread" \
    cargo build -q --offline -p obstacle-rtree --target "$target" \
    >/dev/null 2>&1; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo test -q --offline -p obstacle-rtree --lib --target "$target" sync::
  else
    echo "sanitize: toolchain lacks -Zsanitizer support; skipping (nightly-only)"
  fi
}

stage_fmt() {
  cargo fmt --all --check
}

stage_clippy() {
  cargo clippy --all-targets --offline -- -D warnings
}

# Validate every requested stage up front: a typo in the last argument
# must not cost a full release build first.
for s in "${STAGES[@]}"; do
  case "$s" in
    build|test|path|batch|updates|serve|benchmark|analyze|sanitize|fmt|clippy) ;;
    *)
      echo "ci.sh: unknown stage '$s' (stages: ${ALL_STAGES[*]})" >&2
      exit 2
      ;;
  esac
done

for s in "${STAGES[@]}"; do
  echo "== stage: $s =="
  t0=$SECONDS
  "stage_$s"
  SUMMARY+=("$(printf '%-9s %5ss' "$s" $((SECONDS - t0)))")
done

echo "== stage timings =="
for line in "${SUMMARY[@]}"; do
  echo "  $line"
done
echo "ci.sh: all requested gates green (${STAGES[*]})"

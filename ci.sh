#!/usr/bin/env bash
# Tier-1 gate for the FTSPM reproduction.
#
# The workspace is fully self-contained: every dependency is a local
# `path = "crates/..."` crate, so `--offline` must always succeed. If
# cargo ever tries to reach a registry here, a crate has grown an
# external dependency — that is a CI failure by policy, not a network
# hiccup (see DESIGN.md, "Zero external dependencies").

set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
# The benchmark (loadbench/, a workspace of its own) compiles against the
# public names of harness, serve, trace and obs: a refactor that breaks
# it must fail here, not at the next benchmark run.
cargo check --offline --manifest-path loadbench/Cargo.toml
cargo test -q --offline --workspace
cargo fmt --check

# Thread-count re-pins. Every suite below is pinned to be bit-identical
# at any FTSPM_THREADS (DESIGN.md, "Deterministic parallelism"): host
# threads only size the executor or the server's worker pool. Each row
# re-runs its suites at a 1-thread and an nproc-sized pool, every run
# bounded by one `timeout` so a hung connection can never wedge CI. The
# full kernel matrix of the two differential batteries already ran under
# the workspace sweep above; here FTSPM_DIFF_KERNELS=4 (4 kernels x 3
# schemes x 3 modes) keeps them timeout-bounded. No other suite reads it.
TIMEOUT=""
if command -v timeout >/dev/null 2>&1; then
    TIMEOUT="timeout 600"
fi
SUITES=(
    # Campaign tallies, repro sweeps and the obs exporter golden files.
    "-p ftspm-faults --test determinism -p ftspm-bench --test repro_determinism -p ftspm-obs --test golden"
    # Serve (DESIGN.md §11): served bodies byte-identical to in-process
    # runs, batches equal to concatenated singles, parser properties.
    "-p ftspm-serve --test differential --test parser_props"
    # Production serve (§14): N pipelined requests byte-identical to N
    # fresh-connection requests, cache hits byte-identical to their
    # miss, the async job API's lifecycle and eviction.
    "-p ftspm-serve --test keepalive --test jobs_cache"
    # Traces (§15): FTSPMTRC round-trip/torn-tail properties, refit
    # stability, served replay ≡ in-process run, canonical spec bytes.
    "-p ftspm-trace --test trace_props --test fit_props -p ftspm-serve --test trace_differential --test spec_goldens"
    # Crash-only (§13): the seeded transport-chaos soak and the journal
    # decoder fuzz.
    "-p ftspm-serve --test chaos_soak -p ftspm-harness --test journal_props"
    # Fault fast path (§12): the event-gated path byte-identical to the
    # per-access reference path.
    "-p ftspm-harness --test fastpath_differential"
    # Multi-core (§16): MESI litmus invariants, the harness run path ≡ a
    # hand-driven Machine plus N-core replay, shared-block propagation.
    "-p ftspm-sim --test coherence_litmus -p ftspm-harness --test multicore_differential -p ftspm-faults --test shared_block_propagation"
)
for suite in "${SUITES[@]}"; do
    for threads in 1 "$(nproc)"; do
        # shellcheck disable=SC2086 # each row is a word-split argument list
        FTSPM_THREADS="$threads" FTSPM_DIFF_KERNELS=4 $TIMEOUT \
            cargo test -q --offline $suite
    done
done

# Trace smoke: record a kernel, and `diff` proves the replay fixed point
# and bounds refit drift (exits nonzero on either).
TRACE_DIR="$(mktemp -d)"
"$PWD/target/release/repro" trace record bitcount --out "$TRACE_DIR/k.trc" > /dev/null
"$PWD/target/release/repro" trace diff "$TRACE_DIR/k.trc" > /dev/null
rm -rf "$TRACE_DIR"

# Kill-then-resume byte-identity (DESIGN.md §13): run the journaled
# recovery sweep, abort it after 3 durable appends
# (FTSPM_JOURNAL_CRASH_AFTER is a SIGKILL stand-in: std::process::abort,
# no unwinding), resume, and require stdout + every artifact
# byte-identical to an uninterrupted journaled run at the same thread
# count.
REPRO="$PWD/target/release/repro"
for threads in 1 "$(nproc)"; do
    CRASH_DIR="$(mktemp -d)"
    (
        cd "$CRASH_DIR"
        mkdir ref killed
        cd ref
        FTSPM_THREADS="$threads" $TIMEOUT "$REPRO" recovery \
            --journal j.jnl --metrics m.csv --trace t.json \
            > stdout.txt 2> /dev/null
        cd ../killed
        # The mid-campaign abort exits non-zero by design.
        FTSPM_THREADS="$threads" FTSPM_JOURNAL_CRASH_AFTER=3 $TIMEOUT \
            "$REPRO" recovery --journal j.jnl --metrics m.csv --trace t.json \
            > /dev/null 2>&1 || true
        test -s j.jnl   # the kill landed after durable appends
        FTSPM_THREADS="$threads" $TIMEOUT "$REPRO" recovery \
            --journal j.jnl --metrics m.csv --trace t.json \
            > stdout.txt 2> resume.log
        grep -q "resumed" resume.log
        cmp stdout.txt ../ref/stdout.txt
        cmp m.csv ../ref/m.csv
        cmp t.json ../ref/t.json
        cmp results/recovery.csv ../ref/results/recovery.csv
    )
    rm -rf "$CRASH_DIR"
done

# Armed-idle budget (DESIGN.md §12): a run with the injector armed but
# idle must cost within 5% of a clean run. Timing-sensitive, so it is
# `#[ignore]`d under plain `cargo test` and runs release-mode here.
$TIMEOUT cargo test -q --offline --release \
    -p ftspm-bench --test armed_idle_guard -- --ignored

# The multicore bench case must land its JSON artifact (the hub's cost
# is tracked, not guessed).
$TIMEOUT cargo bench -q --offline -p ftspm-bench --bench multicore
test -s results/BENCH_multicore.json

# Doc gate: the public API is documented; rustdoc warnings (broken
# intra-doc links, missing docs on re-exports) fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Lint gate: -D warnings keeps the tree clippy-clean. Toolchains without
# the clippy component skip it rather than failing the whole gate.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "ci.sh: cargo clippy unavailable, skipping lint gate" >&2
fi

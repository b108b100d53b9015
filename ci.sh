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

# Inlining tripwire (DESIGN.md §3, hot-path rule). The access head
# (`Machine::enter`, `Machine::ensure_resident`) must inline into every
# access; the rare paths it reaches (`fault_tick`, the slot-miss fill
# `map_in`, `dma_fill`) must stay out of line — inlining them once cost
# 10 % of kernels_cold throughput (EXPERIMENTS.md). Toolchains without
# `nm` skip it rather than failing the whole gate.
if command -v nm >/dev/null 2>&1; then
    SYMBOLS="$(nm -C target/release/repro)"
    for f in fault_tick map_in dma_fill; do
        if ! grep -q "ftspm_sim::machine::Machine::$f\$" <<< "$SYMBOLS"; then
            echo "ci.sh: Machine::$f was inlined; it must stay out of line" >&2
            exit 1
        fi
    done
    for f in enter ensure_resident; do
        if grep -q "ftspm_sim::machine::Machine::$f\$" <<< "$SYMBOLS"; then
            echo "ci.sh: Machine::$f is out of line; it must inline into every access" >&2
            exit 1
        fi
    done
else
    echo "ci.sh: nm unavailable, skipping the inlining tripwire" >&2
fi
# Every workspace target type-checks here, benches and examples
# included: otherwise the benches compile only inside the clippy gate,
# which toolchains without clippy skip.
cargo check --offline --workspace --all-targets
# The benchmark (loadbench/, a workspace of its own) compiles against the
# public names of harness, serve, trace and obs: a refactor that breaks
# it, or its `#[cfg(test)]` code, must fail here, not at the next
# benchmark run.
cargo check --offline --all-targets --manifest-path loadbench/Cargo.toml
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
    # miss, LRU eviction, deadline caching and the panic bypass.
    "-p ftspm-serve --test keepalive --test result_cache"
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
# and bounds refit drift (exits nonzero on either). patricia is the
# largest upload in loadbench's trace pool (~0.85 MiB, ~194k ops over
# many chunks), so it walks the resident op stream across chunk seams.
TRACE_DIR="$(mktemp -d)"
for kernel in bitcount patricia; do
    "$PWD/target/release/repro" trace record "$kernel" --out "$TRACE_DIR/$kernel.trc" > "$TRACE_DIR/$kernel.out"
    "$PWD/target/release/repro" trace diff "$TRACE_DIR/$kernel.trc" > /dev/null
done
# Encode and decode share one frame codec, so a wrong but
# self-consistent CRC would keep every round trip green. Pin the
# recorded bytes from outside the codec: the trace id (an FNV-1a digest
# of the encoded trace), its length and op count.
grep -qF "73742 ops, 403919 bytes, trace id ef46621ac002a7f96fc423202d8c0ea2" \
    "$TRACE_DIR/bitcount.out" || {
    echo "ci.sh: bitcount trace bytes changed: $(cat "$TRACE_DIR/bitcount.out")" >&2
    exit 1
}
rm -rf "$TRACE_DIR"

REPRO="$PWD/target/release/repro"

# `repro all` byte-identity: its stdout and every CSV it writes must match
# the committed record (results/repro_all.txt and results/*.csv) at a
# 1-thread and an nproc-sized pool. A change that moves a reported number
# regenerates the record in the same commit.
RESULTS="$PWD/results"
for threads in 1 "$(nproc)"; do
    ALL_DIR="$(mktemp -d)"
    (
        cd "$ALL_DIR"
        FTSPM_THREADS="$threads" $TIMEOUT "$REPRO" all > stdout.txt 2> /dev/null
        cmp stdout.txt "$RESULTS/repro_all.txt"
        for csv in suite multicore recovery table1; do
            cmp "results/$csv.csv" "$RESULTS/$csv.csv"
        done
    )
    rm -rf "$ALL_DIR"
done

# Kill-then-resume byte-identity (DESIGN.md §13): run the journaled
# recovery sweep, abort it after 3 durable appends
# (FTSPM_JOURNAL_CRASH_AFTER is a SIGKILL stand-in: std::process::abort,
# no unwinding), resume, and require stdout + every artifact
# byte-identical to an uninterrupted journaled run at the same thread
# count.
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

# Release-mode budgets. Armed-idle (DESIGN.md §12): a run with the
# injector armed but idle must cost within 5% of a clean run. Recorder
# (§10): a run with the recorder a `"metrics": true` job attaches must
# cost at most 1.3x the same run without one. Timing-sensitive, so both
# are `#[ignore]`d under plain `cargo test` and run release-mode here.
$TIMEOUT cargo test -q --offline --release \
    -p ftspm-bench --test armed_idle_guard --test recorder_budget -- --ignored

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

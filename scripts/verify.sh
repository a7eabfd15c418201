#!/usr/bin/env bash
# Repo verification gate: build, full test suite, serial-feature test pass,
# a kernel audit, and a panic audit.
#
# The panic audit counts `unwrap()` / `expect(` in the non-test code of the
# crates hardened for fault tolerance (taamr core, taamr-recsys,
# taamr-serve) and fails
# if the count grows past the audited baseline: the experiment pipeline and
# the pairwise trainers promise to degrade or return typed errors
# (PipelineError, TrainDiverged, PairwiseDiverged) rather than panic, so a
# new panicking call in those crates is a regression. `#[cfg(test)]` modules
# are exempt. If you removed panics, lower the baseline below.
#
# Usage: scripts/verify.sh [--quick]
#   --quick skips the release build (test profile only).

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=${1:-}

# Audited shape-invariant expects that predate the fault-tolerance work
# (mostly "attack preserves the NCHW shape" style postconditions), plus the
# attack-abstraction invariants from the unified Attack trait: white-box
# pixel attacks cannot return an AttackError (only black-box query budgets
# can), and feature-row extraction preserves its row-major shape.
BASELINE_CORE=14
BASELINE_RECSYS=0
BASELINE_SERVE=0

panic_count() {
    local src=$1 n=0 c f
    while IFS= read -r f; do
        # Strip everything from the `#[cfg(test)]` module down — the audit
        # only covers production code paths.
        c=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -cE '\.unwrap\(\)|\.expect\(' || true)
        n=$((n + c))
    done < <(find "$src" -name '*.rs')
    echo "$n"
}

echo "== panic audit: crates/core, crates/recsys, crates/serve (non-test code)"
core=$(panic_count crates/core/src)
recsys=$(panic_count crates/recsys/src)
serve=$(panic_count crates/serve/src)
echo "crates/core: $core panicking calls (baseline $BASELINE_CORE)"
echo "crates/recsys: $recsys panicking calls (baseline $BASELINE_RECSYS)"
echo "crates/serve: $serve panicking calls (baseline $BASELINE_SERVE)"
if [ "$core" -gt "$BASELINE_CORE" ] || [ "$recsys" -gt "$BASELINE_RECSYS" ] \
    || [ "$serve" -gt "$BASELINE_SERVE" ]; then
    echo "panic audit failed: new unwrap()/expect( in non-test code."
    echo "Use typed errors (PipelineError / *Diverged) instead, or justify"
    echo "the invariant and bump the baseline in scripts/verify.sh."
    exit 1
fi
echo "panic audit clean"

# API-shape audit: the fallible API unification (PR 3) removed every
# panicking/fallible twin (`foo` + `try_foo`) from the public surface of the
# hardened crates. A reintroduced `pub fn try_*` alongside its non-try
# sibling is a regression: there must be exactly one, Result-returning,
# entry point per operation.
echo "== API-shape audit: no pub fn try_* twins in core/nn/recsys"
twins=0
for src in crates/core/src crates/nn/src crates/recsys/src; do
    while IFS=: read -r file _ name; do
        base=${name#try_}
        if grep -rqE "pub fn $base\b" "$src"; then
            echo "twin API in $src: pub fn try_$base next to pub fn $base ($file)"
            twins=1
        fi
    done < <(grep -rnoE 'pub fn try_[a-z_0-9]+' "$src" | sed 's/pub fn //')
done
if [ "$twins" -ne 0 ]; then
    echo "API-shape audit failed: collapse the pair into one Result-returning fn."
    exit 1
fi
echo "API-shape audit clean"

if [ "$QUICK" != "--quick" ]; then
    echo "== cargo build --release"
    cargo build --release
fi

echo "== cargo test -q (full workspace)"
cargo test -q

echo "== cargo test -p taamr --features serial -q (serial fallback)"
cargo test -p taamr --features serial -q

# Kernel audit: the packed-panel GEMM's bit-level contract (differential
# harness vs the canonical-order reference, plus the golden digests), run
# under the `serial` feature so the single-threaded schedule — the one the
# fixed-summation-order contract is defined against — is what gets checked.
echo "== kernel audit: differential + golden GEMM tests (serial feature)"
cargo test -p taamr-tensor --features serial -q \
    --test gemm_differential --test golden_kernel

# Scoring audit: the GEMM-backed ScoringEngine's bitwise contract — block
# scores, top-N lists and item ranks must match the scalar per-(user,item)
# path exactly for every model family — run under the `serial` feature so
# the reference schedule is what gets checked (the threaded schedules are
# covered by the same tests in the workspace pass above).
echo "== scoring audit: differential engine tests (serial feature)"
cargo test -p taamr-recsys --features serial -q --test scoring

# Attack audit: the unified Attack abstraction's contracts — every attacker
# family (white-box pixel, black-box SPSA, embedding-space) stays inside its
# declared Budget, perturbs bitwise-deterministically at 1/2/8 threads, and
# the over-budget black-box path degrades to a typed QueryBudgetExceeded
# error instead of panicking. Run under the default (threaded) and `serial`
# builds so neither schedule can hide a divergence.
echo "== attack audit: budget + determinism properties (default features)"
cargo test -p taamr-attack -q --test properties

echo "== attack audit: budget + determinism properties (serial feature)"
cargo test -p taamr-attack --features serial -q --test properties

# Replay audit: re-run the checked-in golden experiment records against the
# live pipeline and diff the per-stage content hashes. Any hash divergence —
# a determinism break anywhere from dataset synthesis through the attack
# cells to the final report — fails the gate with the first divergent stage
# named. Runs under both the default (threaded) and the `serial` build so a
# schedule-dependent divergence cannot hide behind either configuration.
echo "== replay audit: golden records, default build"
cargo run -q --release -p taamr-bench --bin replay -- verify tests/golden_records

echo "== replay audit: golden records, serial build"
cargo run -q --release -p taamr-bench --features taamr/serial --bin replay -- \
    verify tests/golden_records

# Serve audit: the serving layer's headline guarantees — crash recovery
# restores byte-identical scores from the snapshot, a crash storm under
# kept-alive HTTP load shows no client errors, a hammered model swap
# shows no errors and a clean version cliff, coalesced batches and cache
# hits are bitwise identical to serial uncached scoring, and a version bump
# makes every cached top-N unreachable (hot_path) — re-run under the
# `serial` scoring feature as well as the default, so neither threading
# schedule can hide a supervision race or a batching divergence. (The full
# workspace pass above already ran every serve test once under the default
# features.)
echo "== serve audit: supervision + swap + hot-path tests (default features)"
cargo test -p taamr-serve -q --test supervision --test swap --test hot_path

echo "== serve audit: supervision + swap + hot-path tests (serial feature)"
cargo test -p taamr-serve --features serial -q --test supervision --test swap --test hot_path

# Scale audit: sharded scoring must be bitwise invisible — the shard-
# streaming drivers and the default-plan drivers land on identical lists
# and ranks for every model family, ragged shard height, and thread count,
# and the shard counter is thread-invariant. Run under both the default
# (threaded) and `serial` builds so neither schedule can hide a
# shard-boundary divergence.
echo "== scale audit: sharded scoring differential (default features)"
cargo test -p taamr -q --test scale_grid

echo "== scale audit: sharded scoring differential (serial feature)"
cargo test -p taamr --features serial -q --test scale_grid

# Perf smoke: the gemm_256 dispatch-overhead guard self-skips without
# TAAMR_PERF_TESTS=1; enable it here where a release build is available.
# Smoke form (best-of-3 medians, 25% headroom) keeps it non-flaky on
# loaded boxes. On multi-core hosts the same binary also asserts gemm_256
# scales >= 1.5x at 8 threads; on single-core hosts that test self-skips
# with the reason printed.
if [ "$QUICK" != "--quick" ]; then
    echo "== perf smoke: gemm_256 dispatch overhead + scaling (TAAMR_PERF_TESTS=1)"
    TAAMR_PERF_TESTS=1 cargo test -p taamr --release -q --test perf_kernel
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify OK"

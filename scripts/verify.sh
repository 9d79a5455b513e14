#!/usr/bin/env bash
# Tier-1 verification, guaranteed offline. Everything `cargo test` can
# check lives there; this script adds only what it cannot do.
#
# 1. Hermeticity guard: `cargo metadata` must report only in-repo path
#    dependencies. Any registry/git source means an external crate crept
#    back into a manifest — fail before building anything.
# 2. Tier-1 proper: release build + full workspace test suite, with
#    cargo's network access disabled so a regression in (1) can never be
#    papered over by a warm registry cache.
# 3. Format gate: `cargo fmt --check` keeps the tree rustfmt-clean.
# 4. Lint gate: `cargo clippy --workspace -- -D warnings` keeps the tree
#    warning-free.
# 5. Doc gate: `cargo doc` with warnings denied keeps rustdoc (broken
#    intra-doc links, missing docs per crate policy) clean.
# 6-8, 8c, 8d, 11. Moved into tier-1 (2): the golden digest (6), the
#    sentinel pass (7) and replay equivalence (8) are
#    `matrix_matches_golden_plain_with_sentinel_and_replayed` in
#    crates/bench/tests/golden_matrix.rs, over all 68 lines of the
#    scale-0.02 matrix. Trace salvage (8c), the mesh replay smoke (8d)
#    and the explore smoke (11) are
#    `a_torn_capture_salvages_to_the_intact_files_prefix`,
#    `a_mesh_capture_replays_identically_into_two_configurations` and
#    `explore_prints_the_same_lines_at_any_job_count_and_from_its_cache`
#    in tests/cli.rs.
# 9. (Retired together with the sharded run loop, DESIGN.md §12.)
# 10. Host-speed benchmark, quick mode: `cmpsim-perf --quick` (perf/,
#    the benchmark BENCHMARK.json runs) drives all five workloads —
#    mipsy-read, mipsy-write, mxs-paper, mesh64 and the explore search —
#    and checks every simulated result and every explore point against
#    the golden digests in perf/golden. A mismatch exits nonzero. The
#    gate writes nothing into the tree: perf/ is the one place host
#    speed is measured, and the BENCH_pr*.json files are frozen history.
# 12. The benchmark's own tests: `cargo test` on perf/Cargo.toml (a
#    separate package that the workspace test run does not reach) checks
#    that a corrupted golden file fails, that the metrics perf/ reports
#    are the ones BENCHMARK.json declares, and that it refuses to run
#    with a CMPSIM_* knob set. It writes only under perf/target/.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== hermeticity: all dependencies must be in-repo path deps =="
metadata=$(cargo metadata --format-version 1 --offline)
if printf '%s' "$metadata" | grep -qE '"source": *"(registry|git)\+'; then
    echo "ERROR: non-path dependency detected in cargo metadata:" >&2
    printf '%s' "$metadata" | grep -oE '"name": *"[^"]+","version": *"[^"]+","id": *"[^"]*(registry|git)\+[^"]*"' >&2 || true
    exit 1
fi
echo "ok: cargo metadata lists path-only dependencies"

echo "== tier-1: cargo build --release && cargo test -q (offline) =="
cargo build --release
cargo test -q

echo "== format gate: cargo fmt --check =="
cargo fmt --check
echo "ok: rustfmt is clean"

echo "== lint gate: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings
echo "ok: clippy is clean"

echo "== doc gate: cargo doc --no-deps with warnings denied =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
echo "ok: rustdoc is clean"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== host-speed benchmark: cmpsim-perf --quick, results checked against perf/golden =="
cargo run --release -q --offline --manifest-path perf/Cargo.toml -- --quick > "$tmpdir/perf.jsonl"
echo "ok: cmpsim-perf --quick $(tail -n 1 "$tmpdir/perf.jsonl")"

echo "== benchmark tests: cargo test on perf/Cargo.toml =="
cargo test -q --offline --manifest-path perf/Cargo.toml
echo "ok: perf/ tests pass"

echo "verify.sh: all checks passed"

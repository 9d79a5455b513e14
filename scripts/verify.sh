#!/usr/bin/env bash
# Tier-1 verification, guaranteed offline.
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
# 6. Golden digest: the first 56 lines of the quick summary matrix — the
#    default 4-CPU configuration rows — must be byte-identical to the
#    checked-in golden file. Refactors may add geometry rows after the
#    prefix but may never change a default row's digest.
# 7. Sentinel pass: the quick digest matrix runs with CMPSIM_SENTINEL=1
#    and must produce byte-identical lines to the sentinel-off run (the
#    invariant checker may never change results); any violation panics the
#    matrix runner, so "identical output" also means "zero violations".
#    A case that panics in gates 6-8 stops the sweep: its message names
#    the case on stderr, and the bench's exit status fails the gate.
# 8. Replay equivalence: the quick digest matrix runs again with
#    CMPSIM_MATRIX_REPLAY=1 — every case captured to a reference trace
#    and replayed through a fresh memory system — and must produce
#    byte-identical lines to the execution-driven run. This is the
#    capture/replay fidelity contract: a trace carries everything the
#    memory system ever sees. (Gate 8d covers replay at two job counts.)
# 6b, 6c. (Retired together with the digest matrix's resume journal and
#    poison hook: the sweep takes under half a second at this scale, so
#    a killed sweep is rerun, and a failing case stops it.)
# 8b. (Retired together with trace format v1; gates 8c and 8d keep
#    their numbers.)
# 8c. Trace salvage: an eqntott capture (`cmpsim run --trace-out`) is
#    truncated at 60%, 85% and 99% of its length. Strict replay must
#    reject every torn file;
#    `cmpsim replay --salvage` must recover every intact chunk, and
#    replaying the salvaged records must match `--salvage --head N` on
#    the intact file (N = the salvaged record count) byte for byte — a
#    torn capture degrades to a clean prefix, never to wrong results.
# 8d. Mesh replay smoke: a 16-CPU mesh fft run captured to a trace
#    must replay through a fresh mesh system (same grid) with the
#    replayed reference count and per-link port rows intact. It replays
#    into two configurations (mesh and shared-L2), so the report must be
#    byte-identical at --jobs 1 and --jobs 4 with the job pool really
#    running two workers — the mesh topology rides the same
#    capture/replay contract as the crossbar machines. (The mesh rows of
#    the extended matrix also pass through gate 8's digest-equality
#    replay check.)
# 9. (Retired together with the sharded run loop, DESIGN.md §12; gates
#    10 and 11 keep their numbers.)
# 10. Host-speed benchmark, quick mode: `cmpsim-perf --quick` (perf/,
#    the benchmark BENCHMARK.json runs) drives all five workloads —
#    mipsy-read, mipsy-write, mxs-paper, mesh64 and the explore search —
#    and checks every simulated result and every explore point against
#    the golden digests in perf/golden. A mismatch exits nonzero. The
#    gate writes nothing into the tree: perf/ is the one place host
#    speed is measured, and the BENCH_pr*.json files are frozen history.
# 11. Explore smoke: a seeded 64-point `cmpsim explore` search over a
#    4-dimensional memory sweep must (a) emit byte-identical JSON at
#    --jobs 1 and --jobs 4, (b) report replayed points > 0 on stderr
#    (memory-only sweeps route through the trace-replay fast path),
#    (c) re-emit byte-identical JSON from a 100%-cached rerun.
#    (d) (Retired: the tier-1 test
#    `search_resumed_from_a_torn_cache_is_byte_identical` in
#    crates/explore/tests/explore.rs cuts a finished search's cache at
#    five points and checks that each rerun prints the same lines.)
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

echo "== sentinel pass + golden digest: quick matrix, checker on vs off =="
matrix_off=$(CMPSIM_MATRIX_SCALE=0.02 cargo bench -q -p cmpsim-bench --bench summary_matrix | grep '^{')
matrix_on=$(CMPSIM_SENTINEL=1 CMPSIM_MATRIX_SCALE=0.02 cargo bench -q -p cmpsim-bench --bench summary_matrix | grep '^{')
if [ "$matrix_off" != "$matrix_on" ]; then
    echo "ERROR: sentinel-on digest matrix differs from sentinel-off:" >&2
    diff <(printf '%s\n' "$matrix_off") <(printf '%s\n' "$matrix_on") >&2 || true
    exit 1
fi
echo "ok: sentinel-on matrix is bit-identical (zero violations)"

golden=crates/bench/golden/matrix_scale0.02.txt
if ! printf '%s\n' "$matrix_off" | head -n "$(wc -l < "$golden")" | diff -q - "$golden" >/dev/null; then
    echo "ERROR: default-row digest prefix differs from $golden:" >&2
    printf '%s\n' "$matrix_off" | head -n "$(wc -l < "$golden")" | diff - "$golden" >&2 || true
    exit 1
fi
echo "ok: default-row digests match the golden file"

echo "== replay equivalence: quick matrix, trace replay vs execution =="
matrix_replay=$(CMPSIM_MATRIX_REPLAY=1 CMPSIM_MATRIX_SCALE=0.02 cargo bench -q -p cmpsim-bench --bench summary_matrix | grep '^{')
if [ "$matrix_off" != "$matrix_replay" ]; then
    echo "ERROR: trace-replay digest matrix differs from execution-driven:" >&2
    diff <(printf '%s\n' "$matrix_off") <(printf '%s\n' "$matrix_replay") >&2 || true
    exit 1
fi
echo "ok: trace-replay matrix is bit-identical to execution-driven"

echo "== trace salvage: torn capture recovers every intact chunk =="
target/release/cmpsim run --workload eqntott --scale 0.05 \
    --trace-out "$tmpdir/eqntott.trace" >/dev/null
tracesize=$(wc -c < "$tmpdir/eqntott.trace")
for pct in 60 85 99; do
    head -c $(( tracesize * pct / 100 )) "$tmpdir/eqntott.trace" > "$tmpdir/torn.trace"
    if target/release/cmpsim replay --file "$tmpdir/torn.trace" >/dev/null 2>&1; then
        echo "ERROR: strict replay accepted a trace torn at ${pct}%" >&2
        exit 1
    fi
    target/release/cmpsim replay --salvage --file "$tmpdir/torn.trace" > "$tmpdir/salv.txt"
    n=$(sed -n 's/^salvaged.*(\([0-9][0-9]*\) records).*/\1/p' "$tmpdir/salv.txt")
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "ERROR: salvage of the ${pct}% torn trace recovered no records:" >&2
        cat "$tmpdir/salv.txt" >&2
        exit 1
    fi
    target/release/cmpsim replay --salvage --head "$n" --file "$tmpdir/eqntott.trace" \
        > "$tmpdir/intact_head.txt"
    # The salvaged torn file must replay exactly like the same-length
    # prefix of the intact file — only the trace-path and salvage-report
    # lines may differ.
    if ! diff <(grep -vE '^(trace|salvaged)' "$tmpdir/salv.txt") \
              <(grep -vE '^(trace|salvaged)' "$tmpdir/intact_head.txt"); then
        echo "ERROR: salvage of the ${pct}% torn trace diverges from the intact prefix" >&2
        exit 1
    fi
    echo "ok: torn at ${pct}% -> salvaged ${n} records replay identically to the intact prefix"
done

echo "== mesh replay smoke: 16-CPU mesh capture -> byte-identical replay =="
target/release/cmpsim run --arch mesh --workload fft --cpus 16 --scale 0.05 \
    --trace-out "$tmpdir/mesh.trace" >/dev/null
for replay_jobs in 1 4; do
    target/release/cmpsim replay --file "$tmpdir/mesh.trace" --arch mesh --arch shared-l2 \
        --cpus 16 --jobs "$replay_jobs" > "$tmpdir/mesh_replay_j$replay_jobs.txt"
done
if ! grep -q '^port mesh-link' "$tmpdir/mesh_replay_j1.txt"; then
    echo "ERROR: mesh replay report lost the mesh-link port row:" >&2
    cat "$tmpdir/mesh_replay_j1.txt" >&2
    exit 1
fi
if [ "$(grep -c '^system' "$tmpdir/mesh_replay_j1.txt")" -ne 2 ]; then
    echo "ERROR: two-configuration mesh replay did not report two blocks:" >&2
    cat "$tmpdir/mesh_replay_j1.txt" >&2
    exit 1
fi
if ! diff "$tmpdir/mesh_replay_j1.txt" "$tmpdir/mesh_replay_j4.txt"; then
    echo "ERROR: mesh replay differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "ok: mesh trace replays byte-identically into two configurations (jobs 1 vs 4, link stats intact)"

echo "== explore smoke: seeded 64-point search, jobs/cache invariance =="
explore_args=(explore --workload eqntott --scale 0.02 --seed 7 --points 64
    --dim arch=shared-l2,shared-mem,mesh --dim cpus=2,4
    --dim l2-kb=512,1024,2048,4096 --dim l2-assoc=1,2 --dim l2-width=64,128)
target/release/cmpsim "${explore_args[@]}" --jobs 1 --cache "$tmpdir/exploreA.jrnl" \
    > "$tmpdir/explore_j1.json" 2> "$tmpdir/explore_j1.err"
target/release/cmpsim "${explore_args[@]}" --jobs 4 --cache "$tmpdir/exploreB.jrnl" \
    > "$tmpdir/explore_j4.json" 2>/dev/null
if ! diff "$tmpdir/explore_j1.json" "$tmpdir/explore_j4.json"; then
    echo "ERROR: explore output differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
if ! grep -qE '[1-9][0-9]* replayed' "$tmpdir/explore_j1.err"; then
    echo "ERROR: memory-only explore sweep did not route through trace replay:" >&2
    cat "$tmpdir/explore_j1.err" >&2
    exit 1
fi
target/release/cmpsim "${explore_args[@]}" --jobs 4 --cache "$tmpdir/exploreB.jrnl" \
    > "$tmpdir/explore_cached.json" 2> "$tmpdir/explore_cached.err"
if ! diff "$tmpdir/explore_j4.json" "$tmpdir/explore_cached.json"; then
    echo "ERROR: cache-hit explore rerun is not byte-identical" >&2
    exit 1
fi
if ! grep -q '0 exec runs, 0 replayed, 64 cached' "$tmpdir/explore_cached.err"; then
    echo "ERROR: explore rerun was not answered 100% from the cache:" >&2
    cat "$tmpdir/explore_cached.err" >&2
    exit 1
fi
echo "ok: explore search byte-identical across jobs and cache reruns"

echo "== host-speed benchmark: cmpsim-perf --quick, results checked against perf/golden =="
cargo run --release -q --offline --manifest-path perf/Cargo.toml -- --quick > "$tmpdir/perf.jsonl"
echo "ok: cmpsim-perf --quick $(tail -n 1 "$tmpdir/perf.jsonl")"

echo "verify.sh: all checks passed"

#!/usr/bin/env bash
# Tier-1 verification entry point: proves the workspace builds and tests
# entirely offline, with zero crates.io dependencies.
#
#   ./scripts/check_hermetic.sh
#
# Six gates, all hard failures:
#   0. `cargo run -p rkvc-analyze` — the in-repo static analyzer: no
#      wall-clock reads outside crates/bench (D001), no HashMap/HashSet
#      in non-test code (D002), no RNG construction outside the
#      rkvc_tensor substrate (D003), no ad-hoc threading outside
#      rkvc_tensor::par (D004), no non-SeqCst atomic orderings outside
#      the pool internals (D005), no order-dependent float accumulation
#      outside the audited sequential kernels (D006), no
#      unwrap/expect/panic! in the panic-free crates (E001), a full
#      `unsafe` audit with per-region `rkvc-safety` justifications
#      (U001/U002), cross-crate dead-`pub`-export detection (C001), and
#      a manifest-level dependency-closure check (H001). The scan runs
#      at RKVC_THREADS=1 and =4 and the two reports must byte-match —
#      the analyzer's own fan-out is width-invariant — before the
#      width-1 report is persisted to results/analyze.json. Any change
#      to the suppression inventory versus the committed report is
#      printed for review (informational, not fatal). Exits non-zero on
#      any unsuppressed violation.
#   1. `cargo tree` must list only workspace packages (rkvc-* plus the
#      root facade crate) — no external crate may sneak back in, even as
#      a dev-dependency. (The independent, toolchain-level cross-check
#      of the analyzer's H001.)
#   2. `cargo build --release --offline --workspace --all-targets` with
#      RUSTFLAGS="-D warnings" — every lib, bin, test and example
#      compiles warning-free with the network unreachable — then
#      `cargo check` of the benchmark's own workspace (`benchmark/`, all
#      targets, `--locked`): it calls the libraries from outside, so a
#      library change that breaks the surface it uses fails here —
#      then `cargo clippy -p rkvc-serving --all-targets -D warnings`,
#      which also lints the workspace crates it depends on.
#   3. `cargo test -q --offline --workspace` — the full test suite
#      passes offline, including `tests/paper_claims.rs`, which checks
#      every paper verdict in EXPERIMENTS.md against the committed
#      results/ — then, once and in release, rkvc-tensor's `#[ignore]`d
#      exhaustive test: the branch-free `round_to_f16` against the
#      binary16 packing round trip on all 2^32 `f32` bit patterns, split
#      in fixed chunks over the worker pool (about 15 s optimised on two
#      cores, hours otherwise) — and, also in
#      release, the packed-GEMM bit-identity file `packed_gemm`: the
#      baseline and AVX2 kernel instantiations are what the optimiser
#      vectorises, so the build users run is the one that must match
#      `matmul_naive`. For the same reason rkvc-kvcache's
#      `fused_attention` and `extend_attend` run again in release (≈1 s
#      on top of gate 2's build): the workspace pass above compiles them
#      at the dev profile's opt-level, and "the streaming kernels, the
#      chunk tile and the naive loops over `view_uncached` give the same
#      bits" is a statement about the vectorised code.
#   4. thread-count invariance — `repro --exp all --scale quick` runs
#      three times, at RKVC_THREADS=1, 3 and 4, and the three output
#      directories (27 JSON files + 8 SVGs) must be byte-identical:
#      experiment output is a pure function of the inputs, never of the
#      worker-pool width. Every experiment is covered, so one that newly
#      fans over the pool needs no entry here; the odd width 3 never
#      divides the power-of-two-shaped fan-outs evenly, which surfaces
#      the uneven trailing chunks that widths 1/2/4 mask.
#   5. committed results are what HEAD produces — one `repro --exp all
#      --scale paper` at the default width (about a minute) into a
#      scratch directory, `diff -r` against results/ with analyze.json
#      (gate 0's own output) excluded. Paper scale, not a quick-scale
#      golden: results/ holds the paper-scale run, and the stale file
#      this gate was added for was a quick-scale ext_fleet.json. Gate 4
#      proves the width does not matter at quick scale. Running this pass
#      at RKVC_THREADS=3 would also prove it at paper scale, but on a
#      two-core host the oversubscribed pool made the pass slower than
#      its own run-to-run spread (ROADMAP item 15(b)), so it stays at the
#      default width. `repro` exits non-zero if any output could not be
#      written, so an empty directory cannot pass. Together with gate 3's
#      `paper_claims`, this checks HEAD's own paper-scale verdicts. After
#      an intended change, regenerate with
#      `cargo run --release -p rkvc-bench --bin repro` and commit.
#
# The closing line gives each gate's wall seconds (bash SECONDS).
set -euo pipefail
cd "$(dirname "$0")/.."

gate_seconds=""
gate_start=$SECONDS
# Records the wall seconds of gate $1, which has just finished.
gate_done() {
    gate_seconds+=" $1=$((SECONDS - gate_start))s"
    gate_start=$SECONDS
}

echo "== gate 0: static analysis (rkvc-analyze), width-invariant =="
# "file:line lint" rows of a report's suppression inventory.
sup_rows() {
    awk -F'"' '
        /^  "suppressions": \[/ { s = 1; next }
        s && /^  \],?$/         { s = 0 }
        s && $2 == "file"       { f = $4 }
        s && $2 == "line"       { l = $3; gsub(/[^0-9]/, "", l) }
        s && $2 == "lint"       { print f ":" l " " $4 }
    ' "$1"
}
an_tmp=$(mktemp -d)
old_sups=""
[ -f results/analyze.json ] && old_sups=$(sup_rows results/analyze.json)
RKVC_THREADS=1 cargo run --release --offline -q -p rkvc-analyze -- . --out "$an_tmp/w1.json"
RKVC_THREADS=4 cargo run --release --offline -q -p rkvc-analyze -- . --out "$an_tmp/w4.json" > /dev/null
diff "$an_tmp/w1.json" "$an_tmp/w4.json"
cp "$an_tmp/w1.json" results/analyze.json
new_sups=$(sup_rows results/analyze.json)
if [ "$old_sups" != "$new_sups" ]; then
    echo "suppression-inventory delta (informational):"
    { diff <(printf '%s\n' "$old_sups") <(printf '%s\n' "$new_sups") || true; } | sed -n 's/^[<>]/  &/p'
else
    echo "suppression inventory unchanged ($(printf '%s\n' "$new_sups" | grep -c .) entries)"
fi
rm -rf "$an_tmp"
echo "ok: analyze.json byte-identical at RKVC_THREADS=1 vs 4"
gate_done 0

echo "== gate 1: dependency closure is workspace-only =="
# --no-dedupe + -e all covers normal, dev, and build dependencies of
# every workspace member.
deps=$(cargo tree --offline --workspace -e all --prefix none | awk '{print $1}' | sort -u)
bad=$(echo "$deps" | grep -v -e '^rkvc-' -e '^rethink-kv-compression$' -e '^$' || true)
if [ -n "$bad" ]; then
    echo "error: non-workspace packages in the dependency tree:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "ok: $(echo "$deps" | grep -c .) packages, all workspace-local"
gate_done 1

echo "== gate 2: offline warning-free release build (all targets) =="
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets
cargo check --offline --locked --manifest-path benchmark/Cargo.toml --all-targets
cargo clippy --offline --locked -p rkvc-serving --all-targets -- -D warnings
gate_done 2

echo "== gate 3: offline test suite =="
cargo test -q --offline --workspace
cargo test -q --release --offline -p rkvc-tensor -- --ignored
cargo test -q --release --offline -p rkvc-tensor --test packed_gemm
cargo test -q --release --offline -p rkvc-kvcache --test fused_attention --test extend_attend
gate_done 3

echo "== gate 4: thread-count invariance (RKVC_THREADS=1 vs 3 vs 4) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for t in 1 3 4; do
    RKVC_THREADS=$t cargo run --release --offline -q -p rkvc-bench --bin repro -- \
        --exp all --scale quick --out "$tmp/t$t" > /dev/null
done
diff -r "$tmp/t1" "$tmp/t3"
diff -r "$tmp/t1" "$tmp/t4"
echo "ok: all $(ls "$tmp/t1" | wc -l) quick-scale outputs byte-identical across worker-pool widths (incl. odd width 3)"
gate_done 4

echo "== gate 5: results/ is what HEAD produces (repro --exp all --scale paper) =="
cargo run --release --offline -q -p rkvc-bench --bin repro -- \
    --exp all --scale paper --out "$tmp/paper" > /dev/null
diff -r -x analyze.json "$tmp/paper" results
echo "ok: all $(ls "$tmp/paper" | wc -l) committed paper-scale results byte-identical to a fresh run"
gate_done 5

echo "hermetic check passed; gate seconds:$gate_seconds, total ${SECONDS}s"

#!/bin/sh
# Keeps the kernel crates' two decisions behind their one owner each:
#
#   * the CBSR index width (`SpIndex::U8` / `SpIndex::U16`) is named only
#     in crates/core/src/cbsr.rs — tests and docs included;
#   * non-test code of crates/{core,tensor,nn}/src spawns threads only
#     through the one `thread::scope` in crates/tensor/src/parallel.rs;
#   * no kernel matches the index width per scalar: `Cbsr::index_at(`
#     stays out of the non-test code of the hot-loop files;
#   * MaxK selection is the bisection kernel alone: the non-test lines of
#     crates/core/src/maxk.rs hold no `sort` and no `partial_cmp` (the
#     sort is the tests' oracle);
#   * every dense contraction's per-element work is `ops::axpy`: the
#     non-test body of `matmul_a_bt` in crates/tensor/src/ops.rs holds no
#     loop of its own (it is `matmul` against `Bᵀ`);
#   * a layer's dataflow is written once, in crates/nn/src/plan.rs: the
#     non-test lines of crates/nn/src/conv.rs name no `maxk_core` kernel
#     and match on no activation (`Some(Activation::`).
#
# "Non-test" is what scripts/nontest_lines.sh counts: the lines before a
# file's first `#[cfg(test)]`. Run from CI's `test` job.
set -eu
cd "$(dirname "$0")/.."

# The non-test lines of each file given, as `file:line:text`.
nontest() {
    for file in "$@"; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { printf "%s:%d:%s\n", FILENAME, FNR, $0 }' "$file"
    done
}

status=0
# Fails with message $1 when the hit list $2 is not empty.
forbid() {
    [ -z "$2" ] && return
    printf 'check_kernel_seams: %s\n%s\n' "$1" "$2" >&2
    status=1
}

forbid "the CBSR index width is named outside crates/core/src/cbsr.rs" \
    "$(grep -rn --include='*.rs' -e 'SpIndex::U8' -e 'SpIndex::U16' crates |
        grep -v '^crates/core/src/cbsr\.rs:' || true)"

forbid "thread::scope outside crates/tensor/src/parallel.rs" \
    "$(nontest $(find crates/core/src crates/tensor/src crates/nn/src -name '*.rs' |
        grep -v '^crates/tensor/src/parallel\.rs$' | sort) |
        grep 'thread::scope' || true)"

spawn_sites=$(nontest crates/tensor/src/parallel.rs | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
    grep -c 'thread::scope' || true)
[ "$spawn_sites" -eq 1 ] ||
    forbid "crates/tensor/src/parallel.rs must hold exactly one thread::scope" \
        "found $spawn_sites"

forbid "Cbsr::index_at in a kernel's non-test code (take the Rows view once per call instead)" \
    "$(nontest crates/core/src/spgemm.rs crates/core/src/sspmm.rs crates/core/src/subset.rs \
        crates/core/src/maxk.rs crates/nn/src/plan.rs | grep 'index_at(' || true)"

forbid "a sort or partial_cmp in crates/core/src/maxk.rs outside its tests" \
    "$(nontest crates/core/src/maxk.rs | grep -e 'sort' -e 'partial_cmp' || true)"

forbid "a loop in matmul_a_bt's body in crates/tensor/src/ops.rs (run it on matmul's axpy rows)" \
    "$(nontest crates/tensor/src/ops.rs |
        awk '/:pub fn matmul_a_bt\(/ { body = 1 } body { print } body && /:[0-9]+:}$/ { exit }' |
        grep -w -e 'for' -e 'while' -e 'loop' -e 'for_each' || true)"

forbid "crates/nn/src/conv.rs calls a kernel or matches an activation (run plan's layer halves)" \
    "$(nontest crates/nn/src/conv.rs | grep -e 'maxk_core' -e 'Some(Activation::' || true)"

exit "$status"

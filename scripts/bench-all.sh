#!/bin/sh
# Re-records the four BENCH_*.json files at the repository root in full
# mode, one bench after the other (never two at once: they time the same
# CPUs and disk):
#
#   micro_scan         BENCH_scan.json         covered-fraction sweep
#   micro_concurrency  BENCH_concurrency.json  multi-client sweep
#   micro_recovery     BENCH_recovery.json     cold start vs. warm buffer
#   micro_durability   BENCH_durability.json   group-commit sweep
#
# The recovery and durability benches build scratch databases under
# $TMPDIR, so their fsync times are those of that file system. Without a
# registry, run scripts/offline-env.sh first.
set -eu
root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

record() {
    echo "== $2 -> $3"
    env "$1=$root/$3" cargo bench -q -p aib-bench --bench "$2"
}

record AIB_SCAN_JSON micro_scan BENCH_scan.json
record AIB_CONCURRENCY_JSON micro_concurrency BENCH_concurrency.json
record AIB_RECOVERY_JSON micro_recovery BENCH_recovery.json
record AIB_DURABILITY_JSON micro_durability BENCH_durability.json

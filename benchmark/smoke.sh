#!/usr/bin/env bash
# Smoke test: build offline, then run all four workloads at --scale 0.02 with
# and without tracing. The binary exits non-zero on a failed op, a final
# state that differs from the model, or a metric it could not measure, so a
# clean exit of this script is the check. CI can adopt it as one step.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/avq-benchmark"

for workload in scan_cold probe_warm ingest_durable mixed_rw; do
    for trace in 0 1; do
        line=$("$bin" --workload "$workload" --seed 7 --seconds 1 --trace "$trace" --scale 0.02 | tail -n 1)
        case "$line" in
            '{"correct": true, "attempted": '*', "failed": 0, "metrics": {'*) ;;
            *)
                echo "smoke: $workload --trace $trace printed an unexpected result: $line" >&2
                exit 1
                ;;
        esac
        echo "smoke: $workload --trace $trace ok"
    done
done

#!/usr/bin/env bash
# Runs the four traced producers into <out-dir> and gates every committed
# golden against what they wrote. The caller picks the worker-pool size via
# HFTA_NUM_THREADS; the goldens must hold at any.
#
#   cargo build --release && HFTA_NUM_THREADS=4 bash ci/golden_gates.sh target/golden-4t
set -euo pipefail
out=${1:?usage: ci/golden_gates.sh <out-dir>}
bin=target/release
golden=ci/golden

$bin/scope_sweep --trace "$out/scope" > /dev/null
$bin/sched_sweep --trace "$out/sched" > /dev/null
$bin/hfta_report flight "$out/sched" --out "$out/sched/flight_sweep.report.json" > /dev/null
$bin/bench_serve --quick --trace "$out/serve" > /dev/null
$bin/bench_plan --quick --trace "$out/plan" --bench-json "$out/plan/BENCH_plan.json" > /dev/null

$bin/hfta_report diff $golden/scope_sweep.report.json "$out/scope/scope_sweep.report.json"
$bin/hfta_report diff $golden/sched_sweep.report.json "$out/sched/sched_sweep.report.json"
$bin/hfta_report diff $golden/flight_sweep.report.json "$out/sched/flight_sweep.report.json"
$bin/hfta_report diff $golden/serve.report.json "$out/serve/bench_serve.report.json"
$bin/hfta_report diff $golden/plan.report.json "$out/plan/bench_plan.report.json"
$bin/hfta_report diff $golden/plan.bench.json "$out/plan/BENCH_plan.json"

#!/usr/bin/env bash
# The benchmark's one command: builds --release, runs the workloads, checks
# outputs, prints every metric by name with its unit.
#
#   benchmark/run.sh [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--set] [--quick] [--out F]
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md. Exits non-zero when the build fails, an HFTA_*
# knob leaks in, or any lane-step fails the correctness oracle.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The program under test runs in its default configuration: scrub every
# knob it reads from the environment (the binary refuses to run with one).
for knob in $(compgen -e | grep '^HFTA_' || true); do
    unset "$knob"
done

# Cargo's own progress goes to stderr, so stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

bin="${CARGO_TARGET_DIR:-$here/target}/release/hfta-benchmark"
if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
exec "$bin" "$@" --out-dir "$here/out"

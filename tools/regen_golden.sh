#!/usr/bin/env bash
# Regenerate the golden trace fixtures in tests/engine/golden/ from the
# current source tree: the fault-free logs of all three engines and the
# faulted Pregel/GAS logs (crash, truncated crash, partition, lossy NIC,
# crash plus slowdown) rendered with ground-truth samples. Use after an intentional change to the engines'
# observable schedule (and say so in the commit message); the golden tests
# exist to make unintentional changes loud.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target golden_trace_test

G10_REGEN_GOLDEN=1 "$BUILD_DIR"/tests/golden_trace_test

echo
echo "fixture changes:"
git diff --stat -- tests/engine/golden || true

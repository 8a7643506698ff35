#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then sanitizer
# passes in separate build trees — a ThreadSanitizer pass
# (GPRQ_SANITIZE=thread) over the threaded suites (the engine's parallel
# path, the exec/ worker-pool/batch-executor layer, the obs
# metric-registry concurrency suites, the cross-thread-count determinism
# regression, the fault/deadline/overload robustness suites, and the
# result-cache, SIMD-kernel, sharded scatter-gather and paged-vs-engine
# differential suites, the sample pool's exactness differential with
# concurrent readers of one pool, the net/ wire-protocol robustness +
# live-server + end-to-end differential suites, the storage engine's
# crash-recovery, churn-differential and epoch-snapshot suites, and the
# remote-coordinator differential/chaos suite with its hostile
# shard-manifest battery) and an ASan+UBSan pass
# (GPRQ_SANITIZE=address,undefined) over the same set — plus a
# GPRQ_FAULT=OFF build proving the failpoint macro compiles out.
#
# Usage: tier1.sh [all|build|tsan|asan|faultoff]
#   all      (default) standard build + ctest, then TSan, ASan, fault-off
#   build    standard build + ctest only
#   tsan     TSan pass only (what the CI tsan job runs)
#   asan     ASan+UBSan pass only (what the CI asan job runs)
#   faultoff GPRQ_FAULT=OFF build + fault/deadline suites (macro compiled
#            out; fault_test skips itself, deadline semantics must hold)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
case "${MODE}" in
  all|build|tsan|asan|faultoff) ;;
  *) echo "usage: $0 [all|build|tsan|asan|faultoff]" >&2; exit 2 ;;
esac

THREADED_TARGETS=(sample_pool_test parallel_test worker_pool_test
                  batch_executor_test
                  determinism_test metrics_test trace_test
                  fault_test deadline_test overload_test
                  cache_test simd_kernel_test shard_test paged_prq_test
                  net_protocol_test net_server_test net_e2e_test
                  storage_recovery_test storage_differential_test
                  storage_snapshot_test remote_test shard_manifest_test)
# The ctest filter is built from the target list so the two cannot disagree.
THREADED_TESTS="^($(IFS='|'; echo "${THREADED_TARGETS[*]}"))\$"

# 1. Standard tier-1: full build + ctest.
if [[ "${MODE}" == "all" || "${MODE}" == "build" ]]; then
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  (cd build && ctest --output-on-failure -j "$(nproc)")
fi

# 2. TSan pass over the threaded suites.
if [[ "${MODE}" == "all" || "${MODE}" == "tsan" ]]; then
  cmake -B build-tsan -S . -DGPRQ_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" --target "${THREADED_TARGETS[@]}"
  (cd build-tsan && ctest --output-on-failure -R "${THREADED_TESTS}")
fi

# 3. ASan+UBSan pass over the same suites (fault injection exercises the
# error paths where lifetime bugs hide).
if [[ "${MODE}" == "all" || "${MODE}" == "asan" ]]; then
  cmake -B build-asan -S . -DGPRQ_SANITIZE=address,undefined
  cmake --build build-asan -j "$(nproc)" --target "${THREADED_TARGETS[@]}"
  (cd build-asan && ctest --output-on-failure -R "${THREADED_TESTS}")
fi

# 4. Fault-off build: GPRQ_FAULT=OFF must still compile every failpoint
# call site (the macro becomes a constant OK) and the deadline semantics
# must not depend on the fault layer being present.
if [[ "${MODE}" == "all" || "${MODE}" == "faultoff" ]]; then
  cmake -B build-faultoff -S . -DGPRQ_FAULT=OFF
  cmake --build build-faultoff -j "$(nproc)" \
    --target fault_test deadline_test batch_executor_test
  (cd build-faultoff && \
    ctest --output-on-failure -R 'fault_test|deadline_test|batch_executor_test')
fi

echo "tier-1 ${MODE} OK"

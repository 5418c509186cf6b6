#!/usr/bin/env bash
# Build with a sanitizer and run the concurrency-sensitive tests and the
# stage kernels: the engine, the vector stage kernels and their scalar
# references (flenc, prequant, block codec, checksum, and the dispatch
# differential test, where an unaligned vector load or store past a
# buffer would show), the fault-injection chaos suite, the
# observability registry/tracer suite, the live telemetry plane (the
# /metrics and /tracez endpoint reading tracer rings that server
# threads are writing), the network service suite
# (reader/worker threads, BufferPool, shutdown paths), the network
# chaos suite (ChaosProxy relay threads, client retry loop, drain), the
# tenant coordinator suite (mutex-guarded lease bookkeeping racing
# the server's reader threads), the parallel-simulator differential
# suite (WaferSimulator row bands on shared thread pools), and the
# hostile-input parsers: the common byte reader and errors, the cuSZ/SZ3
# baselines, the CSZA archive, the Huffman table, and the stream fuzzers
# (where a length that wraps a bound would read past a buffer); and the
# format pins and the CLI,
# whose frame and container headers are written in place into buffers
# that already hold bytes (where an off-by-header-length write would
# show).
#
#   scripts/run_sanitizer_tests.sh thread  [build-dir]   # ThreadSanitizer
#   scripts/run_sanitizer_tests.sh address [build-dir]   # AddressSanitizer
#
# Default build dir: build-<mode>.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
case "$MODE" in
  thread|address) ;;
  *)
    echo "usage: $0 thread|address [build-dir]" >&2
    exit 2
    ;;
esac
BUILD_DIR="${2:-build-$MODE}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCERESZ_SANITIZE="$MODE" \
  -DCERESZ_BUILD_BENCH=OFF \
  -DCERESZ_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_engine test_checksum test_flenc test_prequant \
  test_block_codec test_kernels_dispatch test_fault_injection test_obs \
  test_observability test_service test_chaos test_tenant test_wafer_sim \
  test_baselines test_archive test_huffman test_robustness \
  test_format_pins test_cli test_common

cd "$BUILD_DIR"
if [ "$MODE" = "thread" ]; then
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
else
  export ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=1"
fi
# A hang fails the run instead of stalling it: the longest test here
# takes about 12 s under TSan.
ctest --output-on-failure --timeout 300 \
  -R '^test_(engine|checksum|flenc|prequant|block_codec|kernels_dispatch|fault_injection|obs|observability|service|chaos|tenant|wafer_sim|baselines|archive|huffman|robustness|format_pins|cli|common)$'
echo "${MODE} sanitizer tests passed."

#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full ctest suite.
#
# Usage:
#   scripts/check.sh                 # Release build + tests (the tier-1 line)
#   scripts/check.sh --warnings      # Debug build with -Wall -Wextra -Werror
#   scripts/check.sh --sanitize      # ASan + UBSan build, full ctest suite
#   scripts/check.sh --tsan          # ThreadSanitizer build, concurrency suites;
#                                    # the serving suites repeat up to 3 more times
#   scripts/check.sh --procs         # process-shard / HTTP / conformance suites
#   scripts/check.sh --docs          # docs lane: links and documented flags, no build
#   scripts/check.sh --build-dir DIR # custom build tree (default: build)
#
# CI runs exactly this script, so a green local run means a green CI run.
set -euo pipefail

cd "$(dirname "$0")/.."

# Docs lane: fails on broken relative links in the documentation tree, and
# on a `--flag` in README.md or docs/ that no command under src/ declares.
if [[ "${1:-}" == "--docs" ]]; then
  python3 scripts/check_links.py README.md ROADMAP.md docs/*.md
  exec python3 scripts/check_flags.py src README.md docs/*.md
fi

BUILD_DIR=build
BUILD_TYPE=Release
WARNINGS=OFF
SANITIZE=OFF
TSAN=OFF
TEST_FILTER=""
REPEAT=()
REPEAT_FILTER=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --warnings)
      BUILD_TYPE=Debug
      WARNINGS=ON
      BUILD_DIR=build-warnings
      shift
      ;;
    --sanitize)
      BUILD_TYPE=RelWithDebInfo
      SANITIZE=ON
      BUILD_DIR=build-sanitize
      # No test needs a single allocation anywhere near 1 GiB, while a
      # length field an archive reader trusted would ask for more. Above
      # the cap ASan aborts with a report (allocator_may_return_null=0), so
      # an unbounded read fails this lane instead of allocating quietly.
      export ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}max_allocation_size_mb=1024"
      shift
      ;;
    --tsan)
      # TSan lane: the suites that hammer the pool, the engine, and both
      # transports concurrently, plus the eval suites whose GEMM row
      # blocks, attention heads and row ops run on the pool. TSan and ASan
      # cannot coexist in one binary, hence the separate build tree; the
      # single-threaded numeric suites add nothing under TSan, hence the
      # filter.
      BUILD_TYPE=RelWithDebInfo
      TSAN=ON
      BUILD_DIR=build-tsan
      TEST_FILTER='^(test_threadpool|test_engine|test_store|test_daemon|test_server|test_metrics|test_process_shards|test_gemm|test_attention|test_eval|test_qmodel)$'
      # The serving suites then run three more times: every request shares
      # the pool's one queue, so a scheduling race fails here instead of
      # showing up as a rare flake. So do the eval suites: a perplexity
      # pass runs whole forwards at once on pool workers over one
      # QuantizedModel.
      REPEAT_FILTER='^(test_threadpool|test_engine|test_store|test_daemon|test_server|test_eval|test_qmodel)$'
      shift
      ;;
    --procs)
      # Process-shard lane: the supervisor + worker-process fleet, its
      # HTTP front door, and the cross-transport protocol conformance
      # corpus. These fork and SIGKILL real worker processes, so CI runs
      # them in their own job where a wedged fleet cannot mask (or be
      # masked by) the rest of the suite. Each suite runs three times, so
      # an ordering race between the event loops fails here instead of
      # showing up as a rare flake.
      TEST_FILTER='^(test_process_shards|test_http|test_protocol_conformance)$'
      REPEAT=(--repeat until-fail:3)
      shift
      ;;
    --build-dir)
      BUILD_DIR="$2"
      shift 2
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
  -DEMMARK_WARNINGS_AS_ERRORS="$WARNINGS" \
  -DEMMARK_SANITIZE="$SANITIZE" \
  -DEMMARK_TSAN="$TSAN"
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"
if [[ -n "$TEST_FILTER" ]]; then
  ctest --output-on-failure -j "$(nproc)" -R "$TEST_FILTER" "${REPEAT[@]}"
else
  ctest --output-on-failure -j "$(nproc)"
fi
if [[ -n "$REPEAT_FILTER" ]]; then
  ctest --output-on-failure -j "$(nproc)" -R "$REPEAT_FILTER" --repeat until-fail:3
fi

#!/usr/bin/env bash
# Static-analysis and sanitizer gate: one command that runs the full
# correctness matrix (DESIGN.md "Static analysis & correctness tooling").
#
#   werror  GCC-or-default compiler build, -Werror on the full warning set,
#           full ctest suite
#   tsa     Clang build with -Wthread-safety -Werror=thread-safety
#           (compile-time race / lock-discipline detection) + the negative
#           compile-fail check
#   tidy    clang-tidy over every source via P2PREP_CLANG_TIDY=ON
#   lint    project-invariant linter (tools/lint/p2prep_lint.py): rule
#           self-test over the negative fixtures, then a clean-tree check
#   asan    AddressSanitizer + UndefinedBehaviorSanitizer combined build,
#           full ctest suite (UB findings are hard failures)
#   replay  fuzz-corpus replay + format-corruption sweeps under ASan+UBSan:
#           every checked-in corpus file through the fuzz targets
#           (FuzzReplay/FuzzCorpus) plus the exhaustive WAL/checkpoint
#           corruption tests — the gcc-portable half of the fuzzing story
#   fuzz    libFuzzer smoke (Clang only): each fuzz target explores from
#           the seed corpus for P2PREP_FUZZ_SECONDS (default 60) under ASan
#   tsan    ThreadSanitizer build, service concurrency stress suite
#
# Usage: tools/run_static_analysis.sh [stage ...]     (default: all stages)
#
# Environment:
#   P2PREP_BUILD_PREFIX   build dir prefix, default "<repo>/build-"
#                         (stages build in <prefix>werror, <prefix>tsa, ...)
#   P2PREP_CTEST_FILTER   ctest -R filter for werror/asan stages (default:
#                         all tests)
#   P2PREP_TSAN_FILTER    ctest -R filter for the tsan stage (default:
#                         ServiceConcurrency plus GlobalEquivalence,
#                         which runs every detector in the sharded
#                         service against a single-manager reference, plus
#                         RpcConcurrency — the multi-client loopback
#                         smoke of the RPC front-end — plus
#                         the Reshard suites, which race-check the
#                         resize handoff against live ingest, plus
#                         OverlapStress and ParallelEpoch, which soak the
#                         parallel global epoch (multithreaded scan
#                         behind the parked-worker barrier) under
#                         contention,
#                         plus AccompliceExchange, whose rounds run on
#                         the service's scan pool across shards,
#                         plus the Cluster suites — the multi-threaded
#                         manager nodes, replica failover and the
#                         decentralized-manager service mode over real
#                         sockets — plus IngestQueueWake (coalesced
#                         producer/consumer wake-ups), WalRun (staged
#                         WAL runs against a concurrent drain()) and
#                         IngestBatch (random batch splits and
#                         admissions through the one ingest path against
#                         per-rating ingest)
#   P2PREP_FUZZ_SECONDS   libFuzzer time budget per target in the fuzz
#                         stage (default: 60)
#   P2PREP_JOBS           parallel build/test jobs (default: nproc)
#   P2PREP_CLANG          clang++ to use for tsa/tidy/tsan-under-clang
#                         (default: first of clang++ in PATH)
#   CC/CXX                respected for werror/asan/tsan stages
#
# Clang-dependent stages (tsa, tidy, fuzz) are SKIPPED with a warning when
# no clang is installed, and lint is SKIPPED without python3; skipped
# stages do not fail the gate, every stage that runs must pass. Exit code
# 0 == everything that could run is green.
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_prefix="${P2PREP_BUILD_PREFIX:-${repo_root}/build-}"
jobs="${P2PREP_JOBS:-$(nproc 2>/dev/null || echo 4)}"
ctest_filter="${P2PREP_CTEST_FILTER:-}"
tsan_filter="${P2PREP_TSAN_FILTER:-ServiceConcurrency|GlobalEquivalence|RpcConcurrency|Reshard|OverlapStress|ParallelEpoch|AccompliceExchange|Cluster|IngestQueueWake|WalRun|IngestBatch}"
clangxx="${P2PREP_CLANG:-$(command -v clang++ || true)}"
clang_tidy="$(command -v clang-tidy || true)"

stages=("$@")
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(werror tsa tidy lint asan replay fuzz tsan)
fi

declare -A results

log() { printf '\n==== [%s] %s\n' "$1" "$2"; }

configure_build_test() {
  # configure_build_test <stage> <filter> <extra cmake args...>
  local stage="$1" filter="$2"
  shift 2
  local dir="${build_prefix}${stage}"
  log "${stage}" "configure + build in ${dir}"
  cmake -B "${dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DP2PREP_WERROR=ON \
    -DP2PREP_BUILD_BENCH=OFF \
    -DP2PREP_BUILD_EXAMPLES=OFF \
    "$@" || return 1
  cmake --build "${dir}" -j "${jobs}" || return 1
  log "${stage}" "ctest${filter:+ -R ${filter}}"
  (cd "${dir}" &&
    ctest ${filter:+-R "${filter}"} --output-on-failure -j "${jobs}") ||
    return 1
}

run_werror() {
  configure_build_test werror "${ctest_filter}"
}

run_tsa() {
  if [[ -z "${clangxx}" ]]; then
    results[tsa]=SKIP
    echo "SKIP [tsa]: no clang++ in PATH (set P2PREP_CLANG)"
    return 0
  fi
  # Build everything with -Wthread-safety -Werror=thread-safety (enabled
  # automatically for Clang by P2PREP_THREAD_SAFETY=ON); run only the
  # StaticAnalysis tests — the full suite runs in the werror/asan stages.
  configure_build_test tsa "StaticAnalysis" \
    -DCMAKE_CXX_COMPILER="${clangxx}" \
    -DP2PREP_THREAD_SAFETY=ON
}

run_tidy() {
  if [[ -z "${clang_tidy}" || -z "${clangxx}" ]]; then
    results[tidy]=SKIP
    echo "SKIP [tidy]: clang-tidy or clang++ not in PATH"
    return 0
  fi
  local dir="${build_prefix}tidy"
  log tidy "clang-tidy build in ${dir}"
  cmake -B "${dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="${clangxx}" \
    -DP2PREP_CLANG_TIDY=ON \
    -DP2PREP_BUILD_TESTS=OFF \
    -DP2PREP_BUILD_BENCH=OFF \
    -DP2PREP_BUILD_EXAMPLES=OFF || return 1
  cmake --build "${dir}" -j "${jobs}"
}

run_lint() {
  local python3_bin
  python3_bin="$(command -v python3 || true)"
  if [[ -z "${python3_bin}" ]]; then
    results[lint]=SKIP
    echo "SKIP [lint]: no python3 in PATH"
    return 0
  fi
  log lint "rule self-test over negative fixtures"
  "${python3_bin}" "${repo_root}/tools/lint/p2prep_lint.py" --self-test ||
    return 1
  log lint "tree scan"
  "${python3_bin}" "${repo_root}/tools/lint/p2prep_lint.py" \
    --root "${repo_root}"
}

run_asan() {
  configure_build_test asan "${ctest_filter}" \
    -DP2PREP_SANITIZE="address;undefined"
}

run_replay() {
  # The portable half of the fuzzing harness: replay every checked-in
  # corpus file and run the exhaustive corruption sweeps with ASan+UBSan
  # armed, under whatever compiler is default (gcc in CI's main legs).
  configure_build_test replay \
    "FuzzReplay|FuzzCorpus|WalCorruption|CheckpointCorruption" \
    -DP2PREP_SANITIZE="address;undefined"
}

run_fuzz() {
  if [[ -z "${clangxx}" ]]; then
    results[fuzz]=SKIP
    echo "SKIP [fuzz]: no clang++ in PATH (libFuzzer needs Clang)"
    return 0
  fi
  local dir="${build_prefix}fuzz"
  local seconds="${P2PREP_FUZZ_SECONDS:-60}"
  log fuzz "libFuzzer build in ${dir}"
  cmake -B "${dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="${clangxx}" \
    -DP2PREP_FUZZERS=ON \
    -DP2PREP_SANITIZE=address \
    -DP2PREP_BUILD_BENCH=OFF \
    -DP2PREP_BUILD_EXAMPLES=OFF || return 1
  cmake --build "${dir}" -j "${jobs}" \
    --target fuzz_rpc_protocol fuzz_wal fuzz_checkpoint || return 1
  local target corpus
  for target in rpc_protocol wal checkpoint; do
    corpus="${repo_root}/fuzz/corpus/${target/rpc_protocol/rpc}"
    log fuzz "${target}: ${seconds}s from seed corpus ${corpus}"
    "${dir}/fuzz/fuzz_${target}" "${corpus}" \
      -max_total_time="${seconds}" -print_final_stats=1 || return 1
  done
}

run_tsan() {
  local dir="${build_prefix}tsan"
  log tsan "TSan build in ${dir}"
  cmake -B "${dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DP2PREP_SANITIZE=thread \
    -DP2PREP_BUILD_BENCH=OFF \
    -DP2PREP_BUILD_EXAMPLES=OFF || return 1
  cmake --build "${dir}" -j "${jobs}" --target p2prep_tests || return 1
  log tsan "ctest -R ${tsan_filter}"
  (cd "${dir}" &&
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ctest -R "${tsan_filter}" --output-on-failure)
}

for stage in "${stages[@]}"; do
  case "${stage}" in
    werror|tsa|tidy|lint|asan|replay|fuzz|tsan) ;;
    *)
      echo "unknown stage '${stage}' (known: werror tsa tidy lint asan" \
        "replay fuzz tsan)" >&2
      exit 2
      ;;
  esac
  if "run_${stage}"; then
    : "${results[${stage}]:=PASS}"
  else
    results[${stage}]=FAIL
  fi
done

echo
echo "==== static analysis matrix ===="
failed=0
for stage in "${stages[@]}"; do
  printf '  %-7s %s\n' "${stage}" "${results[${stage}]}"
  [[ "${results[${stage}]}" == FAIL ]] && failed=1
done
exit "${failed}"

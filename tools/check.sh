#!/usr/bin/env bash
# Local verification matrix: sanitizer runs, clang thread-safety
# analysis, and clang-tidy.
#
# Usage: tools/check.sh [mode] [ctest-regex]
#   tools/check.sh                       # TSan (races + lock order), all tests
#   tools/check.sh thread Chaos          # TSan, tests matching 'Chaos'
#   tools/check.sh address               # ASan, all tests
#   tools/check.sh undefined             # UBSan, all tests
#   tools/check.sh thread-safety         # clang -Wthread-safety, build only
#   tools/check.sh tidy [path-regex]     # clang-tidy over src/
#   tools/check.sh storage-torture [rounds]  # crash/recover kill-loop
#   tools/check.sh cluster-torture [rounds]  # leader-kill failover loop
#   tools/check.sh fleet-smoke [devices]     # 100k-device fleet, capped broker
#   tools/check.sh quota-storm [devices]     # fleet under a tight quota
#   tools/check.sh transport-smoke [records] # 3-process shm pipeline + kill -9
#   tools/check.sh reach                     # no src/ header only tests reach
set -euo pipefail

MODE="${1:-thread}"
FILTER="${2:-}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

require() {
  if ! command -v "$1" >/dev/null 2>&1; then
    echo "error: '$1' not found on PATH — mode '${MODE}' needs it" \
         "(apt-get install $2)" >&2
    exit 2
  fi
}

case "${MODE}" in
  thread|address|undefined)
    BUILD_DIR="${ROOT}/build-${MODE}san"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DPE_SANITIZE="${MODE}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)"
    cd "${BUILD_DIR}"
    if [[ "${MODE}" == thread ]]; then
      # TSan is the runtime lock-order check: have its lock-order-inversion
      # reports print the held-lock site as well as the acquiring site for
      # every edge of the cycle.
      export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}"
    fi
    if [[ -n "${FILTER}" ]]; then
      ctest --output-on-failure -j"$(nproc)" -R "${FILTER}"
    else
      ctest --output-on-failure -j"$(nproc)"
    fi
    ;;

  thread-safety)
    # Clang-only: builds the whole tree with -Wthread-safety promoted to
    # errors against the annotations in common/mutex.h.
    require clang++ clang
    BUILD_DIR="${ROOT}/build-tsa"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DPE_THREAD_SAFETY=ON \
      -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_C_COMPILER=clang \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)"
    echo "thread-safety analysis clean"
    ;;

  tidy)
    require clang-tidy clang-tidy
    BUILD_DIR="${ROOT}/build-tidy"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    mapfile -t FILES < <(find "${ROOT}/src" -name '*.cpp' | sort)
    if [[ -n "${FILTER}" ]]; then
      mapfile -t FILES < <(printf '%s\n' "${FILES[@]}" | grep -E "${FILTER}")
    fi
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "${BUILD_DIR}" -quiet "${FILES[@]}"
    else
      clang-tidy -p "${BUILD_DIR}" --quiet "${FILES[@]}"
    fi
    ;;

  storage-torture)
    # Kill-loop over the storage engine: random appends/fsyncs, a power
    # cut at a random point (possibly mid-batch), recover, verify the
    # durability contract, repeat. FILTER is the round count.
    ROUNDS="${FILTER:-50}"
    BUILD_DIR="${ROOT}/build"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)" --target storage_torture
    for SEED in 1 2 3; do
      "${BUILD_DIR}/tools/storage_torture" "${ROUNDS}" "${SEED}"
    done
    ;;

  cluster-torture)
    # Randomized leader-kill loop over the replicated broker cluster:
    # produce at acks=quorum, commit offsets, power-cut a random member
    # (random torn tail), fail over, verify zero committed loss and full
    # replica convergence, restore, repeat. FILTER is the round count.
    ROUNDS="${FILTER:-20}"
    BUILD_DIR="${ROOT}/build"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)" --target cluster_torture
    for SEED in 1 2 3; do
      "${BUILD_DIR}/tools/cluster_torture" "${ROUNDS}" "${SEED}"
    done
    ;;

  fleet-smoke)
    # Fleet-scale admission run: 100k simulated devices against one
    # durable broker with an 8 MiB hot-window cap. bench_fleet exits
    # non-zero on any acked-record loss, dropped records, or a cap
    # breach; the greps additionally pin the zero-loss line in the json.
    DEVICES="${FILTER:-100000}"
    BUILD_DIR="${ROOT}/build"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)" --target bench_fleet
    OUT="$(PE_FLEET_DEVICES="${DEVICES}" "${BUILD_DIR}/bench/bench_fleet")"
    echo "${OUT}"
    echo "${OUT}" | grep '"bench":"fleet"' | grep -q '"acked_record_loss":0'
    echo "${OUT}" | grep -q '"cap_respected":true'
    ;;

  quota-storm)
    # Same fleet squeezed through a deliberately tiny per-client quota
    # (0.05 MB/s): the point is that throttles fire AND every throttled
    # producer retries to success — backpressure, zero loss.
    DEVICES="${FILTER:-100000}"
    BUILD_DIR="${ROOT}/build"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)" --target bench_fleet
    OUT="$(PE_FLEET_DEVICES="${DEVICES}" PE_FLEET_QUOTA_MBPS=0.05 \
           "${BUILD_DIR}/bench/bench_fleet")"
    echo "${OUT}"
    echo "${OUT}" | grep '"bench":"fleet"' | grep -q '"acked_record_loss":0'
    echo "${OUT}" | grep -q '"cap_respected":true'
    if echo "${OUT}" | grep -q '"throttled_sends":0,'; then
      echo "error: quota storm produced no throttles — quota not biting" >&2
      exit 1
    fi
    ;;

  transport-smoke)
    # Multi-process transport pipeline, twice:
    #   1. happy path — brokerd + producer + worker as three real OS
    #      processes, FILTER records through the shared-memory ring, the
    #      worker asserting a dense (zero-loss, in-order) sequence.
    #   2. chaos path — a paced producer is SIGKILLed mid-stream; the
    #      broker's heartbeat GC must declare the channel dead and unlink
    #      the ring, and the worker must still drain a dense prefix of
    #      everything push() completed (zero acked loss).
    RECORDS="${FILTER:-1000000}"
    BUILD_DIR="${ROOT}/build"
    cmake -B "${BUILD_DIR}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${BUILD_DIR}" -j"$(nproc)" \
      --target pe_brokerd pe_edge_producer pe_worker
    TMP="$(mktemp -d)"
    trap 'kill "${BROKER_PID:-0}" 2>/dev/null || true; rm -rf "${TMP}"' EXIT

    "${BUILD_DIR}/tools/pe_brokerd" --port 0 \
      --heartbeat-timeout-ms 300 --gc-interval-ms 50 \
      > "${TMP}/brokerd.log" 2>&1 &
    BROKER_PID=$!
    for _ in $(seq 1 100); do
      grep -q "BROKERD ready" "${TMP}/brokerd.log" && break
      sleep 0.1
    done
    PORT="$(grep -o 'port=[0-9]*' "${TMP}/brokerd.log" | head -1 | cut -d= -f2)"
    [[ -n "${PORT}" ]] || { echo "error: brokerd never came up" >&2; exit 1; }
    echo "transport-smoke: brokerd pid=${BROKER_PID} port=${PORT}"

    # --- run 1: happy path, RECORDS records, clean EOF ---
    "${BUILD_DIR}/tools/pe_worker" --port "${PORT}" --channel smoke \
      > "${TMP}/worker.log" 2>&1 &
    WORKER_PID=$!
    "${BUILD_DIR}/tools/pe_edge_producer" --port "${PORT}" --channel smoke \
      --records "${RECORDS}" --payload-bytes 64 > "${TMP}/producer.log" 2>&1
    wait "${WORKER_PID}"
    cat "${TMP}/producer.log" "${TMP}/worker.log"
    grep -q "PRODUCER done pushed=${RECORDS} " "${TMP}/producer.log"
    grep -q "WORKER done consumed=${RECORDS} dense=1 eof=1" "${TMP}/worker.log"

    # --- run 2: kill -9 the producer mid-stream, assert GC + dense drain ---
    "${BUILD_DIR}/tools/pe_worker" --port "${PORT}" --channel victim \
      > "${TMP}/worker2.log" 2>&1 &
    WORKER_PID=$!
    "${BUILD_DIR}/tools/pe_edge_producer" --port "${PORT}" --channel victim \
      --records "${RECORDS}" --pace-us 50 > "${TMP}/producer2.log" 2>&1 &
    VICTIM_PID=$!
    sleep 2
    kill -9 "${VICTIM_PID}"
    echo "transport-smoke: SIGKILLed producer pid=${VICTIM_PID}"
    wait "${WORKER_PID}"
    cat "${TMP}/worker2.log"
    # Dense prefix, ended by producer death (not EOF), zero acked loss.
    grep -q "WORKER done consumed=[0-9]* dense=1 eof=0 dead=1" \
      "${TMP}/worker2.log"

    kill -TERM "${BROKER_PID}"
    wait "${BROKER_PID}" || true
    cat "${TMP}/brokerd.log"
    # The GC saw the dead producer and collected exactly its ring.
    grep -q "dead_producer_gcs=1" "${TMP}/brokerd.log"
    # The victim's shm object is gone from /dev/shm (unlinked by GC).
    if ls /dev/shm/pe_ring_victim_* 2>/dev/null; then
      echo "error: dead producer's ring was not unlinked" >&2
      exit 1
    fi
    echo "transport-smoke: OK (${RECORDS} records, kill -9 recovery clean)"
    ;;

  reach)
    # Include-level reachability: fails when a src/ header is included by
    # nothing except its own .cpp and tests/ (no src/ module, tool,
    # example or bench uses it). It sees includes only: a dead API behind
    # a header that is reached for something else goes unnoticed. Find
    # those by linking the non-test binaries with -ffunction-sections
    # -Wl,--gc-sections -Wl,--print-gc-sections and looking for the
    # functions that survive in none of them. Even that misses a
    # capability a product path links but never switches on (a gate
    # called on every fetch whose quota nothing sets, a virtual kept
    # alive by its vtable): audit each public setter, option field and
    # parameter by grepping src/ tools/ bench/ bench_e2e/ examples/ for a
    # caller outside its own definition that sets it to a non-default.
    cd "${ROOT}"
    UNREACHED=0
    while IFS= read -r HEADER; do
      OWN="${HEADER%.h}.cpp"
      if ! grep -rlF --include='*.h' --include='*.cpp' \
             "#include \"${HEADER#src/}\"" \
             src tools examples bench bench_e2e | grep -qvxF "${OWN}"; then
        echo "unreached header: ${HEADER}" >&2
        UNREACHED=1
      fi
    done < <(find src -name '*.h' | sort)
    [[ "${UNREACHED}" == 0 ]] || exit 1
    echo "reach: every src/ header is included outside its own .cpp and tests/"
    ;;

  *)
    echo "error: unknown mode '${MODE}'" >&2
    echo "modes: thread | address | undefined | thread-safety | tidy |" \
         "storage-torture | cluster-torture | fleet-smoke | quota-storm |" \
         "transport-smoke | reach" >&2
    exit 2
    ;;
esac

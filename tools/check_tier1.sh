#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the test suite.
#
#   tools/check_tier1.sh           # full suite (what CI runs)
#   tools/check_tier1.sh --quick   # skip suites labelled `slow` (ctest -LE slow)
#   tools/check_tier1.sh --tsan    # ThreadSanitizer build, full suite
#   tools/check_tier1.sh --asan    # AddressSanitizer build, full suite
#   tools/check_tier1.sh --ubsan   # UndefinedBehaviorSanitizer build (with
#                                  # float-cast-overflow), full suite
#   tools/check_tier1.sh --trace-smoke
#                                  # build, then run an instrumented 4-rank
#                                  # cluster and gate on the observability
#                                  # outputs: trace_check validates the Chrome
#                                  # trace JSON (>= 4 rank timelines, >= 1
#                                  # flow pair), and the printed report must
#                                  # carry non-empty metrics
#   tools/check_tier1.sh --bench-smoke
#                                  # build, then run bench/kernel_fusion at a
#                                  # small size (fast; the bench itself aborts
#                                  # on any fused-vs-staged mismatch) and gate
#                                  # on trace_check --bench validating the
#                                  # BENCH_kernel_fusion.json schema
#   tools/check_tier1.sh --analyze-smoke
#                                  # build, then run an instrumented 8-rank
#                                  # cluster and gate on the trace-analytics
#                                  # chain: trace_check validates the trace's
#                                  # flow-pairing/nesting invariants,
#                                  # kb2_analyze must report a critical path
#                                  # covering the wall, and trace_check
#                                  # --analysis validates the JSON report
#   tools/check_tier1.sh --proc-smoke
#                                  # build, then exercise the process-backed
#                                  # transport end to end: an 8-rank
#                                  # --backend proc fit whose merged trace
#                                  # must satisfy kb2_analyze, the honest
#                                  # SIGKILL-one-child recovery tests, and a
#                                  # thread-vs-proc fingerprint parity check
#   tools/check_tier1.sh --chaos-smoke
#                                  # build, then run the seeded chaos-soak
#                                  # engine (tools/kb2_soak) over a handful of
#                                  # fault schedules: every schedule must
#                                  # either converge to the fault-free fit
#                                  # fingerprint or end in a typed, attributed
#                                  # error — never a hang, never a silent
#                                  # wrong answer — and the emitted
#                                  # BENCH_chaos_soak.json must satisfy
#                                  # trace_check --soak (legal outcomes,
#                                  # recovery aggregates, acceptable == 1)
#   tools/check_tier1.sh --profile-smoke
#                                  # build, then run a profiled fit with a
#                                  # live telemetry segment under BOTH
#                                  # backends: attach kb2_top --once --json
#                                  # mid-run and validate the snapshot with
#                                  # trace_check --profile (published ranks,
#                                  # full schema, a fit stage observed live),
#                                  # then validate the merged collapsed-stack
#                                  # output with trace_check --folded
#   tools/check_tier1.sh --coreset-smoke
#                                  # build, then gate the coreset comm plane:
#                                  # run the test_coreset suite, a small
#                                  # table2_scaling comm-mode sweep (the bench
#                                  # itself aborts on the bytes/ARI/auto bars
#                                  # at representative scale; the smoke size
#                                  # only checks it runs end to end), and
#                                  # trace_check --bench validating the new
#                                  # coreset series schema
#   tools/check_tier1.sh --postmortem-smoke
#                                  # build, then exercise the crash-forensics
#                                  # chain under BOTH backends: a seeded kill
#                                  # of one rank mid-fit (real SIGKILL under
#                                  # proc, thrown KilledError under thread)
#                                  # must leave a flight dump whose
#                                  # kb2_postmortem report names the dead
#                                  # rank, its last stage, and the in-flight
#                                  # comm op, and whose --json output passes
#                                  # trace_check --postmortem
#   tools/check_tier1.sh --perf-gate
#                                  # build, rerun bench/kernel_fusion,
#                                  # bench/overhead and bench/table2_scaling
#                                  # with the committed baselines' exact
#                                  # options, and gate with kb2_analyze
#                                  # --compare against
#                                  # bench/baselines/BENCH_*.json; also
#                                  # self-tests the gate by proving a
#                                  # synthetic 2x slowdown (--scale-time 2)
#                                  # fails. Every bench is judged; one
#                                  # verdict line per bench, and the gate
#                                  # fails if any bench, compare or
#                                  # self-test did
#
# The sanitizer modes build into their own directories
# (build-tsan/build-asan/build-ubsan) so they never dirty the primary build.
# TSan runs the whole suite: the comm probe's callbacks write the flight
# ring and the timeline from inside the transports (under ThreadComm's
# mailbox lock), and suites without the `comm` label — the tracer's, the
# checkpoint refits' — drive those paths too.
# ASan runs the whole suite, with ASAN_OPTIONS=detect_stack_use_after_return=1
# unless the caller set ASAN_OPTIONS: a frame touched after its function
# returned (a thread-pool job, a borrowed buffer) is exactly what the rest of
# the suite cannot see, and every parser of external bytes runs under it.
# UBSan runs the whole suite too; its build aborts on the first report, and
# UBSAN_OPTIONS=print_stacktrace=1 (unless set) says where.
#
# Extra arguments after the flags are forwarded to ctest.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"

sanitize=""
trace_smoke=0
bench_smoke=0
analyze_smoke=0
proc_smoke=0
chaos_smoke=0
profile_smoke=0
coreset_smoke=0
postmortem_smoke=0
perf_gate=0
ctest_args=()
for arg in "$@"; do
  case "${arg}" in
    --quick) ctest_args+=(-LE slow) ;;
    --tsan) sanitize="thread" ;;
    --asan) sanitize="address" ;;
    --ubsan) sanitize="undefined" ;;
    --trace-smoke) trace_smoke=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --analyze-smoke) analyze_smoke=1 ;;
    --proc-smoke) proc_smoke=1 ;;
    --chaos-smoke) chaos_smoke=1 ;;
    --profile-smoke) profile_smoke=1 ;;
    --coreset-smoke) coreset_smoke=1 ;;
    --postmortem-smoke) postmortem_smoke=1 ;;
    --perf-gate) perf_gate=1 ;;
    *) ctest_args+=("${arg}") ;;
  esac
done

cmake_args=()
if [[ "${sanitize}" == "thread" ]]; then
  build_dir="${BUILD_DIR:-${repo_root}/build-tsan}"
  cmake_args+=(-DKB2_SANITIZE=thread)
elif [[ "${sanitize}" == "address" ]]; then
  build_dir="${BUILD_DIR:-${repo_root}/build-asan}"
  cmake_args+=(-DKB2_SANITIZE=address)
  export ASAN_OPTIONS="${ASAN_OPTIONS-detect_stack_use_after_return=1}"
elif [[ "${sanitize}" == "undefined" ]]; then
  build_dir="${BUILD_DIR:-${repo_root}/build-ubsan}"
  cmake_args+=(-DKB2_SANITIZE=undefined)
  export UBSAN_OPTIONS="${UBSAN_OPTIONS-print_stacktrace=1}"
fi

cmake -B "${build_dir}" -S "${repo_root}" "${cmake_args[@]}"
cmake --build "${build_dir}" -j

if [[ "${trace_smoke}" == "1" ]]; then
  # Observability smoke: an instrumented distributed run must produce a
  # loadable trace and a non-empty metrics report.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  "${build_dir}/tools/keybin2" generate "${smoke_dir}/points.csv" \
    --points 4000 --dims 8 --k 3 --seed 7
  "${build_dir}/tools/keybin2" cluster "${smoke_dir}/points.csv" \
    --ranks 4 --trace --trace-json "${smoke_dir}/trace.json" \
    --log "${smoke_dir}/events.jsonl" | tee "${smoke_dir}/report.txt"
  "${build_dir}/tools/trace_check" "${smoke_dir}/trace.json" \
    --min-ranks 4 --min-flows 1
  # Empty metrics would drop these lines from the report entirely.
  grep -q "points_binned" "${smoke_dir}/report.txt" \
    || { echo "trace smoke: no metrics counters in report" >&2; exit 1; }
  grep -q "comm heatmap" "${smoke_dir}/report.txt" \
    || { echo "trace smoke: no traffic heatmap in report" >&2; exit 1; }
  echo "trace smoke: OK"
  exit 0
fi

if [[ "${bench_smoke}" == "1" ]]; then
  # Kernel-fusion smoke: a small run of the fused-vs-staged bench. The bench
  # exits nonzero on any fused/staged key, count, or merge mismatch, so this
  # doubles as a bit-identity gate; trace_check then validates the report
  # schema the perf table is built from.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  (cd "${smoke_dir}" && "${build_dir}/bench/kernel_fusion" \
    --points-per-rank 20000 --ranks 4 --runs 1)
  "${build_dir}/tools/trace_check" --bench \
    "${smoke_dir}/BENCH_kernel_fusion.json"
  echo "bench smoke: OK"
  exit 0
fi

if [[ "${analyze_smoke}" == "1" ]]; then
  # Trace-analytics smoke: an 8-rank instrumented run must yield a trace
  # whose invariants hold, a critical path that tiles the wall, and a
  # machine-readable analysis report the perf gate could consume.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  "${build_dir}/tools/keybin2" generate "${smoke_dir}/points.csv" \
    --points 4000 --dims 8 --k 3 --seed 7
  "${build_dir}/tools/keybin2" cluster "${smoke_dir}/points.csv" \
    --ranks 8 --trace-json "${smoke_dir}/trace.json"
  "${build_dir}/tools/trace_check" "${smoke_dir}/trace.json" \
    --min-ranks 8 --min-flows 1
  "${build_dir}/tools/kb2_analyze" "${smoke_dir}/trace.json" \
    | tee "${smoke_dir}/analysis.txt"
  grep -q "100.0% of wall" "${smoke_dir}/analysis.txt" \
    || { echo "analyze smoke: critical path does not cover wall" >&2; exit 1; }
  grep -q "straggler" "${smoke_dir}/analysis.txt" \
    || { echo "analyze smoke: no straggler attribution" >&2; exit 1; }
  "${build_dir}/tools/kb2_analyze" "${smoke_dir}/trace.json" --json \
    > "${smoke_dir}/analysis.json"
  "${build_dir}/tools/trace_check" --analysis "${smoke_dir}/analysis.json"
  echo "analyze smoke: OK"
  exit 0
fi

if [[ "${proc_smoke}" == "1" ]]; then
  # Process-backend smoke: forked ranks over shared memory must carry the
  # full product surface — an instrumented 8-rank fit whose merged trace
  # satisfies the analytics chain, the honest SIGKILL-mid-fit recovery
  # tests, and bit-identical results across transports.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  "${build_dir}/tools/keybin2" generate "${smoke_dir}/points.csv" \
    --points 4000 --dims 8 --k 3 --seed 7
  "${build_dir}/tools/keybin2" cluster "${smoke_dir}/points.csv" \
    --ranks 8 --backend proc --trace \
    --trace-json "${smoke_dir}/trace.json" \
    --out "${smoke_dir}/proc_out.csv" | tee "${smoke_dir}/report.txt"
  grep -q "process backend" "${smoke_dir}/report.txt" \
    || { echo "proc smoke: run did not use the process backend" >&2; exit 1; }
  grep -q "comm heatmap" "${smoke_dir}/report.txt" \
    || { echo "proc smoke: no merged traffic heatmap" >&2; exit 1; }
  "${build_dir}/tools/trace_check" "${smoke_dir}/trace.json" \
    --min-ranks 8 --min-flows 1
  "${build_dir}/tools/kb2_analyze" "${smoke_dir}/trace.json" \
    | grep -q "100.0% of wall" \
    || { echo "proc smoke: critical path does not cover wall" >&2; exit 1; }
  # Same input over threads: the transport may not leak into the math.
  KB2_BACKEND=thread "${build_dir}/tools/keybin2" cluster \
    "${smoke_dir}/points.csv" --ranks 8 --out "${smoke_dir}/thread_out.csv" \
    > /dev/null
  cmp "${smoke_dir}/proc_out.csv" "${smoke_dir}/thread_out.csv" \
    || { echo "proc smoke: thread/proc outputs diverge" >&2; exit 1; }
  # The honest failure stories: a real SIGKILLed child mid-fit, survivor
  # agreement, and checkpoint/restart across a genuine process death.
  "${build_dir}/tests/test_proc_comm" --gtest_filter='ProcComm.HonestSigkill*:ProcComm.Sigkilled*:ProcComm.CheckpointSurvives*'
  echo "proc smoke: OK"
  exit 0
fi

if [[ "${chaos_smoke}" == "1" ]]; then
  # Chaos-soak smoke: seeded fault schedules (SIGKILL mid-protocol, killed
  # respawns, delayed ranks, damaged checkpoints) against real forked ranks.
  # kb2_soak exits nonzero on any hang (watchdog) or silent mismatch, so the
  # gate is its exit code plus the schema of the soak report it emits.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  (cd "${smoke_dir}" && "${build_dir}/tools/kb2_soak" \
    --schedules 8 --ranks 4 --points-per-rank 1500 --seed 42) \
    | tee "${smoke_dir}/soak.txt"
  grep -q "kb2_soak: PASS" "${smoke_dir}/soak.txt" \
    || { echo "chaos smoke: soak did not report PASS" >&2; exit 1; }
  # A soak where no schedule ever recovered would pass vacuously; require
  # at least one respawn-and-regrow to have actually happened.
  grep -q "regrow=[1-9]" "${smoke_dir}/soak.txt" \
    || { echo "chaos smoke: no schedule exercised respawn/regrow" >&2; exit 1; }
  "${build_dir}/tools/trace_check" --soak \
    "${smoke_dir}/BENCH_chaos_soak.json"
  echo "chaos smoke: OK"
  exit 0
fi

if [[ "${profile_smoke}" == "1" ]]; then
  # Telemetry-plane smoke: a profiled fit must be attachable from outside
  # while it runs, under both transport backends. The input is sized so the
  # fit outlives several kb2_top polls; the snapshot must carry a live
  # fit/* stage (stage-accurate, not just non-empty), and the merged folded
  # stacks must be schema-valid with a positive sample total.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  "${build_dir}/tools/keybin2" generate "${smoke_dir}/points.csv" \
    --points 160000 --dims 8 --k 3 --seed 7
  for backend in thread proc; do
    seg="kb2smoke$$${backend}"
    "${build_dir}/tools/keybin2" cluster "${smoke_dir}/points.csv" \
      --ranks 4 --backend "${backend}" --profile \
      --profile-folded "${smoke_dir}/${backend}.folded" \
      --telemetry "${seg}" > "${smoke_dir}/${backend}.txt" 2>&1 &
    fit_pid=$!
    # Poll until a snapshot shows a live fit stage; the segment appears
    # (and the magic publishes) strictly before the ranks launch, so the
    # only race is the fit finishing first — sized away above.
    got_stage=0
    for _ in $(seq 1 100); do
      if "${build_dir}/tools/kb2_top" --segment "${seg}" --once --json \
        > "${smoke_dir}/${backend}.snap.json" 2>/dev/null \
        && grep -q '"stage": "fit' "${smoke_dir}/${backend}.snap.json"; then
        got_stage=1
        break
      fi
      sleep 0.05
    done
    wait "${fit_pid}" \
      || { echo "profile smoke: ${backend} fit failed" >&2; exit 1; }
    [[ "${got_stage}" == "1" ]] \
      || { echo "profile smoke: never observed a live fit stage over \
${backend}" >&2; exit 1; }
    "${build_dir}/tools/trace_check" --profile \
      "${smoke_dir}/${backend}.snap.json" --min-ranks 1
    "${build_dir}/tools/trace_check" --folded \
      "${smoke_dir}/${backend}.folded"
    echo "profile smoke: ${backend} backend OK"
  done
  echo "profile smoke: OK"
  exit 0
fi

if [[ "${coreset_smoke}" == "1" ]]; then
  # Coreset comm-plane smoke: the dedicated suite (samplers, merge algebra,
  # determinism, auto-selection, both transports), then a small end-to-end
  # comm-mode sweep and the schema of the report the perf gate consumes.
  # The acceptance bars (>= 5x bytes vs sparse, ARI >= 0.95, kAuto picks
  # coreset) are enforced by the bench itself at representative scale — the
  # perf-gate invocation below runs exactly that; the smoke size here only
  # proves the plumbing end to end.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  "${build_dir}/tests/test_coreset"
  (cd "${smoke_dir}" && "${build_dir}/bench/table2_scaling" \
    --points-per-rank 500 --runs 1 --seed 42)
  "${build_dir}/tools/trace_check" --bench \
    "${smoke_dir}/BENCH_table2_scaling.json"
  echo "coreset smoke: OK"
  exit 0
fi

if [[ "${postmortem_smoke}" == "1" ]]; then
  # Crash-forensics smoke: a seeded kill of rank 2 at its 25th comm op must
  # leave a readable flight dump on both backends. Under proc the kill is a
  # real SIGKILL and the respawn ladder recovers the job (exit 0); under
  # thread it is a thrown KilledError and the CLI exits nonzero — either
  # way the dump and its post-mortem story are what the gate judges.
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  "${build_dir}/tools/keybin2" generate "${smoke_dir}/points.csv" \
    --points 4000 --dims 8 --k 3 --seed 7
  for backend in proc thread; do
    dump="${smoke_dir}/${backend}_flight.dump"
    "${build_dir}/tools/keybin2" cluster "${smoke_dir}/points.csv" \
      --ranks 4 --backend "${backend}" --timeout 15 \
      --kill-rank 2 --kill-at-op 25 --respawns 1 --retries 3 \
      --flight-recorder --flight-dump "${dump}" \
      > "${smoke_dir}/${backend}.txt" 2>&1 || true
    [[ -f "${dump}" ]] \
      || { echo "postmortem smoke: no flight dump from ${backend}" >&2
           cat "${smoke_dir}/${backend}.txt" >&2; exit 1; }
    "${build_dir}/tools/kb2_postmortem" "${dump}" \
      | tee "${smoke_dir}/${backend}_report.txt"
    # The report must name the dead rank, its last pipeline stage, and the
    # comm op it died inside (peer + tag) — the whole point of the recorder.
    grep -q "rank 2 inc 0  DEAD" "${smoke_dir}/${backend}_report.txt" \
      || { echo "postmortem smoke: ${backend} report misses dead rank" >&2
           exit 1; }
    grep -Eq "last stage : fit" "${smoke_dir}/${backend}_report.txt" \
      || { echo "postmortem smoke: ${backend} report misses last stage" >&2
           exit 1; }
    grep -Eq "in flight  : (send|recv|barrier|agree)" \
      "${smoke_dir}/${backend}_report.txt" \
      || { echo "postmortem smoke: ${backend} report misses in-flight op" >&2
           exit 1; }
    "${build_dir}/tools/kb2_postmortem" "${dump}" --json \
      > "${smoke_dir}/${backend}_report.json"
    "${build_dir}/tools/trace_check" --postmortem \
      "${smoke_dir}/${backend}_report.json"
    echo "postmortem smoke: ${backend} backend OK"
  done
  # Under proc the SIGKILL was real and the ladder must still have finished
  # the job — forensics without forfeiting the answer.
  grep -q "keybin2: .* clusters" "${smoke_dir}/proc.txt" \
    || { echo "postmortem smoke: proc run did not recover to a result" >&2
         exit 1; }
  echo "postmortem smoke: OK"
  exit 0
fi

if [[ "${perf_gate}" == "1" ]]; then
  # Continuous perf-regression gate: rerun each bench with its committed
  # baseline's exact options and compare. The second compare proves the
  # gate itself still trips: a synthetic 2x slowdown must FAIL. A bench's
  # own nonzero exit fails it too: table2_scaling runs its comm-mode sweep at
  # full gate scale and exits nonzero on a missed bytes/ARI/auto-selection
  # bar, overhead on a missed overhead bar or a fingerprint divergence.
  # Every bench runs, compares and self-tests even after an earlier one
  # failed; one verdict line per bench closes the gate.
  gate_dir="$(mktemp -d)"
  trap 'rm -rf "${gate_dir}"' EXIT
  verdicts=()
  gate_failed=0
  for bench in kernel_fusion overhead table2_scaling; do
    baseline="${repo_root}/bench/baselines/BENCH_${bench}.json"
    report="${gate_dir}/BENCH_${bench}.json"
    case "${bench}" in
      # table2 runs its stages at small per-rank sizes, so sub-50ms stage
      # walls are scheduler jitter: judge only bytes (still gated for every
      # stage) and the big stage imbalances there.
      table2_scaling)
        bench_opts=(--points-per-rank 2000 --runs 2 --seed 42)
        compare_opts=(--min-stage-seconds 0.05)
        ;;
      *)
        bench_opts=(--points-per-rank 20000 --ranks 4 --runs 3 --seed 42)
        compare_opts=()
        ;;
    esac
    failed=()
    (cd "${gate_dir}" && "${build_dir}/bench/${bench}" "${bench_opts[@]}") \
      || failed+=("bench exited nonzero")
    if [[ ! -f "${baseline}" ]]; then
      failed+=("missing baseline ${baseline}")
    else
      "${build_dir}/tools/kb2_analyze" --compare "${baseline}" "${report}" \
        "${compare_opts[@]}" || failed+=("compare")
      if "${build_dir}/tools/kb2_analyze" --compare "${baseline}" \
        "${report}" "${compare_opts[@]}" --scale-time 2.0 >/dev/null; then
        failed+=("self-test: a 2x slowdown passed")
      fi
    fi
    if ((${#failed[@]} == 0)); then
      verdicts+=("perf gate: ${bench}: PASS")
    else
      verdicts+=("perf gate: ${bench}: FAIL ($(IFS=';'; echo "${failed[*]}"))")
      gate_failed=1
    fi
  done
  printf '%s\n' "${verdicts[@]}"
  if [[ "${gate_failed}" == "1" ]]; then
    echo "perf gate: FAIL" >&2
    exit 1
  fi
  echo "perf gate: OK (and self-test trips on synthetic 2x slowdown)"
  exit 0
fi

ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)" \
  "${ctest_args[@]}"

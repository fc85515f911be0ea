#!/usr/bin/env bash
# Canonical verification entry point: configure + build (warnings as errors)
# + full test suite. CI and pre-merge checks run exactly this.
#
#   scripts/check.sh            # build into ./build and run ctest
#   scripts/check.sh --tsan     # ThreadSanitizer build of the whole test
#                               # suite (build-tsan/, race checks on the
#                               # concurrent round path)
#   scripts/check.sh --asan     # ASan+UBSan build of the whole test suite
#                               # (build-asan/, leak/lifetime checks on the
#                               # arena-backed containers: SmallVec spill,
#                               # sample-store slots, token queues, lanes)
#   scripts/check.sh --smoke    # run EVERY scenario in bench_driver's table
#                               # once at tiny n (<= 2k, trials=1) so a
#                               # scenario that crashes, rejects its own
#                               # spec or carries a malformed default fails
#                               # CI, not the next person's experiment sweep;
#                               # then every example at n=256 (a nonzero
#                               # exit fails); then the ledger's own smoke
#                               # (its Release build, determinism and
#                               # conservation gates). The ledger is the one
#                               # benchmark gate; its timed runs go through
#                               # ledger/run.py (ledger/README.md), not here.
#   scripts/check.sh --lint     # shardcheck determinism linter over
#                               # src/ bench/ tests/, cross-checked against
#                               # compile_commands.json so the lint file list
#                               # can never drift from what CMake compiles
#   BUILD_DIR=out scripts/check.sh
#   CMAKE_BUILD_TYPE=Release BUILD_DIR=build-release scripts/check.sh
#                               # the same gate on a Release build (CMake
#                               # reads the build type from the environment
#                               # on first configure; the default is
#                               # RelWithDebInfo)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

TSAN=0
ASAN=0
SMOKE=0
LINT=0
if [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
elif [[ "${1:-}" == "--lint" ]]; then
  LINT=1
  shift
fi

GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS+=(-G Ninja)
fi

if [[ "$SMOKE" == "1" ]]; then
  # Scenario smoke: every scenario in bench_driver's table once, tiny spec
  # (n <= 2k, trials=1). Scenario-level regressions (a crash, a
  # spec-validation failure, a malformed default in the table, a row missing
  # from --list) fail here instead of in someone's experiment sweep.
  # Per-scenario overrides keep the expensive
  # defaults (capacity n=100k, soup_step n=16k, storage 20-tau horizons)
  # down at smoke scale.
  BUILD_DIR="${BUILD_DIR:-build}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON
  EXAMPLES=()
  for src in examples/*.cpp; do
    EXAMPLES+=("example_$(basename "$src" .cpp)")
  done
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_driver "${EXAMPLES[@]}"
  DRIVER="$BUILD_DIR/bench_driver"
  TINY="n=256 trials=1 items=1 searches=3 batches=1 age-taus=0.5"
  SCENARIOS="$("$DRIVER" --list | awk '/^  /{print $1}')"
  [[ -n "$SCENARIOS" ]] || { echo "smoke: --list printed no scenarios"; exit 1; }
  for sc in $SCENARIOS; do
    EXTRA=""
    case "$sc" in
      capacity)  EXTRA="shard-sweep=1,2 measure-rounds=8" ;;
      committee) EXTRA="periods=2" ;;
      mixing)    EXTRA="probes=2000" ;;
      soup)      EXTRA="probes=4" ;;
      soup_step) EXTRA="steps=8 shard-sweep=1,2 counters=true" ;;
      storage)   EXTRA="horizon-taus=2" ;;
    esac
    echo "== smoke: $sc $TINY $EXTRA"
    # shellcheck disable=SC2086
    "$DRIVER" --scenario="$sc" $TINY $EXTRA >/dev/null
  done
  # Observability smoke: the chord scenario with both exporters, and the
  # search scenario, whose store-search trials each attach a session. Every
  # emitted file must parse — jsonl line by line, the chrome trace as one
  # JSON document (the Perfetto-loadability floor).
  OBS_DIR="$(mktemp -d)"
  trap 'rm -rf "$OBS_DIR"' EXIT
  echo "== smoke: chord $TINY obs=jsonl (and obs=chrome), search $TINY obs=jsonl -> $OBS_DIR"
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=chord $TINY \
    obs=jsonl obs-file="$OBS_DIR/obs.jsonl" trace-sample=1 >/dev/null
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=chord $TINY \
    obs=chrome obs-file="$OBS_DIR/obs_trace.json" >/dev/null
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=search $TINY \
    obs=jsonl obs-file="$OBS_DIR/search.jsonl" >/dev/null
  python3 - "$OBS_DIR" <<'PYEOF'
import glob, json, sys
obs_dir = sys.argv[1]
jsonl = glob.glob(obs_dir + "/obs.*.jsonl")
search = glob.glob(obs_dir + "/search.*.jsonl")
chrome = glob.glob(obs_dir + "/obs_trace.*.json")
assert jsonl, "obs=jsonl produced no files"
assert search, "search obs=jsonl produced no files"
assert chrome, "obs=chrome produced no files"
for path in jsonl + search:
    summaries = 0
    with open(path) as f:
        for i, line in enumerate(f):
            obj = json.loads(line)  # every line must be valid JSON
            summaries += 1 if obj.get("summary") else 0
    assert summaries == 1, f"{path}: expected exactly one summary line"
for path in chrome:
    with open(path) as f:
        doc = json.load(f)  # the whole file must be one JSON document
    events = doc["traceEvents"]
    assert events, f"{path}: empty traceEvents"
    assert all("ph" in e for e in events), f"{path}: event without ph"
print(f"obs smoke: {len(jsonl)} chord + {len(search)} search jsonl and "
      f"{len(chrome)} chrome files parse")
PYEOF
  # A scenario that attaches no session rejects the obs keys: exit 1 and no
  # file, never exit 0 with nothing written.
  echo "== smoke: landmark $TINY obs=jsonl must exit 1 and write no file"
  status=0
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=landmark $TINY \
    obs=jsonl obs-file="$OBS_DIR/landmark.jsonl" >/dev/null 2>&1 || status=$?
  [[ "$status" == "1" ]] || { echo "smoke: landmark exited $status, want 1"; exit 1; }
  if compgen -G "$OBS_DIR/landmark*" >/dev/null; then
    echo "smoke: landmark wrote an obs file"
    exit 1
  fi
  # Values must parse whole: a prefix parse would run n=256x as n=256.
  echo "== smoke: search $TINY n=256x must exit 1 naming n"
  status=0
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=search $TINY n=256x \
    >/dev/null 2>"$OBS_DIR/malformed.err" || status=$?
  [[ "$status" == "1" ]] || { echo "smoke: n=256x exited $status, want 1"; exit 1; }
  grep -q "'n'" "$OBS_DIR/malformed.err" || {
    echo "smoke: the n=256x error does not name n"
    exit 1
  }
  # The obs sub-keys need obs=: without it they write nothing, so they must
  # not exit 0.
  echo "== smoke: search $TINY obs-file=... without obs= must exit 1 and write no file"
  status=0
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=search $TINY \
    obs-file="$OBS_DIR/orphan.jsonl" >/dev/null 2>&1 || status=$?
  [[ "$status" == "1" ]] || { echo "smoke: orphan obs-file exited $status, want 1"; exit 1; }
  if compgen -G "$OBS_DIR/orphan*" >/dev/null; then
    echo "smoke: obs-file without obs= wrote a file"
    exit 1
  fi
  # The command line is the only input: exported CHURNSTORE_<KEY>
  # variables must not change a run's bytes.
  echo "== smoke: search $TINY csv=true, with and without CHURNSTORE_* set"
  # shellcheck disable=SC2086
  "$DRIVER" --scenario=search $TINY csv=true >"$OBS_DIR/search_plain.csv"
  # shellcheck disable=SC2086
  CHURNSTORE_N=512 CHURNSTORE_CHURN_MULT=3.0 \
    "$DRIVER" --scenario=search $TINY csv=true >"$OBS_DIR/search_env.csv"
  cmp "$OBS_DIR/search_plain.csv" "$OBS_DIR/search_env.csv"
  # Example smoke: every program under examples/ end to end at n=256; a
  # nonzero exit fails.
  for ex in "${EXAMPLES[@]}"; do
    echo "== smoke: $ex n=256"
    "$BUILD_DIR/$ex" n=256 >/dev/null
  done
  # Benchmark smoke: every ledger workload at tiny n, untraced and traced.
  # It builds the engine from source into build-ledger/, so this also shows
  # the benchmark still compiles against the engine and passes its gates.
  echo "== smoke: ledger"
  python3 ledger/run.py --smoke
  echo
  echo "check.sh --smoke: every scenario, example and ledger workload ran at tiny n"
  exit 0
fi

if [[ "$LINT" == "1" ]]; then
  # shardcheck: static enforcement of the ShardContext determinism contract
  # (rule catalog in tools/shardcheck/shardcheck.h, rationale in README).
  # The scan is cross-checked against compile_commands.json: if the CMake
  # glob and the lint walk ever disagree about which .cpp files exist, the
  # run fails instead of silently skipping the new file.
  BUILD_DIR="${BUILD_DIR:-build}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target shardcheck
  "$BUILD_DIR"/shardcheck --root=. \
    --compile-commands="$BUILD_DIR"/compile_commands.json src bench tests
  echo
  echo "check.sh --lint: shardcheck clean (0 unsuppressed diagnostics)"
  exit 0
fi

if [[ "$ASAN" == "1" ]]; then
  # ASan+UBSan build of the whole suite: every arena-backed container
  # (SmallVec message words/blobs, sample-store slot arrays, token queues,
  # send lanes and the held lanes inboxes point into) is exercised; leaks
  # (blocks that never return to their arena), inbox pointers that outlive
  # their held lane, and other lifetime/UB bugs fail the run.
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON -DCHURNSTORE_ASAN=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target churnstore_tests
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "$BUILD_DIR"/churnstore_tests
  echo
  echo "check.sh --asan: arena-backed containers leak/UB-free"
  exit 0
fi

if [[ "$TSAN" == "1" ]]; then
  # TSan build of the whole suite (~10x slowdown): the sharded engine
  # tests drive every protocol's round path and the message dispatch
  # across a real ThreadPool, including the send-time sender charges that
  # shard tasks write to their own vertices.
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
    -DCHURNSTORE_WARNINGS_AS_ERRORS=ON -DCHURNSTORE_TSAN=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target churnstore_tests
  TSAN_OPTIONS="halt_on_error=1" \
    "$BUILD_DIR"/churnstore_tests
  echo
  echo "check.sh --tsan: whole suite race-free"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
  -DCHURNSTORE_WARNINGS_AS_ERRORS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo
echo "check.sh: build + tests green"

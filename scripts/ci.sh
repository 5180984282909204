#!/usr/bin/env bash
# CI driver. Usage: scripts/ci.sh [jobs] [phase...]
#
#   jobs   — optional leading integer, default $(nproc)
#   phase  — any of: plain tsan asan ubsan tidy lint format throughput
#            corruption cache serve ingest simd cpu-path
#            (default: all, in that order)
#
# Phases:
#   plain      — RelWithDebInfo build, full ctest suite (includes the
#                compile-fail negative tests of the enforcement layer).
#   tsan/asan/ubsan — sanitizer builds. The test set is label-driven: a
#                test labeled `tsan` in tests/CMakeLists.txt is built and
#                run by the tsan phase (`ctest -L tsan`), and the build
#                target list is derived from the same labels, so there is
#                exactly one place that decides sanitizer coverage.
#   tidy       — clang-tidy over every non-test entry of the plain build's
#                compile_commands.json (src/, tools/, bench/), warnings as
#                errors per .clang-tidy. Skipped when clang-tidy is absent.
#   lint       — pcube-lint architecture checks (DESIGN.md §16): mutation
#                entry-point discipline, no aborts reachable from wire
#                decode, GUARDED_BY completeness on lock-owning classes,
#                rationale comments on IgnoreError. Runs pcube_lint_scan,
#                plus a clang --analyze sweep when clang is installed.
#   format     — scripts/format.sh --check against .clang-format. Skipped
#                when clang-format is absent.
#   throughput — bench_throughput smoke (observability artifacts).
#   corruption — end-to-end corruption gate (verify flags corruption, the
#                degraded answer matches the boolean-first reference, both
#                from the CLI and over the wire through `pcube serve`).
#   cache      — bench_cache smoke (warm pass must record L1 hits and beat
#                the cold pass).
#   serve      — network-server gate: a background `pcube serve` must answer
#                a client-mode query identically to a local run, survive raw
#                garbage bytes on its port, shut down cleanly on SIGTERM, and
#                a bench_serve smoke must show overload being shed (non-zero
#                exit when the 2x run sheds nothing); emits BENCH_serve.json.
#   ingest     — write-path gate: the SIGKILL crash-recovery test (reopen
#                must replay the WAL and match a never-crashed reference),
#                a CLI round trip (pcube ingest streams rows through the
#                WAL, verify inspects the sidecar, corrupt --wal tears it
#                and verify must call the torn tail out), and a
#                bench_ingest smoke (sustained ingest concurrent with
#                queries; non-zero exit when commits fail, rows go missing
#                or group commit never coalesces); emits BENCH_ingest.json.
#   simd       — bench_micro dominance-kernel smoke (PCUBE_SIMD_SMOKE=1):
#                emits BENCH_simd.json and, on a CPU with AVX2, fails when
#                the AVX2 kernel is below 1.5x the scalar loop.
#                Report-only on CPUs without AVX2.
#   cpu-path   — bench_cpu_path smoke at 20k rows: warm / cold / scan /
#                evict-stream ms per query of the signature path; fails
#                only when an answer differs from the naive scan; emits
#                BENCH_cpu_path.json.
#
# Every configure exports compile_commands.json
# (CMAKE_EXPORT_COMPILE_COMMANDS is set in CMakeLists.txt), so clang-tidy
# and editors share one database per build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
if [[ "${1:-}" =~ ^[0-9]+$ ]]; then
  JOBS="$1"
  shift
fi

ALL_PHASES=(plain tsan asan ubsan tidy lint format throughput corruption
            cache serve ingest simd cpu-path)
if [ "$#" -gt 0 ]; then
  PHASES=("$@")
  for phase in "${PHASES[@]}"; do
    case " ${ALL_PHASES[*]} " in
      *" $phase "*) ;;
      *)
        echo "ci.sh: unknown phase '$phase' (known: ${ALL_PHASES[*]})" >&2
        exit 1
        ;;
    esac
  done
else
  PHASES=("${ALL_PHASES[@]}")
fi

want() {
  local phase
  for phase in "${PHASES[@]}"; do
    if [ "$phase" = "$1" ]; then return 0; fi
  done
  return 1
}

# Configures + builds the plain tree (the smoke/gate phases run binaries
# out of it). Cheap when already up to date.
ensure_plain_build() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$JOBS"
}

PCUBE=build/tools/pcube

# Starts `pcube serve` in the background on an ephemeral port, parsed from
# its banner: start_server <db> <log>. Sets SERVE_PID and PORT; an EXIT trap
# kills the server if the phase fails before stopping it.
start_server() {
  local db="$1" log="$2"
  "$PCUBE" serve --db "$db" --port 0 > "$log" 2>&1 &
  SERVE_PID=$!
  trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
  PORT=""
  for _ in $(seq 50); do
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
    [ -n "$PORT" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || {
      echo "ci.sh: pcube serve died on startup" >&2
      cat "$log" >&2
      exit 1
    }
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "ci.sh: no port in serve banner" >&2; exit 1; }
}

# Stops the server start_server launched; it must exit cleanly on SIGTERM.
stop_server() {
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || {
    echo "ci.sh: pcube serve exited non-zero on SIGTERM" >&2; exit 1; }
  trap - EXIT
}

# Builds a sanitizer tree and runs the ctest label that defines its test
# set: sanitizer_pass <dir> <PCUBE_SANITIZE value> <label>.
sanitizer_pass() {
  local dir="$1" sanitizer="$2" label="$3"
  cmake -B "$dir" -S . -DPCUBE_SANITIZE="$sanitizer"
  # Derive the build-target list from the test labels so a newly labeled
  # test cannot silently miss the sanitizer matrix. Test name == target
  # name for every pcube_add_test; the compile-fail script tests carry
  # only the `static` label and so never land here.
  local -a targets
  mapfile -t targets < <(ctest --test-dir "$dir" -N -L "$label" |
                         sed -n 's/^ *Test *#[0-9]*: //p')
  if [ "${#targets[@]}" -eq 0 ]; then
    echo "ci.sh: no tests labeled '$label' — label set regressed" >&2
    exit 1
  fi
  echo "--- $label targets: ${targets[*]}"
  cmake --build "$dir" -j "$JOBS" --target "${targets[@]}"
  ctest --test-dir "$dir" --output-on-failure -L "$label"
}

if want plain; then
  echo "=== plain build ==="
  ensure_plain_build
  echo "=== plain ctest ==="
  ctest --test-dir build --output-on-failure
fi

if want tsan; then
  echo "=== tsan ==="
  sanitizer_pass build-tsan thread tsan
fi

if want asan; then
  echo "=== asan ==="
  sanitizer_pass build-asan address asan
fi

if want ubsan; then
  echo "=== ubsan ==="
  sanitizer_pass build-ubsan undefined ubsan
fi

if want tidy; then
  echo "=== clang-tidy ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "ci.sh: clang-tidy not installed — phase SKIPPED"
  else
    # The plain tree's database covers everything; tidy the non-test code
    # (tests trip GTest-macro noise, and the compile-time gates already
    # cover them). .clang-tidy sets WarningsAsErrors: '*'.
    cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    mapfile -t tidy_files < <(git ls-files 'src/**/*.cc' 'tools/*.cpp' \
                              'bench/*.cc')
    clang-tidy -p build --quiet "${tidy_files[@]}"
    echo "ci.sh: clang-tidy clean over ${#tidy_files[@]} files"
  fi
fi

if want lint; then
  echo "=== pcube-lint ==="
  # Architecture checks (DESIGN.md §16): pcube_lint_scan, plus clang
  # --analyze when clang exists. The fixture corpus (lint_fixture_test,
  # plain phase) pins the scanner's semantics.
  ensure_plain_build
  scripts/lint.sh build
fi

if want format; then
  echo "=== format check ==="
  rc=0
  scripts/format.sh --check || rc=$?
  if [ "$rc" -eq 77 ]; then
    echo "ci.sh: clang-format not installed — phase SKIPPED"
  elif [ "$rc" -ne 0 ]; then
    exit "$rc"
  fi
fi

if want throughput; then
  echo "=== throughput smoke ==="
  ensure_plain_build
  SMOKE_DIR=build/smoke
  mkdir -p "$SMOKE_DIR"
  (cd "$SMOKE_DIR" &&
   PCUBE_THROUGHPUT_SMOKE=1 \
   PCUBE_THROUGHPUT_ROWS=2000 \
   PCUBE_THROUGHPUT_QUERIES=24 \
   PCUBE_THROUGHPUT_LATENCY_US=100 \
   ../bench/bench_throughput)
  for field in latency_p50 latency_p95 latency_p99; do
    if ! grep -q "\"$field\"" "$SMOKE_DIR/BENCH_throughput.json"; then
      echo "ci.sh: BENCH_throughput.json is missing $field" >&2
      exit 1
    fi
  done
  for artifact in BENCH_throughput_metrics.prom BENCH_throughput_querylog.jsonl; do
    if [ ! -s "$SMOKE_DIR/$artifact" ]; then
      echo "ci.sh: $artifact missing or empty" >&2
      exit 1
    fi
  done
  if ! grep -q '^pcube_bufferpool_hits_total' "$SMOKE_DIR/BENCH_throughput_metrics.prom"; then
    echo "ci.sh: metrics dump lacks buffer-pool counters" >&2
    exit 1
  fi
  mkdir -p build/artifacts
  cp "$SMOKE_DIR"/BENCH_throughput.json \
     "$SMOKE_DIR"/BENCH_throughput_metrics.prom \
     "$SMOKE_DIR"/BENCH_throughput_querylog.jsonl build/artifacts/
  echo "ci.sh: artifacts in build/artifacts/"
fi

if want corruption; then
  echo "=== corruption gate ==="
  ensure_plain_build
  GATE_DIR=build/corruption-gate
  rm -rf "$GATE_DIR"
  mkdir -p "$GATE_DIR"
  "$PCUBE" generate --rows 3000 --bool 3 --pref 2 --card 8 --seed 5 \
    --out "$GATE_DIR/data.csv" >/dev/null
  "$PCUBE" build --csv "$GATE_DIR/data.csv" --spec bbbpp --header \
    --db "$GATE_DIR/gate.pcube" >/dev/null
  # Reference answer from the boolean-first plan (never touches signatures).
  "$PCUBE" skyline --db "$GATE_DIR/gate.pcube" --where "0=#3" --plan boolean \
    --limit 100000 | grep '^  #' | sort > "$GATE_DIR/reference.txt"
  [ -s "$GATE_DIR/reference.txt" ] || {
    echo "ci.sh: gate reference query returned nothing" >&2; exit 1; }
  "$PCUBE" verify --db "$GATE_DIR/gate.pcube" >/dev/null || {
    echo "ci.sh: verify failed on a pristine database" >&2; exit 1; }
  "$PCUBE" corrupt --db "$GATE_DIR/gate.pcube" --kind signature >/dev/null
  if "$PCUBE" verify --db "$GATE_DIR/gate.pcube" >/dev/null 2>&1; then
    echo "ci.sh: verify missed the corrupted signature pages" >&2
    exit 1
  fi
  "$PCUBE" skyline --db "$GATE_DIR/gate.pcube" --where "0=#3" --plan signature \
    --limit 100000 > "$GATE_DIR/degraded_run.txt"
  grep -q '^degraded:' "$GATE_DIR/degraded_run.txt" || {
    echo "ci.sh: query on corrupt signatures did not report degradation" >&2
    exit 1
  }
  grep '^  #' "$GATE_DIR/degraded_run.txt" | sort > "$GATE_DIR/degraded.txt"
  diff -u "$GATE_DIR/reference.txt" "$GATE_DIR/degraded.txt" || {
    echo "ci.sh: degraded answer differs from the reference" >&2
    exit 1
  }
  # The same damage over the wire: a served query takes the same path, so
  # it must degrade too, say so, and return the reference tids.
  start_server "$GATE_DIR/gate.pcube" "$GATE_DIR/server.log"
  "$PCUBE" query --connect "127.0.0.1:$PORT" --where "0=#3" --limit 100000 \
    > "$GATE_DIR/remote_run.txt"
  stop_server
  grep -q '^[0-9]* result(s) \[boolean-first plan, degraded' \
    "$GATE_DIR/remote_run.txt" || {
    echo "ci.sh: served query on corrupt signatures did not degrade" >&2
    exit 1
  }
  awk '{print $1}' "$GATE_DIR/reference.txt" | sort > "$GATE_DIR/reference_tids.txt"
  awk '/^  #/ {print $1}' "$GATE_DIR/remote_run.txt" | sort > "$GATE_DIR/remote.txt"
  diff -u "$GATE_DIR/reference_tids.txt" "$GATE_DIR/remote.txt" || {
    echo "ci.sh: served degraded answer differs from the reference" >&2
    exit 1
  }
  echo "ci.sh: corruption gate passed"
fi

if want cache; then
  echo "=== cache smoke ==="
  ensure_plain_build
  CACHE_DIR=build/cache-smoke
  mkdir -p "$CACHE_DIR"
  # bench_cache itself exits non-zero when the warm pass records no L1 hits,
  # misses the 2x warm-over-cold bar, or the hot pass falls below cold.
  (cd "$CACHE_DIR" &&
   PCUBE_CACHE_ROWS=2000 \
   PCUBE_CACHE_QUERIES=24 \
   PCUBE_CACHE_LATENCY_US=100 \
   PCUBE_CACHE_WORKERS=2 \
   PCUBE_CACHE_HOT_PASSES=2 \
   ../bench/bench_cache)
  for field in warm_over_cold l1_hit_rate; do
    if ! grep -q "\"$field\"" "$CACHE_DIR/BENCH_cache.json"; then
      echo "ci.sh: BENCH_cache.json is missing $field" >&2
      exit 1
    fi
  done
  for counter in pcube_result_cache_hits_total pcube_fragment_cache_hits_total \
                 pcube_result_cache_hit_rate; do
    if ! grep -q "^$counter" "$CACHE_DIR/BENCH_cache_metrics.prom"; then
      echo "ci.sh: metrics dump lacks $counter" >&2
      exit 1
    fi
  done
  if ! grep -q '"cache":' "$CACHE_DIR/BENCH_cache_querylog.jsonl"; then
    echo "ci.sh: query log records lack the cache: field" >&2
    exit 1
  fi
  mkdir -p build/artifacts
  cp "$CACHE_DIR"/BENCH_cache.json "$CACHE_DIR"/BENCH_cache_metrics.prom \
     "$CACHE_DIR"/BENCH_cache_querylog.jsonl build/artifacts/
  echo "ci.sh: cache smoke passed"
fi

if want serve; then
  echo "=== serve gate ==="
  ensure_plain_build
  SERVE_DIR=build/serve-gate
  rm -rf "$SERVE_DIR"
  mkdir -p "$SERVE_DIR"
  "$PCUBE" generate --rows 3000 --bool 3 --pref 2 --card 8 --seed 5 \
    --out "$SERVE_DIR/data.csv" >/dev/null
  "$PCUBE" build --csv "$SERVE_DIR/data.csv" --spec bbbpp --header \
    --db "$SERVE_DIR/serve.pcube" >/dev/null
  # Reference answer from a local (in-process) run of the same query.
  "$PCUBE" skyline --db "$SERVE_DIR/serve.pcube" --where "0=#3" \
    --limit 100000 | awk '/^  #/ {print $1}' | sort > "$SERVE_DIR/reference.txt"
  [ -s "$SERVE_DIR/reference.txt" ] || {
    echo "ci.sh: serve gate reference query returned nothing" >&2; exit 1; }

  start_server "$SERVE_DIR/serve.pcube" "$SERVE_DIR/server.log"

  # Client smoke: the remote answer must equal the local reference.
  "$PCUBE" query --connect "127.0.0.1:$PORT" --where "0=#3" \
    --limit 100000 | awk '/^  #/ {print $1}' | sort > "$SERVE_DIR/remote.txt"
  diff -u "$SERVE_DIR/reference.txt" "$SERVE_DIR/remote.txt" || {
    echo "ci.sh: remote answer differs from the local run" >&2
    exit 1
  }

  # Malformed-frame gate: raw garbage on the socket must not take the
  # server down or poison later, well-formed queries.
  head -c 64 /dev/urandom > "/dev/tcp/127.0.0.1/$PORT" || true
  printf 'not a pcube frame' > "/dev/tcp/127.0.0.1/$PORT" || true
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "ci.sh: server died on malformed input" >&2; exit 1; }
  "$PCUBE" query --connect "127.0.0.1:$PORT" --where "0=#3" \
    --limit 100000 | awk '/^  #/ {print $1}' | sort > "$SERVE_DIR/after_garbage.txt"
  diff -u "$SERVE_DIR/reference.txt" "$SERVE_DIR/after_garbage.txt" || {
    echo "ci.sh: answers changed after malformed frames" >&2
    exit 1
  }

  # Clean shutdown on SIGTERM.
  stop_server
  grep -q 'shutting down' "$SERVE_DIR/server.log" || {
    echo "ci.sh: serve shutdown banner missing" >&2; exit 1; }

  # Overload gate: bench_serve exits non-zero itself when the 2x offered
  # load is not shed or admitted traffic sees hard failures.
  (cd "$SERVE_DIR" && PCUBE_SERVE_SMOKE=1 ../bench/bench_serve)
  for field in qps shed_rate queue_wait_p50 queue_wait_p95 queue_wait_p99; do
    if ! grep -q "\"$field\"" "$SERVE_DIR/BENCH_serve.json"; then
      echo "ci.sh: BENCH_serve.json is missing $field" >&2
      exit 1
    fi
  done
  mkdir -p build/artifacts
  cp "$SERVE_DIR/BENCH_serve.json" build/artifacts/
  echo "ci.sh: serve gate passed"
fi

if want ingest; then
  echo "=== ingest gate ==="
  ensure_plain_build
  cmake --build build -j "$JOBS" --target bench_ingest
  # Crash-recovery gate: a child is SIGKILLed mid-commit; the reopen must
  # replay the WAL, verify clean, and answer exactly like a never-crashed
  # reference that applied the recovered prefix of batches.
  ctest --test-dir build --output-on-failure -R '^crash_recovery_test$'

  INGEST_DIR=build/ingest-gate
  rm -rf "$INGEST_DIR"
  mkdir -p "$INGEST_DIR"

  # CLI write-path round trip: stream rows through the WAL, verify the
  # sidecar, then tear the log — verify must report the torn tail (crash
  # residue degrades, it does not fail) and the healed database must answer.
  "$PCUBE" generate --rows 2000 --bool 2 --pref 2 --card 6 --seed 9 \
    --out "$INGEST_DIR/base.csv" >/dev/null
  "$PCUBE" build --csv "$INGEST_DIR/base.csv" --spec bbpp --header \
    --db "$INGEST_DIR/ingest.pcube" >/dev/null
  "$PCUBE" generate --rows 500 --bool 2 --pref 2 --card 6 --seed 10 \
    --out "$INGEST_DIR/extra.csv" >/dev/null
  "$PCUBE" ingest --db "$INGEST_DIR/ingest.pcube" --csv "$INGEST_DIR/extra.csv" \
    --spec bbpp --header --batch 128 > "$INGEST_DIR/ingest.log"
  grep -q '^ingested 500 row' "$INGEST_DIR/ingest.log" || {
    echo "ci.sh: pcube ingest did not acknowledge 500 rows" >&2; exit 1; }
  "$PCUBE" verify --db "$INGEST_DIR/ingest.pcube" > "$INGEST_DIR/verify.log" || {
    echo "ci.sh: verify failed after ingest" >&2; exit 1; }
  grep -q '^wal: ' "$INGEST_DIR/verify.log" || {
    echo "ci.sh: verify did not inspect the WAL sidecar" >&2; exit 1; }
  # The verify above recovered and checkpointed, emptying the log. Refill it
  # so the corruption below lands inside a live record, not a zeroed region.
  "$PCUBE" ingest --db "$INGEST_DIR/ingest.pcube" --csv "$INGEST_DIR/extra.csv" \
    --spec bbpp --header --batch 128 > "$INGEST_DIR/ingest2.log"
  "$PCUBE" corrupt --db "$INGEST_DIR/ingest.pcube" --wal >/dev/null
  "$PCUBE" verify --db "$INGEST_DIR/ingest.pcube" \
    > "$INGEST_DIR/verify_torn.log" || {
    echo "ci.sh: a torn WAL tail must degrade, not fail, verify" >&2; exit 1; }
  grep -q 'torn tail' "$INGEST_DIR/verify_torn.log" || {
    echo "ci.sh: verify missed the torn WAL tail" >&2; exit 1; }
  "$PCUBE" skyline --db "$INGEST_DIR/ingest.pcube" --where "0=#3" --limit 10 \
    >/dev/null || {
    echo "ci.sh: query failed after the WAL heal" >&2; exit 1; }

  # bench_ingest smoke: sustained WriteBatch ingest with real fsyncs, alone
  # and concurrent with query traffic. The binary is its own gate. Four
  # writers: with two, no commit group formed on a 4-vCPU VM (group mean
  # 1.00 in every run), which fails the binary's grouping gate; ROADMAP.md
  # tracks the cause.
  (cd "$INGEST_DIR" &&
   PCUBE_INGEST_ROWS=2000 \
   PCUBE_INGEST_BATCHES=25 \
   PCUBE_INGEST_BATCH_ROWS=16 \
   PCUBE_INGEST_WRITERS=4 \
   PCUBE_INGEST_READERS=1 \
   ../bench/bench_ingest)
  for field in inserts_per_sec commit_p50_ms commit_p95_ms commit_p99_ms \
               mean_group_size; do
    if ! grep -q "\"$field\"" "$INGEST_DIR/BENCH_ingest.json"; then
      echo "ci.sh: BENCH_ingest.json is missing $field" >&2
      exit 1
    fi
  done
  mkdir -p build/artifacts
  cp "$INGEST_DIR/BENCH_ingest.json" build/artifacts/
  echo "ci.sh: ingest gate passed"
fi

if want simd; then
  echo "=== simd kernel smoke ==="
  ensure_plain_build
  cmake --build build -j "$JOBS" --target bench_micro
  SIMD_DIR=build/simd-smoke
  mkdir -p "$SIMD_DIR"
  # bench_micro's smoke mode exits non-zero itself when the CPU has AVX2
  # but the AVX2 dominance kernel misses the 1.5x bar.
  (cd "$SIMD_DIR" && PCUBE_SIMD_SMOKE=1 ../bench/bench_micro)
  for field in cpu_avx2 dominance_scalar_ns dominance_vector_ns \
               dominance_speedup; do
    if ! grep -q "\"$field\"" "$SIMD_DIR/BENCH_simd.json"; then
      echo "ci.sh: BENCH_simd.json is missing $field" >&2
      exit 1
    fi
  done
  mkdir -p build/artifacts
  cp "$SIMD_DIR/BENCH_simd.json" build/artifacts/
  echo "ci.sh: simd smoke passed"
fi

if want cpu-path; then
  echo "=== cpu-path smoke ==="
  ensure_plain_build
  CPU_DIR=build/cpu-path-smoke
  mkdir -p "$CPU_DIR"
  # bench_cpu_path exits non-zero when any answer differs from the naive
  # scan; its timings are reported, never gated.
  (cd "$CPU_DIR" && PCUBE_CPU_PATH_ROWS=20000 ../bench/bench_cpu_path)
  mkdir -p build/artifacts
  cp "$CPU_DIR/BENCH_cpu_path.json" build/artifacts/
  echo "ci.sh: cpu-path smoke passed"
fi

echo "ci.sh: selected phases green (${PHASES[*]})"

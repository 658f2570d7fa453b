#!/usr/bin/env bash
# Perf-trajectory gate over the committed BENCH_*.json baselines.
#
# Re-runs each smoke gate (via scripts/smoke.sh) with its baseline
# output redirected to a scratch dir, then compares the fresh JSON
# against the committed one:
#
#   * config_hash must match — a silently drifted benchmark config would
#     make every perf comparison meaningless, so a mismatch FAILS.
#   * any "identical": false in the fresh run FAILS, always — identity
#     is the correctness gate and does not care about hardware.
#   * the stream counts (events / outputs / alarms / scored) must equal
#     the committed ones: one config_hash names one simulated stream, so
#     a changed random stream or engine FAILS here instead of re-recording
#     the baseline silently. The chaos gates' supervision counts (restarts
#     / spawns / sigkills / heartbeat_misses / kills_injected /
#     hangs_detected / panics_caught / replayed_outputs / quarantined)
#     are deterministic too and must equal the committed ones: a change
#     in how often shards restart, replay or die by SIGKILL FAILS.
#   * wall_secs / mean_run_secs / tick_p50_us / events_per_sec /
#     outputs_per_sec are compared pairwise in document order
#     (mean_run_secs is a chaos gate's mean run: spawns, WAL replay and
#     re-feed included; tick_p50_us is the serve gate's median sequential
#     prediction tick, lower is better). When the committed `cores` matches this host's
#     recorded cores the comparison is enforced (a fresh value worse
#     than the committed one by more than BENCH_CHECK_MAX_REGRESSION x
#     FAILS); when cores differ — the usual case on shared CI runners —
#     perf deltas are reported as warnings only.
#
# BENCH_fleet_large.json (the 100k-DIMM x 1-year event-engine run) is
# too big to re-run in CI; its *recorded* identity flags are validated
# instead: any "identical": false in the committed file fails the gate.
#
# A trajectory report (every comparison line) is written for the CI
# artifact upload.
#
# Usage: scripts/bench-check.sh            re-run + compare all gates
#        scripts/bench-check.sh --self-test  comparator unit test with
#                                            fabricated baseline pairs
#                                            (injected identity failure,
#                                            hash mismatch, count drift,
#                                            restart drift, cores skew,
#                                            slow chaos runs, slow ticks)
#
# Environment:
#   BENCH_CHECK_ONLY="fleet serve"   subset of gates to re-run
#   BENCH_CHECK_MAX_REGRESSION=5.0   enforced perf regression factor
#   BENCH_CHECK_REPORT=bench-check-report.txt
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MAXX="${BENCH_CHECK_MAX_REGRESSION:-5.0}"
REPORT_FILE="${BENCH_CHECK_REPORT:-bench-check-report.txt}"
FAILURES=0
WARNINGS=0

say() {
  echo "$1"
  echo "$1" >> "$REPORT_FILE"
}

# All numeric values of `key` in `file`, in document order.
nums() { # file key
  grep -o "\"$2\": *[0-9.eE+-]*" "$1" | sed -E 's/.*: *//' || true
}

str_of() { # file key
  grep -o "\"$2\": *\"[^\"]*\"" "$1" | head -1 | sed -E 's/.*: *"([^"]*)"/\1/' || true
}

int_of() { # file key
  nums "$1" "$2" | head -1
}

# Pairwise perf comparison of one key. Emits WARN/FAIL lines; bumps the
# global counters. `enforce=1` turns regressions into failures.
perf_key() { # committed fresh name key kind(wall|rate) enforce
  local c="$1" f="$2" name="$3" key="$4" kind="$5" enforce="$6"
  local cvals fvals
  cvals="$(nums "$c" "$key")"
  fvals="$(nums "$f" "$key")"
  [ -z "$cvals" ] && return 0
  if [ "$(echo "$cvals" | wc -l)" != "$(echo "$fvals" | wc -l)" ]; then
    say "WARN $name: $key count differs (baseline schema changed?) — refresh the committed baseline"
    WARNINGS=$((WARNINGS + 1))
    return 0
  fi
  local out
  out="$(paste <(echo "$cvals") <(echo "$fvals") | awk -v key="$key" -v maxx="$MAXX" -v kind="$kind" '
    {
      i += 1
      c = $1 + 0; f = $2 + 0
      if (c <= 0 || f <= 0) next
      worse = (kind == "wall") ? f / c : c / f
      if (worse > maxx)
        printf "%s[%d]: committed %.6g, fresh %.6g (%.1fx worse than the %.1fx allowance)\n", key, i, c, f, worse, maxx
    }')"
  if [ -n "$out" ]; then
    while IFS= read -r line; do
      if [ "$enforce" = 1 ]; then
        say "FAIL $name: perf regression: $line"
        FAILURES=$((FAILURES + 1))
      else
        say "WARN $name: perf delta (cores differ, not enforced): $line"
        WARNINGS=$((WARNINGS + 1))
      fi
    done <<< "$out"
  fi
}

# The comparator: committed vs fresh baseline for one gate.
compare_json() { # committed fresh name
  local c="$1" f="$2" name="$3"
  if [ ! -f "$c" ]; then
    say "WARN $name: no committed baseline $c — skipping"
    WARNINGS=$((WARNINGS + 1))
    return 0
  fi
  if [ ! -f "$f" ]; then
    say "FAIL $name: fresh run produced no baseline at $f"
    FAILURES=$((FAILURES + 1))
    return 0
  fi

  local chash fhash
  chash="$(str_of "$c" config_hash)"
  fhash="$(str_of "$f" config_hash)"
  if [ -n "$chash" ] && [ "$chash" != "$fhash" ]; then
    say "FAIL $name: config_hash mismatch (committed $chash, fresh ${fhash:-none}) — the benchmark config drifted; regenerate the committed baseline deliberately"
    FAILURES=$((FAILURES + 1))
    return 0
  fi

  local bad_identity
  bad_identity="$(grep -c '"identical": *false' "$f" || true)"
  if [ "$bad_identity" -gt 0 ]; then
    say "FAIL $name: $bad_identity run(s) reported \"identical\": false — bit-identity regression"
    FAILURES=$((FAILURES + 1))
    return 0
  fi

  local key cvals fvals
  for key in events outputs alarms scored restarts spawns sigkills heartbeat_misses \
    kills_injected hangs_detected panics_caught replayed_outputs quarantined; do
    cvals="$(nums "$c" "$key" | paste -sd' ' -)"
    fvals="$(nums "$f" "$key" | paste -sd' ' -)"
    if [ "$cvals" != "$fvals" ]; then
      say "FAIL $name: $key differs at config_hash $chash (committed ${cvals:-none}, fresh ${fvals:-none}) — the simulated stream, an engine or the supervision policy changed"
      FAILURES=$((FAILURES + 1))
      return 0
    fi
  done

  local ccores fcores enforce before
  ccores="$(int_of "$c" cores)"
  fcores="$(int_of "$f" cores)"
  enforce=0
  if [ -n "$ccores" ] && [ "$ccores" = "$fcores" ]; then
    enforce=1
  fi
  before=$FAILURES
  perf_key "$c" "$f" "$name" wall_secs wall "$enforce"
  perf_key "$c" "$f" "$name" mean_run_secs wall "$enforce"
  perf_key "$c" "$f" "$name" tick_p50_us wall "$enforce"
  perf_key "$c" "$f" "$name" events_per_sec rate "$enforce"
  perf_key "$c" "$f" "$name" outputs_per_sec rate "$enforce"
  if [ "$FAILURES" -eq "$before" ]; then
    say "OK   $name: config_hash $chash, identity clean, perf $([ "$enforce" = 1 ] && echo enforced || echo "warn-only (cores: committed ${ccores:-n/a}, here ${fcores:-n/a})")"
  fi
}

# Static validation of a committed large-run baseline (never re-run).
check_recorded_identity() { # committed name
  local c="$1" name="$2"
  if [ ! -f "$c" ]; then
    say "WARN $name: $c not present — skipping recorded-identity check"
    WARNINGS=$((WARNINGS + 1))
    return 0
  fi
  if grep -q '"identical": *false' "$c"; then
    say "FAIL $name: committed baseline records \"identical\": false"
    FAILURES=$((FAILURES + 1))
  elif ! grep -q '"identical": *true' "$c"; then
    say "FAIL $name: committed baseline records no identity flag at all"
    FAILURES=$((FAILURES + 1))
  else
    say "OK   $name: recorded identity flags are all true"
  fi
}

self_test() {
  local t
  t="$(mktemp -d /tmp/bench-check.XXXXXX)"
  trap 'rm -rf "$t"' EXIT
  local rc

  # A healthy pair: same hash, same cores, identity true, similar perf.
  cat > "$t/good_committed.json" <<'EOF'
{"bench": "x", "events": 4242, "cores": 4, "config_hash": "abc123",
 "baseline": {"wall_secs": 1.0, "events_per_sec": 1000.0, "tick_p50_us": 100.0},
 "runs": [{"wall_secs": 0.5, "events_per_sec": 2000.0, "identical": true}],
 "chaos": {"runs": 3, "identical": true, "restarts": 7, "replayed_outputs": 900,
           "mean_run_secs": 0.2}}
EOF
  sed 's/0\.5/0.6/' "$t/good_committed.json" > "$t/good_fresh.json"

  # Injected identity failure.
  sed 's/"identical": true/"identical": false/' "$t/good_committed.json" > "$t/bad_identity.json"

  # Drifted config.
  sed 's/abc123/def456/' "$t/good_fresh.json" > "$t/bad_hash.json"

  # Same config, different stream.
  sed 's/"events": 4242/"events": 4243/' "$t/good_fresh.json" > "$t/bad_counts.json"

  # Same config and stream, but shards restart more often.
  sed 's/"restarts": 7/"restarts": 8/' "$t/good_fresh.json" > "$t/bad_restarts.json"

  # Different host, much slower: must warn, not fail.
  sed -e 's/"cores": 4/"cores": 64/' -e 's/"wall_secs": 0.5/"wall_secs": 50.0/' \
    "$t/good_committed.json" > "$t/slow_other_host.json"

  # Same host, much slower: must fail.
  sed 's/"wall_secs": 0.5/"wall_secs": 50.0/' "$t/good_committed.json" > "$t/slow_same_host.json"

  # Same host, chaos runs 10x slower (recovery got costlier): must fail.
  sed 's/"mean_run_secs": 0.2/"mean_run_secs": 2.0/' "$t/good_committed.json" > "$t/slow_chaos_runs.json"

  # Same host, prediction ticks 10x slower: must fail.
  sed 's/"tick_p50_us": 100.0/"tick_p50_us": 1000.0/' "$t/good_committed.json" > "$t/slow_ticks.json"

  echo "[bench-check] self-test: healthy pair must pass"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/good_fresh.json" self-good
  [ "$FAILURES" -eq 0 ] || { echo "[bench-check] SELF-TEST FAILED: healthy pair flagged"; exit 1; }

  echo "[bench-check] self-test: injected identity=false must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/bad_identity.json" self-identity
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: identity=false not caught"; exit 1; }

  echo "[bench-check] self-test: config_hash drift must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/bad_hash.json" self-hash
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: hash drift not caught"; exit 1; }

  echo "[bench-check] self-test: count drift at the same config_hash must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/bad_counts.json" self-counts
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: count drift not caught"; exit 1; }

  echo "[bench-check] self-test: restart drift at the same config_hash must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/bad_restarts.json" self-restarts
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: restart drift not caught"; exit 1; }

  echo "[bench-check] self-test: slow run on a different host must warn only"
  FAILURES=0; WARNINGS=0
  compare_json "$t/good_committed.json" "$t/slow_other_host.json" self-othercores
  { [ "$FAILURES" -eq 0 ] && [ "$WARNINGS" -gt 0 ]; } \
    || { echo "[bench-check] SELF-TEST FAILED: cores-differ perf delta handled wrong"; exit 1; }

  echo "[bench-check] self-test: slow run on the same host must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/slow_same_host.json" self-samecores
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: same-host regression not caught"; exit 1; }

  echo "[bench-check] self-test: same-host chaos runs 10x slower must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/slow_chaos_runs.json" self-chaosruns
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: slower mean_run_secs not caught"; exit 1; }

  echo "[bench-check] self-test: same-host ticks 10x slower must fail"
  FAILURES=0
  compare_json "$t/good_committed.json" "$t/slow_ticks.json" self-ticks
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: slower tick_p50_us not caught"; exit 1; }

  echo "[bench-check] self-test: recorded identity=false in a committed file must fail"
  FAILURES=0
  check_recorded_identity "$t/bad_identity.json" self-recorded
  [ "$FAILURES" -gt 0 ] || { echo "[bench-check] SELF-TEST FAILED: recorded identity=false not caught"; exit 1; }

  echo "[bench-check] self-test passed"
  exit 0
}

: > "$REPORT_FILE"
say "bench-check trajectory report ($(date -u +%Y-%m-%dT%H:%M:%SZ 2>/dev/null || echo unknown-time))"
say "host cores: $(nproc 2>/dev/null || echo unknown), max enforced regression: ${MAXX}x"

if [ "${1:-}" = "--self-test" ]; then
  self_test
fi

GATES="${BENCH_CHECK_ONLY:-fleet serve wal failover procfail}"
SCRATCH="$(mktemp -d /tmp/bench-check.XXXXXX)"
trap 'rm -rf "$SCRATCH"' EXIT

for gate in $GATES; do
  case "$gate" in
    fleet)    committed="$ROOT/BENCH_fleet.json";    out_var=FLEET_OUT ;;
    serve)    committed="$ROOT/BENCH_serve.json";    out_var=SERVE_OUT ;;
    wal)      committed="$ROOT/BENCH_wal.json";      out_var=WAL_OUT ;;
    failover) committed="$ROOT/BENCH_failover.json"; out_var=FAILOVER_OUT ;;
    procfail) committed="$ROOT/BENCH_procfail.json"; out_var=PROCFAIL_OUT ;;
    *) echo "[bench-check] unknown gate '$gate'" >&2; exit 2 ;;
  esac
  fresh="$SCRATCH/$gate.json"
  echo "[bench-check] re-running $gate ..." >&2
  if env "$out_var=$fresh" "$ROOT/scripts/smoke.sh" "$gate" >> "$REPORT_FILE" 2>&1; then
    compare_json "$committed" "$fresh" "$gate"
  else
    say "FAIL $gate: smoke run itself failed (its own identity/recall gate tripped) — see report"
    FAILURES=$((FAILURES + 1))
  fi
done

check_recorded_identity "$ROOT/BENCH_fleet_large.json" fleet-large

say "bench-check: $FAILURES failure(s), $WARNINGS warning(s)"
[ "$FAILURES" -eq 0 ] || exit 1

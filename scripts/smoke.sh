#!/usr/bin/env bash
# One parameterized smoke driver for every gate binary, replacing the
# five near-identical *-smoke.sh scripts. Each NAME row in the table
# below maps to one mfp-bench binary, its gate arguments, and the
# baseline file it refreshes; the binary exits non-zero when its
# bit-identity (or recall) gate fails, and `set -e` propagates that.
#
# Usage: scripts/smoke.sh NAME [NAME ...] [-- extra flags]
#        (extra flags are appended to every named run)
#
# Names:
#   chaos     chaos_e2e       hostile-telemetry sweep + recall floor
#   serve     serve_scale     sharded serving matrix vs sequential oracle
#   fleet     fleet_scale     event engine matrix vs sequential tick oracle
#   wal       wal_replay      WAL crash/recovery bit-identity
#   failover  supervise_chaos --host thread   supervised-shard crash chaos
#   procfail  supervise_chaos --host process  process-isolated SIGKILL chaos
#
# Environment (per name; unrelated names ignore them):
#   MIN_RECALL=0.7            chaos: recall floor (CI uses 0.90)
#   REPORT=path               tee all runs' output to this file (CI artifact)
#   DIMMS=...                 serve 4000 / wal 1000 / failover 800 / procfail 400
#   MATRIX=1x1,2x2,4x2,8x4    serve: shard x worker cells
#   SERVE_OUT=BENCH_serve.json
#   FLEET_DIMMS=2000 FLEET_SHARDS=1,2,4,8 FLEET_WORKERS=1,2,4
#   SEED=23                   fleet: plan seed
#   FLEET_OUT=BENCH_fleet.json
#   CUTS=8 SHARDS=2           wal: crash offsets / serving shards
#   WAL_OUT=BENCH_wal.json
#   SCHEDULES=... CHAOS_EVENTS=...   failover (3/6), procfail (2/5)
#   FAILOVER_OUT=BENCH_failover.json PROCFAIL_OUT=BENCH_procfail.json
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

NAMES=()
while [ $# -gt 0 ]; do
  if [ "$1" = "--" ]; then
    shift
    break
  fi
  NAMES+=("$1")
  shift
done
EXTRA=("$@")
if [ ${#NAMES[@]} -eq 0 ]; then
  echo "usage: scripts/smoke.sh NAME [NAME ...] [-- extra flags]" >&2
  echo "names: chaos serve fleet wal failover procfail" >&2
  exit 2
fi

# The table: NAME -> (BIN, ARGS). Defaults mirror the committed
# BENCH_*.json baselines so a plain run is comparable to them.
resolve() {
  case "$1" in
    chaos)
      BIN=chaos_e2e
      ARGS=(--rates 0.0,0.15,0.3 --min-recall "${MIN_RECALL:-0.7}")
      ;;
    serve)
      BIN=serve_scale
      ARGS=(--dimms "${DIMMS:-4000}" --matrix "${MATRIX:-1x1,2x2,4x2,8x4}"
            --horizon-days 30 --out "${SERVE_OUT:-BENCH_serve.json}")
      ;;
    fleet)
      BIN=fleet_scale
      ARGS=(--dimms "${FLEET_DIMMS:-2000}"
            --shards "${FLEET_SHARDS:-1,2,4,8}" --workers "${FLEET_WORKERS:-1,2,4}"
            --horizon-days 30 --seed "${SEED:-23}" --out "${FLEET_OUT:-BENCH_fleet.json}")
      ;;
    wal)
      BIN=wal_replay
      ARGS=(--dimms "${DIMMS:-1000}" --cuts "${CUTS:-8}" --shards "${SHARDS:-2}"
            --horizon-days 30 --out "${WAL_OUT:-BENCH_wal.json}")
      ;;
    failover)
      BIN=supervise_chaos
      ARGS=(--host thread --seed 29 --batch 64
            --dimms "${DIMMS:-800}" --schedules "${SCHEDULES:-3}"
            --chaos-events "${CHAOS_EVENTS:-6}" --horizon-days 30
            --out "${FAILOVER_OUT:-BENCH_failover.json}")
      ;;
    procfail)
      BIN=supervise_chaos
      ARGS=(--host process --seed 31 --batch 32
            --dimms "${DIMMS:-400}" --schedules "${SCHEDULES:-2}"
            --chaos-events "${CHAOS_EVENTS:-5}" --horizon-days 14
            --out "${PROCFAIL_OUT:-BENCH_procfail.json}")
      ;;
    *)
      echo "[smoke] unknown name '$1' (chaos serve fleet wal failover procfail)" >&2
      exit 2
      ;;
  esac
}

run_cmd() {
  if [ -n "${REPORT:-}" ]; then
    "$@" | tee -a "$REPORT"
  else
    "$@"
  fi
}

[ -n "${REPORT:-}" ] && : > "$REPORT"

for name in "${NAMES[@]}"; do
  resolve "$name"
  echo "[smoke] $name -> $BIN ${ARGS[*]} ${EXTRA[*]:-}" >&2
  run_cmd cargo run --release --manifest-path "$ROOT/Cargo.toml" -p mfp-bench --bin "$BIN" -- \
    "${ARGS[@]}" ${EXTRA[@]+"${EXTRA[@]}"}
done

# Convenience entry points over cargo. The smoke gates share one
# parameterized driver, scripts/smoke.sh — each target below is a thin
# alias onto its table.

.PHONY: test chaos e2e serve wal failover procfail bench-check ci

# Every crate's unit tests, the property tests under tests/ and the
# doctests.
test:
	cargo test --workspace -q

# What CI's cargo job runs, followed by the chaos smoke at the CI recall
# floor.
ci:
	cargo build --release --workspace
	cargo test --workspace -q
	MIN_RECALL=0.90 scripts/smoke.sh chaos

# Hostile-telemetry smoke: chaos_e2e at three corruption rates with an
# alarm-recall floor and a lossless bit-identity gate.
chaos:
	scripts/smoke.sh chaos

# Happy-path MLOps end-to-end.
e2e:
	cargo run --release -p mfp-bench --bin mlops_e2e

# Sharded serving matrix: bit-identity gate against the sequential
# predictor, plus the event engine matrix of the fleet simulator against
# its sequential tick oracle;
# refreshes the BENCH_serve.json / BENCH_fleet.json baselines.
serve:
	scripts/smoke.sh serve fleet

# Durability gate: crash the write-ahead log at sampled byte offsets and
# require recovery + resume to reproduce the uncrashed alarm log bit for
# bit; refreshes the BENCH_wal.json baseline.
wal:
	scripts/smoke.sh wal

# Self-healing gate (supervise_chaos --host thread): drive the supervised
# sharded engine through seeded kill/hang/panic schedules (torn WAL
# tails included) and require merged alarms + scores to match the
# uncrashed oracle bit for bit; refreshes the BENCH_failover.json
# baseline.
failover:
	scripts/smoke.sh failover

# Process-isolation gate (supervise_chaos --host process): run one worker
# OS process per shard behind the MFP1 pipe protocol, inject real
# SIGKILLs (torn WAL tails), hangs and apply panics, and require merged
# alarms + scores to match the uncrashed oracle bit for bit; refreshes
# the BENCH_procfail.json baseline.
procfail:
	scripts/smoke.sh procfail

# Perf-trajectory gate: re-run every smoke gate into a scratch dir and
# compare the fresh BENCH_*.json against the committed baselines —
# config_hash must match, identity=false always fails, perf regressions
# fail only when the committed `cores` matches this host.
bench-check:
	scripts/bench-check.sh

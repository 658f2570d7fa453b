//! # mfp-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`table1`, `fig4`, `fig5`, `table2`, `virr_model`, `windows_sweep`,
//! `ablation_features`), plus micro-benchmarks in `benches/`. Binaries
//! print "paper vs measured" rows wherever the paper reports a number.
//!
//! The gate binaries (`serve_scale`, `fleet_scale`, `wal_replay`,
//! `supervise_chaos`, `chaos_e2e`, `mlops_e2e`) check identity or recall
//! and write the committed `BENCH_*.json` rows; they share [`gate`], as
//! the table binaries share [`report`].
pub mod gate;
pub mod report;

//! The harness behind the gate binaries (`serve_scale`, `fleet_scale`,
//! `wal_replay`, `supervise_chaos`, `chaos_e2e`, `mlops_e2e`): one
//! `--flag value` parser, the calibrated fleet rescaled to `--dimms`,
//! the served stream every serving gate replays, the sequential oracle
//! every serving engine must reproduce, medians over [`PASSES`] timed
//! passes, scratch directories and the pass/fail exits. Every gate runs
//! under this one protocol and differs only in the engine it puts on
//! top.
//!
//! Exit codes: 2 for a refused command line ([`flags`]), 1 for a failed
//! check ([`require`], [`check`]).

use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_mlops::prelude::*;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::EventFleet;
use mfp_sim::sharded::ShardConfig;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

/// Timed passes behind every median a gate reports. One pass of a gate's
/// stream lasts tens of milliseconds, so a single timing is mostly noise.
pub const PASSES: usize = 5;

/// Reads `--flag value` pairs from `args`, handing each pair to `set`.
/// `set` stores the value and returns `Ok(true)`, returns `Ok(false)`
/// for a flag it does not take, or refuses the value (see [`value`],
/// [`list`], [`cells`]). Every refusal names the flag.
pub fn parse_flags<I>(
    args: I,
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<(), String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} is missing its value"))?;
        if !set(&flag, &value)? {
            return Err(format!("unknown flag {flag}"));
        }
    }
    Ok(())
}

/// [`parse_flags`] over this process's arguments; a refusal exits 2.
pub fn flags(set: impl FnMut(&str, &str) -> Result<bool, String>) {
    if let Err(msg) = parse_flags(std::env::args().skip(1), set) {
        usage(&msg);
    }
}

/// Prints `msg` and exits 2: the command line was refused.
pub fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// One value of `flag`.
pub fn value<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a {}, not {v:?}", std::any::type_name::<T>()))
}

/// A comma-separated list value of `flag` (`--rates 0.0,0.15,0.3`).
pub fn list<T: FromStr>(flag: &str, v: &str) -> Result<Vec<T>, String> {
    v.split(',').map(|item| value(flag, item.trim())).collect()
}

/// A comma-separated list of `SHARDSxWORKERS` cells (`--matrix 1x1,4x2`).
pub fn cells(flag: &str, v: &str) -> Result<Vec<(usize, usize)>, String> {
    v.split(',')
        .map(|cell| {
            let (shards, workers) = cell
                .trim()
                .split_once('x')
                .ok_or_else(|| format!("{flag} takes SHARDSxWORKERS cells, not {cell:?}"))?;
            Ok((value(flag, shards)?, value(flag, workers)?))
        })
        .collect()
}

/// The calibrated fleet rescaled to roughly `dimms` DIMMs over
/// `horizon_days`, keeping the per-platform proportions of the full
/// population; `platform` keeps only that platform's sub-fleet (the
/// serving engines are single-platform).
pub fn fleet(
    dimms: usize,
    horizon_days: u64,
    seed: u64,
    platform: Option<Platform>,
) -> FleetConfig {
    let mut cfg = FleetConfig::calibrated(1.0, seed);
    cfg.platforms
        .retain(|p| platform.is_none_or(|keep| p.platform == keep));
    let total: usize = cfg
        .platforms
        .iter()
        .map(|p| p.dimms_with_ces + p.sudden_only_dimms)
        .sum();
    let ratio = dimms as f64 / total as f64;
    for pc in &mut cfg.platforms {
        pc.dimms_with_ces = ((pc.dimms_with_ces as f64 * ratio).round() as usize).max(1);
        pc.sudden_only_dimms = (pc.sudden_only_dimms as f64 * ratio).round() as usize;
    }
    cfg.horizon = SimDuration::days(horizon_days);
    cfg
}

/// One simulated stream that every run of a serving gate replays.
pub struct Served {
    /// The planned fleet.
    pub fleet: EventFleet,
    /// A lake holding the plan's DIMM catalog.
    pub lake: DataLake,
    /// The merged, time-ordered event stream.
    pub events: Vec<MemEvent>,
    /// The hardened ingest's outputs for `events` (`ingest_bounded`).
    pub outputs: Vec<IngestOutput>,
    /// Where every run finishes: two days past the last event.
    pub end: SimTime,
}

/// What the uncrashed sequential predictor produced over a served stream.
pub struct Oracle {
    /// Its alarms.
    pub alarms: Vec<Alarm>,
    /// Its score trace (empty unless traced).
    pub scores: Vec<ScoreRecord>,
    /// Its model invocations.
    pub scored: u64,
    /// The median wall time of its [`PASSES`] passes, in seconds.
    pub secs: f64,
}

impl Served {
    /// Plans `cfg`, registers its catalog, merges its event stream and
    /// ingests it once through `ingest_bounded` under `ingest`.
    pub fn new(cfg: &FleetConfig, ingest: IngestConfig) -> Self {
        let fleet = EventFleet::plan(cfg);
        let lake = DataLake::new();
        for (id, p, spec) in fleet.catalog() {
            lake.register_dimm(id, p, spec);
        }
        let mut events = Vec::new();
        fleet.run_stream(&ShardConfig::default(), |e| events.push(e));
        let end = events.last().map_or(SimTime::ZERO + cfg.horizon, |e| {
            e.time() + SimDuration::days(2)
        });
        let mut served = Served {
            fleet,
            lake,
            events,
            outputs: Vec::new(),
            end,
        };
        let mut outputs = Vec::new();
        ingest_bounded(
            &served.lake,
            ingest,
            4,
            256,
            |emit| served.replay(emit),
            |o| outputs.push(o),
        );
        served.outputs = outputs;
        served
    }

    /// Emits every event in order: the producer `ingest_bounded` and
    /// `serve_pipeline` take.
    pub fn replay(&self, emit: &mut dyn FnMut(MemEvent)) {
        for e in &self.events {
            emit(*e);
        }
    }

    /// The sequential oracle: one predictor over the served outputs,
    /// finished at `end`, run [`PASSES`] times on fresh stores. Only the
    /// apply and finish are timed; every pass must reproduce the first
    /// (a divergence exits 1). `trace` records the score trace.
    pub fn oracle(
        &self,
        registry: &ModelRegistry,
        platform: Platform,
        online: OnlineConfig,
        trace: bool,
    ) -> Oracle {
        let mut secs = Vec::with_capacity(PASSES);
        let mut first = None;
        for _ in 0..PASSES {
            let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
            let mut seq = OnlinePredictor::new(&self.lake, &store, registry, platform, online);
            seq.set_score_trace(trace);
            let t0 = Instant::now();
            for o in &self.outputs {
                seq.apply(o);
            }
            seq.finish(self.end);
            secs.push(t0.elapsed().as_secs_f64());
            let pass = (
                seq.alarms().to_vec(),
                seq.score_trace().to_vec(),
                seq.scored(),
            );
            match &first {
                Some(first) => require(*first == pass, "an oracle pass diverged from the first"),
                None => first = Some(pass),
            }
        }
        let (alarms, scores, scored) = first.expect("PASSES is not zero");
        Oracle {
            alarms,
            scores,
            scored,
            secs: median(secs),
        }
    }
}

/// The median of `secs` (the upper middle of an even count).
pub fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// A fresh, empty directory `mfp_{tag}_{pid}` under the temp dir.
pub fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mfp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Exits 1 with `FAIL: {what}` unless `ok`.
pub fn require(ok: bool, what: &str) {
    if !ok {
        eprintln!("FAIL: {what}");
        std::process::exit(1);
    }
}

/// Prints `[PASS] {name}` or `[FAIL] {name}`, exiting 1 on a failure.
pub fn check(name: &str, ok: bool) {
    println!("[{}] {name}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::baseline::config_hash;

    type Parsed = (u64, Vec<f64>, Vec<(usize, usize)>, String);

    /// A gate taking one scalar, one list, one cell list and one string.
    fn parse(line: &str) -> Result<Parsed, String> {
        let (mut seed, mut rates, mut matrix) = (23u64, vec![0.0], vec![(1, 1)]);
        let mut out = String::from("BENCH.json");
        parse_flags(line.split_whitespace().map(String::from), |flag, v| {
            match flag {
                "--seed" => seed = value(flag, v)?,
                "--rates" => rates = list(flag, v)?,
                "--matrix" => matrix = cells(flag, v)?,
                "--out" => out = v.to_string(),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok((seed, rates, matrix, out))
    }

    #[test]
    fn flags_take_values_lists_and_cells() {
        let defaults = (23, vec![0.0], vec![(1, 1)], "BENCH.json".to_string());
        assert_eq!(parse(""), Ok(defaults));
        assert_eq!(
            parse("--matrix 1x1,2x2,8x4 --seed 7 --rates 0.0,0.15,0.3 --out x.json"),
            Ok((
                7,
                vec![0.0, 0.15, 0.3],
                vec![(1, 1), (2, 2), (8, 4)],
                "x.json".to_string()
            ))
        );
        // A repeated flag keeps its last value.
        assert_eq!(parse("--seed 1 --seed 2").map(|p| p.0), Ok(2));
    }

    #[test]
    fn flags_refuse_a_missing_value_an_unknown_flag_and_a_bad_value() {
        let missing = parse("--seed 3 --rates").unwrap_err();
        assert!(
            missing.contains("--rates") && missing.contains("missing"),
            "{missing}"
        );
        let unknown = parse("--seed 3 --bogus 1").unwrap_err();
        assert!(
            unknown.contains("--bogus") && unknown.contains("unknown"),
            "{unknown}"
        );
        for (line, flag) in [
            ("--seed x", "--seed"),
            ("--seed -1", "--seed"),
            ("--seed 1.5", "--seed"),
            ("--rates 0.1,zz", "--rates"),
            ("--rates 0.1,,0.2", "--rates"),
            ("--matrix 4", "--matrix"),
            ("--matrix 4x", "--matrix"),
            ("--matrix 1x1,2xq", "--matrix"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    /// The rescaled fleets hash to the `config_hash` of the committed
    /// `BENCH_fleet.json` (every platform) and `BENCH_serve.json`
    /// (Purley only).
    #[test]
    fn rescaled_fleets_keep_the_committed_config_hashes() {
        let all = fleet(2000, 30, 23, None);
        assert_eq!(all.platforms.len(), 3);
        assert_eq!(config_hash(&format!("{all:?}")), "f79e962aa56978e8");
        let purley = fleet(4000, 30, 23, Some(Platform::IntelPurley));
        assert!(purley
            .platforms
            .iter()
            .all(|p| p.platform == Platform::IntelPurley));
        let serve = format!(
            "{purley:?}|{:?}|{:?}",
            OnlineConfig::default(),
            IngestConfig::default()
        );
        assert_eq!(config_hash(&serve), "84cb35b1b126731d");
    }

    #[test]
    fn median_takes_the_middle_pass() {
        assert_eq!(median(vec![0.3, 0.1, 0.2]), 0.2);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0, 9.0]), 3.0);
    }
}

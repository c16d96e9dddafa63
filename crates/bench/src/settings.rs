//! Harness settings from the environment.

use std::path::PathBuf;
use std::str::FromStr;

use memnet_simcore::SimDuration;

use crate::shard::Shard;

/// Default location of the persistent result cache, relative to the
/// working directory.
pub const DEFAULT_CACHE_DIR: &str = "target/memnet-cache";

/// Batch-level experiment settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Simulated evaluation period per run.
    pub eval_period: SimDuration,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Extra replica seeds simulated per matrix cell alongside [`seed`].
    /// Empty (the default) means one run per cell. Each `(cell, seed)`
    /// pair is its own job on the sweep's worker pool, and each seed's
    /// result keeps its own cache fingerprint, exactly as if it had been
    /// swept alone.
    ///
    /// [`seed`]: Settings::seed
    pub seeds: Vec<u64>,
    /// Where the persistent result cache lives; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Which sweep shard this process computes. Purely an attribution
    /// tag for the `[matrix]` log line — it never enters fingerprints,
    /// because every shard must share one cache with the unsharded run.
    pub shard: Shard,
    /// Retain per-epoch observability samples in each report. Part of
    /// the cache fingerprint: an `obs` section changes the serialized
    /// report, so observed and unobserved cells are distinct.
    pub obs: bool,
}

/// Reads `name` from the environment, warning to stderr (and falling back
/// to the default) when the value is present but unparsable.
fn env_parse<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            memnet_simcore::memnet_warn!(
                "[settings] ignoring unparsable {name}={raw:?}; using default"
            );
            None
        }
    }
}

impl Settings {
    /// Reads settings from the environment, defaulting to a 1 ms
    /// evaluation period, all cores, a fixed seed, and a result cache in
    /// [`DEFAULT_CACHE_DIR`]:
    ///
    /// * `MEMNET_EVAL_US` — simulated microseconds per run.
    /// * `MEMNET_THREADS` — sweep worker threads (`0` is rejected with a
    ///   warning and falls back to all cores).
    /// * `MEMNET_SEED` — base RNG seed.
    /// * `MEMNET_SEEDS` — comma-separated extra replica seeds per cell
    ///   (e.g. `MEMNET_SEEDS=2,3,4`).
    /// * `MEMNET_CACHE_DIR` — cache directory.
    /// * `MEMNET_NO_CACHE` — set to `1`/`true` to disable the cache.
    ///
    /// Malformed values warn to stderr and fall back to the default.
    /// The sweep shard and the observability flag have no environment
    /// knob: they default to `0/1` and off, and are set by the `memnet
    /// sweep --shard/--obs` flags (or the serve sweep manifest).
    pub fn from_env() -> Self {
        let eval_us = env_parse::<u64>("MEMNET_EVAL_US").unwrap_or(1_000);
        let threads = match env_parse::<usize>("MEMNET_THREADS") {
            Some(0) => {
                memnet_simcore::memnet_warn!(
                    "[settings] MEMNET_THREADS=0 is invalid (a sweep needs at least \
                     one worker); using all cores"
                );
                None
            }
            other => other,
        }
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
        let seed = env_parse::<u64>("MEMNET_SEED").unwrap_or(0xC0FFEE);
        let seeds = match std::env::var("MEMNET_SEEDS") {
            Err(_) => Vec::new(),
            Ok(raw) => match parse_seed_list(&raw) {
                Ok(list) => list,
                Err(e) => {
                    memnet_simcore::memnet_warn!(
                        "[settings] ignoring unparsable MEMNET_SEEDS={raw:?}: {e}"
                    );
                    Vec::new()
                }
            },
        };
        let no_cache = match std::env::var("MEMNET_NO_CACHE") {
            Err(_) => false,
            Ok(raw) => match raw.to_ascii_lowercase().as_str() {
                "1" | "true" | "yes" => true,
                "0" | "false" | "no" | "" => false,
                _ => {
                    memnet_simcore::memnet_warn!(
                        "[settings] ignoring unparsable MEMNET_NO_CACHE={raw:?}; \
                         caching stays enabled"
                    );
                    false
                }
            },
        };
        let cache_dir = if no_cache {
            None
        } else {
            match std::env::var("MEMNET_CACHE_DIR") {
                Ok(dir) if dir.trim().is_empty() => {
                    memnet_simcore::memnet_warn!(
                        "[settings] ignoring empty MEMNET_CACHE_DIR; \
                         using {DEFAULT_CACHE_DIR:?}"
                    );
                    Some(PathBuf::from(DEFAULT_CACHE_DIR))
                }
                Ok(dir) => Some(PathBuf::from(dir)),
                Err(_) => Some(PathBuf::from(DEFAULT_CACHE_DIR)),
            }
        };
        Settings {
            eval_period: SimDuration::from_us(eval_us.max(1)),
            threads: threads.max(1),
            seed,
            seeds,
            cache_dir,
            shard: Shard::full(),
            obs: false,
        }
    }

    /// Every seed a matrix cell runs under: the base [`seed`] followed by
    /// the [`seeds`] extras, first occurrence wins on duplicates. Never
    /// empty.
    ///
    /// [`seed`]: Settings::seed
    /// [`seeds`]: Settings::seeds
    pub fn seed_list(&self) -> Vec<u64> {
        let mut list = vec![self.seed];
        for &s in &self.seeds {
            if !list.contains(&s) {
                list.push(s);
            }
        }
        list
    }
}

/// Parses a comma-separated seed list (as passed to `--seeds` or
/// `MEMNET_SEEDS`). Empty items are ignored; duplicates are rejected so
/// a typo cannot silently halve a sweep.
pub fn parse_seed_list(text: &str) -> Result<Vec<u64>, String> {
    let mut list = Vec::new();
    for item in text.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let seed: u64 = item.parse().map_err(|_| format!("bad seed {item:?}"))?;
        if list.contains(&seed) {
            return Err(format!("duplicate seed {seed}"));
        }
        list.push(seed);
    }
    Ok(list)
}

impl Default for Settings {
    /// Defaults for in-process use (tests, library callers): 1 ms window,
    /// four threads, fixed seed, **no** persistent cache. The figure
    /// binaries use [`Settings::from_env`], which enables the cache.
    fn default() -> Self {
        Settings {
            eval_period: SimDuration::from_us(1_000),
            threads: 4,
            seed: 0xC0FFEE,
            seeds: Vec::new(),
            cache_dir: None,
            shard: Shard::full(),
            obs: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = Settings::default();
        assert_eq!(s.eval_period, SimDuration::from_ms(1));
        assert!(s.threads >= 1);
        assert_eq!(s.cache_dir, None);
        assert_eq!(s.shard, Shard::full());
        assert!(!s.obs);
        assert!(s.seeds.is_empty());
        assert_eq!(s.seed_list(), vec![s.seed]);
    }

    #[test]
    fn seed_lists_parse_dedupe_and_reject_typos() {
        assert_eq!(parse_seed_list("2,3,4").unwrap(), vec![2, 3, 4]);
        assert_eq!(parse_seed_list(" 7 , 8 ,").unwrap(), vec![7, 8]);
        assert_eq!(parse_seed_list("").unwrap(), Vec::<u64>::new());
        assert!(parse_seed_list("2,two").is_err());
        assert!(parse_seed_list("2,2").is_err(), "duplicates would silently halve a sweep");

        // The base seed leads and is never duplicated by the extras.
        let s = Settings { seed: 3, seeds: vec![5, 3, 9], ..Settings::default() };
        assert_eq!(s.seed_list(), vec![3, 5, 9]);
    }

    // Environment mutation is process-global, so everything env-related
    // lives in one test.
    #[test]
    fn from_env_parses_overrides_and_survives_garbage() {
        std::env::set_var("MEMNET_EVAL_US", "250");
        std::env::set_var("MEMNET_THREADS", "3");
        std::env::set_var("MEMNET_SEED", "42");
        std::env::set_var("MEMNET_SEEDS", "43,44");
        std::env::set_var("MEMNET_CACHE_DIR", "/tmp/memnet-test-cache");
        std::env::remove_var("MEMNET_NO_CACHE");
        let s = Settings::from_env();
        assert_eq!(s.eval_period, SimDuration::from_us(250));
        assert_eq!(s.threads, 3);
        assert_eq!(s.seed, 42);
        assert_eq!(s.seeds, vec![43, 44]);
        assert_eq!(s.seed_list(), vec![42, 43, 44]);
        assert_eq!(s.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/memnet-test-cache")));

        // MEMNET_THREADS=0 parses but is meaningless: it must warn and
        // fall back to the all-cores default, never produce 0 workers.
        std::env::set_var("MEMNET_THREADS", "0");
        let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        assert_eq!(Settings::from_env().threads, auto);

        // Malformed values warn (to stderr) and fall back to defaults.
        std::env::set_var("MEMNET_EVAL_US", "a lot");
        std::env::set_var("MEMNET_THREADS", "-2");
        std::env::set_var("MEMNET_SEED", "0x12"); // hex not supported
        std::env::set_var("MEMNET_SEEDS", "1,1");
        std::env::set_var("MEMNET_NO_CACHE", "maybe");
        std::env::remove_var("MEMNET_CACHE_DIR");
        let s = Settings::from_env();
        assert_eq!(s.eval_period, SimDuration::from_us(1_000));
        assert_eq!(s.seed, 0xC0FFEE);
        assert!(s.seeds.is_empty(), "duplicate MEMNET_SEEDS warns and falls back");
        assert_eq!(s.cache_dir.as_deref(), Some(std::path::Path::new(DEFAULT_CACHE_DIR)));

        // MEMNET_NO_CACHE=1 disables the cache entirely.
        std::env::set_var("MEMNET_NO_CACHE", "1");
        assert_eq!(Settings::from_env().cache_dir, None);

        for var in [
            "MEMNET_EVAL_US",
            "MEMNET_THREADS",
            "MEMNET_SEED",
            "MEMNET_SEEDS",
            "MEMNET_CACHE_DIR",
            "MEMNET_NO_CACHE",
        ] {
            std::env::remove_var(var);
        }
    }
}

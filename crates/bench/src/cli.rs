//! Command-line plumbing for the `mtb` driver binary: option parsing and
//! app/case resolution, factored out so they can be unit-tested.

use mtb_core::paper_cases::{self, Case};
use mtb_core::policy::PrioritySetting;
use mtb_mpisim::program::Program;
use mtb_workloads::synthetic::SyntheticConfig;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parse `--key value` pairs and bare `--flag`s (flags: `dynamic`,
/// `gantt`, `cycle-accurate`, `no-cache`, the lint flags `json`,
/// `all-cases`, `selftest`, and the suggest flag `validate`). `--jobs N` and `--no-cache` are also read
/// by the global sweep harness
/// ([`crate::harness::SweepOptions::from_env`]); they are accepted here
/// so the driver's own parser does not reject them.
pub fn parse_opts(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut opts = HashMap::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        match key {
            "dynamic" | "gantt" | "cycle-accurate" | "no-cache" | "json" | "all-cases"
            | "selftest" | "smoke" | "validate" => flags.push(key.to_string()),
            _ => {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                opts.insert(key.to_string(), v.clone());
            }
        }
    }
    Ok((opts, flags))
}

/// The value of option `--key` parsed as `T`; `None` when the option is
/// absent. A malformed value is an error naming the option and the value,
/// never a silent fallback to the default.
pub fn opt<T: FromStr>(opts: &HashMap<String, String>, key: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    opts.get(key)
        .map(|v| v.parse().map_err(|e| format!("--{key} {v:?}: {e}")))
        .transpose()
}

/// Workload overrides shared by the CLI paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppOverrides {
    /// Work multiplier (1.0 when `None`).
    pub scale: Option<f64>,
    /// Iteration-count override.
    pub iterations: Option<u32>,
    /// Seed override.
    pub seed: Option<u64>,
}

impl AppOverrides {
    /// The `--scale`, `--iterations` and `--seed` options.
    pub fn from_opts(opts: &HashMap<String, String>) -> Result<AppOverrides, String> {
        Ok(AppOverrides {
            scale: opt(opts, "scale")?,
            iterations: opt(opts, "iterations")?,
            seed: opt(opts, "seed")?,
        })
    }
}

/// Resolve an app name + case label into rank programs and the case
/// configuration (placement + priorities).
pub fn build_app(
    app: &str,
    case_name: &str,
    ov: AppOverrides,
) -> Result<(Vec<Program>, Case), String> {
    let scale = ov.scale.unwrap_or(1.0);
    let pick = |cases: Vec<Case>| {
        cases
            .into_iter()
            .find(|c| c.name.eq_ignore_ascii_case(case_name))
            .ok_or_else(|| format!("no case {case_name:?} for app {app:?}"))
    };
    match app {
        "metbench" => {
            let mut cfg = MetBenchConfig {
                scale,
                ..Default::default()
            };
            if let Some(i) = ov.iterations {
                cfg.iterations = i;
            }
            if let Some(s) = ov.seed {
                cfg.seed = s;
            }
            Ok((cfg.programs(), pick(paper_cases::metbench_cases())?))
        }
        "btmz" => {
            if case_name.eq_ignore_ascii_case("ST") {
                let mut cfg = BtMzConfig {
                    scale,
                    ..BtMzConfig::st_mode()
                };
                if let Some(i) = ov.iterations {
                    cfg.iterations = i;
                }
                return Ok((cfg.programs(), paper_cases::btmz_st_case()));
            }
            let mut cfg = BtMzConfig {
                scale,
                ..Default::default()
            };
            if let Some(i) = ov.iterations {
                cfg.iterations = i;
            }
            if let Some(s) = ov.seed {
                cfg.seed = s;
            }
            Ok((cfg.programs(), pick(paper_cases::btmz_cases())?))
        }
        "siesta" => {
            if case_name.eq_ignore_ascii_case("ST") {
                let mut cfg = SiestaConfig {
                    scale,
                    ..SiestaConfig::st_mode()
                };
                if let Some(i) = ov.iterations {
                    cfg.iterations = i;
                }
                return Ok((cfg.programs(), paper_cases::siesta_st_case()));
            }
            let mut cfg = SiestaConfig {
                scale,
                ..Default::default()
            };
            if let Some(i) = ov.iterations {
                cfg.iterations = i;
            }
            if let Some(s) = ov.seed {
                cfg.seed = s;
            }
            Ok((cfg.programs(), pick(paper_cases::siesta_cases())?))
        }
        "synthetic" => {
            let mut cfg = SyntheticConfig::default();
            cfg.base_work = (cfg.base_work as f64 * scale) as u64;
            if let Some(i) = ov.iterations {
                cfg.iterations = i;
            }
            if let Some(s) = ov.seed {
                cfg.seed = s;
            }
            let case = Case {
                name: "A",
                placement: cfg.placement(),
                priorities: vec![PrioritySetting::Default; 4],
            };
            Ok((cfg.programs(), case))
        }
        other => Err(format!(
            "unknown app {other:?} (expected metbench|btmz|siesta|synthetic)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_options_and_flags() {
        let (opts, flags) = parse_opts(&args(&[
            "--app",
            "btmz",
            "--case",
            "D",
            "--gantt",
            "--dynamic",
        ]))
        .unwrap();
        assert_eq!(opts.get("app").map(String::as_str), Some("btmz"));
        assert_eq!(opts.get("case").map(String::as_str), Some("D"));
        assert!(flags.contains(&"gantt".to_string()));
        assert!(flags.contains(&"dynamic".to_string()));
    }

    #[test]
    fn parses_harness_flags() {
        let (opts, flags) =
            parse_opts(&args(&["--app", "btmz", "--jobs", "4", "--no-cache"])).unwrap();
        assert_eq!(opts.get("jobs").map(String::as_str), Some("4"));
        assert!(flags.contains(&"no-cache".to_string()));
    }

    #[test]
    fn parses_suggest_flags() {
        let (opts, flags) =
            parse_opts(&args(&["--app", "all", "--validate", "--top", "3"])).unwrap();
        assert!(flags.contains(&"validate".to_string()));
        assert_eq!(opts.get("top").map(String::as_str), Some("3"));
    }

    #[test]
    fn rejects_malformed_args() {
        assert!(parse_opts(&args(&["app"])).is_err(), "missing --");
        assert!(parse_opts(&args(&["--app"])).is_err(), "missing value");
    }

    #[test]
    fn malformed_option_values_are_errors() {
        let (opts, _) = parse_opts(&args(&["--scale", "abc", "--seed", "7"])).unwrap();
        let e = opt::<f64>(&opts, "scale").unwrap_err();
        assert!(e.contains("--scale") && e.contains("abc"), "{e}");
        assert_eq!(opt::<u64>(&opts, "seed"), Ok(Some(7)));
        assert_eq!(opt::<u64>(&opts, "iterations"), Ok(None));
        assert!(AppOverrides::from_opts(&opts).is_err());
    }

    #[test]
    fn builds_every_app_and_case() {
        for app in ["metbench", "btmz", "siesta", "synthetic"] {
            let (progs, case) = build_app(
                app,
                "A",
                AppOverrides {
                    scale: Some(1e-3),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{app}: {e}"));
            assert_eq!(progs.len(), 4, "{app}");
            assert_eq!(case.placement.len(), 4, "{app}");
        }
        // ST variants.
        for app in ["btmz", "siesta"] {
            let (progs, case) = build_app(app, "ST", AppOverrides::default()).unwrap();
            assert_eq!(progs.len(), 2, "{app} ST");
            assert_eq!(case.name, "ST");
        }
    }

    #[test]
    fn unknown_app_and_case_are_errors() {
        assert!(build_app("nope", "A", AppOverrides::default()).is_err());
        assert!(build_app("btmz", "Z", AppOverrides::default()).is_err());
    }

    #[test]
    fn case_names_are_case_insensitive() {
        let (_, case) = build_app(
            "metbench",
            "c",
            AppOverrides {
                scale: Some(1e-3),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(case.name, "C");
    }

    #[test]
    fn overrides_apply() {
        let ov = AppOverrides {
            scale: Some(0.5),
            iterations: Some(7),
            seed: Some(99),
        };
        let (progs, _) = build_app("metbench", "A", ov).unwrap();
        let ops = mtb_mpisim::interp::flatten(&progs[0], 0);
        let barriers = mtb_mpisim::interp::count_sync_epochs(&ops);
        assert_eq!(barriers, 7, "iteration override respected");
    }
}

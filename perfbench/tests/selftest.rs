//! Self-tests of the benchmark: metric naming, the metric tables against
//! `BENCHMARK.json`, a clean tiny pass of every workload in both modes,
//! and an output check that can fail.

use mtb_bench::json::Json;
use mtb_perfbench::bench::{run, Options, Outcome};
use mtb_perfbench::exec::Pins;
use mtb_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER, REPORT_ONLY};
use mtb_perfbench::workload::{Size, Workload, ALL};
use std::collections::BTreeSet;

fn tiny(workload: Workload, trace: bool, pins: Option<Pins>) -> Outcome {
    run(Options {
        workload,
        seed: 0,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        pins,
    })
}

/// `(name, unit)` pairs.
type Named = Vec<(String, String)>;

fn table_names(table: &[(&str, &str)]) -> Named {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<_> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&REPORT_ONLY)
        .collect();
    let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok),
            "bad unit {unit:?} of {name}"
        );
    }
    let distinct: BTreeSet<_> = all.iter().map(|(n, _)| n).collect();
    assert_eq!(distinct.len(), all.len(), "a metric name is used twice");
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading-dot"));
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Named {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    assert_eq!(declared("end_to_end"), table_names(&END_TO_END));
    assert_eq!(declared("per_layer"), table_names(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

/// The `metric <name> <value> <unit>` report lines and the result
/// object's metrics, as `(name, unit)` lists.
fn printed(outcome: &Outcome) -> (Named, Named) {
    let text = outcome.render();
    let lines: Vec<&str> = text.lines().collect();
    let report = lines
        .iter()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 3, "metric line {l:?}");
            assert!(f[1].parse::<f64>().is_ok(), "value of {l:?}");
            (f[0].to_string(), f[2].to_string())
        })
        .collect();
    let result = Json::parse(lines.last().expect("a result line")).expect("result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(result.get(key).is_some(), "result object lacks {key}");
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let object = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    (report, object)
}

#[test]
fn a_tiny_pass_of_every_workload_is_clean_and_prints_every_metric() {
    for workload in ALL {
        for trace in [false, true] {
            let outcome = tiny(workload, trace, None);
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct(), "{what}: {:?}", outcome.failures);
            assert!(outcome.attempted > 0, "{what}");
            let (report, object) = printed(&outcome);
            let table = table_names(if trace { &PER_LAYER } else { &END_TO_END });
            assert_eq!(object, table, "{what}: result object metrics");
            let mut expected = table.clone();
            expected.push(("failed_frac".into(), "frac".into()));
            if workload.has_paper_cases() {
                expected.push(("paper_delta_err_pp".into(), "pp".into()));
            }
            expected.push(("raw_wall_s".into(), "s".into()));
            expected.push(("host_speed".into(), "x".into()));
            assert_eq!(report, expected, "{what}: report lines");
            let failed_frac = outcome
                .report_only
                .iter()
                .find(|m| m.name == "failed_frac")
                .expect("failed_frac reported");
            assert_eq!(failed_frac.value, 0.0, "{what}");
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{what}: an end-to-end metric read 0: {:?}",
                    outcome.metrics
                );
            }
        }
    }
}

#[test]
fn a_wrong_pinned_hash_fails_the_run() {
    let clean = tiny(Workload::MesoNoise, false, None);
    assert!(clean.correct(), "{:?}", clean.failures);
    let mut right = Pins::default();
    let mut wrong = Pins::default();
    for (label, &hash) in &clean.hashes {
        right.insert("meso-noise", label, hash);
        let bad = if label == "metbench/B" {
            hash ^ 1
        } else {
            hash
        };
        wrong.insert("meso-noise", label, bad);
    }
    assert!(tiny(Workload::MesoNoise, false, Some(right)).correct());

    let failing = tiny(Workload::MesoNoise, false, Some(wrong));
    assert!(!failing.correct());
    assert_eq!(failing.failures.len(), 1, "{:?}", failing.failures);
    assert!(failing.failures[0].contains("metbench/B"));
    let failed_frac = failing
        .report_only
        .iter()
        .find(|m| m.name == "failed_frac")
        .expect("failed_frac reported")
        .value;
    assert!(failed_frac > 0.0);
    let last = failing
        .render()
        .lines()
        .last()
        .expect("result line")
        .to_string();
    assert!(last.starts_with("{\"correct\": false"), "{last}");
}

#[test]
fn builtin_pins_cover_every_full_size_case() {
    let pins = Pins::builtin();
    for workload in ALL {
        for spec in mtb_perfbench::workload::cases(workload, Size::Full, 0) {
            assert!(
                pins.get(workload, &spec.label).is_some(),
                "no pin for {} {}",
                workload.name(),
                spec.label
            );
        }
    }
}

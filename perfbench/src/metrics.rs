//! Metric names and units, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): what a user of the simulator sees.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), named `layer.metric`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("workloads.build_s", "s"),
    ("core.prepare_s", "s"),
    ("mpisim.events", "count"),
    ("mpisim.step_s", "s"),
    ("mpisim.ns_per_event", "ns"),
    ("mpisim.epoch_p50_ms", "ms"),
    ("mpisim.epoch_max_ms", "ms"),
    ("mpisim.epoch_samples", "count"),
    ("mpisim.messages", "count"),
    ("mpisim.msg_mbytes", "MB"),
    ("mpisim.spin_frac", "frac"),
    ("trace.result_s", "s"),
    ("oskernel.noise_boundaries", "count"),
    ("oskernel.interrupt_frac", "frac"),
    ("oskernel.probe_ns_per_mcycle", "ns"),
    ("smtsim.probe_ns_per_kcycle", "ns"),
    ("smtsim.ipc", "inst/cycle"),
    ("smtsim.slot_util", "frac"),
    ("smtsim.l1d_miss_rate", "frac"),
    ("smtsim.l2_miss_rate", "frac"),
    ("smtsim.br_mispredict_per_kinstr", "count"),
    ("smtsim.stall_dep_per_kcycle", "count"),
    ("smtsim.stall_unit_per_kcycle", "count"),
    ("pool.speedup_vs_1t", "x"),
    ("pool.peak_permits", "count"),
    ("trace_overhead_pct", "%"),
];

/// Printed on the report lines of every run but kept out of the result
/// object:
/// - `failed_frac` reads 0 on a healthy run (the result object's
///   `failed / attempted` carries it);
/// - `paper_delta_err_pp` applies to the paper workloads only and is a
///   simulated statistic that repeats exactly;
/// - `raw_wall_s` is `wall_s` before scaling to reference host speed,
///   and `host_speed` the median scale factor (1 = reference speed).
pub const REPORT_ONLY: [(&str, &str); 4] = [
    ("failed_frac", "frac"),
    ("paper_delta_err_pp", "pp"),
    ("raw_wall_s", "s"),
    ("host_speed", "x"),
];

/// Is `name` a well-formed metric name (`[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters)?
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name from one of the tables above.
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// `name` with its unit from `table`, at `value`. Non-finite values
/// (a ratio over nothing) read 0.
pub fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in its table"));
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

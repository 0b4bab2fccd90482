//! One benchmark run: set-up repetitions, then passes over the
//! workload's cases for the requested time, then the metrics.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! alternates untraced and traced passes (their difference is the
//! tracing overhead), repeats the workload at 1 thread when it runs at
//! more, probes the kernel machine and the core model in isolation, and
//! reports the per-layer metrics. Every host time is scaled to reference
//! host speed ([`crate::calibrate`]).

use crate::calibrate::Calibration;
use crate::exec::{run_case, CaseRun, Checker, CoreTotals, Pins};
use crate::metrics::{
    median, metric, ratio, result_line, Metric, END_TO_END, PER_LAYER, REPORT_ONLY,
};
use crate::probe;
use crate::trace::Tracer;
use crate::workload::{cases, CaseSpec, Size, Workload};
use mtb_core::balance::prepare;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Benchmark seed, passed into the workload configs' `seed` fields.
    pub seed: u64,
    /// How long the passes run, in seconds (at least one pass always
    /// runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Case size.
    pub size: Size,
    /// Hashes the outputs must match; `None` when no pins apply.
    pub pins: Option<Pins>,
}

impl Options {
    /// The benchmark's own pins, which hold for seed 0 at full size.
    pub fn default_pins(seed: u64, size: Size) -> Option<Pins> {
        (seed == 0 && size == Size::Full).then(Pins::builtin)
    }
}

/// Everything a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The options the run used.
    pub options: Options,
    /// Host seconds of each untraced pass, as measured.
    pub pass_walls: Vec<f64>,
    /// Seconds of each untraced execution at reference speed, per case.
    pub case_walls: BTreeMap<String, Vec<f64>>,
    /// Simulated makespan per case, cycles.
    pub case_cycles: BTreeMap<String, u64>,
    /// Result-object metrics: every end-to-end metric, or every
    /// per-layer one when traced.
    pub metrics: Vec<Metric>,
    /// Report-only metrics (see [`REPORT_ONLY`]).
    pub report_only: Vec<Metric>,
    /// Case executions checked.
    pub attempted: u64,
    /// Failed executions, with the reason.
    pub failures: Vec<String>,
    /// Record hash per case.
    pub hashes: BTreeMap<String, u64>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// FNV-1a over `label hash` lines: one number that changes when any
/// case's output does.
pub fn digest(hashes: &BTreeMap<String, u64>) -> u64 {
    let text: String = hashes
        .iter()
        .map(|(label, h)| format!("{label} {h:016x}\n"))
        .collect();
    mtb_snap::fnv1a(text.as_bytes())
}

impl Outcome {
    /// Did every execution pass its checks?
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Report lines, then the result object as the last line.
    pub fn render(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "perfbench workload={} seed={} trace={} size={:?} passes={}\n",
            o.workload.name(),
            o.seed,
            u8::from(o.trace),
            o.size,
            self.pass_walls.len()
        );
        let fmt = |xs: &[f64]| xs.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>();
        let _ = writeln!(out, "pass_wall_s {}", fmt(&self.pass_walls).join(" "));
        for (label, h) in &self.hashes {
            let walls = self.case_walls.get(label).map_or(Vec::new(), |w| fmt(w));
            let cycles = self.case_cycles.get(label).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "case {label} record_hash={h:016x} cycles={cycles} ref_wall_s={}",
                walls.join(",")
            );
        }
        let _ = writeln!(out, "record_digest {:016x}", digest(&self.hashes));
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        for m in self.metrics.iter().chain(&self.report_only) {
            let _ = writeln!(out, "metric {} {} {}", m.name, m.value, m.unit);
        }
        out.push_str(&result_line(
            self.correct(),
            self.attempted,
            self.failures.len() as u64,
            &self.metrics,
        ));
        out.push('\n');
        out
    }
}

/// Peak resident memory of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One pass over every case: each case's run by case index, `None` when
/// it failed.
struct Pass {
    runs: Vec<Option<CaseRun>>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.runs.iter().flatten().map(CaseRun::wall_s).sum()
    }
}

fn run_pass(
    specs: &[CaseSpec],
    threads: Option<usize>,
    mut tracer: Option<&mut Tracer>,
    checker: &mut Checker,
    what: &str,
) -> Pass {
    let span = tracer.as_deref_mut().map(|tr| tr.begin("pass", what));
    let mut cal = Calibration::start();
    let runs = specs
        .iter()
        .map(|spec| {
            let run = run_case(spec, threads.unwrap_or(spec.threads), tracer.as_deref_mut());
            let scale = cal.factor();
            checker.check(spec, what, &run);
            run.ok().map(|r| CaseRun { scale, ..r })
        })
        .collect();
    if let (Some(tr), Some(id)) = (tracer, span) {
        tr.end(id);
    }
    Pass { runs }
}

/// A pass estimated case by case: the sum over cases of the median over
/// passes of `f`, so each case's estimate rests on every pass.
fn per_case_median(passes: &[Pass], f: impl Fn(&CaseRun) -> f64) -> f64 {
    let cases = passes.first().map_or(0, |p| p.runs.len());
    (0..cases)
        .map(|i| {
            let xs: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.runs[i].as_ref())
                .map(&f)
                .collect();
            median(&xs)
        })
        .sum()
}

/// Seconds at reference speed to build every case's programs and
/// `prepare` it, as `(build, prepare)` lists over repetitions. Repeats
/// for a twentieth of the run time, at least 5 times, in calibrated
/// batches of about 20 ms.
fn setup_reps(
    specs: &[CaseSpec],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, Vec<f64>) {
    let budget = Duration::from_secs_f64(seconds / 20.0);
    let start = Instant::now();
    let mut cal = Calibration::start();
    let (mut build, mut prep) = (Vec::new(), Vec::new());
    while build.len() < 5 || start.elapsed() < budget {
        let batch_start = Instant::now();
        let mut batch = Vec::new();
        while batch.is_empty() || batch_start.elapsed() < Duration::from_millis(20) {
            let span = tracer
                .as_deref_mut()
                .map(|tr| tr.begin("setup", "all cases"));
            let (mut b, mut p) = (0.0, 0.0);
            for spec in specs {
                let t0 = Instant::now();
                let programs = spec.app.programs();
                let t1 = Instant::now();
                let engine = prepare(&spec.static_run(&programs, spec.threads));
                let t2 = Instant::now();
                drop(engine);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("workloads.build", &spec.label, t0, t1);
                    tr.record("core.prepare", &spec.label, t1, t2);
                }
                b += (t1 - t0).as_secs_f64();
                p += (t2 - t1).as_secs_f64();
            }
            if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
                tr.end(id);
            }
            batch.push((b, p));
        }
        let scale = cal.factor();
        build.extend(batch.iter().map(|(b, _)| b * scale));
        prep.extend(batch.iter().map(|(_, p)| p * scale));
    }
    (build, prep)
}

/// Mean |simulated Δ vs case A − paper Δ vs case A| in percentage points
/// over the paper cases B–D of one pass, or `None` off the paper cases.
fn paper_delta_err_pp(specs: &[CaseSpec], pass: &Pass) -> Option<f64> {
    let cycles: BTreeMap<&str, u64> = specs
        .iter()
        .zip(&pass.runs)
        .filter_map(|(s, r)| Some((s.label.as_str(), r.as_ref()?.total_cycles)))
        .collect();
    let errs: Vec<f64> = specs
        .iter()
        .filter_map(|s| {
            let paper = s.paper_delta_pct?;
            let a = *cycles.get(format!("{}/A", s.app_name).as_str())? as f64;
            let x = *cycles.get(s.label.as_str())? as f64;
            Some(((a - x) / a * 100.0 - paper).abs())
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Run the benchmark.
pub fn run(options: Options) -> Outcome {
    let specs = cases(options.workload, options.size, options.seed);
    let mut checker = Checker::new(options.workload, &specs, options.pins.clone());
    let seconds = Duration::from_secs_f64(options.seconds.max(0.0));
    let mut tracer = options.trace.then(Tracer::default);
    let run_span = tracer
        .as_mut()
        .map(|tr| tr.begin("run", options.workload.name()));

    let (build, prep) = setup_reps(&specs, options.seconds, tracer.as_mut());
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // Stop when another round would end more than half a round past the
    // requested time, so runs end close to it on either side.
    loop {
        let round = Instant::now();
        plain.push(run_pass(&specs, None, None, &mut checker, "pass"));
        if let Some(tr) = tracer.as_mut() {
            traced.push(run_pass(
                &specs,
                None,
                Some(tr),
                &mut checker,
                "traced pass",
            ));
        }
        if start.elapsed() + round.elapsed() / 2 >= seconds {
            break;
        }
    }
    let wall = per_case_median(&plain, CaseRun::ref_wall_s);
    let scales: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.runs.iter().flatten())
        .map(|r| r.scale)
        .collect();
    let mut report_only = vec![metric(&REPORT_ONLY, "failed_frac", 0.0)];
    if let Some(err) = paper_delta_err_pp(&specs, &plain[0]) {
        report_only.push(metric(&REPORT_ONLY, "paper_delta_err_pp", err));
    }
    report_only.push(metric(
        &REPORT_ONLY,
        "raw_wall_s",
        per_case_median(&plain, CaseRun::wall_s),
    ));
    report_only.push(metric(&REPORT_ONLY, "host_speed", median(&scales)));

    let metrics = match tracer.as_mut() {
        None => {
            let core_cycles = per_case_median(&plain, |r| r.core_cycles as f64);
            let setup: Vec<f64> = build.iter().zip(&prep).map(|(b, p)| b + p).collect();
            vec![
                metric(&END_TO_END, "wall_s", wall),
                metric(
                    &END_TO_END,
                    "sim_mcycles_per_s",
                    ratio(core_cycles, wall) / 1e6,
                ),
                metric(&END_TO_END, "setup_s", median(&setup)),
                metric(&END_TO_END, "peak_rss_mb", peak_rss_mib()),
            ]
        }
        Some(tr) => {
            let speedup = if specs.iter().any(|s| s.threads > 1) {
                let one = run_pass(&specs, Some(1), None, &mut checker, "1-thread pass");
                ratio(per_case_median(&[one], CaseRun::ref_wall_s), wall)
            } else {
                1.0
            };
            let traced_wall = per_case_median(&traced, CaseRun::ref_wall_s);
            let mut m = layer_metrics(&traced, &build, &prep);
            m.extend(probe_layers(&specs, options.size, tr));
            m.push(metric(&PER_LAYER, "pool.speedup_vs_1t", speedup));
            m.push(metric(
                &PER_LAYER,
                "pool.peak_permits",
                mtb_pool::global_budget().peak() as f64,
            ));
            m.push(metric(
                &PER_LAYER,
                "trace_overhead_pct",
                ratio(traced_wall - wall, wall) * 100.0,
            ));
            // Report in table order.
            PER_LAYER
                .iter()
                .filter_map(|(name, _)| m.iter().find(|x| x.name == *name).copied())
                .collect()
        }
    };
    if let (Some(tr), Some(id)) = (tracer.as_mut(), run_span) {
        tr.end(id);
    }
    report_only[0].value = ratio(checker.failures.len() as f64, checker.attempted as f64);
    Outcome {
        options,
        pass_walls: plain.iter().map(Pass::wall_s).collect(),
        case_walls: specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let walls = plain.iter().filter_map(|p| p.runs[i].as_ref());
                (spec.label.clone(), walls.map(CaseRun::ref_wall_s).collect())
            })
            .collect(),
        case_cycles: specs
            .iter()
            .zip(&plain[0].runs)
            .filter_map(|(spec, r)| Some((spec.label.clone(), r.as_ref()?.total_cycles)))
            .collect(),
        metrics,
        report_only,
        attempted: checker.attempted,
        hashes: checker.hashes().clone(),
        failures: checker.failures,
        tracer,
    }
}

/// The per-layer metrics read from the traced passes and the set-up
/// repetitions.
fn layer_metrics(traced: &[Pass], build: &[f64], prep: &[f64]) -> Vec<Metric> {
    let last = traced.last().expect("a traced run makes a traced pass");
    let mut cores = CoreTotals::default();
    for r in last.runs.iter().flatten() {
        cores.merge(&r.trace.as_ref().expect("traced pass").cores);
    }
    let sum = |f: &dyn Fn(&CaseRun) -> u64| -> u64 { last.runs.iter().flatten().map(f).sum() };
    let events = sum(&|r| r.events);
    let step_s = per_case_median(traced, |r| r.step_s * r.scale);
    let epochs_ms: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.runs.iter().flatten())
        .flat_map(|r| {
            let epochs = &r.trace.as_ref().expect("traced pass").epoch_s;
            epochs.iter().map(move |s| s * 1e3 * r.scale)
        })
        .collect();
    let busy = sum(&|r| r.busy_cycles) as f64;
    let spin = sum(&|r| r.spin_cycles) as f64;
    let irq = sum(&|r| r.interrupt_cycles) as f64;
    let ctx_cycles = busy + spin + irq;
    let accesses = (cores.l1_hits + cores.l2_hits + cores.mem) as f64;
    let f = |x: u64| x as f64;
    let m = |name: &str, value: f64| metric(&PER_LAYER, name, value);
    vec![
        m("workloads.build_s", median(build)),
        m("core.prepare_s", median(prep)),
        m("mpisim.events", f(events)),
        m("mpisim.step_s", step_s),
        m("mpisim.ns_per_event", ratio(step_s * 1e9, f(events))),
        m("mpisim.epoch_p50_ms", median(&epochs_ms)),
        m(
            "mpisim.epoch_max_ms",
            epochs_ms.iter().copied().fold(0.0, f64::max),
        ),
        m("mpisim.epoch_samples", epochs_ms.len() as f64),
        m("mpisim.messages", f(sum(&|r| r.messages))),
        m("mpisim.msg_mbytes", f(sum(&|r| r.msg_bytes)) / 1e6),
        m("mpisim.spin_frac", ratio(spin, ctx_cycles)),
        m(
            "trace.result_s",
            per_case_median(traced, |r| r.result_s * r.scale),
        ),
        m(
            "oskernel.noise_boundaries",
            f(sum(&|r| r.trace.as_ref().map_or(0, |t| t.noise_boundaries))),
        ),
        m("oskernel.interrupt_frac", ratio(irq, ctx_cycles)),
        m("smtsim.ipc", ratio(f(cores.retired), f(cores.cycles))),
        m(
            "smtsim.slot_util",
            ratio(f(cores.slots_used), f(cores.slots_owned)),
        ),
        m(
            "smtsim.l1d_miss_rate",
            ratio(f(cores.l2_hits + cores.mem), accesses),
        ),
        m(
            "smtsim.l2_miss_rate",
            ratio(f(cores.mem), f(cores.l2_hits + cores.mem)),
        ),
        m(
            "smtsim.br_mispredict_per_kinstr",
            ratio(f(cores.br_mispredicts) * 1e3, f(cores.retired)),
        ),
        m(
            "smtsim.stall_dep_per_kcycle",
            ratio(f(cores.stall_dep) * 1e3, f(cores.cycles)),
        ),
        m(
            "smtsim.stall_unit_per_kcycle",
            ratio(f(cores.stall_unit) * 1e3, f(cores.cycles)),
        ),
    ]
}

/// Probe cycles per application: (kernel machine, core model).
fn probe_cycles(cycle: bool, size: Size) -> (u64, u64) {
    match (cycle, size) {
        (false, Size::Full) => (2_000_000_000, 2_000_000_000),
        (true, Size::Full) => (200_000, 200_000),
        (false, Size::Tiny) => (20_000_000, 20_000_000),
        (true, Size::Tiny) => (10_000, 10_000),
    }
}

/// The isolated kernel-machine and core-model probes, over the first
/// case of each application in the workload, at reference speed.
fn probe_layers(specs: &[CaseSpec], size: Size, tr: &mut Tracer) -> Vec<Metric> {
    let mut seen = Vec::new();
    let (mut machine_s, mut machine_mcycles) = (0.0, 0.0);
    let (mut core_s, mut core_kcycles) = (0.0, 0.0);
    let mut cal = Calibration::start();
    for spec in specs {
        if seen.contains(&spec.app_name) {
            continue;
        }
        seen.push(spec.app_name);
        let (mc, cc) = probe_cycles(spec.cycle, size);
        let t0 = Instant::now();
        // A probe that cannot be built reads 0; the passes have already
        // checked the case itself.
        if let Ok(secs) = probe::machine_advance_s(spec, mc) {
            machine_s += secs * cal.factor();
            machine_mcycles += mc as f64 / 1e6;
        }
        let t1 = Instant::now();
        core_s += probe::core_advance_s(spec, cc) * cal.factor();
        core_kcycles += cc as f64 * spec.cores() as f64 / 1e3;
        tr.record("oskernel.probe", &spec.label, t0, t1);
        tr.record("smtsim.probe", &spec.label, t1, Instant::now());
    }
    vec![
        metric(
            &PER_LAYER,
            "oskernel.probe_ns_per_mcycle",
            ratio(machine_s * 1e9, machine_mcycles),
        ),
        metric(
            &PER_LAYER,
            "smtsim.probe_ns_per_kcycle",
            ratio(core_s * 1e9, core_kcycles),
        ),
    ]
}

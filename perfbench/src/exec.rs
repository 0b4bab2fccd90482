//! One case through the simulator's public entry points
//! (`App::programs` → `balance::prepare` → `Engine::step_events` →
//! `Engine::into_result`), timed from outside, and the checks on its
//! output.

use crate::trace::{EpochClock, Tracer};
use crate::workload::{CaseSpec, Workload};
use mtb_bench::lint::record_hash;
use mtb_core::balance::prepare;
use mtb_mpisim::engine::{NullObserver, Observer};
use mtb_mpisim::interp::{flatten, FlatOp};
use mtb_oskernel::Machine;
use mtb_smtsim::CoreState;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sums of the simulated core counters over every core of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreTotals {
    /// Core-cycles.
    pub cycles: u64,
    /// Instructions retired (both contexts).
    pub retired: u64,
    /// Decode slots owned per the arbitration tables.
    pub slots_owned: u64,
    /// Owned decode slots used.
    pub slots_used: u64,
    /// Loads/stores hitting L1.
    pub l1_hits: u64,
    /// Loads/stores missing L1, hitting L2.
    pub l2_hits: u64,
    /// Loads/stores going to memory.
    pub mem: u64,
    /// Mispredicted branches.
    pub br_mispredicts: u64,
    /// Issue stalls on a dependency.
    pub stall_dep: u64,
    /// Issue stalls on a busy unit.
    pub stall_unit: u64,
}

impl CoreTotals {
    /// Add another run's totals.
    pub fn merge(&mut self, o: &CoreTotals) {
        self.cycles += o.cycles;
        self.retired += o.retired;
        self.slots_owned += o.slots_owned;
        self.slots_used += o.slots_used;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.mem += o.mem;
        self.br_mispredicts += o.br_mispredicts;
        self.stall_dep += o.stall_dep;
        self.stall_unit += o.stall_unit;
    }

    /// Add the counters of saved core states.
    pub fn add(&mut self, cores: &[CoreState]) {
        for core in cores {
            match core {
                CoreState::Meso(m) => {
                    self.cycles += m.cycle;
                    self.retired += m.ctx.iter().map(|c| c.retired).sum::<u64>();
                }
                CoreState::Cycle(c) => {
                    self.cycles += c.cycle;
                    for s in c.ctx.iter().map(|ctx| &ctx.stats) {
                        self.retired += s.retired;
                        self.slots_owned += s.slots_owned;
                        self.slots_used += s.slots_used;
                        self.l1_hits += s.l1_hits;
                        self.l2_hits += s.l2_hits;
                        self.mem += s.mem_accesses;
                        self.br_mispredicts += s.br_mispredicts;
                        self.stall_dep += s.stall_dep;
                        self.stall_unit += s.stall_unit;
                    }
                }
            }
        }
    }
}

/// What the traced run additionally reads from a case.
#[derive(Debug, Default, Clone)]
pub struct CaseTrace {
    /// Host seconds of each completed sync epoch.
    pub epoch_s: Vec<f64>,
    /// Distinct noise boundaries in `[0, makespan]`, found by walking
    /// `Machine::next_boundary`.
    pub noise_boundaries: u64,
    /// Core counters from `Engine::save_state` at the end of the run.
    pub cores: CoreTotals,
}

/// One executed case, reduced to what the benchmark reads (the full
/// result is dropped once hashed, so the process holds one case's
/// timelines at a time).
#[derive(Debug)]
pub struct CaseRun {
    /// `mtb_bench::lint::record_hash` of the result.
    pub hash: u64,
    /// Simulated makespan.
    pub total_cycles: u64,
    /// Instructions retired per rank.
    pub retired: Vec<u64>,
    /// Point-to-point messages.
    pub messages: u64,
    /// Their payload bytes.
    pub msg_bytes: u64,
    /// Context-cycles spent computing, summed over ranks.
    pub busy_cycles: u64,
    /// Context-cycles spent spin-waiting in MPI calls.
    pub spin_cycles: u64,
    /// Context-cycles stolen by noise.
    pub interrupt_cycles: u64,
    /// Engine events (machine advances).
    pub events: u64,
    /// Host seconds building the programs.
    pub build_s: f64,
    /// Host seconds in `prepare`.
    pub prepare_s: f64,
    /// Host seconds in `step_events`.
    pub step_s: f64,
    /// Host seconds in `into_result`.
    pub result_s: f64,
    /// Simulated core-cycles: makespan × cores.
    pub core_cycles: u64,
    /// Traced runs only.
    pub trace: Option<CaseTrace>,
    /// Factor scaling this run's host times to reference host speed
    /// (see [`crate::calibrate`]); 1 until the pass that ran it sets it.
    pub scale: f64,
}

impl CaseRun {
    /// Host seconds the user waits for the case: build, prepare, step
    /// and result. Hashing, checking and tracing-only reads are not in it.
    pub fn wall_s(&self) -> f64 {
        self.build_s + self.prepare_s + self.step_s + self.result_s
    }

    /// [`CaseRun::wall_s`] at reference host speed.
    pub fn ref_wall_s(&self) -> f64 {
        self.wall_s() * self.scale
    }
}

/// Time `f`, recording it as a span when tracing.
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    label: &str,
    f: impl FnOnce() -> R,
) -> (R, f64, Option<usize>) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    let id = tracer
        .as_deref_mut()
        .map(|tr| tr.record(name, label, t0, t1));
    (r, (t1 - t0).as_secs_f64(), id)
}

fn count_boundaries(machine: &Machine, end: u64) -> u64 {
    let mut n = 0;
    let mut t = 0;
    while let Some(b) = machine.next_boundary(t) {
        if b > end {
            break;
        }
        n += 1;
        t = b + 1;
    }
    n
}

/// Run one case at `threads` intra-run threads. With a tracer, every
/// layer call becomes a span under a `case` span, sync epochs are timed
/// through an observer, and the end-of-run core counters and noise
/// boundaries are read.
pub fn run_case(
    spec: &CaseSpec,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<CaseRun, String> {
    let label = spec.label.as_str();
    let case_span = tracer.as_deref_mut().map(|tr| tr.begin("case", label));
    let (programs, build_s, _) = timed(&mut tracer, "workloads.build", label, || {
        spec.app.programs()
    });
    let (engine, prepare_s, _) = timed(&mut tracer, "core.prepare", label, || {
        prepare(&spec.static_run(&programs, threads))
    });
    let mut engine = engine.map_err(|e| format!("prepare: {e}"))?;

    let mut clock = EpochClock::default();
    let mut null = NullObserver;
    let observer: &mut dyn Observer = if tracer.is_some() {
        &mut clock
    } else {
        &mut null
    };
    let step_start = Instant::now();
    let (done, step_s, step_span) = timed(&mut tracer, "mpisim.step_events", label, || {
        engine.step_events(observer, u64::MAX)
    });
    match done {
        Ok(true) => {}
        Ok(false) => return Err("step_events stopped before every rank finished".into()),
        Err(e) => return Err(format!("step_events: {e}")),
    }
    let events = engine.events();

    let trace = tracer.as_deref_mut().map(|tr| {
        let mut epoch_s = Vec::with_capacity(clock.marks.len());
        let mut from = step_start;
        for &mark in &clock.marks {
            tr.record_in(step_span, "mpisim.epoch", label, from, mark);
            epoch_s.push((mark - from).as_secs_f64());
            from = mark;
        }
        let t0 = Instant::now();
        let state = engine.save_state();
        tr.record("mpisim.save_state", label, t0, Instant::now());
        let mut cores = CoreTotals::default();
        cores.add(&state.machine.cores);
        let t0 = Instant::now();
        let noise_boundaries = count_boundaries(engine.machine(), state.machine.now);
        tr.record("oskernel.next_boundary", label, t0, Instant::now());
        CaseTrace {
            epoch_s,
            noise_boundaries,
            cores,
        }
    });

    let (result, result_s, _) = timed(&mut tracer, "trace.into_result", label, || {
        engine.into_result()
    });
    let (hash, _, _) = timed(&mut tracer, "bench.record_hash", label, || {
        record_hash(&spec.case, &result)
    });
    if let (Some(tr), Some(id)) = (tracer, case_span) {
        tr.end(id);
    }
    Ok(CaseRun {
        hash,
        total_cycles: result.total_cycles,
        core_cycles: result.total_cycles * spec.cores() as u64,
        messages: result.comm_log.len() as u64,
        msg_bytes: result.comm_log.iter().map(|m| m.bytes).sum(),
        busy_cycles: result.busy_cycles.iter().sum(),
        spin_cycles: result.spin_cycles.iter().sum(),
        interrupt_cycles: result.interrupt_cycles.iter().sum(),
        retired: result.retired,
        events,
        build_s,
        prepare_s,
        step_s,
        result_s,
        trace,
        scale: 1.0,
    })
}

/// Instructions each rank's program computes.
pub fn expected_work(spec: &CaseSpec) -> Vec<u64> {
    spec.app
        .programs()
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            flatten(p, rank)
                .iter()
                .map(|op| match op {
                    FlatOp::Compute(w) => w.instructions,
                    _ => 0,
                })
                .sum()
        })
        .collect()
}

/// Record hashes pinned for seed 0 at full size, keyed by
/// `(workload, case label)`.
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<(String, String), u64>);

impl Pins {
    /// The hashes committed beside the benchmark (`pins.txt`).
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../pins.txt")).expect("pins.txt is well formed")
    }

    /// Parse `workload label hex-hash` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, label, hash] = f[..] else {
                return Err(format!("bad pin line {line:?}"));
            };
            let hash = u64::from_str_radix(hash, 16).map_err(|e| format!("{line:?}: {e}"))?;
            pins.insert(workload, label, hash);
        }
        Ok(pins)
    }

    /// Pin `hash` for a case.
    pub fn insert(&mut self, workload: &str, label: &str, hash: u64) {
        self.0.insert((workload.into(), label.into()), hash);
    }

    /// The pinned hash of a case, if any.
    pub fn get(&self, workload: Workload, label: &str) -> Option<u64> {
        self.0
            .get(&(workload.name().to_string(), label.to_string()))
            .copied()
    }
}

/// The output checks, applied to every execution of every case in a run:
/// the run finished, every rank retired at least its program's work, the
/// record hash equals the pinned one (when pins apply) and equals the
/// hash of every earlier execution of the same case in this process (a
/// pass, a traced pass, a 1-thread pass).
#[derive(Debug)]
pub struct Checker {
    workload: Workload,
    pins: Option<Pins>,
    expected: BTreeMap<String, Vec<u64>>,
    seen: BTreeMap<String, u64>,
    /// Executions checked.
    pub attempted: u64,
    /// Executions that failed, with the reason.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `specs`; `pins` is `None` when no pins apply to the
    /// run's seed and size.
    pub fn new(workload: Workload, specs: &[CaseSpec], pins: Option<Pins>) -> Checker {
        Checker {
            workload,
            pins,
            expected: specs
                .iter()
                .map(|s| (s.label.clone(), expected_work(s)))
                .collect(),
            seen: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Check one execution; `what` says which pass it came from.
    pub fn check(&mut self, spec: &CaseSpec, what: &str, run: &Result<CaseRun, String>) {
        self.attempted += 1;
        if let Err(e) = self.verdict(spec, run) {
            self.failures.push(format!("{} ({what}): {e}", spec.label));
        }
    }

    fn verdict(&mut self, spec: &CaseSpec, run: &Result<CaseRun, String>) -> Result<(), String> {
        let run = run.as_ref().map_err(Clone::clone)?;
        let first = *self.seen.entry(spec.label.clone()).or_insert(run.hash);
        if first != run.hash {
            return Err(format!(
                "record hash {:016x} != {first:016x} of an earlier execution",
                run.hash
            ));
        }
        if let Some(pin) = self
            .pins
            .as_ref()
            .and_then(|p| p.get(self.workload, &spec.label))
        {
            if pin != run.hash {
                return Err(format!(
                    "record hash {:016x} != pinned {pin:016x}",
                    run.hash
                ));
            }
        }
        let expected = &self.expected[&spec.label];
        for (rank, (&got, &want)) in run.retired.iter().zip(expected).enumerate() {
            if got < want {
                return Err(format!("rank {rank} retired {got} < {want} instructions"));
            }
        }
        Ok(())
    }

    /// The first hash seen per case, in label order.
    pub fn hashes(&self) -> &BTreeMap<String, u64> {
        &self.seen
    }
}

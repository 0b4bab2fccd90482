//! The benchmark's workloads: which cases each one runs, at which
//! fidelity and size, and how the benchmark seed reaches the workload
//! configurations.

use mtb_core::balance::StaticRun;
use mtb_core::paper_cases::{btmz_cases, metbench_cases, Case};
use mtb_core::policy::PrioritySetting;
use mtb_mpisim::program::Program;
use mtb_oskernel::noise::interrupt_annoyance;
use mtb_oskernel::{CtxAddr, NoiseSource};
use mtb_workloads::btmz::contiguous_partition;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

/// A named set of cases the benchmark runs in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables IV/V cases A–D at full scale, mesoscale fidelity, under the
    /// interrupt noise of `mtb run --noise 5`.
    MesoNoise,
    /// Tables IV/V cases A–D at cycle fidelity on the paper's 2-core
    /// shared-L2 machine, small scale, default message sizes, no noise.
    CyclePaper,
    /// The three intra-run scaling cases at cycle fidelity, one rank per
    /// core, sharded over `min(2, nproc)` threads.
    CycleCluster,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload::MesoNoise,
    Workload::CyclePaper,
    Workload::CycleCluster,
];

impl Workload {
    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MesoNoise => "meso-noise",
            Workload::CyclePaper => "cycle-paper",
            Workload::CycleCluster => "cycle-cluster",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the workload run the paper's cases (so `paper_delta_err_pp`
    /// applies)?
    pub fn has_paper_cases(self) -> bool {
        !matches!(self, Workload::CycleCluster)
    }
}

/// How much work each case does. `Full` is what the benchmark measures;
/// `Tiny` exists for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-long pass of every workload, for tests.
    Tiny,
}

/// Work multiplier of the `cycle-paper` cases (the `--scale` of
/// `mtb run --cycle-accurate`).
pub const CYCLE_PAPER_SCALE: f64 = 1e-6;

/// BT-MZ iterations in `cycle-paper`. The paper runs 200; at cycle
/// fidelity each one costs a boundary exchange at the default message
/// size whatever the scale (about 50 ms of host time on a 2-CPU Xeon
/// host), so 200 would make one case take ~10 s. The total compute does
/// not depend on the iteration count (each iteration gets
/// `1/iterations` of it), so the cut removes exchanges only.
pub const CYCLE_PAPER_BTMZ_ITERATIONS: u32 = 8;

/// The workload configuration of one case, kept so its programs can be
/// rebuilt at every set-up.
#[derive(Debug, Clone)]
pub enum App {
    /// MetBench (Table IV).
    MetBench(MetBenchConfig),
    /// BT-MZ (Table V).
    BtMz(BtMzConfig),
    /// SIESTA (Table VI).
    Siesta(SiestaConfig),
}

impl App {
    /// Build the rank programs.
    pub fn programs(&self) -> Vec<Program> {
        match self {
            App::MetBench(c) => c.programs(),
            App::BtMz(c) => c.programs(),
            App::Siesta(c) => c.programs(),
        }
    }
}

/// One case of a workload: programs, balancing configuration and machine.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// `app/case` for paper cases, the scaling-case name otherwise.
    pub label: String,
    /// Application name (`metbench`, `btmz`, `siesta`).
    pub app_name: &'static str,
    /// Workload configuration.
    pub app: App,
    /// Placement and priorities.
    pub case: Case,
    /// Cycle-level core model (mesoscale otherwise).
    pub cycle: bool,
    /// Extrinsic noise sources.
    pub noise: Vec<NoiseSource>,
    /// `(nodes, cores_per_node)` for cluster cases; the paper's 2-core
    /// node otherwise.
    pub cluster: Option<(usize, usize)>,
    /// Intra-run threads the case runs at.
    pub threads: usize,
    /// The paper's improvement over case A, in percent (cases B–D).
    pub paper_delta_pct: Option<f64>,
}

impl CaseSpec {
    /// Simulated cores.
    pub fn cores(&self) -> usize {
        self.cluster.map_or(2, |(nodes, per)| nodes * per)
    }

    /// Cores sharing one L2 (the engine's rule: physical packaging,
    /// at most 2, never across nodes).
    pub fn cores_per_l2(&self) -> usize {
        self.cluster.map_or(2, |(_, per)| per.min(2))
    }

    /// The run description `mtb_core::balance::prepare` takes.
    pub fn static_run<'a>(&self, programs: &'a [Program], threads: usize) -> StaticRun<'a> {
        let mut run = StaticRun::new(programs, self.case.placement.clone())
            .with_priorities(self.case.priorities.clone())
            .with_noise(self.noise.clone())
            .with_threads(threads);
        if self.cycle {
            run = run.cycle_accurate();
        }
        if let Some((nodes, per)) = self.cluster {
            run = run.on_cluster(nodes, per);
        }
        run
    }
}

/// Offset a configuration's default seed by the benchmark seed. Seed 0
/// keeps the defaults, so the pinned hashes describe the configurations
/// the paper tables use; other seeds land far apart.
pub fn seeded(default: u64, seed: u64) -> u64 {
    default.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The interrupt noise of `mtb run --noise 5`: a timer tick on every
/// context plus device interrupts on CPU0 at a 5% duty cycle.
pub fn noise_5pct() -> Vec<NoiseSource> {
    let period = 500_000;
    interrupt_annoyance(2, 1_500_000, 7_500, period, period * 5 / 100)
}

/// Paper execution times (seconds) of cases A–D, Table IV.
const METBENCH_PAPER_S: [f64; 4] = [81.64, 76.98, 74.90, 95.71];
/// Paper execution times (seconds) of cases A–D, Table V.
const BTMZ_PAPER_S: [f64; 4] = [81.64, 127.91, 75.62, 66.88];

/// Improvement over case A in percent, as the paper's tables state it.
fn delta_pct(a: f64, x: f64) -> f64 {
    (a - x) / a * 100.0
}

fn paper_specs(
    app_name: &'static str,
    app: &App,
    cases: Vec<Case>,
    paper_s: [f64; 4],
    cycle: bool,
    noise: &[NoiseSource],
) -> Vec<CaseSpec> {
    cases
        .into_iter()
        .zip(paper_s)
        .map(|(case, secs)| CaseSpec {
            label: format!("{app_name}/{}", case.name),
            app_name,
            app: app.clone(),
            paper_delta_pct: (case.name != "A").then(|| delta_pct(paper_s[0], secs)),
            case,
            cycle,
            noise: noise.to_vec(),
            cluster: None,
            threads: 1,
        })
        .collect()
}

/// One rank per physical core: rank `r` on the first context of core `r`.
fn one_rank_per_core(ranks: usize) -> Vec<CtxAddr> {
    (0..ranks).map(|r| CtxAddr::from_cpu(2 * r)).collect()
}

fn scaling_spec(
    label: &'static str,
    app_name: &'static str,
    app: App,
    ranks: usize,
    cluster: (usize, usize),
    threads: usize,
) -> CaseSpec {
    CaseSpec {
        label: label.to_string(),
        app_name,
        app,
        case: Case {
            name: label,
            placement: one_rank_per_core(ranks),
            priorities: vec![PrioritySetting::ProcFs(4); ranks],
        },
        cycle: true,
        noise: Vec::new(),
        cluster: Some(cluster),
        threads,
        paper_delta_pct: None,
    }
}

/// Intra-run threads of `cycle-cluster`: `min(2, nproc)`.
pub fn cluster_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The cases of `workload` at `size`, with `seed` applied to every
/// workload configuration's `seed` field (and nowhere else).
pub fn cases(workload: Workload, size: Size, seed: u64) -> Vec<CaseSpec> {
    let tiny = size == Size::Tiny;
    match workload {
        Workload::MesoNoise | Workload::CyclePaper => {
            let cycle = workload == Workload::CyclePaper;
            let mut mb = if tiny {
                MetBenchConfig::tiny()
            } else {
                MetBenchConfig::default()
            };
            let mut bt = if tiny {
                BtMzConfig::tiny()
            } else {
                BtMzConfig::default()
            };
            if cycle {
                mb.scale = CYCLE_PAPER_SCALE;
                bt.scale = CYCLE_PAPER_SCALE;
                bt.iterations = CYCLE_PAPER_BTMZ_ITERATIONS;
                if tiny {
                    mb.scale = CYCLE_PAPER_SCALE / 20.0;
                    bt.scale = CYCLE_PAPER_SCALE / 20.0;
                    bt.iterations = 2;
                }
            }
            mb.seed = seeded(mb.seed, seed);
            bt.seed = seeded(bt.seed, seed);
            let noise = if cycle { Vec::new() } else { noise_5pct() };
            let mut specs = paper_specs(
                "metbench",
                &App::MetBench(mb),
                metbench_cases(),
                METBENCH_PAPER_S,
                cycle,
                &noise,
            );
            specs.extend(paper_specs(
                "btmz",
                &App::BtMz(bt),
                btmz_cases(),
                BTMZ_PAPER_S,
                cycle,
                &noise,
            ));
            specs
        }
        Workload::CycleCluster => {
            // The sizes of the `mtb bench` scaling sweeps: the heaviest
            // rank executes a few million instructions, and the boundary
            // exchanges shrink with the compute so the run measures the
            // sharded cores rather than the serial coordinator.
            let (boost, iters) = if tiny { (0.2, 2) } else { (1.0, 0) };
            let it = |full: u32| if tiny { iters } else { full };
            let threads = cluster_threads();
            let mb = MetBenchConfig {
                iterations: it(10),
                scale: 3e-6 * boost,
                seed: seeded(MetBenchConfig::default().seed, seed),
                ..MetBenchConfig::default()
            };
            let bt = BtMzConfig {
                ranks: 8,
                iterations: it(10),
                scale: 6e-6 * boost,
                exchange_bytes: 8 << 10,
                seed: seeded(BtMzConfig::default().seed, seed),
                ..BtMzConfig::default()
            }
            .with_partition(contiguous_partition(8));
            let si = SiestaConfig {
                iterations: it(24),
                scale: 6e-7 * boost,
                exchange_bytes: 8 << 10,
                seed: seeded(SiestaConfig::default().seed, seed),
                ..SiestaConfig::default()
            };
            vec![
                scaling_spec(
                    "metbench-4c",
                    "metbench",
                    App::MetBench(mb),
                    4,
                    (4, 1),
                    threads,
                ),
                scaling_spec("btmz-8c", "btmz", App::BtMz(bt), 8, (4, 2), threads),
                scaling_spec("siesta-4c", "siesta", App::Siesta(si), 4, (4, 1), threads),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_config_defaults() {
        assert_eq!(seeded(0x4d45_5442, 0), 0x4d45_5442);
        assert_ne!(seeded(0x4d45_5442, 1), seeded(0x4d45_5442, 2));
    }

    #[test]
    fn paper_deltas_match_the_tables() {
        let specs = cases(Workload::MesoNoise, Size::Tiny, 0);
        let d = |label: &str| {
            specs
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.paper_delta_pct)
        };
        assert_eq!(d("metbench/A"), None);
        assert!((d("metbench/C").unwrap() - 8.26).abs() < 0.01);
        assert!((d("btmz/D").unwrap() - 18.08).abs() < 0.01);
    }
}

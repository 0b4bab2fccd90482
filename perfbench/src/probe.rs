//! Isolated layer probes: the kernel machine and the core model stepped
//! directly over a case's per-rank compute mix, without the MPI engine,
//! in fixed epochs.

use crate::workload::CaseSpec;
use mtb_core::policy::{apply_priorities, PrioritySetting};
use mtb_mpisim::interp::{flatten, FlatOp};
use mtb_oskernel::{KernelConfig, Machine};
use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::model::Workload;
use mtb_smtsim::perfmodel::MesoConfig;
use mtb_smtsim::{CoreConfig, HwPriority};
use std::time::Instant;

/// Cycles per probe epoch: the quantum the engine steps cycle-fidelity
/// runs in.
pub const EPOCH: u64 = 50_000;

fn fidelity(spec: &CaseSpec) -> Fidelity {
    if spec.cycle {
        Fidelity::Cycle(CoreConfig::default())
    } else {
        Fidelity::Meso(MesoConfig::default())
    }
}

/// The first compute workload of each rank: the instruction mix the case
/// retires, minus the message passing.
fn rank_mix(spec: &CaseSpec) -> Vec<Workload> {
    spec.app
        .programs()
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            flatten(p, rank)
                .into_iter()
                .find_map(|op| match op {
                    FlatOp::Compute(w) => Some(w.workload),
                    _ => None,
                })
                .expect("every rank of the benchmark's apps computes")
        })
        .collect()
}

fn epochs(cycles: u64) -> impl Iterator<Item = u64> {
    (0..cycles.div_ceil(EPOCH)).map(move |i| EPOCH.min(cycles - i * EPOCH))
}

/// Host seconds of `Machine::advance` over `cycles` machine cycles of the
/// case's placement, priorities, compute mix and noise.
pub fn machine_advance_s(spec: &CaseSpec, cycles: u64) -> Result<f64, String> {
    let mut m = Machine::new(
        build_cores_grouped(spec.cores(), &fidelity(spec), spec.cores_per_l2()),
        KernelConfig::patched(),
    );
    for (rank, w) in rank_mix(spec).into_iter().enumerate() {
        m.spawn(rank, format!("P{}", rank + 1), spec.case.placement[rank])
            .map_err(|e| e.to_string())?;
        m.run_workload(rank, w).map_err(|e| e.to_string())?;
    }
    apply_priorities(&mut m, &spec.case.priorities).map_err(|e| e.to_string())?;
    for src in &spec.noise {
        m.add_noise(src.clone());
    }
    let t0 = Instant::now();
    for dt in epochs(cycles) {
        m.advance(dt);
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(m.now());
    Ok(secs)
}

/// Host seconds of `CoreModel::advance` (`SmtCore` at cycle fidelity,
/// `MesoCore` at mesoscale) over `cycles` cycles of each of the case's
/// cores, each carrying the compute mix of the ranks placed on it.
pub fn core_advance_s(spec: &CaseSpec, cycles: u64) -> f64 {
    let mut cores = build_cores_grouped(spec.cores(), &fidelity(spec), spec.cores_per_l2());
    for (rank, w) in rank_mix(spec).into_iter().enumerate() {
        let at = spec.case.placement[rank];
        let prio = match spec.case.priorities.get(rank) {
            Some(PrioritySetting::ProcFs(v) | PrioritySetting::OrNop(v, _)) => {
                HwPriority::new(*v).unwrap_or(HwPriority::MEDIUM)
            }
            _ => HwPriority::MEDIUM,
        };
        cores[at.core].assign(at.thread, w);
        cores[at.core].set_priority(at.thread, prio);
    }
    let t0 = Instant::now();
    let mut retired = 0;
    for dt in epochs(cycles) {
        for core in cores.iter_mut() {
            let [a, b] = core.advance(dt);
            retired += a + b;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(retired);
    secs
}

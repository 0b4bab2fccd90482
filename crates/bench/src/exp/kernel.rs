//! EXT-2: why the kernel patch matters (Section VI).
//!
//! On a stock kernel, every interrupt resets the context's hardware
//! priority to MEDIUM, so a configured balancing evaporates at the first
//! timer tick. This experiment runs MetBench case C under both kernels
//! with a realistic timer tick and shows the patched kernel retains the
//! benefit while the vanilla kernel regresses to the imbalanced baseline.

use crate::harness::run_static;
use mtb_core::balance::StaticRun;
use mtb_core::paper_cases::metbench_cases;
use mtb_core::policy::PrioritySetting;
use mtb_oskernel::{CtxAddr, KernelConfig, NoiseSource};
use mtb_smtsim::PrivilegeLevel;
use mtb_trace::cycles_to_seconds;
use mtb_workloads::metbench::MetBenchConfig;

fn ticks() -> Vec<NoiseSource> {
    // 1 kHz timer at 1.5 GHz = 1.5M cycles period; ~10 us handler.
    (0..4)
        .map(|cpu| NoiseSource::timer(CtxAddr::from_cpu(cpu), 1_500_000, 15_000))
        .collect()
}

pub fn run() {
    println!("EXT-2 — kernel flavour vs balancing effectiveness (MetBench, case C priorities)\n");
    let cfg = MetBenchConfig::default();
    let progs = cfg.programs();
    let case_c = &metbench_cases()[2];

    // Priorities 2..4 are settable from user space via or-nop on ANY
    // kernel; case C needs 6, which on the stock kernel is unreachable —
    // we emulate the closest legal configuration (heavy stays MEDIUM,
    // light drops to LOW) to give vanilla its best shot.
    let vanilla_best: Vec<PrioritySetting> = vec![
        PrioritySetting::OrNop(2, PrivilegeLevel::User),
        PrioritySetting::OrNop(4, PrivilegeLevel::User),
        PrioritySetting::OrNop(2, PrivilegeLevel::User),
        PrioritySetting::OrNop(4, PrivilegeLevel::User),
    ];

    let runs = [
        (
            "patched, no noise (paper setup)",
            run_static(
                StaticRun::new(&progs, case_c.placement.clone())
                    .with_priorities(case_c.priorities.clone()),
            )
            .unwrap(),
        ),
        (
            "patched, 1kHz timer ticks",
            run_static(
                StaticRun::new(&progs, case_c.placement.clone())
                    .with_priorities(case_c.priorities.clone())
                    .with_noise(ticks()),
            )
            .unwrap(),
        ),
        (
            "vanilla, or-nop(2/4), 1kHz ticks",
            run_static(
                StaticRun::new(&progs, case_c.placement.clone())
                    .with_priorities(vanilla_best)
                    .with_kernel(KernelConfig::vanilla())
                    .with_noise(ticks()),
            )
            .unwrap(),
        ),
        (
            "reference (all MEDIUM, patched)",
            run_static(StaticRun::new(&progs, case_c.placement.clone())).unwrap(),
        ),
    ];

    for (label, r) in &runs {
        println!(
            "{label:<36} exec {:7.2}s  imbalance {:5.2}%",
            cycles_to_seconds(r.total_cycles),
            r.metrics.imbalance_pct
        );
    }
    println!(
        "\nThe vanilla kernel decays every priority to MEDIUM at the first tick:\n\
         its run matches the unbalanced reference, while the patched kernel\n\
         keeps the case-C gain even under interrupt noise."
    );
}

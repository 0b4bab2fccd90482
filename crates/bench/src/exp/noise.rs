//! EXT-3: extrinsic imbalance (Section II-B) and whether priority
//! balancing can compensate for it.
//!
//! A perfectly balanced application is skewed by OS noise concentrated on
//! CPU0 (the "interrupt annoyance problem"). We sweep the device-interrupt
//! duty cycle and report the induced imbalance, then apply the dynamic
//! balancer to claw the time back.

use crate::harness::run_static;
use mtb_core::balance::{execute_with, StaticRun};
use mtb_oskernel::noise::interrupt_annoyance;
use mtb_trace::{cycles_to_seconds, Table};
use mtb_workloads::synthetic::SyntheticConfig;

pub fn run() {
    println!("EXT-3 — OS noise as an extrinsic imbalance source\n");
    // A *balanced* application: equal work on all four ranks.
    let cfg = SyntheticConfig {
        skew: 1.0,
        iterations: 16,
        ..Default::default()
    };
    let progs = cfg.programs();

    let mut t = Table::new(&[
        "device IRQ duty (%)",
        "exec (s)",
        "imbalance (%)",
        "P1 stolen (Mcycles)",
        "exec w/ dynamic (s)",
    ])
    .with_title("balanced 4-rank application, 1kHz ticks everywhere + device IRQs on CPU0");

    for duty_pct in [0u64, 1, 2, 5, 10] {
        let noise = if duty_pct == 0 {
            vec![]
        } else {
            let period = 500_000;
            interrupt_annoyance(2, 1_500_000, 7_500, period, period * duty_pct / 100)
        };
        let plain =
            run_static(StaticRun::new(&progs, cfg.placement()).with_noise(noise.clone())).unwrap();
        let mut balancer = super::reactive(&cfg.placement());
        let balanced = execute_with(
            StaticRun::new(&progs, cfg.placement()).with_noise(noise),
            &mut balancer,
        )
        .unwrap();

        t.row_owned(vec![
            duty_pct.to_string(),
            format!("{:.2}", cycles_to_seconds(plain.total_cycles)),
            format!("{:.2}", plain.metrics.imbalance_pct),
            format!("{:.1}", plain.interrupt_cycles[0] as f64 / 1e6),
            format!("{:.2}", cycles_to_seconds(balanced.total_cycles)),
        ]);
    }
    println!("{}", t.render());
}

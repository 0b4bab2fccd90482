//! EXT-7: the energy view.
//!
//! The paper motivates MT processors by performance/power; this
//! experiment quantifies it on BT-MZ. SMT mode amortizes the core's base
//! power over two contexts; balancing shortens runs AND cuts the cycles
//! that waiting ranks burn in spin loops — so the best-balanced case wins
//! time, energy and energy-delay product simultaneously.

use crate::run_case;
use mtb_core::paper_cases::{btmz_cases, btmz_st_case};
use mtb_trace::energy::{measure, EnergyModel};
use mtb_trace::{cycles_to_seconds, Table};
use mtb_workloads::btmz::BtMzConfig;

pub fn run() {
    println!("EXT-7 — energy to solution (BT-MZ, first-order power model)\n");
    let model = EnergyModel::default();
    let mut t = Table::new(&[
        "config",
        "exec (s)",
        "energy (kJ)",
        "avg power (W)",
        "EDP (kJ*s)",
        "spin waste (%)",
    ]);

    let st_cfg = BtMzConfig::st_mode();
    let st = run_case(&st_cfg.programs(), &btmz_st_case());
    let mut rows = vec![("ST (2 ranks, SMT off)", st)];

    let cfg = BtMzConfig::default();
    for case in btmz_cases() {
        let label: &'static str = match case.name {
            "A" => "A (reference)",
            "B" => "B (inverted)",
            "C" => "C",
            "D" => "D (paper's best)",
            _ => "?",
        };
        rows.push((label, run_case(&cfg.programs(), &case)));
    }

    for (label, r) in &rows {
        let e = measure(&r.timelines, &r.retired, r.total_cycles, 4, &model);
        let spin: u64 = r.spin_cycles.iter().sum();
        let busy: u64 = r.busy_cycles.iter().sum();
        t.row_owned(vec![
            label.to_string(),
            format!("{:.2}", cycles_to_seconds(r.total_cycles)),
            format!("{:.2}", e.joules / 1e3),
            format!("{:.1}", e.avg_watts),
            format!("{:.1}", e.edp / 1e3),
            format!("{:.1}", 100.0 * spin as f64 / (spin + busy).max(1) as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "ST mode computes the same work on half the contexts: lower power but\n\
         much longer runs — worse energy AND far worse EDP. Balancing (case D)\n\
         improves every column at once: shorter runs burn fewer spin cycles."
    );
}

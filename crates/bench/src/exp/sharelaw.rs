//! EXT-5: what if the hardware priority law were linear instead of
//! exponential?
//!
//! The paper observes (MetBench case D) that the POWER5's exponential
//! decode slices make the penalized thread collapse "much more than
//! linearly", so mis-tuned priorities are punished brutally. This
//! ablation reruns the MetBench priority sweep under a hypothetical
//! linear law (high thread gets `0.5 + diff/10`, capped at 0.9) and
//! compares the tuning landscape: the linear law is forgiving but cannot
//! deliver the large share transfers the best static cases need.

use crate::harness::run_static;
use mtb_core::balance::StaticRun;
use mtb_core::policy::PrioritySetting;
use mtb_smtsim::perfmodel::{MesoConfig, ShareLaw};
use mtb_trace::{cycles_to_seconds, Table};
use mtb_workloads::metbench::MetBenchConfig;

pub fn run() {
    println!("EXT-5 — exponential (POWER5) vs linear priority law, MetBench sweep\n");
    let cfg = MetBenchConfig::default();
    let progs = cfg.programs();

    let mut t = Table::new(&[
        "light prio",
        "heavy prio",
        "diff",
        "exec POWER5 (s)",
        "exec linear (s)",
    ]);

    let mut best = [(0u8, f64::INFINITY); 2];
    for diff in 0..=4u8 {
        let heavy = 6u8.min(4 + diff);
        let light = heavy - diff;
        let prios = vec![
            PrioritySetting::ProcFs(light),
            PrioritySetting::ProcFs(heavy),
            PrioritySetting::ProcFs(light),
            PrioritySetting::ProcFs(heavy),
        ];
        let mut row = vec![light.to_string(), heavy.to_string(), diff.to_string()];
        for (i, law) in [ShareLaw::Power5, ShareLaw::Linear].into_iter().enumerate() {
            let meso = MesoConfig {
                share_law: law,
                ..MesoConfig::default()
            };
            let r = run_static(
                StaticRun::new(&progs, cfg.placement())
                    .with_priorities(prios.clone())
                    .with_meso(meso),
            )
            .unwrap();
            let secs = cycles_to_seconds(r.total_cycles);
            if secs < best[i].1 {
                best[i] = (diff, secs);
            }
            row.push(format!("{secs:.2}"));
        }
        t.row_owned(row);
    }
    println!("{}", t.render());
    println!(
        "POWER5 law: best at diff {} ({:.2}s) — then the cliff (diff 3-4 regress).",
        best[0].0, best[0].1
    );
    println!(
        "linear law: best at diff {} ({:.2}s) — smooth landscape, smaller peak gain.",
        best[1].0, best[1].1
    );
}

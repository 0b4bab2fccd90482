//! Regenerate Figure 1: the expected effect of the proposed solution on a
//! synthetic imbalanced application — (a) the reference run, (b) the run
//! with the bottleneck's priority raised.

use crate::run_case;
use mtb_core::paper_cases::Case;
use mtb_core::policy::PrioritySetting;
use mtb_trace::{cycles_to_seconds, render_gantt, GanttConfig};
use mtb_workloads::synthetic::SyntheticConfig;

pub fn run() {
    let cfg = SyntheticConfig::default();
    let progs = cfg.programs();

    let reference = Case {
        name: "1(a) imbalanced",
        placement: cfg.placement(),
        priorities: vec![PrioritySetting::Default; 4],
    };
    let balanced = Case {
        name: "1(b) balanced",
        placement: cfg.placement(),
        priorities: vec![
            PrioritySetting::ProcFs(5), // boost the bottleneck P1
            PrioritySetting::ProcFs(4),
            PrioritySetting::ProcFs(4),
            PrioritySetting::ProcFs(4),
        ],
    };

    for case in [reference, balanced] {
        let r = run_case(&progs, &case);
        let gantt = render_gantt(
            &r.timelines,
            &GanttConfig {
                width: 100,
                legend: false,
                window: None,
                title: Some(format!(
                    "Figure {} — exec {:.2}s, imbalance {:.2}%",
                    case.name,
                    cycles_to_seconds(r.total_cycles),
                    r.metrics.imbalance_pct
                )),
            },
        );
        println!("{gantt}");
    }
    println!("legend: #=compute .=sync");
}

//! The paper's Tables I–VI, as printed by `mtb tables <1-6|all>`.
//!
//! Tables I–III characterize the POWER5 priority mechanism on the
//! cycle-level core; Tables IV–VI run the three applications under the
//! paper's case configurations (with `--gantt`, also Figures 2–4).

use mtb_core::paper_cases::{self, Case};
use mtb_mpisim::engine::RunResult;
use mtb_smtsim::decode::{cycles_per_slice, slice_len};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::{CoreConfig, HwPriority, SmtCore};
use mtb_trace::Table;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

/// The table numbers `mtb tables` accepts besides `all`.
pub const TABLES: [&str; 6] = ["1", "2", "3", "4", "5", "6"];

/// Print table `which` (one of [`TABLES`]) to stdout; `false` when there
/// is no such table. `gantt` adds the Gantt figure to Tables IV–VI;
/// Tables I–III have none.
pub fn print(which: &str, gantt: bool) -> bool {
    match which {
        "1" => table1(),
        "2" => table2(),
        "3" => table3(),
        "4" => {
            let cfg = MetBenchConfig::default();
            let runs = crate::run_cases(paper_cases::metbench_cases(), |_| cfg.programs());
            app_table(
                "TABLE IV — METBENCH BALANCED AND IMBALANCED CHARACTERIZATION",
                "Figure 2",
                &runs,
                0,
                gantt,
            );
        }
        "5" => {
            let st_cfg = BtMzConfig::st_mode();
            let st = crate::run_case(&st_cfg.programs(), &paper_cases::btmz_st_case());
            let cfg = BtMzConfig::default();
            let mut runs = vec![(paper_cases::btmz_st_case(), st)];
            runs.extend(crate::run_cases(paper_cases::btmz_cases(), |_| {
                cfg.programs()
            }));
            app_table(
                "TABLE V — BT-MZ BALANCED AND IMBALANCED CHARACTERIZATION",
                "Figure 3",
                &runs,
                1,
                gantt,
            );
        }
        "6" => {
            let st_cfg = SiestaConfig::st_mode();
            let st = crate::run_case(&st_cfg.programs(), &paper_cases::siesta_st_case());
            let cfg = SiestaConfig::default();
            let mut runs = vec![(paper_cases::siesta_st_case(), st)];
            runs.extend(crate::run_cases(paper_cases::siesta_cases(), |_| {
                cfg.programs()
            }));
            app_table(
                "TABLE VI — SIESTA BALANCED AND IMBALANCED CHARACTERIZATION",
                "Figure 4",
                &runs,
                1,
                gantt,
            );
        }
        _ => return false,
    }
    true
}

/// An application table, then with `gantt` its figure; the first
/// `st_rows` rows (ST mode) have no Gantt chart.
fn app_table(title: &str, figure: &str, runs: &[(Case, RunResult)], st_rows: usize, gantt: bool) {
    println!("{}", crate::report(title, "A", runs));
    if gantt {
        println!("{}", crate::gantts(figure, &runs[st_rows..], 100));
    }
}

/// Table I: hardware thread priorities, privilege levels and or-nop
/// encodings.
fn table1() {
    let mut t = Table::new(&[
        "Priority",
        "Priority level",
        "Privilege level",
        "or-nop inst.",
    ])
    .with_title("TABLE I — HARDWARE THREAD PRIORITIES IN THE IBM POWER5 PROCESSOR");
    for p in HwPriority::ALL {
        t.row_owned(vec![
            p.value().to_string(),
            p.level_name().to_string(),
            p.required_privilege().to_string(),
            p.or_nop_register()
                .map_or("-".to_string(), |r| format!("or {r},{r},{r}")),
        ]);
    }
    println!("{}", t.render());
}

/// Two identical decode-hungry streams on one cycle-level core at the
/// given priorities (the probe behind Tables II and III).
fn frontend_pair(pa: HwPriority, pb: HwPriority) -> SmtCore {
    let mut core = SmtCore::new(CoreConfig::default());
    core.assign(
        ThreadId::A,
        Workload::from_spec("a", StreamSpec::frontend_bound(1)),
    );
    core.assign(
        ThreadId::B,
        Workload::from_spec("b", StreamSpec::frontend_bound(2)),
    );
    core.set_priority(ThreadId::A, pa);
    core.set_priority(ThreadId::B, pb);
    core
}

/// Table II: decode-cycle allocation vs priority difference, measured on
/// the cycle-level core (not just the closed form) by counting owned
/// decode slots.
fn table2() {
    let mut t = Table::new(&[
        "Priority difference (X-Y)",
        "R",
        "Decode cycles for A",
        "Decode cycles for B",
        "Measured A:B (3200 cycles)",
    ])
    .with_title("TABLE II — DECODE CYCLES ALLOCATION IN THE IBM POWER5 WITH DIFFERENT PRIORITIES");

    for diff in 0u8..=4 {
        let pa = HwPriority::new(2 + diff).unwrap();
        let pb = HwPriority::LOW;
        let r = slice_len(pa, pb);
        let (ca, cb) = cycles_per_slice(pa, pb);

        let mut core = frontend_pair(pa, pb);
        core.advance(3200);
        let owned_a = core.stats(ThreadId::A).slots_owned;
        let owned_b = core.stats(ThreadId::B).slots_owned;

        t.row_owned(vec![
            diff.to_string(),
            r.to_string(),
            ca.to_string(),
            cb.to_string(),
            format!("{owned_a}:{owned_b}"),
        ]);
    }
    println!("{}", t.render());
}

/// Table III: resource allocation when either priority is 0 or 1,
/// demonstrated by running identical streams at each priority pair and
/// reporting retired instructions.
fn table3() {
    let rows: [(u8, u8, &str); 6] = [
        (4, 4, "Decode cycles given per thread priorities"),
        (
            1,
            4,
            "ThreadB gets all execution resources; A takes leftovers",
        ),
        (1, 1, "Power save mode; each receives 1 of 64 decode cycles"),
        (0, 4, "Processor in ST mode; ThreadB receives all resources"),
        (0, 1, "1 of 32 cycles given to ThreadB"),
        (0, 0, "Processor is stopped"),
    ];
    let n = 64_000;
    let mut t = Table::new(&["Thr.A", "Thr.B", "Action", "Retired A", "Retired B"]).with_title(
        "TABLE III — RESOURCE ALLOCATION IN THE IBM POWER5 WHEN THE PRIORITY OF ANY THREAD IS 0 OR 1",
    );
    for (pa, pb, action) in rows {
        let prio = |p| HwPriority::new(p).expect("Table III priorities are 0..=7");
        let [ra, rb] = frontend_pair(prio(pa), prio(pb)).advance(n);
        t.row_owned(vec![
            pa.to_string(),
            pb.to_string(),
            action.to_string(),
            ra.to_string(),
            rb.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("({n} simulated cycles per row, identical decode-hungry streams)");
}

//! Priority-pair search over the decode-share model.
//!
//! Choosing priorities by trial and error is exactly what the paper's
//! authors had to do (four cases per application). This module predicts
//! the outcome instead: given the two co-running workload profiles and
//! their work amounts, it evaluates every candidate priority pair through
//! [`mtb_smtsim::perfmodel::pair_makespan`] — the same throughput
//! equations the mesoscale core uses — and returns the pair minimizing the
//! core's makespan. It is the model-driven replacement for the paper's
//! manual case exploration.

use mtb_smtsim::model::WorkloadProfile;
use mtb_smtsim::perfmodel::pair_makespan;
use mtb_smtsim::HwPriority;

/// Search OS-settable priority pairs (1..=6 each) for the one minimizing
/// the predicted makespan. Returns `(pa, pb, predicted_cycles)`; a starved
/// pair counts as never finishing.
///
/// `max_diff` bounds the explored priority difference (the paper's case D
/// shows why unbounded differences are dangerous when the model is
/// imperfect).
pub fn best_priority_pair(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    work_a: u64,
    work_b: u64,
    max_diff: u8,
) -> (u8, u8, f64) {
    let hw = |p: u8| HwPriority::new(p).expect("OS-settable priority");
    let mut best = (4u8, 4u8, f64::INFINITY);
    for pa in 1..=6u8 {
        for pb in 1..=6u8 {
            if pa.abs_diff(pb) > max_diff {
                continue;
            }
            let t = pair_makespan(a, work_a, b, work_b, hw(pa), hw(pb))
                .map_or(f64::INFINITY, |(t, _)| t);
            if t < best.2 {
                best = (pa, pb, t);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(ipc: f64) -> WorkloadProfile {
        WorkloadProfile::new(ipc, 0.05, 0.02)
    }

    #[test]
    fn best_pair_for_imbalanced_work_boosts_the_heavy_thread() {
        let (pa, pb, t) = best_priority_pair(&dense(2.6), &dense(2.6), 4_000_000, 1_000_000, 2);
        assert!(
            pa > pb,
            "thread A has 4x the work, it must be boosted: ({pa},{pb})"
        );
        assert!(t.is_finite());
        // And the chosen pair beats the default.
        let (t_default, _) = pair_makespan(
            &dense(2.6),
            4_000_000,
            &dense(2.6),
            1_000_000,
            HwPriority::MEDIUM,
            HwPriority::MEDIUM,
        )
        .unwrap();
        assert!(t <= t_default);
    }

    #[test]
    fn best_pair_for_balanced_work_is_symmetric() {
        let (pa, pb, _) = best_priority_pair(&dense(2.6), &dense(2.6), 1_000_000, 1_000_000, 2);
        assert_eq!(pa, pb, "no reason to skew a balanced pair");
    }

    #[test]
    fn diff_cap_is_respected() {
        let (pa, pb, _) = best_priority_pair(&dense(2.6), &dense(2.6), 100_000_000, 1_000_000, 1);
        assert!(pa.abs_diff(pb) <= 1);
    }
}

//! Overhead and effectiveness of the dynamic balancing policy (EXT-1
//! companion): a static run vs the same run driven by the
//! reactive two-level controller (level 1 disabled, no progress model).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtb_core::balance::{execute, execute_with, StaticRun};
use mtb_core::dynamic::{ControllerConfig, TwoLevelController};
use mtb_workloads::MetBenchConfig;

fn bench_policy(c: &mut Criterion) {
    let cfg = MetBenchConfig {
        iterations: 30,
        scale: 3e-3,
        ..Default::default()
    };
    let progs = cfg.programs();
    let mut g = c.benchmark_group("dynamic_policy");
    g.sample_size(30);

    g.bench_function("static_reference/30iter", |bench| {
        bench.iter(|| black_box(execute(StaticRun::new(&progs, cfg.placement())).unwrap()))
    });

    g.bench_function("dynamic_observer/30iter", |bench| {
        bench.iter(|| {
            let reactive = ControllerConfig {
                max_remaps: 0,
                ..Default::default()
            };
            let mut ctl = TwoLevelController::new(&cfg.placement(), reactive);
            black_box(execute_with(StaticRun::new(&progs, cfg.placement()), &mut ctl).unwrap())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_policy);
criterion_main!(benches);

//! Benchmarks of the large-scale fabric machinery: the CorrOpt fast
//! checker, pod metrics, the per-repair optimizer pass at paper scale
//! and a day of maintenance simulation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lg_fabric::topology::LINKS_PER_POD;
use lg_fabric::{
    run, CapacityConstraint, CorrOpt, Fabric, FabricSimConfig, LinkId, LinkState, Policy,
};

fn bench_corropt(c: &mut Criterion) {
    c.bench_function("corropt/fast_checker", |b| {
        let mut fabric = Fabric::new(4);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        b.iter(|| black_box(co.can_disable(&mut fabric, LinkId(7))))
    });
    c.bench_function("fabric/least_paths_per_pod", |b| {
        let fabric = Fabric::new(4);
        b.iter(|| black_box(fabric.least_paths_fraction_in_pod(2)))
    });
}

/// What one `RepairDone` costs at 260 pods: a link comes back, the
/// optimizer re-tries that pod's backlog (two deferred links per pod,
/// one of them disableable once the repair lands), and the state is put
/// back for the next iteration.
fn bench_repair_then_optimize(c: &mut Criterion) {
    c.bench_function("corropt/repair_then_optimize_260pods", |b| {
        const PODS: u32 = 260;
        let mut fabric = Fabric::new(PODS);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        let corrupting = |loss_rate| LinkState::Corrupting {
            loss_rate,
            lg_active: true,
        };
        // Per pod, on ToR 0: fabric link 0 disabled, links 1 and 2
        // corrupting and deferred (a second disabled link would leave
        // the ToR at 50%).
        let pod_links = |pod: u32| {
            let first = pod * LINKS_PER_POD as u32;
            (LinkId(first), LinkId(first + 1), LinkId(first + 2))
        };
        for pod in 0..PODS {
            let (down, worse, bad) = pod_links(pod);
            fabric.set_state(down, LinkState::Disabled);
            fabric.set_state(worse, corrupting(1e-3));
            fabric.set_state(bad, corrupting(1e-5));
        }
        let mut pod = 0;
        b.iter(|| {
            let (down, worse, bad) = pod_links(pod);
            fabric.set_state(down, LinkState::Up);
            let disabled = co.optimize(&mut fabric, &[(worse, 1e-3), (bad, 1e-5)]);
            assert_eq!(disabled, [worse]);
            fabric.set_state(worse, corrupting(1e-3));
            fabric.set_state(down, LinkState::Disabled);
            pod = (pod + 1) % PODS;
            black_box(disabled)
        })
    });
}

fn bench_sim_day(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_sim");
    g.sample_size(10);
    g.bench_function("one_day_20pods", |b| {
        b.iter(|| {
            let cfg = FabricSimConfig {
                pods: 20,
                horizon_hours: 24.0,
                constraint: 0.75,
                policy: Policy::LgPlusCorrOpt,
                sample_interval_hours: 1.0,
                target_loss_rate: 1e-8,
                seed: 99,
            };
            black_box(run(&cfg).counts.corruption_events)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_corropt,
    bench_repair_then_optimize,
    bench_sim_day
);
criterion_main!(benches);

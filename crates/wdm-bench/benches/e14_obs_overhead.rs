//! E14 — observability overhead: the masked provisioning hot path with
//! the engine detached from any registry vs attached to one.
//!
//! The instrumented engine pays a handful of relaxed atomic adds and two
//! `Instant::now()` calls per request; the acceptance bar is that the
//! instrumented throughput stays within noise (< 5%) of the baseline.
//! Same steady-state churn cycle as `e13_provisioning_hot_path`, so the
//! two benches are directly comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_bench::sparse_instance;
use wdm_graph::NodeId;
use wdm_obs::MetricsRegistry;
use wdm_rwa::{Policy, ProvisioningEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_obs_overhead");
    group.sample_size(10);
    let base = sparse_instance(64, 8, 7);
    let n = base.node_count();
    // Deterministic request mix over distinct pairs (no RNG in the loop).
    let pairs: Vec<(NodeId, NodeId)> = (0..100usize)
        .map(|i| {
            let s = (i * 7) % n;
            let t = (s + 1 + (i * 13) % (n - 1)) % n;
            (NodeId::new(s), NodeId::new(t))
        })
        .collect();
    let registry = MetricsRegistry::new();
    for (label, instrumented) in [("baseline", false), ("instrumented", true)] {
        let mut engine = ProvisioningEngine::new(&base);
        if instrumented {
            engine.attach_metrics(&registry);
        }
        group.bench_with_input(BenchmarkId::from_parameter(label), &pairs, |b, pairs| {
            b.iter(|| {
                let mut ids = Vec::new();
                for &(s, t) in pairs.iter() {
                    if let Ok(id) = engine.provision(s, t, Policy::Optimal) {
                        ids.push(id);
                    }
                }
                for id in ids {
                    engine.release(id).expect("active");
                }
                std::hint::black_box(engine.active_count())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

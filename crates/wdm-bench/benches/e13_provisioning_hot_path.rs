//! E13 — provisioning hot path: routing every request over one
//! persistent auxiliary graph through an in-place busy mask vs
//! reconstructing the auxiliary structures per request.
//!
//! Each iteration is one steady-state churn cycle: provision a fixed
//! deterministic request mix, then release every accepted connection, so
//! the engine returns to the empty state and successive samples measure
//! identical work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_bench::sparse_instance;
use wdm_conformance::SpecEngine;
use wdm_graph::NodeId;
use wdm_rwa::{Policy, ProvisioningEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_provisioning_hot_path");
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
    let mut engine = ProvisioningEngine::new(&base);
    group.bench_with_input(BenchmarkId::from_parameter("masked"), &pairs, |b, pairs| {
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
    // The reference: the conformance spec rebuilds per request.
    let mut spec = SpecEngine::new(&base);
    group.bench_with_input(
        BenchmarkId::from_parameter("rebuild-per-request"),
        &pairs,
        |b, pairs| {
            b.iter(|| {
                let mut ids = Vec::new();
                for &(s, t) in pairs.iter() {
                    if let Ok(id) = spec.provision(s, t, Policy::Optimal) {
                        ids.push(id);
                    }
                }
                for id in ids {
                    spec.release(id).expect("active");
                }
                std::hint::black_box(spec.active_count())
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

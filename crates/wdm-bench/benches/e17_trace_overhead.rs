//! E17 — tracing overhead: the masked provisioning hot path with no
//! flight recorder attached vs recording every request.
//!
//! Same steady-state churn cycle and instance as `e14_obs_overhead`, so
//! the two observability taxes are directly comparable. The detached
//! engine pays exactly one branch per hook site (`Option<TraceWriter>`
//! is `None`); the acceptance bar is that the detached series stays
//! within noise (< 5%) of the PR 7 engine, and the attached series
//! bounds the full recording cost (two clock reads plus one seqlock
//! slot write per span).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_bench::sparse_instance;
use wdm_graph::NodeId;
use wdm_obs::trace::FlightRecorder;
use wdm_rwa::{Policy, ProvisioningEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_trace_overhead");
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
    // One segment: the bench drives the engine from a single thread.
    // 64 Ki records keeps the ring from wrapping inside one iteration,
    // so every span really is written (no drop-path shortcut).
    let recorder = FlightRecorder::new(1, 1 << 16);
    for (label, traced) in [("detached", false), ("recording", true)] {
        let mut engine = ProvisioningEngine::new(&base);
        if traced {
            engine.attach_tracer(&recorder);
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

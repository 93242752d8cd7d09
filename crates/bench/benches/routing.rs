//! Routing micro-benchmark: cost of one route computation per topology
//! family.

use criterion::{criterion_group, criterion_main, Criterion};
use exaflow::prelude::*;
use exaflow::topo::ConnectionRule;
use std::hint::black_box;

fn route_each_family(c: &mut Criterion) {
    let torus = Torus::new(&[16, 16, 8]);
    let tree = KAryTree::new(13, 3);
    let ghc = GeneralizedHypercube::new(&[8, 8, 4], 8);
    let nest = Nested::new(UpperTierKind::Fattree, 256, 2, ConnectionRule::HalfNodes);
    let topos: Vec<(&str, &dyn Topology)> = vec![
        ("torus", &torus),
        ("fattree", &tree),
        ("ghc", &ghc),
        ("nest_tree", &nest),
    ];
    let mut group = c.benchmark_group("route");
    for (name, topo) in topos {
        let n = topo.num_endpoints() as u32;
        let mut path = Vec::with_capacity(64);
        let mut i = 0u32;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = i.wrapping_mul(1664525).wrapping_add(1013904223);
                let s = i % n;
                let d = (i >> 16) % n;
                path.clear();
                topo.route(NodeId(s), NodeId(d), &mut path);
                black_box(path.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = route_each_family
);
criterion_main!(benches);

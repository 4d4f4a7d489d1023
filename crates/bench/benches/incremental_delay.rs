//! Criterion micro-bench: incremental delay maintenance versus full
//! recompute — the per-event cost that makes the online runtime viable.
//!
//! `drift/incremental` repairs the affected shortest-path trees in place
//! after a single link-latency change (on a clone of a built maintainer;
//! the clone is inside the timed loop); `drift/full` instead builds a
//! fresh maintainer (every tree from scratch) on the drifted topology;
//! `fail_recover` measures a server-failure + recovery round trip
//! through the incremental path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use tacc_runtime::DelayMaintainer;
use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
use tacc_topology::{DelayModel, LinkId, Topology};

fn topology(num_iot: usize, num_servers: usize, routers: usize) -> Topology {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    RandomGeometric::builder()
        .num_iot(num_iot)
        .num_servers(num_servers)
        .num_routers(routers)
        .build()
        .expect("config")
        .generate(&mut rng)
        .expect("generate")
}

/// `topology` with a mid-range link drifted to 1.5× its latency, and
/// that link.
fn drifted(topology: &Topology) -> (Topology, LinkId) {
    let mut topo = topology.clone();
    let link: LinkId = topo.graph().link_id(topo.graph().link_count() / 2);
    let base = topo.graph().link(link).latency_ms();
    topo.set_link_latency(link, base * 1.5).expect("valid latency");
    (topo, link)
}

fn bench_drift(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift");
    for &(n, m, r) in &[(100usize, 10usize, 16usize), (400, 20, 32)] {
        let topo = topology(n, m, r);
        let (after, link) = drifted(&topo);
        let maintainer = DelayMaintainer::new(&topo, DelayModel::default());
        group.bench_with_input(BenchmarkId::new("incremental", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| {
                let mut repaired = maintainer.clone();
                black_box(repaired.drift(&after, link))
            })
        });
        group.bench_with_input(BenchmarkId::new("full", format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| black_box(DelayMaintainer::new(&after, DelayModel::default())));
        });
    }
    group.finish();
}

fn bench_fail_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("fail_recover");
    for &(n, m, r) in &[(100usize, 10usize, 16usize), (400, 20, 32)] {
        let topo = topology(n, m, r);
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default());
        group.bench_with_input(BenchmarkId::from_parameter(format!("{n}x{m}")), &n, |b, _| {
            b.iter(|| {
                black_box(maintainer.fail_server(&topo, 0));
                black_box(maintainer.recover_server(&topo, 0));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_drift, bench_fail_recover);
criterion_main!(benches);

//! Helpers shared by the kernel property tests.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tacc_topology::generators::{
    BarabasiAlbert, ErdosRenyi, FatTree, Grid, HierarchicalTree, RandomGeometric, TopologyGenerator,
};
use tacc_topology::incremental::SsspTree;
use tacc_topology::{DelayModel, NodeId, Topology};

/// One topology per generator family, seeded; small enough that a
/// property runs hundreds of cases in test time.
pub fn family_topology(family: usize, seed: u64, n: usize, m: usize) -> Topology {
    let rng = &mut ChaCha8Rng::seed_from_u64(seed);
    match family {
        0 => RandomGeometric::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(8)
            .build()
            .unwrap()
            .generate(rng),
        1 => ErdosRenyi::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(8)
            .build()
            .unwrap()
            .generate(rng),
        2 => BarabasiAlbert::builder()
            .num_iot(n)
            .num_servers(m)
            .num_routers(8)
            .build()
            .unwrap()
            .generate(rng),
        3 => HierarchicalTree::builder().num_iot(n).num_servers(m).build().unwrap().generate(rng),
        4 => Grid::builder().num_iot(n).num_servers(m).build().unwrap().generate(rng),
        5 => FatTree::builder().num_iot(n).num_servers(m).build().unwrap().generate(rng),
        other => panic!("unknown family index {other}"),
    }
    .expect("generated topologies are valid")
}

/// The reference distances from `source` under `model`: a fresh
/// adjacency-list [`SsspTree::build`], the one kernel every faster one
/// must match bit for bit.
pub fn reference_distances(topo: &Topology, model: &DelayModel, source: NodeId) -> Vec<f64> {
    let costs: Vec<f64> = topo.graph().links().map(|(_, l)| model.link_delay_ms(l)).collect();
    SsspTree::build(topo.graph(), source, &costs).0.distances().to_vec()
}

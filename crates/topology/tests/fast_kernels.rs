//! Property tests for the fast-path kernels: the bucket-queue SSSP, the
//! leaf-compressed core, and the ALT delay oracle. All three carry a
//! **bit-for-bit** contract against the heap Dijkstra reference — not a
//! tolerance — across every topology-generator family, because they are
//! drop-in replacements on paths whose outputs are pinned byte-identical
//! (delay matrices, obs streams, snapshots).

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tacc_topology::csr::{CsrGraph, SsspScratch};
use tacc_topology::generators::{
    BarabasiAlbert, ErdosRenyi, FatTree, Grid, HierarchicalTree, RandomGeometric, TopologyGenerator,
};
use tacc_topology::{AltOracle, CompressedCore, DelayModel, DelayOracle, Topology};

/// One topology per generator family, seeded; mirrors the helper in
/// `par_equivalence.rs`.
fn family_topology(family: usize, seed: u64, n: usize, m: usize) -> Topology {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bucket-queue kernel settles every node to exactly the
    /// distance the heap kernel computes, from every node of every
    /// family — including router/device sources the production sweeps
    /// never use.
    #[test]
    fn bucket_sssp_is_bitwise_heap_dijkstra(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let csr = CsrGraph::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        prop_assert_eq!(csr.kernel_name(), "bucket", "family={} has positive costs", family);
        let mut heap_scratch = SsspScratch::new();
        let mut bucket_scratch = SsspScratch::new();
        for (source, _) in topo.graph().nodes() {
            let v = source.index();
            let reference = csr.sssp_heap_into(source, &mut heap_scratch).to_vec();
            let dist = csr.sssp_into(source, &mut bucket_scratch);
            for (node, (&d, &r)) in dist.iter().zip(&reference).enumerate() {
                prop_assert!(
                    d.to_bits() == r.to_bits(),
                    "family={family} source={v} node={node}: bucket={d} heap={r}"
                );
            }
        }
    }

    /// Leaf compression reconstitutes every original-node distance
    /// bit-for-bit, from every server, for every family.
    #[test]
    fn compressed_core_distances_are_bitwise_full_graph(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let core = CompressedCore::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        let full = CsrGraph::from_graph(topo.graph(), |l| model.link_delay_ms(l));
        let mut full_scratch = SsspScratch::new();
        let mut core_scratch = SsspScratch::new();
        for &server in topo.server_nodes() {
            let reference = full.sssp_heap_into(server, &mut full_scratch).to_vec();
            let dist = core.sssp_into(server, &mut core_scratch).to_vec();
            for (node, _) in topo.graph().nodes() {
                let v = node.index();
                let got = core.distance(&dist, node);
                prop_assert!(
                    got.to_bits() == reference[v].to_bits(),
                    "family={family} source={:?} node={v}: compressed={got} full={}",
                    server, reference[v]
                );
            }
        }
    }

    /// The ALT oracle's lower bound never exceeds the exact delay, and
    /// lazy refinement converges to the materialized matrix bit for
    /// bit, for every family.
    #[test]
    fn alt_oracle_bounds_are_admissible_and_refine_to_the_matrix(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
        landmarks in 1usize..6,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let matrix = topo.delay_matrix(&model);
        let oracle = AltOracle::new(&topo, &model, landmarks);
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                let bound = oracle.delay_bound(i, j);
                prop_assert!(
                    bound <= matrix.get(i, j),
                    "family={family} ({i},{j}): bound {bound} exceeds exact {}",
                    matrix.get(i, j)
                );
            }
        }
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                let exact = oracle.delay(i, j);
                prop_assert!(
                    exact.to_bits() == matrix.get(i, j).to_bits(),
                    "family={family} ({i},{j}): refined {exact} vs matrix {}",
                    matrix.get(i, j)
                );
                // Once refined, the bound *is* the exact delay.
                prop_assert!(oracle.delay_bound(i, j).to_bits() == exact.to_bits());
            }
        }
        prop_assert_eq!(oracle.refined_columns(), matrix.num_servers());
    }
}

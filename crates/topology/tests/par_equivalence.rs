//! Property tests: the parallel hot paths are **bit-for-bit** identical
//! to their serial references — across every topology-generator family,
//! at every worker count (1, a few, and heavily oversubscribed).
//!
//! This is the determinism contract of the `tacc-par` layer: every
//! per-server column equals the adjacency-list `SsspTree::build`
//! reference, and results merge by input index, so `f64::to_bits`
//! equality must hold exactly — not within a tolerance.

mod common;

use proptest::prelude::*;

use common::{family_topology, reference_distances};
use tacc_topology::routing::RoutingTable;
use tacc_topology::DelayModel;

/// 1 = forced serial, 2/5 = modest pools, 17 = more workers than
/// servers (oversubscribed: most workers see an empty chunk).
const THREADS: [usize; 4] = [1, 2, 5, 17];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `delay_matrix` fanned out over any worker count equals the
    /// serial reference trees (one `SsspTree::build` per server) bit for
    /// bit, for every family.
    #[test]
    fn parallel_delay_matrix_is_bitwise_serial(
        family in 0usize..6,
        seed in 0u64..500,
        n in 4usize..16,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let columns: Vec<Vec<f64>> = topo
            .server_nodes()
            .iter()
            .map(|&server| reference_distances(&topo, &model, server))
            .collect();
        // The default entry point (worker count from the environment)
        // lands on the same matrix too.
        let lanes = THREADS
            .iter()
            .map(|&threads| (threads.to_string(), topo.delay_matrix_with_threads(&model, threads)))
            .chain([("default".to_owned(), topo.delay_matrix(&model))]);
        for (threads, par) in lanes {
            for (i, iot) in topo.iot_nodes().iter().enumerate() {
                for (j, column) in columns.iter().enumerate() {
                    prop_assert!(
                        par.get(i, j).to_bits() == column[iot.index()].to_bits(),
                        "family={family} threads={threads} ({i},{j}): {} vs reference {}",
                        par.get(i, j),
                        column[iot.index()]
                    );
                }
            }
        }
    }

    /// Routing tables (paths, not just distances) are invariant in the
    /// worker count, for every family.
    #[test]
    fn routing_table_is_worker_count_invariant(
        family in 0usize..6,
        seed in 0u64..200,
        n in 4usize..12,
        m in 2usize..5,
    ) {
        let topo = family_topology(family, seed, n, m);
        let model = DelayModel::default();
        let reference = RoutingTable::compute_with_threads(&topo, &model, 1);
        for threads in THREADS {
            let table = RoutingTable::compute_with_threads(&topo, &model, threads);
            for i in 0..topo.num_iot() {
                for j in 0..topo.num_servers() {
                    prop_assert_eq!(
                        table.route(&topo, i, j),
                        reference.route(&topo, i, j),
                        "family={} threads={} ({},{})", family, threads, i, j
                    );
                }
            }
        }
    }
}

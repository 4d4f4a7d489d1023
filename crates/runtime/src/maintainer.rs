//! Incremental maintenance of the IoT × server delay matrix.
//!
//! [`DelayMaintainer`] owns one [`SsspTree`] per edge server plus the
//! effective per-link cost array, and repairs both in place as link
//! latencies drift and servers fail or recover. Only the parts of the
//! shortest-path trees a change actually affects are re-relaxed (debug
//! builds — and release builds running under `TACC_CHECK=1`, see
//! [`crate::check`] — assert agreement with a from-scratch
//! [`SsspTree::build`] after every repair). The work of one full rebuild
//! of every tree, measured at construction, is the baseline the repairs
//! are reported against.
//!
//! Server failure is modeled as *node* failure (matching
//! [`tacc_topology::Topology::with_failed_node`]): every link incident to
//! the failed server's node gets an infinite cost, which simultaneously
//! blanks the server's own column and reroutes any other server's paths
//! that ran through it. Links are reference-counted so two failed
//! endpoints must both recover before the link carries traffic again.
//!
//! Snapshots carry a [`MaintainerState`]: what cannot be recomputed.
//! [`DelayMaintainer::from_state`] re-derives the link costs, the disable
//! counts, the tree distances and the matrix from it and the topology,
//! bit for bit.

use serde::{Deserialize, Serialize};
use tacc_topology::incremental::{SsspTree, UpdateStats};
use tacc_topology::{DelayMatrix, DelayModel, DelayOracle, LinkId, Topology};

use crate::RuntimeError;

/// Maintains per-server shortest-path trees and the delay matrix across
/// topology changes. [`DelayMaintainer::state`] and
/// [`DelayMaintainer::from_state`] round-trip it field for field, so
/// resumed runs repair the exact same tree structures.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayMaintainer {
    model: DelayModel,
    /// Per-link count of failed endpoints (0, 1 or 2); the effective cost
    /// is infinite while non-zero.
    disabled: Vec<u32>,
    /// Effective costs: each link's cost under `model` at its current
    /// latency, or infinity while disabled.
    costs: Vec<f64>,
    /// One tree per server, in role order.
    trees: Vec<SsspTree>,
    matrix: DelayMatrix,
    failed: Vec<bool>,
    /// Work of one full rebuild of all trees (measured at construction) —
    /// the baseline that incremental savings are reported against.
    baseline: UpdateStats,
}

/// The stored part of a [`DelayMaintainer`]: what the topology and the
/// delay model cannot regenerate. [`DelayMaintainer::from_state`]
/// re-derives everything else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaintainerState {
    /// One tree per server, in role order: each node's tree-parent link
    /// (`None` for the server's own node and unreachable nodes). The
    /// parent links are state, not cache: the tie-broken shape decides
    /// which subtree a later repair invalidates, and with it the repair
    /// metrics.
    pub trees: Vec<Vec<Option<LinkId>>>,
    /// Which servers are failed.
    pub failed: Vec<bool>,
    /// Work of one full rebuild of all trees, measured at construction.
    pub baseline: UpdateStats,
}

impl DelayMaintainer {
    /// Builds the trees and matrix for a healthy topology: one
    /// [`SsspTree::build`] per edge server.
    pub fn new(topology: &Topology, model: DelayModel) -> Self {
        let graph = topology.graph();
        let costs: Vec<f64> = graph.links().map(|(_, link)| model.link_delay_ms(link)).collect();
        let mut baseline = UpdateStats::default();
        let trees: Vec<SsspTree> = topology
            .server_nodes()
            .iter()
            .map(|&server| {
                let (tree, stats) = SsspTree::build(graph, server, &costs);
                baseline.absorb(stats);
                tree
            })
            .collect();
        let matrix = matrix_from_trees(&trees, topology);
        DelayMaintainer {
            model,
            disabled: vec![0; graph.link_count()],
            costs,
            trees,
            matrix,
            failed: vec![false; topology.num_servers()],
            baseline,
        }
    }

    /// The stored part of the maintainer, for snapshots.
    pub fn state(&self) -> MaintainerState {
        MaintainerState {
            trees: self.trees.iter().map(|tree| tree.parent_links().to_vec()).collect(),
            failed: self.failed.clone(),
            baseline: self.baseline,
        }
    }

    /// Rebuilds a maintainer from its stored state over `topology` and
    /// `model`: the disable counts from the failed servers, the effective
    /// costs from the model at each link's current latency, each tree's
    /// distances from its parent links ([`SsspTree::from_parent_links`],
    /// checked against a fresh [`SsspTree::build`]), and the matrix from
    /// the trees. The result equals the maintainer the state was taken
    /// from.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSnapshot`] when a length disagrees
    /// with `topology` or a tree's parent links do not form that server's
    /// shortest-path tree.
    pub fn from_state(
        topology: &Topology,
        model: &DelayModel,
        state: MaintainerState,
    ) -> Result<Self, RuntimeError> {
        let invalid = |reason: String| RuntimeError::InvalidSnapshot { reason };
        let graph = topology.graph();
        let servers = topology.num_servers();
        for (what, found) in [("failed", state.failed.len()), ("trees", state.trees.len())] {
            if found != servers {
                return Err(invalid(format!(
                    "maintainer {what} has {found} entries, expected {servers}"
                )));
            }
        }
        let mut disabled = vec![0u32; graph.link_count()];
        for (server, _) in state.failed.iter().enumerate().filter(|(_, &failed)| failed) {
            for nb in graph.neighbors(topology.server_nodes()[server]) {
                disabled[nb.link.index()] += 1;
            }
        }
        let costs: Vec<f64> = graph
            .links()
            .zip(&disabled)
            .map(|((_, link), &n)| if n > 0 { f64::INFINITY } else { model.link_delay_ms(link) })
            .collect();
        let mut trees = Vec::with_capacity(servers);
        for (server, parent_link) in state.trees.into_iter().enumerate() {
            let node = topology.server_nodes()[server];
            let tree = SsspTree::from_parent_links(graph, node, parent_link, &costs)
                .map_err(|e| invalid(format!("tree {server}: {e}")))?;
            trees.push(tree);
        }
        let matrix = matrix_from_trees(&trees, topology);
        Ok(DelayMaintainer {
            model: model.clone(),
            disabled,
            costs,
            trees,
            matrix,
            failed: state.failed,
            baseline: state.baseline,
        })
    }

    /// The maintained delay matrix.
    pub fn matrix(&self) -> &DelayMatrix {
        &self.matrix
    }

    /// The link-delay model the costs derive from.
    pub fn model(&self) -> &DelayModel {
        &self.model
    }

    /// Whether server `server` is currently failed.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn is_failed(&self, server: usize) -> bool {
        self.failed[server]
    }

    /// Number of currently alive servers.
    pub fn alive_count(&self) -> usize {
        self.failed.iter().filter(|&&f| !f).count()
    }

    /// The measured work of one from-scratch rebuild of every tree — what
    /// each change would cost without incremental repair.
    pub fn full_rebuild_baseline(&self) -> UpdateStats {
        self.baseline
    }

    /// The effective per-link costs the trees currently run on (drifted
    /// latencies, failed links at `∞`). This is the cost array a
    /// [`tacc_topology::CompressedCore`] — and the zone layout on top
    /// of it — takes to see exactly the delays this maintainer serves.
    pub fn link_costs(&self) -> &[f64] {
        &self.costs
    }

    /// Applies a latency drift that the caller has already written into
    /// `topology` (via [`Topology::set_link_latency`]). Returns the repair
    /// work performed.
    ///
    /// # Panics
    ///
    /// Panics if `link` does not belong to the topology the maintainer
    /// was built from.
    pub fn drift(&mut self, topology: &Topology, link: LinkId) -> UpdateStats {
        if self.disabled[link.index()] > 0 {
            // The link is failed: its effective cost stays infinite, so no
            // tree can change. The new latency takes effect on recovery.
            return UpdateStats::default();
        }
        let old = self.costs[link.index()];
        self.costs[link.index()] = self.model.link_delay_ms(topology.graph().link(link));
        let stats = self.repair(topology, link, old);
        self.matrix = matrix_from_trees(&self.trees, topology);
        stats
    }

    /// Fails a server: all links incident to its node become infinite.
    /// Idempotence is the caller's concern ([`DelayMaintainer::is_failed`]).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or already failed.
    pub fn fail_server(&mut self, topology: &Topology, server: usize) -> UpdateStats {
        assert!(!self.failed[server], "server {server} is already failed");
        self.failed[server] = true;
        let stats = self.set_incident_links(topology, server, true);
        self.matrix = matrix_from_trees(&self.trees, topology);
        stats
    }

    /// Recovers a failed server: incident links whose other endpoint is
    /// alive return to their cost at the link's current latency.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or not failed.
    pub fn recover_server(&mut self, topology: &Topology, server: usize) -> UpdateStats {
        assert!(self.failed[server], "server {server} is not failed");
        self.failed[server] = false;
        let stats = self.set_incident_links(topology, server, false);
        self.matrix = matrix_from_trees(&self.trees, topology);
        stats
    }

    /// Disables (`disable = true`) or re-enables the links incident to a
    /// server's node, repairing every tree per changed link.
    // Exact float equality is deliberate: an unchanged cost (bitwise)
    // needs no repair, and any numeric change does.
    #[allow(clippy::float_cmp)]
    fn set_incident_links(
        &mut self,
        topology: &Topology,
        server: usize,
        disable: bool,
    ) -> UpdateStats {
        let node = topology.server_nodes()[server];
        let incident: Vec<LinkId> =
            topology.graph().neighbors(node).iter().map(|n| n.link).collect();
        let mut total = UpdateStats::default();
        for link in incident {
            let idx = link.index();
            let old = self.costs[idx];
            if disable {
                self.disabled[idx] += 1;
                self.costs[idx] = f64::INFINITY;
            } else {
                self.disabled[idx] -= 1;
                if self.disabled[idx] > 0 {
                    continue; // other endpoint still failed
                }
                self.costs[idx] = self.model.link_delay_ms(topology.graph().link(link));
            }
            if self.costs[idx] != old {
                total.absorb(self.repair(topology, link, old));
            }
        }
        total
    }

    /// Repairs every tree after `costs[link]` changed from `old_cost`.
    fn repair(&mut self, topology: &Topology, link: LinkId, old_cost: f64) -> UpdateStats {
        let graph = topology.graph();
        let mut total = UpdateStats::default();
        for tree in &mut self.trees {
            total.absorb(tree.apply_cost_change(graph, &self.costs, link, old_cost));
            // The full-recompute oracle: always in debug builds, and in
            // release builds when TACC_CHECK=1 — so an incremental-repair
            // drift bug cannot hide behind `--release` (see
            // `crate::check`).
            if cfg!(debug_assertions) || crate::check::enabled() {
                assert!(
                    tree.matches_full(graph, &self.costs),
                    "incremental repair diverged from full Dijkstra for server at {:?}",
                    tree.source()
                );
            }
        }
        total
    }

    /// Correctness oracle: the maintained matrix must equal the one
    /// derived from scratch on the equivalent degraded topology (failed
    /// servers' nodes disconnected), bit for bit. Used by tests and debug
    /// assertions.
    pub fn matches_full_recompute(&self, topology: &Topology) -> bool {
        let mut degraded = topology.clone();
        for (server, &failed) in self.failed.iter().enumerate() {
            if failed {
                degraded = degraded.with_failed_node(topology.server_nodes()[server]);
            }
        }
        // with_failed_node reassigns link ids, so compare matrices (the
        // externally visible product), not trees.
        self.matrix == degraded.delay_matrix(&self.model)
    }
}

/// The maintainer answers delay queries straight from its per-server
/// shortest-path trees — the same values as [`DelayMaintainer::matrix`]
/// (the matrix *is* read out of the trees after every event), but
/// available per entry without touching the materialized matrix. Online
/// paths that only need a sliver of the matrix (one event's device, one
/// query's sub-instance) go through this impl.
impl DelayOracle for DelayMaintainer {
    fn num_iot(&self) -> usize {
        self.matrix.num_iot()
    }

    fn num_servers(&self) -> usize {
        self.matrix.num_servers()
    }

    fn delay(&self, iot: usize, server: usize) -> f64 {
        self.trees[server].distance(self.matrix.iot_node(iot))
    }

    fn materialize(&self) -> DelayMatrix {
        self.matrix.clone()
    }
}

/// Reads the matrix out of the trees. Columns of failed servers come out
/// infinite because all their incident links do.
fn matrix_from_trees(trees: &[SsspTree], topology: &Topology) -> DelayMatrix {
    let rows: Vec<Vec<f64>> = topology
        .iot_nodes()
        .iter()
        .map(|&iot| trees.iter().map(|tree| tree.distance(iot)).collect())
        .collect();
    DelayMatrix::from_rows_with_nodes(
        rows,
        topology.iot_nodes().to_vec(),
        topology.server_nodes().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{ScenarioBuilder, TopologyFamily};

    fn topology() -> Topology {
        ScenarioBuilder::new()
            .num_iot(20)
            .num_servers(4)
            .family(TopologyFamily::RandomGeometric)
            .build(11)
            .unwrap()
            .topology()
            .clone()
    }

    #[test]
    fn initial_matrix_matches_topology_derivation() {
        let topo = topology();
        let model = DelayModel::default();
        let maintainer = DelayMaintainer::new(&topo, model.clone());
        assert_eq!(maintainer.matrix(), &topo.delay_matrix(&model));
    }

    #[test]
    fn drift_tracks_full_recompute() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone());
        for (step, raw) in [(0usize, 9.0f64), (3, 0.1), (7, 4.5), (3, 2.0)] {
            let link = topo.graph().link_id(step % topo.graph().link_count());
            topo.set_link_latency(link, raw).unwrap();
            maintainer.drift(&topo, link);
            assert_eq!(maintainer.matrix(), &topo.delay_matrix(&model), "after drift to {raw}");
        }
    }

    #[test]
    fn fail_and_recover_round_trip() {
        let topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone());
        let before = maintainer.matrix().clone();

        maintainer.fail_server(&topo, 1);
        assert!(maintainer.is_failed(1));
        assert_eq!(maintainer.alive_count(), 3);
        // The failed column is unreachable for every device.
        for i in 0..before.num_iot() {
            assert!(maintainer.matrix().get(i, 1).is_infinite());
        }
        assert!(maintainer.matches_full_recompute(&topo));

        maintainer.recover_server(&topo, 1);
        assert_eq!(maintainer.matrix(), &before, "recovery restores the original matrix");
    }

    #[test]
    fn overlapping_failures_reference_count_links() {
        let topo = topology();
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default());
        let before = maintainer.matrix().clone();
        maintainer.fail_server(&topo, 0);
        maintainer.fail_server(&topo, 2);
        assert!(maintainer.matches_full_recompute(&topo));
        maintainer.recover_server(&topo, 0);
        assert!(maintainer.matches_full_recompute(&topo));
        maintainer.recover_server(&topo, 2);
        assert_eq!(maintainer.matrix(), &before);
    }

    #[test]
    fn drift_on_failed_link_applies_after_recovery() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model.clone());
        let node = topo.server_nodes()[2];
        let link = topo.graph().neighbors(node)[0].link;

        maintainer.fail_server(&topo, 2);
        topo.set_link_latency(link, 50.0).unwrap();
        let stats = maintainer.drift(&topo, link);
        assert_eq!(stats, UpdateStats::default(), "failed link drift does no tree work");

        maintainer.recover_server(&topo, 2);
        assert_eq!(maintainer.matrix(), &topo.delay_matrix(&model));
    }

    #[test]
    fn incremental_drift_settles_no_more_than_a_full_rebuild() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut inc = DelayMaintainer::new(&topo, model.clone());
        let baseline = inc.full_rebuild_baseline();
        let link_count = topo.graph().link_count();
        for step in 0..6 {
            let link = topo.graph().link_id(step * 3 % link_count);
            topo.set_link_latency(link, 1.0 + step as f64).unwrap();
            let stats = inc.drift(&topo, link);
            assert_eq!(inc.matrix(), &topo.delay_matrix(&model));
            assert!(
                stats.settled <= baseline.settled,
                "incremental repair must not settle more than a rebuild"
            );
        }
    }

    #[test]
    fn oracle_answers_match_the_maintained_matrix_bit_for_bit() {
        let mut topo = topology();
        let model = DelayModel::default();
        let mut maintainer = DelayMaintainer::new(&topo, model);
        let link = topo.graph().link_id(1);
        topo.set_link_latency(link, 3.75).unwrap();
        maintainer.drift(&topo, link);
        maintainer.fail_server(&topo, 2);
        let matrix = maintainer.matrix();
        assert_eq!(DelayOracle::num_iot(&maintainer), matrix.num_iot());
        assert_eq!(DelayOracle::num_servers(&maintainer), matrix.num_servers());
        for i in 0..matrix.num_iot() {
            for j in 0..matrix.num_servers() {
                assert_eq!(
                    DelayOracle::delay(&maintainer, i, j).to_bits(),
                    matrix.get(i, j).to_bits(),
                    "entry ({i}, {j})"
                );
            }
        }
        assert_eq!(&DelayOracle::materialize(&maintainer), matrix);
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut topo = topology();
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default());
        let link = topo.graph().link_id(2);
        topo.set_link_latency(link, 7.25).unwrap();
        maintainer.drift(&topo, link);
        maintainer.fail_server(&topo, 3);

        let json = serde_json::to_string(&maintainer.state()).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        let state: MaintainerState = serde_json::from_value(&value).unwrap();
        let back = DelayMaintainer::from_state(&topo, &DelayModel::default(), state).unwrap();
        assert_eq!(maintainer, back);
        for (a, b) in maintainer.trees.iter().zip(&back.trees) {
            let bits = |t: &SsspTree| t.distances().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn malformed_state_is_a_typed_error() {
        let topo = topology();
        let mut maintainer = DelayMaintainer::new(&topo, DelayModel::default());
        maintainer.fail_server(&topo, 1);
        let reject = |edit: &dyn Fn(&mut MaintainerState)| {
            let mut state = maintainer.state();
            edit(&mut state);
            match DelayMaintainer::from_state(&topo, &DelayModel::default(), state) {
                Err(RuntimeError::InvalidSnapshot { reason }) => reason,
                other => panic!("expected InvalidSnapshot, got {other:?}"),
            }
        };
        // Short `failed` and `trees` are covered through `Runtime::restore`
        // in tests/adversarial.rs.
        assert!(reject(&|s| s.failed.push(false)).contains("failed has 5 entries"));
        assert!(reject(&|s| s.trees.swap(0, 2)).contains("tree 0: invalid"));
        assert!(reject(&|s| {
            s.trees[0].pop();
        })
        .contains("tree 0: invalid"));
    }
}

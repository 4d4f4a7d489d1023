//! Leaf compression: shrink the SSSP workload to the topology's *core*.
//!
//! In every generator family most IoT devices are degree-1 leaves — a
//! single access link to a gateway router. A shortest-path sweep from a
//! server spends almost all of its work expanding those leaves, yet each
//! leaf's distance is fully determined by its gateway:
//!
//! ```text
//! d(s, leaf) = d(s, gateway) ⊕ c_access      (⊕ = f64 addition)
//! ```
//!
//! [`CompressedCore`] drops the prunable leaves from the CSR snapshot,
//! runs SSSP on the remaining core (servers + routers + non-leaf
//! devices), and reconstitutes leaf distances with exactly that one
//! addition. The result is **bit-for-bit identical** to the full-graph
//! kernel:
//!
//! - a degree-1 leaf's only in-edge is its access link, so the fixpoint
//!   assigns it `d(gateway) ⊕ c` — the same addition, on the same final
//!   `f64` values, in the same order the full kernel performs it;
//! - no shortest path to a *core* node passes through a leaf: a detour
//!   `gateway → leaf → gateway` costs `(d ⊕ c) ⊕ c ≥ d` (`c ≥ 0` and
//!   `f64` addition is monotone), and strict-improvement relaxation
//!   discards non-improving paths — so deleting leaves changes no core
//!   distance, not even at the last bit.
//!
//! On the benchmark topologies (e.g. 1600 devices on ~100 routers and
//! servers) the core is ~17× smaller than the full graph, which is where
//! the delay-matrix construction speedup comes from; the bucket-queue
//! kernel then runs on the core snapshot.

use crate::csr::{CsrGraph, SsspScratch};
use crate::{Graph, NodeId, NodeKind};

/// A leaf-compressed CSR snapshot of a [`Graph`] under one per-link
/// cost array; see the module docs for the bit-identity argument.
#[derive(Debug, Clone)]
pub struct CompressedCore {
    /// CSR over the kept nodes only, targets renumbered to core indices.
    core: CsrGraph,
    /// Old node index → core index; `u32::MAX` marks a pruned leaf.
    core_of: Vec<u32>,
    /// Old core index → old node id, in core order.
    node_of: Vec<u32>,
    /// For each pruned leaf: `(gateway old-node index, access cost)`.
    /// Entries for kept nodes are `(u32::MAX, ∞)` and never read.
    leaf: Vec<(u32, f64)>,
    pruned: usize,
}

const PRUNED: u32 = u32::MAX;

impl CompressedCore {
    /// Builds the core under a link-cost closure (evaluated once per
    /// link, like [`CsrGraph::from_graph`]).
    pub fn from_graph(graph: &Graph, link_cost: impl Fn(&crate::Link) -> f64) -> Self {
        let costs: Vec<f64> = graph.links().map(|(_, link)| link_cost(link)).collect();
        Self::from_link_costs(graph, &costs)
    }

    /// Builds the core from an explicit per-link cost array (the form
    /// the online runtime maintains, `∞` = failed link).
    ///
    /// # Panics
    ///
    /// Panics if `costs` is not one entry per link, or (in debug
    /// builds) if a cost is NaN or negative.
    pub fn from_link_costs(graph: &Graph, costs: &[f64]) -> Self {
        assert_eq!(costs.len(), graph.link_count(), "one cost per link");
        let n = graph.node_count();
        // A node is prunable iff it is a degree-1 IoT device whose single
        // neighbor is kept. Two degree-1 devices linked to each other
        // keep each other (neither has a core gateway to hang off).
        let prunable = |id: NodeId| {
            graph.node(id).kind() == NodeKind::IotDevice && graph.degree(id) == 1 && {
                let nb = graph.neighbors(id)[0].node;
                !(graph.node(nb).kind() == NodeKind::IotDevice && graph.degree(nb) == 1)
            }
        };
        let mut core_of = vec![PRUNED; n];
        let mut node_of = Vec::new();
        let mut leaf = vec![(PRUNED, f64::INFINITY); n];
        let mut pruned = 0usize;
        for v in 0..n {
            let id = NodeId(v as u32);
            if prunable(id) {
                let nb = graph.neighbors(id)[0];
                let c = costs[nb.link.index()];
                debug_assert!(!c.is_nan() && c >= 0.0, "link cost must be non-negative, got {c}");
                leaf[v] = (nb.node.0, c);
                pruned += 1;
            } else {
                core_of[v] = node_of.len() as u32;
                node_of.push(v as u32);
            }
        }
        // CSR over the kept nodes, preserving adjacency order; edges to
        // pruned leaves are dropped (a leaf's only link is its access
        // link, so these are exactly the gateway→leaf halves).
        let mut offsets = Vec::with_capacity(node_of.len() + 1);
        let mut targets = Vec::new();
        let mut edge_costs = Vec::new();
        let mut links = Vec::new();
        offsets.push(0u32);
        for &old in &node_of {
            for nb in graph.neighbors(NodeId(old)) {
                let t = core_of[nb.node.index()];
                if t == PRUNED {
                    continue;
                }
                let c = costs[nb.link.index()];
                debug_assert!(!c.is_nan() && c >= 0.0, "link cost must be non-negative, got {c}");
                targets.push(t);
                edge_costs.push(c);
                links.push(nb.link.0);
            }
            offsets.push(targets.len() as u32);
        }
        let core = CsrGraph::from_raw_parts(offsets, targets, edge_costs, links);
        CompressedCore { core, core_of, node_of, leaf, pruned }
    }

    /// The CSR snapshot of the kept nodes.
    pub fn core(&self) -> &CsrGraph {
        &self.core
    }

    /// Number of pruned leaves.
    pub fn pruned_count(&self) -> usize {
        self.pruned
    }

    /// Number of kept (core) nodes.
    pub fn core_count(&self) -> usize {
        self.node_of.len()
    }

    /// The core index of an original node, or `None` if it was pruned.
    pub fn core_index(&self, node: NodeId) -> Option<usize> {
        match self.core_of[node.index()] {
            PRUNED => None,
            idx => Some(idx as usize),
        }
    }

    /// The original node id of a core index.
    pub fn original_node(&self, core_index: usize) -> NodeId {
        NodeId(self.node_of[core_index])
    }

    /// For a pruned leaf, its `(gateway, access-cost)` pair.
    pub fn gateway_of(&self, node: NodeId) -> Option<(NodeId, f64)> {
        if self.core_of[node.index()] == PRUNED {
            let (g, c) = self.leaf[node.index()];
            Some((NodeId(g), c))
        } else {
            None
        }
    }

    /// Runs SSSP on the core from an original (kept) node, borrowing
    /// the distances from `scratch`. Query original-node distances with
    /// [`CompressedCore::distance`].
    ///
    /// # Panics
    ///
    /// Panics if `source` was pruned (sources are servers or routers in
    /// every caller; only IoT leaves are ever pruned).
    pub fn sssp_into<'a>(&self, source: NodeId, scratch: &'a mut SsspScratch) -> &'a [f64] {
        let core_source = self.core_of[source.index()];
        assert!(core_source != PRUNED, "source {source} was pruned from the core");
        self.core.sssp_into(NodeId(core_source), scratch)
    }

    /// Distance of any *original* node given a core distance array from
    /// [`CompressedCore::sssp_into`]: a direct lookup for kept nodes,
    /// `d(gateway) ⊕ c_access` for pruned leaves — the exact addition
    /// the full-graph kernel would have performed.
    pub fn distance(&self, core_dist: &[f64], node: NodeId) -> f64 {
        match self.core_of[node.index()] {
            PRUNED => {
                let (g, c) = self.leaf[node.index()];
                core_dist[self.core_of[g as usize] as usize] + c
            }
            idx => core_dist[idx as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::SsspTree;

    /// Two servers, a router triangle, three leaf devices on distinct
    /// gateways, one multi-homed device (kept), and one isolated device
    /// (kept, unreachable).
    fn mixed_graph() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
        let mut g = Graph::new();
        let r: Vec<_> = (0..3).map(|_| g.add_node(NodeKind::Router)).collect();
        let s: Vec<_> = (0..2).map(|_| g.add_node(NodeKind::EdgeServer)).collect();
        let d: Vec<_> = (0..5).map(|_| g.add_node(NodeKind::IotDevice)).collect();
        g.add_link(r[0], r[1], 1.0, 100.0).unwrap();
        g.add_link(r[1], r[2], 2.0, 100.0).unwrap();
        g.add_link(r[0], r[2], 2.5, 100.0).unwrap();
        g.add_link(s[0], r[0], 0.5, 100.0).unwrap();
        g.add_link(s[1], r[2], 0.5, 100.0).unwrap();
        g.add_link(d[0], r[0], 0.25, 100.0).unwrap(); // leaf
        g.add_link(d[1], r[1], 0.0, 100.0).unwrap(); // zero-cost leaf
        g.add_link(d[2], r[2], 3.0, 100.0).unwrap(); // leaf
        g.add_link(d[3], r[0], 1.0, 100.0).unwrap(); // multi-homed, kept
        g.add_link(d[3], r[2], 1.0, 100.0).unwrap();
        // d[4] isolated: degree 0, kept, unreachable.
        (g, s, d)
    }

    #[test]
    fn prunes_exactly_the_degree_one_devices() {
        let (g, _, d) = mixed_graph();
        let core = CompressedCore::from_graph(&g, |l| l.latency_ms());
        assert_eq!(core.pruned_count(), 3);
        assert_eq!(core.core_count(), g.node_count() - 3);
        assert!(core.core_index(d[0]).is_none());
        assert!(core.core_index(d[3]).is_some());
        assert!(core.core_index(d[4]).is_some());
        let (gw, c) = core.gateway_of(d[0]).unwrap();
        assert_eq!(gw, g.neighbors(d[0])[0].node);
        assert_eq!(c, 0.25);
        assert!(core.gateway_of(d[3]).is_none());
    }

    #[test]
    fn distances_match_the_full_graph_reference_tree_bit_for_bit() {
        let (g, s, _) = mixed_graph();
        let core = CompressedCore::from_graph(&g, |l| l.latency_ms());
        let costs: Vec<f64> = g.links().map(|(_, l)| l.latency_ms()).collect();
        let mut scratch = SsspScratch::new();
        for &server in &s {
            let (reference, _) = SsspTree::build(&g, server, &costs);
            let dist = core.sssp_into(server, &mut scratch).to_vec();
            for v in 0..g.node_count() {
                let node = NodeId(v as u32);
                let got = core.distance(&dist, node);
                assert!(
                    got.to_bits() == reference.distance(node).to_bits(),
                    "source {server}, node {v}: compressed {got} vs full {}",
                    reference.distance(node)
                );
            }
        }
    }

    #[test]
    fn paired_leaf_devices_keep_each_other() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::IotDevice);
        let b = g.add_node(NodeKind::IotDevice);
        g.add_link(a, b, 1.0, 100.0).unwrap();
        let core = CompressedCore::from_graph(&g, |l| l.latency_ms());
        assert_eq!(core.pruned_count(), 0);
        assert!(core.core_index(a).is_some() && core.core_index(b).is_some());
    }

    #[test]
    fn disabled_access_links_stay_unreachable() {
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::EdgeServer);
        let r = g.add_node(NodeKind::Router);
        let d = g.add_node(NodeKind::IotDevice);
        g.add_link(s, r, 1.0, 100.0).unwrap();
        let access = g.add_link(r, d, 1.0, 100.0).unwrap();
        let mut costs = vec![1.0, 1.0];
        costs[access.index()] = f64::INFINITY;
        let core = CompressedCore::from_link_costs(&g, &costs);
        let mut scratch = SsspScratch::new();
        let dist = core.sssp_into(s, &mut scratch).to_vec();
        assert!(core.distance(&dist, d).is_infinite());
        assert_eq!(core.distance(&dist, r), 1.0);
    }

    #[test]
    #[should_panic(expected = "was pruned")]
    fn sssp_from_a_pruned_leaf_panics() {
        let (g, _, d) = mixed_graph();
        let core = CompressedCore::from_graph(&g, |l| l.latency_ms());
        let _ = core.sssp_into(d[0], &mut SsspScratch::new());
    }
}

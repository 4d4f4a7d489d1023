use serde::{Deserialize, Serialize};

use crate::TopologyError;

/// Identifier of a node inside a [`Graph`].
///
/// Node ids are dense indices assigned in insertion order, so they can be
/// used directly as `Vec` indices by downstream code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a link inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Returns the dense index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The role a node plays in the edge-computing deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A sensor/actuator that produces traffic and must be assigned to an
    /// edge server.
    IotDevice,
    /// A member of the edge cluster with finite service capacity.
    EdgeServer,
    /// A pure forwarding element (router, switch, gateway).
    Router,
}

impl NodeKind {
    /// Human-readable role name, used in error messages.
    pub fn role_name(self) -> &'static str {
        match self {
            NodeKind::IotDevice => "IoT device",
            NodeKind::EdgeServer => "edge server",
            NodeKind::Router => "router",
        }
    }
}

/// A 2-D position used by geometric topology generators.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate, in abstract distance units.
    pub x: f64,
    /// Vertical coordinate, in abstract distance units.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A node of the network graph.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Node {
    kind: NodeKind,
    position: Option<Point>,
}

impl Node {
    /// The role of this node.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Position of this node, if it was created by a geometric generator.
    pub fn position(&self) -> Option<Point> {
        self.position
    }
}

/// An undirected network link with a propagation latency and a bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Link {
    a: NodeId,
    b: NodeId,
    latency_ms: f64,
    bandwidth_mbps: f64,
}

impl Link {
    /// One endpoint of the link.
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint of the link.
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// One-way propagation latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ms
    }

    /// Link bandwidth in megabits per second.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_mbps
    }

    /// Given one endpoint, returns the opposite endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn opposite(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("node {from} is not an endpoint of link {self:?}");
        }
    }
}

/// An adjacency entry: the neighbouring node and the link that reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Neighbor {
    /// The adjacent node.
    pub node: NodeId,
    /// The link connecting to [`Neighbor::node`].
    pub link: LinkId,
}

/// A validated, undirected network graph.
///
/// Nodes are tagged with a [`NodeKind`]; links carry latency and bandwidth.
/// Self-loops are rejected; parallel links are permitted (shortest-path
/// computations simply use the cheaper one).
///
/// # Example
///
/// ```
/// use tacc_topology::{Graph, NodeKind};
///
/// # fn main() -> Result<(), tacc_topology::TopologyError> {
/// let mut g = Graph::new();
/// let iot = g.add_node(NodeKind::IotDevice);
/// let srv = g.add_node(NodeKind::EdgeServer);
/// g.add_link(iot, srv, 2.0, 100.0)?;
/// assert!(g.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Graph {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<Neighbor>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes and
    /// `links` links.
    pub fn with_capacity(nodes: usize, links: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            adjacency: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node without a position and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.insert_node(kind, None)
    }

    /// Adds a node at a geometric position and returns its id.
    pub fn add_node_at(&mut self, kind: NodeKind, position: Point) -> NodeId {
        self.insert_node(kind, Some(position))
    }

    fn insert_node(&mut self, kind: NodeKind, position: Option<Point>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes"));
        self.nodes.push(Node { kind, position });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if either endpoint does not
    /// exist, [`TopologyError::SelfLoop`] if `a == b`, and
    /// [`TopologyError::InvalidLink`] if `latency_ms` is negative or not
    /// finite, or `bandwidth_mbps` is not strictly positive and finite.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency_ms: f64,
        bandwidth_mbps: f64,
    ) -> Result<LinkId, TopologyError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopologyError::SelfLoop { index: a.index() });
        }
        if !latency_ms.is_finite() || latency_ms < 0.0 {
            return Err(TopologyError::InvalidLink {
                reason: format!("latency must be finite and non-negative, got {latency_ms}"),
            });
        }
        if !bandwidth_mbps.is_finite() || bandwidth_mbps <= 0.0 {
            return Err(TopologyError::InvalidLink {
                reason: format!("bandwidth must be finite and positive, got {bandwidth_mbps}"),
            });
        }
        let id = LinkId(u32::try_from(self.links.len()).expect("more than u32::MAX links"));
        self.links.push(Link { a, b, latency_ms, bandwidth_mbps });
        self.adjacency[a.index()].push(Neighbor { node: b, link: id });
        self.adjacency[b.index()].push(Neighbor { node: a, link: id });
        Ok(id)
    }

    /// Overwrites the propagation latency of an existing link — the
    /// mutation behind `LinkLatencyDrift` events in the online runtime.
    /// Endpoints, bandwidth and the link id are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] — never; and
    /// [`TopologyError::InvalidLink`] if `latency_ms` is negative or not
    /// finite.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn set_link_latency(&mut self, id: LinkId, latency_ms: f64) -> Result<(), TopologyError> {
        assert!(id.index() < self.links.len(), "unknown link {id}");
        if !latency_ms.is_finite() || latency_ms < 0.0 {
            return Err(TopologyError::InvalidLink {
                reason: format!("latency must be finite and non-negative, got {latency_ms}"),
            });
        }
        self.links[id.index()].latency_ms = latency_ms;
        Ok(())
    }

    fn check_node(&self, id: NodeId) -> Result<(), TopologyError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode { index: id.index(), node_count: self.nodes.len() })
        }
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links in the graph.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Adjacency list of a node: every neighbouring node with the link that
    /// reaches it.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn neighbors(&self, id: NodeId) -> &[Neighbor] {
        &self.adjacency[id.index()]
    }

    /// Degree (number of incident links) of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adjacency[id.index()].len()
    }

    /// Iterates over `(NodeId, &Node)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over `(LinkId, &Link)` pairs in id order.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i as u32), l))
    }

    /// The id of the link at `index`, in insertion order — the inverse of
    /// [`LinkId::index`], used when replaying traces that reference links
    /// by position.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.link_count()`.
    pub fn link_id(&self, index: usize) -> LinkId {
        assert!(index < self.links.len(), "link index {index} out of range");
        LinkId(index as u32)
    }

    /// Node ids whose [`NodeKind`] equals `kind`, in id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes().filter(|(_, n)| n.kind() == kind).map(|(id, _)| id).collect()
    }

    /// Returns a copy of the graph with one link removed — the
    /// fault-injection primitive behind reconfiguration studies. Node ids
    /// are preserved; link ids are reassigned densely.
    ///
    /// # Panics
    ///
    /// Panics if `failed` does not belong to this graph.
    pub fn without_link(&self, failed: LinkId) -> Graph {
        assert!(failed.index() < self.links.len(), "unknown link {failed}");
        let mut out = Graph::with_capacity(self.nodes.len(), self.links.len() - 1);
        out.nodes = self.nodes.clone();
        out.adjacency = vec![Vec::new(); self.nodes.len()];
        for (id, link) in self.links() {
            if id == failed {
                continue;
            }
            out.add_link(link.a(), link.b(), link.latency_ms(), link.bandwidth_mbps())
                .expect("existing links are valid");
        }
        out
    }

    /// Returns a copy of the graph with a node isolated (all of its links
    /// removed). The node itself remains so ids stay stable — useful for
    /// simulating a dead router or gateway.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this graph.
    pub fn without_node_links(&self, node: NodeId) -> Graph {
        assert!(node.index() < self.nodes.len(), "unknown node {node}");
        let mut out = Graph::with_capacity(self.nodes.len(), self.links.len());
        out.nodes = self.nodes.clone();
        out.adjacency = vec![Vec::new(); self.nodes.len()];
        for (_, link) in self.links() {
            if link.a() == node || link.b() == node {
                continue;
            }
            out.add_link(link.a(), link.b(), link.latency_ms(), link.bandwidth_mbps())
                .expect("existing links are valid");
        }
        out
    }

    /// Returns `true` when the graph is connected (or empty).
    ///
    /// Runs a breadth-first search from node 0.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut count = 1usize;
        while let Some(u) = queue.pop_front() {
            for nb in self.neighbors(u) {
                if !seen[nb.node.index()] {
                    seen[nb.node.index()] = true;
                    count += 1;
                    queue.push_back(nb.node);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Computes the connected components of the graph.
    ///
    /// Returns, for every node index, the id of its component (component
    /// ids are dense, starting at 0), together with the number of
    /// components.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.nodes.len()];
        let mut next = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.nodes.len() {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            queue.push_back(NodeId(start as u32));
            while let Some(u) = queue.pop_front() {
                for nb in self.neighbors(u) {
                    if comp[nb.node.index()] == usize::MAX {
                        comp[nb.node.index()] = next;
                        queue.push_back(nb.node);
                    }
                }
            }
            next += 1;
        }
        (comp, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::IotDevice);
        let b = g.add_node(NodeKind::Router);
        let c = g.add_node(NodeKind::EdgeServer);
        g.add_link(a, b, 1.0, 100.0).unwrap();
        g.add_link(b, c, 2.0, 50.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn add_nodes_assigns_dense_ids() {
        let (g, a, b, c) = small_graph();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (g, a, b, c) = small_graph();
        assert_eq!(g.neighbors(a).len(), 1);
        assert_eq!(g.neighbors(b).len(), 2);
        assert_eq!(g.neighbors(c).len(), 1);
        assert_eq!(g.neighbors(a)[0].node, b);
        assert_eq!(g.neighbors(c)[0].node, b);
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let err = g.add_link(a, a, 1.0, 10.0).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop { index: 0 });
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let ghost = NodeId(5);
        let err = g.add_link(a, ghost, 1.0, 10.0).unwrap_err();
        assert_eq!(err, TopologyError::UnknownNode { index: 5, node_count: 1 });
    }

    #[test]
    fn negative_latency_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        assert!(matches!(g.add_link(a, b, -1.0, 10.0), Err(TopologyError::InvalidLink { .. })));
        assert!(matches!(g.add_link(a, b, f64::NAN, 10.0), Err(TopologyError::InvalidLink { .. })));
    }

    #[test]
    fn zero_bandwidth_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Router);
        let b = g.add_node(NodeKind::Router);
        assert!(matches!(g.add_link(a, b, 1.0, 0.0), Err(TopologyError::InvalidLink { .. })));
        assert!(matches!(
            g.add_link(a, b, 1.0, f64::INFINITY),
            Err(TopologyError::InvalidLink { .. })
        ));
    }

    #[test]
    fn link_opposite_returns_other_endpoint() {
        let (g, a, b, _) = small_graph();
        let link = g.link(LinkId(0));
        assert_eq!(link.opposite(a), b);
        assert_eq!(link.opposite(b), a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_opposite_panics_for_non_endpoint() {
        let (g, _, _, c) = small_graph();
        let _ = g.link(LinkId(0)).opposite(c);
    }

    #[test]
    fn connectivity_detection() {
        let (mut g, _, _, _) = small_graph();
        assert!(g.is_connected());
        let lonely = g.add_node(NodeKind::Router);
        assert!(!g.is_connected());
        let (comp, n) = g.connected_components();
        assert_eq!(n, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[lonely.index()], comp[0]);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
        let (_, n) = Graph::new().connected_components();
        assert_eq!(n, 0);
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (g, a, _, c) = small_graph();
        assert_eq!(g.nodes_of_kind(NodeKind::IotDevice), vec![a]);
        assert_eq!(g.nodes_of_kind(NodeKind::EdgeServer), vec![c]);
    }

    #[test]
    fn without_link_preserves_nodes_and_drops_one_link() {
        let (g, a, b, c) = small_graph();
        let g2 = g.without_link(LinkId(0));
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.link_count(), 1);
        assert!(g2.neighbors(a).is_empty());
        assert_eq!(g2.neighbors(b).len(), 1);
        assert_eq!(g2.neighbors(c).len(), 1);
        // Original untouched.
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn without_node_links_isolates_the_node() {
        let (g, a, b, c) = small_graph();
        let g2 = g.without_node_links(b);
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.link_count(), 0);
        assert!(g2.neighbors(a).is_empty());
        assert!(g2.neighbors(c).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn without_unknown_link_panics() {
        let (g, _, _, _) = small_graph();
        let _ = g.without_link(LinkId(9));
    }

    #[test]
    fn point_distance() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(3.0, 4.0);
        assert!((p.distance(&q) - 5.0).abs() < 1e-12);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(7).to_string(), "l7");
    }

    #[test]
    fn graph_clone_preserves_structure() {
        let (g, _, _, _) = small_graph();
        let g2 = g.clone();
        assert_eq!(g, g2);
    }
}

use std::error::Error;
use std::fmt;

/// Errors raised while constructing or validating a topology.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A node id referenced a node that does not exist in the graph.
    UnknownNode {
        /// The offending node index.
        index: usize,
        /// Number of nodes actually present.
        node_count: usize,
    },
    /// A link connected a node to itself, which the model forbids.
    SelfLoop {
        /// The node that was linked to itself.
        index: usize,
    },
    /// A link parameter was outside its valid domain.
    InvalidLink {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A generator configuration was inconsistent or out of range.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The topology does not connect every IoT device to every edge server.
    Disconnected,
    /// The topology has no nodes of a required role.
    MissingRole {
        /// The role that has no nodes ("IoT device" or "edge server").
        role: &'static str,
    },
    /// Stored parent links do not describe a shortest-path tree of the
    /// graph under the given costs.
    InvalidTree {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode { index, node_count } => {
                write!(f, "unknown node {index} (graph has {node_count} nodes)")
            }
            TopologyError::SelfLoop { index } => {
                write!(f, "self-loop on node {index} is not allowed")
            }
            TopologyError::InvalidLink { reason } => write!(f, "invalid link: {reason}"),
            TopologyError::InvalidConfig { reason } => {
                write!(f, "invalid generator configuration: {reason}")
            }
            TopologyError::Disconnected => {
                write!(f, "topology does not connect every IoT device to every edge server")
            }
            TopologyError::MissingRole { role } => {
                write!(f, "topology has no {role} nodes")
            }
            TopologyError::InvalidTree { reason } => {
                write!(f, "invalid shortest-path tree: {reason}")
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TopologyError::UnknownNode { index: 3, node_count: 2 };
        assert_eq!(e.to_string(), "unknown node 3 (graph has 2 nodes)");
        let e = TopologyError::SelfLoop { index: 1 };
        assert!(e.to_string().contains("self-loop"));
        let e = TopologyError::InvalidLink { reason: "negative latency".into() };
        assert!(e.to_string().contains("negative latency"));
        let e = TopologyError::Disconnected;
        assert!(e.to_string().contains("connect"));
        let e = TopologyError::MissingRole { role: "edge server" };
        assert!(e.to_string().contains("edge server"));
        let e = TopologyError::InvalidTree { reason: "cycle through n4".into() };
        assert!(e.to_string().contains("cycle through n4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TopologyError>();
    }
}

//! Serializable runtime state.
//!
//! A [`RuntimeSnapshot`] stores only what the trace cannot regenerate,
//! and [`crate::Runtime::restore`] is the one place that rebuilds and
//! checks the rest. Stored:
//!
//! - the trace scenario and the runtime configuration;
//! - every link's current latency, `link_latency_ms`, in link order (the
//!   generated latencies with all applied drifts);
//! - the [`MaintainerState`]: each server's shortest-path tree as its
//!   parent links, the failed servers and the rebuild baseline;
//! - the assignment, the wanted set, the migration counter, the cursor
//!   and the deterministic metrics.
//!
//! Restore re-derives everything else from the trace's scenario:
//!
//! - the topology, by building the scenario and applying each stored
//!   latency with [`tacc_topology::Topology::set_link_latency`] (which
//!   rejects NaN, ∞ and negative values);
//! - demands and capacities, which never change;
//! - through [`crate::DelayMaintainer::from_state`], the link costs under
//!   `config.delay_model`, the per-link disable counts from the failed
//!   servers, each tree's distances and the delay matrix. The distances
//!   come from the invariant every tree operation keeps: `dist[v] ==
//!   dist[parent(v)] + costs[parent_link[v]]`, the very sum written
//!   together with the link, so they are bitwise equal (and are checked
//!   against a fresh [`tacc_topology::incremental::SsspTree::build`]);
//! - the unreachable set, with the rule the runtime applies after every
//!   event (wanted, unassigned, no alive server at finite delay).
//!
//! The parent links are state: after repairs a tree's tie-broken shape
//! can differ from a fresh build's, and it decides which subtree the
//! next repair invalidates.
//!
//! This build reads and writes format version 3 only. Snapshots of any
//! other version are rejected with a typed error naming both versions.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use tacc_gap::Assignment;
use tacc_workload::TraceScenario;

use crate::maintainer::MaintainerState;
use crate::metrics::CoreMetrics;
use crate::runtime::RuntimeConfig;
use crate::RuntimeError;

/// The complete resumable state of a [`crate::Runtime`], produced by
/// [`crate::Runtime::snapshot`] and consumed by [`crate::Runtime::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// Snapshot format version; restore rejects other versions.
    pub version: u32,
    /// The trace scenario the runtime was built from. Restore rejects a
    /// snapshot whose scenario disagrees with the trace it is replayed
    /// against.
    pub scenario: TraceScenario,
    /// The runtime's configuration, restored verbatim.
    pub config: RuntimeConfig,
    /// Every link's current latency in milliseconds, in link order: the
    /// scenario's generated latencies with all applied drifts.
    pub link_latency_ms: Vec<f64>,
    /// Delay-maintenance state: tree parent links, failed servers and
    /// the savings baseline.
    pub maintainer: MaintainerState,
    /// The device → server assignment at the snapshot point.
    pub assignment: Assignment,
    /// Which devices want service (shed and unreachable devices stay
    /// wanted and are re-admitted when capacity or connectivity return).
    pub wanted: Vec<bool>,
    /// The cluster's internal migration counter (kept so
    /// `DynamicCluster::migrations` stays continuous across a restore).
    pub migrations: u64,
    /// Trace events consumed before the snapshot; replay resumes here.
    pub cursor: u64,
    /// Deterministic metrics accumulated so far. Wall-clock latency
    /// histograms are measurements, not state, and are not snapshotted.
    pub metrics: CoreMetrics,
}

impl RuntimeSnapshot {
    /// The snapshot format this build writes and reads.
    pub const FORMAT_VERSION: u32 = 3;

    /// Serializes the snapshot to deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot previously produced by [`RuntimeSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSnapshot`] on malformed JSON, a
    /// format-version mismatch (diagnosed before the shape is checked,
    /// so old snapshots get a clear message instead of a field error),
    /// or a shape mismatch.
    pub fn from_json(text: &str) -> Result<RuntimeSnapshot, RuntimeError> {
        let value: Value = serde_json::from_str(text).map_err(|e| {
            RuntimeError::InvalidSnapshot { reason: format!("malformed JSON: {e}") }
        })?;
        if let Some(Value::UInt(version)) = value.get("version") {
            if *version != u64::from(RuntimeSnapshot::FORMAT_VERSION) {
                return Err(RuntimeError::InvalidSnapshot {
                    reason: format!(
                        "snapshot format version {} (this build reads {})",
                        version,
                        RuntimeSnapshot::FORMAT_VERSION
                    ),
                });
            }
        }
        serde_json::from_value(&value)
            .map_err(|e| RuntimeError::InvalidSnapshot { reason: e.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_json_is_a_typed_error() {
        let err = RuntimeSnapshot::from_json("{not json").unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }));
        assert!(err.to_string().contains("malformed JSON"));
    }

    #[test]
    fn version_mismatch_is_diagnosed_before_shape() {
        // A version-2 snapshot carries a topology and lacks the v3
        // fields; the version check must fire first and name both
        // versions.
        let err = RuntimeSnapshot::from_json(r#"{"version": 2, "cursor": 3}"#).unwrap_err();
        let RuntimeError::InvalidSnapshot { reason } = &err else {
            panic!("expected InvalidSnapshot, got {err:?}");
        };
        assert!(reason.contains("version 2"), "got: {reason}");
        assert!(reason.contains("reads 3"), "got: {reason}");
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let err = RuntimeSnapshot::from_json(r#"{"version": 3}"#).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }));
    }
}

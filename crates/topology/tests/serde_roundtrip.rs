//! Serialization round-trips: a delay matrix and a delay model must
//! reload bit-for-bit. Topologies are not deserialized; they are rebuilt
//! from their seeded generators.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tacc_topology::generators::{RandomGeometric, TopologyGenerator};
use tacc_topology::{DelayMatrix, DelayModel, Topology};

fn sample_topology() -> Topology {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    RandomGeometric::builder()
        .num_iot(20)
        .num_servers(3)
        .num_routers(6)
        .build()
        .unwrap()
        .generate(&mut rng)
        .unwrap()
}

#[test]
fn delay_matrix_json_roundtrip_is_lossless() {
    let dm = sample_topology().delay_matrix(&DelayModel::default());
    let json = serde_json::to_string(&dm).expect("serialize");
    let back: DelayMatrix = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(dm, back);
}

#[test]
fn delay_model_json_roundtrip_is_lossless() {
    let model = DelayModel::new(123.0, 0.25);
    let json = serde_json::to_string(&model).expect("serialize");
    let back: DelayModel = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(model, back);
}

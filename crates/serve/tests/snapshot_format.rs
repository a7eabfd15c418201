//! Snapshot body format: non-finite floats survive a snapshot bit for bit,
//! and a generation written in the older JSON format is skipped as stale
//! rather than misread.

mod common;

use rand::SeedableRng;
use serde::Serialize;
use taamr::checkpoint::fnv1a64;
use taamr_recsys::{BprMf, Vbpr, VbprConfig, VisualRecommender};
use taamr_serve::SnapshotStore;

const ITEMS: usize = 6;
const DIM: usize = 3;

fn vbpr_with_features(features: Vec<f32>) -> Vbpr {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    Vbpr::new(4, ITEMS, DIM, features, VbprConfig::default(), &mut rng)
}

#[test]
fn infinite_vbpr_features_restore_bit_exactly_and_nan_stays_nan() {
    let dir = common::fresh_dir("snap-non-finite");
    let mut store = SnapshotStore::open(&dir, "vbpr").unwrap();
    let mut features: Vec<f32> = (0..ITEMS * DIM).map(|i| i as f32 * 0.25 - 1.0).collect();
    features[0] = f32::INFINITY;
    features[4] = f32::NEG_INFINITY;
    features[8] = f32::NAN;
    let model = vbpr_with_features(features.clone());
    store.save(&model, 1).unwrap();

    let restored = store.restore::<Vbpr>().unwrap().model;
    for item in 0..ITEMS {
        let (got, want) = (restored.item_feature(item), &features[item * DIM..(item + 1) * DIM]);
        for (g, w) in got.iter().zip(want) {
            if w.is_nan() {
                assert!(g.is_nan(), "item {item}: NaN must restore as NaN, got {g}");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "item {item}: {w} restored as {g}");
            }
        }
    }
    // JSON text still has no literal for them.
    assert_eq!(serde_json::to_string(&f32::INFINITY).unwrap(), "null");
}

/// The payload a JSON-era (schema 2) build wrote: the model as a JSON
/// string nested inside a second JSON document.
#[derive(Serialize)]
struct JsonEraPayload {
    version: u64,
    model_json: String,
}

#[derive(Serialize)]
struct JsonEraHeader {
    schema: u32,
    fingerprint: String,
    checksum: String,
}

#[test]
fn json_era_generation_is_skipped_beside_a_valid_one() {
    let dir = common::fresh_dir("snap-json-era");
    let mut store = SnapshotStore::open(&dir, "bpr").unwrap();
    let current = common::model(1);
    assert_eq!(store.save(&current, 1).unwrap(), 0);

    // Plant generation 1 exactly as a schema-2 build wrote it: same slot
    // fingerprint, a checksum that matches its JSON body.
    let valid = std::fs::read(store.generation_path(0)).unwrap();
    let header_line = valid.split(|&b| b == b'\n').next().unwrap();
    let header = serde_json::parse_value(std::str::from_utf8(header_line).unwrap()).unwrap();
    let fingerprint = header.get_field("fingerprint").and_then(|v| v.as_str()).unwrap();
    let body = serde_json::to_string(&JsonEraPayload {
        version: 2,
        model_json: serde_json::to_string(&common::model(2)).unwrap(),
    })
    .unwrap();
    let old_header = JsonEraHeader {
        schema: 2,
        fingerprint: fingerprint.to_owned(),
        checksum: format!("{:016x}", fnv1a64(body.as_bytes())),
    };
    let stale = store.generation_path(1);
    std::fs::write(&stale, format!("{}\n{body}", serde_json::to_string(&old_header).unwrap()))
        .unwrap();
    assert_eq!(store.generations(), vec![0, 1]);

    let restored = store.restore::<BprMf>().unwrap();
    assert_eq!(restored.generation, 0, "the JSON-era generation is not restored");
    assert_eq!(restored.skipped, vec![1], "and it is named as skipped");
    assert_eq!(restored.version, 1);
    assert_eq!(restored.model, current);
    assert!(!stale.exists(), "the stale generation is deleted");
}

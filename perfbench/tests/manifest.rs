//! The metrics the benchmark prints are the ones `BENCHMARK.json`
//! declares, with the same units and in the same order.

use randsync_obs::{parse_json, Json};
use randsync_perfbench::{END_TO_END, PER_LAYER};

fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(metrics)) = manifest.get(key) else { panic!("{key} missing") };
    metrics
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let manifest = parse_json(&text).expect("valid JSON");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&manifest, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&manifest, "per_layer"), own(PER_LAYER));
}

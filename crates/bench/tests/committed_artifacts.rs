//! The committed `BENCH_*.json` files at the repository root parse as
//! [`BenchArtifact`]s, pass validation, carry the payload their file name
//! promises, and are byte-for-byte what the writer emits.
//!
//! The CI smoke jobs cannot cover these files: each one overwrites the
//! checkout's artifact with a quick run before its `--validate` step.

use poc_bench::report::BenchArtifact;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_committed_artifact_parses_and_validates() {
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let Some(bench) = name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json")) else {
            continue;
        };
        let artifact = BenchArtifact::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        artifact.validate().unwrap_or_else(|e| panic!("{name}: invalid: {e}"));
        assert_eq!(artifact.payload.name(), bench, "{name} holds another bench's payload");
        assert_eq!(artifact.mode, "full", "{name}: committed artifacts are full-mode runs");
        let raw = std::fs::read_to_string(&path).unwrap();
        assert_eq!(serde_json::to_string(&artifact).unwrap(), raw, "{name} is not in written form");
        seen.push(bench.to_string());
    }
    seen.sort();
    assert_eq!(seen, ["ctrl", "dataplane", "pivot", "transition"]);
}

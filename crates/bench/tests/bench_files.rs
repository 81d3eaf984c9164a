//! Every committed `BENCH_*.json` at the repository root matches its
//! layout in `adam2_bench::BENCH_LAYOUTS`, one file per layout. Shape, not
//! freshness: the manifest's `git_rev` and `dirty` say which build wrote it.

use adam2_bench::{BenchReport, BENCH_LAYOUTS};
use adam2_sim::json;

#[test]
fn committed_bench_files_validate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = 0;
    for entry in std::fs::read_dir(&root).expect("repository root") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_str().unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(root.join(name)).expect("readable file");
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            BenchReport::validate(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            files += 1;
        }
    }
    assert_eq!(files, BENCH_LAYOUTS.len(), "one BENCH_*.json per layout");
}

//! The substrate's source stays in files a reader can hold: no `.rs` file
//! under `src/` is longer than 1 200 lines, so neither backend regrows
//! its own copy of the host core.

use std::path::{Path, PathBuf};

const MAX_LINES: usize = 1_200;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_is_longer_than_the_bar() {
    let mut files = Vec::new();
    rust_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    assert!(
        files.iter().any(|f| f.ends_with("src/lib.rs")),
        "the walk must reach the crate root, found {files:?}"
    );
    let long: Vec<String> = files
        .iter()
        .filter_map(|f| {
            let lines = std::fs::read_to_string(f)
                .expect("readable source file")
                .lines()
                .count();
            (lines > MAX_LINES).then(|| format!("{} ({lines} lines)", f.display()))
        })
        .collect();
    assert!(
        long.is_empty(),
        "source files over {MAX_LINES} lines: {long:?}"
    );
}

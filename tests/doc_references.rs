//! Every repository file that a source comment cites must exist.
//!
//! The test scans the `.rs` files under `crates/`, `src/`, `tests/` and
//! `examples/` for backticked spans that name a Markdown, Rust, text,
//! JSON or TOML file, and resolves each from the repository root (a
//! leading `/` is allowed). A `*` in the file name must match at least
//! one file in its directory. `servebench/` is not scanned: its comments
//! cite files relative to that package.

use std::fs;
use std::path::{Path, PathBuf};

const EXTENSIONS: [&str; 5] = [".md", ".rs", ".txt", ".json", ".toml"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The backticked spans of `line` that look like file paths.
fn cited_paths(line: &str) -> impl Iterator<Item = &str> {
    line.split('`').skip(1).step_by(2).filter(|span| {
        let stem = EXTENSIONS
            .iter()
            .find_map(|ext| span.strip_suffix(ext))
            .unwrap_or("");
        !stem.is_empty()
            && !stem.ends_with('/')
            && span
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "/._-*".contains(c))
    })
}

fn resolves(root: &Path, cited: &str) -> bool {
    let path = root.join(cited.trim_start_matches('/'));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let Some((prefix, suffix)) = name.split_once('*') else {
        return path.exists();
    };
    let dir = path.parent().expect("a file path has a parent");
    fs::read_dir(dir).is_ok_and(|entries| {
        entries.filter_map(Result::ok).any(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            n.len() >= prefix.len() + suffix.len() && n.starts_with(prefix) && n.ends_with(suffix)
        })
    })
}

#[test]
fn every_cited_repo_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The scanner itself: what counts as a cited path, and what resolves.
    let sample = "see `docs/metrics.md`, `Engine`, `a b.rs`, `.rs` and `BENCH_*.json`";
    let found: Vec<&str> = cited_paths(sample).collect();
    assert_eq!(found, ["docs/metrics.md", "BENCH_*.json"]);
    assert!(resolves(root, "/docs/metrics.md") && resolves(root, "BENCH_*.json"));
    assert!(!resolves(root, "DESIGN.md") && !resolves(root, "NO_SUCH_*.json"));

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    let mut dangling = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            for cited in cited_paths(line) {
                if !resolves(root, cited) {
                    let at = file.strip_prefix(root).unwrap_or(file).display();
                    dangling.push(format!("{at}:{}: `{cited}`", i + 1));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "cited files that do not exist:\n{}",
        dangling.join("\n")
    );
}

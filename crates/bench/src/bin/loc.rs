//! `loc`: the non-test code lines of every crate's `src/`, per crate and
//! per file — the tracked size of the code.
//!
//! A line counts when it is not blank, is not a `//` comment (doc
//! comments included) and stands above its file's first `#[cfg(test)]`.
//! Binaries count; `tests/`, `benches/` and `examples/` do not. Run it
//! on `cargo fmt`ed sources, from the repository root (or name the root):
//!
//! ```text
//! cargo run --release -p rmem-bench --bin loc [ROOT]
//! ```
//!
//! `BENCH_wall/<N>.loc` holds its output after change N, and CI diffs
//! the newest one against a fresh run.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The counted lines of one source file.
fn code_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

/// Every `.rs` file under `dir`.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".into()));
    let mut crates: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("a crates/ directory") {
        let dir = entry.expect("a directory entry").path();
        let name = dir.file_name().expect("a crate name").to_string_lossy();
        let mut files = Vec::new();
        sources(&dir.join("src"), &mut files);
        let counted = files.iter().map(|path| {
            let text = fs::read_to_string(path).expect("a readable source file");
            let shown = path.strip_prefix(&root).unwrap_or(path);
            (shown.display().to_string(), code_lines(&text))
        });
        crates.insert(name.into_owned(), counted.collect());
    }
    let mut total = 0;
    for (name, files) in &crates {
        let lines: usize = files.iter().map(|(_, n)| n).sum();
        total += lines;
        println!("{name} {lines}");
        for (path, n) in files {
            println!("  {n:>5} {path}");
        }
    }
    println!("total {total}");
}

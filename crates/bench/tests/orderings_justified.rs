//! Every `Ordering::Relaxed` and `Ordering::SeqCst` under `crates/` carries
//! a written reason: a `// Relaxed: <why>` or `// SeqCst: <why>` comment on
//! its line or in the comment/attribute block directly above it. A relaxed
//! access is sound only if the value synchronizes nothing, and a total order
//! needs an argument; both belong next to the code.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_relaxed_or_seqcst_ordering_has_a_reason() {
    // This crate's manifest sits in `crates/bench`; scan all of `crates/`.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ holds this crate");
    let root = crates.parent().expect("the workspace holds crates/");
    let mut files = Vec::new();
    rust_files(crates, &mut files);
    let (mut checked, mut missing) = (0, Vec::new());
    for file in files {
        let src = fs::read_to_string(&file).expect("readable source file");
        let lines: Vec<&str> = src.lines().collect();
        for (i, &line) in lines.iter().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") || code.starts_with("use ") {
                continue;
            }
            for variant in ["Relaxed", "SeqCst"] {
                if !line.contains(&format!("Ordering::{variant}")) {
                    continue;
                }
                checked += 1;
                let marker = format!("// {variant}:");
                let reason = |l: &str| {
                    l.split_once(&marker)
                        .is_some_and(|(_, why)| !why.trim().is_empty())
                };
                let above = lines[..i].iter().rev().map(|l| l.trim_start());
                let mut block = above.take_while(|l| l.starts_with("//") || l.starts_with("#["));
                if !reason(line) && !block.any(reason) {
                    missing.push(format!(
                        "{}:{}: {code}",
                        file.strip_prefix(root).unwrap().display(),
                        i + 1
                    ));
                }
            }
        }
    }
    assert!(checked > 0, "no atomic orderings found under crates/");
    assert!(
        missing.is_empty(),
        "orderings without a `// Relaxed:`/`// SeqCst:` reason:\n{}",
        missing.join("\n")
    );
}

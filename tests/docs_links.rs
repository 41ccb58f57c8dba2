//! Link check for the repository's documentation surface: every relative
//! markdown link in README.md, docs/, ROADMAP.md and the vendor README must
//! resolve to a file that actually exists, so the docs cannot silently rot
//! as the workspace grows. CI runs this with the rest of the test suite.

use std::path::{Path, PathBuf};

/// The documents whose links are checked, relative to the repository root.
const DOCUMENTS: &[&str] = &[
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/BUILD.md",
    "docs/ENGINE.md",
    "docs/SERVICE.md",
    "crates/vendor/README.md",
];

fn repo_root() -> PathBuf {
    // The integration test runs with the facade crate's manifest dir as its
    // working directory, which is the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `](target)` markdown link targets from one document.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                targets.push(text[i + 2..i + 2 + end].to_string());
            }
        }
        i += 1;
    }
    targets
}

/// Whether a link target is an external or intra-page reference the file
/// check does not apply to.
fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn every_relative_markdown_link_resolves() {
    let root = repo_root();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for document in DOCUMENTS {
        let path = root.join(document);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("documentation file {document} must exist: {e}"));
        let base = path.parent().unwrap_or(Path::new("")).to_path_buf();
        for target in link_targets(&text) {
            if is_external(&target) {
                continue;
            }
            // Strip an intra-file anchor, if any.
            let file = target.split('#').next().unwrap_or(&target);
            if file.is_empty() {
                continue;
            }
            checked += 1;
            if !base.join(file).exists() {
                missing.push(format!("{document} -> {target}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "broken relative links in the documentation:\n  {}",
        missing.join("\n  ")
    );
    assert!(
        checked >= 5,
        "expected the documentation surface to carry relative links (found {checked}); \
         did the link extractor break?"
    );
}

/// The documents the README promises must exist (the pointer map is the
/// repository's front door).
#[test]
fn documentation_surface_is_complete() {
    let root = repo_root();
    for required in [
        "README.md",
        "ROADMAP.md",
        "CHANGES.md",
        "PAPER.md",
        "docs/BUILD.md",
        "docs/ENGINE.md",
        "docs/SERVICE.md",
        "BENCH_batch.json",
        "BENCH_service.json",
    ] {
        assert!(
            root.join(required).exists(),
            "documentation artifact {required} is missing"
        );
    }
}

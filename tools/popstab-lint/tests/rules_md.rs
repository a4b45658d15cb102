//! Docs-drift gate: the facade's embedded rule table must match the
//! registry.
//!
//! The rule catalogue is documented twice: in the facade crate docs
//! (`src/lib.rs`, the "Determinism contract" section) and in this crate's
//! own `lib.rs`. Both copies are generated (`popstab-lint --rules-md`);
//! these tests are what make "generated" true: add, remove, rename, or
//! reword a rule and the build fails until the committed docs are
//! regenerated.

use std::path::Path;
use std::process::Command;

use popstab_lint::rules::rules_markdown;

/// The workspace root, from this crate's position at `tools/popstab-lint`.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("tools/popstab-lint sits two levels below the workspace root")
}

/// The generated table as doc comments: every rendered line, in order,
/// prefixed with `//! `.
fn doc_table() -> String {
    rules_markdown()
        .lines()
        .map(|l| format!("//! {l}\n"))
        .collect()
}

/// Whether `text` embeds [`doc_table`] and the table ends there: the line
/// after the block must not be another `//! |` row, so a stale row left
/// behind by a removed rule fails the check.
fn embeds_the_generated_table(text: &str) -> bool {
    text.match_indices(&doc_table()).any(|(at, block)| {
        !text[at + block.len()..]
            .lines()
            .next()
            .is_some_and(|next| next.starts_with("//! |"))
    })
}

#[test]
fn facade_docs_embed_the_generated_rule_table() {
    let lib = workspace_root().join("src/lib.rs");
    let text = std::fs::read_to_string(&lib).expect("read facade src/lib.rs");
    assert!(
        embeds_the_generated_table(&text),
        "src/lib.rs rule table is out of date — regenerate it with\n\
         `cargo run -p popstab-lint -- --rules-md` (prefix each line with `//! `).\n\
         expected block:\n{}",
        rules_markdown()
    );
}

#[test]
fn crate_docs_embed_the_generated_rule_table() {
    // This crate's own lib.rs documents the same table; it must not rot
    // either.
    let lib = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs");
    let text = std::fs::read_to_string(&lib).expect("read popstab-lint src/lib.rs");
    assert!(
        embeds_the_generated_table(&text),
        "tools/popstab-lint/src/lib.rs rule table is out of date — regenerate with\n\
         `cargo run -p popstab-lint -- --rules-md`.\nexpected block:\n{}",
        rules_markdown()
    );
}

#[test]
fn a_stale_trailing_row_fails_the_drift_check() {
    let table = doc_table();
    assert!(embeds_the_generated_table(&format!(
        "//! # Rules\n{table}//!\n"
    )));
    assert!(!embeds_the_generated_table(&format!(
        "//! # Rules\n{table}//! | `removed-rule` | a rule the registry no longer has |\n"
    )));
}

#[test]
fn rules_md_flag_prints_the_table_and_exits_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .arg("--rules-md")
        .output()
        .expect("run popstab-lint --rules-md");
    assert!(out.status.success(), "--rules-md must exit 0");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        rules_markdown(),
        "--rules-md output must be exactly the registry table"
    );
}

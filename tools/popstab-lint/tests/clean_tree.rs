//! The lint must exit clean on the committed tree: this is the same check
//! CI runs via `cargo run -p popstab-lint`, pinned here so `cargo test`
//! catches a violation (or a broken rule) without the CI round-trip. The
//! flip side is pinned too: a scratch workspace seeded with one violation
//! per rule must make every rule fire and the binary exit non-zero —
//! proof the gate actually gates.

use std::path::{Path, PathBuf};

use popstab_lint::run_lint;
use popstab_lint::workspace::Workspace;

fn repo_root() -> PathBuf {
    // tools/popstab-lint -> tools -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn the_current_tree_is_lint_clean() {
    let ws = Workspace::load(&repo_root()).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace scan looks truncated: {} files",
        ws.files.len()
    );
    let diags = run_lint(&ws);
    assert!(
        diags.is_empty(),
        "popstab-lint found {} violation(s) in the tree:\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Writes the seeded workspace: one violation per rule, including the
/// interprocedural laundering shape (a wall-clock read in a non-result
/// shim crate, reachable from `crates/core` through the dependency-filtered
/// call graph).
fn write_seeded_workspace(seeded: &Path) {
    let core = seeded.join("crates/core/src");
    let sim = seeded.join("crates/sim/src");
    let shim = seeded.join("shims/timeutil/src");
    for dir in [&core, &sim, &shim] {
        std::fs::create_dir_all(dir).expect("mkdir");
    }
    std::fs::write(
        seeded.join("Cargo.toml"),
        // Violates workspace-manifest-invariants: no opt-level overrides.
        "[workspace]\nmembers = [\"crates/core\", \"crates/sim\", \"shims/timeutil\"]\n",
    )
    .unwrap();
    std::fs::write(
        seeded.join("crates/core/Cargo.toml"),
        "[package]\nname = \"popstab-core\"\n\n[dependencies]\n\
         timeutil = { path = \"../../shims/timeutil\" }\n",
    )
    .unwrap();
    std::fs::write(
        seeded.join("crates/sim/Cargo.toml"),
        "[package]\nname = \"popstab-sim\"\n",
    )
    .unwrap();
    std::fs::write(
        seeded.join("shims/timeutil/Cargo.toml"),
        "[package]\nname = \"timeutil\"\n",
    )
    .unwrap();

    // taint-ambient-nondeterminism, the laundering shape: the source lives
    // outside the result crates and only the call graph connects it.
    std::fs::write(
        core.join("lib.rs"),
        "pub fn step() -> u64 { wall_stamp() }\n\
         use timeutil::wall_stamp;\n",
    )
    .unwrap();
    std::fs::write(
        shim.join("lib.rs"),
        "use std::time::SystemTime;\n\
         pub fn wall_stamp() -> u64 { let _ = SystemTime::now(); 0 }\n",
    )
    .unwrap();

    std::fs::write(
        sim.join("rng.rs"),
        concat!(
            // stream-version-coherence: constant present, README/JSON absent.
            "pub const AGENT_STREAM_VERSION: u32 = 3;\n",
            "pub const MATCHING_STREAM_VERSION: u32 = 2;\n",
            // taint-ambient-nondeterminism, the direct shape:
            "fn now_tick() -> u64 { let _ = Instant::now(); 0 }\n",
            // forbid-unordered-iteration:
            "use std::collections::HashMap;\n",
            // unsafe-needs-safety-comment:
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
            // float-order-determinism:
            "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
            // forbid-unordered-iteration again, under a would-be escape
            // comment: the lint has none, so the finding still fires.
            "// lint:allow(forbid-unordered-iteration): membership only, never iterated.\n",
            "use std::collections::HashSet;\n",
        ),
    )
    .unwrap();
}

#[test]
fn the_binary_exits_zero_on_the_tree_and_nonzero_on_a_seeded_tree() {
    // Clean tree → exit 0.
    let ok = std::process::Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .current_dir(repo_root())
        .output()
        .expect("lint binary runs");
    assert!(
        ok.status.success(),
        "lint failed on the committed tree:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // A workspace seeded with one violation of every rule → exit != 0 and
    // every rule reports.
    let seeded = repo_root()
        .join("target")
        .join(format!("popstab-lint-seeded-{}", std::process::id()));
    write_seeded_workspace(&seeded);
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .current_dir(&seeded)
        .output()
        .expect("lint binary runs");
    let stdout = String::from_utf8_lossy(&bad.stdout).to_string();

    // Same seeded tree through --format json: findings must be present and
    // the schema versioned (CI asserts the full schema on the clean tree).
    let json_out = std::process::Command::new(env!("CARGO_BIN_EXE_popstab-lint"))
        .args(["--format", "json"])
        .current_dir(&seeded)
        .output()
        .expect("lint binary runs with --format json");
    let json = String::from_utf8_lossy(&json_out.stdout).to_string();

    std::fs::remove_dir_all(&seeded).ok();
    assert!(!bad.status.success(), "seeded tree passed:\n{stdout}");
    for rule in [
        "taint-ambient-nondeterminism",
        "forbid-unordered-iteration",
        "float-order-determinism",
        "unsafe-needs-safety-comment",
        "stream-version-coherence",
        "workspace-manifest-invariants",
    ] {
        assert!(stdout.contains(rule), "rule {rule} did not fire:\n{stdout}");
    }
    // A `lint:allow` comment is inert: the `HashSet` below it is reported.
    assert!(
        stdout.contains("crates/sim/src/rng.rs:8: [forbid-unordered-iteration]"),
        "a lint:allow comment suppressed a finding:\n{stdout}"
    );
    // The laundering finding names the cross-crate call chain: the read in
    // the shim was reached *from* result-affecting code.
    assert!(
        stdout.contains("reached from result-affecting code via") && stdout.contains("wall_stamp"),
        "interprocedural taint chain missing:\n{stdout}"
    );
    assert!(
        !json_out.status.success(),
        "json run must also exit nonzero"
    );
    assert!(json.contains("\"schema_version\": 1"), "{json}");
    assert!(
        json.contains("\"rule\": \"taint-ambient-nondeterminism\""),
        "{json}"
    );
}

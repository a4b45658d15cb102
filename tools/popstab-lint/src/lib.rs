//! `popstab-lint` — determinism-contract static analysis for this
//! workspace.
//!
//! The engine's most valuable invariant — every trajectory is a pure
//! function of `(seed, RunSpec)`, bit-identical from serial to sharded
//! execution — is enforced dynamically by golden fixtures and property
//! tests. Those catch a violation only *after* it has perturbed a stream.
//! This crate is the static half of the contract: a source-level pass that
//! proves, before anything runs, that no nondeterminism source can reach a
//! result path.
//!
//! Since PR 10 the pass is item-aware: [`syntax`] parses each file's code
//! channel into tokens and items (fns, impls, `use`/`type` aliases) and
//! [`graph`] links them into a workspace-wide approximate call graph,
//! filtered by the crate dependency closure from the manifests. The rule
//! that needs reachability (nondeterminism taint) walks that graph;
//! line-shaped rules still scan the lexed channels directly.
//!
//! Run it as `cargo run -p popstab-lint` from anywhere in the workspace
//! (CI runs it between clippy and the test suite). Exit code 0 means the
//! tree is clean; 1 means violations were reported. `--format json` emits
//! a machine-readable report (schema asserted in CI), and `--rules-md`
//! prints the rule table below straight from the registry.
//!
//! # Rules
//!
//! | rule | guards against |
//! |------|----------------|
//! | `taint-ambient-nondeterminism` | clock / env / OS-RNG / hash-order reads reachable from result-affecting fns, traced through the call graph and `use`/`type` aliases |
//! | `forbid-unordered-iteration` | `HashMap`/`HashSet` (per-process `RandomState` iteration order) anywhere in a result-affecting crate |
//! | `float-order-determinism` | order-sensitive `f64` reductions (`sum`, `fold`) outside the order-fixed `ordered_sum` helper in result/statistics crates |
//! | `unsafe-needs-safety-comment` | `unsafe` blocks, fns, or impls without an adjacent `// SAFETY:` soundness argument |
//! | `stream-version-coherence` | partial stream bumps — version constants, golden-fixture tables, and `BENCH_engine.json` disagreeing |
//! | `workspace-manifest-invariants` | workspace crates missing the per-package dev/test `opt-level` overrides that keep `cargo test` fast |
//!
//! (This table is generated — `cargo run -p popstab-lint -- --rules-md` —
//! and a docs-drift test asserts the facade copy matches it.)
//!
//! There is no escape comment: a finding is fixed in the code, or — if the
//! rule is wrong — in the rule.

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod source;
pub mod syntax;
pub mod workspace;

use diag::Diagnostic;
use rules::Context;
use workspace::Workspace;

/// Runs every rule over the workspace and returns the findings sorted by
/// file, line, and rule.
pub fn run_lint(ws: &Workspace) -> Vec<Diagnostic> {
    let cx = Context::new(ws);
    let mut out: Vec<Diagnostic> = rules::all().iter().flat_map(|r| r.check(&cx)).collect();
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

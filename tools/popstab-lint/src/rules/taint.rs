//! Rule `taint-ambient-nondeterminism`: no nondeterminism source may be
//! reachable from result-affecting code — interprocedurally.
//!
//! The engine's determinism contract makes every trajectory a pure function
//! of `(seed, RunSpec)`. Any ambient read on a result path silently breaks
//! that — and unlike a stream bump, it breaks it *unreproducibly*, so the
//! golden fixtures may keep passing while cross-host runs diverge. The PR 6
//! ancestor of this rule (`forbid-ambient-nondeterminism`) banned the
//! sources per line and per crate, which missed the dangerous shape
//! entirely: a helper fn outside the result crates calling
//! `SystemTime::now()` that a result-crate fn then calls. This rule walks
//! the item graph instead: every fn in the workspace is scanned for
//! sources (`Instant::now`, `SystemTime`, `std::env`, `thread_rng`, and
//! *iterated* `HashMap`/`HashSet` — resolved through `use` and `type`
//! aliases, so renames don't hide them), and a source is a finding exactly
//! when its fn is reachable from a non-test fn in a result-affecting crate
//! over approximate call edges. Test code neither roots nor carries taint.
//!
//! Findings anchor at the source line — that is where the fix belongs:
//! derive the value from the run's seed instead of reading it.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::rules::{Context, Rule, RESULT_CRATES};

/// See the module docs.
pub struct TaintAmbientNondeterminism;

/// Sources matched against alias-resolved paths (prefix at `::` boundary).
const PATH_SOURCES: &[(&str, &str)] = &[
    ("std::time::Instant::now", "the monotonic clock"),
    ("std::time::SystemTime", "the wall clock"),
    ("std::env", "the process environment"),
    ("rand::thread_rng", "the OS-seeded thread RNG"),
];

/// Sources matched against paths that resolve to no known alias (the
/// author wrote the short spelling with no `use`, or an external-crate
/// path this lint does not model).
const BARE_SOURCES: &[(&str, &str)] = &[
    ("Instant::now", "the monotonic clock"),
    ("SystemTime", "the wall clock"),
    ("thread_rng", "the OS-seeded thread RNG"),
    ("env::var", "the process environment"),
    ("env::args", "the process arguments"),
];

/// Hash containers whose iteration order is per-process random.
const HASH_TYPES: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "HashMap",
    "HashSet",
];

/// Methods that observe a container's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

fn path_matches(path: &str, pattern: &str) -> bool {
    path == pattern
        || (path.len() > pattern.len()
            && path.starts_with(pattern)
            && path[pattern.len()..].starts_with("::"))
}

/// Whether a source file should be treated as result-affecting input:
/// integration tests and examples under a crate never are.
pub(crate) fn result_scope(path: &str) -> bool {
    RESULT_CRATES.iter().any(|p| path.starts_with(p))
        && !path.contains("/tests/")
        && !path.contains("/examples/")
}

impl Rule for TaintAmbientNondeterminism {
    fn name(&self) -> &'static str {
        "taint-ambient-nondeterminism"
    }

    fn summary(&self) -> &'static str {
        "clock / env / OS-RNG / hash-order reads reachable from result-affecting fns, traced \
         through the call graph and `use`/`type` aliases"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let g = &cx.graph;
        // Roots: every non-test fn in a result-affecting crate.
        let roots: Vec<usize> = (0..g.fns.len())
            .filter(|&f| !g.fns[f].is_test && result_scope(&g.fns[f].path))
            .collect();
        let pred = g.bfs(&roots, false);

        let mut out = Vec::new();
        for (f, node) in g.fns.iter().enumerate() {
            if node.is_test || pred[f].is_none() {
                continue;
            }
            let pf = &g.parsed[node.file];
            let span = g.item(f).span.clone();
            let iterates = ITER_METHODS
                .iter()
                .any(|m| pf.span_mentions(span.clone(), m));
            // Dedup per (line, source): a path mentioned twice on a line is
            // one read site to fix, not two findings.
            let mut seen = BTreeSet::new();
            for (line, path) in pf.paths_in(span) {
                let source = PATH_SOURCES
                    .iter()
                    .chain(BARE_SOURCES)
                    .find(|(p, _)| path_matches(&path, p))
                    .map(|&(_, what)| (path.clone(), what.to_string()))
                    .or_else(|| {
                        (iterates && HASH_TYPES.iter().any(|h| path_matches(&path, h))).then(|| {
                            (
                                path.clone(),
                                "a RandomState-ordered container's iteration \
                             order"
                                    .to_string(),
                            )
                        })
                    });
                let Some((spelling, what)) = source else {
                    continue;
                };
                if !seen.insert((line, spelling.clone())) {
                    continue;
                }
                let route = if result_scope(&node.path) {
                    format!("inside result-affecting fn `{}`", node.name)
                } else {
                    format!(
                        "in `{}`, reached from result-affecting code via `{}`",
                        node.name,
                        g.chain(&pred, f)
                    )
                };
                out.push(Diagnostic::new(
                    &node.path,
                    line,
                    self.name(),
                    format!(
                        "`{spelling}` reads {what} {route}; derive the value from the run's \
                         seed"
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::{TextFile, Workspace};

    fn manifest(path: &str, text: &str) -> TextFile {
        TextFile {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    fn ws(files: Vec<SourceFile>) -> Workspace {
        Workspace {
            files,
            manifests: vec![
                manifest(
                    "Cargo.toml",
                    "[workspace]\nmembers = [\"crates/sim\", \"crates/core\", \"crates/bench\"]\n\
                     [workspace.dependencies]\n\
                     popstab-sim = { path = \"crates/sim\" }\n\
                     popstab-core = { path = \"crates/core\" }\n\
                     rand = { path = \"shims/rand\", package = \"popstab-rand-shim\" }\n",
                ),
                manifest(
                    "crates/sim/Cargo.toml",
                    "[package]\nname = \"popstab-sim\"\n[dependencies]\nrand.workspace = true\n",
                ),
                manifest(
                    "crates/core/Cargo.toml",
                    "[package]\nname = \"popstab-core\"\n[dependencies]\npopstab-sim.workspace = true\n",
                ),
                manifest(
                    "crates/bench/Cargo.toml",
                    "[package]\nname = \"popstab-bench\"\n[dependencies]\npopstab-core.workspace = true\n",
                ),
            ],
            ..Workspace::default()
        }
    }

    fn diags(files: Vec<SourceFile>) -> Vec<Diagnostic> {
        let ws = ws(files);
        let cx = Context::new(&ws);
        TaintAmbientNondeterminism.check(&cx)
    }

    #[test]
    fn direct_reads_in_result_crates_are_findings() {
        let d = diags(vec![SourceFile::new(
            "crates/core/src/protocol.rs",
            "use std::time::Instant;\nfn t() -> Instant { Instant::now() }\n\
             fn e() { std::env::var(\"X\").ok(); }\n",
        )]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("monotonic clock"));
        assert_eq!(d[0].line, 2);
        assert!(d[1].message.contains("process environment"));
        assert_eq!(d[1].line, 3);
    }

    #[test]
    fn laundering_through_a_helper_crate_is_traced() {
        // The dangerous shape the per-line ban missed: the source lives in
        // a helper two hops away (here outside the result crates entirely),
        // and only the call graph connects it to result-affecting code.
        let d = diags(vec![
            SourceFile::new(
                "crates/core/src/protocol.rs",
                "fn step() { stamp_round(); }\n",
            ),
            SourceFile::new(
                "crates/sim/src/clockutil.rs",
                "pub fn stamp_round() -> u64 { wall_nanos() }\n",
            ),
            SourceFile::new(
                "shims/rand/src/wall.rs",
                "use std::time::SystemTime;\n\
                 pub fn wall_nanos() -> u64 { let _ = SystemTime::now(); 0 }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "shims/rand/src/wall.rs");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("wall clock"), "{d:?}");
        assert!(d[0].message.contains("→ wall_nanos"), "{d:?}");
    }

    #[test]
    fn sources_only_reachable_from_non_result_crates_are_clean() {
        let d = diags(vec![SourceFile::new(
            "crates/bench/src/main.rs",
            "use std::time::Instant;\nfn main() { let _ = Instant::now(); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_neither_roots_nor_carries_taint() {
        let d = diags(vec![SourceFile::new(
            "crates/sim/src/batch.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn knob() { std::env::var(\"X\").ok(); }\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hash_iteration_behind_a_type_alias_is_a_finding() {
        let d = diags(vec![SourceFile::new(
            "crates/adversary/src/lib.rs",
            "use std::collections::HashMap;\ntype Targets = HashMap<u32, u64>;\n\
             fn pick(t: &Targets) -> u64 { t.values().copied().max().unwrap_or(0) }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("iteration order"), "{d:?}");
    }

    #[test]
    fn hash_membership_without_iteration_is_clean() {
        let d = diags(vec![SourceFile::new(
            "crates/adversary/src/lib.rs",
            "use std::collections::HashSet;\n\
             fn member(s: &HashSet<u32>, x: u32) -> bool { s.contains(&x) }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn integration_tests_under_a_result_crate_are_out_of_scope() {
        let d = diags(vec![SourceFile::new(
            "crates/sim/tests/smoke.rs",
            "fn helper() { let _ = std::env::var(\"X\"); }\nfn drive() { helper() }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}

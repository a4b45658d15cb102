//! The workspace item graph: every parsed file's items linked into a
//! symbol table with approximate call edges.
//!
//! Edges are *name-based*: a token `foo` followed by `(` (or a turbofish)
//! inside fn `A` adds an edge `A → foo` for every workspace fn named `foo`
//! that `A`'s crate could actually depend on. The crate-dependency filter
//! (from the manifests' `[dependencies]` sections — dev-dependencies are
//! deliberately excluded, test-only edges cannot reach a shipped result
//! path) is what keeps name collisions from wiring unrelated crates
//! together: `crates/sim` calling `.run(…)` can never edge into the bench
//! CLI's `run`, because bench is not in sim's dependency closure.
//!
//! The graph over-approximates (method calls edge to every same-named fn,
//! trait calls edge to every impl) and that is the right direction for the
//! rules built on it: taint reachability may report a chain that the types
//! would rule out, which is then fixed in the code or the rule; it will not
//! *miss* a chain because a helper was called through a trait object.

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{Item, ItemKind, ParsedFile};
use crate::workspace::{dependency_names, package_name, workspace_dep_dirs, Workspace};

/// One fn in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into [`Workspace::files`] / [`Graph::parsed`].
    pub file: usize,
    /// Index into the owning [`ParsedFile::items`].
    pub item: usize,
    /// The fn name (with any `r#` prefix).
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn sits in test context (`#[test]` / `#[cfg(test)]`
    /// module / `tests` module).
    pub is_test: bool,
    /// The crate directory owning the file (`crates/sim`, `shims/rand`,
    /// `tools/popstab-lint`, or `.` for the facade).
    pub crate_dir: String,
}

/// The linked workspace: parsed files, fn nodes, and call edges.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Parallel to [`Workspace::files`].
    pub parsed: Vec<ParsedFile>,
    /// Every fn item in the workspace, in (file, item) order.
    pub fns: Vec<FnNode>,
    /// `callees[f]` — fn ids `f` may call (deduplicated, sorted).
    pub callees: Vec<Vec<usize>>,
    /// `callers[f]` — fn ids that may call `f`.
    pub callers: Vec<Vec<usize>>,
}

/// Tokens that look like calls but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "let", "else", "move", "ref", "mut", "in",
    "as", "where", "break", "continue", "dyn", "unsafe", "fn", "use", "mod", "impl", "struct",
    "enum", "union", "trait", "pub", "crate", "self", "Self", "super", "true", "false", "Some",
    "None", "Ok", "Err",
];

impl Graph {
    /// Parses every file and links the symbol table.
    pub fn build(ws: &Workspace) -> Graph {
        let parsed: Vec<ParsedFile> = ws
            .files
            .iter()
            .map(|f| ParsedFile::parse(&f.lines))
            .collect();

        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, (file, pf)) in ws.files.iter().zip(&parsed).enumerate() {
            for (ii, item) in pf.items.iter().enumerate() {
                if item.kind != ItemKind::Fn {
                    continue;
                }
                fns.push(FnNode {
                    file: fi,
                    item: ii,
                    name: item.name.clone(),
                    path: file.path.clone(),
                    line: item.line,
                    is_test: item.is_test,
                    crate_dir: crate_dir(&file.path).to_string(),
                });
            }
        }
        for (id, node) in fns.iter().enumerate() {
            by_name.entry(node.name.as_str()).or_default().push(id);
        }

        let deps = dependency_closure(ws);
        let empty = BTreeSet::new();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (id, node) in fns.iter().enumerate() {
            let pf = &parsed[node.file];
            let span = pf.items[node.item].span.clone();
            let allowed = deps.get(node.crate_dir.as_str()).unwrap_or(&empty);
            let mut out = BTreeSet::new();
            for callee_name in call_sites(pf, span) {
                for &target in by_name.get(callee_name).map_or(&[][..], |v| v.as_slice()) {
                    let tcrate = &fns[target].crate_dir;
                    if *tcrate == node.crate_dir || allowed.contains(tcrate.as_str()) {
                        out.insert(target);
                    }
                }
            }
            for target in out {
                callees[id].push(target);
                callers[target].push(id);
            }
        }

        Graph {
            parsed,
            fns,
            callees,
            callers,
        }
    }

    /// The parsed item backing fn `id`.
    pub fn item(&self, id: usize) -> &Item {
        &self.parsed[self.fns[id].file].items[self.fns[id].item]
    }

    /// Breadth-first search along `callees` (or `callers` when `reverse`)
    /// from `seeds`, skipping test fns. Returns a predecessor map:
    /// `pred[f] = Some(p)` when `f` was reached via `p` (seeds point at
    /// themselves), `None` when unreached.
    pub fn bfs(&self, seeds: &[usize], reverse: bool) -> Vec<Option<usize>> {
        let edges = if reverse {
            &self.callers
        } else {
            &self.callees
        };
        let mut pred: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if pred[s].is_none() && !self.fns[s].is_test {
                pred[s] = Some(s);
                queue.push(s);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let f = queue[head];
            head += 1;
            for &next in &edges[f] {
                if pred[next].is_none() && !self.fns[next].is_test {
                    pred[next] = Some(f);
                    queue.push(next);
                }
            }
        }
        pred
    }

    /// The call chain `to ← … ← seed` implied by a [`Graph::bfs`]
    /// predecessor map, rendered seed-first as `a → b → c` fn names.
    pub fn chain(&self, pred: &[Option<usize>], to: usize) -> String {
        let mut names = Vec::new();
        let mut cur = to;
        loop {
            names.push(self.fns[cur].name.clone());
            match pred[cur] {
                Some(p) if p != cur => cur = p,
                _ => break,
            }
        }
        names.reverse();
        names.join(" → ")
    }
}

/// The crate directory owning a workspace-relative source path.
pub fn crate_dir(path: &str) -> &str {
    for root in ["crates/", "shims/", "tools/"] {
        if let Some(rest) = path.strip_prefix(root) {
            if let Some(slash) = rest.find('/') {
                return &path[..root.len() + slash];
            }
        }
    }
    // src/, tests/, examples/ all belong to the facade crate.
    "."
}

/// Call-site callee names inside a token span: identifiers followed by `(`
/// or a `::<` turbofish, excluding definitions and keywords. Method calls
/// are included on purpose — a trait-object call must edge into every impl.
fn call_sites(pf: &ParsedFile, span: std::ops::Range<usize>) -> Vec<&str> {
    let toks = &pf.tokens[span];
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident() || NON_CALL_KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| toks[j].text.as_str());
        if matches!(prev, Some("fn" | "struct" | "enum" | "union" | "trait")) {
            continue;
        }
        let next = toks.get(i + 1).map(|t| t.text.as_str());
        let is_call = next == Some("(")
            || (next == Some("::") && toks.get(i + 2).map(|t| t.text.as_str()) == Some("<"));
        if is_call {
            out.push(toks[i].text.as_str());
        }
    }
    out
}

/// `crate_dir → transitive dependency crate_dirs`, from the manifests'
/// `[dependencies]` sections resolved through `[workspace.dependencies]`.
fn dependency_closure(ws: &Workspace) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let Some(root) = ws.root_manifest() else {
        return direct;
    };
    let name_to_dir: BTreeMap<String, String> =
        workspace_dep_dirs(&root.text).into_iter().collect();
    // Package names also resolve (a member could skip the workspace table).
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    for m in &ws.manifests {
        if let Some(pkg) = package_name(&m.text) {
            pkg_to_dir.insert(pkg, manifest_dir(&m.path));
        }
    }
    for m in &ws.manifests {
        let dir = manifest_dir(&m.path);
        let entry = direct.entry(dir).or_default();
        for dep in dependency_names(&m.text) {
            if let Some(d) = name_to_dir.get(&dep).or_else(|| pkg_to_dir.get(&dep)) {
                entry.insert(d.clone());
            }
        }
    }
    // Transitive closure (the workspace is small; fixpoint is fine).
    loop {
        let mut grew = false;
        let snapshot = direct.clone();
        for deps in direct.values_mut() {
            let mut add = BTreeSet::new();
            for d in deps.iter() {
                if let Some(transitive) = snapshot.get(d) {
                    add.extend(transitive.iter().cloned());
                }
            }
            for a in add {
                grew |= deps.insert(a);
            }
        }
        if !grew {
            return direct;
        }
    }
}

fn manifest_dir(path: &str) -> String {
    match path.strip_suffix("/Cargo.toml") {
        Some(dir) => dir.to_string(),
        None => ".".to_string(), // the root "Cargo.toml"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::TextFile;

    const ROOT_MANIFEST: &str = "\
[workspace]
members = [\"crates/sim\", \"crates/core\", \"crates/bench\"]

[workspace.dependencies]
popstab-sim = { path = \"crates/sim\" }
popstab-core = { path = \"crates/core\" }
";

    fn manifest(path: &str, text: &str) -> TextFile {
        TextFile {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    fn ws() -> Workspace {
        Workspace {
            files: vec![
                SourceFile::new(
                    "crates/sim/src/lib.rs",
                    "pub fn shard_work() { helper() }\nfn helper() {}\n",
                ),
                SourceFile::new(
                    "crates/core/src/lib.rs",
                    "pub fn step() { shard_work(); }\nfn local() { step() }\n\
                     #[cfg(test)]\nmod tests {\n    fn check() { step() }\n}\n",
                ),
                SourceFile::new("crates/bench/src/main.rs", "fn main() { step(); }\n"),
            ],
            manifests: vec![
                manifest("Cargo.toml", ROOT_MANIFEST),
                manifest(
                    "crates/sim/Cargo.toml",
                    "[package]\nname = \"popstab-sim\"\n",
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

    fn id(g: &Graph, name: &str, path: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.name == name && f.path == path)
            .unwrap_or_else(|| panic!("no fn {name} in {path}"))
    }

    #[test]
    fn edges_follow_names_within_the_dependency_closure() {
        let g = Graph::build(&ws());
        let step = id(&g, "step", "crates/core/src/lib.rs");
        let shard = id(&g, "shard_work", "crates/sim/src/lib.rs");
        assert!(g.callees[step].contains(&shard), "core → sim edge");
        assert!(g.callers[shard].contains(&step));
    }

    #[test]
    fn edges_never_point_outside_the_dependency_closure() {
        let g = Graph::build(&ws());
        // sim does not depend on core: helper() in sim can never edge into
        // a same-named fn there, and nothing in sim reaches bench's main.
        let shard = id(&g, "shard_work", "crates/sim/src/lib.rs");
        let main = id(&g, "main", "crates/bench/src/main.rs");
        assert!(g.callees[shard]
            .iter()
            .all(|&c| g.fns[c].crate_dir == "crates/sim"));
        // bench (transitively) depends on sim through core.
        let step = id(&g, "step", "crates/core/src/lib.rs");
        assert!(g.callees[main].contains(&step));
    }

    #[test]
    fn bfs_skips_test_fns_and_records_chains() {
        let g = Graph::build(&ws());
        let step = id(&g, "step", "crates/core/src/lib.rs");
        let helper = id(&g, "helper", "crates/sim/src/lib.rs");
        let check = id(&g, "check", "crates/core/src/lib.rs");
        let pred = g.bfs(&[step], false);
        assert!(pred[helper].is_some(), "step → shard_work → helper");
        assert!(pred[check].is_none(), "test fns are not traversed");
        assert_eq!(g.chain(&pred, helper), "step → shard_work → helper");
    }

    #[test]
    fn crate_dirs_classify_paths() {
        assert_eq!(crate_dir("crates/sim/src/batch.rs"), "crates/sim");
        assert_eq!(crate_dir("shims/rand/src/lib.rs"), "shims/rand");
        assert_eq!(
            crate_dir("tools/popstab-lint/src/main.rs"),
            "tools/popstab-lint"
        );
        assert_eq!(crate_dir("src/lib.rs"), ".");
        assert_eq!(crate_dir("tests/golden_fixtures.rs"), ".");
    }
}

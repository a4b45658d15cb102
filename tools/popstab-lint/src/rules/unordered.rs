//! Rule `forbid-unordered-iteration`: no `HashMap`/`HashSet` in
//! result-affecting crates.
//!
//! `std`'s hash containers iterate in `RandomState` order — a fresh random
//! seed per process — so any fold, `max_by_key` tie-break, or collected
//! `Vec` that touches their iteration order is nondeterministic *across
//! processes* even when a single run looks repeatable. Because the hazard
//! is the iteration and iteration is easy to add two callers away from the
//! container, the rule bans the types themselves in result-affecting
//! crates: use `BTreeMap`/`BTreeSet` or sorted vectors, even for a
//! membership-only use.

use crate::diag::Diagnostic;
use crate::lexer::contains_token;
use crate::rules::{Context, Rule, RESULT_CRATES};

/// See the module docs.
pub struct ForbidUnorderedIteration;

const TOKENS: &[&str] = &["HashMap", "HashSet"];

impl Rule for ForbidUnorderedIteration {
    fn name(&self) -> &'static str {
        "forbid-unordered-iteration"
    }

    fn summary(&self) -> &'static str {
        "`HashMap`/`HashSet` (per-process `RandomState` iteration order) anywhere in a \
         result-affecting crate"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in cx.ws.files_under(RESULT_CRATES) {
            for (idx, line) in file.lines.iter().enumerate() {
                if let Some(token) = TOKENS
                    .iter()
                    .find(|token| contains_token(&line.code, token))
                {
                    out.push(Diagnostic::new(
                        &file.path,
                        idx + 1,
                        self.name(),
                        format!(
                            "`{token}` iterates in per-process random order; use \
                             `BTree{}`/sorted vectors",
                            &token[4..]
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![SourceFile::new(path, src)],
            ..Workspace::default()
        };
        let cx = Context::new(&ws);
        ForbidUnorderedIteration.check(&cx)
    }

    #[test]
    fn accepts_ordered_containers() {
        let d = diags(
            "crates/sim/src/metrics.rs",
            "use std::collections::BTreeMap;\nlet mut counts: BTreeMap<u32, usize> = BTreeMap::new();\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn rejects_hash_containers_in_result_crates() {
        let d = diags(
            "crates/adversary/src/lib.rs",
            "use std::collections::HashMap;\nlet mut seen = HashSet::new();\n",
        );
        assert_eq!(d.len(), 2);
        assert!(d[0].message.contains("BTreeMap"));
        assert!(d[1].message.contains("BTreeSet"));
    }

    #[test]
    fn non_result_crates_may_hash() {
        let d = diags(
            "crates/bench/src/scenario.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(d.is_empty());
    }
}

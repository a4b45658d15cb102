//! Rule `sendptr-bounds`: shared raw shard pointers must get their index
//! ranges from `shard_range`.
//!
//! The PR 3/4 sharding safety argument is always the same sentence: "slot
//! `i` belongs to exactly one shard range". That is only true when the
//! range actually came from `shard_range`/`word_shard_range` — the two
//! fns that partition `0..n` into disjoint contiguous pieces. Until now
//! the argument lived purely in SAFETY comments; this rule makes the
//! load-bearing half machine-checked, in two shapes:
//!
//! 1. **Dispatchers.** A fn that mentions a shared shard pointer
//!    (`SendPtr`) *and* fans work out over a pool
//!    (`dispatch`/`try_dispatch`/`dispatch_parts`) must call `shard_range` or
//!    `word_shard_range` in its span — the dispatch site is where
//!    disjointness is established, so deriving ranges any other way (or
//!    not at all) is a finding even if every deref happens to be in
//!    bounds today.
//! 2. **Deref helpers.** A fn that derefs a shard pointer (`unsafe` +
//!    pointer mention) without dispatching must be *reachable from* a fn
//!    that derives ranges — a kernel that receives already-partitioned
//!    indices from a range-deriving driver passes, and the item graph
//!    verifies that such a driver actually exists. An orphaned deref
//!    helper nobody range-partitions for is a finding.
//!
//! Sharded passes that can cut their data into contiguous parts use the
//! safe `ShardPool::dispatch_parts` and never meet this rule; its one
//! remaining subject is the partner-table scatter, whose writes land at
//! `π(j)`.
//!
//! Escape: `lint:allow(sendptr-bounds): <why the indices are disjoint>`.

use crate::diag::Diagnostic;
use crate::rules::taint::result_scope;
use crate::rules::{Context, Rule};

/// See the module docs.
pub struct SendPtrBounds;

/// The Send/Sync raw-pointer wrappers the engine shares across shards.
const PTR_TYPES: &[&str] = &["SendPtr"];
/// Pool fan-out entry points.
const DISPATCHES: &[&str] = &["dispatch", "try_dispatch", "dispatch_parts"];
/// The blessed range-partitioning fns.
const RANGES: &[&str] = &["shard_range", "word_shard_range"];

impl Rule for SendPtrBounds {
    fn name(&self) -> &'static str {
        "sendptr-bounds"
    }

    fn summary(&self) -> &'static str {
        "`SendPtr` crossing a pool dispatch or deref'd in a helper without \
         `shard_range`-derived disjoint indices"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let g = &cx.graph;
        // Fns that derive ranges themselves seed the "covered" set; any fn
        // they (transitively) call receives range-partitioned indices.
        let seeds: Vec<usize> = (0..g.fns.len())
            .filter(|&f| !g.fns[f].is_test && RANGES.iter().any(|r| g.mentions(f, r)))
            .collect();
        let covered = g.bfs(&seeds, false);

        let mut out = Vec::new();
        for (f, node) in g.fns.iter().enumerate() {
            if node.is_test || !result_scope(&node.path) {
                continue;
            }
            if !PTR_TYPES.iter().any(|p| g.mentions(f, p)) {
                continue;
            }
            let has_range = RANGES.iter().any(|r| g.mentions(f, r));
            if has_range {
                continue;
            }
            let dispatches = DISPATCHES.iter().any(|d| g.mentions(f, d));
            if dispatches {
                out.push(Diagnostic::new(
                    &node.path,
                    node.line,
                    self.name(),
                    format!(
                        "`{}` shares a raw shard pointer across a pool dispatch without \
                         deriving its index ranges from `shard_range`/`word_shard_range`; \
                         partition the slots there, or escape with `lint:allow(sendptr-bounds): \
                         <why the accesses are disjoint>`",
                        node.name
                    ),
                ));
            } else if g.mentions(f, "unsafe") && covered[f].is_none() {
                out.push(Diagnostic::new(
                    &node.path,
                    node.line,
                    self.name(),
                    format!(
                        "`{}` derefs a shared shard pointer but no caller chain derives its \
                         index range from `shard_range`/`word_shard_range`; route it through a \
                         range-partitioning driver, or escape with `lint:allow(sendptr-bounds): \
                         <why the accesses are disjoint>`",
                        node.name
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

    fn ws(src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::new("crates/sim/src/engine.rs", src)],
            manifests: vec![TextFile {
                path: "Cargo.toml".to_string(),
                text: "[workspace]\nmembers = [\"crates/sim\"]\n".to_string(),
            }],
            ..Workspace::default()
        }
    }

    fn diags(src: &str) -> Vec<Diagnostic> {
        let ws = ws(src);
        let cx = Context::new(&ws);
        SendPtrBounds.check(&cx)
    }

    #[test]
    fn dispatch_with_shard_range_passes() {
        let src = "\
fn par_pass(pool: &ShardPool, buf: &mut [u64]) {
    let base = SendPtr(buf.as_mut_ptr());
    let n = buf.len();
    let nshards = pool.shards();
    pool.dispatch(&|s| {
        let (lo, hi) = shard_range(n, nshards, s);
        for i in lo..hi {
            unsafe { base.get().add(i).write(0) };
        }
    });
}
fn shard_range(n: usize, k: usize, s: usize) -> (usize, usize) { (0, n) }
";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn dispatch_without_shard_range_is_flagged() {
        let src = "\
fn par_pass(pool: &ShardPool, buf: &mut [u64]) {
    let base = SendPtr(buf.as_mut_ptr());
    let per = buf.len() / pool.shards();
    pool.dispatch(&|s| {
        for i in s * per..(s + 1) * per {
            unsafe { base.get().add(i).write(0) };
        }
    });
}
";
        let d = diags(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("across a pool dispatch"));
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn deref_helper_reached_from_a_range_driver_passes() {
        let src = "\
fn driver(pool: &ShardPool, col: SendPtr<u64>, n: usize) {
    let nshards = pool.shards();
    pool.dispatch(&|s| {
        let (lo, hi) = word_shard_range(n, nshards, s);
        kernel(col, lo, hi);
    });
}
fn kernel(col: SendPtr<u64>, lo: usize, hi: usize) {
    for w in lo..hi {
        unsafe { *col.get().add(w) = 0 };
    }
}
";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn orphaned_deref_helper_is_flagged() {
        let src = "\
fn kernel(col: SendPtr<u64>, lo: usize, hi: usize) {
    for w in lo..hi {
        unsafe { *col.get().add(w) = 0 };
    }
}
";
        let d = diags(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("no caller chain"));
    }

    #[test]
    fn test_code_and_non_result_crates_are_out_of_scope() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(col: SendPtr<u64>) { unsafe { *col.get() = 0 }; }
}
";
        assert!(diags(src).is_empty());
    }
}

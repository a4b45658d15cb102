//! Rule `simd-scalar-twin`: every lane-batched `_x8` kernel in a
//! result-affecting crate needs a same-file scalar reference function and
//! a test that exercises both.
//!
//! The determinism contract says batching can never move a draw: a
//! `foo_x8` kernel is only admissible as a bit-for-bit widening of some
//! scalar `foo`. That claim is meaningless without (a) the scalar twin
//! living next to the kernel, where a reviewer can diff the arithmetic,
//! and (b) a test in the same file that references both, pinning them
//! lane-for-lane (the `*_matches_scalar_twin` suites). The rule enforces
//! the shape token-wise: for each `fn <name>_x8` definition it requires a
//! `fn <name>` definition in the same file and mentions of both names at
//! or below the file's `mod tests` marker.

use crate::diag::Diagnostic;
use crate::lexer::{contains_token, is_ident_char};
use crate::rules::{Context, Rule, RESULT_CRATES};
use crate::source::SourceFile;

/// See the module docs.
pub struct SimdScalarTwin;

/// Function names defined on `line` (there is at most one in idiomatic
/// code, but the lexer keeps whole lines, so scan them all).
fn defined_fns(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find("fn ") {
        let boundary = pos == 0 || !is_ident_char(rest[..pos].chars().next_back().unwrap_or(' '));
        let after = &rest[pos + 3..];
        if boundary {
            let name: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                out.push(name);
            }
        }
        rest = after;
    }
    out
}

/// 0-based index of the line opening the file's test module, if any.
fn tests_start(file: &SourceFile) -> Option<usize> {
    file.lines.iter().position(|l| l.code.contains("mod tests"))
}

/// Whether `token` appears on any line at or after 0-based `from`.
fn mentioned_from(file: &SourceFile, from: usize, token: &str) -> bool {
    file.lines[from..]
        .iter()
        .any(|l| contains_token(&l.code, token))
}

impl Rule for SimdScalarTwin {
    fn name(&self) -> &'static str {
        "simd-scalar-twin"
    }

    fn summary(&self) -> &'static str {
        "lane-batched `_x8` kernels without a same-file scalar twin and lane-for-lane \
         equivalence test"
    }

    fn check(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in cx.ws.files_under(RESULT_CRATES) {
            let all_fns: Vec<String> = file
                .lines
                .iter()
                .flat_map(|l| defined_fns(&l.code))
                .collect();
            let tests = tests_start(file);
            for (idx, line) in file.lines.iter().enumerate() {
                for kernel in defined_fns(&line.code) {
                    let Some(scalar) = kernel.strip_suffix("_x8") else {
                        continue;
                    };
                    if scalar.is_empty() {
                        continue;
                    }
                    if !all_fns.iter().any(|f| f == scalar) {
                        out.push(Diagnostic::new(
                            &file.path,
                            idx + 1,
                            self.name(),
                            format!(
                                "lane-batched kernel `{kernel}` has no scalar reference \
                                 `fn {scalar}` in this file; add the twin next to the kernel"
                            ),
                        ));
                    }
                    let tested = tests.is_some_and(|t| {
                        mentioned_from(file, t, &kernel) && mentioned_from(file, t, scalar)
                    });
                    if !tested {
                        out.push(Diagnostic::new(
                            &file.path,
                            idx + 1,
                            self.name(),
                            format!(
                                "lane-batched kernel `{kernel}` is not pinned against `{scalar}` \
                                 by this file's tests; add a lane-for-lane equivalence test \
                                 referencing both"
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![SourceFile::new(path, src)],
            ..Workspace::default()
        };
        let cx = Context::new(&ws);
        SimdScalarTwin.check(&cx)
    }

    const GOOD: &str = "pub fn dash(x: u64) -> u64 { x }\n\
        pub fn dash_x8(xs: &[u64; 8]) -> [u64; 8] { xs.map(dash) }\n\
        mod tests {\n\
        fn dash_x8_matches_scalar_twin() { assert_eq!(dash_x8(&[0; 8])[0], dash(0)); }\n\
        }\n";

    #[test]
    fn kernel_with_twin_and_test_passes() {
        assert!(diags("crates/sim/src/rng.rs", GOOD).is_empty());
    }

    #[test]
    fn kernel_without_scalar_twin_is_flagged() {
        let src = "pub fn dash_x8(xs: &[u64; 8]) -> [u64; 8] { *xs }\n\
            mod tests {\n\
            fn covers() { dash_x8(&[0; 8]); }\n\
            }\n";
        let d = diags("crates/sim/src/rng.rs", src);
        // Missing twin *and* no test referencing the (nonexistent) scalar.
        assert_eq!(d.len(), 2);
        assert!(d[0].message.contains("no scalar reference"));
    }

    #[test]
    fn kernel_without_equivalence_test_is_flagged() {
        let src = "pub fn dash(x: u64) -> u64 { x }\n\
            pub fn dash_x8(xs: &[u64; 8]) -> [u64; 8] { xs.map(dash) }\n";
        let d = diags("crates/core/src/columns.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not pinned"));
    }

    #[test]
    fn callers_of_x8_kernels_are_not_definitions() {
        let src = "fn gather(keys: &[u64; 8]) -> [u64; 8] { other::dash_x8(keys) }\n";
        assert!(diags("crates/core/src/columns.rs", src).is_empty());
    }

    #[test]
    fn non_result_crates_are_out_of_scope() {
        let src = "pub fn dash_x8(xs: &[u64; 8]) -> [u64; 8] { *xs }\n";
        assert!(diags("crates/bench/src/experiments/bench.rs", src).is_empty());
    }
}

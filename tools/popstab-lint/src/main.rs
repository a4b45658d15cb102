//! CLI entry point: lints the enclosing workspace and exits non-zero on
//! findings. See the crate docs (`cargo doc -p popstab-lint`) for the rule
//! catalogue.
//!
//! ```text
//! popstab-lint [--format text|json] [--rules-md]
//! ```
//!
//! `--rules-md` prints the rule table as markdown (the source of truth for
//! the facade docs) and exits 0 without scanning anything.

use std::path::PathBuf;
use std::process::ExitCode;

use popstab_lint::output::{render, Format};
use popstab_lint::workspace::Workspace;
use popstab_lint::{rules, run_lint};

fn main() -> ExitCode {
    let format = match parse_args(std::env::args().skip(1)) {
        Ok(Some(format)) => format,
        Ok(None) => {
            print!("{}", rules::rules_markdown());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("popstab-lint: {e}");
            eprintln!("usage: popstab-lint [--format text|json] [--rules-md]");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = find_workspace_root() else {
        eprintln!("popstab-lint: no workspace Cargo.toml found above the current directory");
        return ExitCode::FAILURE;
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "popstab-lint: failed to load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let diags = run_lint(&ws);
    let rule_names: Vec<&'static str> = rules::all().iter().map(|r| r.name()).collect();
    print!("{}", render(format, &diags, ws.files.len(), &rule_names));
    if diags.is_empty() {
        if format == Format::Text {
            println!(
                "popstab-lint: clean — {} files, {} rules, 0 findings",
                ws.files.len(),
                rule_names.len()
            );
        }
        return ExitCode::SUCCESS;
    }
    if format == Format::Text {
        println!("popstab-lint: {} finding(s)", diags.len());
    }
    ExitCode::FAILURE
}

/// Parses the CLI (without the program name): `Ok(Some(format))` to lint,
/// `Ok(None)` for `--rules-md`. Every argument is read before either is
/// returned, so a bad one fails however the flags are ordered.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Format>, String> {
    let mut format = Format::Text;
    let mut rules_md = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules-md" => rules_md = true,
            "--format" => {
                let value = args.next().ok_or("--format needs a value")?;
                format = Format::parse(&value)
                    .ok_or_else(|| format!("unknown format `{value}` (text|json)"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((!rules_md).then_some(format))
}

/// Walks up from the current directory to the manifest declaring
/// `[workspace]`, falling back to this crate's own workspace at compile
/// time (so `cargo run -p popstab-lint` works from any subdirectory).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            break;
        }
    }
    // tools/popstab-lint/../.. is the workspace root.
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    compiled.parent()?.parent().map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Format>, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_argument_is_parsed_before_acting() {
        assert!(parse("--rules-md --format yaml").is_err());
        assert!(parse("--format yaml --rules-md").is_err());
        assert!(parse("--rules-md --bogus").is_err());
        assert_eq!(parse("--format json --rules-md"), Ok(None));
        assert_eq!(parse("--format json"), Ok(Some(Format::Json)));
        assert_eq!(parse(""), Ok(Some(Format::Text)));
    }
}

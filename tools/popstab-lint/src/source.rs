//! Lexed source files.

use crate::lexer::{lex, LexedLine};

/// A lexed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// Per-line code/comment channels.
    pub lines: Vec<LexedLine>,
}

impl SourceFile {
    /// Lexes `text` into a source file at workspace-relative `path`.
    pub fn new(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            lines: lex(text),
        }
    }
}

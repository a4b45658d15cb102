//! A minimal Rust surface lexer: splits a source file into per-line *code*
//! and *comment* channels.
//!
//! The rules in this crate are token-level, so the lexer's only job is to
//! make token scanning sound: string/char-literal contents must never look
//! like code (a `"HashMap"` literal is not a `HashMap` use) and comment text
//! must never look like code either — while staying available separately,
//! because the `// SAFETY:` convention the lint enforces lives *in*
//! comments.
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments,
//! string literals with escapes, raw strings with any `#` count (`r"…"`,
//! `r###"…"###`, byte/raw-byte variants), char literals, and the
//! char-vs-lifetime ambiguity (`'a'` vs `'a`).

/// One source line, split into its code and comment channels.
///
/// `code` preserves column positions for code tokens (literal contents and
/// comments are blanked with spaces) so diagnostics can point at real
/// columns if they ever need to; `comment` is the concatenated comment text
/// that was removed from the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexedLine {
    /// The line with comments removed and literal contents blanked.
    pub code: String,
    /// The comment text removed from the line (without `//` / `/*` markers).
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Ordinary code.
    Code,
    /// Inside `/* … */`, tracking nesting depth.
    Block(u32),
    /// Inside `"…"` (or `b"…"`).
    Str,
    /// Inside `r##"…"##` (or `br##"…"##`) with this many `#`s.
    RawStr(u32),
}

/// Lexes a whole file into per-line code/comment channels.
pub fn lex(source: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for raw_line in source.split('\n') {
        let mut code = String::with_capacity(raw_line.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw_line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match state {
                State::Code => match c {
                    '/' if chars.get(i + 1) == Some(&'/') => {
                        // Line comment: the rest of the line is comment text.
                        comment.push_str(&chars[i + 2..].iter().collect::<String>());
                        code.push_str(&" ".repeat(chars.len() - i));
                        i = chars.len();
                        continue;
                    }
                    '/' if chars.get(i + 1) == Some(&'*') => {
                        state = State::Block(1);
                        code.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = if let Some(hashes) = raw_string_hashes(&chars, i) {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        code.push('"');
                    }
                    '\'' => {
                        // Char literal or lifetime? A char literal closes
                        // within a few characters; a lifetime never has a
                        // closing quote adjacent to its identifier.
                        if let Some(end) = char_literal_end(&chars, i) {
                            code.push('\'');
                            code.push_str(&" ".repeat(end - i - 1));
                            code.push('\'');
                            i = end + 1;
                            continue;
                        }
                        code.push('\'');
                    }
                    _ => code.push(c),
                },
                State::Block(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        code.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::Block(depth + 1);
                        code.push_str("  ");
                        i += 2;
                        continue;
                    }
                    comment.push(c);
                    code.push(' ');
                }
                State::Str => match c {
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = State::Code;
                        code.push('"');
                    }
                    _ => code.push(' '),
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw_string(&chars, i, hashes) {
                        state = State::Code;
                        code.push('"');
                        code.push_str(&" ".repeat(hashes as usize));
                        i += 1 + hashes as usize;
                        continue;
                    }
                    code.push(' ');
                }
            }
            i += 1;
        }
        // A string literal may legally span lines; comments reset nothing.
        out.push(LexedLine { code, comment });
    }
    out
}

/// If the `"` at `chars[i]` opens a raw string (`r"`, `r#"`, `br##"`, …),
/// returns the number of `#`s; `None` for an ordinary string.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<u32> {
    // Walk back over `#`s to the `r` prefix.
    let mut j = i;
    let mut hashes = 0u32;
    while j > 0 && chars[j - 1] == '#' {
        j -= 1;
        hashes += 1;
    }
    if j == 0 {
        return None;
    }
    let r_at = j - 1;
    if chars[r_at] != 'r' {
        return None;
    }
    // `r` must start the prefix: allow a preceding `b`, but not a preceding
    // identifier character (`for_r#"` is not a raw string).
    let prefix_start = if r_at > 0 && chars[r_at - 1] == 'b' {
        r_at - 1
    } else {
        r_at
    };
    if prefix_start > 0 && is_ident_char(chars[prefix_start - 1]) {
        return None;
    }
    Some(hashes)
}

/// Whether the `"` at `chars[i]` closes a raw string with `hashes` `#`s.
fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    let h = hashes as usize;
    i + h < chars.len() && chars[i + 1..=i + h].iter().all(|&c| c == '#')
}

/// If the `'` at `chars[i]` opens a char literal, returns the index of the
/// closing `'`; `None` if it is a lifetime.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        // `'\…'`: escaped char, possibly multi-character (`'\x7f'`,
        // `'\u{1F600}'`); scan ahead for the closing quote.
        Some('\\') => (i + 3..chars.len().min(i + 12)).find(|&j| chars[j] == '\''),
        // `'x'`: a plain one-character literal.
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 2),
        // `'ident` with no adjacent closing quote: a lifetime.
        _ => None,
    }
}

/// Whether `c` can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` contains `token` with identifier boundaries on both sides
/// (so `HashMap` does not match `MyHashMapLike`). Tokens may contain `::`.
pub fn contains_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap());
        let after = code[at + token.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_move_to_the_comment_channel() {
        let lines = lex("let x = 1; // SAFETY: fine\nlet y = 2;");
        assert_eq!(lines[0].code.trim_end(), "let x = 1;");
        assert_eq!(lines[0].comment, " SAFETY: fine");
        assert_eq!(lines[1].code, "let y = 2;");
        assert_eq!(lines[1].comment, "");
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_remain() {
        let lines = lex(r#"let s = "HashMap // not a comment";"#);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(!lines[0].code.contains("//"));
        assert_eq!(lines[0].comment, "");
        assert!(lines[0].code.contains('"'));
    }

    #[test]
    fn escaped_quote_does_not_close_a_string() {
        let lines = lex(r#"let s = "a\"b"; let t = HashMap;"#);
        assert!(contains_token(&lines[0].code, "HashMap"));
    }

    #[test]
    fn raw_strings_with_hashes_span_lines() {
        let src = "let s = r#\"line one HashMap\nline two \" quote\"#; let m = HashMap;";
        let lines = codes(src);
        assert!(!lines[0].contains("HashMap"));
        assert!(contains_token(&lines[1], "HashMap"));
    }

    #[test]
    fn raw_string_prefix_requires_a_boundary() {
        // `bar"…"` is a call-adjacent string, not a raw string: the `r` is
        // part of the identifier, so the plain-string rules apply.
        let lines = codes("foobar\"x\" + HashMap");
        assert!(contains_token(&lines[0], "HashMap"));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "a /* one /* two */ still comment */ b\nc";
        let lines = lex(src);
        assert!(lines[0].code.contains('a'));
        assert!(lines[0].code.contains('b'));
        assert!(!lines[0].code.contains("still"));
        assert!(lines[0].comment.contains("still comment"));
        assert_eq!(lines[1].code, "c");
    }

    #[test]
    fn block_comment_spanning_lines_keeps_commenting() {
        let src = "code(); /* SAFETY: spans\nstill comment */ more();";
        let lines = lex(src);
        assert!(lines[0].comment.contains("SAFETY"));
        assert!(!lines[1].code.contains("still"));
        assert!(lines[1].code.contains("more();"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let lines = codes("let c = 'a'; fn f<'a>(x: &'a str) { g('\\n') }");
        // Lifetimes survive as code; char contents are blanked.
        assert!(lines[0].contains("<'a>"));
        assert!(lines[0].contains("&'a str"));
        assert!(!lines[0].contains("\\n"));
    }

    #[test]
    fn token_boundaries_respect_identifiers() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("struct MyHashMapLike;", "HashMap"));
        assert!(!contains_token("let hashmap = 1;", "HashMap"));
        assert!(contains_token("std::env::var(\"X\")", "std::env"));
        assert!(!contains_token("mystd::envy", "std::env"));
    }
}

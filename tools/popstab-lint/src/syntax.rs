//! A token/item layer over the lexer's code channel.
//!
//! The lexer ([`crate::lexer`]) guarantees that string/char contents and
//! comments can never be mistaken for code; this module turns the surviving
//! code channel into a flat token stream and then into *items* — `fn`,
//! `struct`/`enum`/`trait`, `impl`, `mod`, `use`, `type` — each with a
//! token span and a test-context flag. The graph layer
//! ([`crate::graph`]) links items across files; the interprocedural rule
//! (`taint-ambient-nondeterminism`) consumes both.
//!
//! The parser is deliberately approximate: it never type-checks, it treats
//! the first `{` after a `fn` signature as the body, and it recurses into
//! every brace block it does not otherwise understand (so nested fns,
//! block-local `use`s, and items inside `impl`/`trait` bodies are all
//! found). `macro_rules!` definitions are skipped wholesale — `$`-fragment
//! pseudo-items would only pollute the symbol table. What keeps this sound
//! enough for linting is that braces always balance in lexed Rust, so a
//! misread item can mis-*label* a span but never desynchronize the walk.

use std::collections::BTreeMap;

use crate::lexer::LexedLine;

/// One code token: an identifier/number/lifetime, a `::`, or a single
/// punctuation character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: usize,
    /// The token text (identifiers keep their `r#` prefix).
    pub text: String,
}

impl Token {
    /// Whether this token is an identifier or keyword (starts with an
    /// XID-start character, `_`, or `r#`).
    pub fn is_ident(&self) -> bool {
        let t = self.text.strip_prefix("r#").unwrap_or(&self.text);
        t.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    }
}

/// What kind of item a span is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Trait,
    Impl,
    Mod,
}

/// One parsed item: a kind, a name, and a half-open token-index span that
/// covers the item keyword through its closing brace or semicolon (for a
/// `fn`, signature *and* body — so "does this fn mention X" is a span scan).
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// Token-index span into [`ParsedFile::tokens`].
    pub span: std::ops::Range<usize>,
    /// Whether the item sits in test context (`#[test]`, `#[cfg(test)]`, or
    /// inside a module that does).
    pub is_test: bool,
}

/// A fully parsed file: tokens, items, and the file's name-resolution map.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub tokens: Vec<Token>,
    pub items: Vec<Item>,
    /// Local name → full path, from `use` declarations and `type` aliases
    /// (`use std::time::Instant;` maps `Instant` → `std::time::Instant`;
    /// `type Cache = std::collections::HashMap<..>` maps `Cache` likewise).
    /// Flattened file-wide: block-local `use`s are treated as file-local,
    /// which over-approximates visibility — fine for a lint.
    pub aliases: BTreeMap<String, String>,
}

impl ParsedFile {
    /// Parses the lexed lines of one file.
    pub fn parse(lines: &[LexedLine]) -> ParsedFile {
        let tokens = tokenize(lines);
        let mut p = Parser {
            tokens: &tokens,
            items: Vec::new(),
            uses: BTreeMap::new(),
            type_aliases: Vec::new(),
        };
        p.block(0, tokens.len(), false);
        let items = p.items;
        let type_aliases = p.type_aliases;
        let mut aliases = p.uses;
        // Resolve type-alias right-hand sides through the `use` map once
        // (`type Cache = collections::HashMap<..>` with `use std::collections`
        // still lands on the std path).
        for (name, rhs) in type_aliases {
            let resolved = resolve_path(&aliases, &rhs);
            aliases.entry(name).or_insert(resolved);
        }
        ParsedFile {
            tokens,
            items,
            aliases,
        }
    }

    /// Resolves a `::`-joined path through this file's alias map (first
    /// segment only, like Rust name resolution at the use-declaration level).
    pub fn resolve(&self, path: &str) -> String {
        resolve_path(&self.aliases, path)
    }

    /// The maximal `a::b::c` path sequences inside a token span, resolved
    /// through the file's aliases, as `(line, resolved_path)` pairs.
    pub fn paths_in(&self, span: std::ops::Range<usize>) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let toks = &self.tokens[span];
        let mut i = 0;
        while i < toks.len() {
            if !toks[i].is_ident() {
                i += 1;
                continue;
            }
            let line = toks[i].line;
            let mut path = toks[i].text.clone();
            let mut j = i + 1;
            while j + 1 < toks.len() && toks[j].text == "::" && toks[j + 1].is_ident() {
                path.push_str("::");
                path.push_str(&toks[j + 1].text);
                j += 2;
            }
            out.push((line, resolve_path(&self.aliases, &path)));
            i = j;
        }
        out
    }

    /// Whether any token in `span` equals `ident` exactly.
    pub fn span_mentions(&self, span: std::ops::Range<usize>, ident: &str) -> bool {
        self.tokens[span].iter().any(|t| t.text == ident)
    }
}

fn resolve_path(aliases: &BTreeMap<String, String>, path: &str) -> String {
    let (first, rest) = match path.split_once("::") {
        Some((f, r)) => (f, Some(r)),
        None => (path, None),
    };
    match (aliases.get(first), rest) {
        (Some(full), Some(rest)) => format!("{full}::{rest}"),
        (Some(full), None) => full.clone(),
        (None, _) => path.to_string(),
    }
}

/// Splits the code channels into tokens. Identifiers (including `r#` raw
/// identifiers and numeric literals), lifetimes, `::`, and single
/// punctuation characters; blanked string literals collapse to `"` tokens.
pub fn tokenize(lines: &[LexedLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let mut text: String = chars[start..i].iter().collect();
                // `r#ident`: keep the prefix so `r#type` is never the
                // keyword `type`.
                if text == "r" && chars.get(i) == Some(&'#') {
                    let after = chars.get(i + 1);
                    if after.is_some_and(|&c| c.is_alphabetic() || c == '_') {
                        i += 1;
                        let start = i;
                        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                            i += 1;
                        }
                        text = format!("r#{}", chars[start..i].iter().collect::<String>());
                    }
                }
                out.push(Token {
                    line: idx + 1,
                    text,
                });
                continue;
            }
            if c == '\'' {
                // Lifetime (`'a`) or blanked char literal (`'   '`).
                if chars
                    .get(i + 1)
                    .is_some_and(|&c| c.is_alphabetic() || c == '_')
                {
                    let start = i;
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.push(Token {
                        line: idx + 1,
                        text: chars[start..i].iter().collect(),
                    });
                } else if let Some(close) = (i + 1..chars.len()).find(|&j| chars[j] == '\'') {
                    out.push(Token {
                        line: idx + 1,
                        text: "'_'".to_string(),
                    });
                    i = close + 1;
                } else {
                    i += 1;
                }
                continue;
            }
            if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Token {
                    line: idx + 1,
                    text: "::".to_string(),
                });
                i += 2;
                continue;
            }
            out.push(Token {
                line: idx + 1,
                text: c.to_string(),
            });
            i += 1;
        }
    }
    out
}

/// Item-declaring keywords the block walker dispatches on.
const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "default", "extern"];

struct Parser<'a> {
    tokens: &'a [Token],
    items: Vec<Item>,
    uses: BTreeMap<String, String>,
    type_aliases: Vec<(String, String)>,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    /// Index just past the bracket that matches the opener at `open`
    /// (clamped to `end`).
    fn skip_matched(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.text(open) {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.text(i) == o {
                depth += 1;
            } else if self.text(i) == c {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Walks `[i, end)` as item-position code, recording items and aliases.
    /// `in_test` marks every recorded item as test context.
    fn block(&mut self, mut i: usize, end: usize, in_test: bool) {
        let mut pending_test = false;
        while i < end {
            let t = self.text(i);
            // Attributes: `#[...]` attaches to the next item, `#![...]` to
            // the enclosing block (consumed, never attached).
            if t == "#" {
                let inner = self.text(i + 1) == "!";
                let open = if inner { i + 2 } else { i + 1 };
                if self.text(open) == "[" {
                    let close = self.skip_matched(open, end);
                    if !inner {
                        let toks = &self.tokens[open..close];
                        let has = |s: &str| toks.iter().any(|t| t.text == s);
                        if has("test") && !has("not") {
                            pending_test = true;
                        }
                    }
                    i = close;
                    continue;
                }
                i += 1;
                continue;
            }
            if MODIFIERS.contains(&t) {
                i += 1;
                // `pub(crate)` / `extern "C"`: swallow the qualifier.
                if self.text(i) == "(" {
                    i = self.skip_matched(i, end);
                } else if self.text(i) == "\"" {
                    while self.text(i) == "\"" {
                        i += 1;
                    }
                }
                continue;
            }
            match t {
                "use" => {
                    i = self.parse_use(i + 1, end);
                    pending_test = false;
                }
                "type" => {
                    i = self.parse_type_alias(i + 1, end);
                    pending_test = false;
                }
                "fn" => {
                    i = self.parse_fn(i, end, in_test || pending_test);
                    pending_test = false;
                }
                "mod" => {
                    i = self.parse_mod(i, end, in_test, pending_test);
                    pending_test = false;
                }
                "struct" | "enum" | "union" | "trait" | "impl" => {
                    i = self.parse_type_item(i, end, in_test || pending_test);
                    pending_test = false;
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }` — skip the body wholesale.
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    i = self.skip_matched(j, end);
                    pending_test = false;
                }
                "{" => {
                    // A block we do not otherwise understand (fn body
                    // statement, match arm, const block): walk inside so
                    // nested items and block-local `use`s are still found.
                    let close = self.skip_matched(i, end);
                    self.block(i + 1, close.saturating_sub(1), in_test);
                    i = close;
                    pending_test = false;
                }
                _ => {
                    i += 1;
                    if !t.is_empty() && t != "#" {
                        pending_test = false;
                    }
                }
            }
        }
    }

    /// `use a::b::{c, d as e};` starting just past the `use` keyword.
    fn parse_use(&mut self, mut i: usize, end: usize) -> usize {
        let semi = (i..end)
            .find(|&j| self.text(j) == ";")
            .unwrap_or(end.min(i + 64));
        self.parse_use_tree(i, semi, "");
        i = semi + 1;
        i
    }

    /// One use-tree in `[i, end)` with the already-accumulated `prefix`.
    fn parse_use_tree(&mut self, mut i: usize, end: usize, prefix: &str) {
        let mut path = prefix.to_string();
        let mut last_seg = String::new();
        while i < end {
            let t = self.text(i).to_string();
            if t == "::" {
                i += 1;
                continue;
            }
            if t == "{" {
                // Group: each comma-separated subtree extends `path`.
                let close = self.skip_matched(i, end);
                let mut start = i + 1;
                let mut depth = 0usize;
                for j in i + 1..close.saturating_sub(1) {
                    match self.text(j) {
                        "{" => depth += 1,
                        "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            self.parse_use_tree(start, j, &path.clone());
                            start = j + 1;
                        }
                        _ => {}
                    }
                }
                self.parse_use_tree(start, close.saturating_sub(1), &path.clone());
                return;
            }
            if t == "*" {
                return; // glob: nothing nameable to record
            }
            if t == "as" {
                let alias = self.text(i + 1).to_string();
                if !alias.is_empty() && !path.is_empty() {
                    self.uses.insert(alias, path);
                }
                return;
            }
            if self.tokens[i].is_ident() {
                if t == "self" {
                    // `a::b::self` (in a group) names the prefix itself.
                    last_seg = path.rsplit("::").next().unwrap_or("").to_string();
                } else {
                    if !path.is_empty() {
                        path.push_str("::");
                    }
                    path.push_str(&t);
                    last_seg = t;
                }
                i += 1;
                continue;
            }
            break;
        }
        if !last_seg.is_empty() && !path.is_empty() {
            self.uses.insert(last_seg, path);
        }
    }

    /// `type Name = rhs::Path<..>;` starting just past the `type` keyword.
    fn parse_type_alias(&mut self, i: usize, end: usize) -> usize {
        let name = self.text(i).to_string();
        let semi = (i..end).find(|&j| self.text(j) == ";").unwrap_or(end);
        if let Some(eq) = (i..semi).find(|&j| self.text(j) == "=") {
            // First path on the right-hand side (`HashMap` of
            // `HashMap<u32, Vec<u8>>`).
            let mut rhs = String::new();
            let mut j = eq + 1;
            while j < semi {
                let t = self.text(j);
                if self.tokens[j].is_ident() {
                    if !rhs.is_empty() {
                        rhs.push_str("::");
                    }
                    rhs.push_str(t);
                    j += 1;
                    if self.text(j) == "::" {
                        j += 1;
                        continue;
                    }
                    break;
                }
                if t == "&" || t == "'_'" || self.tokens[j].text.starts_with('\'') {
                    j += 1;
                    continue;
                }
                break;
            }
            if !name.is_empty() && !rhs.is_empty() {
                self.type_aliases.push((name, rhs));
            }
        }
        semi + 1
    }

    /// A `fn` item starting at the `fn` keyword. Records the item (span =
    /// keyword through body close) and walks the body for nested items.
    fn parse_fn(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        if !self.tokens.get(kw + 1).is_some_and(Token::is_ident) {
            return kw + 1; // `fn(u32)` pointer type, not an item
        }
        let name = self.text(kw + 1).to_string();
        let line = self.tokens[kw].line;
        let mut j = kw + 2;
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        let span_end = if self.text(j) == "{" {
            let close = self.skip_matched(j, end);
            self.block(j + 1, close.saturating_sub(1), is_test);
            close
        } else {
            j + 1 // trait/extern signature without a body
        };
        self.items.push(Item {
            kind: ItemKind::Fn,
            name,
            line,
            span: kw..span_end,
            is_test,
        });
        span_end
    }

    /// A `mod` item. `mod tests`-style test modules mark everything inside
    /// as test context even without the (conventional) `#[cfg(test)]`.
    fn parse_mod(&mut self, kw: usize, end: usize, in_test: bool, attr_test: bool) -> usize {
        let name = self.text(kw + 1).to_string();
        let line = self.tokens[kw].line;
        let mut j = kw + 2;
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            j += 1;
        }
        let is_test = in_test || attr_test || name == "tests";
        let span_end = if self.text(j) == "{" {
            let close = self.skip_matched(j, end);
            self.block(j + 1, close.saturating_sub(1), is_test);
            close
        } else {
            j + 1
        };
        self.items.push(Item {
            kind: ItemKind::Mod,
            name,
            line,
            span: kw..span_end,
            is_test,
        });
        span_end
    }

    /// `struct`/`enum`/`union`/`trait`/`impl`. Trait and impl bodies are
    /// walked so their methods become items.
    fn parse_type_item(&mut self, kw: usize, end: usize, is_test: bool) -> usize {
        let keyword = self.text(kw).to_string();
        let kind = match keyword.as_str() {
            "struct" | "union" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "trait" => ItemKind::Trait,
            _ => ItemKind::Impl,
        };
        let line = self.tokens[kw].line;
        // Name: first ident after the keyword for nominal types; for `impl`,
        // the last path ident before the opening brace (`impl Foo for Bar`
        // → `Bar`).
        let mut j = kw + 1;
        let mut name = String::new();
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            if kind != ItemKind::Impl && name.is_empty() && self.tokens[j].is_ident() {
                name = self.text(j).to_string();
            }
            if kind == ItemKind::Impl && self.tokens[j].is_ident() {
                name = self.text(j).to_string();
            }
            // Tuple-struct bodies (`struct Foo(u32);`) hide the `;` inside
            // parens only when a generic default does — skip groups anyway.
            if self.text(j) == "(" || self.text(j) == "[" {
                j = self.skip_matched(j, end);
                continue;
            }
            j += 1;
        }
        let span_end = if self.text(j) == "{" {
            let close = self.skip_matched(j, end);
            if matches!(kind, ItemKind::Trait | ItemKind::Impl) {
                self.block(j + 1, close.saturating_sub(1), is_test);
            }
            close
        } else {
            j + 1
        };
        self.items.push(Item {
            kind,
            name,
            line,
            span: kw..span_end,
            is_test,
        });
        span_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&lex(src))
    }

    fn fns(p: &ParsedFile) -> Vec<(&str, bool)> {
        p.items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.as_str(), i.is_test))
            .collect()
    }

    #[test]
    fn fns_and_nested_fns_are_items() {
        let p = parse("fn outer() {\n    fn inner(x: u32) -> u32 { x }\n    inner(1);\n}\n");
        assert_eq!(fns(&p), vec![("inner", false), ("outer", false)]);
        // The outer span covers the inner fn's tokens.
        let outer = p.items.iter().find(|i| i.name == "outer").unwrap();
        assert!(p.span_mentions(outer.span.clone(), "inner"));
    }

    #[test]
    fn impl_methods_and_trait_sigs_are_items() {
        let src = "struct S;\nimpl S {\n    pub fn a(&self) {}\n}\ntrait T {\n    fn b(&self);\n    fn c(&self) { self.b() }\n}\n";
        let p = parse(src);
        let names: Vec<&str> = fns(&p).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(p.items.iter().any(|i| i.kind == ItemKind::Impl));
        assert!(p
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Trait && i.name == "T"));
    }

    #[test]
    fn cfg_test_modules_and_test_attrs_mark_items() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() { helper() }\n}\n#[test]\nfn top_level_case() {}\n";
        let p = parse(src);
        assert_eq!(
            fns(&p),
            vec![
                ("prod", false),
                ("helper", true),
                ("case", true),
                ("top_level_case", true),
            ]
        );
    }

    #[test]
    fn cfg_not_test_is_not_test_context() {
        let p = parse("#[cfg(not(test))]\nfn prod() {}\n");
        assert_eq!(fns(&p), vec![("prod", false)]);
    }

    #[test]
    fn use_aliases_resolve_including_groups_and_renames() {
        let src = "use std::time::Instant;\nuse std::collections::{BTreeMap, HashMap as Map};\nuse crate::engine::{self, Engine};\n";
        let p = parse(src);
        assert_eq!(p.resolve("Instant::now"), "std::time::Instant::now");
        assert_eq!(p.resolve("Map"), "std::collections::HashMap");
        assert_eq!(p.resolve("BTreeMap"), "std::collections::BTreeMap");
        assert_eq!(p.resolve("engine::shard"), "crate::engine::shard");
        assert_eq!(p.resolve("Engine"), "crate::engine::Engine");
        assert_eq!(p.resolve("unknown::path"), "unknown::path");
    }

    #[test]
    fn type_aliases_resolve_through_uses() {
        let src =
            "use std::collections::HashMap;\ntype Cache = HashMap<u32, u64>;\nfn f(c: &Cache) {}\n";
        let p = parse(src);
        assert_eq!(p.resolve("Cache"), "std::collections::HashMap");
        assert_eq!(p.resolve("Cache::new"), "std::collections::HashMap::new");
    }

    #[test]
    fn paths_in_span_resolve_through_aliases() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let p = parse(src);
        let f = p.items.iter().find(|i| i.name == "f").unwrap();
        let paths: Vec<String> = p
            .paths_in(f.span.clone())
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        assert!(paths.contains(&"std::time::Instant::now".to_string()));
    }

    #[test]
    fn raw_identifiers_never_become_keywords() {
        let p = parse("fn r#type() {}\nfn caller() { r#type(); }\n");
        assert_eq!(fns(&p), vec![("r#type", false), ("caller", false)]);
    }

    #[test]
    fn macro_rules_bodies_produce_no_items() {
        let src = "macro_rules! mk {\n    ($n:ident) => { fn $n() {} };\n}\nfn real() {}\n";
        let p = parse(src);
        assert_eq!(fns(&p), vec![("real", false)]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse("fn takes(cb: fn(u32) -> u32) -> u32 { cb(1) }\n");
        assert_eq!(fns(&p), vec![("takes", false)]);
    }

    #[test]
    fn lifetimes_and_char_literals_tokenize_apart() {
        let toks = tokenize(&lex("fn f<'a>(x: &'a str) { g('q') }"));
        assert!(toks.iter().any(|t| t.text == "'a"));
        assert!(toks.iter().any(|t| t.text == "'_'"));
        // The char literal's content never surfaces as an identifier.
        assert!(!toks.iter().any(|t| t.text == "q"));
    }
}

//! A minimal hand-rolled Rust tokenizer for the source lints.
//!
//! Deliberately not a parser (and deliberately not `syn`: the workspace
//! is registry-free). It produces identifiers, punctuation, literals and
//! lifetimes with line numbers, skips comments, and marks the token span
//! of every `#[cfg(test)]` / `#[test]` item so lints skip test code.
//! String, raw-string, byte-string and char literals are consumed
//! atomically, so a `lock()` inside a string never confuses a lint.

#![allow(
    clippy::indexing_slicing,
    reason = "byte/token cursor bounded by the loop conditions; `in_test` is built to `tokens.len()` by construction"
)]

/// One lexed token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character.
    Punct(char),
    /// A string, char or numeric literal (value discarded).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// 1-based source line the token starts on.
    pub line: usize,
}

/// A lexed source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// All tokens outside comments, in source order.
    pub tokens: Vec<Token>,
    /// `in_test[i]` marks `tokens[i]` as part of a test-gated item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// The identifier at token index `i`, if it is one.
    pub fn ident_at(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// `true` when token `i` is the punctuation character `c`.
    pub fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and test-span markers.
pub fn lex(source: &str) -> SourceFile {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < chars.len() && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            let start_line = line;
            i = lex_string(&chars, i, &mut line);
            tokens.push(Token {
                tok: Tok::Literal,
                line: start_line,
            });
        } else if c == '\'' {
            let start_line = line;
            let (tok, next) = lex_quote(&chars, i);
            i = next;
            tokens.push(Token {
                tok,
                line: start_line,
            });
        } else if is_ident_start(c) {
            // A raw/byte-string prefix (`r"`, `r#"`, `b"`, `br#"`) lexes
            // as one literal, not an ident followed by garbage.
            if let Some(next) = try_string_prefix(&chars, i, &mut line) {
                let start_line = line;
                tokens.push(Token {
                    tok: Tok::Literal,
                    line: start_line,
                });
                i = next;
                continue;
            }
            let mut j = i + 1;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            tokens.push(Token {
                tok: Tok::Ident(chars[i..j].iter().collect()),
                line,
            });
            i = j;
        } else if c.is_ascii_digit() {
            // Numbers: digits plus alphanumeric suffix/radix chars. Dots
            // are left out on purpose (`1.5` lexes as three tokens, which
            // is fine for every lint here and keeps `..` unambiguous).
            let mut j = i + 1;
            while j < chars.len() && is_ident_continue(chars[j]) {
                j += 1;
            }
            tokens.push(Token {
                tok: Tok::Literal,
                line,
            });
            i = j;
        } else {
            tokens.push(Token {
                tok: Tok::Punct(c),
                line,
            });
            i += 1;
        }
    }
    let in_test = mark_tests(&tokens);
    SourceFile { tokens, in_test }
}

/// Consumes a normal (escaped) string literal starting at the opening
/// quote; returns the index one past the closing quote.
fn lex_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut j = start + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Consumes a raw string literal `r#*"..."#*` starting at the first `#`
/// or quote (after the `r`); returns the index one past the end.
fn lex_raw_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut hashes = 0usize;
    let mut j = start;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(chars.get(j), Some(&'"'));
    j += 1;
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
        } else if chars[j] == '"'
            && chars[j + 1..]
                .iter()
                .take(hashes)
                .filter(|c| **c == '#')
                .count()
                == hashes
        {
            return j + 1 + hashes;
        } else {
            j += 1;
        }
    }
    j
}

/// If position `i` starts a raw or byte string (`r"`, `r#"`, `b"`,
/// `br"`, `br#"`), consumes it and returns the index past its end.
fn try_string_prefix(chars: &[char], i: usize, line: &mut usize) -> Option<usize> {
    let c = chars[i];
    if c == 'r' || c == 'b' {
        let mut j = i + 1;
        if c == 'b' && chars.get(j) == Some(&'r') {
            j += 1;
        }
        let raw = j > i + 1 || c == 'r';
        if raw {
            let mut k = j;
            while chars.get(k) == Some(&'#') {
                k += 1;
            }
            if chars.get(k) == Some(&'"') {
                return Some(lex_raw_string(chars, j, line));
            }
            return None;
        }
        // plain byte string b"..."
        if chars.get(j) == Some(&'"') {
            return Some(lex_string(chars, j, line));
        }
    }
    None
}

/// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal),
/// starting at the quote. Returns the token and the next index.
fn lex_quote(chars: &[char], i: usize) -> (Tok, usize) {
    match chars.get(i + 1) {
        Some(&'\\') => {
            // Escaped char literal: '\n', '\\', '\u{..}', '\x41'.
            let mut j = i + 2;
            match chars.get(j) {
                Some(&'u') => {
                    j += 1;
                    if chars.get(j) == Some(&'{') {
                        while j < chars.len() && chars[j] != '}' {
                            j += 1;
                        }
                        j += 1;
                    }
                }
                Some(&'x') => j += 3,
                Some(_) => j += 1,
                None => {}
            }
            if chars.get(j) == Some(&'\'') {
                j += 1;
            }
            (Tok::Literal, j)
        }
        Some(&c) if is_ident_start(c) => {
            if chars.get(i + 2) == Some(&'\'') {
                // 'a'
                (Tok::Literal, i + 3)
            } else {
                // lifetime: consume ident chars
                let mut j = i + 2;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                (Tok::Lifetime, j)
            }
        }
        Some(&c) => {
            // Char literal of punctuation, e.g. '(' or ' '.
            let j = if chars.get(i + 2) == Some(&'\'') && c != '\'' {
                i + 3
            } else {
                i + 2
            };
            (Tok::Literal, j)
        }
        None => (Tok::Punct('\''), i + 1),
    }
}

/// Marks every token belonging to a `#[cfg(test)]` / `#[test]` item.
///
/// Heuristic, not a parser: a test attribute marks everything through
/// the end of the following item (matched braces, or a `;` at brace
/// depth zero). `cfg` attributes containing `not` (e.g. `cfg(not(test))`)
/// are never treated as test gates.
fn mark_tests(tokens: &[Token]) -> Vec<bool> {
    let mut marked = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_punct(tokens, i, '#') && is_punct(tokens, i + 1, '[') {
            let close = match_bracket(tokens, i + 1);
            if attr_is_test(&tokens[i + 2..close]) {
                let mut j = close + 1;
                // Skip any further attributes stacked on the item.
                while is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
                    j = match_bracket(tokens, j + 1) + 1;
                }
                let end = item_end(tokens, j);
                for flag in marked.iter_mut().take(end.min(tokens.len())).skip(i) {
                    *flag = true;
                }
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    marked
}

fn is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Index of the `]` matching the `[` at `open`.
fn match_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Does an attribute token list mark a test item?
fn attr_is_test(attr: &[Token]) -> bool {
    let first = match attr.first().map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s.as_str(),
        _ => return false,
    };
    let has = |name: &str| {
        attr.iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
    };
    match first {
        "test" => true,
        "cfg" => has("test") && !has("not"),
        _ => false,
    }
}

/// One past the last token of the item starting at `start`: the matching
/// `}` of its first brace, or a `;` before any brace opens.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(sf: &SourceFile) -> Vec<String> {
        sf.tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_chars_are_opaque() {
        let sf = lex(r#"let s = "a.unwrap()"; let c = 'x'; let l: &'a str = s;"#);
        assert!(!idents(&sf).iter().any(|s| s == "unwrap"));
        assert!(sf.tokens.iter().any(|t| t.tok == Tok::Lifetime));
    }

    #[test]
    fn raw_strings_with_trailing_backslash() {
        let sf = lex(r##"let s = r"ends with \"; foo.unwrap();"##);
        assert!(idents(&sf).iter().any(|s| s == "unwrap"));
    }

    #[test]
    fn comments_are_skipped_and_keep_line_numbers() {
        let sf = lex("let a = 1;\n// x.unwrap()\n/* y.unwrap()\n */ let b = 2;\n");
        assert!(!idents(&sf).iter().any(|s| s == "unwrap"));
        assert_eq!(sf.tokens.last().map(|t| t.line), Some(4));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let sf = lex(src);
        let unwraps: Vec<(usize, bool)> = sf
            .tokens
            .iter()
            .zip(&sf.in_test)
            .filter(|(t, _)| matches!(&t.tok, Tok::Ident(s) if s == "unwrap"))
            .map(|(t, m)| (t.line, *m))
            .collect();
        assert_eq!(unwraps, vec![(1, false), (3, true)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_gate() {
        let sf = lex("#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        assert!(sf.in_test.iter().all(|m| !m));
    }

    #[test]
    fn test_attribute_marks_whole_fn() {
        let sf = lex("#[test]\n#[ignore]\nfn t() { y.unwrap(); }\nfn live() { z.unwrap(); }\n");
        let unwraps: Vec<bool> = sf
            .tokens
            .iter()
            .zip(&sf.in_test)
            .filter(|(t, _)| matches!(&t.tok, Tok::Ident(s) if s == "unwrap"))
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let sf = lex("let s = \"line\nline\nline\";\nfoo();\n");
        let foo = sf
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "foo"))
            .unwrap();
        assert_eq!(foo.line, 4);
    }
}

//! A comment/string/raw-string–correct Rust lexer.
//!
//! This is the single place in the repo that knows how to separate Rust
//! *code* from comments and literals: every `zsaudit` pass consumes its
//! token stream.
//!
//! The lexer is deliberately small: it produces identifiers, lifetimes,
//! literals, and single-character punctuation with exact line numbers
//! and byte spans. It does **not** try to be a full Rust grammar — the
//! item parser on top of it ([`super::items`]) recovers only what the
//! audit passes need (functions, bodies, calls).
//!
//! Handled correctly (the classes the old purely-textual scanner got
//! wrong or nearly wrong):
//!
//! * nested block comments `/* /* */ */`;
//! * cooked strings with escapes (`"\\"`, `"\""`);
//! * **raw strings** `r"…"`, `r#"…"#`, … — no escape processing, so
//!   `r"\"` ends at the second quote instead of swallowing the rest of
//!   the file;
//! * byte strings/chars `b"…"`, `b'x'` and raw byte strings `br#"…"#`;
//! * char literals vs lifetimes (`'a'` vs `'a`), including punctuation
//!   chars like `'{'` and `'}'`.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Lifetime (`'a`, `'static`). Distinct from char literals.
    Lifetime,
    /// String literal of any flavor (cooked, raw, byte, raw byte).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct(char),
    /// Line or block comment (the item parser filters these out).
    Comment,
}

/// One lexed token: kind, exact source span, and 1-based line number.
#[derive(Debug, Clone)]
pub struct Token {
    /// What the token is.
    pub kind: TokKind,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of the first character.
    pub line: usize,
}

impl Token {
    /// The token's source text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// For [`TokKind::Str`] tokens: the literal's contents (between the
    /// quotes, raw-prefix and hashes stripped). Escapes are not
    /// processed — good enough for recovering lock names, which the
    /// audit requires to be plain.
    pub fn str_contents<'s>(&self, src: &'s str) -> &'s str {
        let t = self.text(src);
        let open = match t.find('"') {
            Some(i) => i,
            None => return "",
        };
        let hashes = t[..open].chars().filter(|&c| c == '#').count();
        let body = &t[open + 1..];
        let close = body.len().saturating_sub(1 + hashes);
        body.get(..close).unwrap_or("")
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor {
    chars: Vec<(usize, char)>,
    src_len: usize,
    i: usize,
    line: usize,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.char_indices().collect(),
            src_len: src.len(),
            i: 0,
            line: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn pos(&self) -> usize {
        self.chars
            .get(self.i)
            .map(|&(p, _)| p)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        if c == '\n' {
            self.line += 1;
        }
        self.i += 1;
        Some(c)
    }

    /// Consumes a cooked (escape-processing) string/char body after the
    /// opening delimiter, up to and including the closing `delim`.
    fn eat_cooked(&mut self, delim: char) {
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == delim {
                break;
            }
        }
    }

    /// Consumes a raw string body after `r`/`br` given `hashes` leading
    /// `#`s and the opening quote have been consumed: ends at `"`
    /// followed by `hashes` `#`s. No escapes.
    fn eat_raw(&mut self, hashes: usize) {
        while let Some(c) = self.bump() {
            if c != '"' {
                continue;
            }
            let mut ok = true;
            for k in 0..hashes {
                if self.peek(k) != Some('#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }
}

/// Lexes `src` into a token stream (comments included).
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let start = cur.pos();
        let line = cur.line;
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            while let Some(c2) = cur.peek(0) {
                if c2 == '\n' {
                    break;
                }
                cur.bump();
            }
            out.push(Token {
                kind: TokKind::Comment,
                start,
                end: cur.pos(),
                line,
            });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            out.push(Token {
                kind: TokKind::Comment,
                start,
                end: cur.pos(),
                line,
            });
            continue;
        }
        // Identifiers, and the string/char prefixes that look like them
        // (r"", r#""#, b"", b'', br#""#, c"").
        if is_ident_start(c) {
            let mut ident = String::new();
            while let Some(c2) = cur.peek(0) {
                if is_ident_cont(c2) {
                    ident.push(c2);
                    cur.bump();
                } else {
                    break;
                }
            }
            let raw = matches!(ident.as_str(), "r" | "br" | "cr");
            let stringish = raw || matches!(ident.as_str(), "b" | "c");
            if stringish {
                // Count `#`s, then require `"` for a raw literal; plain
                // `b"`/`c"` need the quote immediately.
                let mut hashes = 0usize;
                while raw && cur.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if cur.peek(hashes) == Some('"') && (raw || hashes == 0) {
                    for _ in 0..=hashes {
                        cur.bump(); // hashes + opening quote
                    }
                    if raw {
                        cur.eat_raw(hashes);
                    } else {
                        cur.eat_cooked('"');
                    }
                    out.push(Token {
                        kind: TokKind::Str,
                        start,
                        end: cur.pos(),
                        line,
                    });
                    continue;
                }
                if ident == "b" && cur.peek(0) == Some('\'') {
                    cur.bump();
                    cur.eat_cooked('\'');
                    out.push(Token {
                        kind: TokKind::Char,
                        start,
                        end: cur.pos(),
                        line,
                    });
                    continue;
                }
            }
            out.push(Token {
                kind: TokKind::Ident,
                start,
                end: cur.pos(),
                line,
            });
            continue;
        }
        // Strings.
        if c == '"' {
            cur.bump();
            cur.eat_cooked('"');
            out.push(Token {
                kind: TokKind::Str,
                start,
                end: cur.pos(),
                line,
            });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = cur.peek(1);
            let is_char = match next {
                Some('\\') => true,
                // 'x' (any single char followed by a closing quote,
                // covering punctuation chars like '{').
                Some(_) => cur.peek(2) == Some('\''),
                None => false,
            };
            if is_char {
                cur.bump();
                cur.eat_cooked('\'');
                out.push(Token {
                    kind: TokKind::Char,
                    start,
                    end: cur.pos(),
                    line,
                });
            } else {
                // Lifetime: `'` + identifier, no closing quote.
                cur.bump();
                while let Some(c2) = cur.peek(0) {
                    if is_ident_cont(c2) {
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Lifetime,
                    start,
                    end: cur.pos(),
                    line,
                });
            }
            continue;
        }
        // Numbers (enough to keep `1.0e-3`, `0xFF`, `1_000` atomic; `..`
        // after an integer stays punctuation).
        if c.is_ascii_digit() {
            cur.bump();
            while let Some(c2) = cur.peek(0) {
                let in_float =
                    c2 == '.' && cur.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false);
                if is_ident_cont(c2) || in_float {
                    cur.bump();
                } else {
                    break;
                }
            }
            out.push(Token {
                kind: TokKind::Num,
                start,
                end: cur.pos(),
                line,
            });
            continue;
        }
        // Single punctuation char.
        cur.bump();
        out.push(Token {
            kind: TokKind::Punct(c),
            start,
            end: cur.pos(),
            line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let toks = lex("fn f() {\n  x.unwrap()\n}\n");
        let unwrap = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.text("fn f() {\n  x.unwrap()\n}\n") == "unwrap")
            .unwrap();
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* x /* y */ z */ b";
        let toks = lex(src);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn raw_string_with_backslash_before_quote() {
        // The classic textual-scanner killer: `r"\"` is a complete raw
        // string (backslash is literal); the old scanner treated `\"` as
        // an escape and swallowed the rest of the file.
        let src = "let p = r\"\\\"; x.unwrap();";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text(src), "r\"\\\"");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert!(idents.contains(&"unwrap"), "{idents:?}");
    }

    #[test]
    fn raw_hash_strings_and_contents() {
        let src = r##"let s = r#"has "quotes" and \ raw"#;"##;
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.str_contents(src), r#"has "quotes" and \ raw"#);
    }

    #[test]
    fn byte_and_c_strings() {
        assert!(kinds("b\"bytes\"").contains(&TokKind::Str));
        assert!(kinds("br#\"raw bytes\"#").contains(&TokKind::Str));
        assert!(kinds("b'x'").contains(&TokKind::Char));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "let c = '{'; let d: &'static str = \"s\"; fn f<'a>() {}";
        let toks = lex(src);
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text(src), "'{'");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, ["'static", "'a"]);
    }
}

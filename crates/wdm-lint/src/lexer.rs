//! A minimal Rust token scanner.
//!
//! This is not a full lexer: it splits a source file into just enough
//! token structure for the lint rules in [`crate::source`] — identifiers,
//! punctuation, literals, and comments — with accurate line/column spans.
//! The tricky parts it does handle correctly are the parts that would
//! otherwise corrupt every downstream rule: nested block comments, raw
//! strings (`r#"…"#` with any number of hashes), byte strings, and the
//! char-literal vs. lifetime ambiguity (`'a'` vs `'a`).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `Vec`, …).
    Ident,
    /// A lifetime such as `'a` (including the quote).
    Lifetime,
    /// String/char/byte/numeric literal.
    Literal,
    /// `// …` comment, including doc comments (`///`, `//!`).
    LineComment,
    /// `/* … */` comment (possibly nested), including `/** … */`.
    BlockComment,
    /// A single punctuation character (`.`, `(`, `{`, `!`, `:`, …).
    Punct,
}

/// One lexeme with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of lexeme this is.
    pub kind: TokenKind,
    /// The raw source text of the lexeme.
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
    /// 1-based column (in characters) of the first character.
    pub col: usize,
}

impl Token {
    /// True for `Ident` tokens whose text equals `kw`.
    pub fn is_ident(&self, kw: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == kw
    }

    /// True for `Punct` tokens whose text equals `p`.
    pub fn is_punct(&self, p: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == p.len_utf8() && self.text.starts_with(p)
    }

    /// True for either comment kind.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// True for doc comments (`///`, `//!`, `/**`, `/*!`) — but not the
    /// plain `//` and `/*` forms, and not the degenerate `//// …` or
    /// `/***/`-style rulers which rustdoc also ignores.
    pub fn is_doc_comment(&self) -> bool {
        match self.kind {
            TokenKind::LineComment => {
                (self.text.starts_with("///") && !self.text.starts_with("////"))
                    || self.text.starts_with("//!")
            }
            TokenKind::BlockComment => {
                (self.text.starts_with("/**") && !self.text.starts_with("/***"))
                    || self.text.starts_with("/*!")
            }
            _ => false,
        }
    }

    /// True for outer doc comments (`///`, `/**`), which document the
    /// item after them; inner `//!`/`/*!` docs document the enclosing
    /// module or crate.
    pub fn is_outer_doc_comment(&self) -> bool {
        self.is_doc_comment() && !self.text.starts_with("//!") && !self.text.starts_with("/*!")
    }
}

struct Cursor<'a> {
    rest: std::str::Chars<'a>,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            rest: src.chars(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest.clone().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.rest.clone();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.rest.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Counts leading `#` characters after an `r`/`br` prefix to decide
/// whether a raw string starts here, without consuming the cursor.
fn raw_string_hashes(cur: &Cursor<'_>) -> Option<usize> {
    let mut it = cur.rest.clone();
    let mut hashes = 0usize;
    loop {
        match it.next() {
            Some('#') => hashes += 1,
            Some('"') => return Some(hashes),
            _ => return None,
        }
    }
}

/// Splits `src` into tokens. Whitespace is dropped; everything else —
/// including comments — is kept with its span.
pub fn tokenize(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut tokens = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek2() == Some('/') {
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            tokens.push(Token {
                kind: TokenKind::LineComment,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            let mut text = String::new();
            text.push(cur.bump().unwrap_or('/'));
            text.push(cur.bump().unwrap_or('*'));
            let mut depth = 1usize;
            while depth > 0 {
                match cur.peek() {
                    Some('*') if cur.peek2() == Some('/') => {
                        text.push('*');
                        text.push('/');
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                    }
                    Some('/') if cur.peek2() == Some('*') => {
                        text.push('/');
                        text.push('*');
                        cur.bump();
                        cur.bump();
                        depth += 1;
                    }
                    Some(c) => {
                        text.push(c);
                        cur.bump();
                    }
                    None => break, // unterminated comment: tolerate
                }
            }
            tokens.push(Token {
                kind: TokenKind::BlockComment,
                text,
                line,
                col,
            });
            continue;
        }
        // Raw / byte-string prefixes: r"…", r#"…"#, br#"…"#, b"…".
        if c == 'r' || c == 'b' {
            let mut probe = cur.rest.clone();
            probe.next();
            let mut prefix = String::from(c);
            let mut after = probe.clone().next();
            if c == 'b' && after == Some('r') {
                prefix.push('r');
                probe.next();
                after = probe.clone().next();
            }
            let raw = prefix.ends_with('r');
            let is_string_start = if raw {
                // Hashes-then-quote decides raw string vs identifier.
                let mut it = probe.clone();
                loop {
                    match it.next() {
                        Some('#') => continue,
                        Some('"') => break true,
                        _ => break false,
                    }
                }
            } else {
                matches!(after, Some('"') | Some('\''))
            };
            if is_string_start {
                let mut text = String::new();
                for _ in 0..prefix.len() {
                    if let Some(ch) = cur.bump() {
                        text.push(ch);
                    }
                }
                if raw {
                    let hashes = raw_string_hashes(&cur).unwrap_or(0);
                    for _ in 0..hashes {
                        if let Some(ch) = cur.bump() {
                            text.push(ch);
                        }
                    }
                    if let Some(ch) = cur.bump() {
                        text.push(ch); // opening quote
                    }
                    let closer: String = std::iter::once('"')
                        .chain((0..hashes).map(|_| '#'))
                        .collect();
                    let mut tail = String::new();
                    while let Some(ch) = cur.bump() {
                        tail.push(ch);
                        if tail.ends_with(&closer) {
                            break;
                        }
                    }
                    text.push_str(&tail);
                } else {
                    let quote = cur.peek().unwrap_or('"');
                    scan_quoted(&mut cur, quote, &mut text);
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text,
                    line,
                    col,
                });
                continue;
            }
            // else: fall through to identifier handling below
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '"' {
            let mut text = String::new();
            scan_quoted(&mut cur, '"', &mut text);
            tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '\'' {
            // Lifetime ('a, 'static) vs char literal ('a', '\n', '\u{1}').
            // A lifetime is ' followed by ident chars NOT followed by a
            // closing quote; everything else is a char literal.
            let next = cur.peek2();
            let is_lifetime = match next {
                Some(n) if is_ident_start(n) => {
                    // Scan ahead: ident chars then a quote ⇒ char literal.
                    let mut it = cur.rest.clone();
                    it.next(); // the opening '
                    let mut saw_quote = false;
                    for c2 in it {
                        if is_ident_continue(c2) {
                            continue;
                        }
                        saw_quote = c2 == '\'';
                        break;
                    }
                    !saw_quote
                }
                _ => false,
            };
            if is_lifetime {
                let mut text = String::new();
                text.push(cur.bump().unwrap_or('\''));
                while let Some(c) = cur.peek() {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                    col,
                });
            } else {
                let mut text = String::new();
                scan_quoted(&mut cur, '\'', &mut text);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text,
                    line,
                    col,
                });
            }
            continue;
        }
        if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(c) = cur.peek() {
                // Good enough for lint purposes: digits, underscores,
                // radix/exponent letters, and `.` followed by a digit.
                if is_ident_continue(c)
                    || (c == '.' && cur.peek2().is_some_and(|d| d.is_ascii_digit()))
                {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line,
                col,
            });
            continue;
        }
        // Anything else: single punctuation character.
        let mut text = String::new();
        if let Some(ch) = cur.bump() {
            text.push(ch);
        }
        tokens.push(Token {
            kind: TokenKind::Punct,
            text,
            line,
            col,
        });
    }
    tokens
}

/// Index of the next non-comment token after `i`.
pub(crate) fn next_code(toks: &[Token], i: usize) -> Option<usize> {
    ((i + 1)..toks.len()).find(|&j| !toks[j].is_comment())
}

/// Index of the previous non-comment token before `i`.
pub(crate) fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| !t.is_comment())
}

/// Index of the `}` matching the `{` at `open`, or `toks.len()` when the
/// braces never balance.
pub(crate) fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Consumes a quoted literal starting at the opening `quote`, honoring
/// backslash escapes, appending the raw text to `out`.
fn scan_quoted(cur: &mut Cursor<'_>, quote: char, out: &mut String) {
    if let Some(ch) = cur.bump() {
        out.push(ch); // opening quote
    }
    loop {
        match cur.bump() {
            Some('\\') => {
                out.push('\\');
                if let Some(escaped) = cur.bump() {
                    out.push(escaped);
                }
            }
            Some(ch) => {
                out.push(ch);
                if ch == quote {
                    break;
                }
            }
            None => break, // unterminated literal: tolerate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn main() {}");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "fn".into()),
                (TokenKind::Ident, "main".into()),
                (TokenKind::Punct, "(".into()),
                (TokenKind::Punct, ")".into()),
                (TokenKind::Punct, "{".into()),
                (TokenKind::Punct, "}".into()),
            ]
        );
    }

    #[test]
    fn line_and_col_are_one_based() {
        let toks = tokenize("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert_eq!(toks[0].1, "/* a /* b */ c */");
        assert_eq!(toks[1], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn raw_strings_ignore_quotes_and_comments_inside() {
        let toks = kinds(r####"let s = r#"// not " a comment"# ;"####);
        let lit = toks
            .iter()
            .find(|(k, _)| *k == TokenKind::Literal)
            .expect("literal");
        assert_eq!(lit.1, r####"r#"// not " a comment"#"####);
        assert_eq!(toks.last(), Some(&(TokenKind::Punct, ";".into())));
    }

    #[test]
    fn byte_and_plain_strings() {
        let toks = kinds(r#"let x = b"ab\"c" ; let y = "d//e";"#);
        let lits: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Literal)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lits, vec![r#"b"ab\"c""#, r#""d//e""#]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let lits: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Literal)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lits, vec!["'x'", "'\\n'"]);
    }

    #[test]
    fn char_literal_static_like() {
        // 'static is a lifetime even though "static" is long.
        let toks = kinds("&'static str");
        assert!(toks.contains(&(TokenKind::Lifetime, "'static".into())));
    }

    #[test]
    fn doc_comment_detection() {
        let toks =
            tokenize("/// doc\n//! inner\n// plain\n//// ruler\n/** block */\n/*** ruler */");
        let docness: Vec<bool> = toks.iter().map(|t| t.is_doc_comment()).collect();
        assert_eq!(docness, vec![true, true, false, false, true, false]);
    }

    #[test]
    fn numbers_including_floats_and_suffixes() {
        let toks = kinds("1_000 2.5 3usize 0xff_u8");
        assert!(toks.iter().all(|(k, _)| *k == TokenKind::Literal));
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[1].1, "2.5");
    }

    #[test]
    fn method_range_is_not_float() {
        // `0..n` must not glue `0.` into a float.
        let toks = kinds("for i in 0..n {}");
        assert!(toks.contains(&(TokenKind::Literal, "0".into())));
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokenKind::Punct && t == ".")
                .count(),
            2
        );
    }
}

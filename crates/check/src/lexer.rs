//! A minimal hand-rolled Rust token scanner.
//!
//! Just enough lexical structure for the lint rules in [`crate::rules`]:
//! identifiers, numeric/string/char literals, comments (kept as tokens —
//! the allowlist and the `hot`/`cold` annotations need them) and
//! punctuation, each tagged with its 1-based source line. It is *not* a full Rust lexer: shebangs,
//! unicode identifiers and a few exotic literal forms are out of scope
//! for this workspace.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `pub`, `as`, `unwrap`, …).
    Ident,
    /// Numeric literal, integer or float, including any suffix.
    Number,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// `//` comment, doc comments included.
    LineComment,
    /// `/* */` comment, doc comments included.
    BlockComment,
    /// Punctuation. `==` and `!=` are fused into one token; everything
    /// else is a single character.
    Punct,
}

/// One token with its text and the line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Verbatim source text.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Token {
    fn new(kind: TokenKind, text: &str, line: u32) -> Self {
        Token {
            kind,
            text: text.to_string(),
            line,
        }
    }

    /// True for comment tokens of either flavor.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenizes `src`. Never fails: unrecognized bytes come out as
/// single-character [`TokenKind::Punct`] tokens, so rules degrade
/// gracefully on input the scanner does not fully understand.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        b: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.b.get(self.i + ahead).unwrap_or(&0)
    }

    fn run(mut self) -> Vec<Token> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string(self.i),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' if self.raw_or_byte_literal() => {}
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                b'=' if self.peek(1) == b'=' => self.punct2("=="),
                b'!' if self.peek(1) == b'=' => self.punct2("!="),
                c => {
                    // Single punctuation character; multi-byte UTF-8
                    // (only expected inside strings/comments) is
                    // consumed whole so we never split a char boundary.
                    let mut end = self.i + 1;
                    if c >= 0x80 {
                        while end < self.b.len() && self.b[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                    }
                    self.out.push(Token::new(
                        TokenKind::Punct,
                        self.src.get(self.i..end).unwrap_or("?"),
                        self.line,
                    ));
                    self.i = end;
                }
            }
        }
        self.out
    }

    fn punct2(&mut self, text: &str) {
        self.out.push(Token::new(TokenKind::Punct, text, self.line));
        self.i += 2;
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let text = &self.src[start..self.i];
        self.out
            .push(Token::new(TokenKind::LineComment, text, self.line));
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let mut depth = 0usize;
        while self.i < self.b.len() {
            if self.b[self.i] == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    break;
                }
            } else {
                if self.b[self.i] == b'\n' {
                    self.line += 1;
                }
                self.i += 1;
            }
        }
        let text = &self.src[start..self.i];
        self.out
            .push(Token::new(TokenKind::BlockComment, text, start_line));
    }

    /// Plain (escaped) string literal starting at the `"` at `self.i`.
    fn string(&mut self, start: usize) {
        let start_line = self.line;
        self.i += 1; // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.out.push(Token::new(
            TokenKind::Str,
            self.src.get(start..self.i).unwrap_or(""),
            start_line,
        ));
    }

    /// Raw string starting at the first `#` or `"` after the `r` prefix.
    fn raw_string(&mut self, start: usize, mut j: usize) {
        let start_line = self.line;
        let mut hashes = 0usize;
        while j < self.b.len() && self.b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        j += 1; // opening quote
                // Scan for `"` followed by `hashes` hash marks.
        while j < self.b.len() {
            if self.b[j] == b'\n' {
                self.line += 1;
                j += 1;
            } else if self.b[j] == b'"'
                && self.b[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == b'#')
                    .count()
                    == hashes
            {
                j += 1 + hashes;
                break;
            } else {
                j += 1;
            }
        }
        self.i = j;
        self.out.push(Token::new(
            TokenKind::Str,
            self.src.get(start..self.i).unwrap_or(""),
            start_line,
        ));
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` and raw
    /// identifiers. Returns false when the `r`/`b` is an ordinary
    /// identifier start, leaving the position untouched.
    fn raw_or_byte_literal(&mut self) -> bool {
        let c = self.b[self.i];
        let start = self.i;
        if c == b'r' {
            let mut j = self.i + 1;
            let mut hashes = 0usize;
            while j < self.b.len() && self.b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < self.b.len() && self.b[j] == b'"' {
                self.raw_string(start, self.i + 1);
                return true;
            }
            if hashes == 1 && j < self.b.len() && is_ident_start(self.b[j]) {
                // Raw identifier r#type.
                self.i = j;
                self.ident();
                let tok = self.out.last_mut().expect("ident just pushed");
                tok.text = self.src[start..start + 2 + tok.text.len()].to_string();
                return true;
            }
            return false;
        }
        // c == b'b'
        match self.peek(1) {
            b'"' => {
                self.i += 1;
                let tok_start = start;
                self.string(tok_start);
                true
            }
            b'\'' => {
                self.i += 1;
                self.char_or_lifetime();
                if let Some(t) = self.out.last_mut() {
                    t.text = self.src[start..start + 1 + t.text.len()].to_string();
                }
                true
            }
            b'r' => {
                let mut j = self.i + 2;
                while j < self.b.len() && self.b[j] == b'#' {
                    j += 1;
                }
                if j < self.b.len() && self.b[j] == b'"' {
                    self.raw_string(start, self.i + 2);
                    return true;
                }
                false
            }
            _ => false,
        }
    }

    /// Disambiguates `'x'` / `'\n'` (char literal) from `'a` (lifetime).
    /// Lifetimes are emitted as [`TokenKind::Punct`] so downstream rules
    /// can ignore them uniformly.
    fn char_or_lifetime(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let n1 = self.peek(1);
        let is_char = n1 == b'\\'
            || n1 >= 0x80
            || (!is_ident_cont(n1) && n1 != 0)
            || (is_ident_cont(n1) && self.peek(2) == b'\'');
        if !is_char {
            // Lifetime: 'ident
            self.i += 1;
            while self.i < self.b.len() && is_ident_cont(self.b[self.i]) {
                self.i += 1;
            }
            self.out.push(Token::new(
                TokenKind::Punct,
                &self.src[start..self.i],
                start_line,
            ));
            return;
        }
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.out.push(Token::new(
            TokenKind::CharLit,
            self.src.get(start..self.i).unwrap_or(""),
            start_line,
        ));
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && is_ident_cont(self.b[self.i]) {
            self.i += 1;
        }
        self.out.push(Token::new(
            TokenKind::Ident,
            &self.src[start..self.i],
            self.line,
        ));
    }

    fn number(&mut self) {
        let start = self.i;
        if self.b[self.i] == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.i += 2;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
        } else {
            self.decimal_digits();
            // Fractional part — but not `..` ranges or method calls.
            if self.b.get(self.i) == Some(&b'.')
                && self.peek(1) != b'.'
                && !is_ident_start(self.peek(1))
            {
                self.i += 1;
                self.decimal_digits();
            }
            // Exponent.
            if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
                let sign = matches!(self.peek(1), b'+' | b'-') as usize;
                if self.peek(1 + sign).is_ascii_digit() {
                    self.i += 1 + sign;
                    self.decimal_digits();
                }
            }
            // Suffix (f64, u32, …) glued onto the digits.
            while self.i < self.b.len() && is_ident_cont(self.b[self.i]) {
                self.i += 1;
            }
        }
        self.out.push(Token::new(
            TokenKind::Number,
            &self.src[start..self.i],
            self.line,
        ));
    }

    fn decimal_digits(&mut self) {
        while self.i < self.b.len() && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_') {
            self.i += 1;
        }
    }
}

/// True when a [`TokenKind::Number`] token denotes a floating-point
/// literal: it has a fractional part, a decimal exponent, or an explicit
/// `f32`/`f64` suffix. Hex/octal/binary literals never qualify.
pub fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.bytes().any(|c| c == b'e' || c == b'E')
}

/// Numeric value of a float literal token, if it parses. Underscores
/// and type suffixes are stripped first.
pub fn float_value(text: &str) -> Option<f64> {
    if !is_float_literal(text) {
        return None;
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned
        .strip_suffix("f64")
        .or_else(|| cleaned.strip_suffix("f32"))
        .unwrap_or(&cleaned);
    cleaned.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_punct() {
        let t = kinds("let x = 1.5e-7 + 0x1e;");
        assert_eq!(t[0], (TokenKind::Ident, "let".into()));
        assert_eq!(t[1], (TokenKind::Ident, "x".into()));
        assert_eq!(t[3], (TokenKind::Number, "1.5e-7".into()));
        assert_eq!(t[5], (TokenKind::Number, "0x1e".into()));
    }

    #[test]
    fn eq_operators_fuse() {
        let t = kinds("a == b != c = d <= e");
        let puncts: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "=", "<", "="]);
    }

    #[test]
    fn range_is_not_a_float() {
        let t = kinds("for i in 0..10 {}");
        assert_eq!(t[3], (TokenKind::Number, "0".into()));
        assert_eq!(t[6], (TokenKind::Number, "10".into()));
    }

    #[test]
    fn method_call_on_literal_stops_the_number() {
        let t = kinds("2.0.sqrt() and 1.max(2)");
        assert_eq!(t[0], (TokenKind::Number, "2.0".into()));
        assert_eq!(t[2], (TokenKind::Ident, "sqrt".into()));
        assert_eq!(t[6], (TokenKind::Number, "1".into()));
        assert_eq!(t[8], (TokenKind::Ident, "max".into()));
    }

    #[test]
    fn comments_and_docs() {
        let src = "/// doc\n// note\n//! inner\n/* block */ /** docblock */ fn f() {}";
        let t = lex(src);
        assert_eq!(t[0].kind, TokenKind::LineComment);
        assert_eq!(t[1].kind, TokenKind::LineComment);
        assert_eq!(t[2].kind, TokenKind::LineComment);
        assert_eq!(t[3].kind, TokenKind::BlockComment);
        assert_eq!(t[4].kind, TokenKind::BlockComment);
        assert_eq!(t[4].text, "/** docblock */");
        assert_eq!(t[3].line, 4);
    }

    #[test]
    fn nested_block_comment_and_lines() {
        let t = lex("/* a /* b */ c\n */ x");
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].text, "x");
        assert_eq!(t[1].line, 2);
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let t = kinds(r#"let s = "a == b // not a comment"; 'x'; 'a: loop {}"#);
        assert!(t.iter().all(|(_, s)| s != "=="));
        assert!(t.iter().any(|(k, _)| *k == TokenKind::Str));
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokenKind::CharLit && s == "'x'"));
        assert!(t.iter().any(|(k, s)| *k == TokenKind::Punct && s == "'a"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let t = kinds(r##"r"plain" r#"with "quotes""# b"bytes" br#"raw bytes"# b'x'"##);
        let strs = t.iter().filter(|(k, _)| *k == TokenKind::Str).count();
        assert_eq!(strs, 4);
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokenKind::CharLit && s == "b'x'"));
    }

    #[test]
    fn escaped_char_literals() {
        let t = kinds(r"'\n' '\'' '\u{1F600}'");
        assert!(t.iter().all(|(k, _)| *k == TokenKind::CharLit));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn multiline_string_line_tracking() {
        let t = lex("let a = \"x\ny\";\nfn f() {}");
        let f = t.iter().find(|t| t.text == "fn").expect("fn token");
        assert_eq!(f.line, 3);
    }

    #[test]
    fn float_literal_classification() {
        assert!(is_float_literal("1.0"));
        assert!(is_float_literal("1e-9"));
        assert!(is_float_literal("2f64"));
        assert!(is_float_literal("1_000.5"));
        assert!(!is_float_literal("42"));
        assert!(!is_float_literal("0x1e"));
        assert!(!is_float_literal("1_000u64"));
        assert_eq!(float_value("1.5e-7"), Some(1.5e-7));
        assert_eq!(float_value("1e-9f64"), Some(1e-9));
        assert_eq!(float_value("7"), None);
    }
}

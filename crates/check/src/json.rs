//! JSON findings output and the committed-baseline diff gate.
//!
//! `lbq-check --format json` renders findings as a stable, versioned
//! document; `--baseline <path>` loads a previously committed document
//! and subtracts its findings (multiset, keyed on rule+file+message so
//! line drift from unrelated edits does not invalidate the baseline)
//! before deciding the exit code. Both directions are hand-rolled —
//! the workspace is std-only. [`parse`] is the workspace's one JSON
//! reader: the snapshot-exporter tests of `lbq-obs` and `lbq-serve`
//! read their JSONL through it (as a dev-dependency) too.

use crate::rules::Diagnostic;
use std::collections::HashMap;

/// Schema version of the findings document.
pub const FORMAT_VERSION: u32 = 2;

/// Renders findings as the versioned JSON document, findings in their
/// sorted order, one finding per line for reviewable diffs.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
    s.push_str("  \"tool\": \"lbq-check\",\n");
    s.push_str("  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"rule\": {}, ", escape(d.rule)));
        s.push_str(&format!("\"file\": {}, ", escape(&d.file)));
        s.push_str(&format!("\"line\": {}, ", d.line));
        s.push_str(&format!("\"message\": {}", escape(&d.message)));
        s.push('}');
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finding loaded from a baseline document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineFinding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Parses a findings document produced by [`render`] (or hand-edited).
pub fn parse_findings(src: &str) -> Result<Vec<BaselineFinding>, String> {
    let Value::Obj(top) = parse(src)? else {
        return Err("baseline: top level is not an object".to_string());
    };
    let Some(Value::Arr(items)) = top.get("findings") else {
        return Err("baseline: missing \"findings\" array".to_string());
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Value::Obj(o) = item else {
            return Err(format!("baseline: finding #{i} is not an object"));
        };
        let get_str = |k: &str| -> Result<String, String> {
            match o.get(k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("baseline: finding #{i} missing string \"{k}\"")),
            }
        };
        let line = match o.get("line") {
            Some(Value::Num(n)) if *n >= 0.0 => *n as u32,
            _ => return Err(format!("baseline: finding #{i} missing number \"line\"")),
        };
        out.push(BaselineFinding {
            rule: get_str("rule")?,
            file: get_str("file")?,
            line,
            message: get_str("message")?,
        });
    }
    Ok(out)
}

/// Subtracts the baseline from `diags` as a multiset keyed on
/// (rule, file, message) — line numbers are ignored so that unrelated
/// edits shifting a baselined finding do not break the gate. Returns
/// the new findings and the count of stale baseline entries (present
/// in the baseline but no longer produced).
pub fn diff_against_baseline(
    diags: &[Diagnostic],
    baseline: &[BaselineFinding],
) -> (Vec<Diagnostic>, usize) {
    let mut budget: HashMap<(String, String, String), usize> = HashMap::new();
    for b in baseline {
        *budget
            .entry((b.rule.clone(), b.file.clone(), b.message.clone()))
            .or_insert(0) += 1;
    }
    let mut fresh = Vec::new();
    for d in diags {
        let key = (d.rule.to_string(), d.file.clone(), d.message.clone());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(d.clone()),
        }
    }
    let stale = budget.values().sum();
    (fresh, stale)
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser (strings, numbers, bools,
// null, arrays, objects).
// ---------------------------------------------------------------------

/// A parsed JSON value; every number is an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(HashMap<String, Value>),
}

impl Value {
    /// Object field by key (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.get(key),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses `src` as one complete JSON value (no trailing bytes).
pub fn parse(src: &str) -> Result<Value, String> {
    Parser {
        b: src.as_bytes(),
        i: 0,
    }
    .document()
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn document(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.ws();
        if self.i != self.b.len() {
            return Err(format!("trailing bytes at offset {}", self.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape `\\{}`", e as char)),
                    }
                }
                _ => {
                    // Re-decode from the byte position to keep UTF-8
                    // multibyte sequences intact.
                    self.i -= 1;
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    self.i += ch.len_utf8();
                    out.push(ch);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut out = HashMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            out.insert(key, v);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, line: u32, message: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            message: message.to_string(),
        }
    }

    #[test]
    fn render_then_parse_round_trips() {
        let diags = vec![
            diag(
                "hot-alloc",
                "crates/rtree/src/nn.rs",
                10,
                "a \"quoted\"\nmessage",
            ),
            diag("float-eq", "crates/geom/src/lib.rs", 3, "x == y"),
        ];
        let doc = render(&diags);
        let parsed = parse_findings(&doc).expect("round trip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].rule, "hot-alloc");
        assert_eq!(parsed[0].message, "a \"quoted\"\nmessage");
        assert_eq!(parsed[1].line, 3);
    }

    #[test]
    fn empty_findings_render_and_parse() {
        let doc = render(&[]);
        assert!(doc.contains("\"findings\": []"));
        assert!(parse_findings(&doc).expect("empty ok").is_empty());
    }

    #[test]
    fn baseline_subtraction_ignores_line_drift() {
        let current = vec![diag("float-eq", "a.rs", 99, "x == y")];
        let baseline = vec![BaselineFinding {
            rule: "float-eq".to_string(),
            file: "a.rs".to_string(),
            line: 10, // the finding moved, same content
            message: "x == y".to_string(),
        }];
        let (fresh, stale) = diff_against_baseline(&current, &baseline);
        assert!(fresh.is_empty());
        assert_eq!(stale, 0);
    }

    #[test]
    fn baseline_is_a_multiset_and_reports_stale_entries() {
        let current = vec![
            diag("float-eq", "a.rs", 1, "x == y"),
            diag("float-eq", "a.rs", 2, "x == y"),
        ];
        let one = BaselineFinding {
            rule: "float-eq".to_string(),
            file: "a.rs".to_string(),
            line: 1,
            message: "x == y".to_string(),
        };
        let (fresh, stale) = diff_against_baseline(&current, &[one.clone()]);
        assert_eq!(fresh.len(), 1, "second occurrence is fresh");
        assert_eq!(stale, 0);
        let gone = BaselineFinding {
            rule: "pub-doc".to_string(),
            file: "b.rs".to_string(),
            line: 5,
            message: "old".to_string(),
        };
        let (fresh, stale) = diff_against_baseline(&current, &[one.clone(), one, gone]);
        assert!(fresh.is_empty());
        assert_eq!(stale, 1, "fixed finding left in baseline is stale");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(
            parse_findings("[1, 2]").is_err(),
            "top level must be object"
        );
        assert!(parse_findings("{\"findings\": [{\"rule\": 3}]}").is_err());
        assert!(parse_findings("{\"findings\": []} trailing").is_err());
    }
}

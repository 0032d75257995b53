//! The per-file lint rules, each a pure function over the token stream
//! of one file. (The interprocedural rules — `hot-alloc`, `hot-panic`,
//! `atomic-ordering`, `guard-across-call` — live in
//! [`crate::interproc`] and run over the whole-workspace call graph.)
//!
//! | rule | meaning |
//! |------|---------|
//! | `local-epsilon` | no literal epsilons (1e-12 ..= 1e-6) outside the approved epsilon module |
//! | `obs-span-name` | `lbq_obs` metric/heatmap/snapshot-field names are kebab-case string literals |
//!
//! What rustc and clippy check with types — exact float comparison,
//! panics in library code, narrowing casts, public docs, reasonless
//! lint escapes — is theirs (see the workspace `Cargo.toml`).
//!
//! Any finding can be silenced with a justification comment on the same
//! line or the line directly above. The reason is mandatory — either as
//! a quoted argument or as trailing text after the closing paren — and
//! a directive without one silences nothing:
//!
//! ```text
//! // lbq-check: allow(local-epsilon, "Box–Muller guard, not a tolerance")
//! // lbq-check: allow(local-epsilon) — Box–Muller guard, not a tolerance
//! ```

use crate::lexer::{float_value, lex, Token, TokenKind};

/// All rule names, as used in diagnostics and allow comments.
pub const RULE_NAMES: [&str; 6] = [
    "local-epsilon",
    "obs-span-name",
    "hot-alloc",
    "hot-panic",
    "atomic-ordering",
    "guard-across-call",
];

/// The one module allowed to define epsilons and compare floats exactly.
pub const APPROVED_EPS_MODULE: &str = "crates/geom/src/lib.rs";

/// One finding: rule, location, human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lexes one file and runs every per-file rule that applies to its
/// path, then applies the allow filter.
/// `path` must be workspace-relative with `/` separators.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let allows = Allows::collect(&tokens);
    let mut out = per_file(path, &tokens);
    out.retain(|d| !allows.is_allowed(d.rule, d.line));
    out.sort_by_key(|d| (d.line, d.rule));
    out
}

/// Runs every per-file rule that applies to `path` over an
/// already-lexed token stream. Returns **unfiltered** findings — the
/// caller applies [`Allows::is_allowed`]; the workspace driver does
/// this centrally so interprocedural findings share the same filter.
pub fn per_file(path: &str, tokens: &[Token]) -> Vec<Diagnostic> {
    let test_from = test_region_start(tokens);
    let ctx = FileCtx {
        path,
        tokens,
        test_from,
    };

    let mut out = Vec::new();
    if path != APPROVED_EPS_MODULE {
        local_epsilon(&ctx, &mut out);
    }
    obs_span_name(&ctx, &mut out);
    out
}

struct FileCtx<'a> {
    path: &'a str,
    tokens: &'a [Token],
    /// First line of a top-level `#[cfg(test)]` region, if any; the
    /// region is assumed to extend to end-of-file (the workspace keeps
    /// test modules last).
    test_from: Option<u32>,
}

impl FileCtx<'_> {
    /// Crate name when the file is library source (`crates/<c>/src/…`).
    fn lib_crate(&self) -> Option<&str> {
        let rest = self.path.strip_prefix("crates/")?;
        let (krate, rest) = rest.split_once('/')?;
        rest.starts_with("src/").then_some(krate)
    }

    /// Test-like source: under `tests/`, `benches/`, `examples/`, or
    /// inside the file's trailing `#[cfg(test)]` region.
    fn is_test_code(&self, line: u32) -> bool {
        let p = self.path;
        p.starts_with("tests/")
            || p.contains("/tests/")
            || p.contains("/benches/")
            || p.contains("/examples/")
            || self.test_from.is_some_and(|t| line >= t)
    }
}

// -------------------------------------------------------- allowlist

/// One `// lbq-check: allow(…)` directive that carries a reason.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the directive comment sits on.
    pub line: u32,
    /// Rule names listed inside the parens.
    pub rules: Vec<String>,
}

/// All reason-carrying allow directives of one file.
#[derive(Debug, Clone, Default)]
pub struct Allows {
    directives: Vec<AllowDirective>,
}

impl Allows {
    /// Extracts `// lbq-check: allow(rule, rule, "reason")` directives.
    /// A directive without a reason — neither a quoted argument inside
    /// the parens nor prose after the closing paren — is dropped: the
    /// escape hatch is only auditable if each use records *why* the rule
    /// does not apply at that site.
    pub fn collect(tokens: &[Token]) -> Allows {
        let mut directives = Vec::new();
        for t in tokens {
            if !t.is_comment() {
                continue;
            }
            let Some(pos) = t.text.find("lbq-check:") else {
                continue;
            };
            let rest = &t.text[pos + "lbq-check:".len()..];
            let Some(open) = rest.find("allow(") else {
                continue;
            };
            let inner = &rest[open + "allow(".len()..];
            let Some(close) = inner.find(')') else {
                continue;
            };
            let mut rules = Vec::new();
            // Trailing prose after the `)` counts as a reason:
            // `// lbq-check: allow(rule) — why this is sound`.
            let mut has_reason = inner[close + 1..].chars().any(|c| c.is_alphanumeric());
            for item in inner[..close].split(',') {
                let item = item.trim();
                if item.starts_with('"') {
                    has_reason = true;
                } else if !item.is_empty() {
                    rules.push(item.to_string());
                }
            }
            if has_reason && !rules.is_empty() {
                directives.push(AllowDirective {
                    line: t.line,
                    rules,
                });
            }
        }
        Allows { directives }
    }

    /// A finding at `line` is silenced by a directive on that line or
    /// the line directly above.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.directives.iter().any(|d| {
            (d.line == line || d.line == line.saturating_sub(1))
                && d.rules.iter().any(|r| r == rule)
        })
    }
}

/// Line of the first top-level `#[cfg(test)]` attribute.
fn test_region_start(tokens: &[Token]) -> Option<u32> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    code.windows(5).find_map(|w| {
        (w[0].text == "#"
            && w[1].text == "["
            && w[2].text == "cfg"
            && w[3].text == "("
            && w[4].text == "test")
            .then_some(w[0].line)
    })
}

// -------------------------------------------------------- rules

/// `local-epsilon`: literal float in `[1e-12, 1e-6]` in library code.
fn local_epsilon(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.lib_crate().is_none() {
        return;
    }
    for tok in ctx.tokens {
        if tok.kind != TokenKind::Number || ctx.is_test_code(tok.line) {
            continue;
        }
        let Some(v) = float_value(&tok.text) else {
            continue;
        };
        // lbq-check: allow(local-epsilon) — this range *defines* the rule
        if (1e-12..=1e-6).contains(&v) {
            out.push(Diagnostic {
                rule: "local-epsilon",
                file: ctx.path.to_string(),
                line: tok.line,
                message: format!(
                    "literal epsilon `{}`; use the shared constants in lbq_geom \
                     (EPS family) or justify with an allow comment",
                    tok.text
                ),
            });
        }
    }
}

/// `obs-span-name`: the name argument of `lbq_obs::counter` / `gauge` /
/// `histogram` / `heatmap` / `snapshot_field` must be a kebab-case
/// string literal, so metric, heatmap, and snapshot-field names stay greppable,
/// stable, and collision-free across the workspace. The obs crate
/// itself (whose tests exercise the machinery with throwaway names) is
/// exempt.
fn obs_span_name(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if ctx.path.starts_with("crates/obs/") {
        return;
    }
    const NAMED_FNS: [&str; 5] = ["counter", "gauge", "histogram", "heatmap", "snapshot_field"];
    let code: Vec<&Token> = ctx.tokens.iter().filter(|t| !t.is_comment()).collect();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || (tok.text != "lbq_obs" && tok.text != "obs") {
            continue;
        }
        if !(code.get(i + 1).is_some_and(|t| t.text == ":")
            && code.get(i + 2).is_some_and(|t| t.text == ":"))
        {
            continue;
        }
        let Some(f) = code.get(i + 3) else { continue };
        if f.kind != TokenKind::Ident || !NAMED_FNS.contains(&f.text.as_str()) {
            continue;
        }
        if code.get(i + 4).is_none_or(|t| t.text != "(") {
            continue;
        }
        let arg = code.get(i + 5);
        let literal = arg.filter(|t| t.kind == TokenKind::Str);
        let ok = literal.is_some_and(|t| is_kebab_str_literal(&t.text));
        if !ok {
            let line = arg.map_or(f.line, |t| t.line);
            let what = match literal {
                Some(t) => format!("name {} is not kebab-case", t.text),
                None => "name is not a string literal".to_string(),
            };
            out.push(Diagnostic {
                rule: "obs-span-name",
                file: ctx.path.to_string(),
                line,
                message: format!(
                    "`lbq_obs::{}` {what}; use a kebab-case &'static str literal \
                     (lowercase letters, digits, single dashes) or justify with an \
                     allow comment",
                    f.text
                ),
            });
        }
    }
}

/// True when `text` is a plain `"…"` literal whose contents are
/// kebab-case: non-empty, `[a-z0-9-]` only, no leading/trailing/double
/// dash.
fn is_kebab_str_literal(text: &str) -> bool {
    let Some(inner) = text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
        return false; // raw/byte strings don't qualify
    };
    !inner.is_empty()
        && !inner.starts_with('-')
        && !inner.ends_with('-')
        && !inner.contains("--")
        && inner
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

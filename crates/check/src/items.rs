//! Stage 2a of the analyzer: the whole-workspace item index.
//!
//! One linear walk over each file's brace-matched token stream
//! ([`crate::parse`]) collects every `fn` (with the token extent of its
//! body), `impl` block (so methods carry their self type), `trait`,
//! `static`, and atomic struct field across all crates. Each function
//! also carries its analyzer annotations, read from the comment block
//! directly above the item:
//!
//! ```text
//! // lbq-check: hot — serve worker loop, steady-state alloc-free
//! // lbq-check: cold — mutation path, exempt from hot propagation
//! // lbq-check: no-panic — must never unwind under a poisoned lock
//! ```
//!
//! `hot` and `no-panic` seed the transitive propagation in
//! [`crate::callgraph`]; `cold` stops it. The index is deliberately
//! name-based and conservative: it never resolves types, so downstream
//! passes over-approximate rather than miss.

use crate::parse::TokenFile;
use std::collections::HashMap;

/// Analyzer annotations attached to one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Annotations {
    /// `// lbq-check: hot` — a root of the hot (steady-state
    /// allocation-free) call graph.
    pub hot: bool,
    /// `// lbq-check: cold` — never considered hot, and hot-ness does
    /// not propagate through this function into its callees.
    pub cold: bool,
    /// `// lbq-check: no-panic` — a root of the panic-free call graph.
    pub no_panic: bool,
}

/// One indexed function (free function, method, or trait method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (last path segment only).
    pub name: String,
    /// Index into [`ItemIndex::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Self type of the enclosing `impl`/`trait`, if any.
    pub owner: Option<String>,
    /// Token-index range of the body *between* its braces
    /// (`tokens[range.0..range.1]`), `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Test code: test-only file, `#[cfg(test)]` region, or `#[test]`.
    pub is_test: bool,
    /// Annotations from the comment block above the item.
    pub ann: Annotations,
}

/// One indexed `static` item (including `thread_local!` interiors).
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Item name.
    pub name: String,
    /// Index into [`ItemIndex::files`].
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Flattened type text (no spaces), e.g. `AtomicU64`.
    pub ty: String,
}

/// One indexed `trait` definition.
#[derive(Debug, Clone)]
pub struct TraitItem {
    /// Trait name.
    pub name: String,
    /// Index into [`ItemIndex::files`].
    pub file: usize,
    /// 1-based line.
    pub line: u32,
}

/// One indexed `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// Self type (last path segment, generics stripped).
    pub ty: String,
    /// Trait being implemented, if any.
    pub trait_name: Option<String>,
    /// Index into [`ItemIndex::files`].
    pub file: usize,
    /// 1-based line.
    pub line: u32,
}

/// A struct field whose type names an `Atomic*` — the nouns the
/// `atomic-ordering` rule keys its pairing table on.
#[derive(Debug, Clone)]
pub struct AtomicField {
    /// Field (or static) name.
    pub name: String,
    /// Index into [`ItemIndex::files`].
    pub file: usize,
    /// 1-based line.
    pub line: u32,
}

/// The whole-workspace item index.
#[derive(Debug, Default)]
pub struct ItemIndex {
    /// Workspace-relative file paths, `/`-separated.
    pub files: Vec<String>,
    /// Every indexed function, across all files.
    pub fns: Vec<FnItem>,
    /// Every `static` item.
    pub statics: Vec<StaticItem>,
    /// Every `trait` definition.
    pub traits: Vec<TraitItem>,
    /// Every `impl` block.
    pub impls: Vec<ImplItem>,
    /// Atomic-typed struct fields and statics.
    pub atomics: Vec<AtomicField>,
    /// Function name → indices into `fns` (conservative name-keyed
    /// resolution for the call graph).
    pub by_name: HashMap<String, Vec<usize>>,
}

impl ItemIndex {
    /// Registers `path` and indexes every item of `tf` under it.
    pub fn add_file(&mut self, path: &str, tf: &TokenFile) {
        let file = self.files.len();
        self.files.push(path.to_string());
        index_file(self, file, path, tf);
    }

    /// Crate name when `path` is library source (`crates/<c>/src/…`).
    pub fn lib_crate(path: &str) -> Option<&str> {
        let rest = path.strip_prefix("crates/")?;
        let (krate, rest) = rest.split_once('/')?;
        rest.starts_with("src/").then_some(krate)
    }

    /// True when `path` is test-shaped source (integration tests,
    /// benches, examples).
    pub fn is_test_path(path: &str) -> bool {
        path.starts_with("tests/")
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.contains("/examples/")
    }
}

/// What a currently-open brace group means to the item walk.
#[derive(Debug, Clone)]
enum Ctx {
    /// `impl Type { … }` or `impl Trait for Type { … }`.
    Owner(String),
    /// A `#[cfg(test)] mod … { … }` region.
    TestMod,
    /// Any other group.
    Other,
}

/// One frame: the token index of the group's closing brace plus its
/// meaning.
struct Frame {
    close: usize,
    ctx: Ctx,
}

fn index_file(ix: &mut ItemIndex, file: usize, path: &str, tf: &TokenFile) {
    let toks = &tf.tokens;
    let path_is_test = ItemIndex::is_test_path(path);
    let mut frames: Vec<Frame> = Vec::new();
    // Pending context discovered at an `impl`/`trait`/`cfg(test) mod`
    // header, applied when its `{` opens.
    let mut pending: Option<Ctx> = None;

    let mut c = 0usize; // position in tf.code
    while c < tf.code.len() {
        let ti = tf.code[c];
        while frames.last().is_some_and(|f| ti > f.close) {
            frames.pop();
        }
        let t = &toks[ti];
        match t.text.as_str() {
            "{" => {
                if let Some(close) = tf.match_of(ti) {
                    frames.push(Frame {
                        close,
                        ctx: pending.take().unwrap_or(Ctx::Other),
                    });
                }
                c += 1;
            }
            "impl" => {
                let (ctx, impl_item) = parse_impl_header(tf, c, file);
                if let Some(item) = impl_item {
                    ix.impls.push(item);
                }
                pending = ctx;
                c += 1;
            }
            "trait" => {
                if let Some(name) = next_ident(tf, c) {
                    ix.traits.push(TraitItem {
                        name: name.clone(),
                        file,
                        line: t.line,
                    });
                    pending = Some(Ctx::Owner(name));
                }
                c += 1;
            }
            "mod" => {
                // A test module makes everything inside test code.
                if has_test_attr(tf, ti) {
                    pending = Some(Ctx::TestMod);
                }
                c += 1;
            }
            "fn" => {
                let in_test_mod = frames.iter().any(|f| matches!(f.ctx, Ctx::TestMod));
                let owner = frames.iter().rev().find_map(|f| match &f.ctx {
                    Ctx::Owner(ty) => Some(ty.clone()),
                    _ => None,
                });
                let name = next_ident(tf, c).unwrap_or_default();
                let body = fn_body_range(tf, c);
                let item_start_ti = toks_idx_at(tf, item_start_token(tf, c));
                let ann = annotations_above(toks, item_start_ti);
                let is_test = path_is_test || in_test_mod || has_test_attr(tf, item_start_ti);
                ix.by_name
                    .entry(name.clone())
                    .or_default()
                    .push(ix.fns.len());
                ix.fns.push(FnItem {
                    name,
                    file,
                    line: t.line,
                    owner,
                    body,
                    is_test,
                    ann,
                });
                c += 1;
            }
            "static" => {
                if let Some((name, ty, line)) = parse_static(tf, c) {
                    if ty.contains("Atomic") {
                        ix.atomics.push(AtomicField {
                            name: name.clone(),
                            file,
                            line,
                        });
                    }
                    ix.statics.push(StaticItem {
                        name,
                        file,
                        line,
                        ty,
                    });
                }
                c += 1;
            }
            "struct" => {
                collect_atomic_fields(ix, tf, c, file);
                c += 1;
            }
            _ => c += 1,
        }
    }
}

/// The code-position's token index, saturating for synthetic positions.
fn toks_idx_at(tf: &TokenFile, code_pos: usize) -> usize {
    tf.code.get(code_pos).copied().unwrap_or(0)
}

/// The next code token's text after position `c`, if it is an
/// identifier.
fn next_ident(tf: &TokenFile, c: usize) -> Option<String> {
    let ti = *tf.code.get(c + 1)?;
    let t = &tf.tokens[ti];
    (t.kind == crate::lexer::TokenKind::Ident).then(|| t.text.clone())
}

/// Walks back from the `fn` keyword (code position `c`) over qualifiers
/// (`pub`, `pub(crate)`, `const`, `unsafe`, `async`, `extern "C"`) to
/// the code position where the item starts.
fn item_start_token(tf: &TokenFile, c: usize) -> usize {
    let mut p = c;
    while p > 0 {
        let prev = &tf.tokens[tf.code[p - 1]];
        match prev.text.as_str() {
            "const" | "unsafe" | "async" | "extern" | "pub" => p -= 1,
            ")" => {
                // Possibly the `(crate)` of `pub(crate)`.
                let open = tf.match_of(tf.code[p - 1]);
                let before_open = open.and_then(|o| {
                    tf.code
                        .iter()
                        .position(|&ti| ti == o)
                        .and_then(|cp| cp.checked_sub(1))
                        .map(|cp| &tf.tokens[tf.code[cp]])
                });
                if before_open.is_some_and(|t| t.text == "pub") {
                    let open = open.unwrap_or_default();
                    let open_cp = tf.code.iter().position(|&ti| ti == open).unwrap_or(p - 1);
                    p = open_cp.saturating_sub(1);
                } else {
                    break;
                }
            }
            _ if prev.kind == crate::lexer::TokenKind::Str => p -= 1, // extern "C"
            _ => break,
        }
    }
    p
}

/// Reads the analyzer annotations from the comment/attribute block
/// directly above the token at raw index `start_ti`.
fn annotations_above(toks: &[crate::lexer::Token], start_ti: usize) -> Annotations {
    let mut ann = Annotations::default();
    let mut j = start_ti;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_comment() {
            apply_annotation(&t.text, &mut ann);
            continue;
        }
        match t.text.as_str() {
            "]" => {
                // Skip backwards over an attribute group.
                let mut depth = 1usize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                while j > 0 && (toks[j - 1].text == "#" || toks[j - 1].text == "!") {
                    j -= 1;
                }
            }
            _ => break,
        }
    }
    ann
}

/// Applies one `// lbq-check: <marker>` comment to `ann`.
fn apply_annotation(comment: &str, ann: &mut Annotations) {
    let Some(pos) = comment.find("lbq-check:") else {
        return;
    };
    let rest = comment[pos + "lbq-check:".len()..].trim_start();
    // Markers are word-delimited; `no-panic` must win over `no`.
    for (marker, flag) in [("no-panic", 2usize), ("hot", 0), ("cold", 1)] {
        if let Some(tail) = rest.strip_prefix(marker) {
            let after = tail.chars().next();
            let boundary = after.is_none_or(|ch| !ch.is_ascii_alphanumeric() && ch != '-');
            if boundary {
                match flag {
                    0 => ann.hot = true,
                    1 => ann.cold = true,
                    _ => ann.no_panic = true,
                }
                return;
            }
        }
    }
}

/// True when the raw token at `ti` has a `#[test]` / `#[cfg(test)]`
/// style attribute directly above it (comments in between are fine).
fn has_test_attr(tf: &TokenFile, ti: usize) -> bool {
    let toks = &tf.tokens;
    let mut j = ti;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_comment() {
            continue;
        }
        if t.text == "]" {
            let close = j;
            let mut depth = 1usize;
            while j > 0 && depth > 0 {
                j -= 1;
                match toks[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            }
            let inside = &toks[j..=close];
            if inside
                .iter()
                .any(|t| t.kind == crate::lexer::TokenKind::Ident && t.text == "test")
            {
                return true;
            }
            while j > 0 && (toks[j - 1].text == "#" || toks[j - 1].text == "!") {
                j -= 1;
            }
            continue;
        }
        // `pub`, qualifiers, `mod` keyword itself, …
        match t.text.as_str() {
            "pub" | "const" | "unsafe" | "async" | "extern" => continue,
            _ => return false,
        }
    }
    false
}

/// Parses an `impl` header starting at code position `c` (the `impl`
/// token): returns the owner context for the body plus the impl record.
fn parse_impl_header(tf: &TokenFile, c: usize, file: usize) -> (Option<Ctx>, Option<ImplItem>) {
    let line = tf.tokens[tf.code[c]].line;
    // Collect header code tokens up to the opening `{` (or `;`).
    let mut header: Vec<&crate::lexer::Token> = Vec::new();
    let mut p = c + 1;
    while p < tf.code.len() {
        let t = &tf.tokens[tf.code[p]];
        if t.text == "{" || t.text == ";" {
            break;
        }
        header.push(t);
        p += 1;
    }
    // Split at a top-level `for` (angle-depth 0): `impl Trait for Type`.
    let mut angle = 0i32;
    let mut for_pos = None;
    for (i, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => {
                for_pos = Some(i);
                break;
            }
            _ => {}
        }
    }
    let type_segment = |toks: &[&crate::lexer::Token]| -> Option<String> {
        // Last ident before a generic arg list is the path's leaf:
        // `lbq_geom::ConvexPolygon<'a>` → `ConvexPolygon`.
        let mut angle = 0i32;
        let mut last = None;
        for t in toks {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ if angle == 0 && t.kind == crate::lexer::TokenKind::Ident => {
                    last = Some(t.text.clone());
                }
                _ => {}
            }
        }
        last
    };
    let (trait_name, self_ty) = match for_pos {
        Some(fp) => (type_segment(&header[..fp]), type_segment(&header[fp + 1..])),
        None => (None, type_segment(&header)),
    };
    let Some(ty) = self_ty else {
        return (None, None);
    };
    let item = ImplItem {
        ty: ty.clone(),
        trait_name,
        file,
        line,
    };
    (Some(Ctx::Owner(ty)), Some(item))
}

/// Parses `static NAME: Type = …;` at code position `c`; returns
/// `(name, flattened type, line)`.
fn parse_static(tf: &TokenFile, c: usize) -> Option<(String, String, u32)> {
    let mut p = c + 1;
    // `static mut` is impossible here (unsafe is denied) but cheap to skip.
    if tf
        .code
        .get(p)
        .is_some_and(|&ti| tf.tokens[ti].text == "mut")
    {
        p += 1;
    }
    let name_ti = *tf.code.get(p)?;
    let name_tok = &tf.tokens[name_ti];
    if name_tok.kind != crate::lexer::TokenKind::Ident {
        return None;
    }
    if tf
        .code
        .get(p + 1)
        .is_none_or(|&ti| tf.tokens[ti].text != ":")
    {
        return None; // `static` as a lifetime bound position, not an item
    }
    let mut ty = String::new();
    let mut q = p + 2;
    while q < tf.code.len() {
        let t = &tf.tokens[tf.code[q]];
        if t.text == "=" || t.text == ";" {
            break;
        }
        ty.push_str(&t.text);
        q += 1;
    }
    Some((name_tok.text.clone(), ty, name_tok.line))
}

/// Collects atomic-typed fields from a `struct … { … }` at code
/// position `c`.
fn collect_atomic_fields(ix: &mut ItemIndex, tf: &TokenFile, c: usize, file: usize) {
    // Find the field group `{` before any `;` (unit/tuple structs have
    // no named fields).
    let mut p = c + 1;
    let mut open = None;
    while p < tf.code.len() {
        let t = &tf.tokens[tf.code[p]];
        match t.text.as_str() {
            "{" => {
                open = Some(tf.code[p]);
                break;
            }
            ";" | "(" => return,
            _ => p += 1,
        }
    }
    let Some(open) = open else { return };
    let Some(close) = tf.match_of(open) else {
        return;
    };
    // Walk `name : Type ,` sequences at depth 0 of the field group.
    let toks = &tf.tokens;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        if matches!(t.text.as_str(), "(" | "[" | "{") {
            i = tf.match_of(i).map_or(i + 1, |m| m + 1);
            continue;
        }
        if t.kind == crate::lexer::TokenKind::Ident
            && i + 1 < close
            && next_code_text(tf, i) == Some(":")
        {
            // Field type runs to the `,` (or group end) at depth 0.
            let name = t.text.clone();
            let line = t.line;
            let mut j = i + 1;
            let mut is_atomic = false;
            while j < close {
                let tj = &toks[j];
                if tj.is_comment() {
                    j += 1;
                    continue;
                }
                if matches!(tj.text.as_str(), "(" | "[" | "{") {
                    j = tf.match_of(j).map_or(j + 1, |m| m + 1);
                    continue;
                }
                if tj.text == "," {
                    break;
                }
                if tj.kind == crate::lexer::TokenKind::Ident && tj.text.starts_with("Atomic") {
                    is_atomic = true;
                }
                j += 1;
            }
            if is_atomic {
                ix.atomics.push(AtomicField { name, file, line });
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// The next non-comment token text after raw index `i`.
fn next_code_text(tf: &TokenFile, i: usize) -> Option<&str> {
    tf.tokens[i + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map(|t| t.text.as_str())
}

/// Finds the body range of the `fn` at code position `c`: the first
/// `{ … }` group before a `;` at group depth 0, skipping the parameter
/// list and any bracketed return-type components.
fn fn_body_range(tf: &TokenFile, c: usize) -> Option<(usize, usize)> {
    let mut p = c + 1;
    while p < tf.code.len() {
        let ti = tf.code[p];
        let t = &tf.tokens[ti];
        match t.text.as_str() {
            ";" => return None, // trait method declaration
            "{" => {
                let close = tf.match_of(ti)?;
                return Some((ti + 1, close));
            }
            "(" | "[" => {
                let close = tf.match_of(ti)?;
                // Continue after the group.
                p = tf.code.iter().position(|&x| x == close)? + 1;
            }
            _ => p += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn index(path: &str, src: &str) -> ItemIndex {
        let tf = parse(src).expect("fixture parses");
        let mut ix = ItemIndex::default();
        ix.add_file(path, &tf);
        ix
    }

    const LIB: &str = "crates/core/src/x.rs";

    #[test]
    fn indexes_free_fns_methods_and_owners() {
        let ix = index(
            LIB,
            "fn free() {}\n\
             impl Foo { pub fn method(&self) -> u8 { 0 } }\n\
             impl Display for Bar { fn fmt(&self) {} }\n\
             trait T { fn decl(&self); fn dflt(&self) {} }",
        );
        let names: Vec<(&str, Option<&str>)> = ix
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("free", None),
                ("method", Some("Foo")),
                ("fmt", Some("Bar")),
                ("decl", Some("T")),
                ("dflt", Some("T")),
            ]
        );
        assert!(ix.fns[3].body.is_none(), "trait decl has no body");
        assert!(ix.fns[4].body.is_some(), "default method has a body");
        assert_eq!(ix.impls.len(), 2);
        assert_eq!(ix.impls[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(ix.traits.len(), 1);
        assert_eq!(ix.traits[0].name, "T");
    }

    #[test]
    fn generic_impl_header_resolves_self_type() {
        let ix = index(
            LIB,
            "impl<T: Iterator<Item = u8>> Wrapper<T> { fn go(&self) {} }",
        );
        assert_eq!(ix.fns[0].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn annotations_are_read_from_the_comment_block() {
        let ix = index(
            LIB,
            "// lbq-check: hot — root of the steady-state path\n\
             #[inline]\n\
             pub fn a() {}\n\
             // lbq-check: cold — mutation path\n\
             fn b() {}\n\
             // lbq-check: no-panic\n\
             fn c() {}\n\
             // lbq-check: allow(local-epsilon) — not an annotation\n\
             fn d() {}",
        );
        assert!(ix.fns[0].ann.hot);
        assert!(!ix.fns[0].ann.cold);
        assert!(ix.fns[1].ann.cold);
        assert!(ix.fns[2].ann.no_panic);
        assert_eq!(ix.fns[3].ann, Annotations::default());
    }

    #[test]
    fn test_code_is_marked() {
        let ix = index(
            LIB,
            "fn lib_code() {}\n\
             #[test]\n\
             fn unit() {}\n\
             #[cfg(test)]\n\
             mod tests { fn helper() {} }",
        );
        assert!(!ix.fns[0].is_test);
        assert!(ix.fns[1].is_test, "#[test] fn");
        assert!(ix.fns[2].is_test, "fn inside #[cfg(test)] mod");
        let tix = index("crates/core/tests/t.rs", "fn anything() {}");
        assert!(tix.fns[0].is_test, "integration-test file");
    }

    #[test]
    fn statics_and_atomic_fields() {
        let ix = index(
            LIB,
            "static NEXT_ID: AtomicU64 = AtomicU64::new(0);\n\
             static NAME: &str = \"x\";\n\
             struct S { hits: AtomicU64, label: String, flag: std::sync::atomic::AtomicBool }\n\
             struct Unit;\n\
             struct Tup(u8);",
        );
        assert_eq!(ix.statics.len(), 2);
        assert_eq!(ix.statics[0].name, "NEXT_ID");
        assert!(ix.statics[0].ty.contains("Atomic"));
        let atomics: Vec<&str> = ix.atomics.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(atomics, ["NEXT_ID", "hits", "flag"]);
    }

    #[test]
    fn by_name_resolves_every_same_named_fn() {
        let ix = index(
            LIB,
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn other() {}",
        );
        assert_eq!(ix.by_name["go"].len(), 2);
        assert_eq!(ix.by_name["other"].len(), 1);
    }

    #[test]
    fn body_range_covers_exactly_the_braces() {
        let src = "fn f(a: [u8; 2]) -> [u8; 2] { a }";
        let tf = parse(src).expect("parses");
        let mut ix = ItemIndex::default();
        ix.add_file(LIB, &tf);
        let (s, e) = ix.fns[0].body.expect("has body");
        let inner: Vec<&str> = tf.tokens[s..e].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(inner, ["a"]);
    }
}

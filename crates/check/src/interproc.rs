//! Stage 3 of the analyzer: interprocedural rules over the call graph.
//!
//! | rule | meaning |
//! |------|---------|
//! | `hot-alloc` | no allocating construct (`Vec::new`, `with_capacity`, `collect`, `format!`, `Box::new`, `String` ctors, `vec!`, `to_vec`/`to_string`/`to_owned`) reachable from a hot root — the static twin of the PR 4 counting-allocator zero-steady-state-allocation proof |
//! | `hot-panic` | no `unwrap`/`expect`/`panic!`/`unreachable!`/bare `[…]` indexing reachable from a `// lbq-check: no-panic` root |
//! | `atomic-ordering` | an atomic accessed with Acquire/Release/AcqRel/SeqCst anywhere must not also be accessed `Relaxed` — every Relaxed use of a cross-thread gate needs a justified allow |
//! | `guard-across-call` | no `MutexGuard` held across a call into the hot call graph — a lock around a tree traversal serializes the whole pool |
//!
//! All four rules report *sites*; the reason-carrying allow comment
//! (`// lbq-check: allow(rule, "why")`, see [`crate::rules`]) silences
//! a site like any other diagnostic. Hot/no-panic provenance is spelled
//! out in each message (`hot via knn_in → knn_core`) so a finding deep
//! in a callee is traceable to its root.

use crate::callgraph::CallGraph;
use crate::items::ItemIndex;
use crate::lexer::TokenKind;
use crate::parse::TokenFile;
use crate::rules::Diagnostic;
use std::collections::HashMap;

/// Runs all interprocedural rules. `files` is index-aligned with
/// [`ItemIndex::files`].
pub fn run(ix: &ItemIndex, cg: &CallGraph, files: &[&TokenFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    hot_alloc(ix, cg, files, &mut out);
    hot_panic(ix, cg, files, &mut out);
    atomic_ordering(ix, files, &mut out);
    guard_across_call(ix, cg, files, &mut out);
    out
}

/// Container types whose `new`/`with_capacity`/`from` constructors own
/// heap storage.
const ALLOC_TYPES: [&str; 10] = [
    "Vec", "VecDeque", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Box", "Arc", "Rc",
];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
/// Allocating methods (`recv.collect()` &c.).
const ALLOC_METHODS: [&str; 4] = ["collect", "to_vec", "to_string", "to_owned"];
/// Allocating macros.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// `hot-alloc`: allocation constructs inside functions on the hot call
/// graph.
fn hot_alloc(ix: &ItemIndex, cg: &CallGraph, files: &[&TokenFile], out: &mut Vec<Diagnostic>) {
    for (fi, f) in ix.fns.iter().enumerate() {
        if cg.hot[fi].is_none() {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let tf = files[f.file];
        let chain = cg.chain(ix, &cg.hot, fi);
        for_each_body_code(tf, start, end, |code, p| {
            let t = &tf.tokens[code[p]];
            if t.kind != TokenKind::Ident {
                return;
            }
            let next = |k: usize| code.get(p + k).map(|&n| tf.tokens[n].text.as_str());
            let prev = |k: usize| p.checked_sub(k).map(|q| tf.tokens[code[q]].text.as_str());
            let name = t.text.as_str();
            let what: Option<String> = if ALLOC_MACROS.contains(&name) && next(1) == Some("!") {
                Some(format!("{name}!"))
            } else if ALLOC_CTORS.contains(&name)
                && next(1) == Some("(")
                && prev(1) == Some(":")
                && prev(2) == Some(":")
                && prev(3).is_some_and(|q| ALLOC_TYPES.contains(&q))
            {
                // prev(3) was just matched Some.
                Some(format!("{}::{}", prev(3).expect("matched above"), name))
            } else if ALLOC_METHODS.contains(&name)
                && prev(1) == Some(".")
                && (next(1) == Some("(") || (next(1) == Some(":") && next(2) == Some(":")))
            {
                Some(format!(".{name}()"))
            } else {
                None
            };
            if let Some(what) = what {
                out.push(Diagnostic {
                    rule: "hot-alloc",
                    file: ix.files[f.file].clone(),
                    line: t.line,
                    message: format!(
                        "allocating `{what}` on the hot path (hot via {chain}); move the \
                         buffer into QueryScratch, mark the callee `// lbq-check: cold`, \
                         or justify with an allow"
                    ),
                });
            }
        });
    }
}

/// Keywords that can legitimately precede a `[` without it being an
/// indexing expression (`return [a, b]`, `match [x] { … }`).
const NON_INDEX_KEYWORDS: [&str; 18] = [
    "in", "as", "return", "break", "continue", "else", "match", "if", "while", "loop", "move",
    "ref", "mut", "box", "dyn", "where", "unsafe", "await",
];

/// `hot-panic`: panic sites inside functions on a no-panic path.
fn hot_panic(ix: &ItemIndex, cg: &CallGraph, files: &[&TokenFile], out: &mut Vec<Diagnostic>) {
    for (fi, f) in ix.fns.iter().enumerate() {
        if cg.no_panic[fi].is_none() {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let tf = files[f.file];
        let chain = cg.chain(ix, &cg.no_panic, fi);
        for_each_body_code(tf, start, end, |code, p| {
            let t = &tf.tokens[code[p]];
            let next = |k: usize| code.get(p + k).map(|&n| tf.tokens[n].text.as_str());
            let prev = |k: usize| p.checked_sub(k).map(|q| &tf.tokens[code[q]]);
            let what: Option<String> = match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, m @ ("unwrap" | "expect"))
                    if prev(1).is_some_and(|q| q.text == ".") && next(1) == Some("(") =>
                {
                    Some(format!(".{m}()"))
                }
                (TokenKind::Ident, m @ ("panic" | "unreachable")) if next(1) == Some("!") => {
                    Some(format!("{m}!"))
                }
                (TokenKind::Punct, "[") => {
                    let is_index = prev(1).is_some_and(|q| match q.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&q.text.as_str()),
                        TokenKind::Punct => q.text == ")" || q.text == "]",
                        _ => false,
                    });
                    is_index.then(|| "bare `[…]` indexing".to_string())
                }
                _ => None,
            };
            if let Some(what) = what {
                out.push(Diagnostic {
                    rule: "hot-panic",
                    file: ix.files[f.file].clone(),
                    line: t.line,
                    message: format!(
                        "{what} on a no-panic path (no-panic via {chain}); return an \
                         Option/use get(), or justify the invariant with an allow"
                    ),
                });
            }
        });
    }
}

/// Atomic RMW/load/store methods whose ordering argument the rule
/// inspects.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic access site.
struct AtomicSite {
    /// Receiver identifier directly before the method call.
    field: String,
    method: String,
    /// All `Ordering::X` names found in the argument list.
    orderings: Vec<&'static str>,
    file: usize,
    line: u32,
}

/// `atomic-ordering`: per-field ordering-pairing analysis. A field
/// accessed with Acquire/Release/AcqRel/SeqCst anywhere gates
/// cross-thread data; every all-Relaxed access to the same field is
/// flagged.
fn atomic_ordering(ix: &ItemIndex, files: &[&TokenFile], out: &mut Vec<Diagnostic>) {
    let mut sites: Vec<AtomicSite> = Vec::new();
    for f in &ix.fns {
        if f.is_test || ItemIndex::lib_crate(&ix.files[f.file]).is_none() {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let tf = files[f.file];
        for_each_body_code(tf, start, end, |code, p| {
            let t = &tf.tokens[code[p]];
            if t.kind != TokenKind::Ident || !ATOMIC_METHODS.contains(&t.text.as_str()) {
                return;
            }
            let dot_before = p
                .checked_sub(1)
                .is_some_and(|q| tf.tokens[code[q]].text == ".");
            let open = code.get(p + 1).copied();
            if !dot_before || open.map(|ti| tf.tokens[ti].text.as_str()) != Some("(") {
                return;
            }
            let Some(close) = open.and_then(|ti| tf.match_of(ti)) else {
                return;
            };
            // open was tested Some above.
            let open = open.expect("checked above");
            let mut orderings = Vec::new();
            let mut i = open + 1;
            while i < close {
                let a = &tf.tokens[i];
                if a.kind == TokenKind::Ident {
                    if let Some(&o) = ORDERINGS.iter().find(|&&o| o == a.text) {
                        // Require the `Ordering ::` qualifier so
                        // unrelated identifiers cannot match.
                        let qualified = i >= 3
                            && tf.tokens[i - 1].text == ":"
                            && tf.tokens[i - 2].text == ":"
                            && tf.tokens[i - 3].text == "Ordering";
                        if qualified {
                            orderings.push(o);
                        }
                    }
                }
                i += 1;
            }
            if orderings.is_empty() {
                return; // `.load(` on something that is not an atomic
            }
            let field = p
                .checked_sub(2)
                .map(|q| &tf.tokens[code[q]])
                .filter(|r| r.kind == TokenKind::Ident)
                .map(|r| r.text.clone())
                .unwrap_or_else(|| "<expr>".to_string());
            sites.push(AtomicSite {
                field,
                method: t.text.clone(),
                orderings,
                file: f.file,
                line: t.line,
            });
        });
    }
    // Pairing table: field → does any site use a non-Relaxed ordering?
    let mut strong_at: HashMap<&str, (usize, u32)> = HashMap::new();
    for s in &sites {
        if s.orderings.iter().any(|&o| o != "Relaxed") {
            strong_at.entry(&s.field).or_insert((s.file, s.line));
        }
    }
    for s in &sites {
        let all_relaxed = s.orderings.iter().all(|&o| o == "Relaxed");
        if !all_relaxed {
            continue;
        }
        if let Some(&(sf, sl)) = strong_at.get(s.field.as_str()) {
            out.push(Diagnostic {
                rule: "atomic-ordering",
                file: ix.files[s.file].clone(),
                line: s.line,
                message: format!(
                    "atomic `{}` pairs Acquire/Release at {}:{}; this Relaxed `{}` \
                     breaks the ordering contract — strengthen it or justify with an allow",
                    s.field, ix.files[sf], sl, s.method
                ),
            });
        }
    }
}

/// `guard-across-call`: a `let`-bound guard from `.lock()` that is
/// still live when the function calls into the hot call graph.
fn guard_across_call(
    ix: &ItemIndex,
    cg: &CallGraph,
    files: &[&TokenFile],
    out: &mut Vec<Diagnostic>,
) {
    for (fi, f) in ix.fns.iter().enumerate() {
        if f.is_test || ItemIndex::lib_crate(&ix.files[f.file]).is_none() {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let tf = files[f.file];
        let code: Vec<usize> = tf
            .code
            .iter()
            .copied()
            .filter(|&ti| ti >= start && ti < end)
            .collect();
        // Innermost enclosing brace-close for each code position.
        let mut brace_stack: Vec<usize> = Vec::new(); // token idx of pending closes
        let mut scope_close: Vec<usize> = Vec::with_capacity(code.len());
        for &ti in &code {
            while brace_stack.last().is_some_and(|&c| ti > c) {
                brace_stack.pop();
            }
            scope_close.push(brace_stack.last().copied().unwrap_or(end));
            if tf.tokens[ti].text == "{" {
                if let Some(c) = tf.match_of(ti) {
                    brace_stack.push(c);
                }
            }
        }
        for p in 0..code.len() {
            if tf.tokens[code[p]].text != "let" {
                continue;
            }
            // Binding name: `let [mut] name = …`. Destructuring patterns
            // are skipped (no single guard identity).
            let mut q = p + 1;
            if code.get(q).is_some_and(|&ti| tf.tokens[ti].text == "mut") {
                q += 1;
            }
            let Some(&name_ti) = code.get(q) else {
                continue;
            };
            let name_tok = &tf.tokens[name_ti];
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            // Statement extent: to the `;` at this nesting level.
            let mut r = q + 1;
            let mut has_lock = false;
            let stmt_end;
            loop {
                let Some(&ti) = code.get(r) else {
                    stmt_end = end;
                    break;
                };
                let t = &tf.tokens[ti];
                if t.text == ";" {
                    stmt_end = ti;
                    break;
                }
                if matches!(t.text.as_str(), "(" | "[" | "{") {
                    // Descend into groups only to look for `.lock(`.
                    if let Some(c) = tf.match_of(ti) {
                        if contains_lock_call(tf, ti, c) {
                            has_lock = true;
                        }
                        while code.get(r).is_some_and(|&x| x <= c) {
                            r += 1;
                        }
                        continue;
                    }
                }
                if t.text == "lock"
                    && t.kind == TokenKind::Ident
                    && r > 0
                    && tf.tokens[code[r - 1]].text == "."
                    && code.get(r + 1).is_some_and(|&n| tf.tokens[n].text == "(")
                {
                    has_lock = true;
                }
                r += 1;
            }
            if !has_lock {
                continue;
            }
            let guard = name_tok.text.clone();
            // Live until `drop(guard)` or the end of the enclosing block.
            let mut live_end = scope_close[p];
            let mut s = r;
            while let Some(&ti) = code.get(s) {
                if ti >= live_end {
                    break;
                }
                if tf.tokens[ti].text == "drop"
                    && code.get(s + 1).is_some_and(|&n| tf.tokens[n].text == "(")
                    && code.get(s + 2).is_some_and(|&n| tf.tokens[n].text == guard)
                {
                    live_end = ti;
                    break;
                }
                s += 1;
            }
            // Any hot call strictly inside the live range?
            let mut seen_tok = usize::MAX;
            for call in &cg.calls[fi] {
                if call.tok <= stmt_end || call.tok >= live_end || call.tok == seen_tok {
                    continue;
                }
                if cg.hot[call.callee].is_none() {
                    continue;
                }
                seen_tok = call.tok;
                let callee = &ix.fns[call.callee];
                out.push(Diagnostic {
                    rule: "guard-across-call",
                    file: ix.files[f.file].clone(),
                    line: call.line,
                    message: format!(
                        "guard `{guard}` (locked on line {}) is held across a call into \
                         the hot call graph (`{}`, hot via {}); drop the guard before the \
                         call or justify with an allow",
                        name_tok.line,
                        callee.name,
                        cg.chain(ix, &cg.hot, call.callee)
                    ),
                });
            }
        }
    }
}

/// True when `tokens[open..close]` contains a `.lock(` call.
fn contains_lock_call(tf: &TokenFile, open: usize, close: usize) -> bool {
    let mut i = open + 1;
    while i + 1 < close {
        let t = &tf.tokens[i];
        if t.kind == TokenKind::Ident
            && t.text == "lock"
            && i >= 1
            && tf.tokens[..i]
                .iter()
                .rev()
                .find(|x| !x.is_comment())
                .is_some_and(|x| x.text == ".")
            && tf.tokens[i + 1..close]
                .iter()
                .find(|x| !x.is_comment())
                .is_some_and(|x| x.text == "(")
        {
            return true;
        }
        i += 1;
    }
    false
}

/// Calls `f(code, p)` for every code position `p` restricted to
/// `tokens[start..end)`. `code` holds raw token indices.
fn for_each_body_code(
    tf: &TokenFile,
    start: usize,
    end: usize,
    mut f: impl FnMut(&[usize], usize),
) {
    let code: Vec<usize> = tf
        .code
        .iter()
        .copied()
        .filter(|&ti| ti >= start && ti < end)
        .collect();
    // `debug_assert*!(…)` groups are compiled out of the release
    // builds the hot-path proofs measure; nothing inside them counts.
    let mut skip_until: usize = 0;
    for p in 0..code.len() {
        let ti = code[p];
        if ti < skip_until {
            continue;
        }
        if tf.tokens[ti].text.starts_with("debug_assert")
            && code.get(p + 1).map(|&n| tf.tokens[n].text.as_str()) == Some("!")
        {
            if let Some(close) = code.get(p + 2).and_then(|&open| tf.match_of(open)) {
                skip_until = close;
            }
            continue;
        }
        f(&code, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::parse::parse;

    fn check(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut ix = ItemIndex::default();
        let mut tfs = Vec::new();
        for (path, src) in srcs {
            let tf = parse(src).expect("fixture parses");
            ix.add_file(path, &tf);
            tfs.push(tf);
        }
        let refs: Vec<&TokenFile> = tfs.iter().collect();
        let cg = CallGraph::build(&ix, &refs);
        run(&ix, &cg, &refs)
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hot_alloc_fires_transitively() {
        let d = check(&[(
            "crates/rtree/src/x.rs",
            "pub fn knn_in() { helper(); }\n\
             fn helper() { let v: Vec<u8> = Vec::with_capacity(4); }",
        )]);
        assert_eq!(rules_of(&d), ["hot-alloc"]);
        assert!(d[0].message.contains("knn_in → helper"), "{}", d[0].message);
    }

    #[test]
    fn hot_alloc_covers_each_construct() {
        for (snippet, needle) in [
            ("let v = vec![1, 2];", "vec!"),
            ("let s = format!(\"x\");", "format!"),
            ("let b = Box::new(3);", "Box::new"),
            ("let s = String::new();", "String::new"),
            ("let v: Vec<u8> = it.collect();", ".collect()"),
            ("let v = it.collect::<Vec<u8>>();", ".collect()"),
            ("let v = s.to_vec();", ".to_vec()"),
            ("let s = x.to_string();", ".to_string()"),
        ] {
            let src = format!("pub fn q_in(it: I, s: &[u8], x: u8) {{ {snippet} }}");
            let d = check(&[("crates/rtree/src/x.rs", &src)]);
            assert_eq!(rules_of(&d), ["hot-alloc"], "snippet: {snippet}");
            assert!(d[0].message.contains(needle), "{}", d[0].message);
        }
    }

    #[test]
    fn hot_alloc_ignores_cold_fns_and_warm_pushes() {
        let d = check(&[(
            "crates/rtree/src/x.rs",
            "pub fn knn_in(s: &mut Vec<u8>) { s.push(1); s.clear(); grow(); }\n\
             // lbq-check: cold — one-time scratch warm-up\n\
             fn grow() { let v: Vec<u8> = Vec::with_capacity(64); }\n\
             fn never_hot() { let v = vec![1]; }",
        )]);
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn hot_panic_fires_on_annotated_paths() {
        let d = check(&[(
            "crates/serve/src/x.rs",
            "// lbq-check: no-panic — worker must survive poisoned locks\n\
             fn worker(v: &[u8], o: Option<u8>) { step(v); o.unwrap(); }\n\
             fn step(v: &[u8]) { let _x = v[0]; }",
        )]);
        let rules = rules_of(&d);
        assert_eq!(rules, ["hot-panic", "hot-panic"], "{d:?}");
        assert!(d.iter().any(|d| d.message.contains(".unwrap()")));
        assert!(d.iter().any(|d| d.message.contains("indexing")));
    }

    #[test]
    fn hot_panic_ignores_slice_types_and_array_literals() {
        let d = check(&[(
            "crates/serve/src/x.rs",
            "// lbq-check: no-panic\n\
             fn worker(v: &[u8]) -> [u8; 2] { let a = [1u8, 2]; let _s: &[u8] = v; a }",
        )]);
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn atomic_ordering_flags_mixed_fields() {
        let d = check(&[(
            "crates/serve/src/x.rs",
            "struct S { flag: AtomicBool }\n\
             impl S {\n\
             fn publish(&self) { self.flag.store(true, Ordering::Release); }\n\
             fn check(&self) -> bool { self.flag.load(Ordering::Relaxed) }\n\
             }",
        )]);
        assert_eq!(rules_of(&d), ["atomic-ordering"]);
        assert!(d[0].message.contains("`flag`"), "{}", d[0].message);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn atomic_ordering_accepts_consistent_fields() {
        let d = check(&[(
            "crates/serve/src/x.rs",
            "struct S { hits: AtomicU64, gate: AtomicBool }\n\
             impl S {\n\
             fn a(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn b(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
             fn c(&self) { self.gate.store(true, Ordering::Release); }\n\
             fn d(&self) -> bool { self.gate.load(Ordering::Acquire) }\n\
             }",
        )]);
        assert!(
            d.is_empty(),
            "pure counters and paired gates are fine: {d:?}"
        );
    }

    #[test]
    fn guard_across_call_fires_and_respects_drop() {
        let d = check(&[(
            "crates/rtree/src/x.rs",
            "pub fn traverse_in() {}\n\
             fn bad(m: &Mutex<u8>) { let g = m.lock(); traverse_in(); }\n\
             fn good(m: &Mutex<u8>) { let g = m.lock(); drop(g); traverse_in(); }\n\
             fn scoped(m: &Mutex<u8>) { { let g = m.lock(); } traverse_in(); }",
        )]);
        assert_eq!(rules_of(&d), ["guard-across-call"], "{d:?}");
        assert!(d[0].message.contains("`g`"));
        assert!(d[0].message.contains("traverse_in"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn guard_across_cold_call_is_fine() {
        let d = check(&[(
            "crates/rtree/src/x.rs",
            "pub fn traverse_in() {}\n\
             fn cold_helper() {}\n\
             fn ok(m: &Mutex<u8>) { let g = m.lock(); cold_helper(); }",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}

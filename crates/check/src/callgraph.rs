//! Stage 2b of the analyzer: the conservative intra-workspace call
//! graph and the transitive property propagation on top of it.
//!
//! ## Resolution model
//!
//! Calls are resolved **by name**: a call site `foo(…)`, `x.foo(…)` or
//! `Path::foo(…)` gets an edge to *every* indexed function named `foo`
//! (for `Type::foo(…)` with a known `impl Type`, only that type's
//! `foo`). No type inference — the graph over-approximates, with one
//! deliberate recall exception: a `.method(…)` call whose name is on
//! the [`STD_METHODS`] list (`len`, `push`, `insert`, `collect`, …) is
//! treated as a std-library call and produces **no** edge. Without
//! that carve-out, every `HashMap::insert` in the workspace aliases
//! `RegionCache::insert` and the Delaunay builder's `insert`, and the
//! graph becomes all noise. A workspace method shadowing a std name loses
//! propagation; the runtime counting-allocator assertions remain the
//! ground-truth backstop for that gap. The `// lbq-check: cold`
//! annotation and reason-carrying allows are the other pressure valves
//! (see DESIGN.md §13).
//!
//! ## Propagation
//!
//! Two properties flow root → callee, transitively:
//!
//! * **hot** — seeded by every `*_in` query entry point in the `rtree`
//!   library code (the scratch-backed zero-steady-state-allocation
//!   query API) and by `// lbq-check: hot` annotations
//!   (`knn_region_in` in core — the serving path's region construction
//!   — and `retrieve_influence_set_in`, the paper's TPNN chain kept as
//!   the figures' construction and the differential oracle: the two core
//!   entry points under a runtime zero-alloc assertion; core's other
//!   `_in` fns build owned responses and allocate by design — and the
//!   serve worker loop). Consumed by `hot-alloc` and `guard-across-call`.
//! * **no-panic** — seeded by `// lbq-check: no-panic` annotations
//!   only. Consumed by `hot-panic`.
//!
//! Propagation stops at `// lbq-check: cold` functions, at test code,
//! and at the `crates/obs` boundary: the observability hooks are
//! allocation-free when disabled (exactly the configuration the
//! runtime counting-allocator proof measures), so their enabled-path
//! internals are exempt by policy, mirroring the runtime harness.

use crate::items::{FnItem, ItemIndex};
use crate::lexer::TokenKind;
use crate::parse::TokenFile;

/// Crates whose functions act as propagation barriers (see module
/// docs).
pub const BARRIER_CRATES: [&str; 1] = ["obs"];

/// How a function acquired a propagated property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The function is itself a root (annotation or `*_in` naming).
    Root,
    /// Reached through a call from this function (index into
    /// [`ItemIndex::fns`]).
    Via(usize),
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Callee: index into [`ItemIndex::fns`].
    pub callee: usize,
    /// Raw token index of the callee name at the call site.
    pub tok: usize,
    /// 1-based source line of the call.
    pub line: u32,
}

/// The call graph plus propagation results, index-aligned with
/// [`ItemIndex::fns`].
#[derive(Debug)]
pub struct CallGraph {
    /// Outgoing resolved calls per function.
    pub calls: Vec<Vec<Call>>,
    /// `Some` iff the function is on the hot call graph.
    pub hot: Vec<Option<Provenance>>,
    /// `Some` iff the function is on a no-panic path.
    pub no_panic: Vec<Option<Provenance>>,
}

/// Method names resolved as std-library calls: a `.name(…)` call with
/// one of these names produces no workspace edge (see module docs).
/// Qualified calls (`Type::name(…)`) are unaffected.
pub const STD_METHODS: [&str; 52] = [
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "clear",
    "extend",
    "drain",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "sort",
    "sort_unstable",
    "dedup",
    "retain",
    "truncate",
    "reserve",
    "resize",
    "fill",
    "swap",
    "take",
    "replace",
    "clone",
    "to_owned",
    "to_vec",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "last",
    "first",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "peek",
    "lock",
    "read",
    "write",
    "set",
    "count",
];

/// True when `f` seeds the hot set: annotated, or an `*_in` query entry
/// point in the rtree library code.
pub fn is_hot_root(ix: &ItemIndex, f: &FnItem) -> bool {
    if f.ann.hot {
        return true;
    }
    if f.is_test || f.body.is_none() || !f.name.ends_with("_in") {
        return false;
    }
    ItemIndex::lib_crate(&ix.files[f.file]) == Some("rtree")
}

/// True when propagation must not enter `f` (nor continue through it).
fn is_barrier(ix: &ItemIndex, f: &FnItem) -> bool {
    if f.ann.cold || f.is_test {
        return true;
    }
    matches!(ItemIndex::lib_crate(&ix.files[f.file]),
        Some(k) if BARRIER_CRATES.contains(&k))
}

impl CallGraph {
    /// Builds the graph and runs both propagations. `files` must be
    /// index-aligned with [`ItemIndex::files`].
    pub fn build(ix: &ItemIndex, files: &[&TokenFile]) -> CallGraph {
        let calls: Vec<Vec<Call>> = ix
            .fns
            .iter()
            .map(|f| match f.body {
                Some((start, end)) => {
                    resolve_calls(ix, files[f.file], start, end, f.owner.as_deref())
                }
                None => Vec::new(),
            })
            .collect();
        let hot = propagate(ix, &calls, |f| is_hot_root(ix, f));
        let no_panic = propagate(ix, &calls, |f| f.ann.no_panic);
        CallGraph {
            calls,
            hot,
            no_panic,
        }
    }

    /// Root-to-`idx` provenance chain, e.g. `knn_in → knn_core`, for
    /// diagnostics. Walks the `via` pointers back to a root.
    pub fn chain(&self, ix: &ItemIndex, prov: &[Option<Provenance>], idx: usize) -> String {
        let mut names = vec![ix.fns[idx].name.clone()];
        let mut cur = idx;
        // The via chain is acyclic by construction (BFS tree), but cap
        // the walk anyway so a future bug cannot hang the analyzer.
        for _ in 0..prov.len() {
            match prov[cur] {
                Some(Provenance::Via(p)) => {
                    names.push(ix.fns[p].name.clone());
                    cur = p;
                }
                _ => break,
            }
        }
        names.reverse();
        names.join(" → ")
    }
}

/// BFS from every root, stopping at barriers.
fn propagate(
    ix: &ItemIndex,
    calls: &[Vec<Call>],
    is_root: impl Fn(&FnItem) -> bool,
) -> Vec<Option<Provenance>> {
    let mut state: Vec<Option<Provenance>> = vec![None; ix.fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in ix.fns.iter().enumerate() {
        if is_root(f) && !is_barrier(ix, f) {
            state[i] = Some(Provenance::Root);
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        for c in &calls[i] {
            if state[c.callee].is_none() && !is_barrier(ix, &ix.fns[c.callee]) {
                state[c.callee] = Some(Provenance::Via(i));
                queue.push(c.callee);
            }
        }
    }
    state
}

/// Scans `tokens[start..end]` (a function body) for call sites and
/// resolves each by name against the index. `owner` is the enclosing
/// impl's self type, used to resolve `Self::` paths.
fn resolve_calls(
    ix: &ItemIndex,
    tf: &TokenFile,
    start: usize,
    end: usize,
    owner: Option<&str>,
) -> Vec<Call> {
    let toks = &tf.tokens;
    let mut out = Vec::new();
    // Code-token positions restricted to the body.
    let code: Vec<usize> = tf
        .code
        .iter()
        .copied()
        .filter(|&ti| ti >= start && ti < end)
        .collect();
    // Raw-token bound below which call sites are ignored: set past the
    // closing delimiter of a `debug_assert*!(…)` group, because those
    // groups are compiled out of the release builds the hot-path
    // proofs measure.
    let mut skip_until: usize = 0;
    for (p, &ti) in code.iter().enumerate() {
        if ti < skip_until {
            continue;
        }
        let t = &toks[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // A call is `name (`; `name !` is a macro, `fn name` a nested
        // definition.
        let next = code.get(p + 1).map(|&n| toks[n].text.as_str());
        if t.text.starts_with("debug_assert") && next == Some("!") {
            if let Some(close) = code.get(p + 2).and_then(|&open| tf.match_of(open)) {
                skip_until = close;
            }
            continue;
        }
        if next != Some("(") {
            continue;
        }
        let prev = p.checked_sub(1).map(|q| toks[code[q]].text.as_str());
        if prev == Some("fn") {
            continue;
        }
        // `.len(…)` and friends: std container/iterator workhorses —
        // resolving them by name would alias half the workspace.
        if prev == Some(".") && STD_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        // `Qualifier::name(` — the qualifier decides the resolution
        // scope (see below).
        let qualified = p >= 3
            && toks[code[p - 1]].text == ":"
            && toks[code[p - 2]].text == ":"
            && toks[code[p - 3]].kind == TokenKind::Ident;
        let qualifier = qualified.then(|| toks[code[p - 3]].text.as_str());
        let Some(cands) = ix.by_name.get(&t.text) else {
            continue;
        };
        let targets: Vec<usize> = match qualifier {
            Some(q) => {
                let q = if q == "Self" { owner.unwrap_or(q) } else { q };
                if ix.impls.iter().any(|im| im.ty == q) || ix.traits.iter().any(|t| t.name == q) {
                    // Known workspace type: only its own methods. An
                    // empty result means a derived/blanket method —
                    // external, no edge.
                    cands
                        .iter()
                        .copied()
                        .filter(|&fi| ix.fns[fi].owner.as_deref() == Some(q))
                        .collect()
                } else if q.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
                    // Module or crate path segment (`crate::util::f`,
                    // `lbq_core::g`): any same-named workspace fn.
                    cands.clone()
                } else {
                    // External type (`Vec::new`, `AtomicU64::new`,
                    // `Instant::now`): not a workspace call.
                    Vec::new()
                }
            }
            // Bare calls and `.method(` calls: every candidate.
            None => cands.clone(),
        };
        for callee in targets {
            out.push(Call {
                callee,
                tok: ti,
                line: t.line,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn build(srcs: &[(&str, &str)]) -> (ItemIndex, Vec<crate::parse::TokenFile>) {
        let mut ix = ItemIndex::default();
        let mut files = Vec::new();
        for (path, src) in srcs {
            let tf = parse(src).expect("fixture parses");
            ix.add_file(path, &tf);
            files.push(tf);
        }
        (ix, files)
    }

    fn graph(srcs: &[(&str, &str)]) -> (ItemIndex, CallGraph) {
        let (ix, files) = build(srcs);
        let refs: Vec<&crate::parse::TokenFile> = files.iter().collect();
        let cg = CallGraph::build(&ix, &refs);
        (ix, cg)
    }

    fn fn_idx(ix: &ItemIndex, name: &str) -> usize {
        ix.by_name[name][0]
    }

    #[test]
    fn direct_and_method_calls_resolve() {
        let (ix, cg) = graph(&[(
            "crates/core/src/x.rs",
            "fn a() { b(); }\nfn b() { }\nimpl S { fn m(&self) { a(); } }\n\
             fn c(s: &S) { s.m(); }",
        )]);
        let a = fn_idx(&ix, "a");
        let c = fn_idx(&ix, "c");
        assert_eq!(cg.calls[a].len(), 1);
        assert_eq!(ix.fns[cg.calls[a][0].callee].name, "b");
        assert_eq!(ix.fns[cg.calls[c][0].callee].name, "m");
    }

    #[test]
    fn qualified_calls_restrict_to_the_impl() {
        let (ix, cg) = graph(&[(
            "crates/core/src/x.rs",
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
             fn f() { A::go(); }\nfn g(x: &A) { x.go(); }",
        )]);
        let f = fn_idx(&ix, "f");
        let g = fn_idx(&ix, "g");
        assert_eq!(cg.calls[f].len(), 1, "A::go resolves to A's impl only");
        assert_eq!(ix.fns[cg.calls[f][0].callee].owner.as_deref(), Some("A"));
        assert_eq!(cg.calls[g].len(), 2, "method call keeps both candidates");
    }

    #[test]
    fn hot_propagates_from_in_roots_and_annotations() {
        let (ix, cg) = graph(&[
            (
                "crates/rtree/src/x.rs",
                "pub fn knn_in(s: &mut S) { core_loop(s); }\n\
                 fn core_loop(s: &mut S) { helper(); }\nfn helper() {}\nfn unrelated() {}",
            ),
            (
                "crates/serve/src/y.rs",
                "// lbq-check: hot — worker loop\nfn worker_loop() { helper(); }",
            ),
        ]);
        assert_eq!(cg.hot[fn_idx(&ix, "knn_in")], Some(Provenance::Root));
        assert!(cg.hot[fn_idx(&ix, "core_loop")].is_some());
        assert!(cg.hot[fn_idx(&ix, "helper")].is_some());
        assert!(cg.hot[fn_idx(&ix, "unrelated")].is_none());
        assert_eq!(cg.hot[fn_idx(&ix, "worker_loop")], Some(Provenance::Root));
        let chain = cg.chain(&ix, &cg.hot, fn_idx(&ix, "helper"));
        assert!(
            chain.ends_with("→ helper"),
            "chain shows provenance: {chain}"
        );
    }

    #[test]
    fn in_roots_require_rtree_lib_code() {
        let (ix, cg) = graph(&[
            ("crates/bench/src/x.rs", "pub fn run_in() { }"),
            ("crates/rtree/tests/t.rs", "pub fn probe_in() { }"),
            ("crates/core/src/x.rs", "pub fn build_response_in() { }"),
        ]);
        assert!(cg.hot[fn_idx(&ix, "run_in")].is_none(), "bench crate");
        assert!(cg.hot[fn_idx(&ix, "probe_in")].is_none(), "test file");
        assert!(
            cg.hot[fn_idx(&ix, "build_response_in")].is_none(),
            "core response builders allocate by design; they opt in via annotation"
        );
    }

    #[test]
    fn std_method_names_do_not_alias_workspace_fns() {
        let (ix, cg) = graph(&[(
            "crates/rtree/src/x.rs",
            "impl T { fn insert(&mut self) {} fn len(&self) -> usize { 0 } }\n\
             pub fn q_in(m: &mut M) { m.insert(1, 2); let _n = m.len(); T::insert(t); }",
        )]);
        let q = fn_idx(&ix, "q_in");
        let callees: Vec<&str> = cg.calls[q]
            .iter()
            .map(|c| ix.fns[c.callee].name.as_str())
            .collect();
        assert_eq!(
            callees,
            ["insert"],
            "dot-calls on std names skip resolution; qualified calls still resolve"
        );
        assert!(cg.hot[fn_idx(&ix, "len")].is_none());
    }

    #[test]
    fn cold_and_obs_are_barriers() {
        let (ix, cg) = graph(&[
            (
                "crates/rtree/src/x.rs",
                "pub fn q_in() { mutate(); span(); }\n\
                 // lbq-check: cold — mutation path\nfn mutate() { deep(); }\nfn deep() {}",
            ),
            (
                "crates/obs/src/t.rs",
                "pub fn span() { alloc_here(); }\nfn alloc_here() {}",
            ),
        ]);
        assert!(cg.hot[fn_idx(&ix, "mutate")].is_none(), "cold annotation");
        assert!(cg.hot[fn_idx(&ix, "deep")].is_none(), "behind the barrier");
        assert!(cg.hot[fn_idx(&ix, "span")].is_none(), "obs boundary");
        assert!(cg.hot[fn_idx(&ix, "alloc_here")].is_none());
    }

    #[test]
    fn no_panic_propagates_from_annotations_only() {
        let (ix, cg) = graph(&[(
            "crates/serve/src/x.rs",
            "// lbq-check: no-panic — drop path must not unwind\n\
             fn shutdown() { flush(); }\nfn flush() {}\npub fn other_in() {}",
        )]);
        assert!(cg.no_panic[fn_idx(&ix, "shutdown")].is_some());
        assert!(cg.no_panic[fn_idx(&ix, "flush")].is_some());
        assert!(
            cg.no_panic[fn_idx(&ix, "other_in")].is_none(),
            "_in naming seeds hot, not no-panic"
        );
    }

    #[test]
    fn external_types_do_not_alias_workspace_fns() {
        let (ix, cg) = graph(&[(
            "crates/core/src/x.rs",
            "impl S { fn new() -> S { S } }\n\
             fn f() { let _v: Vec<u8> = Vec::new(); let _a = AtomicU64::new(0); }\n\
             fn g() -> S { Self_less(); S::new() }\nfn Self_less() {}",
        )]);
        assert!(
            cg.calls[fn_idx(&ix, "f")].is_empty(),
            "Vec::new / AtomicU64::new are external"
        );
        let g = fn_idx(&ix, "g");
        let callees: Vec<&str> = cg.calls[g]
            .iter()
            .map(|c| ix.fns[c.callee].name.as_str())
            .collect();
        assert!(callees.contains(&"new"), "S::new resolves");
    }

    #[test]
    fn self_paths_resolve_to_the_enclosing_impl() {
        let (ix, cg) = graph(&[(
            "crates/core/src/x.rs",
            "impl A { fn new() -> A { A } fn fresh() -> A { Self::new() } }\n\
             impl B { fn new() -> B { B } }\n\
             fn crate_path() { crate::nn::helper(); }\nfn helper() {}",
        )]);
        let fresh = fn_idx(&ix, "fresh");
        assert_eq!(cg.calls[fresh].len(), 1);
        assert_eq!(
            ix.fns[cg.calls[fresh][0].callee].owner.as_deref(),
            Some("A")
        );
        let cp = fn_idx(&ix, "crate_path");
        assert_eq!(
            ix.fns[cg.calls[cp][0].callee].name, "helper",
            "module paths resolve by name"
        );
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let (ix, cg) = graph(&[(
            "crates/core/src/x.rs",
            "fn target() {}\nfn f() { target!(); }\nfn g() { target(); }",
        )]);
        assert!(cg.calls[fn_idx(&ix, "f")].is_empty());
        assert_eq!(cg.calls[fn_idx(&ix, "g")].len(), 1);
    }
}

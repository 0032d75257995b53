//! # lbq-check — workspace-specific static analysis
//!
//! A zero-dependency analyzer for this workspace, run as
//! `cargo run -p lbq-check` (wired into `ci.sh`). Three stages:
//!
//! 1. **Parse** ([`lexer`], [`parse`]): a hand-rolled scanner plus
//!    brace matching turns each `.rs` file into a [`parse::TokenFile`].
//!    Files are scanned in parallel by a hand-rolled worker pool (the
//!    same Mutex-queue pattern `lbq-serve` uses).
//! 2. **Index** ([`items`], [`callgraph`]): fns, impls, traits, statics
//!    and atomic fields across all crates feed a conservative
//!    name-resolved call graph; `hot` and `no-panic` properties
//!    propagate transitively from the `_in` query entry points and
//!    `// lbq-check: hot` annotations.
//! 3. **Rules** ([`rules`], [`interproc`]): seven per-file rules
//!    (floating-point hygiene, centralized epsilons, panic-free library
//!    code, checked casts, doc coverage, kebab-case obs names,
//!    reason-carrying allows) and four interprocedural rules
//!    (`hot-alloc`, `hot-panic`, `atomic-ordering`,
//!    `guard-across-call`) over the call graph.
//!
//! Findings can be rendered as text or JSON ([`json`]) and diffed
//! against a committed baseline. Exit status: 0 clean, 1 findings,
//! 2 parse/IO error. See DESIGN.md §13 "Analyzer architecture".

pub mod callgraph;
pub mod interproc;
pub mod items;
pub mod json;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::{check_source, Diagnostic, RULE_NAMES};

use items::ItemIndex;
use parse::{ParseError, TokenFile};
use rules::Allows;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Why a workspace check could not run to completion (exit code 2).
#[derive(Debug)]
pub enum CheckError {
    /// A file or directory could not be read.
    Io {
        /// Path being read when the error occurred.
        file: String,
        /// Underlying IO error.
        source: std::io::Error,
    },
    /// A file could not be brace-matched — the analyzer, not the code,
    /// is confused (the workspace compiles), so findings would be bogus.
    Parse {
        /// Workspace-relative path of the unparseable file.
        file: String,
        /// What went wrong, with line information.
        error: ParseError,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io { file, source } => write!(f, "io error on {file}: {source}"),
            CheckError::Parse { file, error } => write!(f, "parse error in {file}: {error}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Everything stage 1 extracts from one file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Lexed and brace-matched tokens.
    pub tf: TokenFile,
    /// The file's allow directives.
    pub allows: Allows,
    /// Per-file findings, **unfiltered** by the allowlist.
    pub diags: Vec<Diagnostic>,
}

/// Recursively collects every `.rs` file under `root`, skipping
/// `target/`, hidden directories, `fixtures/` trees (the rule
/// fixture corpus under `crates/check/tests/fixtures` is deliberately
/// rule-violating), and nested workspace roots (`benchmark/` is a
/// package of its own that cargo keeps out of this workspace; scanned,
/// its function names alias workspace calls in the by-name call
/// graph). Paths come back sorted and workspace-relative with `/`
/// separators.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target"
                    && name != "fixtures"
                    && !name.starts_with('.')
                    && !is_workspace_root(&path)
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// True when `dir` holds a `Cargo.toml` with a `[workspace]` table.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
}

/// Lexes, parses, and runs the per-file rules over one file.
pub fn analyze_source(path: &str, src: &str) -> Result<FileAnalysis, ParseError> {
    let tf = parse::parse(src)?;
    let allows = Allows::collect(&tf.tokens);
    let diags = rules::per_file(path, &tf.tokens, &allows);
    Ok(FileAnalysis {
        path: path.to_string(),
        tf,
        allows,
        diags,
    })
}

/// Stage 1 over a file list: parallel read + lex + parse + per-file
/// rules. Worker count follows available parallelism (capped at 8 —
/// the scan is IO-light and short). Results come back sorted by path
/// regardless of completion order.
fn scan_files(root: &Path, paths: &[PathBuf]) -> Result<Vec<FileAnalysis>, CheckError> {
    let queue: Mutex<VecDeque<&PathBuf>> = Mutex::new(paths.iter().collect());
    let results: Mutex<Vec<FileAnalysis>> = Mutex::new(Vec::with_capacity(paths.len()));
    let failure: Mutex<Option<CheckError>> = Mutex::new(None);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
        .min(paths.len())
        .max(1);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Ok(mut q) = queue.lock() else { return };
                let Some(path) = q.pop_front() else { return };
                drop(q);
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let outcome = match std::fs::read_to_string(path) {
                    Err(e) => Err(CheckError::Io {
                        file: rel,
                        source: e,
                    }),
                    Ok(src) => analyze_source(&rel, &src)
                        .map_err(|error| CheckError::Parse { file: rel, error }),
                };
                match outcome {
                    Ok(a) => {
                        if let Ok(mut r) = results.lock() {
                            r.push(a);
                        }
                    }
                    Err(e) => {
                        if let Ok(mut f) = failure.lock() {
                            f.get_or_insert(e);
                        }
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().unwrap_or(None) {
        return Err(e);
    }
    let mut out = results.into_inner().unwrap_or_default();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Runs the full three-stage analysis over every `.rs` file under
/// `root` and returns the surviving diagnostics, sorted by file, line,
/// and rule.
pub fn check_workspace(root: &Path) -> Result<Vec<Diagnostic>, CheckError> {
    let paths = workspace_rs_files(root).map_err(|source| CheckError::Io {
        file: root.display().to_string(),
        source,
    })?;
    let analyses = scan_files(root, &paths)?;

    // Stage 2: item index + call graph (sequential; file order is the
    // sorted path order, so indices are deterministic).
    let mut ix = ItemIndex::default();
    for a in &analyses {
        ix.add_file(&a.path, &a.tf);
    }
    let tfs: Vec<&TokenFile> = analyses.iter().map(|a| &a.tf).collect();
    let cg = callgraph::CallGraph::build(&ix, &tfs);

    // Stage 3: per-file findings + interprocedural findings, one shared
    // allow filter.
    let mut out: Vec<Diagnostic> = analyses.iter().flat_map(|a| a.diags.clone()).collect();
    out.extend(interproc::run(&ix, &cg, &tfs));
    let allows: HashMap<&str, &Allows> = analyses
        .iter()
        .map(|a| (a.path.as_str(), &a.allows))
        .collect();
    out.retain(|d| {
        allows
            .get(d.file.as_str())
            .is_none_or(|al| !al.is_allowed(d.rule, d.line))
    });
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        check_source(path, src)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    const LIB: &str = "crates/core/src/x.rs";

    // ---------------------------------------------------- float-eq

    #[test]
    fn float_eq_hits_literal_comparisons() {
        assert_eq!(
            rules_hit(LIB, "fn f(a: f64) -> bool { a == 0.5 }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(a: f64) -> bool { 1e-3 != a }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(a: f64) -> bool { a == -1.0 }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(a: f64) -> bool { a == f64::INFINITY }"),
            ["float-eq"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(a: f64) -> bool { f64::NAN == a }"),
            ["float-eq"]
        );
    }

    #[test]
    fn float_eq_ignores_integers_and_the_approved_module() {
        assert!(rules_hit(LIB, "fn f(a: u64) -> bool { a == 5 }").is_empty());
        assert!(rules_hit(LIB, "fn f(a: u64) -> bool { a != 0x1e }").is_empty());
        assert!(rules_hit(
            rules::APPROVED_EPS_MODULE,
            "fn approx_eq(a: f64, b: f64) -> bool { a == b || (a - b).abs() < 1e-9 }"
        )
        .is_empty());
        // Comparison text inside strings and comments is inert.
        assert!(rules_hit(LIB, "// a == 1.0\nfn f() -> &'static str { \"x == 2.5\" }").is_empty());
    }

    // ------------------------------------------------ local-epsilon

    #[test]
    fn local_epsilon_hits_the_magic_range() {
        assert_eq!(rules_hit(LIB, "const E: f64 = 1e-9;"), ["local-epsilon"]);
        assert_eq!(
            rules_hit(LIB, "const E: f64 = 0.000001;"),
            ["local-epsilon"]
        );
        assert_eq!(rules_hit(LIB, "const E: f64 = 2.5e-7;"), ["local-epsilon"]);
    }

    #[test]
    fn local_epsilon_misses_out_of_range_and_test_code() {
        assert!(rules_hit(LIB, "const E: f64 = 1e-3;").is_empty());
        assert!(rules_hit(LIB, "const E: f64 = 1e-13;").is_empty());
        assert!(rules_hit(rules::APPROVED_EPS_MODULE, "pub const EPS: f64 = 1e-9;").is_empty());
        assert!(rules_hit("crates/core/tests/t.rs", "const E: f64 = 1e-9;").is_empty());
        assert!(rules_hit(LIB, "#[cfg(test)]\nmod tests { const E: f64 = 1e-9; }").is_empty());
    }

    // ----------------------------------------------- no-unwrap-core

    #[test]
    fn no_unwrap_hits_library_code() {
        assert_eq!(
            rules_hit(LIB, "fn f(x: Option<u8>) { x.unwrap(); }"),
            ["no-unwrap-core"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(x: Option<u8>) { x.expect(\"set\"); }"),
            ["no-unwrap-core"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f() { panic!(\"boom\"); }"),
            ["no-unwrap-core"]
        );
    }

    #[test]
    fn no_unwrap_misses_tests_other_crates_and_lookalikes() {
        assert!(rules_hit(
            "crates/core/tests/t.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }"
        )
        .is_empty());
        assert!(rules_hit("crates/core/benches/b.rs", "fn f() { panic!(); }").is_empty());
        assert!(rules_hit(
            "crates/data/src/lib.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }"
        )
        .is_empty());
        assert!(rules_hit(LIB, "fn f(x: Option<u8>) -> u8 { x.unwrap_or(3) }").is_empty());
        assert!(rules_hit(
            LIB,
            "fn f(x: Option<u8>) { let _ = x.unwrap_or_default(); }"
        )
        .is_empty());
        assert!(rules_hit(
            LIB,
            "fn f(x: Option<u8>) { #[cfg(test)] mod t { fn g(x: Option<u8>) { x.unwrap(); } } }"
        )
        .is_empty());
    }

    // --------------------------------------------------- lossy-cast

    #[test]
    fn lossy_cast_hits_narrowing_in_rtree() {
        const RT: &str = "crates/rtree/src/tree.rs";
        assert_eq!(
            rules_hit(RT, "fn f(n: u64) -> u32 { n as u32 }"),
            ["lossy-cast"]
        );
        assert_eq!(
            rules_hit(RT, "fn f(n: u64) -> usize { n as usize }"),
            ["lossy-cast"]
        );
        assert_eq!(
            rules_hit(RT, "fn f(n: usize) -> NodeId { n as NodeId }"),
            ["lossy-cast"]
        );
    }

    #[test]
    fn lossy_cast_misses_widening_and_other_crates() {
        const RT: &str = "crates/rtree/src/tree.rs";
        assert!(rules_hit(RT, "fn f(n: u32) -> u64 { n as u64 }").is_empty());
        assert!(rules_hit(RT, "fn f(n: u32) -> f64 { n as f64 }").is_empty());
        assert!(rules_hit(RT, "use std::fmt as f;").is_empty());
        assert!(rules_hit(LIB, "fn f(n: u64) -> u32 { n as u32 }").is_empty());
    }

    // ------------------------------------------------------ pub-doc

    #[test]
    fn pub_doc_hits_undocumented_items() {
        assert_eq!(rules_hit(LIB, "pub fn f() {}"), ["pub-doc"]);
        assert_eq!(rules_hit(LIB, "pub struct S;"), ["pub-doc"]);
        assert_eq!(
            rules_hit(LIB, "#[derive(Debug)]\npub struct S;"),
            ["pub-doc"]
        );
    }

    #[test]
    fn pub_doc_accepts_documented_and_restricted_items() {
        assert!(rules_hit(LIB, "/// Does f.\npub fn f() {}").is_empty());
        assert!(rules_hit(LIB, "/// S.\n#[derive(Debug)]\npub struct S;").is_empty());
        assert!(rules_hit(LIB, "/** S */\npub struct S;").is_empty());
        assert!(rules_hit(LIB, "pub(crate) fn f() {}").is_empty());
        assert!(rules_hit(LIB, "fn f() {}").is_empty());
        // Only fn/struct are covered.
        assert!(rules_hit(LIB, "pub mod m {}\npub use m as n;").is_empty());
        // Outside the doc-mandatory crates (bench is the only exempt lib).
        assert!(rules_hit("crates/bench/src/lib.rs", "pub fn f() {}").is_empty());
        // Doc comment above an attribute still counts.
        assert!(rules_hit(LIB, "/// Doc.\n#[inline]\npub const fn f() -> u8 { 0 }").is_empty());
    }

    // ------------------------------------------------ obs-span-name

    #[test]
    fn obs_span_name_hits_bad_names() {
        assert_eq!(
            rules_hit(LIB, "fn f() { let _s = lbq_obs::span(\"BadName\"); }"),
            ["obs-span-name"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f() { let _s = lbq_obs::span(\"ends-\"); }"),
            ["obs-span-name"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f() { let _s = lbq_obs::span(\"double--dash\"); }"),
            ["obs-span-name"]
        );
        // Dynamic names defeat grep; the rule demands a literal.
        assert_eq!(
            rules_hit(
                LIB,
                "fn f(n: &'static str) { let _c = lbq_obs::counter(n); }"
            ),
            ["obs-span-name"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f() { lbq_obs::event(concat!(\"a\", \"b\")); }"),
            ["obs-span-name"]
        );
        // The v2 observability registries are named the same way.
        assert_eq!(
            rules_hit(LIB, "fn f() { let _h = lbq_obs::heatmap(\"HotTiles\"); }"),
            ["obs-span-name"]
        );
        assert_eq!(
            rules_hit(
                LIB,
                "fn f(k: &'static str) { lbq_obs::snapshot_field(k, 1u64); }"
            ),
            ["obs-span-name"]
        );
    }

    #[test]
    fn obs_span_name_accepts_kebab_literals_and_exempts_obs() {
        assert!(rules_hit(LIB, "fn f() { let _s = lbq_obs::span(\"rtree-knn\"); }").is_empty());
        assert!(rules_hit(
            LIB,
            "fn f() { let _c = lbq_obs::counter(\"cache-hits2\"); }"
        )
        .is_empty());
        assert!(rules_hit(
            LIB,
            "fn f() { lbq_obs::event_with(\"tpnn-iteration\", []); }"
        )
        .is_empty());
        assert!(rules_hit(
            LIB,
            "fn f() { let _h = lbq_obs::heatmap(\"serve-tile-heat\"); }"
        )
        .is_empty());
        assert!(rules_hit(
            LIB,
            "fn f() { lbq_obs::snapshot_field(\"serve-config-workers\", 4u64); }"
        )
        .is_empty());
        // `use lbq_obs as obs` call sites are covered too.
        assert_eq!(
            rules_hit(LIB, "fn f() { let _g = obs::gauge(\"Nope\"); }"),
            ["obs-span-name"]
        );
        // Unrelated paths/functions don't trip the rule.
        assert!(rules_hit(LIB, "fn f() { let _s = tracing::span(\"Whatever\"); }").is_empty());
        assert!(rules_hit(LIB, "fn f() { let _ = lbq_obs::enabled(); }").is_empty());
        // The obs crate itself is exempt (its tests use throwaway names).
        assert!(rules_hit(
            "crates/obs/src/trace.rs",
            "fn f() { let _s = lbq_obs::span(\"NotKebab\"); }"
        )
        .is_empty());
        // Allow comment escape hatch.
        assert!(rules_hit(
            LIB,
            "fn f(n: &'static str) { // lbq-check: allow(obs-span-name, \"caller passes a literal\")\n    let _c = lbq_obs::counter(n); }"
        )
        .is_empty());
    }

    // ---------------------------------------------------- allowlist

    #[test]
    fn allow_comment_suppresses_same_line_and_line_above() {
        let same =
            "fn f(x: Option<u8>) { x.unwrap(); } // lbq-check: allow(no-unwrap-core, \"test double\")";
        assert!(rules_hit(LIB, same).is_empty());
        let above = "// lbq-check: allow(no-unwrap-core) — invariant: filled above\n\
                     fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(rules_hit(LIB, above).is_empty());
    }

    #[test]
    fn allow_comment_is_rule_specific_and_local() {
        let wrong_rule =
            "fn f(x: Option<u8>) { x.unwrap(); } // lbq-check: allow(float-eq, \"wrong rule\")";
        assert_eq!(rules_hit(LIB, wrong_rule), ["no-unwrap-core"]);
        let too_far = "// lbq-check: allow(no-unwrap-core) — too far away\n\n\
                       fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(rules_hit(LIB, too_far), ["no-unwrap-core"]);
    }

    #[test]
    fn allow_comment_supports_lists() {
        let src = "// lbq-check: allow(local-epsilon, float-eq, \"demonstration\")\n\
                   fn f(a: f64) -> bool { a == 1e-9 }";
        assert!(rules_hit(LIB, src).is_empty());
    }

    // -------------------------------------------------- allow-reason

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "// lbq-check: allow(no-unwrap-core)\n\
                   fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(rules_hit(LIB, src), ["allow-reason"]);
    }

    #[test]
    fn allow_reason_accepts_quoted_and_trailing_forms() {
        let quoted = "// lbq-check: allow(no-unwrap-core, \"invariant: filled by caller\")\n\
                      fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(rules_hit(LIB, quoted).is_empty());
        let trailing = "// lbq-check: allow(no-unwrap-core) — invariant: filled by caller\n\
                        fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(rules_hit(LIB, trailing).is_empty());
    }

    // -------------------------------------------------- diagnostics

    #[test]
    fn diagnostics_carry_file_and_line() {
        let d = check_source(LIB, "fn a() {}\nfn b(x: Option<u8>) { x.unwrap(); }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].file, LIB);
        assert_eq!(d[0].line, 2);
        assert_eq!(
            format!("{}", d[0]),
            format!("{LIB}:2: [no-unwrap-core] {}", d[0].message)
        );
    }

    #[test]
    fn file_walker_finds_this_file_and_skips_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = workspace_rs_files(root).expect("walk");
        assert!(files.iter().any(|p| p.ends_with("src/lib.rs")));
        assert!(files.iter().any(|p| p.ends_with("src/lexer.rs")));
        assert!(
            !files
                .iter()
                .any(|p| p.components().any(|c| c.as_os_str() == "fixtures")),
            "fixture corpus must not be scanned as workspace source"
        );
    }

    #[test]
    fn file_walker_skips_nested_workspace_roots() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_rs_files(&root).expect("walk");
        assert!(files.iter().any(|p| p.ends_with("crates/check/src/lib.rs")));
        assert!(
            !files
                .iter()
                .any(|p| p.components().any(|c| c.as_os_str() == "benchmark")),
            "the standalone benchmark package is not workspace source"
        );
    }

    #[test]
    fn analyze_source_reports_parse_errors() {
        let e = analyze_source(LIB, "fn f() {").expect_err("unbalanced");
        assert!(e.message.contains("unclosed"));
    }
}

//! `lbq-check` binary: analyze the workspace (or a directory passed as
//! the first argument) and exit by outcome:
//!
//! * `0` — clean,
//! * `1` — findings, one `file:line: [rule] message` line each,
//! * `2` — analyzer breakage (bad CLI, IO error, unparseable file).
//!
//! See the crate docs in `lib.rs` for the rule set.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lbq-check [ROOT]";

fn parse_cli() -> Result<PathBuf, String> {
    let mut root = None;
    for a in std::env::args().skip(1) {
        if a.starts_with('-') {
            return Err(format!("unknown flag `{a}`\n{USAGE}"));
        }
        if root.replace(PathBuf::from(a)).is_some() {
            return Err(format!("more than one ROOT argument\n{USAGE}"));
        }
    }
    // Default to the workspace root (the parent of this crate's
    // manifest dir) so `cargo run -p lbq-check` works from anywhere.
    Ok(root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    }))
}

fn main() -> ExitCode {
    let root = match parse_cli() {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let diags = match lbq_check::check_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lbq-check: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("lbq-check: ok ({})", root.display());
        ExitCode::SUCCESS
    } else {
        println!("lbq-check: {} violation(s)", diags.len());
        ExitCode::from(1)
    }
}

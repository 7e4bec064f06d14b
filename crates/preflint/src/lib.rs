//! `preflint` — the project's own static-analysis pass.
//!
//! Kießling's BMO semantics make a winnow result a pure function of
//! `(preference, relation)`, so the concurrent server is only correct if
//! locking stays *invisible*: a warm hit takes exactly one cache read
//! lock, matrix builds run outside the engine's cache locks, and
//! statistics are lock-free. Those rules used to live in doc comments;
//! this crate machine-checks them on every CI run.
//!
//! The checker is deliberately dependency-free (no `syn`): a hand-rolled
//! [`lexer`] tokenizes each source file — comments, strings, lifetimes
//! and raw strings handled — and each rule in [`rules`] pattern-matches
//! the token stream. That makes the rules *heuristic by construction*:
//! they over-approximate (a binding whose initializer contains `.read()`
//! is treated as a lock guard even if it is really a query result), and
//! every rule can be silenced at a specific site with
//!
//! ```text
//! // preflint: allow(<rule>) — <reason>
//! ```
//!
//! on the offending line or the line directly above. The reason is
//! mandatory: a suppression without one is itself a diagnostic.
//!
//! Enforced rules (see `RULES.md` for the full contract):
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `no-guard-across-build`        | no lock guard live across a `score_matrix*` materialization call |
//! | `no-guard-across-push`         | no lock guard live across a `deliver_watch*` push delivery — a stalled watcher may block only its own sink |
//! | `parking-lot-only`             | product crates lock through the instrumentable `parking_lot` shim, never `std::sync::{Mutex,RwLock}` |
//! | `ordering-documented`          | every atomic `Ordering::*` use carries a rationale comment |
//! | `seqcst-suspect`               | `Ordering::SeqCst` needs an explicit suppression (it is almost never what the code means) |
//! | `no-panic-in-connection-path`  | no `unwrap`/`expect`/`panic!` in `crates/server/src` non-test code |
//! | `cost-constant-documented`     | every `COST_*` / `PLANNER_*` planner constant carries a rationale comment |

pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One finding: a broken rule at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as walked (relative to the checked root).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule id (kebab-case, the same name `allow(...)` takes).
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Every rule id the checker knows, in report order.
pub const ALL_RULES: &[&str] = &[
    rules::NO_GUARD_ACROSS_BUILD,
    rules::NO_GUARD_ACROSS_PUSH,
    rules::PARKING_LOT_ONLY,
    rules::ORDERING_DOCUMENTED,
    rules::SEQCST_SUSPECT,
    rules::NO_PANIC_IN_CONNECTION_PATH,
    rules::COST_CONSTANT_DOCUMENTED,
];

/// Check one source text. `display_path` is used both for reporting and
/// for rule scoping (`no-panic-in-connection-path` only applies under
/// `crates/server/src`). Suppressions are already applied.
pub fn check_source(display_path: &str, text: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(text);
    let mut diags = rules::run_all(display_path, &lexed);
    diags.extend(rules::check_suppressions(display_path, &lexed));
    apply_suppressions(&lexed, &mut diags);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags.dedup();
    diags
}

/// Drop diagnostics covered by a well-formed `preflint: allow(rule)`
/// comment on the same line or the line directly above.
fn apply_suppressions(lexed: &lexer::Lexed, diags: &mut Vec<Diagnostic>) {
    diags.retain(|d| {
        !lexed
            .allows
            .iter()
            .any(|a| a.rule == d.rule && a.has_reason && (a.line == d.line || a.line + 1 == d.line))
    });
}

/// Walk `root` and check every product `.rs` file. Skipped subtrees:
/// `target/` (build output), `vendor/` (the shims legitimately wrap
/// `std::sync` — they are what `parking-lot-only` points product code
/// at), `.git/`, and any `fixtures/` directory (the self-test corpus
/// contains deliberate violations).
pub fn check_tree(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let checked = files.len();
    let mut diags = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(root.join(&path))?;
        let display = path.to_string_lossy().replace('\\', "/");
        diags.extend(check_source(&display, &text));
    }
    Ok((diags, checked))
}

const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|s| *s == name) || name.starts_with('.') {
                continue;
            }
            collect_sources(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Render a report: diagnostics grouped in file/line order plus a
/// one-line summary. Returns `true` when the tree is clean.
pub fn report(diags: &[Diagnostic], checked_files: usize, out: &mut impl std::io::Write) -> bool {
    let mut by_file: Vec<&Diagnostic> = diags.iter().collect();
    by_file.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    for d in &by_file {
        let _ = writeln!(out, "{d}");
    }
    let files_hit: BTreeSet<&str> = diags.iter().map(|d| d.file.as_str()).collect();
    if diags.is_empty() {
        let _ = writeln!(
            out,
            "preflint: clean — {checked_files} file(s), {} rule(s)",
            ALL_RULES.len()
        );
        true
    } else {
        let _ = writeln!(
            out,
            "preflint: {} issue(s) in {} file(s) ({checked_files} checked)",
            diags.len(),
            files_hit.len()
        );
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_reports_clean() {
        let diags = check_source("crates/x/src/lib.rs", "fn main() {}\n");
        assert!(diags.is_empty(), "{diags:?}");
        let mut buf = Vec::new();
        assert!(report(&diags, 1, &mut buf));
        assert!(String::from_utf8(buf).unwrap().contains("clean"));
    }

    #[test]
    fn diagnostics_render_with_location_and_rule() {
        let src = "use std::sync::Mutex;\n";
        let diags = check_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1);
        let line = diags[0].to_string();
        assert!(
            line.starts_with("crates/x/src/lib.rs:1: error[parking-lot-only]"),
            "{line}"
        );
    }

    #[test]
    fn suppression_covers_same_line_and_next_line() {
        let same = "use std::sync::Mutex; // preflint: allow(parking-lot-only) — fixture\n";
        assert!(check_source("crates/x/src/lib.rs", same).is_empty());
        let above = "// preflint: allow(parking-lot-only) — fixture\nuse std::sync::Mutex;\n";
        assert!(check_source("crates/x/src/lib.rs", above).is_empty());
        let far = "// preflint: allow(parking-lot-only) — fixture\n\nuse std::sync::Mutex;\n";
        assert_eq!(check_source("crates/x/src/lib.rs", far).len(), 1);
    }
}

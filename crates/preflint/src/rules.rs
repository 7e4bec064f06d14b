//! The lint rules. Each rule is a pattern over the lexed token stream;
//! all of them over-approximate on purpose (a lint that misses the bug
//! it was written for is worse than one that occasionally needs an
//! `allow` with a reason). `RULES.md` documents each rule's contract,
//! scope and escape hatch.

use crate::lexer::{Lexed, Tok, Token};
use crate::Diagnostic;

/// R1: no lock guard may be live across a score-matrix materialization.
pub const NO_GUARD_ACROSS_BUILD: &str = "no-guard-across-build";
/// R6: no lock guard may be live across a watch push delivery.
pub const NO_GUARD_ACROSS_PUSH: &str = "no-guard-across-push";
/// R2: product crates lock through the `parking_lot` shim only.
pub const PARKING_LOT_ONLY: &str = "parking-lot-only";
/// R3a: every atomic `Ordering::*` use carries a rationale comment.
pub const ORDERING_DOCUMENTED: &str = "ordering-documented";
/// R3b: `Ordering::SeqCst` is flagged unconditionally.
pub const SEQCST_SUSPECT: &str = "seqcst-suspect";
/// R4: no panicking call in the server's connection path.
pub const NO_PANIC_IN_CONNECTION_PATH: &str = "no-panic-in-connection-path";
/// R7: every planner cost-model constant carries a rationale comment.
pub const COST_CONSTANT_DOCUMENTED: &str = "cost-constant-documented";

/// Run every rule over one lexed file.
pub fn run_all(display_path: &str, lx: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    no_guard_across_build(display_path, lx, &mut out);
    no_guard_across_push(display_path, lx, &mut out);
    parking_lot_only(display_path, lx, &mut out);
    ordering_documented(display_path, lx, &mut out);
    no_panic_in_connection_path(display_path, lx, &mut out);
    cost_constant_documented(display_path, lx, &mut out);
    out
}

/// Malformed suppressions are diagnostics themselves: an unknown rule
/// name or a missing reason must not silently disable anything.
pub fn check_suppressions(display_path: &str, lx: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for a in &lx.allows {
        if a.rule.is_empty() {
            out.push(Diagnostic {
                file: display_path.to_string(),
                line: a.line,
                rule: ORDERING_DOCUMENTED, // nearest stable id for reporting
                message: format!(
                    "suppression names unknown rule `{}` (known: {})",
                    a.raw_rule,
                    crate::ALL_RULES.join(", ")
                ),
            });
        } else if !a.has_reason {
            out.push(Diagnostic {
                file: display_path.to_string(),
                line: a.line,
                rule: a.rule,
                message: format!(
                    "suppression of `{}` requires a reason: `// preflint: allow({}) — <why>`",
                    a.rule, a.rule
                ),
            });
        }
    }
    out
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// Does `toks[i..]` start with `.NAME(` for one of `names`?
fn is_method_call(toks: &[Token], i: usize, names: &[&str]) -> Option<&'static str> {
    if !is_punct(toks.get(i)?, '.') {
        return None;
    }
    let name = ident(toks.get(i + 1)?)?;
    if !is_punct(toks.get(i + 2)?, '(') {
        return None;
    }
    ["read", "write", "lock", "try_lock", "unwrap", "expect"]
        .iter()
        .find(|n| **n == name && names.contains(n))
        .copied()
}

// ---------------------------------------------------------------------
// R1 — no-guard-across-build, R6 — no-guard-across-push
// ---------------------------------------------------------------------

/// R1: a call to an identifier starting with `score_matrix` while a
/// guard is live is a violation — materialization must run outside
/// every lock (the PR 7 engine contract, checked at runtime by
/// `lock_diag` / `engine::build_scope`).
fn no_guard_across_build(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    no_guard_across_call(
        path,
        lx,
        out,
        "score_matrix",
        NO_GUARD_ACROSS_BUILD,
        "materializes",
        "builds must run outside every lock",
    );
}

/// R6: a call to an identifier starting with `deliver_watch` while a
/// guard is live is a violation — a push delivery can block on a slow
/// client socket, and the only thing it may block is that client's own
/// sink; holding the catalog or registry lock here would let one
/// stalled watcher wedge every session.
fn no_guard_across_push(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    no_guard_across_call(
        path,
        lx,
        out,
        "deliver_watch",
        NO_GUARD_ACROSS_PUSH,
        "writes to a connection sink",
        "push delivery must run outside every lock",
    );
}

/// The shared engine behind R1/R6: track `let [mut] NAME = ...;`
/// bindings whose initializer contains a `.read()` / `.write()` /
/// `.lock()` call — those are treated as lock guards. While any such
/// binding is in scope (its block has not closed and it has not been
/// explicitly `drop`ped), a call to an identifier starting with
/// `callee_prefix` is a violation.
fn no_guard_across_call(
    path: &str,
    lx: &Lexed,
    out: &mut Vec<Diagnostic>,
    callee_prefix: &str,
    rule: &'static str,
    verb: &str,
    contract: &str,
) {
    #[derive(Debug)]
    struct Guard {
        name: String,
        depth: i32,
        line: u32,
    }
    let toks = &lx.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;

    // Pending `let` state machine.
    #[derive(PartialEq)]
    enum LetState {
        None,
        /// Saw `let` (and maybe `mut`), waiting for the binding name.
        WantName,
        /// Saw the name, waiting for `=` (skipping a `: Type` annotation)
        /// or `;`.
        WantEq,
        /// Inside the initializer, scanning for guard-acquiring calls.
        InInit {
            is_guard: bool,
        },
    }
    let mut state = LetState::None;
    let mut pending_name = String::new();
    let mut pending_line = 0u32;
    let mut pending_depth = 0i32;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            _ => {}
        }

        // Guard-scope end by explicit drop: `drop(name)`.
        if ident(t) == Some("drop")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, '('))
            && toks.get(i + 3).is_some_and(|t| is_punct(t, ')'))
        {
            if let Some(name) = toks.get(i + 2).and_then(ident) {
                guards.retain(|g| g.name != name);
            }
        }

        // The guarded call itself.
        if let Some(name) = ident(t) {
            if name.starts_with(callee_prefix) && toks.get(i + 1).is_some_and(|t| is_punct(t, '('))
            {
                for g in &guards {
                    out.push(Diagnostic {
                        file: path.to_string(),
                        line: t.line,
                        rule,
                        message: format!(
                            "`{name}` {verb} while guard `{}` (bound on line {}) \
                             may still be held — {contract}",
                            g.name, g.line
                        ),
                    });
                }
            }
        }

        // Advance the `let` state machine.
        match state {
            LetState::None => {
                if ident(t) == Some("let") {
                    state = LetState::WantName;
                    pending_depth = depth;
                    pending_line = t.line;
                }
            }
            LetState::WantName => match ident(t) {
                Some("mut") => {}
                Some(name) => {
                    pending_name = name.to_string();
                    state = LetState::WantEq;
                }
                None => state = LetState::None, // pattern binding; not tracked
            },
            LetState::WantEq => {
                if is_punct(t, '=') && depth == pending_depth {
                    state = LetState::InInit { is_guard: false };
                } else if is_punct(t, ';') && depth == pending_depth {
                    state = LetState::None;
                }
            }
            LetState::InInit { is_guard } => {
                let acquires = is_method_call(toks, i, &["read", "write", "lock"]).is_some();
                if is_punct(t, ';') && depth == pending_depth {
                    if is_guard {
                        guards.push(Guard {
                            name: std::mem::take(&mut pending_name),
                            depth: pending_depth,
                            line: pending_line,
                        });
                    }
                    state = LetState::None;
                } else if acquires {
                    state = LetState::InInit { is_guard: true };
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// R2 — parking-lot-only
// ---------------------------------------------------------------------

/// Flag `std::sync::Mutex` / `std::sync::RwLock` (as a path or inside a
/// `use std::sync::{...}` list). Product code must lock through the
/// vendored `parking_lot` shim so `lock_diag` can instrument every
/// acquisition; `std::sync` atomics, `Arc`, `Barrier` etc. stay fine.
fn parking_lot_only(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lx.tokens;
    let banned = ["Mutex", "RwLock"];
    let mut i = 0;
    while i + 4 < toks.len() {
        let is_std_sync = ident(&toks[i]) == Some("std")
            && is_punct(&toks[i + 1], ':')
            && is_punct(&toks[i + 2], ':')
            && ident(&toks[i + 3]) == Some("sync");
        if !is_std_sync {
            i += 1;
            continue;
        }
        // `std::sync::X` or `std::sync::{...}`.
        let mut j = i + 4;
        if j + 1 < toks.len() && is_punct(&toks[j], ':') && is_punct(&toks[j + 1], ':') {
            j += 2;
            if let Some(t) = toks.get(j) {
                match &t.tok {
                    Tok::Ident(s) if banned.contains(&s.as_str()) => emit_r2(path, t.line, s, out),
                    Tok::Punct('{') => {
                        let mut depth = 1;
                        j += 1;
                        while j < toks.len() && depth > 0 {
                            match &toks[j].tok {
                                Tok::Punct('{') => depth += 1,
                                Tok::Punct('}') => depth -= 1,
                                Tok::Ident(s) if banned.contains(&s.as_str()) => {
                                    // `MutexGuard` etc. are idents of their
                                    // own; only exact names are flagged.
                                    emit_r2(path, toks[j].line, s, out);
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        i = j.max(i + 1);
    }
}

fn emit_r2(path: &str, line: u32, which: &str, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic {
        file: path.to_string(),
        line,
        rule: PARKING_LOT_ONLY,
        message: format!(
            "`std::sync::{which}` bypasses the instrumentable `parking_lot` shim — \
             use `parking_lot::{which}` so `lock_diag` can see the acquisition"
        ),
    });
}

// ---------------------------------------------------------------------
// R3 — ordering-documented / seqcst-suspect
// ---------------------------------------------------------------------

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Every atomic `Ordering::X` use needs a rationale comment on the same
/// line or within the two lines above (a comment above the statement
/// covers a multi-ordering call like `compare_exchange`). `SeqCst` is
/// additionally flagged outright: it is the "didn't think about it"
/// default, and on the warm path it costs a full fence for nothing.
fn ordering_documented(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lx.tokens;
    let mut flagged: Vec<(u32, &'static str)> = Vec::new();
    for i in 0..toks.len().saturating_sub(3) {
        let is_ordering = ident(&toks[i]) == Some("Ordering")
            && is_punct(&toks[i + 1], ':')
            && is_punct(&toks[i + 2], ':');
        if !is_ordering {
            continue;
        }
        let Some(variant) = ident(&toks[i + 3]) else {
            continue;
        };
        if !ATOMIC_ORDERINGS.contains(&variant) {
            continue; // `Ordering::Less` etc. — `std::cmp`, not atomics
        }
        let line = toks[i + 3].line;
        if variant == "SeqCst" && !flagged.contains(&(line, SEQCST_SUSPECT)) {
            flagged.push((line, SEQCST_SUSPECT));
            out.push(Diagnostic {
                file: path.to_string(),
                line,
                rule: SEQCST_SUSPECT,
                message: "`Ordering::SeqCst` is suspect: name the required ordering \
                          (usually Relaxed for counters, Acquire/Release for publication) \
                          or suppress with the reason SeqCst is truly needed"
                    .to_string(),
            });
        }
        if !lx.has_comment_near(line, 2) && !flagged.contains(&(line, ORDERING_DOCUMENTED)) {
            flagged.push((line, ORDERING_DOCUMENTED));
            out.push(Diagnostic {
                file: path.to_string(),
                line,
                rule: ORDERING_DOCUMENTED,
                message: format!(
                    "`Ordering::{variant}` has no rationale comment on this line or \
                     the two above — say why this ordering is sufficient"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R4 — no-panic-in-connection-path
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// In `crates/server/src` (outside `#[cfg(test)]` items), flag
/// `.unwrap()`, `.expect(` and panicking macros: a connection thread
/// must answer `ERR` or drop the connection, never die — a panic kills
/// the thread and silently hangs the client.
fn no_panic_in_connection_path(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    if !path.contains("crates/server/src") {
        return;
    }
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if lx.in_test_region(t.line) {
            continue;
        }
        if let Some(m) = is_method_call(toks, i, &["unwrap", "expect"]) {
            out.push(Diagnostic {
                file: path.to_string(),
                line: toks[i + 1].line,
                rule: NO_PANIC_IN_CONNECTION_PATH,
                message: format!(
                    "`.{m}()` can panic and kill this connection thread — \
                     reply `ERR` or disconnect cleanly instead"
                ),
            });
        }
        if let Some(name) = ident(t) {
            if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| is_punct(t, '!')) {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: t.line,
                    rule: NO_PANIC_IN_CONNECTION_PATH,
                    message: format!(
                        "`{name}!` kills the connection thread — \
                         reply `ERR` or disconnect cleanly instead"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// R7 — cost-constant-documented
// ---------------------------------------------------------------------

/// `const COST_*` / `const PLANNER_*` declarations must carry a
/// rationale comment on the same line or within the two lines above.
/// These constants *are* the planner's cost model — an undocumented
/// magic number here silently re-ranks every algorithm choice, and the
/// calibration argument (why ¼ of a dominance test, why this drift
/// threshold) lives nowhere else.
fn cost_constant_documented(path: &str, lx: &Lexed, out: &mut Vec<Diagnostic>) {
    let toks = &lx.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if ident(&toks[i]) != Some("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(ident) else {
            continue;
        };
        if !(name.starts_with("COST_") || name.starts_with("PLANNER_")) {
            continue;
        }
        let line = toks[i + 1].line;
        if !lx.has_comment_near(line, 2) {
            out.push(Diagnostic {
                file: path.to_string(),
                line,
                rule: COST_CONSTANT_DOCUMENTED,
                message: format!(
                    "cost-model constant `{name}` has no rationale comment on this \
                     line or the two above — document the unit and the calibration \
                     argument behind the value"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        crate::check_source(path, src)
    }

    #[test]
    fn r1_fires_on_guard_held_across_build() {
        let src = "fn f() { let g = cache.read(); let m = score_matrix_with(r, t, s); }\n";
        let d = check("crates/q/src/e.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, NO_GUARD_ACROSS_BUILD);
    }

    #[test]
    fn r1_respects_scopes_and_drop() {
        let scoped = "fn f() { { let g = cache.read(); } let m = score_matrix_with(r); }\n";
        assert!(check("crates/q/src/e.rs", scoped).is_empty());
        let dropped = "fn f() { let g = cache.read(); drop(g); let m = score_matrix_with(r); }\n";
        assert!(check("crates/q/src/e.rs", dropped).is_empty());
        let after = "fn f() { let m = score_matrix_with(r); let g = cache.read(); }\n";
        assert!(check("crates/q/src/e.rs", after).is_empty());
    }

    #[test]
    fn r6_fires_on_guard_held_across_push_delivery() {
        let src = "fn f() { let g = hub.watches.lock(); deliver_watch_frame(&s, &fr); }\n";
        let d = check("crates/server/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, NO_GUARD_ACROSS_PUSH);

        let clean = "fn f() { { let g = hub.watches.lock(); } deliver_watch_frame(&s, &fr); }\n";
        assert!(check("crates/server/src/x.rs", clean).is_empty());
        // Other callee names under a guard stay legal — the rule is
        // about deliveries, not the registry bookkeeping around them.
        let other = "fn f() { let g = hub.watches.lock(); enqueue(&s, &fr); }\n";
        assert!(check("crates/server/src/x.rs", other).is_empty());
    }

    #[test]
    fn r2_fires_on_std_sync_locks_only() {
        let d = check("crates/s/src/a.rs", "use std::sync::{Arc, Mutex};\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, PARKING_LOT_ONLY);
        assert!(check("crates/s/src/a.rs", "use std::sync::Arc;\n").is_empty());
        assert!(check("crates/s/src/a.rs", "use parking_lot::RwLock;\n").is_empty());
        let path = check("crates/s/src/a.rs", "let l = std::sync::RwLock::new(1);\n");
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn r3_requires_rationale_and_flags_seqcst() {
        let bare = "fn f() { x.load(Ordering::Relaxed); }\n";
        let d = check("crates/s/src/a.rs", bare);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, ORDERING_DOCUMENTED);

        let commented =
            "// monotone counter; no ordering needed\nfn f() { x.load(Ordering::Relaxed); }\n";
        assert!(check("crates/s/src/a.rs", commented).is_empty());

        let seq = "// fully fenced on purpose\nfn f() { x.load(Ordering::SeqCst); }\n";
        let d = check("crates/s/src/a.rs", seq);
        assert_eq!(d.len(), 1, "SeqCst stays suspect even with a comment");
        assert_eq!(d[0].rule, SEQCST_SUSPECT);

        let cmp = "fn f() { if a.cmp(b) == Ordering::Less {} }\n";
        assert!(
            check("crates/s/src/a.rs", cmp).is_empty(),
            "cmp is not atomics"
        );
    }

    #[test]
    fn r4_scopes_to_server_src_and_skips_tests() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(check("crates/server/src/session.rs", src).len(), 1);
        assert!(check("crates/query/src/engine.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); panic!(\"no\"); } }\n";
        assert!(check("crates/server/src/session.rs", test_mod).is_empty());
        let mac = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(check("crates/server/src/server.rs", mac).len(), 1);
    }

    #[test]
    fn r7_requires_rationale_on_cost_constants() {
        let bare = "const COST_SCAN_FACTOR: f64 = 0.25;\n";
        let d = check("crates/query/src/plan.rs", bare);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, COST_CONSTANT_DOCUMENTED);

        let bare2 = "pub(crate) const PLANNER_BATCH_ROWS: usize = 64;\n";
        let d = check("crates/query/src/plan.rs", bare2);
        assert_eq!(d.len(), 1, "{d:?}");

        let commented = "/// A scalar compare costs about a quarter dominance test.\n\
                         const COST_SCAN_FACTOR: f64 = 0.25;\n";
        assert!(check("crates/query/src/plan.rs", commented).is_empty());

        // Other constants are out of scope.
        let other = "const STATS_CAPACITY: usize = 64;\n";
        assert!(check("crates/query/src/plan.rs", other).is_empty());
    }

    #[test]
    fn malformed_suppressions_are_diagnostics() {
        let unknown = "// preflint: allow(not-a-rule) — whatever\n";
        let d = check("a.rs", unknown);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown rule"));

        let missing = "x.load(Ordering::SeqCst); // preflint: allow(seqcst-suspect)\n";
        let d = check("a.rs", missing);
        assert!(
            d.iter().any(|d| d.message.contains("requires a reason")),
            "{d:?}"
        );
    }
}

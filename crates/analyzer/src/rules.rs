//! The rule engine: six checks over the token streams produced by
//! [`crate::scan`], driven by the declared invariants in [`crate::config`].
//!
//! | id | rule |
//! |----|------|
//! | `lock-order`        | R1: acquisitions respect the declared lock order |
//! | `hold-across-sync`  | R2: no sync/fsync/manifest-save under a tree guard |
//! | `panic-free-commit` | R3: no unwrap/expect/panic!/indexing on commit paths |
//! | `no-unwrap-in-lib`  | R4: no `.unwrap()`/`.expect(` in library code |
//! | `typed-errors`      | R5: public APIs return typed errors |
//! | `unsafe-audit`      | R6: `unsafe` only in allowlisted files, each with a `// SAFETY:` comment |
//!
//! R1/R2 use a per-function guard-region model: a `let g = field.read();`
//! opens a region closed by `drop(g)`, by scope exit, or by moving `g` into a
//! call; expression temporaries are checked at the acquisition point only.
//! Both rules are interprocedural within a crate through call summaries
//! (may-acquire / may-sync), propagated only through calls whose simple name
//! resolves to exactly one function in the crate — ambiguous names are
//! skipped rather than guessed.

use crate::config::Config;
use crate::scan::{matching, Function, SourceFile, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_HOLD_ACROSS_SYNC: &str = "hold-across-sync";
pub const RULE_PANIC_FREE_COMMIT: &str = "panic-free-commit";
pub const RULE_NO_UNWRAP: &str = "no-unwrap-in-lib";
pub const RULE_TYPED_ERRORS: &str = "typed-errors";
pub const RULE_UNSAFE_AUDIT: &str = "unsafe-audit";

pub const ALL_RULES: [&str; 6] = [
    RULE_LOCK_ORDER,
    RULE_HOLD_ACROSS_SYNC,
    RULE_PANIC_FREE_COMMIT,
    RULE_NO_UNWRAP,
    RULE_TYPED_ERRORS,
    RULE_UNSAFE_AUDIT,
];

/// One rule violation, prior to waiver matching.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// Runs every rule over the scanned files.
pub fn check_all(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let summaries = Summaries::build(files, cfg);
    let mut out = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        for f in &sf.functions {
            if f.is_test || f.body.is_none() {
                continue;
            }
            analyze_regions(sf, f, cfg, &summaries, &mut out);
        }
        check_no_unwrap(sf, cfg, &mut out);
        check_typed_errors(sf, cfg, &mut out);
        check_unsafe_audit(sf, cfg, &mut out);
        let _ = fi;
    }
    check_commit_paths(files, cfg, &summaries, &mut out);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    out
}

// ---------------------------------------------------------------------------
// Call summaries (may-acquire / may-sync), fixpoint per crate.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct FnSummary {
    acquires: BTreeSet<String>,
    syncs: bool,
    calls: BTreeSet<String>,
}

struct Summaries {
    /// crate_key -> simple name -> indices into `fns` (ambiguity preserved).
    by_name: BTreeMap<String, BTreeMap<String, Vec<usize>>>,
    /// Flat list of (crate_key, file index, fn index, fixpoint summary).
    fns: Vec<(String, usize, usize, FnSummary)>,
}

impl Summaries {
    fn build(files: &[SourceFile], cfg: &Config) -> Summaries {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, BTreeMap<String, Vec<usize>>> = BTreeMap::new();
        for (fi, sf) in files.iter().enumerate() {
            for (gi, f) in sf.functions.iter().enumerate() {
                if f.is_test || f.body.is_none() {
                    continue;
                }
                let summary = direct_summary(sf, f, cfg);
                let id = fns.len();
                by_name
                    .entry(sf.crate_key.clone())
                    .or_default()
                    .entry(f.name.clone())
                    .or_default()
                    .push(id);
                fns.push((sf.crate_key.clone(), fi, gi, summary));
            }
        }
        // Fixpoint: propagate through unambiguous same-crate calls.
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..fns.len() {
                let (crate_key, _, _, _) = &fns[id];
                let crate_key = crate_key.clone();
                let calls: Vec<String> = fns[id].3.calls.iter().cloned().collect();
                for call in calls {
                    let Some(targets) = by_name.get(&crate_key).and_then(|m| m.get(&call)) else {
                        continue;
                    };
                    if targets.len() != 1 || targets[0] == id {
                        continue;
                    }
                    let (acq, syncs): (Vec<String>, bool) = {
                        let t = &fns[targets[0]].3;
                        (t.acquires.iter().cloned().collect(), t.syncs)
                    };
                    let me = &mut fns[id].3;
                    for a in acq {
                        changed |= me.acquires.insert(a);
                    }
                    if syncs && !me.syncs {
                        me.syncs = true;
                        changed = true;
                    }
                }
            }
        }
        Summaries { by_name, fns }
    }

    /// The fixpoint summary for `name` if it resolves to exactly one
    /// function in `crate_key`.
    fn resolve_unique(&self, crate_key: &str, name: &str) -> Option<&FnSummary> {
        let targets = self.by_name.get(crate_key)?.get(name)?;
        if targets.len() == 1 {
            Some(&self.fns[targets[0]].3)
        } else {
            None
        }
    }
}

/// An acquisition site found in a token stream.
struct Acq {
    lock: String,
    /// Token index of the closing `)` of the acquisition expression.
    close: usize,
}

/// Detects a guard acquisition at token index `k`:
/// `recv.field.read()` / `.write()` / `.lock()` with zero arguments on a
/// configured lock field, or `helper(&x.field)` for configured helpers.
fn acquisition_at(toks: &[Tok], k: usize, cfg: &Config) -> Option<Acq> {
    let name = toks[k].ident()?;
    if k > 0 && toks[k - 1].is_ident("fn") {
        return None; // a definition, not a call
    }
    if matches!(name, "read" | "write" | "lock")
        && k >= 2
        && toks[k - 1].is_punct(b'.')
        && toks.get(k + 1).is_some_and(|t| t.is_punct(b'('))
        && toks.get(k + 2).is_some_and(|t| t.is_punct(b')'))
    {
        let field = toks[k - 2].ident()?;
        if cfg.rank_of(field).is_some() {
            return Some(Acq {
                lock: field.to_string(),
                close: k + 2,
            });
        }
    }
    if cfg.lock_helpers.iter().any(|h| h == name)
        && toks.get(k + 1).is_some_and(|t| t.is_punct(b'('))
    {
        let close = matching(toks, k + 1, b'(', b')')?;
        // The lock field is the last identifier of the argument expression.
        let field = toks[k + 2..close].iter().rev().find_map(|t| t.ident())?;
        if cfg.rank_of(field).is_some() {
            return Some(Acq {
                lock: field.to_string(),
                close,
            });
        }
    }
    None
}

/// Direct (non-transitive) summary of one function body.
fn direct_summary(sf: &SourceFile, f: &Function, cfg: &Config) -> FnSummary {
    let mut s = FnSummary::default();
    let Some((body_start, body_end)) = f.body else {
        return s;
    };
    let toks = &sf.tokens;
    let mut k = body_start;
    while k <= body_end {
        if let Some(acq) = acquisition_at(toks, k, cfg) {
            s.acquires.insert(acq.lock);
            k += 1;
            continue;
        }
        if let Some(name) = call_name_at(toks, k) {
            if cfg.sync_calls.iter().any(|c| c == name) {
                s.syncs = true;
            }
            s.calls.insert(name.to_string());
        }
        k += 1;
    }
    s
}

/// A call at token `k`: `name(` that is not a definition or macro.
fn call_name_at(toks: &[Tok], k: usize) -> Option<&str> {
    let name = toks[k].ident()?;
    if !toks.get(k + 1).is_some_and(|t| t.is_punct(b'(')) {
        return None;
    }
    if k > 0 && (toks[k - 1].is_ident("fn") || toks[k - 1].is_punct(b'#')) {
        return None;
    }
    if matches!(
        name,
        "if" | "while" | "match" | "for" | "loop" | "return" | "let" | "in" | "move" | "fn"
    ) {
        return None;
    }
    Some(name)
}

// ---------------------------------------------------------------------------
// R1 + R2: guard-region analysis.
// ---------------------------------------------------------------------------

struct Guard {
    lock: String,
    var: Option<String>,
    /// Brace depth at which the guard was bound; released when the walk
    /// leaves that depth. Config-seeded preconditions use depth 0.
    depth: i32,
}

fn analyze_regions(
    sf: &SourceFile,
    f: &Function,
    cfg: &Config,
    summaries: &Summaries,
    out: &mut Vec<Finding>,
) {
    let Some((body_start, body_end)) = f.body else {
        return;
    };
    let toks = &sf.tokens;
    // Config-declared preconditions enter the held-set at depth 0 (never
    // scope-released) but use the lock name as the guard variable, so the
    // body can still release them with `drop(<lock>)` or by moving a
    // same-named local into a call.
    let mut held: Vec<Guard> = cfg
        .holds_for(&f.name)
        .iter()
        .map(|l| Guard {
            lock: l.clone(),
            var: Some(l.clone()),
            depth: 0,
        })
        .collect();
    let mut depth: i32 = 0;
    let mut stmt_start = body_start;
    let mut k = body_start;
    while k <= body_end {
        match toks[k].kind {
            TokKind::Punct(b'{') => {
                depth += 1;
                stmt_start = k + 1;
            }
            TokKind::Punct(b'}') => {
                depth -= 1;
                held.retain(|g| g.depth <= depth);
                stmt_start = k + 1;
            }
            TokKind::Punct(b';') => {
                stmt_start = k + 1;
            }
            _ => {}
        }
        if let Some(acq) = acquisition_at(toks, k, cfg) {
            report_order(&acq.lock, &held, cfg, sf, f, toks[k].line, None, out);
            // Bound guard (`let g = ...;` / `g = ...;`) or a temporary?
            let after = toks.get(acq.close + 1);
            let ends_stmt = after.is_none_or(|t| t.is_punct(b';'));
            if ends_stmt {
                if let Some(var) = binding_var(toks, stmt_start) {
                    held.retain(|g| g.var.as_deref() != Some(var));
                    held.push(Guard {
                        lock: acq.lock,
                        var: Some(var.to_string()),
                        depth,
                    });
                }
            }
            k = acq.close + 1;
            continue;
        }
        // `drop(g)` closes g's region.
        if toks[k].is_ident("drop")
            && toks.get(k + 1).is_some_and(|t| t.is_punct(b'('))
            && toks.get(k + 3).is_some_and(|t| t.is_punct(b')'))
        {
            if let Some(v) = toks.get(k + 2).and_then(|t| t.ident()) {
                held.retain(|g| g.var.as_deref() != Some(v));
                k += 4;
                continue;
            }
        }
        if let Some(name) = call_name_at(toks, k) {
            // Guards moved into the call are released before the call runs
            // (this is what makes the group-commit handoff legal).
            if let Some(close) = matching(toks, k + 1, b'(', b')') {
                for v in bare_ident_args(toks, k + 2, close) {
                    held.retain(|g| g.var.as_deref() != Some(v));
                }
            }
            if cfg.sync_calls.iter().any(|c| c == name) {
                report_sync(name, &held, cfg, sf, f, toks[k].line, None, out);
            }
            if let Some(callee) = summaries.resolve_unique(&sf.crate_key, name) {
                if name != f.name {
                    for lock in &callee.acquires {
                        report_order(lock, &held, cfg, sf, f, toks[k].line, Some(name), out);
                    }
                    if callee.syncs {
                        report_sync(name, &held, cfg, sf, f, toks[k].line, Some(name), out);
                    }
                }
            }
        }
        k += 1;
    }
}

/// `let [mut] name =` or `name =` at the start of the current statement.
fn binding_var(toks: &[Tok], stmt_start: usize) -> Option<&str> {
    let mut i = stmt_start;
    if toks.get(i)?.is_ident("let") {
        i += 1;
        if toks.get(i)?.is_ident("mut") {
            i += 1;
        }
        let name = toks.get(i)?.ident()?;
        if toks.get(i + 1)?.is_punct(b'=') {
            return Some(name);
        }
        return None;
    }
    let name = toks.get(i)?.ident()?;
    if keywordish(name) {
        return None;
    }
    if toks.get(i + 1)?.is_punct(b'=') && !toks.get(i + 2)?.is_punct(b'=') {
        return Some(name);
    }
    None
}

fn keywordish(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "in"
            | "else"
            | "break"
            | "continue"
            | "move"
            | "mut"
            | "ref"
            | "dyn"
            | "as"
            | "unsafe"
            | "impl"
            | "pub"
            | "fn"
            | "use"
            | "struct"
            | "enum"
            | "static"
            | "const"
            | "type"
            | "crate"
            | "where"
            | "trait"
            | "mod"
    )
}

/// Top-level call arguments that are a single bare identifier (a move).
fn bare_ident_args(toks: &[Tok], start: usize, close: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = start;
    let mut i = start;
    while i <= close {
        let at_end = i == close;
        let at_comma = depth == 0 && toks[i].is_punct(b',');
        if at_end || at_comma {
            let arg = &toks[arg_start..i];
            if arg.len() == 1 {
                if let Some(name) = arg[0].ident() {
                    if !keywordish(name) {
                        out.push(name);
                    }
                }
            }
            arg_start = i + 1;
        } else {
            match toks[i].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
                _ => {}
            }
        }
        i += 1;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn report_order(
    lock: &str,
    held: &[Guard],
    cfg: &Config,
    sf: &SourceFile,
    f: &Function,
    line: u32,
    via: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let Some(rank) = cfg.rank_of(lock) else {
        return;
    };
    for g in held {
        let Some(held_rank) = cfg.rank_of(&g.lock) else {
            continue;
        };
        if rank <= held_rank {
            let how = match via {
                Some(callee) => format!("calls `{callee}` which may acquire"),
                None => "acquires".to_string(),
            };
            let what = if rank == held_rank && lock == g.lock {
                format!("re-acquires `{lock}` already held")
            } else {
                format!(
                    "{how} `{lock}` (rank {rank}) while holding `{}` (rank {held_rank})",
                    g.lock
                )
            };
            out.push(Finding {
                rule: RULE_LOCK_ORDER,
                file: sf.rel_path.clone(),
                line,
                message: format!("fn `{}` {what}; declared order forbids this", f.name),
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report_sync(
    call: &str,
    held: &[Guard],
    cfg: &Config,
    sf: &SourceFile,
    f: &Function,
    line: u32,
    via: Option<&str>,
    out: &mut Vec<Finding>,
) {
    for g in held {
        if cfg.tree_locks.iter().any(|t| t == &g.lock) {
            let how = match via {
                Some(callee) => format!("calls `{callee}`, which may reach a durability barrier"),
                None => format!("calls `{call}` (a durability barrier)"),
            };
            out.push(Finding {
                rule: RULE_HOLD_ACROSS_SYNC,
                file: sf.rel_path.clone(),
                line,
                message: format!(
                    "fn `{}` {how} while holding tree guard `{}`",
                    f.name, g.lock
                ),
            });
            return; // one finding per call site is enough
        }
    }
}

// ---------------------------------------------------------------------------
// R3: panic-free commit paths.
// ---------------------------------------------------------------------------

fn check_commit_paths(
    files: &[SourceFile],
    cfg: &Config,
    summaries: &Summaries,
    out: &mut Vec<Finding>,
) {
    if cfg.commit_roots.is_empty() || cfg.commit_crate.is_empty() {
        return;
    }
    // BFS over simple names within the commit crate; ambiguous names include
    // every candidate (conservative).
    let Some(name_map) = summaries.by_name.get(&cfg.commit_crate) else {
        return;
    };
    let mut queue: Vec<(String, String)> = cfg
        .commit_roots
        .iter()
        .map(|r| (r.clone(), r.clone()))
        .collect();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut reachable: Vec<(usize, String)> = Vec::new(); // (fn id, root)
    while let Some((name, root)) = queue.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let Some(ids) = name_map.get(&name) else {
            continue;
        };
        for &id in ids {
            reachable.push((id, root.clone()));
            for call in &summaries.fns[id].3.calls {
                if !seen.contains(call) {
                    queue.push((call.clone(), root.clone()));
                }
            }
        }
    }
    for (id, root) in reachable {
        let (_, fi, gi, _) = &summaries.fns[id];
        let sf = &files[*fi];
        let f = &sf.functions[*gi];
        let Some((body_start, body_end)) = f.body else {
            continue;
        };
        let ctx = if f.name == root {
            format!("commit path `{}`", f.name)
        } else {
            format!("`{}` (reachable from commit root `{root}`)", f.name)
        };
        scan_panics(sf, (body_start, body_end), &ctx, out);
    }
}

fn scan_panics(sf: &SourceFile, span: (usize, usize), ctx: &str, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    let mut push = |line: u32, what: &str| {
        out.push(Finding {
            rule: RULE_PANIC_FREE_COMMIT,
            file: sf.rel_path.clone(),
            line,
            message: format!("{what} in {ctx}"),
        });
    };
    for k in span.0..=span.1.min(toks.len().saturating_sub(1)) {
        if let Some(site) = unwrap_site(toks, k) {
            push(toks[k].line, site);
            continue;
        }
        if let Some(name) = toks[k].ident() {
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && toks.get(k + 1).is_some_and(|t| t.is_punct(b'!'))
            {
                push(toks[k].line, &format!("`{name}!`"));
                continue;
            }
        }
        if toks[k].is_punct(b'[') && k > span.0 && is_indexable(&toks[k - 1]) {
            push(toks[k].line, "panicking `[...]` indexing");
        }
    }
}

/// `.unwrap()` / `.expect(` at token `k` (exact names: `unwrap_or_else`
/// etc. must not match).
fn unwrap_site(toks: &[Tok], k: usize) -> Option<&'static str> {
    let name = toks[k].ident()?;
    if k == 0 || !toks[k - 1].is_punct(b'.') {
        return None;
    }
    if !toks.get(k + 1).is_some_and(|t| t.is_punct(b'(')) {
        return None;
    }
    match name {
        "unwrap" if toks.get(k + 2).is_some_and(|t| t.is_punct(b')')) => Some("`.unwrap()`"),
        "expect" => Some("`.expect(...)`"),
        _ => None,
    }
}

/// Whether a `[` following this token is an indexing expression rather than a
/// type, attribute, or array literal.
fn is_indexable(prev: &Tok) -> bool {
    match &prev.kind {
        TokKind::Ident(name) => !keywordish(name),
        TokKind::Num => false, // `[0u8; 4]` style literals don't index
        TokKind::Punct(b')') | TokKind::Punct(b']') => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// R4: no `.unwrap()` / `.expect(` in library code.
// ---------------------------------------------------------------------------

fn check_no_unwrap(sf: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg
        .no_unwrap_exclude
        .iter()
        .any(|p| sf.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    let toks = &sf.tokens;
    for k in 0..toks.len() {
        if sf.is_exempt(k) {
            continue;
        }
        if let Some(site) = unwrap_site(toks, k) {
            out.push(Finding {
                rule: RULE_NO_UNWRAP,
                file: sf.rel_path.clone(),
                line: toks[k].line,
                message: format!(
                    "{site} in library code; return a typed error or waive with a reason"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R5: typed-error discipline on public APIs.
// ---------------------------------------------------------------------------

fn check_typed_errors(sf: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    let applies = cfg
        .typed_error_crates
        .iter()
        .any(|c| c == "." || sf.rel_path.starts_with(c.as_str()));
    if !applies {
        return;
    }
    let toks = &sf.tokens;
    for f in &sf.functions {
        if !f.is_pub || f.is_test {
            continue;
        }
        let Some(ret) = return_type_span(toks, f) else {
            continue;
        };
        let slice = &toks[ret.0..ret.1];
        if let Some(bad) = stringly_error(slice) {
            out.push(Finding {
                rule: RULE_TYPED_ERRORS,
                file: sf.rel_path.clone(),
                line: f.line,
                message: format!(
                    "pub fn `{}` returns {bad}; public APIs must use a typed error enum",
                    f.name
                ),
            });
        }
    }
}

/// Token span of the return type: after `->`, up to the body `{` or `;`.
fn return_type_span(toks: &[Tok], f: &Function) -> Option<(usize, usize)> {
    let sig_end = f.body.map(|(s, _)| s).unwrap_or_else(|| {
        // Bodyless: scan to `;`
        let mut j = f.fn_tok;
        while j < toks.len() && !toks[j].is_punct(b';') {
            j += 1;
        }
        j
    });
    let mut k = f.fn_tok;
    let mut depth = 0i32;
    while k + 1 < sig_end {
        match toks[k].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'-') if depth == 0 && toks[k + 1].is_punct(b'>') => {
                return Some((k + 2, sig_end));
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Detects `Box<dyn ... Error ...>` anywhere, or `Result<_, String>` /
/// `Result<_, &str>` in the error position.
fn stringly_error(slice: &[Tok]) -> Option<String> {
    // `dyn ... Error` where the erased type itself is an error type
    // (a `Box<dyn QueryService>` next to a typed error must not match).
    for (i, t) in slice.iter().enumerate() {
        if !t.is_ident("dyn") {
            continue;
        }
        for u in &slice[i + 1..] {
            if u.is_punct(b'>') || u.is_punct(b',') {
                break;
            }
            if u.ident().is_some_and(|n| n.contains("Error")) {
                return Some("`Box<dyn Error>`".to_string());
            }
        }
    }
    // Find `Result <` and split its top-level arguments on `,`.
    let mut i = 0;
    while i + 1 < slice.len() {
        if slice[i].is_ident("Result") && slice[i + 1].is_punct(b'<') {
            let mut depth = 0i32;
            let mut last_comma = None;
            let mut j = i + 1;
            let mut end = slice.len();
            while j < slice.len() {
                match slice[j].kind {
                    TokKind::Punct(b'<') => depth += 1,
                    TokKind::Punct(b'>') => {
                        // Ignore `->` arrows inside e.g. `impl Fn() -> u8`.
                        if j > 0 && slice[j - 1].is_punct(b'-') {
                            j += 1;
                            continue;
                        }
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                    TokKind::Punct(b',') if depth == 1 => last_comma = Some(j),
                    _ => {}
                }
                j += 1;
            }
            if let Some(c) = last_comma {
                let err_ty = &slice[c + 1..end];
                let idents: Vec<&str> = err_ty.iter().filter_map(|t| t.ident()).collect();
                if idents == ["String"] {
                    return Some("`Result<_, String>`".to_string());
                }
                if idents == ["str"] {
                    return Some("`Result<_, &str>`".to_string());
                }
            }
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// R6: unsafe-audit.
// ---------------------------------------------------------------------------

fn check_unsafe_audit(sf: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    let allowed = cfg.unsafe_allow.contains(&sf.rel_path);
    let lines: Vec<&str> = sf.raw.lines().collect();
    for (k, t) in sf.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") || sf.is_exempt(k) {
            continue;
        }
        if !allowed {
            out.push(Finding {
                rule: RULE_UNSAFE_AUDIT,
                file: sf.rel_path.clone(),
                line: t.line,
                message: "`unsafe` outside the files `[rules.unsafe_audit] allow` lists"
                    .to_string(),
            });
            continue;
        }
        let line = t.line as usize; // 1-based
        let lo = line.saturating_sub(4); // up to 3 lines above, 0-based index
        let documented = lines[lo..line.min(lines.len())]
            .iter()
            .any(|l| l.contains("SAFETY:"));
        if !documented {
            out.push(Finding {
                rule: RULE_UNSAFE_AUDIT,
                file: sf.rel_path.clone(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn test_cfg() -> Config {
        Config {
            lock_order: vec!["alpha".into(), "beta".into(), "gamma".into()],
            lock_helpers: vec!["lock_helper".into()],
            tree_locks: vec!["alpha".into()],
            sync_calls: vec!["sync".into(), "save".into()],
            commit_crate: ".".into(),
            commit_roots: vec!["commit_main".into()],
            typed_error_crates: vec![".".into()],
            unsafe_allow: vec!["src/lib.rs".into()],
            ..Config::default()
        }
    }

    fn findings_at(path: &str, src: &str) -> Vec<Finding> {
        let sf = SourceFile::parse(path, src.to_string());
        check_all(&[sf], &test_cfg())
    }

    fn findings(src: &str) -> Vec<Finding> {
        findings_at("src/lib.rs", src)
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn lock_order_violation_and_clean() {
        let bad = "fn f(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }";
        assert_eq!(rules_of(bad), [RULE_LOCK_ORDER]);
        let good = "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn drop_and_move_close_regions() {
        let dropped =
            "fn f(&self) { let b = self.beta.lock(); drop(b); let a = self.alpha.lock(); }";
        assert!(rules_of(dropped).is_empty());
        let moved = "fn f(&self) { let a = self.alpha.read(); hand_off(a); self.file_store.sync(); } fn hand_off(_a: G) {}";
        assert!(rules_of(moved).is_empty());
    }

    #[test]
    fn scope_exit_closes_regions() {
        let src = "fn f(&self) { { let b = self.beta.lock(); } let a = self.alpha.lock(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn temporaries_are_checked_but_not_held() {
        let bad = "fn f(&self) { let b = self.beta.lock(); self.alpha.lock().touch(); }";
        assert_eq!(rules_of(bad), [RULE_LOCK_ORDER]);
        let good = "fn f(&self) { self.beta.lock().touch(); let a = self.alpha.lock(); }";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn helper_acquisitions_are_seen() {
        let bad = "fn f(&self) { let g = lock_helper(&self.gamma); let a = self.alpha.lock(); }";
        assert_eq!(rules_of(bad), [RULE_LOCK_ORDER]);
    }

    #[test]
    fn interprocedural_acquire_via_unique_callee() {
        let bad = "fn outer(&self) { let b = self.beta.lock(); self.inner(); }\n\
                   fn inner(&self) { let a = self.alpha.lock(); }";
        assert_eq!(rules_of(bad), [RULE_LOCK_ORDER]);
    }

    #[test]
    fn hold_across_sync_direct_and_transitive() {
        let bad = "fn f(&self) { let a = self.alpha.read(); self.file_store.sync(); }";
        assert_eq!(rules_of(bad), [RULE_HOLD_ACROSS_SYNC]);
        let transitive = "fn f(&self) { let a = self.alpha.read(); self.persist(); }\n\
                          fn persist(&self) { self.file_store.sync(); }";
        assert_eq!(rules_of(transitive), [RULE_HOLD_ACROSS_SYNC]);
        let good = "fn f(&self) { let a = self.alpha.read(); drop(a); self.file_store.sync(); }";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn zero_arg_discriminator_ignores_io_writes() {
        // `pager.write(page, data)` is storage I/O, not a lock acquisition.
        let src = "fn f(&self) { self.beta.write(page, data); let a = self.alpha.lock(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn commit_paths_reject_panics_transitively() {
        let bad = "fn commit_main(&self) { self.step(); }\n\
                   fn step(&self) { let x = self.items[0]; }";
        assert_eq!(rules_of(bad), [RULE_PANIC_FREE_COMMIT]);
        let macro_bad = "fn commit_main(&self) { panic!(); }";
        assert_eq!(rules_of(macro_bad), [RULE_PANIC_FREE_COMMIT]);
    }

    #[test]
    fn no_unwrap_flags_lib_but_not_tests_or_unwrap_or_else() {
        let bad = "fn f() { thing().unwrap(); }";
        assert_eq!(rules_of(bad), [RULE_NO_UNWRAP]);
        let test_ok = "#[cfg(test)]\nmod tests { fn f() { thing().unwrap(); } }";
        assert!(rules_of(test_ok).is_empty());
        let or_else = "fn f() { thing().unwrap_or_else(|e| e.into_inner()); }";
        assert!(rules_of(or_else).is_empty());
        let expect_bad = "fn f() { thing().expect(\"boom\"); }";
        assert_eq!(rules_of(expect_bad), [RULE_NO_UNWRAP]);
    }

    #[test]
    fn typed_errors_flags_stringly_public_apis() {
        let bad = "pub fn api() -> Result<u8, String> { Ok(0) }";
        assert_eq!(rules_of(bad), [RULE_TYPED_ERRORS]);
        let boxed = "pub fn api() -> Result<u8, Box<dyn std::error::Error>> { Ok(0) }";
        assert_eq!(rules_of(boxed), [RULE_TYPED_ERRORS]);
        let good = "pub fn api() -> Result<u8, MyError> { Ok(0) }";
        assert!(rules_of(good).is_empty());
        let private = "fn api() -> Result<u8, String> { Ok(0) }";
        assert!(rules_of(private).is_empty());
    }

    #[test]
    fn unsafe_audit_requires_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        assert_eq!(rules_of(bad), [RULE_UNSAFE_AUDIT]);
        let good = "fn f() {\n    // SAFETY: provably unreachable per the check above\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn unsafe_audit_allows_only_listed_files() {
        // The same documented block is a violation in a file the allowlist
        // does not name; a lint name or a comment mentioning it is not.
        let documented = "fn f() {\n    // SAFETY: provably unreachable per the check above\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        let hits = findings_at("src/other.rs", documented);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_UNSAFE_AUDIT);
        assert!(hits[0].message.contains("allow"), "{}", hits[0].message);
        let mentions = "#[allow(unsafe_code)]\nmod ni; // the only unsafe lives there";
        assert!(findings_at("src/other.rs", mentions).is_empty());
    }
}

//! Analyzer configuration: the declared lock order, scan roots, and per-rule
//! knobs, loaded from `analyzer.toml` at the workspace root.
//!
//! The build environment has no crates.io access, so this module includes a
//! hand-rolled parser for the small TOML subset the config needs: `[section]`
//! and `[[section]]` headers, `key = "string"`, and (possibly multi-line)
//! arrays of strings. Anything fancier is rejected with an error.

/// A declared precondition: `function` always runs with `locks` already held
/// (e.g. a commit leader that receives a guard inside a struct). The region
/// model cannot see guards that cross function boundaries, so the config
/// states them explicitly and the analyzer seeds the held-set with them.
#[derive(Debug, Clone, Default)]
pub struct HoldsDecl {
    pub function: String,
    pub locks: Vec<String>,
}

/// Everything `analyzer.toml` can declare.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Total lock acquisition order, outermost first. A lock's rank is its
    /// index; acquiring a lock with rank <= an already-held lock's rank is an
    /// R1 violation (equal rank = re-acquiring the same non-reentrant lock).
    pub lock_order: Vec<String>,
    /// Free functions that acquire a lock passed by reference, e.g.
    /// `lock_unpoisoned(&self.mstate)`.
    pub lock_helpers: Vec<String>,
    /// Directories (relative to the workspace root) to scan.
    pub scan_roots: Vec<String>,
    /// Path components that exclude a file wherever they appear
    /// (e.g. "vendor", "target", "tests", "benches").
    pub exclude_dirs: Vec<String>,
    /// R2: lock fields that protect the authenticated trees; holding one of
    /// these while issuing a sync call is a violation.
    pub tree_locks: Vec<String>,
    /// R2: method/function names that reach a durability barrier
    /// (`sync`, `sync_all`, `save`, ...).
    pub sync_calls: Vec<String>,
    /// R3: the crate (path prefix, e.g. "crates/core") whose commit paths are
    /// held to the panic-free rule.
    pub commit_crate: String,
    /// R3: root function names of the commit/leader/saver paths.
    pub commit_roots: Vec<String>,
    /// R4: crate path prefixes exempt from no-unwrap-in-lib (e.g. the bench
    /// harness, which is deliberately panic-on-failure).
    pub no_unwrap_exclude: Vec<String>,
    /// R5: crate path prefixes whose public APIs must use typed errors.
    pub typed_error_crates: Vec<String>,
    /// R6: the files (relative to the scan root) allowed to contain `unsafe`;
    /// an `unsafe` anywhere else is a violation, with or without a
    /// `// SAFETY:` comment.
    pub unsafe_allow: Vec<String>,
    /// Declared held-lock preconditions (see [`HoldsDecl`]).
    pub holds: Vec<HoldsDecl>,
}

impl Config {
    /// Rank of a lock field name in the declared order, if any.
    pub fn rank_of(&self, lock: &str) -> Option<usize> {
        self.lock_order.iter().position(|l| l == lock)
    }

    /// Locks declared held on entry to `function`.
    pub fn holds_for(&self, function: &str) -> &[String] {
        for h in &self.holds {
            if h.function == function {
                return &h.locks;
            }
        }
        &[]
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = header(&line, "[[", "]]") {
                if name == "holds" {
                    cfg.holds.push(HoldsDecl::default());
                } else {
                    return Err(format!("line {}: unknown table array [[{name}]]", idx + 1));
                }
                section = format!("[[{name}]]");
                continue;
            }
            if let Some(name) = header(&line, "[", "]") {
                section = name.to_string();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("line {}: expected `key = value`", idx + 1));
            };
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            // Multi-line array: keep consuming lines until brackets balance.
            while value.starts_with('[') && !brackets_balanced(&value) {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("line {}: unterminated array", idx + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
            cfg.assign(&section, &key, &value)
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
        }
        if cfg.lock_order.is_empty() {
            return Err("config declares no [locks] order".to_string());
        }
        Ok(cfg)
    }

    fn assign(&mut self, section: &str, key: &str, value: &str) -> Result<(), String> {
        match (section, key) {
            ("locks", "order") => self.lock_order = parse_string_array(value)?,
            ("locks", "helpers") => self.lock_helpers = parse_string_array(value)?,
            ("scan", "roots") => self.scan_roots = parse_string_array(value)?,
            ("scan", "exclude") => self.exclude_dirs = parse_string_array(value)?,
            ("rules.hold_across_sync", "tree_locks") => {
                self.tree_locks = parse_string_array(value)?;
            }
            ("rules.hold_across_sync", "sync_calls") => {
                self.sync_calls = parse_string_array(value)?;
            }
            ("rules.commit_paths", "crate") => self.commit_crate = parse_string(value)?,
            ("rules.commit_paths", "roots") => self.commit_roots = parse_string_array(value)?,
            ("rules.no_unwrap", "exclude") => self.no_unwrap_exclude = parse_string_array(value)?,
            ("rules.typed_errors", "crates") => {
                self.typed_error_crates = parse_string_array(value)?;
            }
            ("rules.unsafe_audit", "allow") => self.unsafe_allow = parse_string_array(value)?,
            ("[[holds]]", "function") => {
                let f = parse_string(value)?;
                match self.holds.last_mut() {
                    Some(h) => h.function = f,
                    None => return Err("`function` outside [[holds]]".to_string()),
                }
            }
            ("[[holds]]", "locks") => {
                let l = parse_string_array(value)?;
                match self.holds.last_mut() {
                    Some(h) => h.locks = l,
                    None => return Err("`locks` outside [[holds]]".to_string()),
                }
            }
            _ => return Err(format!("unknown key `{key}` in section `{section}`")),
        }
        Ok(())
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn header<'a>(line: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(open)?;
    let name = rest.strip_suffix(close)?;
    // `[[x]]` also matches the `[` prefix of `[x]`; reject leftovers.
    if name.contains('[') || name.contains(']') {
        return None;
    }
    Some(name.trim())
}

fn brackets_balanced(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for b in value.bytes() {
        match b {
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    let Some(inner) = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
        return Err(format!("expected a quoted string, got `{v}`"));
    };
    Ok(inner.to_string())
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let Some(inner) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        return Err(format!("expected an array, got `{v}`"));
    };
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[locks]
order = [
    "sp", "te",  # tree locks
    "state",
]
helpers = ["lock_unpoisoned"]

[scan]
roots = ["src"]
exclude = ["vendor"]

[rules.hold_across_sync]
tree_locks = ["sp", "te"]
sync_calls = ["sync", "save"]

[rules.commit_paths]
crate = "crates/core"
roots = ["commit_shard"]

[rules.no_unwrap]
exclude = ["crates/bench"]

[rules.typed_errors]
crates = ["crates/core"]

[rules.unsafe_audit]
allow = ["crates/crypto/src/sha1/ni.rs"]

[[holds]]
function = "finish_commit"
locks = ["state"]
"#;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.lock_order, ["sp", "te", "state"]);
        assert_eq!(cfg.lock_helpers, ["lock_unpoisoned"]);
        assert_eq!(cfg.scan_roots, ["src"]);
        assert_eq!(cfg.exclude_dirs, ["vendor"]);
        assert_eq!(cfg.tree_locks, ["sp", "te"]);
        assert_eq!(cfg.sync_calls, ["sync", "save"]);
        assert_eq!(cfg.commit_crate, "crates/core");
        assert_eq!(cfg.commit_roots, ["commit_shard"]);
        assert_eq!(cfg.no_unwrap_exclude, ["crates/bench"]);
        assert_eq!(cfg.typed_error_crates, ["crates/core"]);
        assert_eq!(cfg.unsafe_allow, ["crates/crypto/src/sha1/ni.rs"]);
        assert_eq!(cfg.holds.len(), 1);
        assert_eq!(cfg.holds[0].function, "finish_commit");
        assert_eq!(cfg.holds[0].locks, ["state"]);
        assert_eq!(cfg.rank_of("sp"), Some(0));
        assert_eq!(cfg.rank_of("state"), Some(2));
        assert_eq!(cfg.rank_of("nope"), None);
        assert_eq!(cfg.holds_for("finish_commit"), ["state".to_string()]);
        assert!(cfg.holds_for("other").is_empty());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_syntax() {
        assert!(Config::parse("[locks]\nbogus = 1\n").is_err());
        assert!(Config::parse("[locks]\norder\n").is_err());
        assert!(Config::parse("junk\n").is_err());
        assert!(Config::parse("").is_err(), "empty config has no lock order");
        assert!(Config::parse("[[mystery]]\nx = \"y\"\n").is_err());
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = Config::parse("[locks]\norder = [\"a#b\"]\n").unwrap();
        assert_eq!(cfg.lock_order, ["a#b"]);
    }
}

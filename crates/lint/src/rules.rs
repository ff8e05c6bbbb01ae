//! The rule engine: six invariants checked over lexed source
//! ([`crate::lexer`]) and parsed manifests ([`crate::manifest`]).
//!
//! | id | invariant |
//! |----|-----------|
//! | `layering` | crate deps and `use lutdla_*` imports respect the sanctioned DAG |
//! | `spawn-discipline` | `thread::spawn`/`scope`/`Builder` only in `vq/src/pool.rs` |
//! | `clock-discipline` | `Instant::now()` only in the sanctioned timing modules |
//! | `unsafe-safety` | every `unsafe` block/fn has an adjacent `// SAFETY:` comment |
//! | `panic-discipline` | no `.unwrap()`/`.expect()`/`panic!` in serving hot-path files |
//! | `allow-justification` | `#[allow(…)]` carries a same-/previous-line comment saying why |
//!
//! Scope conventions (documented in the README rule catalog):
//! - lines inside `#[cfg(test)]`/`mod tests` regions are exempt from every
//!   rule except `unsafe-safety` (unsafe is unsafe even in tests);
//! - files under `tests/`, `examples/`, or `benches/` are *test-like*:
//!   only `unsafe-safety` applies there;
//! - `lint.toml` allowlist entries ([`crate::config::Config`]) suppress a
//!   rule for a path prefix, each with a mandatory justification.

use crate::config::Config;
use crate::lexer::LexedFile;
use crate::manifest;

pub const LAYERING: &str = "layering";
pub const SPAWN: &str = "spawn-discipline";
pub const CLOCK: &str = "clock-discipline";
pub const UNSAFE: &str = "unsafe-safety";
pub const PANIC: &str = "panic-discipline";
pub const ALLOW: &str = "allow-justification";

/// `(rule id, one-line description)` — the catalog printed by
/// `lutdla-lint --list-rules` and mirrored in the README.
pub const RULE_CATALOG: &[(&str, &str)] = &[
    (
        LAYERING,
        "Cargo.toml deps and `use lutdla_*` imports must follow the sanctioned crate DAG",
    ),
    (
        SPAWN,
        "thread::spawn / thread::scope / thread::Builder only in crates/vq/src/pool.rs",
    ),
    (
        CLOCK,
        "Instant::now() only in the sanctioned timing modules (vq/serve.rs, crates/bench)",
    ),
    (
        UNSAFE,
        "every `unsafe` block or fn needs an adjacent `// SAFETY:` comment",
    ),
    (
        PANIC,
        "no .unwrap()/.expect()/panic! in serving hot-path files (poison recovery is compliant)",
    ),
    (
        ALLOW,
        "#[allow(...)] needs a same- or previous-line comment justifying it",
    ),
];

/// Hot-path files for `panic-discipline`: a panic on any of these unwinds
/// a serving thread (collector, pool worker, session flush, or a deployed
/// layer's eval forward) mid-request.
const HOT_PATHS: &[&str] = &[
    "crates/vq/src/serve.rs",
    "crates/vq/src/engine.rs",
    "crates/vq/src/codes.rs",
    "crates/vq/src/pool.rs",
    "crates/lutboost/src/session.rs",
    "crates/lutboost/src/gateway.rs",
    "crates/lutboost/src/lut_gemm.rs",
    "crates/lutboost/src/runtime.rs",
    "crates/lutboost/src/deploy.rs",
];

/// The one sanctioned thread-spawn site (PR 3's `WorkerPool`).
const SPAWN_SITE: &str = "crates/vq/src/pool.rs";

/// Sanctioned `Instant::now()` homes: the PR 6 stamp sites in the serving
/// front door, and the bench crate whose whole business is timing.
/// Everything else goes through `lint.toml` (e.g. the session flush stamp).
const CLOCK_SITES: &[&str] = &["crates/vq/src/serve.rs", "crates/bench"];

pub fn is_rule_id(id: &str) -> bool {
    RULE_CATALOG.iter().any(|(r, _)| *r == id)
}

pub fn rule_ids() -> Vec<&'static str> {
    RULE_CATALOG.iter().map(|(r, _)| *r).collect()
}

/// One finding, printed as `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub(crate) fn violation(file: &str, line: usize, rule: &'static str, message: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule,
        message,
    }
}

/// Where a source file sits, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Owning package name (e.g. `lutdla-vq`).
    pub krate: &'a str,
    /// Under `tests/`, `examples/`, or `benches/`.
    pub test_like: bool,
}

/// Runs every source-side rule over one lexed file.
pub fn check_file(ctx: &FileCtx<'_>, lexed: &LexedFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in lexed.lines.iter().enumerate() {
        let lineno = idx + 1;
        check_unsafe_safety(ctx, lexed, idx, cfg, &mut out);
        if ctx.test_like || line.in_test {
            continue;
        }
        check_imports(ctx, &line.code, lineno, cfg, &mut out);
        check_spawn(ctx, &line.code, lineno, cfg, &mut out);
        check_clock(ctx, &line.code, lineno, cfg, &mut out);
        check_panic(ctx, &line.code, lineno, cfg, &mut out);
        check_allow(ctx, lexed, idx, cfg, &mut out);
    }
    out
}

/// `layering`, source side: a non-test `lutdla_*` path must be a
/// sanctioned dependency of the owning crate.
fn check_imports(
    ctx: &FileCtx<'_>,
    code: &str,
    lineno: usize,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    let Some(allowed) = manifest::allowed_deps(ctx.krate) else {
        return; // the manifest check already flags unknown crates
    };
    for ident in crate_refs(code) {
        let dep = format!("lutdla-{}", &ident["lutdla_".len()..]);
        if dep == ctx.krate || allowed.contains(&dep.as_str()) {
            continue;
        }
        if cfg.is_allowed(LAYERING, ctx.path) {
            continue;
        }
        out.push(violation(
            ctx.path,
            lineno,
            LAYERING,
            format!(
                "`{}` must not use `{ident}`: `{dep}` is outside its sanctioned deps [{}]",
                ctx.krate,
                allowed.join(", ")
            ),
        ));
    }
}

/// Extracts maximal `lutdla_xyz` identifiers from a code line.
fn crate_refs(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find("lutdla_") {
        let at = start + pos;
        let head_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let mut end = at + "lutdla_".len();
        while end < bytes.len() && is_ident_byte(bytes[end]) {
            end += 1;
        }
        if head_ok && end > at + "lutdla_".len() {
            found.push(code[at..end].to_string());
        }
        start = end.max(at + 1);
    }
    found
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `spawn-discipline`.
fn check_spawn(
    ctx: &FileCtx<'_>,
    code: &str,
    lineno: usize,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    const PATTERNS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];
    let Some(hit) = PATTERNS.iter().find(|p| code.contains(*p)) else {
        return;
    };
    if ctx.path == SPAWN_SITE || cfg.is_allowed(SPAWN, ctx.path) {
        return;
    }
    out.push(violation(
        ctx.path,
        lineno,
        SPAWN,
        format!(
            "`{hit}` outside the sanctioned spawn site {SPAWN_SITE}; dispatch through vq::WorkerPool or allowlist this path in lint.toml with a justification"
        ),
    ));
}

/// `clock-discipline`.
fn check_clock(
    ctx: &FileCtx<'_>,
    code: &str,
    lineno: usize,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    if !code.contains("Instant::now") {
        return;
    }
    if CLOCK_SITES
        .iter()
        .any(|site| path_has_prefix(ctx.path, site))
        || cfg.is_allowed(CLOCK, ctx.path)
    {
        return;
    }
    out.push(violation(
        ctx.path,
        lineno,
        CLOCK,
        "`Instant::now()` outside the sanctioned timing modules — serving code takes timestamps from the serve.rs stamp sites (ServeTiming), not ad-hoc clock reads".to_string(),
    ));
}

fn path_has_prefix(path: &str, prefix: &str) -> bool {
    path.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// How far up from an `unsafe` token the adjacent `// SAFETY:` comment may
/// sit, skipping only blank and attribute/doc lines.
const SAFETY_LOOKBACK: usize = 8;

/// `unsafe-safety` — applies in tests too.
fn check_unsafe_safety(
    ctx: &FileCtx<'_>,
    lexed: &LexedFile,
    idx: usize,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    let line = &lexed.lines[idx];
    if !has_word(&line.code, "unsafe") {
        return;
    }
    if line.comment.contains("SAFETY:") {
        return;
    }
    // Walk upward through the adjacent comment block (multi-line `//`
    // comments continue downward from their `SAFETY:` head), blank lines,
    // and attributes; real code interposing ends the search.
    for back in 1..=SAFETY_LOOKBACK.min(idx) {
        let above = &lexed.lines[idx - back];
        let code = above.code.trim();
        if above.comment.contains("SAFETY:") {
            return;
        }
        let skippable = code.is_empty() || code.starts_with("#[") || code.starts_with("#![");
        if !skippable {
            break; // real code interposes
        }
    }
    if cfg.is_allowed(UNSAFE, ctx.path) {
        return;
    }
    out.push(violation(
        ctx.path,
        idx + 1,
        UNSAFE,
        "`unsafe` without an adjacent `// SAFETY:` comment stating why the invariants hold"
            .to_string(),
    ));
}

/// `panic-discipline`.
fn check_panic(
    ctx: &FileCtx<'_>,
    code: &str,
    lineno: usize,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    if !HOT_PATHS.contains(&ctx.path) {
        return;
    }
    // `.unwrap()` requires the immediate call parens, so the compliant
    // poison-recovery form `.unwrap_or_else(|p| p.into_inner())` and the
    // `unwrap_or`/`unwrap_or_default` family never match.
    let hit = if code.contains(".unwrap()") {
        ".unwrap()"
    } else if code.contains(".expect(") {
        ".expect(…)"
    } else if has_word(code, "panic!") {
        "panic!"
    } else {
        return;
    };
    if cfg.is_allowed(PANIC, ctx.path) {
        return;
    }
    out.push(violation(
        ctx.path,
        lineno,
        PANIC,
        format!(
            "`{hit}` in a serving hot-path file: propagate an error, or recover a poisoned lock with `.unwrap_or_else(|poison| poison.into_inner())`"
        ),
    ));
}

/// `allow-justification`.
fn check_allow(
    ctx: &FileCtx<'_>,
    lexed: &LexedFile,
    idx: usize,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    let line = &lexed.lines[idx];
    if !line.code.contains("#[allow(") && !line.code.contains("#![allow(") {
        return;
    }
    if is_justification(&line.comment) {
        return; // trailing justification on the same line
    }
    if idx > 0 {
        let above = &lexed.lines[idx - 1];
        if above.code.trim().is_empty() && is_justification(&above.comment) {
            return; // plain comment line directly above
        }
    }
    if cfg.is_allowed(ALLOW, ctx.path) {
        return;
    }
    out.push(violation(
        ctx.path,
        idx + 1,
        ALLOW,
        "`#[allow(...)]` without a justification comment on the same or previous line (doc comments describe the item, not the exemption)".to_string(),
    ));
}

/// A plain `//` comment counts as an allow-justification; doc comments
/// (`///` → comment text starting with `/`, `//!` → starting with `!`)
/// document the item itself, not why the lint is suppressed.
fn is_justification(comment: &str) -> bool {
    let t = comment.trim();
    !t.is_empty() && !t.starts_with('/') && !t.starts_with('!')
}

/// `needle` appears in `haystack` with a non-identifier character (or
/// boundary) on each side. `needle` may end in `!`.
fn has_word(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let end = at + needle.len();
        let head_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let tail_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if head_ok && tail_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx<'a>(path: &'a str, krate: &'a str) -> FileCtx<'a> {
        FileCtx {
            path,
            krate,
            test_like: false,
        }
    }

    fn check(path: &str, krate: &str, src: &str) -> Vec<Violation> {
        check_file(&ctx(path, krate), &lex(src), &Config::empty())
    }

    #[test]
    fn layering_flags_unsanctioned_import() {
        let v = check(
            "crates/tensor/src/bad.rs",
            "lutdla-tensor",
            "use lutdla_vq::LutEngine;\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, LAYERING);
        assert!(v[0].message.contains("lutdla_vq"), "{}", v[0].message);
    }

    #[test]
    fn layering_accepts_sanctioned_and_self_imports() {
        let v = check(
            "crates/lutboost/src/ok.rs",
            "lutdla-lutboost",
            "use lutdla_vq::LutEngine;\nuse lutdla_nn::Graph;\nuse lutdla_lutboost::x;\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn layering_ignores_test_regions_and_doc_comments() {
        let src = "//! works with lutdla_bench somehow\n#[cfg(test)]\nmod tests {\n    use lutdla_bench::x;\n}\n";
        assert!(check("crates/tensor/src/t.rs", "lutdla-tensor", src).is_empty());
    }

    #[test]
    fn spawn_flagged_outside_pool_allowed_inside() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let v = check("crates/nn/src/x.rs", "lutdla-nn", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, SPAWN);
        assert!(check("crates/vq/src/pool.rs", "lutdla-vq", src).is_empty());
    }

    #[test]
    fn spawn_allowlist_suppresses() {
        let cfg = Config::parse(
            "[allow.spawn-discipline]\n\"crates/nn/src/x.rs\" = \"test rig\"\n",
            "t",
        )
        .expect("valid");
        let lexed = lex("fn f() { std::thread::scope(|s| {}); }\n");
        assert!(check_file(&ctx("crates/nn/src/x.rs", "lutdla-nn"), &lexed, &cfg).is_empty());
    }

    #[test]
    fn clock_flagged_outside_timing_modules() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(check("crates/nn/src/x.rs", "lutdla-nn", src)[0].rule, CLOCK);
        assert!(check("crates/vq/src/serve.rs", "lutdla-vq", src).is_empty());
        assert!(check("crates/bench/src/lib.rs", "lutdla-bench", src).is_empty());
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let v = check("crates/vq/src/x.rs", "lutdla-vq", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNSAFE);

        let good = "// SAFETY: p is valid for reads per the caller contract.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(check("crates/vq/src/x.rs", "lutdla-vq", good).is_empty());
    }

    #[test]
    fn unsafe_safety_comment_may_sit_above_attributes() {
        let good = "// SAFETY: only called when AVX2 was detected.\n#[target_feature(enable = \"avx2\")]\nunsafe fn fast() {}\n";
        assert!(check("crates/vq/src/x.rs", "lutdla-vq", good).is_empty());
        let trailing = "unsafe fn fast() {} // SAFETY: caller checked\n";
        assert!(check("crates/vq/src/x.rs", "lutdla-vq", trailing).is_empty());
    }

    #[test]
    fn multi_line_safety_comment_is_recognized() {
        let good = "// SAFETY: `use_avx2` is only set when\n// the detection macro reported support.\nlet x = unsafe { fast() };\n";
        assert!(check("crates/vq/src/x.rs", "lutdla-vq", good).is_empty());
    }

    #[test]
    fn doc_comment_is_not_an_allow_justification() {
        let src =
            "/// Documents the function, not the lint exemption.\n#[allow(dead_code)]\nfn f() {}\n";
        let v = check("crates/nn/src/x.rs", "lutdla-nn", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, ALLOW);
    }

    #[test]
    fn unsafe_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
        let v = check("crates/vq/src/x.rs", "lutdla-vq", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNSAFE);
    }

    #[test]
    fn unsafe_interposing_code_defeats_a_distant_safety_comment() {
        let src = "// SAFETY: stale comment about other code.\nlet x = 1;\nlet y = unsafe { std::mem::zeroed() };\n";
        assert_eq!(check("crates/vq/src/x.rs", "lutdla-vq", src).len(), 1);
    }

    #[test]
    fn panic_rule_scoped_to_hot_paths() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let v = check("crates/vq/src/serve.rs", "lutdla-vq", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, PANIC);
        // The packed-codes module runs on the encode path of every memo
        // lookup, so it is hot too.
        let v = check("crates/vq/src/codes.rs", "lutdla-vq", src);
        assert_eq!(v.len(), 1, "codes.rs is a hot path");
        assert_eq!(v[0].rule, PANIC);
        assert!(
            check("crates/nn/src/x.rs", "lutdla-nn", src).is_empty(),
            "non-hot files exempt"
        );
    }

    #[test]
    fn poison_recovery_is_compliant() {
        let src = "fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(|p| p.into_inner()) }\n";
        assert!(check("crates/vq/src/pool.rs", "lutdla-vq", src).is_empty());
    }

    #[test]
    fn panic_macro_and_expect_are_flagged_catch_unwind_is_not() {
        let v = check(
            "crates/vq/src/engine.rs",
            "lutdla-vq",
            "fn f() { std::panic::catch_unwind(|| {}).ok(); }\nfn g(o: Option<u8>) { o.expect(\"x\"); }\nfn h() { panic!(\"no\"); }\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn panic_in_hot_path_tests_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"assert\"); }\n}\n";
        assert!(check("crates/vq/src/serve.rs", "lutdla-vq", src).is_empty());
    }

    #[test]
    fn allow_needs_justification() {
        let bad = "#[allow(dead_code)]\nfn unused() {}\n";
        let v = check("crates/nn/src/x.rs", "lutdla-nn", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, ALLOW);

        let trailing = "#[allow(dead_code)] // kept for the serialized form\nfn unused() {}\n";
        assert!(check("crates/nn/src/x.rs", "lutdla-nn", trailing).is_empty());

        let above = "// kept for the serialized form\n#[allow(dead_code)]\nfn unused() {}\n";
        assert!(check("crates/nn/src/x.rs", "lutdla-nn", above).is_empty());
    }

    #[test]
    fn test_like_files_only_get_unsafe_rule() {
        let src = "use lutdla_bench::x;\nfn f() { std::thread::spawn(|| {}); let t = std::time::Instant::now(); }\nfn g(p: *const u8) -> u8 { unsafe { *p } }\n";
        let fc = FileCtx {
            path: "tests/smoke.rs",
            krate: "lutdla",
            test_like: true,
        };
        let v = check_file(&fc, &lex(src), &Config::empty());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, UNSAFE);
    }

    #[test]
    fn strings_and_comments_never_match_rules() {
        let src = "// call .unwrap() and panic! freely here\nlet s = \"thread::spawn Instant::now .unwrap() unsafe\";\nlet r = r#\"#[allow(dead_code)]\"#;\n";
        assert!(check("crates/vq/src/serve.rs", "lutdla-vq", src).is_empty());
    }
}

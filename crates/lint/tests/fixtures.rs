//! Drives the seeded-violation fixtures: every `tests/fixtures/<rule>.rs`
//! file must trip *exactly one* violation, of exactly its rule — the
//! compliant forms sitting next to the seeded one must stay silent. The
//! fixtures are excluded from the workspace walk ([`lutdla_lint::walk`]),
//! so the self-run stays clean while these keep proving each rule fires.

use std::path::Path;

use lutdla_lint::{check_source, Config};

/// `(fixture stem, path the source pretends to live at, owning crate)`.
/// The pretend paths place each fixture where its rule is live: the panic
/// fixture on a hot-path file, the layering fixture in the bottom crate.
const FIXTURES: &[(&str, &str, &str)] = &[
    ("layering", "crates/tensor/src/seeded.rs", "lutdla-tensor"),
    ("spawn-discipline", "crates/nn/src/seeded.rs", "lutdla-nn"),
    ("clock-discipline", "crates/nn/src/seeded.rs", "lutdla-nn"),
    ("unsafe-safety", "crates/vq/src/seeded.rs", "lutdla-vq"),
    ("panic-discipline", "crates/vq/src/serve.rs", "lutdla-vq"),
    (
        "allow-justification",
        "crates/models/src/seeded.rs",
        "lutdla-models",
    ),
];

fn fixture_source(stem: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{stem}.rs"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} must exist: {e}", path.display()))
}

#[test]
fn every_rule_has_a_fixture() {
    let mut covered: Vec<&str> = FIXTURES.iter().map(|(stem, _, _)| *stem).collect();
    covered.sort();
    let mut rules: Vec<&str> = lutdla_lint::RULE_CATALOG
        .iter()
        .map(|(id, _)| *id)
        .collect();
    rules.sort();
    assert_eq!(covered, rules, "one seeded fixture per rule id");
}

#[test]
fn each_fixture_trips_exactly_its_rule_once() {
    for (stem, pretend_path, krate) in FIXTURES {
        let source = fixture_source(stem);
        let violations = check_source(pretend_path, krate, &source, &Config::empty());
        assert_eq!(
            violations.len(),
            1,
            "fixture {stem}: expected exactly one violation, got {violations:#?}"
        );
        assert_eq!(
            violations[0].rule, *stem,
            "fixture {stem} tripped the wrong rule: {}",
            violations[0]
        );
        assert_eq!(violations[0].file, *pretend_path);
        assert!(violations[0].line > 0);
    }
}

#[test]
fn gateway_is_a_panic_discipline_hot_path() {
    // PR 8 put the multi-tenant gateway on the panic-discipline hot-path
    // list: a panic there unwinds the serving front door mid-request. The
    // seeded fixture must trip at the gateway's path — and stay silent at
    // a non-hot lutboost path, proving the rule is scoped per file, not
    // per crate.
    let source = fixture_source("panic-discipline");
    let hot = check_source(
        "crates/lutboost/src/gateway.rs",
        "lutdla-lutboost",
        &source,
        &Config::empty(),
    );
    assert_eq!(hot.len(), 1, "gateway.rs must be a hot path, got {hot:#?}");
    assert_eq!(hot[0].rule, "panic-discipline");
    assert_eq!(hot[0].file, "crates/lutboost/src/gateway.rs");
    let cold = check_source(
        "crates/lutboost/src/convert.rs",
        "lutdla-lutboost",
        &source,
        &Config::empty(),
    );
    assert!(
        cold.is_empty(),
        "non-hot-path lutboost file must stay silent, got {cold:#?}"
    );
}

#[test]
fn deploy_route_files_are_panic_discipline_hot_paths() {
    // A deployed layer's eval forward calls its engine on the serving
    // thread, the runtime builds every session's routes, and the deployed
    // eval loops drain session handles: a panic in any of them unwinds a
    // flush mid-request. The seeded fixture must trip at all three paths.
    let source = fixture_source("panic-discipline");
    for path in [
        "crates/lutboost/src/lut_gemm.rs",
        "crates/lutboost/src/runtime.rs",
        "crates/lutboost/src/deploy.rs",
    ] {
        let hot = check_source(path, "lutdla-lutboost", &source, &Config::empty());
        assert_eq!(hot.len(), 1, "{path} must be a hot path, got {hot:#?}");
        assert_eq!(hot[0].rule, "panic-discipline");
        assert_eq!(hot[0].file, path);
    }
}

#[test]
fn fixtures_go_quiet_under_an_allowlist_entry() {
    for (stem, pretend_path, krate) in FIXTURES {
        let toml = format!(
            "[allow.{stem}]\n\"{pretend_path}\" = \"seeded fixture, deliberately exempt\"\n"
        );
        let cfg = Config::parse(&toml, "test-config").expect("valid allowlist");
        let violations = check_source(pretend_path, krate, &fixture_source(stem), &cfg);
        assert!(
            violations.is_empty(),
            "fixture {stem} should be suppressed by its allowlist entry, got {violations:#?}"
        );
    }
}

#[test]
fn violations_print_in_file_line_rule_message_format() {
    let (stem, pretend_path, krate) = FIXTURES[0];
    let violations = check_source(pretend_path, krate, &fixture_source(stem), &Config::empty());
    let line = violations[0].to_string();
    let mut parts = line.splitn(4, ':');
    assert_eq!(parts.next(), Some("crates/tensor/src/seeded.rs"));
    assert!(parts
        .next()
        .is_some_and(|n| n.trim().parse::<usize>().is_ok()));
    assert_eq!(parts.next().map(str::trim_start), Some("layering"));
    assert!(parts.next().is_some_and(|m| !m.trim().is_empty()));
}

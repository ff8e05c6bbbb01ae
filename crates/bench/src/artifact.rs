//! Schema validation for the benchmark artifacts — the `--check` gates CI
//! runs right after each smoke bench, so a refactor that silently drops a
//! field, zeroes a throughput number, or breaks an emitter's hand-rolled
//! JSON fails the PR instead of quietly rotting the artifact record.
//!
//! [`check_artifact_text`] validates `BENCH_lutgemm.json`;
//! [`check_serve_artifact_text`] validates `BENCH_serve.json`, including
//! the sanity ordering the serving harness must reproduce (percentiles
//! monotone, overload p99 strictly above p50, low-load SLO conformance
//! ≥ 0.5). Every problem names the offending field by path
//! (e.g. `scenarios[3].p99_ms`) so a red CI job is actionable without
//! rerunning anything. Tests at the bottom also validate the artifacts
//! committed at the repo root, so a schema change can't land while the
//! checked-in files are stale.

use crate::json::Json;

/// Fields every entry of `"points"` must carry.
const POINT_FIELDS: &[&str] = &[
    "m",
    "k",
    "n",
    "v",
    "c",
    "scalar_rows_per_s",
    "engine_1t_rows_per_s",
    "engine_mt_rows_per_s",
    "serve_rows_per_s",
    "speedup_1t",
    "speedup_mt",
    "serve_vs_batch",
];

/// Fields the whole-model `"model_serve"` block must carry.
const MODEL_SERVE_FIELDS: &[&str] = &[
    "model",
    "images",
    "lut_stages",
    "dense_stages",
    "serve_rows_per_s",
];

/// Fields the `"encode_once"` block must carry.
const ENCODE_ONCE_FIELDS: &[&str] = &[
    "m",
    "k",
    "n",
    "v",
    "c",
    "code_width_bits",
    "u16_rows_per_s",
    "packed_rows_per_s",
    "packed_speedup",
    "tables",
    "repeated_rows_per_s",
    "many_table_rows_per_s",
    "many_table_speedup",
    "memo_rows",
    "memo_cold_rows_per_s",
    "memo_warm_rows_per_s",
    "memo_warm_speedup",
];

/// Top-level fields of the artifact.
const TOP_FIELDS: &[&str] = &[
    "bench",
    "mode",
    "mt_workers",
    "serve_submitters",
    "host_cpus",
    "points",
    "encode_once",
    "model_serve",
];

/// Validates the text of a `BENCH_lutgemm.json` artifact. Returns every
/// problem found (one per line) so a broken emitter is diagnosed in one
/// run, not one field at a time.
pub fn check_artifact_text(text: &str) -> Result<(), String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(e.to_string()),
    };
    let mut problems = Vec::new();
    if doc.as_obj().is_none() {
        return Err("top level is not a JSON object".to_string());
    }
    for &field in TOP_FIELDS {
        if doc.get(field).is_none() {
            problems.push(format!("missing top-level field \"{field}\""));
        }
    }
    if let Some(bench) = doc.get("bench") {
        if bench.as_str() != Some("lutgemm") {
            problems.push(format!("\"bench\" is {bench:?}, expected \"lutgemm\""));
        }
    }
    match doc.get("points").and_then(Json::as_arr) {
        Some([]) => problems.push("\"points\" is empty".to_string()),
        Some(points) => {
            for (i, point) in points.iter().enumerate() {
                require_fields(point, POINT_FIELDS, &format!("points[{i}]"), &mut problems);
            }
        }
        None => {
            if doc.get("points").is_some() {
                problems.push("\"points\" is not an array".to_string());
            }
        }
    }
    if let Some(value) = doc.get("model_serve") {
        require_fields(value, MODEL_SERVE_FIELDS, "model_serve", &mut problems);
    }
    if let Some(block) = doc.get("encode_once") {
        let full = doc.get("mode").and_then(Json::as_str) == Some("full");
        check_encode_once(block, full, &mut problems);
    }
    // Throughput gate: a *_rows_per_s of zero (or worse) anywhere means a
    // measurement loop broke, whatever the schema says.
    check_rows_per_s(&doc, "$", &mut problems);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Top-level fields of `BENCH_serve.json`.
const SERVE_TOP_FIELDS: &[&str] = &[
    "bench",
    "mode",
    "arrival",
    "seed",
    "requests_per_scenario",
    "host_cpus",
    "scenarios",
    "gateway_scenarios",
    "decode_scenarios",
    "decode_sweep",
];

/// Fields every entry of `"scenarios"` must carry.
const SCENARIO_FIELDS: &[&str] = &[
    "name",
    "model",
    "load",
    "arrival",
    "requests",
    "offered_rps",
    "achieved_rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "mean_ms",
    "slo_ms",
    "slo_conformance",
    "stages",
];

/// Fields every entry of a scenario's `"stages"` must carry.
const STAGE_FIELDS: &[&str] = &[
    "stage",
    "batches_run",
    "rows_served",
    "queued_high_water",
    "mean_service_us",
];

/// Fields every entry of `"gateway_scenarios"` must carry.
const GATEWAY_SCENARIO_FIELDS: &[&str] = &[
    "name",
    "load",
    "arrival",
    "models",
    "tenants",
    "requests",
    "admitted",
    "shed",
    "shed_ratio",
    "batches_run",
    "rows_served",
    "engine_cache_hits",
    "engine_cache_misses",
    "engine_cache_evictions",
    "memo_hits",
    "memo_misses",
    "memo_evictions",
    "slo_ms",
    "classes",
    "stages",
];

/// Fields every entry of a gateway scenario's `"classes"` must carry.
const GATEWAY_CLASS_FIELDS: &[&str] =
    &["class", "requests", "admitted", "shed", "p50_ms", "p99_ms"];

/// Fields every entry of `"decode_scenarios"` must carry.
const DECODE_SCENARIO_FIELDS: &[&str] = &[
    "name",
    "model",
    "load",
    "arrival",
    "streams",
    "seq_len",
    "steps",
    "offered_sps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "mean_ms",
    "steps_per_s",
    "service_steps_per_s",
    "full_reeval_steps_per_s",
    "prefix_speedup",
    "lut_stages",
    "stage_rows",
];

/// Decode-scenario fields that must be finite and strictly positive.
const DECODE_POSITIVE_FIELDS: &[&str] = &[
    "streams",
    "seq_len",
    "steps",
    "offered_sps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "mean_ms",
    "steps_per_s",
    "service_steps_per_s",
    "full_reeval_steps_per_s",
    "prefix_speedup",
    "lut_stages",
    "stage_rows",
];

/// Fields the `"decode_sweep"` block must carry.
const DECODE_SWEEP_FIELDS: &[&str] = &[
    "model",
    "vocab",
    "max_seq",
    "d_model",
    "heads",
    "d_ff",
    "layers",
    "streams",
    "window",
    "points",
    "p50_ratio_256_16",
];

/// Prefix positions the decode sweep times, in order.
const SWEEP_PREFIXES: [f64; 3] = [16.0, 64.0, 256.0];

/// Full-mode bound on the decode sweep's per-token p50 at prefix 256 over
/// the p50 at prefix 16. An incremental step adds only O(prefix · d)
/// attention and pooling work to a fixed per-row cost, so the curve is
/// near flat (1.4–1.9 on a 2-vCPU host); a step that re-ran the whole
/// prefix would read about 60. The bound leaves room for host noise.
const SWEEP_MAX_P50_RATIO: f64 = 3.0;

/// Scenario fields that must be finite and strictly positive.
const SCENARIO_POSITIVE_FIELDS: &[&str] = &[
    "requests",
    "offered_rps",
    "achieved_rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "mean_ms",
    "slo_ms",
];

/// Validates the text of a `BENCH_serve.json` artifact: schema plus the
/// sanity constraints the open-loop harness must reproduce. Returns every
/// problem found, one per line, each naming the failing field by path;
/// any scenario that produced problems is also echoed back as a compact
/// JSON snippet, so a red CI log shows the offending numbers inline.
pub fn check_serve_artifact_text(text: &str) -> Result<(), String> {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(e.to_string()),
    };
    let mut problems = Vec::new();
    if doc.as_obj().is_none() {
        return Err("top level is not a JSON object".to_string());
    }
    for &field in SERVE_TOP_FIELDS {
        if doc.get(field).is_none() {
            problems.push(format!("missing top-level field \"{field}\""));
        }
    }
    if let Some(bench) = doc.get("bench") {
        if bench.as_str() != Some("serve") {
            problems.push(format!("\"bench\" is {bench:?}, expected \"serve\""));
        }
    }
    match doc.get("scenarios").and_then(Json::as_arr) {
        Some([]) => problems.push("\"scenarios\" is empty".to_string()),
        Some(scenarios) => {
            for (i, sc) in scenarios.iter().enumerate() {
                let at = format!("scenarios[{i}]");
                let before = problems.len();
                check_scenario(sc, &at, &mut problems);
                push_snippet_if_failed(sc, &at, before, &mut problems);
            }
        }
        None => {
            if doc.get("scenarios").is_some() {
                problems.push("\"scenarios\" is not an array".to_string());
            }
        }
    }
    match doc.get("gateway_scenarios").and_then(Json::as_arr) {
        Some([]) => problems.push("\"gateway_scenarios\" is empty".to_string()),
        Some(scenarios) => {
            for (i, sc) in scenarios.iter().enumerate() {
                let at = format!("gateway_scenarios[{i}]");
                let before = problems.len();
                check_gateway_scenario(sc, &at, &mut problems);
                push_snippet_if_failed(sc, &at, before, &mut problems);
            }
        }
        None => {
            if doc.get("gateway_scenarios").is_some() {
                problems.push("\"gateway_scenarios\" is not an array".to_string());
            }
        }
    }
    let full = doc.get("mode").and_then(Json::as_str) == Some("full");
    if let Some(sweep) = doc.get("decode_sweep") {
        let before = problems.len();
        check_decode_sweep(sweep, full, &mut problems);
        push_snippet_if_failed(sweep, "decode_sweep", before, &mut problems);
    }
    match doc.get("decode_scenarios").and_then(Json::as_arr) {
        Some([]) => problems.push("\"decode_scenarios\" is empty".to_string()),
        Some(scenarios) => {
            for (i, sc) in scenarios.iter().enumerate() {
                let at = format!("decode_scenarios[{i}]");
                let before = problems.len();
                check_decode_scenario(sc, full, &at, &mut problems);
                push_snippet_if_failed(sc, &at, before, &mut problems);
            }
        }
        None => {
            if doc.get("decode_scenarios").is_some() {
                problems.push("\"decode_scenarios\" is not an array".to_string());
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// One scenario: fields, positivity, percentile ordering, conformance
/// range, the overload/low-load sanity constraints, and stage counters.
fn check_scenario(sc: &Json, at: &str, problems: &mut Vec<String>) {
    require_fields(sc, SCENARIO_FIELDS, at, problems);
    if sc.as_obj().is_none() {
        return;
    }
    let num = |field: &str| sc.get(field).and_then(Json::as_num);
    let s = |field: &str| sc.get(field).and_then(Json::as_str);
    for &field in SCENARIO_POSITIVE_FIELDS {
        if let Some(x) = num(field) {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("{at}.{field} = {x} (must be > 0)"));
            }
        }
    }
    // The name is derived, so a mislabeled row is caught here.
    if let (Some(name), Some(model), Some(load)) = (s("name"), s("model"), s("load")) {
        let expect = format!("{model}_{load}");
        if name != expect {
            problems.push(format!("{at}.name = \"{name}\", expected \"{expect}\""));
        }
    }
    if let (Some(p50), Some(p95), Some(p99), Some(max)) =
        (num("p50_ms"), num("p95_ms"), num("p99_ms"), num("max_ms"))
    {
        if p95 < p50 {
            problems.push(format!("{at}.p95_ms = {p95} < p50_ms = {p50}"));
        }
        if p99 < p95 {
            problems.push(format!("{at}.p99_ms = {p99} < p95_ms = {p95}"));
        }
        if max < p99 {
            problems.push(format!("{at}.max_ms = {max} < p99_ms = {p99}"));
        }
        // Under overload the latency ramp must show up: p99 strictly
        // above p50, or the harness never actually queued anything.
        if s("load") == Some("overload") && p99 <= p50 {
            problems.push(format!(
                "{at}.p99_ms = {p99} (must be > p50_ms = {p50} under overload)"
            ));
        }
    }
    if let Some(x) = num("slo_conformance") {
        if !(0.0..=1.0).contains(&x) {
            problems.push(format!("{at}.slo_conformance = {x} (must be in [0, 1])"));
        }
        // At a quarter of the service rate the session must meet the SLO
        // most of the time.
        if s("load") == Some("low") && x < 0.5 {
            problems.push(format!(
                "{at}.slo_conformance = {x} (low-load must be >= 0.5)"
            ));
        }
    }
    match sc.get("stages").and_then(Json::as_arr) {
        Some([]) => problems.push(format!("{at}.stages is empty")),
        Some(stages) => {
            for (j, st) in stages.iter().enumerate() {
                let here = format!("{at}.stages[{j}]");
                require_fields(st, STAGE_FIELDS, &here, problems);
                if let Some(b) = st.get("batches_run").and_then(Json::as_num) {
                    if b < 1.0 {
                        problems.push(format!("{here}.batches_run = {b} (must be >= 1)"));
                    }
                }
            }
        }
        None => {
            if sc.get("stages").is_some() {
                problems.push(format!("{at}.stages is not an array"));
            }
        }
    }
}

/// One `gateway_*` scenario: fields, admission accounting (admitted +
/// shed = requests, globally and per class; every admitted request
/// served), `shed_ratio` range and consistency, the SLO-class fairness
/// constraint under overload (admitted latency-class requests must not
/// end up with a worse p99 than best-effort ones), and stage counters.
fn check_gateway_scenario(sc: &Json, at: &str, problems: &mut Vec<String>) {
    require_fields(sc, GATEWAY_SCENARIO_FIELDS, at, problems);
    if sc.as_obj().is_none() {
        return;
    }
    let num = |field: &str| sc.get(field).and_then(Json::as_num);
    let s = |field: &str| sc.get(field).and_then(Json::as_str);
    if let Some(name) = s("name") {
        if !name.starts_with("gateway_") {
            problems.push(format!(
                "{at}.name = \"{name}\" (must start with \"gateway_\")"
            ));
        }
    }
    for field in ["models", "tenants", "requests", "slo_ms"] {
        if let Some(x) = num(field) {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("{at}.{field} = {x} (must be > 0)"));
            }
        }
    }
    if let (Some(requests), Some(admitted), Some(shed)) =
        (num("requests"), num("admitted"), num("shed"))
    {
        if admitted + shed != requests {
            problems.push(format!(
                "{at}: admitted ({admitted}) + shed ({shed}) != requests ({requests})"
            ));
        }
        if let Some(ratio) = num("shed_ratio") {
            if !(0.0..=1.0).contains(&ratio) {
                problems.push(format!("{at}.shed_ratio = {ratio} (must be in [0, 1])"));
            } else if requests > 0.0 && (ratio - shed / requests).abs() > 1e-3 {
                problems.push(format!(
                    "{at}.shed_ratio = {ratio} (inconsistent with shed/requests = {})",
                    shed / requests
                ));
            }
        }
        // The no-rows-lost gate: everything admitted past the bounded
        // queues must have been served by the end-of-scenario drain.
        if let Some(rows) = num("rows_served") {
            if rows != admitted {
                problems.push(format!(
                    "{at}.rows_served = {rows} (must equal admitted = {admitted}: \
                     admitted requests may not be lost)"
                ));
            }
        }
    }
    if let Some(b) = num("batches_run") {
        if b < 1.0 {
            problems.push(format!("{at}.batches_run = {b} (must be >= 1)"));
        }
    }
    // The runtime behind the gateway must have exercised its engine
    // cache: registration builds engines (misses) and re-requests of the
    // calibration engines hit. All-zero counters mean the stats plumbing
    // broke.
    if let (Some(hits), Some(misses)) = (num("engine_cache_hits"), num("engine_cache_misses")) {
        if hits + misses <= 0.0 {
            problems.push(format!(
                "{at}: engine_cache_hits + engine_cache_misses = 0 (the runtime \
                 never built nor reused an engine)"
            ));
        }
    }
    // The duplicate-heavy memo scenarios exist to exercise the encode
    // memo: a cold-start interval must record both misses (first
    // encounter of each row) and hits (every repeat).
    if s("name").is_some_and(|n| n.starts_with("gateway_memo")) {
        for field in ["memo_hits", "memo_misses"] {
            if let Some(x) = num(field) {
                if x <= 0.0 {
                    problems.push(format!(
                        "{at}.{field} = {x} (must be > 0 in a memo scenario)"
                    ));
                }
            }
        }
    }
    // Per-class accounting + p99 capture for the fairness constraint.
    let mut latency_p99 = None;
    let mut best_effort_p99 = None;
    match sc.get("classes").and_then(Json::as_arr) {
        Some([]) => problems.push(format!("{at}.classes is empty")),
        Some(classes) => {
            for (j, cl) in classes.iter().enumerate() {
                let here = format!("{at}.classes[{j}]");
                require_fields(cl, GATEWAY_CLASS_FIELDS, &here, problems);
                if cl.as_obj().is_none() {
                    continue;
                }
                let cnum = |field: &str| cl.get(field).and_then(Json::as_num);
                let (req, adm, shed) = (cnum("requests"), cnum("admitted"), cnum("shed"));
                if let (Some(req), Some(adm), Some(shed)) = (req, adm, shed) {
                    if adm + shed != req {
                        problems.push(format!(
                            "{here}: admitted ({adm}) + shed ({shed}) != requests ({req})"
                        ));
                    }
                }
                if adm.is_some_and(|a| a > 0.0) {
                    if let (Some(p50), Some(p99)) = (cnum("p50_ms"), cnum("p99_ms")) {
                        if !(p50.is_finite() && p50 > 0.0) {
                            problems.push(format!(
                                "{here}.p50_ms = {p50} (must be > 0 when requests were admitted)"
                            ));
                        }
                        if p99 < p50 {
                            problems.push(format!("{here}.p99_ms = {p99} < p50_ms = {p50}"));
                        }
                        match cl.get("class").and_then(Json::as_str) {
                            Some("latency") => latency_p99 = Some(p99),
                            Some("best_effort") => best_effort_p99 = Some(p99),
                            _ => {}
                        }
                    }
                }
            }
        }
        None => {
            if sc.get("classes").is_some() {
                problems.push(format!("{at}.classes is not an array"));
            }
        }
    }
    // The reason SLO classes exist: under overload, an admitted
    // latency-class request must not wait behind best-effort traffic.
    if s("load") == Some("overload") {
        if let (Some(lat), Some(be)) = (latency_p99, best_effort_p99) {
            if lat > be {
                problems.push(format!(
                    "{at}: latency p99 ({lat}) > best_effort p99 ({be}) under overload"
                ));
            }
        }
    }
    match sc.get("stages").and_then(Json::as_arr) {
        Some([]) => problems.push(format!("{at}.stages is empty")),
        Some(stages) => {
            for (j, st) in stages.iter().enumerate() {
                let here = format!("{at}.stages[{j}]");
                require_fields(st, STAGE_FIELDS, &here, problems);
                if let Some(b) = st.get("batches_run").and_then(Json::as_num) {
                    if b < 1.0 {
                        problems.push(format!("{here}.batches_run = {b} (must be >= 1)"));
                    }
                }
            }
        }
        None => {
            if sc.get("stages").is_some() {
                problems.push(format!("{at}.stages is not an array"));
            }
        }
    }
}

/// The `"encode_once"` block: schema plus the perf contract. Sharing one
/// encode across tables must beat re-encoding per table in every mode;
/// the stricter gates (packed codes beating the u16 stream, the 2x
/// many-table floor, warm memo beating cold) only hold at real problem
/// sizes, so they apply to full mode alone.
fn check_encode_once(block: &Json, full: bool, problems: &mut Vec<String>) {
    require_fields(block, ENCODE_ONCE_FIELDS, "encode_once", problems);
    if block.as_obj().is_none() {
        return;
    }
    let num = |field: &str| block.get(field).and_then(Json::as_num);
    for field in ["packed_speedup", "many_table_speedup", "memo_warm_speedup"] {
        if let Some(x) = num(field) {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("encode_once.{field} = {x} (must be > 0)"));
            }
        }
    }
    if let Some(bits) = num("code_width_bits") {
        if ![4.0, 8.0, 16.0].contains(&bits) {
            problems.push(format!(
                "encode_once.code_width_bits = {bits} (must be 4, 8, or 16)"
            ));
        }
    }
    if let Some(x) = num("many_table_speedup") {
        if x <= 1.0 {
            problems.push(format!(
                "encode_once.many_table_speedup = {x} (must be > 1: encoding once \
                 must beat re-encoding per table)"
            ));
        }
    }
    if !full {
        return;
    }
    if let Some(x) = num("packed_speedup") {
        if x <= 1.0 {
            problems.push(format!(
                "encode_once.packed_speedup = {x} (must be > 1 in full mode)"
            ));
        }
    }
    if let Some(x) = num("many_table_speedup") {
        if x < 2.0 {
            problems.push(format!(
                "encode_once.many_table_speedup = {x} (must be >= 2 in full mode)"
            ));
        }
    }
    if let (Some(many), Some(rep)) = (num("many_table_rows_per_s"), num("repeated_rows_per_s")) {
        if many < rep {
            problems.push(format!(
                "encode_once.many_table_rows_per_s = {many} < repeated_rows_per_s = {rep}"
            ));
        }
    }
    if let (Some(warm), Some(cold)) = (num("memo_warm_rows_per_s"), num("memo_cold_rows_per_s")) {
        if warm <= cold {
            problems.push(format!(
                "encode_once.memo_warm_rows_per_s = {warm} (must beat \
                 memo_cold_rows_per_s = {cold} in full mode)"
            ));
        }
    }
}

/// One `decode_*` scenario: fields, positivity, the step-accounting
/// identity (`steps == streams * seq_len` — every scheduled token was
/// served, none dropped at a stream boundary), percentile ordering and
/// the overload ramp, the row-accounting identity
/// (`stage_rows == steps * lut_stages` — each one-token step fed every LUT
/// stage exactly its one new row), and the speedup over re-running the
/// whole prefix — strictly above 1 in full mode, merely positive at smoke
/// sizes where fixed overheads can drown the win.
fn check_decode_scenario(sc: &Json, full: bool, at: &str, problems: &mut Vec<String>) {
    require_fields(sc, DECODE_SCENARIO_FIELDS, at, problems);
    if sc.as_obj().is_none() {
        return;
    }
    let num = |field: &str| sc.get(field).and_then(Json::as_num);
    let s = |field: &str| sc.get(field).and_then(Json::as_str);
    for &field in DECODE_POSITIVE_FIELDS {
        if let Some(x) = num(field) {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("{at}.{field} = {x} (must be > 0)"));
            }
        }
    }
    if let (Some(name), Some(load)) = (s("name"), s("load")) {
        let expect = format!("decode_{load}");
        if name != expect {
            problems.push(format!("{at}.name = \"{name}\", expected \"{expect}\""));
        }
    }
    if let (Some(streams), Some(seq_len), Some(steps)) =
        (num("streams"), num("seq_len"), num("steps"))
    {
        if steps != streams * seq_len {
            problems.push(format!(
                "{at}.steps = {steps} (must equal streams * seq_len = {}: \
                 every scheduled token must be served)",
                streams * seq_len
            ));
        }
    }
    if let (Some(p50), Some(p95), Some(p99), Some(max)) =
        (num("p50_ms"), num("p95_ms"), num("p99_ms"), num("max_ms"))
    {
        if p95 < p50 {
            problems.push(format!("{at}.p95_ms = {p95} < p50_ms = {p50}"));
        }
        if p99 < p95 {
            problems.push(format!("{at}.p99_ms = {p99} < p95_ms = {p95}"));
        }
        if max < p99 {
            problems.push(format!("{at}.max_ms = {max} < p99_ms = {p99}"));
        }
        if s("load") == Some("overload") && p99 <= p50 {
            problems.push(format!(
                "{at}.p99_ms = {p99} (must be > p50_ms = {p50} under overload)"
            ));
        }
    }
    if let (Some(steps), Some(lut_stages), Some(stage_rows)) =
        (num("steps"), num("lut_stages"), num("stage_rows"))
    {
        if stage_rows != steps * lut_stages {
            problems.push(format!(
                "{at}.stage_rows = {stage_rows} (must equal steps * lut_stages = {}: \
                 each step feeds every LUT stage only its one new row)",
                steps * lut_stages
            ));
        }
    }
    if full {
        if let Some(x) = num("prefix_speedup") {
            if x <= 1.0 {
                problems.push(format!(
                    "{at}.prefix_speedup = {x} (must be > 1 in full mode: \
                     an incremental step must beat re-running the whole prefix)"
                ));
            }
        }
    }
}

/// The `decode_sweep` block: fields, the swept prefix positions (16, 64,
/// 256, in order) with positive p50s, `p50_ratio_256_16` consistent with
/// them, and — in full mode — the ratio within [`SWEEP_MAX_P50_RATIO`].
fn check_decode_sweep(sweep: &Json, full: bool, problems: &mut Vec<String>) {
    let at = "decode_sweep";
    require_fields(sweep, DECODE_SWEEP_FIELDS, at, problems);
    let Some(points) = sweep.get("points").and_then(Json::as_arr) else {
        return;
    };
    let prefixes: Vec<Option<f64>> = points
        .iter()
        .map(|p| p.get("prefix").and_then(Json::as_num))
        .collect();
    if prefixes != SWEEP_PREFIXES.map(Some) {
        problems.push(format!(
            "{at}.points prefixes are {prefixes:?}, expected {SWEEP_PREFIXES:?}"
        ));
        return;
    }
    let mut p50s = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        match point.get("p50_ms").and_then(Json::as_num) {
            Some(x) if x.is_finite() && x > 0.0 => p50s.push(x),
            other => {
                problems.push(format!("{at}.points[{i}].p50_ms = {other:?} (must be > 0)"));
                return;
            }
        }
    }
    let Some(ratio) = sweep.get("p50_ratio_256_16").and_then(Json::as_num) else {
        return;
    };
    let want = p50s[2] / p50s[0];
    if (ratio - want).abs() > 1e-3 * want.max(1.0) {
        problems.push(format!(
            "{at}.p50_ratio_256_16 = {ratio} (must equal p50@256 / p50@16 = {want:.4})"
        ));
    }
    if full && ratio > SWEEP_MAX_P50_RATIO {
        problems.push(format!(
            "{at}.p50_ratio_256_16 = {ratio} (must be <= {SWEEP_MAX_P50_RATIO} in full mode: \
             per-token cost must stay near flat in the prefix length)"
        ));
    }
}

/// If checking `sc` added problems since `before`, append a compact JSON
/// rendering of the whole scenario so the log carries the numbers that
/// failed, not just their paths.
fn push_snippet_if_failed(sc: &Json, at: &str, before: usize, problems: &mut Vec<String>) {
    if problems.len() > before {
        problems.push(format!("{at} JSON: {}", render(sc)));
    }
}

/// Compact single-line JSON rendering (for failure snippets).
fn render(value: &Json) -> String {
    match value {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{}", *x as i64)
            } else {
                format!("{x}")
            }
        }
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k:?}: {}", render(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

fn require_fields(value: &Json, fields: &[&str], at: &str, problems: &mut Vec<String>) {
    if value.as_obj().is_none() {
        problems.push(format!("{at} is not an object"));
        return;
    }
    for &field in fields {
        if value.get(field).is_none() {
            problems.push(format!("{at} is missing \"{field}\""));
        }
    }
}

/// Walks the whole document: every field named `*_rows_per_s` must be a
/// finite number strictly greater than zero.
fn check_rows_per_s(value: &Json, at: &str, problems: &mut Vec<String>) {
    match value {
        Json::Obj(fields) => {
            for (key, v) in fields {
                let here = format!("{at}.{key}");
                if key.ends_with("_rows_per_s") {
                    match v.as_num() {
                        Some(x) if x.is_finite() && x > 0.0 => {}
                        Some(x) => problems.push(format!("{here} = {x} (must be > 0)")),
                        None => problems.push(format!("{here} is not a number")),
                    }
                }
                check_rows_per_s(v, &here, problems);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                check_rows_per_s(v, &format!("{at}[{i}]"), problems);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> String {
        r#"{
  "bench": "lutgemm",
  "mode": "smoke",
  "mt_workers": 2,
  "serve_submitters": 2,
  "host_cpus": 1,
  "points": [
    {"m": 48, "k": 64, "n": 64, "v": 4, "c": 16,
     "scalar_rows_per_s": 100.0, "engine_1t_rows_per_s": 300.0,
     "engine_mt_rows_per_s": 500.0, "serve_rows_per_s": 400.0,
     "speedup_1t": 3.0, "speedup_mt": 5.0, "serve_vs_batch": 0.8}
  ],
  "encode_once": {"m": 256, "k": 64, "n": 64, "v": 8, "c": 16,
                  "code_width_bits": 4, "u16_rows_per_s": 35000000.0,
                  "packed_rows_per_s": 34000000.0, "packed_speedup": 0.97,
                  "tables": 4, "repeated_rows_per_s": 500000.0,
                  "many_table_rows_per_s": 1400000.0, "many_table_speedup": 2.8,
                  "memo_rows": 128, "memo_cold_rows_per_s": 1200000.0,
                  "memo_warm_rows_per_s": 5400000.0, "memo_warm_speedup": 4.5},
  "model_serve": {"model": "resnet20_mini", "images": 16, "lut_stages": 5,
                  "dense_stages": 4, "serve_rows_per_s": 40.0}
}"#
        .to_string()
    }

    #[test]
    fn valid_artifact_passes() {
        check_artifact_text(&valid_doc()).expect("valid artifact");
    }

    #[test]
    fn malformed_json_fails() {
        let err = check_artifact_text("{ not json").expect_err("malformed");
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn zero_throughput_fails() {
        let doc = valid_doc().replace("\"serve_rows_per_s\": 40.0", "\"serve_rows_per_s\": 0.0");
        let err = check_artifact_text(&doc).expect_err("zero throughput");
        assert!(err.contains("model_serve.serve_rows_per_s"), "{err}");
        assert!(err.contains("must be > 0"), "{err}");
    }

    #[test]
    fn missing_point_field_fails() {
        let doc = valid_doc().replace("\"serve_vs_batch\": 0.8", "\"extra\": 0.8");
        let err = check_artifact_text(&doc).expect_err("missing field");
        assert!(
            err.contains("points[0] is missing \"serve_vs_batch\""),
            "{err}"
        );
    }

    #[test]
    fn non_numeric_throughput_fails() {
        let doc = valid_doc().replace(
            "\"serve_rows_per_s\": 40.0",
            "\"serve_rows_per_s\": \"fast\"",
        );
        let err = check_artifact_text(&doc).expect_err("non-numeric");
        assert!(err.contains("is not a number"), "{err}");
    }

    #[test]
    fn empty_points_fails() {
        let doc = valid_doc();
        let start = doc.find("\"points\": [").expect("points key");
        let end = doc[start..].find(']').expect("array close") + start + 1;
        let doc = format!("{}\"points\": []{}", &doc[..start], &doc[end..]);
        let err = check_artifact_text(&doc).expect_err("empty points");
        assert!(err.contains("\"points\" is empty"), "{err}");
    }

    /// Same doc, full mode, with the full-mode-only gates satisfied.
    fn valid_full_doc() -> String {
        valid_doc()
            .replace("\"mode\": \"smoke\"", "\"mode\": \"full\"")
            .replace("\"packed_speedup\": 0.97", "\"packed_speedup\": 1.2")
    }

    #[test]
    fn full_mode_encode_once_passes_when_gates_hold() {
        check_artifact_text(&valid_full_doc()).expect("valid full artifact");
    }

    #[test]
    fn missing_encode_once_block_fails() {
        let doc = valid_doc().replace("\"encode_once\"", "\"renamed_once\"");
        let err = check_artifact_text(&doc).expect_err("missing block");
        assert!(err.contains("encode_once"), "{err}");
    }

    #[test]
    fn missing_encode_once_field_fails() {
        let doc = valid_doc().replace("\"memo_warm_speedup\": 4.5", "\"extra\": 4.5");
        let err = check_artifact_text(&doc).expect_err("missing field");
        assert!(
            err.contains("encode_once is missing \"memo_warm_speedup\""),
            "{err}"
        );
    }

    #[test]
    fn packed_speedup_below_one_fails_only_in_full_mode() {
        // The smoke template carries packed_speedup 0.97 and passes
        // (valid_artifact_passes); the same value must fail in full mode.
        let doc = valid_full_doc().replace("\"packed_speedup\": 1.2", "\"packed_speedup\": 0.97");
        let err = check_artifact_text(&doc).expect_err("slow packed path");
        assert!(
            err.contains("encode_once.packed_speedup = 0.97 (must be > 1 in full mode)"),
            "{err}"
        );
    }

    #[test]
    fn many_table_speedup_below_two_fails_in_full_mode() {
        let doc =
            valid_full_doc().replace("\"many_table_speedup\": 2.8", "\"many_table_speedup\": 1.5");
        let err = check_artifact_text(&doc).expect_err("weak many-table win");
        assert!(err.contains("must be >= 2 in full mode"), "{err}");
        // The same value is fine at smoke sizes.
        let smoke =
            valid_doc().replace("\"many_table_speedup\": 2.8", "\"many_table_speedup\": 1.5");
        check_artifact_text(&smoke).expect("smoke tolerates a weak win");
    }

    #[test]
    fn many_table_speedup_at_or_below_one_fails_even_in_smoke() {
        let doc = valid_doc().replace("\"many_table_speedup\": 2.8", "\"many_table_speedup\": 0.9");
        let err = check_artifact_text(&doc).expect_err("encode-once lost");
        assert!(
            err.contains("must be > 1: encoding once must beat re-encoding per table"),
            "{err}"
        );
    }

    #[test]
    fn many_table_slower_than_repeated_fails_in_full_mode() {
        let doc = valid_full_doc().replace(
            "\"many_table_rows_per_s\": 1400000.0",
            "\"many_table_rows_per_s\": 400000.0",
        );
        let err = check_artifact_text(&doc).expect_err("slower than repeated");
        assert!(
            err.contains("encode_once.many_table_rows_per_s = 400000 < repeated_rows_per_s"),
            "{err}"
        );
    }

    #[test]
    fn cold_memo_beating_warm_fails_in_full_mode() {
        let doc = valid_full_doc().replace(
            "\"memo_warm_rows_per_s\": 5400000.0",
            "\"memo_warm_rows_per_s\": 1000000.0",
        );
        let err = check_artifact_text(&doc).expect_err("useless memo");
        assert!(err.contains("must beat memo_cold_rows_per_s"), "{err}");
    }

    #[test]
    fn bad_code_width_fails() {
        let doc = valid_doc().replace("\"code_width_bits\": 4", "\"code_width_bits\": 7");
        let err = check_artifact_text(&doc).expect_err("bad width");
        assert!(
            err.contains("encode_once.code_width_bits = 7 (must be 4, 8, or 16)"),
            "{err}"
        );
    }

    fn valid_serve_doc() -> String {
        r#"{
  "bench": "serve",
  "mode": "smoke",
  "arrival": "poisson",
  "seed": 24190,
  "requests_per_scenario": 40,
  "host_cpus": 4,
  "scenarios": [
    {"name": "convnet_low", "model": "convnet",
     "load": "low", "arrival": "poisson", "requests": 40,
     "offered_rps": 100.0, "achieved_rps": 98.0,
     "p50_ms": 2.1, "p95_ms": 2.8, "p99_ms": 3.0, "max_ms": 3.2,
     "mean_ms": 2.2, "slo_ms": 6.0, "slo_conformance": 0.97, "stages": [
       {"stage": "conv1", "batches_run": 40, "rows_served": 40,
        "queued_high_water": 2, "mean_service_us": 410.0}
     ]},
    {"name": "convnet_overload", "model": "convnet",
     "load": "overload", "arrival": "poisson",
     "requests": 40, "offered_rps": 3200.0, "achieved_rps": 400.0,
     "p50_ms": 40.0, "p95_ms": 85.0, "p99_ms": 92.0, "max_ms": 95.0,
     "mean_ms": 45.0, "slo_ms": 6.0, "slo_conformance": 0.05, "stages": [
       {"stage": "conv1", "batches_run": 5, "rows_served": 40,
        "queued_high_water": 8, "mean_service_us": 900.0}
     ]}
  ],
  "gateway_scenarios": [
    {"name": "gateway_mixed_low", "load": "low", "arrival": "poisson",
     "models": 2, "tenants": 6, "requests": 40, "admitted": 40, "shed": 0,
     "shed_ratio": 0.0, "batches_run": 12, "rows_served": 40,
     "engine_cache_hits": 14, "engine_cache_misses": 28,
     "engine_cache_evictions": 0, "memo_hits": 6200, "memo_misses": 1800,
     "memo_evictions": 0, "slo_ms": 6.0,
     "classes": [
       {"class": "latency", "requests": 14, "admitted": 14, "shed": 0,
        "p50_ms": 2.0, "p99_ms": 3.0},
       {"class": "throughput", "requests": 13, "admitted": 13, "shed": 0,
        "p50_ms": 2.2, "p99_ms": 3.4},
       {"class": "best_effort", "requests": 13, "admitted": 13, "shed": 0,
        "p50_ms": 2.4, "p99_ms": 3.8}
     ], "stages": [
       {"stage": "cnn_a/conv1", "batches_run": 12, "rows_served": 20,
        "queued_high_water": 2, "mean_service_us": 410.0}
     ]},
    {"name": "gateway_mixed_overload", "load": "overload", "arrival": "poisson",
     "models": 2, "tenants": 6, "requests": 40, "admitted": 31, "shed": 9,
     "shed_ratio": 0.225, "batches_run": 6, "rows_served": 31,
     "engine_cache_hits": 14, "engine_cache_misses": 28,
     "engine_cache_evictions": 0, "memo_hits": 7000, "memo_misses": 0,
     "memo_evictions": 0, "slo_ms": 6.0,
     "classes": [
       {"class": "latency", "requests": 14, "admitted": 14, "shed": 0,
        "p50_ms": 12.0, "p99_ms": 30.0},
       {"class": "throughput", "requests": 13, "admitted": 13, "shed": 0,
        "p50_ms": 14.0, "p99_ms": 42.0},
       {"class": "best_effort", "requests": 13, "admitted": 4, "shed": 9,
        "p50_ms": 20.0, "p99_ms": 55.0}
     ], "stages": [
       {"stage": "cnn_a/conv1", "batches_run": 6, "rows_served": 16,
        "queued_high_water": 8, "mean_service_us": 900.0}
     ]},
    {"name": "gateway_memo_dup_low", "load": "low", "arrival": "poisson",
     "models": 2, "tenants": 6, "requests": 40, "admitted": 40, "shed": 0,
     "shed_ratio": 0.0, "batches_run": 10, "rows_served": 40,
     "engine_cache_hits": 14, "engine_cache_misses": 28,
     "engine_cache_evictions": 0, "memo_hits": 9500, "memo_misses": 260,
     "memo_evictions": 0, "slo_ms": 6.0,
     "classes": [
       {"class": "latency", "requests": 14, "admitted": 14, "shed": 0,
        "p50_ms": 1.8, "p99_ms": 2.6},
       {"class": "throughput", "requests": 13, "admitted": 13, "shed": 0,
        "p50_ms": 2.0, "p99_ms": 3.0},
       {"class": "best_effort", "requests": 13, "admitted": 13, "shed": 0,
        "p50_ms": 2.2, "p99_ms": 3.4}
     ], "stages": [
       {"stage": "cnn_a/conv1", "batches_run": 10, "rows_served": 20,
        "queued_high_water": 2, "mean_service_us": 380.0}
     ]}
  ],
  "decode_scenarios": [
    {"name": "decode_low", "model": "gpt_mini", "load": "low",
     "arrival": "poisson", "streams": 3, "seq_len": 8, "steps": 24,
     "offered_sps": 110.0, "p50_ms": 1.4, "p95_ms": 1.9, "p99_ms": 2.2,
     "max_ms": 2.5, "mean_ms": 1.5, "steps_per_s": 620.0,
     "service_steps_per_s": 627.0, "full_reeval_steps_per_s": 640.0,
     "prefix_speedup": 0.98, "lut_stages": 5, "stage_rows": 120},
    {"name": "decode_overload", "model": "gpt_mini", "load": "overload",
     "arrival": "poisson", "streams": 3, "seq_len": 8, "steps": 24,
     "offered_sps": 4800.0, "p50_ms": 9.0, "p95_ms": 22.0, "p99_ms": 26.0,
     "max_ms": 28.0, "mean_ms": 11.0, "steps_per_s": 560.0,
     "service_steps_per_s": 608.0, "full_reeval_steps_per_s": 640.0,
     "prefix_speedup": 0.95, "lut_stages": 5, "stage_rows": 120}
  ],
  "decode_sweep": {"model": "causal_transformer", "vocab": 64, "max_seq": 256,
    "d_model": 64, "heads": 4, "d_ff": 128, "layers": 2, "streams": 2,
    "window": 8, "points": [{"prefix": 16, "p50_ms": 0.05},
    {"prefix": 64, "p50_ms": 0.07}, {"prefix": 256, "p50_ms": 0.18}],
    "p50_ratio_256_16": 3.6}
}"#
        .to_string()
    }

    #[test]
    fn valid_serve_artifact_passes() {
        check_serve_artifact_text(&valid_serve_doc()).expect("valid artifact");
    }

    #[test]
    fn serve_missing_percentile_names_path() {
        let doc = valid_serve_doc().replace("\"p99_ms\": 92.0,", "");
        let err = check_serve_artifact_text(&doc).expect_err("missing field");
        assert!(err.contains("scenarios[1] is missing \"p99_ms\""), "{err}");
    }

    #[test]
    fn serve_overload_inversion_names_constraint() {
        // Overload p99 dragged down to p50: the ramp sanity check fires.
        let doc = valid_serve_doc()
            .replace("\"p95_ms\": 85.0", "\"p95_ms\": 40.0")
            .replace("\"p99_ms\": 92.0", "\"p99_ms\": 40.0");
        let err = check_serve_artifact_text(&doc).expect_err("flat overload");
        assert!(
            err.contains("scenarios[1].p99_ms = 40 (must be > p50_ms = 40 under overload)"),
            "{err}"
        );
    }

    #[test]
    fn serve_percentile_ordering_is_checked() {
        let doc = valid_serve_doc().replace("\"p95_ms\": 2.8", "\"p95_ms\": 1.0");
        let err = check_serve_artifact_text(&doc).expect_err("inverted p95");
        assert!(
            err.contains("scenarios[0].p95_ms = 1 < p50_ms = 2.1"),
            "{err}"
        );
    }

    #[test]
    fn serve_low_load_conformance_floor() {
        let doc =
            valid_serve_doc().replace("\"slo_conformance\": 0.97", "\"slo_conformance\": 0.2");
        let err = check_serve_artifact_text(&doc).expect_err("missed SLO");
        assert!(
            err.contains("scenarios[0].slo_conformance = 0.2 (low-load must be >= 0.5)"),
            "{err}"
        );
    }

    #[test]
    fn serve_conformance_out_of_range_fails() {
        let doc =
            valid_serve_doc().replace("\"slo_conformance\": 0.97", "\"slo_conformance\": 1.4");
        let err = check_serve_artifact_text(&doc).expect_err("out of range");
        assert!(err.contains("must be in [0, 1]"), "{err}");
    }

    #[test]
    fn serve_mislabeled_name_fails() {
        let doc = valid_serve_doc().replace(
            "\"name\": \"convnet_low\"",
            "\"name\": \"convnet_overload\"",
        );
        let err = check_serve_artifact_text(&doc).expect_err("bad name");
        assert!(err.contains("expected \"convnet_low\""), "{err}");
    }

    #[test]
    fn serve_empty_stages_fails() {
        let doc = valid_serve_doc().replacen(
            "\"stages\": [\n       {\"stage\": \"conv1\", \"batches_run\": 40, \"rows_served\": 40,\n        \"queued_high_water\": 2, \"mean_service_us\": 410.0}\n     ]",
            "\"stages\": []",
            1,
        );
        let err = check_serve_artifact_text(&doc).expect_err("empty stages");
        assert!(err.contains("scenarios[0].stages is empty"), "{err}");
    }

    #[test]
    fn serve_wrong_bench_tag_fails() {
        let doc = valid_serve_doc().replace("\"bench\": \"serve\"", "\"bench\": \"lutgemm\"");
        let err = check_serve_artifact_text(&doc).expect_err("wrong tag");
        assert!(err.contains("expected \"serve\""), "{err}");
    }

    #[test]
    fn serve_missing_gateway_block_fails() {
        let doc = valid_serve_doc().replace("\"gateway_scenarios\"", "\"renamed_scenarios\"");
        let err = check_serve_artifact_text(&doc).expect_err("missing block");
        assert!(
            err.contains("missing top-level field \"gateway_scenarios\""),
            "{err}"
        );
    }

    #[test]
    fn gateway_admission_accounting_is_checked() {
        // Drop an admitted request without shedding it: counts stop adding up.
        let doc = valid_serve_doc().replace(
            "\"requests\": 40, \"admitted\": 31, \"shed\": 9",
            "\"requests\": 40, \"admitted\": 30, \"shed\": 9",
        );
        let err = check_serve_artifact_text(&doc).expect_err("lost request");
        assert!(
            err.contains("gateway_scenarios[1]: admitted (30) + shed (9) != requests (40)"),
            "{err}"
        );
    }

    #[test]
    fn gateway_shed_ratio_out_of_range_fails() {
        let doc = valid_serve_doc().replace("\"shed_ratio\": 0.225", "\"shed_ratio\": 1.4");
        let err = check_serve_artifact_text(&doc).expect_err("out of range");
        assert!(
            err.contains("gateway_scenarios[1].shed_ratio = 1.4 (must be in [0, 1])"),
            "{err}"
        );
    }

    #[test]
    fn gateway_shed_ratio_must_match_counts() {
        let doc = valid_serve_doc().replace("\"shed_ratio\": 0.225", "\"shed_ratio\": 0.5");
        let err = check_serve_artifact_text(&doc).expect_err("inconsistent ratio");
        assert!(err.contains("inconsistent with shed/requests"), "{err}");
    }

    #[test]
    fn gateway_admitted_rows_must_all_be_served() {
        let doc = valid_serve_doc().replace("\"rows_served\": 31", "\"rows_served\": 29");
        let err = check_serve_artifact_text(&doc).expect_err("lost rows");
        assert!(
            err.contains("gateway_scenarios[1].rows_served = 29 (must equal admitted = 31"),
            "{err}"
        );
    }

    #[test]
    fn gateway_overload_fairness_inversion_fails() {
        // Latency-class p99 dragged above best-effort under overload: the
        // SLO classes stopped meaning anything.
        let doc = valid_serve_doc().replace(
            "\"p50_ms\": 12.0, \"p99_ms\": 30.0",
            "\"p50_ms\": 12.0, \"p99_ms\": 70.0",
        );
        let err = check_serve_artifact_text(&doc).expect_err("fairness inversion");
        assert!(
            err.contains(
                "gateway_scenarios[1]: latency p99 (70) > best_effort p99 (55) under overload"
            ),
            "{err}"
        );
    }

    #[test]
    fn gateway_class_percentiles_checked_only_when_admitted() {
        // A fully-shed class reports zero percentiles; that must pass.
        let doc = valid_serve_doc().replace(
            "{\"class\": \"best_effort\", \"requests\": 13, \"admitted\": 4, \"shed\": 9,\n        \"p50_ms\": 20.0, \"p99_ms\": 55.0}",
            "{\"class\": \"best_effort\", \"requests\": 13, \"admitted\": 0, \"shed\": 13,\n        \"p50_ms\": 0.0, \"p99_ms\": 0.0}",
        );
        let doc = doc.replace(
            "\"requests\": 40, \"admitted\": 31, \"shed\": 9,\n     \"shed_ratio\": 0.225, \"batches_run\": 6, \"rows_served\": 31",
            "\"requests\": 40, \"admitted\": 27, \"shed\": 13,\n     \"shed_ratio\": 0.325, \"batches_run\": 6, \"rows_served\": 27",
        );
        check_serve_artifact_text(&doc).expect("fully-shed class is valid");
    }

    #[test]
    fn gateway_missing_cache_counter_fails() {
        let doc = valid_serve_doc().replacen("\"engine_cache_hits\": 14, ", "", 1);
        let err = check_serve_artifact_text(&doc).expect_err("missing counter");
        assert!(
            err.contains("gateway_scenarios[0] is missing \"engine_cache_hits\""),
            "{err}"
        );
    }

    #[test]
    fn gateway_dead_engine_cache_fails() {
        let doc = valid_serve_doc().replacen(
            "\"engine_cache_hits\": 14, \"engine_cache_misses\": 28",
            "\"engine_cache_hits\": 0, \"engine_cache_misses\": 0",
            1,
        );
        let err = check_serve_artifact_text(&doc).expect_err("dead cache");
        assert!(
            err.contains("gateway_scenarios[0]: engine_cache_hits + engine_cache_misses = 0"),
            "{err}"
        );
    }

    #[test]
    fn gateway_memo_scenario_must_hit_and_miss() {
        // The `gateway_memo_*` name scopes the > 0 gate: the overload
        // scenario in the template carries memo_misses 0 and still passes
        // (valid_serve_artifact_passes); the memo scenario may not.
        let doc = valid_serve_doc().replace("\"memo_hits\": 9500", "\"memo_hits\": 0");
        let err = check_serve_artifact_text(&doc).expect_err("memo never hit");
        assert!(
            err.contains("gateway_scenarios[2].memo_hits = 0 (must be > 0 in a memo scenario)"),
            "{err}"
        );
        let doc = valid_serve_doc().replace("\"memo_misses\": 260", "\"memo_misses\": 0");
        let err = check_serve_artifact_text(&doc).expect_err("memo never missed");
        assert!(
            err.contains("gateway_scenarios[2].memo_misses = 0"),
            "{err}"
        );
    }

    /// Full-mode serve doc with the full-mode-only decode gates satisfied.
    fn valid_full_serve_doc() -> String {
        valid_serve_doc()
            .replace("\"mode\": \"smoke\"", "\"mode\": \"full\"")
            .replace("\"prefix_speedup\": 0.98", "\"prefix_speedup\": 1.6")
            .replace("\"prefix_speedup\": 0.95", "\"prefix_speedup\": 1.4")
            .replace("\"p50_ms\": 0.18}", "\"p50_ms\": 0.09}")
            .replace("\"p50_ratio_256_16\": 3.6", "\"p50_ratio_256_16\": 1.8")
    }

    #[test]
    fn full_mode_serve_doc_passes_when_decode_gates_hold() {
        check_serve_artifact_text(&valid_full_serve_doc()).expect("valid full artifact");
    }

    #[test]
    fn serve_missing_decode_block_fails() {
        let doc = valid_serve_doc().replace("\"decode_scenarios\"", "\"renamed_scenarios\"");
        let err = check_serve_artifact_text(&doc).expect_err("missing block");
        assert!(
            err.contains("missing top-level field \"decode_scenarios\""),
            "{err}"
        );
    }

    #[test]
    fn decode_step_accounting_is_checked() {
        // Lose one step at a stream boundary: steps != streams * seq_len.
        let doc = valid_serve_doc().replacen("\"steps\": 24", "\"steps\": 23", 1);
        let err = check_serve_artifact_text(&doc).expect_err("lost step");
        assert!(
            err.contains("decode_scenarios[0].steps = 23 (must equal streams * seq_len = 24"),
            "{err}"
        );
    }

    #[test]
    fn decode_percentile_ordering_is_checked() {
        let doc = valid_serve_doc().replace("\"p95_ms\": 1.9", "\"p95_ms\": 1.0");
        let err = check_serve_artifact_text(&doc).expect_err("inverted p95");
        assert!(
            err.contains("decode_scenarios[0].p95_ms = 1 < p50_ms = 1.4"),
            "{err}"
        );
    }

    #[test]
    fn decode_overload_inversion_names_constraint() {
        let doc = valid_serve_doc()
            .replace("\"p50_ms\": 9.0", "\"p50_ms\": 26.0")
            .replace("\"mean_ms\": 11.0", "\"mean_ms\": 26.0");
        let err = check_serve_artifact_text(&doc).expect_err("flat overload");
        assert!(
            err.contains("decode_scenarios[1].p99_ms = 26 (must be > p50_ms = 26 under overload)"),
            "{err}"
        );
    }

    #[test]
    fn decode_prefix_speedup_gate_fires_only_in_full_mode() {
        // The smoke template carries prefix_speedup 0.98 and passes
        // (valid_serve_artifact_passes); the same value must fail in full
        // mode, where fixed overheads no longer excuse losing to re-encode.
        let doc =
            valid_full_serve_doc().replace("\"prefix_speedup\": 1.6", "\"prefix_speedup\": 0.98");
        let err = check_serve_artifact_text(&doc).expect_err("reuse lost to re-encode");
        assert!(
            err.contains("decode_scenarios[0].prefix_speedup = 0.98"),
            "{err}"
        );
        assert!(err.contains("must be > 1 in full mode"), "{err}");
    }

    #[test]
    fn decode_prefix_speedup_must_be_positive_even_in_smoke() {
        let doc = valid_serve_doc().replace("\"prefix_speedup\": 0.98", "\"prefix_speedup\": 0.0");
        let err = check_serve_artifact_text(&doc).expect_err("non-positive speedup");
        assert!(
            err.contains("decode_scenarios[0].prefix_speedup = 0 (must be > 0)"),
            "{err}"
        );
    }

    #[test]
    fn decode_stage_rows_must_equal_steps_times_lut_stages() {
        // One extra row: some step fed a stage more than its new row.
        let doc = valid_serve_doc().replacen("\"stage_rows\": 120", "\"stage_rows\": 121", 1);
        let err = check_serve_artifact_text(&doc).expect_err("extra stage row");
        assert!(
            err.contains(
                "decode_scenarios[0].stage_rows = 121 (must equal steps * lut_stages = 120"
            ),
            "{err}"
        );
        // A whole-prefix re-run per step would feed far more rows.
        let doc = valid_serve_doc().replacen("\"stage_rows\": 120", "\"stage_rows\": 1500", 1);
        assert!(check_serve_artifact_text(&doc).is_err());
        // No LUT stage at all is not a decode measurement.
        let doc = valid_serve_doc().replacen("\"lut_stages\": 5", "\"lut_stages\": 0", 1);
        let err = check_serve_artifact_text(&doc).expect_err("no LUT stages");
        assert!(
            err.contains("decode_scenarios[0].lut_stages = 0 (must be > 0)"),
            "{err}"
        );
    }

    #[test]
    fn decode_service_rate_is_required() {
        let doc = valid_serve_doc().replacen("\"service_steps_per_s\": 627.0, ", "", 1);
        let err = check_serve_artifact_text(&doc).expect_err("missing rate");
        assert!(
            err.contains("decode_scenarios[0] is missing \"service_steps_per_s\""),
            "{err}"
        );
    }

    #[test]
    fn decode_sweep_ratio_gate_fires_only_in_full_mode() {
        // The smoke template's 3.6 passes (valid_serve_artifact_passes);
        // full mode holds it to the bound.
        let doc = valid_serve_doc().replace("\"mode\": \"smoke\"", "\"mode\": \"full\"");
        let err = check_serve_artifact_text(&doc).expect_err("steep sweep");
        assert!(
            err.contains("decode_sweep.p50_ratio_256_16 = 3.6 (must be <= 3 in full mode"),
            "{err}"
        );
        assert!(err.contains("decode_sweep JSON: {"), "{err}");
    }

    #[test]
    fn decode_sweep_ratio_must_match_its_points() {
        let doc =
            valid_serve_doc().replace("\"p50_ratio_256_16\": 3.6", "\"p50_ratio_256_16\": 1.2");
        let err = check_serve_artifact_text(&doc).expect_err("inconsistent ratio");
        assert!(
            err.contains(
                "decode_sweep.p50_ratio_256_16 = 1.2 (must equal p50@256 / p50@16 = 3.6000)"
            ),
            "{err}"
        );
    }

    #[test]
    fn decode_sweep_points_are_checked() {
        let doc = valid_serve_doc().replace("\"prefix\": 64", "\"prefix\": 32");
        let err = check_serve_artifact_text(&doc).expect_err("wrong prefixes");
        assert!(err.contains("decode_sweep.points prefixes are"), "{err}");
        let doc = valid_serve_doc().replace("\"p50_ms\": 0.07}", "\"p50_ms\": 0.0}");
        let err = check_serve_artifact_text(&doc).expect_err("zero p50");
        assert!(
            err.contains("decode_sweep.points[1].p50_ms = Some(0.0) (must be > 0)"),
            "{err}"
        );
        let doc = valid_serve_doc().replace("\"decode_sweep\"", "\"renamed_sweep\"");
        let err = check_serve_artifact_text(&doc).expect_err("missing sweep");
        assert!(
            err.contains("missing top-level field \"decode_sweep\""),
            "{err}"
        );
    }

    #[test]
    fn decode_mislabeled_name_fails() {
        let doc =
            valid_serve_doc().replace("\"name\": \"decode_low\"", "\"name\": \"decode_fast\"");
        let err = check_serve_artifact_text(&doc).expect_err("bad name");
        assert!(
            err.contains("decode_scenarios[0].name = \"decode_fast\", expected \"decode_low\""),
            "{err}"
        );
    }

    #[test]
    fn failing_scenario_is_echoed_as_json_snippet() {
        // Any failed scenario check appends the scenario's compact JSON so
        // the CI log shows the offending numbers, not just their paths.
        let doc = valid_serve_doc().replacen("\"steps\": 24", "\"steps\": 23", 1);
        let err = check_serve_artifact_text(&doc).expect_err("lost step");
        assert!(err.contains("decode_scenarios[0] JSON: {"), "{err}");
        assert!(err.contains("\"steps\": 23"), "{err}");
        assert!(err.contains("\"name\": \"decode_low\""), "{err}");
        // Healthy scenarios are not echoed.
        assert!(!err.contains("decode_scenarios[1] JSON"), "{err}");
        assert!(!err.contains("\nscenarios[0] JSON"), "{err}");
    }

    #[test]
    fn failing_gateway_scenario_is_echoed_as_json_snippet() {
        let doc = valid_serve_doc().replace("\"shed_ratio\": 0.225", "\"shed_ratio\": 1.4");
        let err = check_serve_artifact_text(&doc).expect_err("out of range");
        assert!(err.contains("gateway_scenarios[1] JSON: {"), "{err}");
        assert!(err.contains("\"shed_ratio\": 1.4"), "{err}");
    }

    // The artifacts committed at the repo root must track the schema:
    // these tests make `cargo test` the gate that keeps a checker (or
    // emitter) change from landing with stale checked-in files.
    #[test]
    fn committed_lutgemm_artifact_matches_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lutgemm.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_lutgemm.json");
        check_artifact_text(&text).expect("committed BENCH_lutgemm.json fails --check");
    }

    #[test]
    fn committed_serve_artifact_matches_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_serve.json");
        check_serve_artifact_text(&text).expect("committed BENCH_serve.json fails --check");
    }
}

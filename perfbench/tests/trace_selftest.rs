//! Self-test of the traced run: short traced runs of every workload must
//! produce consistent spans, correct outputs, and engine replays whose
//! shapes match each stage's rows × k.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lutdla_perfbench::report::{per_layer_names, END_TO_END};
use lutdla_perfbench::{run, Args, Outcome, Workload};

fn traced(workload: Workload) -> Outcome {
    run(&Args {
        workload,
        seed: 7,
        seconds: 0.5,
        trace: true,
        setup_seconds: 0.0,
    })
}

/// Self times are never negative, and every op's children lie inside the
/// op, belong to it, and sum to no more than it.
fn assert_spans_consistent(o: &Outcome) {
    let spans = o.tracer.spans();
    assert!(!spans.is_empty(), "traced run recorded no spans");
    for (s, self_ns) in spans.iter().zip(o.tracer.self_ns()) {
        assert!(
            self_ns >= 0,
            "span {} has negative self time {self_ns}",
            s.name
        );
        assert!(
            s.end_ns >= s.start_ns,
            "span {} ends before it starts",
            s.name
        );
    }
    let mut ops = 0;
    for (i, op) in spans.iter().enumerate().filter(|(_, s)| s.name == "op") {
        ops += 1;
        let kids: Vec<_> = spans.iter().filter(|c| c.parent == Some(i)).collect();
        assert!(!kids.is_empty(), "op {} has no child spans", op.op);
        let total: u64 = kids.iter().map(|c| c.duration_ns()).sum();
        assert!(
            total <= op.duration_ns(),
            "children of op {} exceed it",
            op.op
        );
        for c in kids {
            assert!(c.start_ns >= op.start_ns && c.end_ns <= op.end_ns);
            assert_eq!(c.op, op.op, "child {} carries another op id", c.name);
        }
    }
    assert!(ops > 0, "no op spans recorded");
}

/// The run served every op correctly and reported every per-layer metric.
fn assert_report_complete(o: &Outcome) {
    let r = &o.report;
    assert!(r.correct, "outputs did not match their references");
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, want);
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    assert!(r
        .metrics
        .iter()
        .any(|m| m.name == "trace.overhead" && m.samples > 0));
}

/// `(stage, rows, k)` per converted ConvNet stage for `images` images of
/// 16×16 at width 8: stage 1 keeps 16×16, stage 2 halves it.
fn convnet_shapes(images: usize) -> Vec<(&'static str, usize, usize)> {
    vec![
        ("s1.b0.conv1", images * 256, 8 * 9),
        ("s1.b0.conv2", images * 256, 8 * 9),
        ("s2.b0.conv1", images * 64, 8 * 9),
        ("s2.b0.conv2", images * 64, 16 * 9),
        ("s2.b0.down", images * 64, 8),
    ]
}

fn assert_replay_shapes(o: &Outcome, want: &[(&str, usize, usize)], encode_rows: Option<usize>) {
    let got: Vec<(&str, usize, usize)> = o
        .replays
        .iter()
        .map(|r| (r.stage.as_str(), r.rows, r.k))
        .collect();
    assert_eq!(got, want);
    for r in &o.replays {
        assert_eq!(r.code_rows, r.rows, "{}: packed codes rows", r.stage);
        assert_eq!(
            r.out_dims.first(),
            Some(&r.rows),
            "{}: lookup rows",
            r.stage
        );
        assert_eq!(r.encode_rows, encode_rows.unwrap_or(r.rows), "{}", r.stage);
        assert!(r.encode_ms >= 0.0 && r.lookup_ms > 0.0, "{}", r.stage);
    }
}

#[test]
fn cnn_batch_traced_run_is_consistent() {
    let o = traced(Workload::CnnBatch);
    assert_spans_consistent(&o);
    assert_report_complete(&o);
    assert_replay_shapes(&o, &convnet_shapes(32), None);
}

#[test]
fn gateway_mixed_traced_run_is_consistent() {
    let o = traced(Workload::GatewayMixed);
    assert_spans_consistent(&o);
    assert_report_complete(&o);
    // Op 0 carries three images per model.
    assert_replay_shapes(&o, &convnet_shapes(3), None);
    let dup = o.report.metrics.iter().find(|m| m.name == "memo.dup_share");
    assert_eq!(dup.map(|m| m.value), Some(0.5));
}

#[test]
fn decode_long_traced_run_is_consistent() {
    let o = traced(Workload::DecodeLong);
    assert_spans_consistent(&o);
    assert_report_complete(&o);
    // The step at position 128: 128 prefix rows, one newly encoded.
    let mut want = Vec::new();
    for block in ["block0", "block1"] {
        for (unit, k) in [
            ("wq", 64),
            ("wk", 64),
            ("wv", 64),
            ("wo", 64),
            ("ff1", 64),
            ("ff2", 128),
        ] {
            want.push((format!("{block}.{unit}"), 128, k));
        }
    }
    want.remove(0); // block0.wq stays dense
    let want: Vec<(&str, usize, usize)> =
        want.iter().map(|(s, r, k)| (s.as_str(), *r, *k)).collect();
    assert_replay_shapes(&o, &want, Some(1));
}

/// `BENCHMARK.json` at the repository root names exactly the metrics the
/// benchmark prints.
#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer_names().into_iter().map(|(n, _)| n));
    for w in Workload::ALL {
        names.push(w.name().to_string());
    }
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(text.matches("\"name\":").count(), names.len());
}

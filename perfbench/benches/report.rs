//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Converted stages of the ConvNet (`cnn_batch`, `gateway_mixed`).
pub const CNN_STAGES: [&str; 5] = [
    "s1.b0.conv1",
    "s1.b0.conv2",
    "s2.b0.conv1",
    "s2.b0.conv2",
    "s2.b0.down",
];

/// Converted stages of the causal transformer (`decode_long`); the first
/// projection stays dense under the default convert policy.
pub const DECODE_STAGES: [&str; 11] = [
    "block0.wk",
    "block0.wv",
    "block0.wo",
    "block0.ff1",
    "block0.ff2",
    "block1.wq",
    "block1.wk",
    "block1.wv",
    "block1.wo",
    "block1.ff1",
    "block1.ff2",
];

/// Decode prefix bands, inclusive 1-based positions.
pub const BANDS: [(usize, usize); 4] = [(1, 64), (65, 128), (129, 192), (193, 256)];

pub fn band_name(band: (usize, usize)) -> String {
    format!("pos_{}-{}", band.0, band.1)
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer its workload bypasses reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("convert.s".into(), "s"),
        ("runtime.build_s".into(), "s"),
        ("engine.encode_ms".into(), "ms"),
        ("engine.lookup_ms".into(), "ms"),
    ];
    for stage in CNN_STAGES.iter().chain(DECODE_STAGES.iter()) {
        names.push((format!("engine.encode_ms.{stage}"), "ms"));
        names.push((format!("engine.lookup_ms.{stage}"), "ms"));
    }
    names.extend([
        ("forward.other_ms".into(), "ms"),
        ("gateway.submit_us".into(), "us"),
        ("gateway.drain_ms".into(), "ms"),
        ("gateway.wait_us".into(), "us"),
        ("memo.saved_ms".into(), "ms"),
        ("memo.dup_share".into(), "ratio"),
    ]);
    for band in BANDS {
        let b = band_name(band);
        names.push((format!("decode.step_ms.{b}"), "ms"));
        names.push((format!("decode.reeval_ms.{b}"), "ms"));
        names.push((format!("decode.reuse_speedup.{b}"), "x"));
    }
    names.push(("trace.overhead".into(), "ms"));
    names
}

/// One reported number with the count of samples behind it.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// What one run of a workload measured.
#[derive(Debug)]
pub struct Report {
    /// Every checked output matched its reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Orders per-layer `values` (name → (value, samples)) by
    /// [`per_layer_names`], filling layers the workload bypasses with 0.
    pub fn per_layer(mut values: BTreeMap<String, (f64, usize)>) -> Vec<Metric> {
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let (value, samples) = values.remove(&name).unwrap_or((0.0, 0));
                Metric {
                    name,
                    value,
                    unit: unit.to_string(),
                    samples,
                }
            })
            .collect()
    }

    /// A table of every metric with its sample count, then the one-line
    /// JSON result as the last line.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        let _ = writeln!(
            out,
            "# {:<36} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "# {:<36} {:>16.6} {:<6} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "# ops attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

//! Metric declarations and the result line.
//!
//! The two tables below are the benchmark's contract: `BENCHMARK.json`
//! at the repository root lists the same names, units and directions
//! (a test keeps them in step), and every workload must report every
//! metric of the table its run mode prints.

use crate::stats::Tally;
use fairsqg_wire::Value;
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "higher",
    }
}

/// Metrics a user of the system waits on; printed by untraced runs.
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    lower("run_s", "s"),
    lower("cpu_s", "s"),
    lower("job_p50_ms", "ms"),
    lower("job_p99_ms", "ms"),
    higher("jobs_per_s", "1/s"),
    lower("first_delta_p50_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Metrics of single layers; printed by traced runs. Per-generation
/// (per-job on `served-mix`) unless the name says otherwise; 0 where the
/// workload bypasses the layer.
pub const PER_LAYER: &[Decl] = &[
    lower("datagen.build_s", "s"),
    lower("store.open_ms", "ms"),
    lower("store.reload_ms", "ms"),
    lower("store.mapped_mb", "MiB"),
    lower("store.heap_mb", "MiB"),
    lower("query.plan_ms", "ms"),
    lower("query.materialize_ms", "ms"),
    lower("matcher.order_plan_ms", "ms"),
    lower("matcher.candidates_ms", "ms"),
    lower("matcher.match_ms", "ms"),
    lower("matcher.calls", "count"),
    lower("matcher.matches", "count"),
    higher("matcher.pruned_candidates", "count"),
    higher("matcher.cand_memo_hits", "count"),
    lower("matcher.order_replans", "count"),
    lower("measures.diversity_ms", "ms"),
    lower("measures.coverage_ms", "ms"),
    higher("measures.distance_hit_rate", "ratio"),
    lower("measures.pairs_per_score", "count"),
    lower("algo.verified", "count"),
    lower("algo.verify_ratio", "ratio"),
    higher("algo.pruned_infeasible", "count"),
    higher("algo.pruned_sandwich", "count"),
    higher("algo.cache_hits", "count"),
    lower("algo.archive_ms", "ms"),
    lower("algo.archive_accept_ratio", "ratio"),
    higher("algo.threads_used", "count"),
    higher("algo.cpu_util", "ratio"),
    lower("service.queue_wait_ms", "ms"),
    lower("service.plan_ms", "ms"),
    lower("service.generate_ms", "ms"),
    lower("service.render_ms", "ms"),
    lower("service.rejected", "count"),
    higher("service.coalesced", "count"),
    higher("service.warm_diversity_hit_rate", "ratio"),
    higher("service.warm_plan_hit_rate", "ratio"),
    lower("service.warm_evictions", "count"),
    lower("service.stream_deltas_per_job", "count"),
    lower("wire.result_bytes", "B"),
    lower("wire.render_ms", "ms"),
    lower("wire.transport_ms", "ms"),
    lower("trace.overhead_s", "s"),
    lower("failed_ratio", "ratio"),
];

/// Metric values collected by one run, by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run hands back for printing.
pub struct RunOutput {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Fixture provenance, sample counts and anything else a reader of
    /// the result needs to interpret the numbers.
    pub provenance: Value,
}

/// Renders the result line: exactly the metrics of `table`, each
/// finite (and, for end-to-end metrics, positive), with its unit.
pub fn result_line(table: &[Decl], out: &RunOutput) -> Result<String, String> {
    let end_to_end = table == END_TO_END;
    let mut metrics = BTreeMap::new();
    for d in table {
        let value = out
            .metrics
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() || (end_to_end && value <= 0.0) {
            return Err(format!("metric {} has no usable value ({value})", d.name));
        }
        metrics.insert(
            d.name.to_string(),
            Value::object([("value", Value::from(value)), ("unit", Value::from(d.unit))]),
        );
    }
    let line = Value::object([
        ("correct", Value::from(true)),
        ("attempted", Value::from(out.tally.attempted())),
        ("failed", Value::from(out.tally.failed_total())),
        ("metrics", Value::Object(metrics)),
    ]);
    Ok(fairsqg_wire::to_string(&line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Outcome;

    /// `BENCHMARK.json` must declare exactly the metrics this file prints.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = fairsqg_wire::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, d) in listed.iter().zip(table) {
                let field = |f: &str| entry.get(f).and_then(Value::as_str).map(str::to_string);
                assert_eq!(field("name").as_deref(), Some(d.name), "{key} order");
                assert_eq!(field("unit").as_deref(), Some(d.unit), "{} unit", d.name);
                assert_eq!(
                    field("better").as_deref(),
                    Some(d.better),
                    "{} better",
                    d.name
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            metrics.set(d.name, 1.5 + i as f64);
        }
        let mut tally = Tally::default();
        tally.record(Outcome::Done);
        tally.record(Outcome::Truncated);
        let out = RunOutput {
            metrics,
            tally,
            provenance: Value::Null,
        };
        let line = fairsqg_wire::parse(&result_line(END_TO_END, &out).unwrap()).unwrap();
        let Value::Object(map) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));
        let run_s = line.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(run_s.get("value").and_then(Value::as_f64), Some(2.5));
        assert_eq!(run_s.get("unit").and_then(Value::as_str), Some("s"));
        // A traced-mode table is not satisfied by end-to-end values.
        assert!(result_line(PER_LAYER, &out).is_err());
    }

    #[test]
    fn an_end_to_end_zero_is_refused() {
        let mut metrics = Metrics::default();
        for d in END_TO_END {
            metrics.set(d.name, 0.0);
        }
        let out = RunOutput {
            metrics,
            tally: Tally::default(),
            provenance: Value::Null,
        };
        assert!(result_line(END_TO_END, &out).is_err());
    }
}

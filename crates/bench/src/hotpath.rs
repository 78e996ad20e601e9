//! Hot-path A/B benchmark: the indexed + cached default path against the
//! un-optimized `reference_path`, plus a work-stealing thread sweep.
//!
//! Every timed pair is also an equivalence check — the optimized and
//! reference runs must produce bit-identical archives (same instances,
//! same objective bits), otherwise the speedup numbers are meaningless.
//! The report is emitted as JSON (`BENCH_PR4.json`) so regressions are
//! diffable across commits.

use crate::common::{configuration, Algo};
use crate::scales::ExpScale;
use fairsqg_algo::{effective_threads, par_enum_qgen, Configuration, Generated};
use fairsqg_datagen::{workload, CoverageMode, DatasetKind, Workload, WorkloadParams};
use fairsqg_wire::Value;
use std::time::Instant;

/// Timing repetitions per measured variant (best-of, to shed scheduler
/// noise on small presets).
const REPS: usize = 3;

/// Thread counts swept by the parallel section.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn fig9_workload(kind: DatasetKind, n: usize) -> Workload {
    let params = WorkloadParams {
        template_edges: 3,
        range_vars: 2,
        edge_vars: 1,
        groups: 2,
        coverage: CoverageMode::AutoFraction(0.5),
        seed: 0xFA1,
        ..WorkloadParams::default()
    };
    workload(kind, n, &params)
}

/// Runs `f` `REPS` times; returns the fastest wall time (seconds) and the
/// last result.
fn best_of<F: FnMut() -> Generated>(mut f: F) -> (f64, Generated) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.unwrap())
}

/// Panics unless the two runs produced identical archives (same entry
/// order, same instances, bit-equal objectives).
fn assert_identical(a: &Generated, b: &Generated, what: &str) {
    assert_eq!(a.entries.len(), b.entries.len(), "{what}: archive size");
    for (x, y) in a.entries.iter().zip(b.entries.iter()) {
        assert_eq!(x.inst, y.inst, "{what}: instance");
        assert_eq!(
            x.objectives().delta.to_bits(),
            y.objectives().delta.to_bits(),
            "{what}: delta bits"
        );
        assert_eq!(
            x.objectives().fcov.to_bits(),
            y.objectives().fcov.to_bits(),
            "{what}: fcov bits"
        );
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn per_sec(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// One sequential A/B measurement: `algo` on the reference path vs the
/// default (indexed + cached) path.
fn seq_ab(cfg: Configuration<'_>, algo: Algo, what: &str) -> Value {
    let (ref_secs, ref_out) =
        best_of(|| crate::common::run(cfg.with_reference_path(), algo, false));
    let (opt_secs, opt_out) = best_of(|| crate::common::run(cfg, algo, false));
    assert_identical(&ref_out, &opt_out, what);
    let s = &opt_out.stats;
    Value::object([
        ("reference_ms", Value::from(ref_secs * 1e3)),
        ("optimized_ms", Value::from(opt_secs * 1e3)),
        ("speedup", Value::from(ref_secs / opt_secs)),
        ("verified", Value::from(s.verified as i64)),
        (
            "verified_per_sec_reference",
            Value::from(per_sec(ref_out.stats.verified, ref_secs)),
        ),
        (
            "verified_per_sec_optimized",
            Value::from(per_sec(s.verified, opt_secs)),
        ),
        (
            "distance_cache_hit_rate",
            Value::from(rate(s.distance_cache_hits, s.distance_cache_misses)),
        ),
        (
            "index_candidate_share",
            Value::from(rate(s.matcher.index_candidates, s.matcher.scan_candidates)),
        ),
        (
            "scan_fallbacks",
            Value::from(s.matcher.scan_fallbacks as i64),
        ),
        (
            "pool_restrictions",
            Value::from(s.matcher.pool_restrictions as i64),
        ),
        ("entries", Value::from(opt_out.entries.len() as i64)),
    ])
}

/// The work-stealing thread sweep. Efficiency is reported two ways: raw
/// (`t1 / (tN · N)`) and normalized to the hardware — on a machine with
/// fewer cores than `N`, raw efficiency is physically bounded by
/// `hw / N`, so the normalized figure divides by
/// `min(N, hardware_threads)` instead of `N`. Each row also records
/// `threads_used`: the scheduler clamps the pool to the hardware, so a
/// `threads=8` request on a smaller machine measures that oversubscribed
/// requests degrade to the best pool the hardware supports.
fn thread_sweep(cfg: Configuration<'_>, seq: &Generated, hw: usize) -> (Vec<Value>, f64) {
    let mut rows = Vec::new();
    let mut t1 = 0.0f64;
    let mut eff8 = 1.0f64;
    for &threads in &THREAD_SWEEP {
        let (secs, out) = best_of(|| par_enum_qgen(cfg, threads));
        assert_identical(seq, &out, "par_enum vs enum");
        if threads == 1 {
            t1 = secs;
        }
        let raw = t1 / (secs * threads as f64);
        let normalized = t1 / (secs * threads.min(hw) as f64);
        if threads == 8 {
            eff8 = normalized;
        }
        let used = effective_threads(threads);
        rows.push(Value::object([
            ("threads", Value::from(threads as i64)),
            ("threads_used", Value::from(used as i64)),
            // A clamped row measured a smaller pool than requested (the
            // scheduler never oversubscribes the hardware); its efficiency
            // figures describe the clamped pool, not the requested one.
            // Derived from `available_parallelism`, never hand-set.
            ("clamped", Value::from(crate::common::clamped(threads))),
            ("ms", Value::from(secs * 1e3)),
            ("efficiency_raw", Value::from(raw)),
            ("efficiency_vs_hardware", Value::from(normalized)),
        ]));
    }
    (rows, eff8)
}

/// Runs the full hot-path benchmark at `scale` and returns the report.
pub fn run_hotpath(scale: &ExpScale, scale_name: &str) -> Value {
    let eps = 0.01;
    let hw = crate::common::available_parallelism();
    let mut datasets = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut eff8_all: Vec<f64> = Vec::new();
    for (kind, n) in [
        (DatasetKind::Dbp, scale.dbp),
        (DatasetKind::Lki, scale.lki),
        (DatasetKind::Cite, scale.cite),
    ] {
        let w = fig9_workload(kind, n);
        let cfg = configuration(&w, eps);
        let enum_ab = seq_ab(cfg, Algo::EnumQGen, "enum ref vs opt");
        let rfq_ab = seq_ab(cfg, Algo::RfQGen, "rfqgen ref vs opt");
        let seq = crate::common::run(cfg, Algo::EnumQGen, false);
        let (sweep, eff8) = thread_sweep(cfg, &seq, hw);
        for ab in [&enum_ab, &rfq_ab] {
            speedups.push(ab.get("speedup").and_then(Value::as_f64).unwrap());
        }
        eff8_all.push(eff8);
        datasets.push(Value::object([
            ("dataset", Value::from(kind.name())),
            ("nodes", Value::from(w.graph.node_count() as i64)),
            ("enum", enum_ab),
            ("rfqgen", rfq_ab),
            ("parallel", Value::Array(sweep)),
        ]));
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let min_eff8 = eff8_all.iter().copied().fold(f64::INFINITY, f64::min);
    Value::object([
        ("bench", Value::from("hotpath-pr4")),
        ("scale", Value::from(scale_name)),
        ("available_parallelism", Value::from(hw as i64)),
        ("hardware_threads", Value::from(hw as i64)),
        ("reps_best_of", Value::from(REPS as i64)),
        ("datasets", Value::Array(datasets)),
        (
            "summary",
            Value::object([
                ("min_speedup", Value::from(min_speedup)),
                ("geomean_speedup", Value::from(geomean)),
                (
                    "min_eight_thread_efficiency_vs_hardware",
                    Value::from(min_eff8),
                ),
            ]),
        ),
    ])
}

//! Matching-order A/B benchmark: the cost-based adaptive order with the
//! candidate memo and semi-join-pruned root space against the PR-4
//! indexed path (greedy connected order, no pruning, no memo), measured
//! on the verify path itself — repeated `match_output_set` computations
//! over every instantiation in the workload's refinement lattice, exactly
//! the calls a generation run pays for per archive entry.
//!
//! Every timed pair is equivalence-gated *before* timing, twice over:
//! per-instance, the optimized, baseline, and scan-reference match sets
//! must be identical; whole-run, the optimized, baseline, and
//! reference-path archives of both generation algorithms must be
//! bit-identical (same instances, same objective bits). Otherwise the run
//! aborts — speedups are only reported for provably identical results.
//! The report is emitted as JSON (`BENCH_PR10.json`) so regressions are
//! diffable across commits.

use crate::common::{configuration, machine_header, Algo};
use crate::scales::ExpScale;
use fairsqg_algo::{Configuration, Generated};
use fairsqg_datagen::{workload, CoverageMode, DatasetKind, Workload, WorkloadParams};
use fairsqg_matcher::{
    matcher_stats, plan_matching_order, try_match_output_set_with, MatchBudget, MatchOptions,
    MatchScratch,
};
use fairsqg_query::{ConcreteQuery, InstanceLattice};
use fairsqg_wire::Value;
use std::time::Instant;

/// Timing repetitions per measured variant (best-of, to shed scheduler
/// noise on small presets).
const REPS: usize = 5;

/// The order benchmark's workload: the hot-path datasets with a denser
/// template (5 edges vs Fig. 9's 3) so the matching order has room to
/// matter — on a 2-3-node template every connected order is near-optimal
/// and the benchmark would measure noise.
fn order_workload(kind: DatasetKind, n: usize) -> Workload {
    let params = WorkloadParams {
        template_edges: 5,
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
fn best_of<R>(mut f: impl FnMut() -> R) -> (f64, R) {
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

fn per_sec(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Sums the match-set sizes of one verify sweep over `queries` under
/// `opts`, sharing `scratch` across calls the way an evaluator does.
fn sweep(
    graph: &fairsqg_graph::Graph,
    queries: &[ConcreteQuery],
    opts: MatchOptions<'_>,
    scratch: &mut MatchScratch,
) -> usize {
    let budget = MatchBudget::UNLIMITED;
    let mut sum = 0usize;
    for q in queries {
        sum += try_match_output_set_with(graph, q, opts, &budget, scratch)
            .expect("unlimited budget tripped")
            .len();
    }
    sum
}

/// The verify-path A/B for one preset: every instantiation in the
/// workload's refinement lattice is materialized and its match set
/// computed — baseline (PR-4 index path: greedy actual-size order, no
/// pruning, no memo) against optimized (cost-based cached plan, candidate
/// memo, root semi-join pruning, adaptive re-planning). Gated on
/// per-instance identical match sets across scan-reference, baseline,
/// and optimized before any timing. Returns the report and the speedup.
fn verify_ab(w: &Workload, what: &str) -> (Value, f64) {
    let insts = InstanceLattice::new(&w.domains).enumerate();
    let queries: Vec<ConcreteQuery> = insts
        .iter()
        .map(|i| ConcreteQuery::materialize(&w.template, &w.domains, i))
        .collect();
    let root = &queries[0];
    let plan = plan_matching_order(&w.graph, root);
    let baseline = MatchOptions {
        optimize: false,
        ..MatchOptions::default()
    };
    let optimized = MatchOptions {
        plan: Some(&plan),
        ..MatchOptions::default()
    };
    let reference = MatchOptions {
        use_index: false,
        optimize: false,
        ..MatchOptions::default()
    };

    // Gate: per-instance match sets identical across all three variants,
    // with the optimized variant run through a shared scratch so the
    // memo path (what the timed sweep exercises) is what gets checked.
    {
        let budget = MatchBudget::UNLIMITED;
        let mut scratch = MatchScratch::default();
        for q in &queries {
            let r = try_match_output_set_with(
                &w.graph,
                q,
                reference,
                &budget,
                &mut MatchScratch::default(),
            )
            .unwrap();
            let b = try_match_output_set_with(
                &w.graph,
                q,
                baseline,
                &budget,
                &mut MatchScratch::default(),
            )
            .unwrap();
            let o =
                try_match_output_set_with(&w.graph, q, optimized, &budget, &mut scratch).unwrap();
            assert_eq!(r, b, "{what}: reference vs baseline match set");
            assert_eq!(b, o, "{what}: baseline vs optimized match set");
        }
    }

    let mut base_scratch = MatchScratch::default();
    let (base_secs, base_sum) = best_of(|| sweep(&w.graph, &queries, baseline, &mut base_scratch));
    let mut opt_scratch = MatchScratch::default();
    let before = matcher_stats();
    let (opt_secs, opt_sum) = best_of(|| sweep(&w.graph, &queries, optimized, &mut opt_scratch));
    let stats = matcher_stats().delta_since(before);
    assert_eq!(base_sum, opt_sum, "{what}: timed sweep match totals");

    let verified = queries.len() as u64;
    let speedup = base_secs / opt_secs;
    let report = Value::object([
        ("instances", Value::from(verified as i64)),
        ("baseline_ms", Value::from(base_secs * 1e3)),
        ("optimized_ms", Value::from(opt_secs * 1e3)),
        ("speedup", Value::from(speedup)),
        (
            "verified_per_sec_baseline",
            Value::from(per_sec(verified, base_secs)),
        ),
        (
            "verified_per_sec_optimized",
            Value::from(per_sec(verified, opt_secs)),
        ),
        ("order_replans", Value::from(stats.order_replans as i64)),
        (
            "pruned_candidates",
            Value::from(stats.pruned_candidates as i64),
        ),
        ("cand_memo_hits", Value::from(stats.cand_memo_hits as i64)),
    ]);
    (report, speedup)
}

/// Whole-run equivalence gate for one generation algorithm: the
/// reference-path, optimizer-off, and optimized archives must be
/// bit-identical. Returns the optimized run's ordering counters.
fn archive_gate(cfg: Configuration<'_>, algo: Algo, what: &str) -> Value {
    let gate_ref = crate::common::run(cfg.with_reference_path(), algo, false);
    let gate_base = crate::common::run(cfg.with_match_optimizer(false), algo, false);
    let gate_opt = crate::common::run(cfg, algo, false);
    assert_identical(&gate_ref, &gate_base, what);
    assert_identical(&gate_base, &gate_opt, what);
    let s = &gate_opt.stats.matcher;
    Value::object([
        ("entries", Value::from(gate_opt.entries.len() as i64)),
        ("verified", Value::from(gate_opt.stats.verified as i64)),
        ("order_planned", Value::from(s.order_planned as i64)),
        ("order_replans", Value::from(s.order_replans as i64)),
        ("est_candidates", Value::from(s.est_candidates as i64)),
        ("pruned_candidates", Value::from(s.pruned_candidates as i64)),
        ("cand_memo_hits", Value::from(s.cand_memo_hits as i64)),
    ])
}

/// Runs the full matching-order benchmark at `scale` and returns the
/// report.
pub fn run_order(scale: &ExpScale, scale_name: &str) -> Value {
    let eps = 0.01;
    let mut datasets = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for (kind, n) in [
        (DatasetKind::Dbp, scale.dbp),
        (DatasetKind::Lki, scale.lki),
        (DatasetKind::Cite, scale.cite),
    ] {
        let w = order_workload(kind, n);
        let cfg = configuration(&w, eps);
        let enum_gate = archive_gate(cfg, Algo::EnumQGen, "enum ref vs base vs opt");
        let rfq_gate = archive_gate(cfg, Algo::RfQGen, "rfqgen ref vs base vs opt");
        let (verify, speedup) = verify_ab(&w, kind.name());
        speedups.push(speedup);
        datasets.push(Value::object([
            ("dataset", Value::from(kind.name())),
            ("nodes", Value::from(w.graph.node_count() as i64)),
            ("verify", verify),
            ("enum", enum_gate),
            ("rfqgen", rfq_gate),
        ]));
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let mut fields = vec![
        ("bench", Value::from("order-pr10")),
        ("scale", Value::from(scale_name)),
    ];
    fields.extend(machine_header());
    fields.extend([
        ("reps_best_of", Value::from(REPS as i64)),
        ("datasets", Value::Array(datasets)),
        (
            "summary",
            Value::object([
                ("min_speedup", Value::from(min_speedup)),
                ("geomean_speedup", Value::from(geomean)),
            ]),
        ),
    ]);
    Value::object(fields)
}

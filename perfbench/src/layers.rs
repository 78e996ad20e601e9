//! Per-layer metrics from the traced replay and the algorithms' own
//! counters.

use crate::replay::Replay;
use crate::report::{Metrics, PER_LAYER};
use fairsqg_algo::GenStats;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Span times, matcher and measure counters of one layer replay.
pub fn set_replay(m: &mut Metrics, r: &Replay) {
    let s = &r.spans;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    m.set("query.materialize_ms", ms(s.materialize));
    m.set("matcher.order_plan_ms", ms(s.order_plan));
    m.set("matcher.candidates_ms", ms(s.candidates));
    m.set("matcher.match_ms", ms(s.matching));
    m.set("measures.diversity_ms", ms(s.diversity));
    m.set("measures.coverage_ms", ms(s.coverage));
    m.set("algo.archive_ms", ms(s.archive));
    let c = &r.counts;
    m.set("matcher.calls", c.match_calls as f64);
    m.set("matcher.matches", c.matches as f64);
    m.set(
        "matcher.pruned_candidates",
        r.matcher.pruned_candidates as f64,
    );
    m.set("matcher.cand_memo_hits", r.matcher.cand_memo_hits as f64);
    m.set("matcher.order_replans", r.matcher.order_replans as f64);
    let lookups = c.distance_hits + c.distance_misses;
    m.set(
        "measures.distance_hit_rate",
        ratio(c.distance_hits, lookups),
    );
    m.set("measures.pairs_per_score", ratio(lookups, c.scores));
    m.set("algo.archive_accept_ratio", ratio(c.accepted, c.offers));
}

/// The generation algorithm's own counters; `space` is `|I(Q)|`.
pub fn set_gen_stats(m: &mut Metrics, s: &GenStats, space: u64) {
    m.set("algo.verified", s.verified as f64);
    m.set("algo.verify_ratio", ratio(s.verified, space));
    m.set("algo.pruned_infeasible", s.pruned_infeasible as f64);
    m.set("algo.pruned_sandwich", s.pruned_sandwich as f64);
    m.set("algo.cache_hits", s.cache_hits as f64);
    m.set("algo.threads_used", s.threads_used as f64);
}

/// Reports 0 for every per-layer metric the workload did not set: the
/// layer is bypassed, or its time is not visible from outside.
pub fn zero_bypassed(m: &mut Metrics) {
    for d in PER_LAYER {
        if m.get(d.name).is_none() {
            m.set(d.name, 0.0);
        }
    }
}

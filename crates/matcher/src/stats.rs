//! Thread-local hot-path counters for the matcher.
//!
//! Candidate computation is driven through free functions, so the counters
//! live in a thread-local cell rather than threading a `&mut` context
//! through every call site. Each worker thread accumulates its own
//! counters; callers snapshot-and-reset around a unit of work with
//! [`take_stats`] and merge the deltas into their own accounting (e.g.
//! `GenStats` in `fairsqg-algo`).
//!
//! Every counter is declared once, in the `matcher_stats!` list below:
//! the struct, [`MatcherStats::merge`], [`MatcherStats::delta_since`] and
//! the `(name, value)` view that the service's `matching` blocks and
//! Prometheus counters are built from all follow from it.

use std::cell::Cell;

/// Declares [`MatcherStats`] and its field-wise operations from one list
/// of documented `u64` counters.
macro_rules! matcher_stats {
    ($($(#[doc = $doc:literal])+ $field:ident,)+) => {
        /// Snapshot of the matcher's hot-path counters on the current thread.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MatcherStats {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl MatcherStats {
            const ZERO: MatcherStats = MatcherStats { $($field: 0,)+ };

            /// Field-wise sum, for merging per-thread deltas.
            pub fn merge(&mut self, other: MatcherStats) {
                $(self.$field += other.$field;)+
            }

            /// Field-wise difference from an earlier snapshot of the same
            /// thread's counters (counters are monotone, so saturation
            /// only guards against mixing snapshots across threads).
            pub fn delta_since(&self, baseline: MatcherStats) -> MatcherStats {
                MatcherStats {
                    $($field: self.$field.saturating_sub(baseline.$field),)+
                }
            }

            /// Every counter as `(field name, value)`, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)+].into_iter()
            }
        }
    };
}

matcher_stats! {
    /// Candidate sets served from the sorted `(label, attribute)` value
    /// index (binary-searched range slices).
    index_candidates,
    /// Candidate sets computed by the naive label-population scan — the
    /// reference path, plus hybrid fallbacks for non-selective literals.
    scan_candidates,
    /// Indexed computations that fell back to the scan because the most
    /// selective literal still covered most of the label population.
    scan_fallbacks,
    /// Candidate sets restricted to an `incVerify` pool (the parent's
    /// output match set) instead of the full label population.
    pool_restrictions,
    /// Postings shards skipped wholesale by partition metadata during
    /// indexed range evaluation (their `[min, max]` envelope lay entirely
    /// on one side of the literal's boundary).
    shard_skips,
    /// Cost-based matching orders planned from index cardinality
    /// estimates (once per template shape, amortized by plan caching).
    order_planned,
    /// Mid-enumeration suffix re-plans triggered by the adaptive
    /// fail-count threshold (QuickSI/RI-style reordering).
    order_replans,
    /// Sum of estimated candidate cardinalities over all planned orders
    /// (the cost model's inputs, for observing estimate magnitudes).
    est_candidates,
    /// Candidates removed from per-node candidate sets by the one-hop
    /// semi-join pruning pass before backtracking.
    pruned_candidates,
    /// Candidate sets served from the cross-call memo (same node label
    /// and bound literals seen before on this graph) instead of being
    /// recomputed from the index or a scan.
    cand_memo_hits,
}

thread_local! {
    static STATS: Cell<MatcherStats> = const { Cell::new(MatcherStats::ZERO) };
}

/// Adds `n` to one of the current thread's counters, e.g.
/// `count(|s| &mut s.shard_skips, skipped)`. Zero increments skip the
/// thread-local access.
#[inline]
pub(crate) fn count(field: impl FnOnce(&mut MatcherStats) -> &mut u64, n: u64) {
    if n > 0 {
        STATS.with(|c| {
            let mut s = c.get();
            *field(&mut s) += n;
            c.set(s);
        });
    }
}

/// Current thread's counters without resetting them.
pub fn matcher_stats() -> MatcherStats {
    STATS.with(Cell::get)
}

/// Snapshots and resets the current thread's counters. Call before and
/// after a unit of work to attribute counts to it.
pub fn take_stats() -> MatcherStats {
    STATS.with(Cell::take)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resets() {
        let _ = take_stats();
        count(|s| &mut s.index_candidates, 1);
        count(|s| &mut s.index_candidates, 1);
        count(|s| &mut s.pool_restrictions, 1);
        let s = matcher_stats();
        assert_eq!(s.index_candidates, 2);
        assert_eq!(s.pool_restrictions, 1);
        let taken = take_stats();
        assert_eq!(taken, s);
        assert_eq!(take_stats(), MatcherStats::default());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = MatcherStats {
            index_candidates: 1,
            scan_candidates: 2,
            scan_fallbacks: 3,
            pool_restrictions: 4,
            shard_skips: 5,
            order_planned: 6,
            order_replans: 7,
            est_candidates: 8,
            pruned_candidates: 9,
            cand_memo_hits: 10,
        };
        a.merge(a);
        assert_eq!(a.index_candidates, 2);
        assert_eq!(a.scan_candidates, 4);
        assert_eq!(a.scan_fallbacks, 6);
        assert_eq!(a.pool_restrictions, 8);
        assert_eq!(a.shard_skips, 10);
        assert_eq!(a.order_planned, 12);
        assert_eq!(a.order_replans, 14);
        assert_eq!(a.est_candidates, 16);
        assert_eq!(a.pruned_candidates, 18);
        assert_eq!(a.cand_memo_hits, 20);
    }

    #[test]
    fn ordering_counters_round_trip() {
        let _ = take_stats();
        count(|s| &mut s.order_planned, 1);
        count(|s| &mut s.order_replans, 1);
        count(|s| &mut s.est_candidates, 10);
        count(|s| &mut s.pruned_candidates, 3);
        count(|s| &mut s.pruned_candidates, 0); // zero increments are dropped
        let s = take_stats();
        assert_eq!(s.order_planned, 1);
        assert_eq!(s.order_replans, 1);
        assert_eq!(s.est_candidates, 10);
        assert_eq!(s.pruned_candidates, 3);
        let d = s.delta_since(MatcherStats::default());
        assert_eq!(d, s);
    }
}

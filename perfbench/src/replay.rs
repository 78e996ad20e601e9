//! The traced layer replay: the verify path of `EnumQGen` driven call by
//! call through the public layer APIs, with a span around each call.
//!
//! For every instance of the refinement lattice, in lattice order, the
//! replay does what the library's evaluator does — `materialize`, the
//! matcher restricted to the best verified parent's match set
//! (`incVerify`), `count_in_groups`, the diversity `score`, coverage, and
//! `EpsParetoArchive::update` — so its archive must equal `enum_qgen`'s
//! bit for bit before any span is reported. The one call the library path
//! does not make is the separate `candidates` computation on `u_o`, timed
//! to expose candidate cost on its own; it counts towards tracing overhead.

use fairsqg_algo::{ArchiveEntry, Configuration, EpsParetoArchive, EvalResult};
use fairsqg_matcher::{
    candidates, candidates_from_pool, matcher_stats, plan_matching_order,
    try_match_output_set_with, MatchOptions, MatchScratch, MatcherStats,
};
use fairsqg_measures::{coverage_score, is_feasible, DiversityMeasure, Objectives};
use fairsqg_query::{ConcreteQuery, InstanceLattice, Instantiation};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Busy time per layer call site, summed over one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub materialize: Duration,
    pub order_plan: Duration,
    pub candidates: Duration,
    pub matching: Duration,
    pub diversity: Duration,
    pub coverage: Duration,
    pub archive: Duration,
}

/// Work counted at the same call sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub instances: u64,
    pub match_calls: u64,
    pub matches: u64,
    pub scores: u64,
    pub offers: u64,
    pub accepted: u64,
    pub distance_hits: u64,
    pub distance_misses: u64,
}

pub struct Replay {
    pub entries: Vec<ArchiveEntry>,
    pub spans: Spans,
    pub counts: Counts,
    /// The matcher's own counters over the replay.
    pub matcher: MatcherStats,
    pub wall: Duration,
}

fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Replays `cfg`'s enumeration. Requires the default (indexed, optimized)
/// execution path; fails if a verification trips the configuration's
/// budget.
pub fn replay(cfg: &Configuration<'_>) -> Result<Replay, String> {
    assert!(
        !cfg.reference_path && cfg.matcher_optimized(),
        "the replay mirrors the default execution path"
    );
    let start = Instant::now();
    let before = matcher_stats();
    let mut spans = Spans::default();
    let mut counts = Counts::default();

    let mut measure = DiversityMeasure::new(cfg.graph, cfg.template.output_label(), cfg.diversity);
    if let Some(shared) = cfg.shared_diversity {
        measure.attach_shared_cache(Arc::clone(shared));
    }
    let plan = match cfg.match_plan {
        Some(plan) => Arc::clone(plan),
        None => timed(&mut spans.order_plan, || {
            let root = Instantiation::root(cfg.domains);
            let q = ConcreteQuery::materialize(cfg.template, cfg.domains, &root);
            Arc::new(plan_matching_order(cfg.graph, &q))
        }),
    };
    let output = cfg.template.output();
    let mut scratch = MatchScratch::default();
    let mut verified: HashMap<Instantiation, Rc<EvalResult>> = HashMap::new();
    let mut archive = EpsParetoArchive::new(cfg.eps);

    for inst in InstanceLattice::new(cfg.domains).enumerate() {
        counts.instances += 1;
        // incVerify: the verified direct parent with the smallest match
        // set bounds this instance's matches (first such parent wins).
        let parent = (0..inst.var_count())
            .filter_map(|x| inst.relax_step(x))
            .filter_map(|p| verified.get(&p))
            .min_by_key(|r| r.matches.len())
            .map(Rc::clone);
        let pool = parent
            .as_ref()
            .map(|r| r.matches.as_slice())
            .or(cfg.output_restriction);

        let q = timed(&mut spans.materialize, || {
            ConcreteQuery::materialize(cfg.template, cfg.domains, &inst)
        });
        timed(&mut spans.candidates, || match pool {
            Some(pool) => candidates_from_pool(cfg.graph, &q, output, pool).len(),
            None => candidates(cfg.graph, &q, output).len(),
        });
        let opts = MatchOptions {
            restrict_output: pool,
            use_index: true,
            optimize: true,
            plan: Some(&plan),
            stop: None,
        };
        let matches = timed(&mut spans.matching, || {
            try_match_output_set_with(cfg.graph, &q, opts, &cfg.budget, &mut scratch)
        })
        .map_err(|tripped| format!("replay verification tripped its budget: {tripped:?}"))?;
        counts.match_calls += 1;
        counts.matches += matches.len() as u64;

        let group_counts = timed(&mut spans.coverage, || cfg.groups.count_in_groups(&matches));
        let delta = timed(&mut spans.diversity, || measure.score(&matches));
        counts.scores += 1;
        let (fcov, feasible) = timed(&mut spans.coverage, || {
            (
                coverage_score(&group_counts, cfg.spec),
                is_feasible(&group_counts, cfg.spec),
            )
        });
        let result = Rc::new(EvalResult {
            matches,
            counts: group_counts,
            objectives: Objectives::new(delta, fcov),
            feasible,
        });
        if feasible {
            let outcome = timed(&mut spans.archive, || archive.update(&inst, &result));
            counts.offers += 1;
            counts.accepted += u64::from(outcome.accepted());
        }
        verified.insert(inst, result);
    }

    let cache = measure.cache_stats();
    counts.distance_hits = cache.distance_hits;
    counts.distance_misses = cache.distance_misses;
    Ok(Replay {
        entries: archive.entries().to_vec(),
        spans,
        counts,
        matcher: matcher_stats().delta_since(before),
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::same_entries;
    use fairsqg_algo::enum_qgen;
    use fairsqg_datagen::{workload, DatasetKind, WorkloadParams};
    use fairsqg_measures::DiversityConfig;

    /// The replay is only trusted where it reproduces `enum_qgen`.
    #[test]
    fn replay_reproduces_enum_qgen_on_every_preset() {
        for kind in [DatasetKind::Lki, DatasetKind::Dbp, DatasetKind::Cite] {
            let w = workload(kind, 400, &WorkloadParams::default());
            let cfg = Configuration::new(
                &w.graph,
                &w.template,
                &w.domains,
                &w.groups,
                &w.spec,
                0.02,
                DiversityConfig::default(),
            );
            let r = replay(&cfg).unwrap();
            same_entries(&r.entries, &enum_qgen(cfg, false).entries, kind.name()).unwrap();
            assert_eq!(r.counts.instances, w.instance_space_size());
            assert_eq!(r.counts.match_calls, r.counts.instances);
            assert!(r.counts.accepted <= r.counts.offers);
        }
    }
}

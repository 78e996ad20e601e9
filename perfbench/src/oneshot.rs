//! `oneshot-lki`: the paper's feasibility path, scaled down. An analyst
//! builds the LKI-like graph in memory and runs BiQGen once, on one
//! thread, with ε = 0.01.
//!
//! Set-up is the in-memory generator plus planning; it runs [`SETUPS`]
//! times per run so `setup_s` is a median. Every timed generation is cold
//! (a fresh evaluator, no cross-run cache) and must reproduce the
//! reference-path archive bit for bit.

use crate::fixture::Fixture;
use crate::gate::{same_archive, same_entries};
use crate::machine::usage;
use crate::replay::replay;
use crate::report::{Metrics, RunOutput};
use crate::stats::{Samples, Tally};
use crate::Options;
use fairsqg_algo::{biqgen, enum_qgen, BiQGenOptions, Configuration, Generated};
use fairsqg_datagen::{gender_groups, social_graph, SocialConfig, WorkloadParams};
use fairsqg_graph::{CoverageSpec, Graph, GroupSet};
use fairsqg_matcher::{match_output_set, MatchOptions};
use fairsqg_measures::{DiversityConfig, Relevance};
use fairsqg_query::{
    parse_template, ConcreteQuery, DomainConfig, Instantiation, QueryTemplate, RefinementDomains,
};
use fairsqg_wire::Value;
use std::time::{Duration, Instant};

/// Output-label (director) population. At 2·10⁴ the distinct distances
/// one run memoizes (1.56–1.91 M over graph seeds) straddle the hash
/// table's 1.835 M doubling threshold, so peak RSS jumps between 104 and
/// 172 MB on unrelated changes; here a run memoizes 1.61–1.71 M over the
/// seeded λ range.
const DIRECTORS: usize = 15_000;
const SETUPS: usize = 3;
const EPS: f64 = 0.01;
/// Equal-opportunity coverage as a fraction of the root's smallest group
/// count. At the usual 0.5, BiQGen's verified count is bimodal across
/// graph seeds (~88 or ~137 of 162 instances); at 0.7 it stays at
/// 128–139.
const COVER_FRACTION: f64 = 0.7;
/// The template `datagen::workload(Lki, 2·10⁴, …)` derives at the
/// generator's default seed. Pinned: at other scales the generator
/// derives other templates, and BiQGen's work on some of them swings by
/// 2× with λ.
const TEMPLATE: &str = "node u0 : director\nnode u1 : user\nnode u2 : user\n\
                        node u3 : user\noptional u1 -recommend-> u0\n\
                        edge u2 -recommend-> u0\nedge u3 -recommend-> u0\n\
                        where u1.endorsements <= ?\nwhere u2.yearsOfExp <= ?\n\
                        output u0\n";

/// The built and planned workload.
struct Instance {
    graph: Graph,
    template: QueryTemplate,
    domains: RefinementDomains,
    groups: GroupSet,
    spec: CoverageSpec,
}

impl Instance {
    /// The timed set-up: generate the graph at the generator's default
    /// seed, induce the gender groups, plan the template and calibrate
    /// coverage on the root instance.
    fn build() -> Result<Instance, String> {
        let graph = social_graph(SocialConfig {
            directors: DIRECTORS,
            majority_share: 0.65,
            seed: WorkloadParams::default().seed,
        });
        let groups = gender_groups(&graph);
        let template = parse_template(graph.schema(), TEMPLATE).map_err(|e| e.to_string())?;
        let domains = RefinementDomains::build(&template, &graph, DomainConfig::default());
        let root = ConcreteQuery::materialize(&template, &domains, &Instantiation::root(&domains));
        let matches = match_output_set(&graph, &root, MatchOptions::default());
        let smallest = groups
            .count_in_groups(&matches)
            .into_iter()
            .min()
            .unwrap_or(0);
        let cover = (f64::from(smallest) * COVER_FRACTION).round().max(1.0) as u32;
        let spec = CoverageSpec::equal_opportunity(groups.len(), cover);
        Ok(Instance {
            graph,
            template,
            domains,
            groups,
            spec,
        })
    }

    /// The experiment harness's diversity settings (pair cap 256, seeded
    /// pair sampling) at the run's λ.
    fn configuration(&self, lambda: f64) -> Configuration<'_> {
        let diversity = DiversityConfig {
            lambda,
            relevance: Relevance::InDegreeNormalized,
            pair_cap: 256,
            seed: 0xD1F,
            ..DiversityConfig::default()
        };
        Configuration::new(
            &self.graph,
            &self.template,
            &self.domains,
            &self.groups,
            &self.spec,
            EPS,
            diversity,
        )
    }
}

pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let lambda = crate::seeded_lambda(opts.seed);
    let mut builds = Samples::default();
    let mut w = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        w = Some(Instance::build()?);
        builds.push(t.elapsed().as_secs_f64());
    }
    let w = w.expect("at least one set-up");
    let mut fixture = Fixture::of_graph("lki", WorkloadParams::default().seed, &w.graph).to_value();
    if let Value::Object(m) = &mut fixture {
        m.insert("cover".into(), Value::from(w.spec.constraints()[0]));
        m.insert(
            "instances".into(),
            Value::from(w.domains.instance_space_size()),
        );
        m.insert("lambda".into(), Value::from(lambda));
    }
    let cfg = w.configuration(lambda);
    // Gate: the reference path (no index, no caches) fixes the archive
    // before anything is timed.
    let reference = biqgen(cfg.with_reference_path(), BiQGenOptions::default());
    if opts.trace {
        return traced(cfg, &reference, &builds, fixture);
    }

    let mut tally = Tally::default();
    let (mut wall, mut cpu) = (Samples::default(), Samples::default());
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    while Instant::now() < deadline {
        let (c0, t0) = (usage().cpu, Instant::now());
        let out = biqgen(cfg, BiQGenOptions::default());
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push((usage().cpu - c0).as_secs_f64());
        same_archive(&out, &reference, "BiQGen vs reference path")?;
        tally.record(crate::generation_outcome(&out));
    }
    let mut m = Metrics::default();
    m.set("setup_s", builds.median());
    crate::set_generation_metrics(&mut m, &wall, &cpu);
    let p99 = wall.percentile(99.0);
    Ok(RunOutput {
        metrics: m,
        tally,
        provenance: Value::object([
            ("fixtures", Value::Array(vec![fixture])),
            ("generations", Value::from(wall.len())),
            ("setups", Value::from(builds.len())),
            ("job_p99_beyond", Value::from(p99.beyond)),
        ]),
    })
}

/// The traced run: BiQGen's own counters, then the layer replay, gated
/// against `enum_qgen`, whose wall time is the untraced counterpart.
fn traced(
    cfg: Configuration<'_>,
    reference: &Generated,
    builds: &Samples,
    fixture: Value,
) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let (c0, t0) = (usage().cpu, Instant::now());
    let out = biqgen(cfg, BiQGenOptions::default());
    let (wall, cpu) = (t0.elapsed(), usage().cpu - c0);
    same_archive(&out, reference, "BiQGen vs reference path")?;
    tally.record(crate::generation_outcome(&out));

    let t0 = Instant::now();
    let untraced = enum_qgen(cfg, false);
    let untraced_wall = t0.elapsed();
    let r = replay(&cfg)?;
    same_entries(&r.entries, &untraced.entries, "layer replay vs enum_qgen")?;

    let mut m = Metrics::default();
    crate::layers::set_replay(&mut m, &r);
    crate::layers::set_gen_stats(&mut m, &out.stats, cfg.domains.instance_space_size());
    m.set("datagen.build_s", builds.median());
    m.set(
        "store.heap_mb",
        cfg.graph.storage().heap_bytes as f64 / (1024.0 * 1024.0),
    );
    m.set("algo.cpu_util", cpu.as_secs_f64() / wall.as_secs_f64());
    m.set(
        "trace.overhead_s",
        r.wall.as_secs_f64() - untraced_wall.as_secs_f64(),
    );
    m.set("failed_ratio", tally.failed_ratio());
    crate::layers::zero_bypassed(&mut m);
    Ok(RunOutput {
        metrics: m,
        tally,
        provenance: Value::object([("fixtures", Value::Array(vec![fixture]))]),
    })
}

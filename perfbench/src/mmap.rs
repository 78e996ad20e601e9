//! `mmap-parenum`: the CLI `generate` path on a memory-mapped graph.
//! `store::open_path` → `plan_spec` → `run_plan` (parallel enumeration on
//! two threads) → `generated_to_value` + `wire::to_string`, with the
//! paper's Fig. 1 talent template.
//!
//! The `.fsg` fixture is streamed and converted before anything is timed.
//! Set-up is the container open (validation included); the graph is
//! re-opened before every generation, so each generation starts cold, as
//! a CLI invocation does, and every open is a `setup_s` sample. Every
//! generation must reproduce sequential `enum_qgen` on the same mapped
//! graph bit for bit.

use crate::fixture::{stream_fsg, Fixture, WorkDir};
use crate::gate::{same_archive, same_entries};
use crate::machine::{check_parallelism, usage};
use crate::replay::replay;
use crate::report::{Metrics, RunOutput};
use crate::stats::{Samples, Tally};
use crate::Options;
use fairsqg_algo::{CancelToken, Configuration, Generated, MatchBudget};
use fairsqg_datagen::DatasetKind;
use fairsqg_graph::Graph;
use fairsqg_matcher::{match_output_set, MatchOptions};
use fairsqg_query::{ConcreteQuery, Instantiation};
use fairsqg_service::{
    diversity_for_spec, generated_to_value, plan_spec, run_plan, AlgoKind, JobSpec,
    DEFAULT_PRIORITY,
};
use fairsqg_store::{open_path, LoadedGraph};
use fairsqg_wire::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Director population of the fixture (~176k graph elements, ~6 MB
/// container). Generation cost is dominated by sampled diversity and is
/// nearly flat in scale (about 5 s from 5·10³ to 2·10⁴ directors and 9 s
/// at 10⁵ on two threads), so the scale is set by how many generations
/// fit a run.
const DIRECTORS: usize = 10_000;
/// The fixture is a fixed dataset; the workload seed drives λ.
const GRAPH_SEED: u64 = 1;
/// Per-group coverage as a fraction of the root instance's smallest
/// group count, calibrated on the fixture before timing. An absolute
/// cover leaves a one-entry archive on many seeds (at `--cover 200`
/// every instance has fcov 0); at 0.3 the archive holds 9–13 entries.
const COVER_FRACTION: f64 = 0.3;
const THREADS: usize = 2;
/// Container opens before the first generation.
const OPENS: usize = 5;

/// The paper's Fig. 1 talent-search template: two range variables and
/// one optional edge.
pub const TALENT: &str = "node u0 : director\nnode u1 : user\nnode u2 : org\n\
                          node u3 : user\nedge u1 -recommend-> u0\n\
                          edge u1 -worksAt-> u2\noptional u3 -recommend-> u0\n\
                          where u1.yearsOfExp >= ?\nwhere u2.employees >= ?\n\
                          output u0\n";

fn spec(cover: u32, lambda: f64, algo: AlgoKind, threads: usize) -> JobSpec {
    JobSpec {
        graph: "lki".into(),
        template: TALENT.into(),
        group_attr: "gender".into(),
        cover,
        algo,
        threads,
        eps: 0.01,
        lambda,
        deadline_ms: None,
        budget: MatchBudget::UNLIMITED,
        request_key: None,
        priority: DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

/// The cover that puts [`COVER_FRACTION`] of the root's smallest group
/// under constraint.
fn calibrated_cover(graph: &Graph) -> Result<u32, String> {
    let plan = plan_spec(graph, &spec(1, 0.5, AlgoKind::EnumQGen, 1))?;
    let root = ConcreteQuery::materialize(
        &plan.template,
        &plan.domains,
        &Instantiation::root(&plan.domains),
    );
    let matches = match_output_set(graph, &root, MatchOptions::default());
    let smallest = plan
        .groups
        .count_in_groups(&matches)
        .into_iter()
        .min()
        .unwrap_or(0);
    Ok((f64::from(smallest) * COVER_FRACTION).round().max(1.0) as u32)
}

fn open(path: &Path, opens: &mut Samples) -> Result<LoadedGraph, String> {
    let t = Instant::now();
    let loaded = open_path(path).map_err(|e| format!("{}: {e}", path.display()))?;
    opens.push(t.elapsed().as_secs_f64());
    if !loaded.mapped {
        return Err("the container was read, not memory-mapped".into());
    }
    Ok(loaded)
}

/// One CLI generation: plan, generate, render. Returns the archive and
/// the rendered text.
fn generate(loaded: &LoadedGraph, spec: &JobSpec) -> Result<(Generated, String), String> {
    let plan = plan_spec(&loaded.graph, spec)?;
    let out = run_plan(&plan, spec, &CancelToken::new());
    let text = fairsqg_wire::to_string(&generated_to_value(&plan, &out));
    Ok((out, text))
}

pub fn run(opts: &Options) -> Result<RunOutput, String> {
    check_parallelism("parenum threads", THREADS)?;
    let work = WorkDir::create()?;
    let (path, emit) = stream_fsg(DatasetKind::Lki, DIRECTORS, GRAPH_SEED, work.path())?;
    let lambda = crate::seeded_lambda(opts.seed);
    let mut opens = Samples::default();
    let mut loaded = open(&path, &mut opens)?;
    for _ in 1..OPENS {
        loaded = open(&path, &mut opens)?;
    }
    let mut fixture = Fixture::of_file("lki", GRAPH_SEED, &loaded.graph, &path)?.to_value();
    let cover = calibrated_cover(&loaded.graph)?;

    // Gate: sequential EnumQGen through the same library path fixes the
    // archive before anything is timed.
    let t0 = Instant::now();
    let (reference, _) = generate(&loaded, &spec(cover, lambda, AlgoKind::EnumQGen, 1))?;
    let reference_wall = t0.elapsed();
    if let Value::Object(m) = &mut fixture {
        m.insert("cover".into(), Value::from(cover));
        m.insert(
            "archive_entries".into(),
            Value::from(reference.entries.len()),
        );
        m.insert("lambda".into(), Value::from(lambda));
    }
    let parenum = spec(cover, lambda, AlgoKind::ParEnum, THREADS);
    if opts.trace {
        return traced(
            &loaded,
            &parenum,
            &reference,
            reference_wall,
            emit,
            &opens,
            fixture,
        );
    }

    let mut tally = Tally::default();
    let (mut wall, mut cpu) = (Samples::default(), Samples::default());
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    while Instant::now() < deadline {
        drop(loaded);
        loaded = open(&path, &mut opens)?;
        let (c0, t0) = (usage().cpu, Instant::now());
        let (out, _) = generate(&loaded, &parenum)?;
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push((usage().cpu - c0).as_secs_f64());
        same_archive(&out, &reference, "parenum vs sequential enum_qgen")?;
        tally.record(crate::generation_outcome(&out));
    }
    let mut m = Metrics::default();
    m.set("setup_s", opens.median());
    crate::set_generation_metrics(&mut m, &wall, &cpu);
    let p99 = wall.percentile(99.0);
    Ok(RunOutput {
        metrics: m,
        tally,
        provenance: Value::object([
            ("fixtures", Value::Array(vec![fixture])),
            ("generations", Value::from(wall.len())),
            ("setups", Value::from(opens.len())),
            ("job_p99_beyond", Value::from(p99.beyond)),
        ]),
    })
}

fn traced(
    loaded: &LoadedGraph,
    parenum: &JobSpec,
    reference: &Generated,
    reference_wall: Duration,
    emit: Duration,
    opens: &Samples,
    fixture: Value,
) -> Result<RunOutput, String> {
    let graph = &loaded.graph;
    let mut m = Metrics::default();
    let mut plans = Samples::default();
    for _ in 0..OPENS {
        let t = Instant::now();
        plan_spec(graph, parenum)?;
        plans.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let plan = plan_spec(graph, parenum)?;

    let (c0, t0) = (usage().cpu, Instant::now());
    let out = run_plan(&plan, parenum, &CancelToken::new());
    let gen_wall = t0.elapsed();
    let gen_cpu = usage().cpu - c0;
    same_archive(&out, reference, "parenum vs sequential enum_qgen")?;
    let t0 = Instant::now();
    let text = fairsqg_wire::to_string(&generated_to_value(&plan, &out));
    let render_ms = t0.elapsed().as_secs_f64() * 1e3;

    let cfg = Configuration::new(
        graph,
        &plan.template,
        &plan.domains,
        &plan.groups,
        &plan.spec,
        parenum.eps,
        diversity_for_spec(parenum),
    );
    let r = replay(&cfg)?;
    same_entries(&r.entries, &reference.entries, "layer replay vs enum_qgen")?;

    let mut tally = Tally::default();
    tally.record(crate::generation_outcome(&out));
    crate::layers::set_gen_stats(&mut m, &out.stats, plan.domains.instance_space_size());
    m.set(
        "trace.overhead_s",
        r.wall.as_secs_f64() - reference_wall.as_secs_f64(),
    );
    crate::layers::set_replay(&mut m, &r);
    let storage = graph.storage();
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    m.set("datagen.build_s", emit.as_secs_f64());
    m.set("store.open_ms", opens.median() * 1e3);
    m.set("store.mapped_mb", mib(storage.mapped_bytes));
    m.set("store.heap_mb", mib(storage.heap_bytes));
    m.set("query.plan_ms", plans.median());
    m.set(
        "algo.cpu_util",
        gen_cpu.as_secs_f64() / gen_wall.as_secs_f64(),
    );
    m.set("wire.render_ms", render_ms);
    m.set("wire.result_bytes", text.len() as f64);
    m.set("failed_ratio", tally.failed_ratio());
    crate::layers::zero_bypassed(&mut m);
    Ok(RunOutput {
        metrics: m,
        tally,
        provenance: Value::object([("fixtures", Value::Array(vec![fixture]))]),
    })
}

//! `served-mix`: generation jobs served by an in-process `MuxServer`.
//!
//! The engine runs two workers with warm state and coalescing on and the
//! result cache off, so every job computes. It serves two streamed `.fsg`
//! graphs (LKI and DBP) whose output populations fit the dense distance
//! cache, so diversity is mostly warm hits and matching, queueing and
//! the wire carry the job. Load is a closed loop from this process over
//! two `MuxClient` connections, one job outstanding on each. The jobs
//! follow a fixed seeded sequence over {BiQGen, RfQGen, EnumQGen} ×
//! (ε, λ, cover) on both graphs; about a quarter are subscribed
//! (streamed). Every 100th operation reloads one graph (mmap swap plus
//! epoch bump, which drops that graph's warm state).
//!
//! Every job's archive — the `result` op's, or the one a subscription
//! reassembles from its deltas — must equal a library `run_plan` of the
//! same spec on the same graph, or the run aborts.

use crate::fixture::{stream_fsg, Fixture, WorkDir};
use crate::gate::same_rendered;
use crate::machine::{check_parallelism, peak_rss_mb, usage};
use crate::report::{Metrics, RunOutput};
use crate::stats::{Outcome, Samples, Tally};
use crate::tap::Tap;
use crate::{splitmix, Options};
use fairsqg_algo::{CancelToken, MatchBudget};
use fairsqg_datagen::DatasetKind;
use fairsqg_service::{
    generated_to_value, plan_spec, run_plan, spawn_mux, AlgoKind, ClientError, Engine,
    EngineConfig, GraphRegistry, JobSpec, MuxClient, MuxStopHandle, DEFAULT_PRIORITY,
};
use fairsqg_wire::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Load-generator connections, each driven by its own thread.
const CONNECTIONS: usize = 2;
/// Output populations of the two graphs, at most the dense distance
/// cache's 1024 nodes.
const LKI_DIRECTORS: usize = 300;
const DBP_MOVIES: usize = 300;
/// Server set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
const RELOAD_EVERY: u64 = 100;
/// Jobs a run completes at least, so p99 has ten samples beyond it.
const MIN_JOBS: u64 = 1000;
/// Hard stop for a run that cannot reach [`MIN_JOBS`].
const MAX_MEASURE: Duration = Duration::from_secs(120);
const SETTLE_TIMEOUT: Duration = Duration::from_secs(60);
/// The served graphs are the deployment's fixed datasets; the workload
/// seed drives the traffic.
const GRAPH_SEED: u64 = 1;

const LKI_TEMPLATE: &str = crate::mmap::TALENT;
const DBP_TEMPLATE: &str = "node u0 : movie\nnode u1 : director\nnode u2 : actor\n\
                            node u3 : actor\nedge u1 -directed-> u0\n\
                            edge u2 -actedIn-> u0\noptional u3 -actedIn-> u0\n\
                            where u0.rating >= ?\nwhere u2.age <= ?\noutput u0\n";

/// (ε, λ, cover) variants of each (graph, algorithm) pair.
const PARAMS: [(f64, f64, u32); 3] = [(0.05, 0.5, 2), (0.1, 0.3, 4), (0.02, 0.7, 3)];
const ALGOS: [AlgoKind; 3] = [AlgoKind::BiQGen, AlgoKind::RfQGen, AlgoKind::EnumQGen];

/// One served graph.
struct Served {
    name: &'static str,
    path: PathBuf,
    fixture: Value,
}

/// The distinct job specs of the mix, in a fixed order.
fn job_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (graph, template, group_attr) in [
        ("lki", LKI_TEMPLATE, "gender"),
        ("dbp", DBP_TEMPLATE, "genre"),
    ] {
        for algo in ALGOS {
            for (eps, lambda, cover) in PARAMS {
                specs.push(JobSpec {
                    graph: graph.into(),
                    template: template.into(),
                    group_attr: group_attr.into(),
                    cover,
                    algo,
                    threads: 1,
                    eps,
                    lambda,
                    deadline_ms: None,
                    budget: MatchBudget::UNLIMITED,
                    request_key: None,
                    priority: DEFAULT_PRIORITY,
                    client: None,
                    subscribe: false,
                });
            }
        }
    }
    specs
}

/// One operation of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Job { spec: usize, subscribe: bool },
    Reload { graph: usize },
}

/// The `i`-th operation of the sequence for `seed`.
fn op(seed: u64, i: u64, specs: usize, graphs: usize) -> Op {
    if i % RELOAD_EVERY == RELOAD_EVERY - 1 {
        return Op::Reload {
            graph: (i / RELOAD_EVERY) as usize % graphs,
        };
    }
    let r = splitmix(seed ^ splitmix(i));
    Op::Job {
        spec: (r % specs as u64) as usize,
        subscribe: (r >> 32) & 3 == 0,
    }
}

/// What the library computes for each spec: the gate's reference.
fn expected_results(
    graphs: &[Served],
    specs: &[JobSpec],
    plan_ms: &mut Samples,
) -> Result<Vec<Value>, String> {
    let mut loaded = Vec::new();
    for g in graphs {
        let l = fairsqg_store::open_path(&g.path).map_err(|e| format!("{}: {e}", g.name))?;
        loaded.push((g.name, l));
    }
    specs
        .iter()
        .map(|spec| {
            let (_, l) = loaded
                .iter()
                .find(|(name, _)| *name == spec.graph)
                .expect("every spec names a served graph");
            let t = Instant::now();
            let plan = plan_spec(&l.graph, spec)?;
            plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Ok(generated_to_value(
                &plan,
                &run_plan(&plan, spec, &CancelToken::new()),
            ))
        })
        .collect()
}

/// A running server plus its connected load-generator clients.
struct Service {
    engine: Arc<Engine>,
    stop: MuxStopHandle,
    server: JoinHandle<std::io::Result<()>>,
    tap: Tap,
    clients: Vec<MuxClient>,
}

impl Service {
    fn shutdown(self) -> Result<(), String> {
        drop(self.clients);
        self.tap.join();
        self.stop.stop();
        self.server
            .join()
            .map_err(|_| "mux server thread panicked".to_string())?
            .map_err(|e| format!("mux server: {e}"))?;
        self.engine.shutdown();
        Ok(())
    }
}

/// Client-side observations of one operation.
#[derive(Default)]
struct Observed {
    tally: Tally,
    latency_ms: Samples,
    first_delta_ms: Samples,
    reload_ms: Samples,
    result_bytes: Samples,
    jobs: u64,
    subscribed: u64,
}

impl Observed {
    fn merge(&mut self, o: Observed) {
        self.tally.merge(o.tally);
        self.latency_ms.extend(&o.latency_ms);
        self.first_delta_ms.extend(&o.first_delta_ms);
        self.reload_ms.extend(&o.reload_ms);
        self.result_bytes.extend(&o.result_bytes);
        self.jobs += o.jobs;
        self.subscribed += o.subscribed;
    }
}

/// Everything a load-generator thread needs.
struct Ctx<'a> {
    seed: u64,
    specs: &'a [JobSpec],
    expected: &'a [Value],
    graphs: &'a [Served],
    tap: &'a Tap,
}

fn request(client: &MuxClient, pairs: Vec<(&'static str, Value)>) -> Result<Value, ClientError> {
    client.request(Value::object(pairs))
}

/// (Re)loads `g` over the wire: a `load` op, as an operator issues it.
fn load(client: &MuxClient, g: &Served) -> Result<Value, ClientError> {
    request(
        client,
        vec![
            ("op", Value::from("load")),
            ("name", Value::from(g.name)),
            ("path", Value::from(g.path.to_string_lossy().as_ref())),
        ],
    )
}

/// Runs one operation on `client`, checking any result it returns.
fn run_op(ctx: &Ctx<'_>, client: &MuxClient, op: Op, obs: &mut Observed) -> Result<(), String> {
    match op {
        Op::Reload { graph } => {
            let t = Instant::now();
            let reply = load(client, &ctx.graphs[graph]);
            obs.reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            obs.tally.record(match reply {
                Ok(_) => Outcome::Done,
                Err(_) => Outcome::Failed,
            });
        }
        Op::Job { spec, subscribe } => {
            let expected = &ctx.expected[spec];
            let spec = &ctx.specs[spec];
            let what = || format!("{} {} job", spec.graph, spec.algo.name());
            let submitted = Instant::now();
            let (outcome, result) = if subscribe {
                obs.subscribed += 1;
                match client.submit_streaming(spec) {
                    Err(e) => (refused_or_failed(&e), None),
                    Ok(sub) => {
                        let id = sub.id;
                        let s = sub
                            .wait(SETTLE_TIMEOUT)
                            .map_err(|e| format!("{}: {e}", what()))?;
                        if let Some(at) = ctx.tap.first_delta(id) {
                            obs.first_delta_ms
                                .push((at - submitted).as_secs_f64() * 1e3);
                        }
                        let outcome = match (s.state.as_str(), s.truncated, s.lossy) {
                            ("done", false, false) => Outcome::Done,
                            ("done", true, _) => Outcome::Truncated,
                            ("done", false, true) | ("failed", ..) => Outcome::Failed,
                            _ => Outcome::Cancelled,
                        };
                        (outcome, s.result)
                    }
                }
            } else {
                match client.submit(spec) {
                    Err(e) => (refused_or_failed(&e), None),
                    Ok(id) => poll(client, id).map_err(|e| format!("{}: {e}", what()))?,
                }
            };
            let latency = submitted.elapsed();
            obs.jobs += 1;
            obs.tally.record(outcome);
            if outcome == Outcome::Done {
                let result = result.ok_or_else(|| format!("{}: done without a result", what()))?;
                same_rendered(&result, expected, &what())?;
                obs.latency_ms.push(latency.as_secs_f64() * 1e3);
                obs.result_bytes
                    .push(fairsqg_wire::to_string(&result).len() as f64);
            }
        }
    }
    Ok(())
}

fn refused_or_failed(e: &ClientError) -> Outcome {
    match e {
        ClientError::Server { .. } => Outcome::Refused,
        _ => Outcome::Failed,
    }
}

/// Waits for an unsubscribed job by polling `status`, then fetches its
/// result. The poll interval grows with the wait (an eighth of it,
/// 50 µs to 2 ms), bounding the added latency to a small fraction.
fn poll(client: &MuxClient, id: u64) -> Result<(Outcome, Option<Value>), ClientError> {
    let start = Instant::now();
    loop {
        let status = request(
            client,
            vec![("op", Value::from("status")), ("id", Value::from(id))],
        )?;
        let state = status.get("state").and_then(Value::as_str).unwrap_or("");
        match state {
            "done" => {
                let result = client.result(id)?;
                let truncated = result.get("truncated").and_then(Value::as_bool) == Some(true);
                let outcome = if truncated {
                    Outcome::Truncated
                } else {
                    Outcome::Done
                };
                return Ok((outcome, Some(result)));
            }
            "failed" => return Ok((Outcome::Failed, None)),
            "cancelled" | "drained" => return Ok((Outcome::Cancelled, None)),
            _ => {}
        }
        let waited = start.elapsed();
        if waited > SETTLE_TIMEOUT {
            return Err(ClientError::Timeout);
        }
        std::thread::sleep((waited / 8).clamp(Duration::from_micros(50), Duration::from_millis(2)));
    }
}

/// Starts the server, loads both graphs over the wire and runs one
/// warm-up pass of every spec (each checked against the library). This
/// is what `setup_s` times.
fn start(
    ctx_graphs: &[Served],
    specs: &[JobSpec],
    expected: &[Value],
    open_ms: &mut Samples,
) -> Result<Service, String> {
    let registry = Arc::new(GraphRegistry::new());
    let engine = Arc::new(Engine::start(
        registry,
        EngineConfig {
            workers: WORKERS,
            cache_entries: 0,
            warm_state: true,
            coalesce: true,
            ..EngineConfig::default()
        },
    ));
    let (addr, stop, server) =
        spawn_mux("127.0.0.1:0", Arc::clone(&engine)).map_err(|e| format!("mux bind: {e}"))?;
    let tap = Tap::start(addr, CONNECTIONS).map_err(|e| format!("tap bind: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| MuxClient::connect(&tap.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let service = Service {
        engine,
        stop,
        server,
        tap,
        clients,
    };
    for g in ctx_graphs {
        let t = Instant::now();
        load(&service.clients[0], g).map_err(|e| format!("load {}: {e}", g.name))?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ctx = Ctx {
        seed: 0,
        specs,
        expected,
        graphs: ctx_graphs,
        tap: &service.tap,
    };
    let mut warmup = Observed::default();
    for spec in 0..specs.len() {
        let op = Op::Job {
            spec,
            subscribe: spec % 2 == 1,
        };
        run_op(&ctx, &service.clients[spec % CONNECTIONS], op, &mut warmup)?;
    }
    if warmup.tally.failed_total() > 0 {
        return Err(format!("warm-up pass: {:?}", warmup.tally));
    }
    Ok(service)
}

/// Engine counters between two `stats` snapshots.
struct StatsDelta<'a> {
    before: &'a Value,
    after: &'a Value,
}

impl StatsDelta<'_> {
    fn count(&self, path: &[&str]) -> f64 {
        gauge(self.after, path) - gauge(self.before, path)
    }

    /// Mean latency of an engine stage over the window, in ms.
    fn stage_ms(&self, stage: &str) -> f64 {
        let total = |v: &Value| {
            let s = v.get("latency").and_then(|l| l.get(stage));
            let field = |k: &str| {
                s.and_then(|s| s.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            (field("count"), field("count") * field("mean_ms"))
        };
        let ((c0, t0), (c1, t1)) = (total(self.before), total(self.after));
        if c1 > c0 {
            (t1 - t0) / (c1 - c0)
        } else {
            0.0
        }
    }

    fn rate(&self, hits: &[&str], misses: &[&str]) -> f64 {
        let (h, m) = (self.count(hits), self.count(misses));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    }
}

pub fn run(opts: &Options) -> Result<RunOutput, String> {
    check_parallelism("load-generator connections", CONNECTIONS)?;
    check_parallelism("engine workers", WORKERS)?;
    let work = WorkDir::create()?;
    let mut graphs = Vec::new();
    for (name, kind, scale) in [
        ("lki", DatasetKind::Lki, LKI_DIRECTORS),
        ("dbp", DatasetKind::Dbp, DBP_MOVIES),
    ] {
        let (path, _) = stream_fsg(kind, scale, GRAPH_SEED, work.path())?;
        let loaded = fairsqg_store::open_path(&path).map_err(|e| format!("{name}: {e}"))?;
        let fixture = Fixture::of_file(name, GRAPH_SEED, &loaded.graph, &path)?.to_value();
        graphs.push(Served {
            name,
            path,
            fixture,
        });
    }
    let specs = job_specs();
    let mut plan_ms = Samples::default();
    let expected = expected_results(&graphs, &specs, &mut plan_ms)?;

    let mut setups = Samples::default();
    let mut open_ms = Samples::default();
    let mut service = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = start(&graphs, &specs, &expected, &mut open_ms)?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.shutdown()?;
        } else {
            service = Some(s);
        }
    }
    let service = service.expect("at least one set-up");

    let ctx = Ctx {
        seed: opts.seed,
        specs: &specs,
        expected: &expected,
        graphs: &graphs,
        tap: &service.tap,
    };
    let before = service.engine.stats_value();
    let cpu0 = usage().cpu;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(opts.seconds);
    let next = AtomicU64::new(0);
    let jobs_done = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let observed = Mutex::new(Observed::default());
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for client in &service.clients {
            let (ctx, next, jobs_done, abort, observed, first_error) =
                (&ctx, &next, &jobs_done, &abort, &observed, &first_error);
            scope.spawn(move || {
                let mut obs = Observed::default();
                while !abort.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    let enough = jobs_done.load(Ordering::SeqCst) >= MIN_JOBS;
                    if (now >= deadline && enough) || now >= started + MAX_MEASURE {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let op = op(ctx.seed, i, ctx.specs.len(), ctx.graphs.len());
                    let jobs_before = obs.jobs;
                    if let Err(e) = run_op(ctx, client, op, &mut obs) {
                        first_error
                            .lock()
                            .expect("error slot lock is never held across a panic")
                            .get_or_insert(e);
                        abort.store(true, Ordering::SeqCst);
                    }
                    jobs_done.fetch_add(obs.jobs - jobs_before, Ordering::SeqCst);
                }
                observed
                    .lock()
                    .expect("observation lock is never held across a panic")
                    .merge(obs);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let cpu = (usage().cpu - cpu0).as_secs_f64();
    let after = service.engine.stats_value();
    let obs = observed
        .into_inner()
        .expect("observation lock is never held across a panic");
    service.shutdown()?;
    if let Some(e) = first_error
        .into_inner()
        .expect("error slot lock is never held across a panic")
    {
        return Err(e);
    }
    let delta = StatsDelta {
        before: &before,
        after: &after,
    };
    let done = obs.tally.done.max(1) as f64;

    let mut m = Metrics::default();
    let p99 = obs.latency_ms.percentile(99.0);
    if opts.trace {
        let jobs = obs.jobs.max(1) as f64;
        let stages = ["queue_wait", "plan", "generate", "render"];
        let server_ms: f64 = stages.iter().map(|s| delta.stage_ms(s)).sum();
        m.set("store.open_ms", open_ms.median());
        m.set("store.reload_ms", obs.reload_ms.median());
        let mib = |b: f64| b / (1024.0 * 1024.0);
        m.set(
            "store.mapped_mb",
            mib(gauge(&after, &["registry", "mapped_bytes"])),
        );
        m.set(
            "store.heap_mb",
            mib(gauge(&after, &["registry", "heap_bytes"])),
        );
        m.set("query.plan_ms", plan_ms.median());
        m.set("service.queue_wait_ms", delta.stage_ms("queue_wait"));
        m.set("service.plan_ms", delta.stage_ms("plan"));
        m.set("service.generate_ms", delta.stage_ms("generate"));
        m.set("service.render_ms", delta.stage_ms("render"));
        m.set("service.rejected", delta.count(&["rejected"]));
        m.set(
            "service.coalesced",
            delta.count(&["coalescing", "attached"]),
        );
        m.set(
            "service.warm_diversity_hit_rate",
            delta.rate(
                &["warm_state", "diversity_hits"],
                &["warm_state", "diversity_misses"],
            ),
        );
        m.set(
            "service.warm_plan_hit_rate",
            delta.rate(&["warm_state", "plan_hits"], &["warm_state", "plan_misses"]),
        );
        m.set(
            "service.warm_evictions",
            delta.count(&["warm_state", "evictions"]),
        );
        m.set(
            "service.stream_deltas_per_job",
            delta.count(&["streaming", "deltas"]) / obs.subscribed.max(1) as f64,
        );
        m.set("wire.result_bytes", obs.result_bytes.mean());
        m.set("wire.render_ms", delta.stage_ms("render"));
        m.set("wire.transport_ms", obs.latency_ms.mean() - server_ms);
        m.set(
            "matcher.calls",
            delta.count(&["evaluator_cache", "verified"]) / jobs,
        );
        m.set(
            "matcher.pruned_candidates",
            delta.count(&["matching", "pruned_candidates"]) / jobs,
        );
        m.set(
            "matcher.cand_memo_hits",
            delta.count(&["matching", "cand_memo_hits"]) / jobs,
        );
        m.set(
            "matcher.order_replans",
            delta.count(&["matching", "order_replans"]) / jobs,
        );
        m.set(
            "algo.verified",
            delta.count(&["evaluator_cache", "verified"]) / jobs,
        );
        m.set(
            "algo.cache_hits",
            delta.count(&["evaluator_cache", "hits"]) / jobs,
        );
        m.set("algo.threads_used", 1.0);
        m.set("algo.cpu_util", cpu / wall);
        // The served spans are the client's timestamps and the engine's
        // always-on stage latencies: the traced run adds no work.
        m.set("trace.overhead_s", 0.0);
        m.set("failed_ratio", obs.tally.failed_ratio());
        crate::layers::zero_bypassed(&mut m);
    } else {
        m.set("setup_s", setups.median());
        m.set("run_s", obs.latency_ms.median() / 1e3);
        m.set("cpu_s", cpu / done);
        m.set("job_p50_ms", obs.latency_ms.percentile(50.0).value);
        m.set("job_p99_ms", p99.value);
        m.set("jobs_per_s", obs.tally.done as f64 / wall);
        m.set(
            "first_delta_p50_ms",
            obs.first_delta_ms.percentile(50.0).value,
        );
        m.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(RunOutput {
        metrics: m,
        tally: obs.tally,
        provenance: Value::object([
            (
                "fixtures",
                Value::Array(graphs.iter().map(|g| g.fixture.clone()).collect()),
            ),
            ("jobs", Value::from(obs.jobs)),
            ("subscribed_jobs", Value::from(obs.subscribed)),
            ("first_delta_samples", Value::from(obs.first_delta_ms.len())),
            ("reloads", Value::from(obs.reload_ms.len())),
            ("job_p99_beyond", Value::from(p99.beyond)),
            ("setups", Value::from(setups.len())),
            ("measured_s", Value::from(wall)),
        ]),
    })
}

/// A `stats` value at `path`, 0 when absent.
fn gauge(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seeded_and_reloads_every_hundredth_op() {
        let specs = job_specs();
        let seq = |seed| {
            (0..400)
                .map(|i| op(seed, i, specs.len(), 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2));
        let ops = seq(1);
        let reloads: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Op::Reload { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(reloads, [99, 199, 299, 399]);
        let subscribed = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Op::Job {
                        subscribe: true,
                        ..
                    }
                )
            })
            .count();
        assert!(
            (60..140).contains(&subscribed),
            "about a quarter: {subscribed}"
        );
        assert_eq!(specs.len(), 18);
    }
}

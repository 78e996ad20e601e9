//! Multiplexed-server throughput benchmark (PR 8): the readiness-driven
//! async core (`spawn_mux`, one event-loop thread, many in-flight jobs
//! per connection, push-settled subscriptions) against the
//! thread-per-connection blocking baseline (`spawn`, one OS thread per
//! connection, polling waits) — same engine configuration on both sides,
//! so the measured difference is attributable to the connection layer.
//!
//! Before any timing, an equivalence gate asserts that a streamed job's
//! archive — reassembled client-side from its delta frames — is
//! bit-identical (canonical JSON rendering) to what the `result` op
//! returns for the same job, including a deadline-truncated case. The
//! jobs/sec figures in `BENCH_PR8.json` are for provably identical
//! delivery.
//!
//! Both phases run the same closed population: N clients × J jobs each
//! (J per sweep row), every job client-unique in λ (coalescing and the result cache are off,
//! so nothing is deduplicated away and both sides execute every job).

use fairsqg_datagen::{social_graph, SocialConfig};
use fairsqg_service::{
    spawn, AlgoKind, Client, Engine, EngineConfig, GraphRegistry, JobSpec, MuxClient,
};
use fairsqg_wire::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's fixed query template (same one the PR-5 throughput
/// bench uses): one refinable range literal.
const TEMPLATE: &str = "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
                        where u1.yearsOfExp >= ?\noutput u0\n";

/// One benchmark preset.
#[derive(Debug, Clone)]
pub struct MplexOptions {
    /// Preset name, recorded in the report.
    pub preset: String,
    /// Director population of the generated social graph.
    pub directors: usize,
    /// Engine worker threads (same in both modes).
    pub workers: usize,
    /// Swept `(clients, jobs per client)` rows: one connection per
    /// client in both modes; the mux mode keeps every client's jobs in
    /// flight on its single connection.
    pub client_sweep: Vec<(usize, usize)>,
}

/// Resolves a preset by name (`smoke`, `full`).
pub fn preset(name: &str) -> Option<MplexOptions> {
    let (directors, workers, client_sweep) = match name {
        // CI smoke: completion + the streamed-vs-final equivalence gate.
        "smoke" => (40, 2, vec![(8, 2)]),
        // Few clients with ≥1024 jobs per row (a p99 from at least ten
        // samples above it), then the PR-8 acceptance rows: 64 and 256
        // clients × 8 jobs.
        "full" => (
            60,
            4,
            vec![(1, 1024), (4, 256), (16, 256), (64, 8), (256, 8)],
        ),
        _ => return None,
    };
    Some(MplexOptions {
        preset: name.to_string(),
        directors,
        workers,
        client_sweep,
    })
}

fn bench_graph(opts: &MplexOptions) -> fairsqg_graph::Graph {
    social_graph(SocialConfig {
        directors: opts.directors,
        majority_share: 0.6,
        seed: 0x8EED,
    })
}

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 4096,
        // Replay layers off: every submitted job actually runs, in both
        // modes, so the comparison measures the connection layer.
        cache_entries: 0,
        coalesce: false,
        ..EngineConfig::default()
    }
}

fn spec(lambda: f64) -> JobSpec {
    JobSpec {
        graph: "bench".into(),
        template: TEMPLATE.into(),
        group_attr: "gender".into(),
        cover: 4,
        algo: AlgoKind::BiQGen,
        threads: 1,
        eps: 0.05,
        lambda,
        deadline_ms: None,
        budget: fairsqg_algo::MatchBudget::UNLIMITED,
        request_key: None,
        priority: fairsqg_service::DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

/// Client `c`'s `j`-th λ: unique per (client, job), so no two jobs share
/// a fingerprint and neither mode can serve anything by replay.
fn lambda_for(c: usize, j: usize) -> f64 {
    0.30 + ((c * 977 + j) % 4096) as f64 * 0.0001
}

/// The streamed-vs-final equivalence gate: for each spec, the archive a
/// [`MuxClient`] assembles from delta frames must render to exactly the
/// same canonical JSON as the server-side `result` op for that job.
/// Returns how many specs were checked; panics on any mismatch.
fn assert_streamed_equals_final(opts: &MplexOptions) -> usize {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("bench", bench_graph(opts));
    let engine = Arc::new(Engine::start(registry, engine_config(opts.workers)));
    let (addr, stop, server) =
        fairsqg_service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).expect("bind mux");
    let client = MuxClient::connect(&addr.to_string()).expect("connect mux");

    // Two ordinary specs plus one deadline-truncated job: the stream of
    // a job cut off mid-front must still reassemble to exactly the
    // partial archive the final frame describes.
    let mut checked = 0usize;
    for (lambda, deadline_ms) in [(0.4, None), (0.75, None), (0.5, Some(0))] {
        let mut s = spec(lambda);
        s.deadline_ms = deadline_ms;
        let sub = client.submit_streaming(&s).expect("streaming submit");
        let streamed = sub.wait(Duration::from_secs(600)).expect("job settles");
        assert_eq!(streamed.state, "done", "gate job completes");
        assert!(
            deadline_ms.is_none() || streamed.truncated,
            "the zero-deadline job exercises the truncated path"
        );
        let reconstructed = streamed
            .result
            .expect("lossless stream reconstructs a result");
        let authoritative = client.result(streamed.id).expect("result op");
        assert_eq!(
            reconstructed.to_string(),
            authoritative.to_string(),
            "streamed archive differs from the result op at λ={lambda} deadline={deadline_ms:?}"
        );
        checked += 1;
    }
    drop(client);
    stop.stop();
    let _ = server.join();
    checked
}

struct Phase {
    jobs_per_sec: f64,
    wall_secs: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    deltas_streamed: u64,
    lossy_results: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn finish_phase(
    mut latencies_ms: Vec<f64>,
    wall_secs: f64,
    total_jobs: usize,
    deltas_streamed: u64,
    lossy_results: u64,
) -> Phase {
    latencies_ms.sort_by(f64::total_cmp);
    Phase {
        jobs_per_sec: if wall_secs > 0.0 {
            total_jobs as f64 / wall_secs
        } else {
            0.0
        },
        wall_secs,
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
        deltas_streamed,
        lossy_results,
    }
}

/// Baseline phase: thread-per-connection server, N blocking clients,
/// batched submits then polling waits (exactly the PR-5 bench's client
/// discipline).
fn run_baseline(opts: &MplexOptions, clients: usize, jobs: usize) -> Phase {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("bench", bench_graph(opts));
    let engine = Arc::new(Engine::start(registry, engine_config(opts.workers)));
    let (addr, stop, server) = spawn("127.0.0.1:0", Arc::clone(&engine)).expect("bind server");
    let addr = addr.to_string();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut pending = Vec::with_capacity(jobs);
                for j in 0..jobs {
                    let s = spec(lambda_for(c, j));
                    let id = client.submit(&s).expect("submit");
                    pending.push((id, Instant::now()));
                }
                let mut latencies_ms = Vec::with_capacity(jobs);
                for (id, submitted) in pending {
                    client
                        .wait(id, Duration::from_secs(600))
                        .expect("job completes");
                    latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::new();
    for h in handles {
        latencies_ms.extend(h.join().expect("client thread"));
    }
    let wall_secs = started.elapsed().as_secs_f64();
    stop.stop();
    let _ = server.join();
    engine.shutdown();
    finish_phase(latencies_ms, wall_secs, clients * jobs, 0, 0)
}

/// Mux phase: one event-loop thread serves every connection; each client
/// keeps all its jobs in flight as subscriptions on one connection and
/// settlement is pushed, not polled.
fn run_mux(opts: &MplexOptions, clients: usize, jobs: usize) -> Phase {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("bench", bench_graph(opts));
    let engine = Arc::new(Engine::start(registry, engine_config(opts.workers)));
    let (addr, stop, server) =
        fairsqg_service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).expect("bind mux");
    let addr = addr.to_string();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = MuxClient::connect(&addr).expect("connect mux");
                let mut pending = Vec::with_capacity(jobs);
                for j in 0..jobs {
                    let s = spec(lambda_for(c, j));
                    let sub = client.submit_streaming(&s).expect("streaming submit");
                    pending.push((sub, Instant::now()));
                }
                let mut latencies_ms = Vec::with_capacity(jobs);
                let mut lossy = 0u64;
                for (sub, submitted) in pending {
                    let streamed = sub.wait(Duration::from_secs(600)).expect("job settles");
                    assert_eq!(streamed.state, "done", "bench job completes");
                    if streamed.lossy {
                        // Backpressure shed deltas for this subscription;
                        // the final frame still settled it (counted, so a
                        // lossy run is visible in the report).
                        lossy += 1;
                    }
                    latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                }
                (latencies_ms, lossy)
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut lossy_results = 0u64;
    for h in handles {
        let (lat, lossy) = h.join().expect("client thread");
        latencies_ms.extend(lat);
        lossy_results += lossy;
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let deltas_streamed = engine
        .stats_value()
        .get("streaming")
        .and_then(|s| s.get("deltas"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    stop.stop();
    let _ = server.join();
    finish_phase(
        latencies_ms,
        wall_secs,
        clients * jobs,
        deltas_streamed,
        lossy_results,
    )
}

fn phase_value(p: &Phase, mux: bool) -> Value {
    let mut fields = vec![
        ("jobs_per_sec", Value::from(p.jobs_per_sec)),
        ("wall_secs", Value::from(p.wall_secs)),
        ("p50_ms", Value::from(p.p50_ms)),
        ("p95_ms", Value::from(p.p95_ms)),
        ("p99_ms", Value::from(p.p99_ms)),
    ];
    if mux {
        fields.push(("deltas_streamed", Value::from(p.deltas_streamed)));
        fields.push(("lossy_results", Value::from(p.lossy_results)));
    }
    Value::object(fields)
}

/// Runs the full benchmark and returns the `BENCH_PR8.json` report.
pub fn run_mplex(opts: &MplexOptions) -> Value {
    let equivalence_specs = assert_streamed_equals_final(opts);
    let mut sweep = Vec::new();
    let mut speedup_at_64 = None;
    let mut max_clients_speedup = (0usize, 0.0f64);
    // Best-of-3 per phase: wall clocks are fractions of a second and the
    // whole benchmark shares the machine with its own client threads, so
    // a single sample is dominated by scheduler noise (the hotpath bench
    // sheds the same noise the same way).
    const REPS: usize = 3;
    let best_of = |run: &dyn Fn() -> Phase| {
        let mut best = run();
        for _ in 1..REPS {
            let next = run();
            if next.jobs_per_sec > best.jobs_per_sec {
                best = next;
            }
        }
        best
    };
    for &(clients, jobs) in &opts.client_sweep {
        let baseline = best_of(&|| run_baseline(opts, clients, jobs));
        let mux = best_of(&|| run_mux(opts, clients, jobs));
        let speedup = if baseline.jobs_per_sec > 0.0 {
            mux.jobs_per_sec / baseline.jobs_per_sec
        } else {
            0.0
        };
        if clients == 64 {
            speedup_at_64 = Some(speedup);
        }
        if clients >= max_clients_speedup.0 {
            max_clients_speedup = (clients, speedup);
        }
        sweep.push(Value::object([
            ("clients", Value::from(clients as i64)),
            ("jobs_per_client", Value::from(jobs as i64)),
            ("thread_per_conn", phase_value(&baseline, false)),
            ("mux", phase_value(&mux, true)),
            ("mux_speedup", Value::from(speedup)),
        ]));
    }
    let mut fields = vec![
        ("bench", Value::from("mplex-pr8")),
        ("preset", Value::from(opts.preset.as_str())),
    ];
    fields.extend(crate::common::machine_header());
    fields.extend([
        ("workers", Value::from(opts.workers as i64)),
        (
            "workers_clamped",
            Value::from(crate::common::clamped(opts.workers)),
        ),
        ("directors", Value::from(opts.directors as i64)),
        (
            "equivalence",
            Value::object([
                ("streamed_vs_final_bit_identical", Value::from(true)),
                ("includes_deadline_truncated", Value::from(true)),
                ("specs_checked", Value::from(equivalence_specs as i64)),
            ]),
        ),
        ("sweep", Value::Array(sweep)),
        (
            "summary",
            Value::object([
                (
                    "mux_speedup_at_64_clients",
                    Value::from(speedup_at_64.unwrap_or(max_clients_speedup.1)),
                ),
                (
                    "mux_speedup_at_max_clients",
                    Value::from(max_clients_speedup.1),
                ),
                (
                    "max_swept_clients",
                    Value::from(max_clients_speedup.0 as i64),
                ),
            ]),
        ),
    ]);
    Value::object(fields)
}

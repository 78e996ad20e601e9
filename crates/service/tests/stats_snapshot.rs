//! Shape snapshot of every observability surface: the `stats` op, a job
//! result's `stats` block and the Prometheus sample names. A fixed job
//! sequence runs against a one-worker engine, and the sorted leaf paths
//! with their JSON types must match the lists below exactly — so a
//! counter refactor that drops, renames or retypes a key fails here.

use fairsqg_datagen::{social_graph, SocialConfig};
use fairsqg_service::proto::metrics_text;
use fairsqg_service::{AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, JobState};
use fairsqg_wire::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TEMPLATE: &str = "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
                        where u1.yearsOfExp >= ?\noutput u0\n";

fn spec(lambda: f64, deadline_ms: Option<u64>) -> JobSpec {
    JobSpec {
        graph: "g".into(),
        template: TEMPLATE.into(),
        group_attr: "gender".into(),
        cover: 3,
        algo: AlgoKind::BiQGen,
        threads: 1,
        eps: 0.05,
        lambda,
        deadline_ms,
        budget: fairsqg_algo::MatchBudget::UNLIMITED,
        request_key: None,
        priority: fairsqg_service::DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

fn wait(engine: &Engine, id: u64) -> Arc<Value> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match engine.status(id).expect("job exists").state {
            JobState::Done => return engine.result(id).expect("result"),
            JobState::Failed | JobState::Cancelled => panic!("job {id} did not finish"),
            _ => {
                assert!(Instant::now() < deadline, "job {id} stuck");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Every leaf of `v` as `path:type`, sorted; arrays are leaves.
fn leaves(v: &Value) -> Vec<String> {
    fn walk(v: &Value, path: &str, out: &mut Vec<String>) {
        let ty = match v {
            Value::Object(map) => {
                for (k, child) in map {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(child, &p, out);
                }
                return;
            }
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Array(_) => "array",
        };
        out.push(format!("{path}:{ty}"));
    }
    let mut out = Vec::new();
    walk(v, "", &mut out);
    out.sort();
    out
}

/// The sample names (everything before the value) of the non-comment
/// lines of a Prometheus exposition, sorted.
fn sample_names(text: &str) -> Vec<String> {
    let mut names: Vec<String> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.rsplit_once(' ')
                .expect("sample has a value")
                .0
                .to_string()
        })
        .collect();
    names.sort();
    names
}

fn check(what: &str, observed: &[String], expected: &[&str]) {
    let missing: Vec<&&str> = expected
        .iter()
        .filter(|e| !observed.iter().any(|o| o == *e))
        .collect();
    let extra: Vec<&String> = observed
        .iter()
        .filter(|o| !expected.contains(&o.as_str()))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{what} shape changed\n  missing: {missing:?}\n  extra: {extra:?}"
    );
    assert_eq!(observed.len(), expected.len(), "{what}: duplicate leaves");
}

#[test]
fn stats_result_and_metrics_shapes_are_stable() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert(
        "g",
        social_graph(SocialConfig {
            directors: 60,
            majority_share: 0.6,
            seed: 1,
        }),
    );
    let engine = Engine::start(
        registry,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    // A cold job, the same job again (a result-cache hit), and a
    // deadline-bearing job (feeds the pressure block's miss rate).
    let result = wait(&engine, engine.submit(spec(0.5, None)).unwrap());
    wait(&engine, engine.submit(spec(0.5, None)).unwrap());
    wait(&engine, engine.submit(spec(0.4, Some(60_000))).unwrap());

    check(
        "job result stats",
        &leaves(result.get("stats").expect("stats block")),
        JOB_STATS,
    );
    check("engine stats", &leaves(&engine.stats_value()), ENGINE_STATS);
    check(
        "metrics samples",
        &sample_names(&metrics_text(&engine)),
        METRIC_SAMPLES,
    );
    engine.shutdown();
}

const JOB_STATS: &[&str] = &[
    "brownout:null",
    "budget_tripped:null",
    "cache_hits:int",
    "cand_memo_hits:int",
    "distance_cache_hits:int",
    "distance_cache_misses:int",
    "elapsed_ms:float",
    "est_candidates:int",
    "index_candidates:int",
    "order_planned:int",
    "order_replans:int",
    "pool_restrictions:int",
    "pruned_candidates:int",
    "pruned_infeasible:int",
    "pruned_sandwich:int",
    "scan_candidates:int",
    "scan_fallbacks:int",
    "shard_skips:int",
    "spawned:int",
    "threads_used:int",
    "verified:int",
];

const ENGINE_STATS: &[&str] = &[
    "cancelled:int",
    "coalescing.attached:int",
    "coalescing.enabled:bool",
    "coalescing.requeued:int",
    "coalescing.served:int",
    "completed:int",
    "drain.drained:int",
    "drain.draining:bool",
    "evaluator_cache.hit_rate:float",
    "evaluator_cache.hits:int",
    "evaluator_cache.verified:int",
    "failed:int",
    "latency.generate.count:int",
    "latency.generate.max_ms:float",
    "latency.generate.mean_ms:float",
    "latency.plan.count:int",
    "latency.plan.max_ms:float",
    "latency.plan.mean_ms:float",
    "latency.queue_wait.count:int",
    "latency.queue_wait.max_ms:float",
    "latency.queue_wait.mean_ms:float",
    "latency.render.count:int",
    "latency.render.max_ms:float",
    "latency.render.mean_ms:float",
    "matching.cand_memo_hits:int",
    "matching.est_candidates:int",
    "matching.index_candidates:int",
    "matching.order_planned:int",
    "matching.order_replans:int",
    "matching.pool_restrictions:int",
    "matching.pruned_candidates:int",
    "matching.scan_candidates:int",
    "matching.scan_fallbacks:int",
    "matching.shard_skips:int",
    "pressure.brownout_jobs:int",
    "pressure.deadline_misses:int",
    "pressure.deadline_rejected:int",
    "pressure.level:str",
    "pressure.miss_rate:float",
    "pressure.queue_wait_ms:float",
    "pressure.quota_rejected:int",
    "pressure.service_ms:float",
    "pressure.shed:int",
    "pressure.shed_evicted:int",
    "pressure.transitions:int",
    "queue_capacity:int",
    "queue_depth:int",
    "registry.graphs:int",
    "registry.heap_bytes:int",
    "registry.mapped_bytes:int",
    "registry.mmap_loads:int",
    "registry.parse_loads:int",
    "registry.quarantined:int",
    "rejected:int",
    "result_cache.entries:int",
    "result_cache.evictions:int",
    "result_cache.hit_rate:float",
    "result_cache.hits:int",
    "result_cache.misses:int",
    "robustness.budget_trips:int",
    "robustness.dedup_hits:int",
    "robustness.job_panics:int",
    "robustness.worker_respawns:int",
    "robustness.workers_alive:int",
    "streaming.active:int",
    "streaming.catchups:int",
    "streaming.deltas:int",
    "streaming.settled:int",
    "submitted:int",
    "truncated:int",
    "warm_state.approx_bytes:int",
    "warm_state.budget_bytes:int",
    "warm_state.diversity_hits:int",
    "warm_state.diversity_misses:int",
    "warm_state.enabled:bool",
    "warm_state.evictions:int",
    "warm_state.graphs:int",
    "warm_state.plan_hits:int",
    "warm_state.plan_misses:int",
    "watchdog.enabled:bool",
    "watchdog.hard_stops:int",
    "watchdog.lost_workers:int",
    "workers:int",
];

const METRIC_SAMPLES: &[&str] = &[
    "fairsqg_cancelled",
    "fairsqg_coalescing_attached",
    "fairsqg_coalescing_enabled",
    "fairsqg_coalescing_requeued",
    "fairsqg_coalescing_served",
    "fairsqg_completed",
    "fairsqg_drain_drained",
    "fairsqg_drain_draining",
    "fairsqg_evaluator_cache_hit_rate",
    "fairsqg_evaluator_cache_hits",
    "fairsqg_evaluator_cache_verified",
    "fairsqg_failed",
    "fairsqg_latency_generate_count",
    "fairsqg_latency_generate_max_ms",
    "fairsqg_latency_generate_mean_ms",
    "fairsqg_latency_plan_count",
    "fairsqg_latency_plan_max_ms",
    "fairsqg_latency_plan_mean_ms",
    "fairsqg_latency_queue_wait_count",
    "fairsqg_latency_queue_wait_max_ms",
    "fairsqg_latency_queue_wait_mean_ms",
    "fairsqg_latency_render_count",
    "fairsqg_latency_render_max_ms",
    "fairsqg_latency_render_mean_ms",
    "fairsqg_matching_cand_memo_hits",
    "fairsqg_matching_est_candidates",
    "fairsqg_matching_index_candidates",
    "fairsqg_matching_order_planned",
    "fairsqg_matching_order_replans",
    "fairsqg_matching_pool_restrictions",
    "fairsqg_matching_pruned_candidates",
    "fairsqg_matching_scan_candidates",
    "fairsqg_matching_scan_fallbacks",
    "fairsqg_matching_shard_skips",
    "fairsqg_pressure_brownout_jobs",
    "fairsqg_pressure_deadline_misses",
    "fairsqg_pressure_deadline_rejected",
    r#"fairsqg_pressure_level{value="nominal"}"#,
    "fairsqg_pressure_miss_rate",
    "fairsqg_pressure_queue_wait_ms",
    "fairsqg_pressure_quota_rejected",
    "fairsqg_pressure_service_ms",
    "fairsqg_pressure_shed",
    "fairsqg_pressure_shed_evicted",
    "fairsqg_pressure_transitions",
    "fairsqg_queue_capacity",
    "fairsqg_queue_depth",
    "fairsqg_registry_graphs",
    "fairsqg_registry_heap_bytes",
    "fairsqg_registry_mapped_bytes",
    "fairsqg_registry_mmap_loads",
    "fairsqg_registry_parse_loads",
    "fairsqg_registry_quarantined",
    "fairsqg_rejected",
    "fairsqg_result_cache_entries",
    "fairsqg_result_cache_evictions",
    "fairsqg_result_cache_hit_rate",
    "fairsqg_result_cache_hits",
    "fairsqg_result_cache_misses",
    "fairsqg_robustness_budget_trips",
    "fairsqg_robustness_dedup_hits",
    "fairsqg_robustness_job_panics",
    "fairsqg_robustness_worker_respawns",
    "fairsqg_robustness_workers_alive",
    "fairsqg_streaming_active",
    "fairsqg_streaming_catchups",
    "fairsqg_streaming_deltas",
    "fairsqg_streaming_settled",
    "fairsqg_submitted",
    "fairsqg_truncated",
    "fairsqg_warm_state_approx_bytes",
    "fairsqg_warm_state_budget_bytes",
    "fairsqg_warm_state_diversity_hits",
    "fairsqg_warm_state_diversity_misses",
    "fairsqg_warm_state_enabled",
    "fairsqg_warm_state_evictions",
    "fairsqg_warm_state_graphs",
    "fairsqg_warm_state_plan_hits",
    "fairsqg_warm_state_plan_misses",
    "fairsqg_watchdog_enabled",
    "fairsqg_watchdog_hard_stops",
    "fairsqg_watchdog_lost_workers",
    "fairsqg_workers",
];

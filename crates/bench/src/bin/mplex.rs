//! `mplex` — runs the PR-8 multiplexed-server benchmark and writes
//! `BENCH_PR8.json`.
//!
//! Usage:
//!
//! ```text
//! mplex [output.json]                # default output: BENCH_PR8.json
//! FAIRSQG_MPLEX_PRESET=smoke mplex   # smoke|full (default: full)
//! ```
//!
//! The benchmark compares the readiness-driven multiplexed core (one
//! event-loop thread, N clients on one connection each with every job in
//! flight) against the thread-per-connection blocking baseline, at 1, 4,
//! 16, 64 and 256 clients on the `full` preset. Before any timing it asserts that
//! streamed delta frames reassemble bit-identically to the `result` op's
//! archive (including a deadline-truncated job) and aborts otherwise.

use fairsqg_bench::mplex::{preset, run_mplex};
use fairsqg_wire::Value;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());
    let preset_name = std::env::var("FAIRSQG_MPLEX_PRESET").unwrap_or_else(|_| "full".to_string());
    let Some(opts) = preset(&preset_name) else {
        eprintln!("unknown FAIRSQG_MPLEX_PRESET '{preset_name}' (smoke|full)");
        std::process::exit(2);
    };
    let report = run_mplex(&opts);
    let json = fairsqg_wire::to_string_pretty(&report);
    std::fs::write(&out_path, format!("{json}\n")).expect("write report");
    let at64 = report
        .get("summary")
        .and_then(|s| s.get("mux_speedup_at_64_clients"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let at_max = report
        .get("summary")
        .and_then(|s| s.get("mux_speedup_at_max_clients"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    println!(
        "mplex ({preset_name}): streamed archives bit-identical; \
         mux speedup {at64:.2}x at 64 clients, {at_max:.2}x at max -> {out_path}"
    );
}

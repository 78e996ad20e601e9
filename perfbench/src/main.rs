//! FairSQG benchmark: one command per workload that checks the program's
//! outputs against an independent reference and then prints every
//! metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot-lki --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"attempted", "correct", "failed", "metrics"}`; the line before it
//! carries the machine header and the fixture provenance. A failed
//! correctness gate exits non-zero without printing a result. See
//! `perfbench/README.md` for the workloads and metrics.

mod fixture;
mod gate;
mod layers;
mod machine;
mod mmap;
mod oneshot;
mod replay;
mod report;
mod served;
mod stats;
mod tap;

use fairsqg_wire::Value;
use report::{result_line, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <oneshot-lki|mmap-parenum|served-mix> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotLki,
    MmapParenum,
    ServedMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("oneshot-lki", Workload::OneshotLki),
        ("mmap-parenum", Workload::MmapParenum),
        ("served-mix", Workload::ServedMix),
    ];

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is named")
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value)?),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: the benchmark's seeded sequences.
pub fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The diversity weight λ a CLI workload runs with, drawn from
/// [0.4, 0.6) by the seed. λ changes every instance's δ and so the
/// archive, but not how many distances are computed.
pub fn seeded_lambda(seed: u64) -> f64 {
    0.4 + 0.2 * (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// The end-to-end metrics of a CLI workload from per-generation wall and
/// CPU samples. A CLI job is one generation, and the CLI prints its first
/// suggestion when the generation returns.
pub fn set_generation_metrics(
    m: &mut report::Metrics,
    wall: &stats::Samples,
    cpu: &stats::Samples,
) {
    let p50_ms = wall.percentile(50.0).value * 1e3;
    m.set("run_s", wall.median());
    m.set("cpu_s", cpu.median());
    m.set("job_p50_ms", p50_ms);
    m.set("job_p99_ms", wall.percentile(99.0).value * 1e3);
    m.set("jobs_per_s", wall.len() as f64 / wall.sum());
    m.set("first_delta_p50_ms", p50_ms);
    m.set("peak_rss_mb", machine::peak_rss_mb());
}

/// How a CLI generation ended: a deadline- or budget-cut archive is a
/// failure for the analyst who waited for it.
pub fn generation_outcome(out: &fairsqg_algo::Generated) -> stats::Outcome {
    if out.truncated {
        stats::Outcome::Truncated
    } else {
        stats::Outcome::Done
    }
}

/// Runs one workload; returns the header line and the result line.
fn run(opts: &Options) -> Result<(String, String), String> {
    let out = match opts.workload {
        Workload::OneshotLki => oneshot::run(opts),
        Workload::MmapParenum => mmap::run(opts),
        Workload::ServedMix => served::run(opts),
    }?;
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let line = result_line(table, &out)?;
    let header = Value::object([
        ("workload", Value::from(opts.workload.name())),
        ("seed", Value::from(opts.seed)),
        ("trace", Value::from(opts.trace)),
        ("machine", machine::header(opts.seconds)),
        ("failed_ratio", Value::from(out.tally.failed_ratio())),
        ("provenance", out.provenance),
    ]);
    Ok((fairsqg_wire::to_string(&header), line))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok((header, line)) => {
            println!("{header}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} (seed {}): {e}",
                opts.workload.name(),
                opts.seed
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = Options::parse(&args(
            "--workload served-mix --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::ServedMix);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20, true));
        for (name, w) in Workload::ALL {
            assert_eq!(Workload::parse(name).unwrap().name(), w.name());
        }
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload oneshot-lki --seconds 1",
            "--workload oneshot-lki --seed x --seconds 1",
            "--workload oneshot-lki --seed 1 --seconds 1 --trace 2",
            "--workload oneshot-lki --seed 1 --seconds",
            "--bogus 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}

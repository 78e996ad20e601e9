//! What the benchmark knows about the machine and its own process:
//! the header every result carries, process CPU time and peak resident
//! set.

use fairsqg_wire::Value;
use std::path::Path;
use std::time::Duration;

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Refuses a load generator wider than the machine: more client threads
/// or connections than hardware threads would measure the scheduler.
pub fn check_parallelism(what: &str, requested: usize) -> Result<(), String> {
    let hw = available_parallelism();
    if requested > hw {
        return Err(format!(
            "{what}: {requested} requested but available_parallelism is {hw}"
        ));
    }
    Ok(())
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no subprocess, nothing read outside the checkout), or
/// `unknown` when the directory is not a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let resolved = read(&git.join("HEAD")).and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            None => Some(head.to_string()),
            Some(name) => read(&git.join(name))
                .map(|s| s.trim().to_string())
                .or_else(|| {
                    read(&git.join("packed-refs"))?
                        .lines()
                        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
                }),
        }
    });
    resolved.unwrap_or_else(|| "unknown".to_string())
}

/// The machine header printed with every result.
pub fn header(seconds: u64) -> Value {
    Value::object([
        (
            "available_parallelism",
            Value::from(available_parallelism()),
        ),
        ("cpu_model", Value::from(cpu_model())),
        ("git_commit", Value::from(git_commit())),
        ("run_seconds", Value::from(seconds)),
    ])
}

/// Process resource usage at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time of every thread the process has run,
    /// including threads that have already exited.
    pub cpu: Duration,
    /// Peak resident set so far, in bytes.
    pub peak_rss_bytes: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two `timeval`s of two `long`s, then fourteen `long`s), and
    // the pointer is to a live, writable, exclusively borrowed value.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: &Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    Usage {
        cpu: tv(&ru.utime) + tv(&ru.stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_bytes: ru.maxrss as u64 * 1024,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time and peak RSS through Linux getrusage");

/// Peak resident set in MiB.
pub fn peak_rss_mb() -> f64 {
    usage().peak_rss_bytes as f64 / (1024.0 * 1024.0)
}

//! Minimal wall-clock micro-benchmark harness.
//!
//! An offline stand-in for criterion: each `[[bench]]` target with
//! `harness = false` drives this module directly, so `cargo bench`
//! works with no registry access. The harness auto-calibrates the
//! iteration count to a fixed measurement window and reports mean
//! wall-clock cost per iteration.

use std::time::{Duration, Instant};

/// Measurement window each benchmark is calibrated to fill.
const TARGET: Duration = Duration::from_millis(200);

/// Iteration-count ceiling (guards against sub-nanosecond bodies).
const MAX_ITERS: u64 = 1 << 28;

/// Measures `f`, returning (nanoseconds per iteration, iterations).
fn measure(f: &mut impl FnMut()) -> (f64, u64) {
    // Warm-up: one untimed call to populate caches and lazy state.
    f();
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= TARGET || iters >= MAX_ITERS {
            return (elapsed.as_nanos() as f64 / iters as f64, iters);
        }
        let scale = TARGET.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        iters = ((iters as f64 * scale.clamp(2.0, 100.0)).ceil() as u64).min(MAX_ITERS);
    }
}

/// Times one invocation of `f`, returning its result and the elapsed
/// wall-clock seconds.
///
/// This is the macro-benchmark entry point: oasis-lint confines
/// `std::time` to this module, so `perf` and friends must take their
/// wall readings here rather than touching [`Instant`] directly.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Monotonic seconds since this function was first called.
///
/// This is the clock handed to `run_datacenter_day`, which times each
/// rack with it: the simulator itself never reads wall time, it only
/// brackets racks with whatever monotonic closure the benchmark
/// supplies from here.
pub fn monotonic_secs() -> f64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Runs one benchmark and prints its mean cost per iteration.
pub fn bench(name: &str, mut f: impl FnMut()) {
    let (ns, iters) = measure(&mut f);
    println!("{name:<44} {:>14} ns/iter  ({iters} iters)", format_ns(ns));
    crate::report::global().sample(name, ns as u64, iters);
}

/// Runs one benchmark that processes `bytes` per iteration and prints
/// both latency and throughput.
pub fn bench_bytes(name: &str, bytes: u64, mut f: impl FnMut()) {
    let (ns, iters) = measure(&mut f);
    let mib_s = bytes as f64 / (ns / 1e9) / (1024.0 * 1024.0);
    println!("{name:<44} {:>14} ns/iter  {mib_s:>10.1} MiB/s  ({iters} iters)", format_ns(ns));
    crate::report::global().sample(name, ns as u64, iters);
}

/// Runs one benchmark that processes `elements` per iteration and
/// prints both latency and element rate.
pub fn bench_elements(name: &str, elements: u64, mut f: impl FnMut()) {
    let (ns, iters) = measure(&mut f);
    let per_sec = elements as f64 / (ns / 1e9);
    println!(
        "{name:<44} {:>14} ns/iter  {:>12.3e} elem/s  ({iters} iters)",
        format_ns(ns),
        per_sec
    );
    crate::report::global().sample(name, ns as u64, iters);
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}e9", ns / 1e9)
    } else {
        format!("{ns:.1}")
    }
}

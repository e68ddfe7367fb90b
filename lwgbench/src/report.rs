//! The result line, plus the small statistics and `/proc` readings the
//! workloads share.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Wall time after which workloads stop driving the system, so that a run
/// that stalls (a protocol storm, a heal that never converges) still ends
/// well inside its time budget and reports the stall as a failure.
const GUARD: Duration = Duration::from_secs(150);

static STARTED: OnceLock<Instant> = OnceLock::new();

/// Starts the wall-clock guard (idempotent).
pub fn start_clock() {
    STARTED.get_or_init(Instant::now);
}

/// When the wall-clock guard expires.
pub fn deadline() -> Instant {
    *STARTED.get_or_init(Instant::now) + GUARD
}

/// One workload's result: the check outcome and named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (messages sent, heals run).
    pub attempted: u64,
    /// Operations that failed or missed the latency limit.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable notes, printed to stderr.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report of a run that has passed every check so far.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds metric `name` in `unit`. Non-finite values are reported as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Adds a note for the log.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Keeps only the metrics named in `names`, in that order.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for n in names {
            if let Some(m) = self.metrics.iter().find(|m| m.0 == *n) {
                kept.push(m.clone());
            }
        }
        self.metrics = kept;
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this thread has spent running, in ns (first field of
/// `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Probe time of the reference host, for [`normalized_ns`].
const PROBE_REF_NS: f64 = 4.0e6;

/// Runs a fixed, allocation-heavy ordered-map workload (the kind of work
/// the simulator's event queue and the stack's directories do) and returns
/// the wall ns it took: how fast the host runs this kind of code right
/// now. On a shared host that speed drifts by a quarter within minutes.
pub fn host_probe_ns() -> u64 {
    let t0 = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 65_536, vec![i as u8; 64]);
        if map.len() > 4_096 {
            map.pop_first();
        }
    }
    std::hint::black_box(map.len());
    t0.elapsed().as_nanos().max(1) as u64
}

/// `wall_ns` of CPU-bound work scaled to a host that runs the probe in
/// 4 ms, given the `probe_ns` measured next to it. Simulator throughput is
/// reported in these host-normalized seconds, so host drift cancels out
/// and a change to the program does not.
pub fn normalized_ns(wall_ns: u64, probe_ns: u64) -> f64 {
    wall_ns as f64 * PROBE_REF_NS / probe_ns.max(1) as f64
}

/// Times `f` in host-normalized seconds (see [`normalized_ns`]).
pub fn normalized_secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_nanos() as u64;
    (r, normalized_ns(wall, host_probe_ns()) / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 10;
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", f64::NAN, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        r.select(&["setup_s", "absent"]);
        assert_eq!((r.get("setup_s"), r.get("latency_ms")), (Some(0.0), None));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn normalization_scales_by_the_probe() {
        assert_eq!(normalized_ns(1_000, 4_000_000), 1_000.0);
        assert_eq!(normalized_ns(1_000, 8_000_000), 500.0);
        assert!(host_probe_ns() > 0);
        let ((), s) = normalized_secs(|| ());
        assert!(s >= 0.0);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(rss_peak_mib() > 0.0);
        // The kernel updates a running thread's CPU time at scheduler
        // ticks, so spin until it moves (well within a second).
        let (t0, spin) = (thread_cpu_ns(), Instant::now());
        while thread_cpu_ns() == t0 && spin.elapsed() < Duration::from_secs(1) {
            std::hint::black_box(host_probe_ns());
        }
        assert!(thread_cpu_ns() > t0);
    }
}

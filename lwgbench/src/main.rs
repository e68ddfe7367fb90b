//! `lwgbench` — the end-to-end and per-layer benchmark of the PLWG stack.
//!
//! ```text
//! lwgbench --workload <sim_fanout|sim_partition|net_loopback> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress and notes on stderr and, as the last line of stdout, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones of a traced window. Exits
//! non-zero when a correctness check fails. See `README.md` for the
//! workloads, metrics and layer map.

mod adapters;
mod alloc;
mod fanout;
mod layers;
mod ledger;
mod loopback;
mod member;
mod partition;
mod report;
mod sim;
mod spans;

use report::Report;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every end-to-end metric, in report order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "deliveries_per_s",
    "deliver_p50_ms",
    "deliver_p99_ms",
    "delivery_ratio",
    "heal_p50_ms",
    "heal_max_ms",
    "cycle_wall_s",
    "max_rate_per_s",
    "rss_peak_mib",
];

/// Where traced runs write their span records.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(workload: &str, seed: u64, tracers: &[(&str, &spans::Tracer)]) {
    let dir = std::path::Path::new(SPAN_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("lwgbench: cannot create {SPAN_DIR}: {e}");
        return;
    }
    for (thread, t) in tracers {
        let path = dir.join(format!("{workload}-seed{seed}-{thread}.spans.tsv"));
        match std::fs::write(&path, t.spans_tsv()) {
            Ok(()) => eprintln!(
                "lwgbench: wrote {} spans to {}",
                t.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("lwgbench: cannot write {}: {e}", path.display()),
        }
    }
}

fn run(a: &Args) -> Result<Report, String> {
    let (mut r, names) = match (a.workload.as_str(), a.trace) {
        ("sim_fanout", false) => (fanout::run(a.seed, a.seconds), END_TO_END),
        ("sim_fanout", true) => {
            let (r, t) = fanout::run_traced(a.seed, a.seconds);
            write_spans(&a.workload, a.seed, &[("main", &t)]);
            (r, layers::PER_LAYER)
        }
        ("sim_partition", false) => (partition::run(a.seed, a.seconds), END_TO_END),
        ("sim_partition", true) => {
            let (r, t) = partition::run_traced(a.seed, a.seconds);
            write_spans(&a.workload, a.seed, &[("main", &t)]);
            (r, layers::PER_LAYER)
        }
        ("net_loopback", false) => (loopback::run(a.seed, a.seconds), END_TO_END),
        ("net_loopback", true) => {
            let (r, tracers) = loopback::run_traced(a.seed, a.seconds);
            let named: Vec<(&str, &spans::Tracer)> = tracers.iter().map(|(n, t)| (*n, t)).collect();
            write_spans(&a.workload, a.seed, &named);
            (r, layers::PER_LAYER)
        }
        (w, _) => return Err(format!("unknown workload {w}")),
    };
    r.select(names);
    let missing: Vec<&str> = names
        .iter()
        .filter(|n| r.get(n).is_none())
        .copied()
        .collect();
    if !missing.is_empty() {
        return Err(format!("workload did not report {missing:?}"));
    }
    Ok(r)
}

fn main() -> ExitCode {
    report::start_clock();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lwgbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lwgbench: {e}");
            return ExitCode::from(2);
        }
    };
    for n in &r.notes {
        eprintln!("lwgbench: {n}");
    }
    println!("{}", r.json());
    if r.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("lwgbench: correctness check FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload sim_fanout --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_fanout", 7, 10.0, true)
        );
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--seconds 0 --workload x").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seed 1").is_err(), "workload is required");
    }
}

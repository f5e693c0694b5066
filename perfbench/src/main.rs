//! `perfbench`: the outside-in benchmark of megasw.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench steady [--rounds R] [--seconds S] [--seed N] [--workloads a,b]
//! ```
//!
//! The first form builds the workload's inputs from the seed, sets up
//! the program, drives it for `S` seconds, checks every result against a
//! reference, and prints a report whose last line is one JSON object.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it traces every other operation and reports the per-layer metrics.
//! The second form reruns every workload in alternation and prints each
//! metric's median, quartiles and spread (see `steady.rs`).
//! `perfbench/README.md` maps layers to metrics and workloads.

mod closed;
mod host;
mod inputs;
mod open;
mod schedule;
mod stats;
mod steady;
mod trace;

use inputs::KernelProbe;
use stats::{median, tail, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["pair-megabase", "batch-mixed", "service-open", "http-open"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("gcups", "GCUPS"),
    ("latency_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`; the layer is the name's prefix. A
/// workload that does not exercise a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 31] = [
    ("kernel.gcups_1t", "GCUPS"),
    ("kernel.simd_rescues", "count"),
    ("pipeline.efficiency", "ratio"),
    ("pipeline.compute_frac", "fraction"),
    ("pipeline.wait_input_frac", "fraction"),
    ("pipeline.wait_output_frac", "fraction"),
    ("pipeline.checkpoint_frac", "fraction"),
    ("pipeline.other_frac", "fraction"),
    ("pipeline.ring_blocked", "count"),
    ("batch.efficiency", "ratio"),
    ("batch.pairs_per_s", "1/s"),
    ("batch.pair_p50_ms", "ms"),
    ("batch.small_pairs", "count"),
    ("batch.large_pairs", "count"),
    ("batch.requeued", "count"),
    ("service.submit_us", "us"),
    ("service.queue_ms", "ms"),
    ("service.queue_tail_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.detect_ms", "ms"),
    ("service.queue_peak", "count"),
    ("service.long_job_gcups", "GCUPS"),
    ("service.busy_frac", "fraction"),
    ("http.post_ms", "ms"),
    ("http.poll_ms", "ms"),
    ("http.overhead_ms", "ms"),
    ("http.refused", "count"),
    ("gen.late_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("gen.sent", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Everything one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    pub tally: Tally,
    /// `(operation id, latency in ms)` of every correct operation.
    pub latencies: Vec<(u64, f64)>,
    /// DP cells of correct operations.
    pub cells: u128,
    /// Wall seconds of the measured window.
    pub wall_s: f64,
    pub devices: usize,
    /// The single-thread reference scans of every set-up.
    pub probe: KernelProbe,
    /// Per-layer values the workload measured.
    pub layer: Vec<(&'static str, f64)>,
    /// Why the run does not count, when it does not.
    pub invalid: Option<String>,
    /// The first few wrong, failed or refused operations.
    pub problems: Vec<String>,
}

impl Measured {
    pub fn note_problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Run `setup` [`SETUP_REPEATS`] times, timing each; keep the last
/// result. Inputs come from the seed, so every repeat builds the same.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> (T, KernelProbe)) -> (T, Measured) {
    let mut m = Measured::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take()); // tear the previous set-up down first
        let start = Instant::now();
        let (value, probe) = setup();
        m.setup_s.push(start.elapsed().as_secs_f64());
        m.probe.cells += probe.cells;
        m.probe.seconds += probe.seconds;
        last = Some(value);
    }
    (last.expect("at least one set-up"), m)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return steady::main(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "pair-megabase" => closed::pair_megabase(args.seed, args.seconds, &tracer),
        "batch-mixed" => closed::batch_mixed(args.seed, args.seconds, &tracer),
        "service-open" => open::service_open(args.seed, args.seconds, &tracer),
        "http-open" => open::http_open(args.seed, args.seconds, &tracer),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    match run {
        Ok(m) => report(&args, &m, &tracer),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn report(args: &Args, m: &Measured, tracer: &Tracer) -> ExitCode {
    let host = host::Host::probe();
    println!(
        "perfbench {} seed={} seconds={} trace={} | host: available_parallelism={} cpu=\"{}\" kernel={} devices={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.parallelism,
        host.cpu_model,
        host.kernel,
        m.devices,
    );
    if m.devices > host.parallelism {
        println!(
            "warning: {} busy device workers on {} cores; figures are not comparable",
            m.devices, host.parallelism
        );
    }
    let attempted = m.tally.attempted();
    println!(
        "operations: attempted={attempted} ok={} failed={} refused={} wrong={} error_rate={}",
        m.tally.ok,
        m.tally.failed,
        m.tally.refused,
        m.tally.wrong,
        m.tally.error_rate()
    );
    for p in &m.problems {
        println!("problem: {p}");
    }
    if let Some(why) = &m.invalid {
        println!("invalid run: {why}");
    }

    let lat: Vec<f64> = m.latencies.iter().map(|&(_, ms)| ms).collect();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        per_layer(m, tracer)
    } else {
        end_to_end(m, &lat)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    if !args.trace {
        match tail(&lat) {
            Some(t) => println!(
                "  latency_tail_ms is p{:.2} of {} latencies ({} beyond it)",
                t.percentile,
                t.samples,
                stats::TAIL_BEYOND
            ),
            None => println!(
                "  latency_tail_ms: only {} latencies, too few for a tail",
                lat.len()
            ),
        }
    } else {
        let path = PathBuf::from(".perfbench")
            .join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let correct = m.tally.wrong == 0 && m.invalid.is_none() && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        m.tally.not_ok(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn end_to_end(m: &Measured, lat: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let gcups = if m.wall_s > 0.0 {
        m.cells as f64 / m.wall_s / 1e9
    } else {
        0.0
    };
    let values = [
        gcups,
        median(lat),
        tail(lat).map_or(0.0, |t| t.value),
        1.0 - m.tally.error_rate(),
        median(&m.setup_s),
        host::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer(m: &Measured, tracer: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let (traced, untraced): (Vec<_>, Vec<_>) =
        m.latencies.iter().partition(|&&(op, _)| tracer.traces(op));
    let med = |v: &[&(u64, f64)]| median(&v.iter().map(|&&(_, ms)| ms).collect::<Vec<_>>());
    let overhead = if untraced.is_empty() || med(&untraced) == 0.0 {
        0.0
    } else {
        med(&traced) / med(&untraced) - 1.0
    };
    let mut values: Vec<(&str, f64)> = vec![
        ("kernel.gcups_1t", m.probe.gcups()),
        ("trace.overhead_frac", overhead),
    ];
    values.extend(m.layer.iter().copied());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, v, unit)
        })
        .collect()
}

//! Steadiness mode: rerun every workload in alternation, each run a fresh
//! process with its own seed, and print each metric's median, quartiles
//! and spread (inter-quartile distance over the median). With the
//! `BENCHMARK.json` of the current directory at hand it also prints each
//! metric's bound, and compares the median of the first half of the rounds
//! with that of the second half, as a second set of runs would be
//! compared with a first.
//!
//! ```text
//! perfbench steady --rounds 10 --seconds 20 --seed 1 --workloads pair-megabase,http-open
//! ```

use crate::stats::{median, quartiles, spread};
use crate::WORKLOADS;
use megasw_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

struct Bound {
    bound: f64,
    higher_is_better: bool,
}

pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut rounds = 10u64;
    let mut seconds = 10u64;
    let mut seed = 1u64;
    let mut trace = 0u64;
    let mut workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--rounds" => rounds = number()?.max(2),
            "--seconds" => seconds = number()?,
            "--seed" => seed = number()?,
            "--trace" => trace = number()?,
            "--workloads" => workloads = value.split(',').map(str::to_string).collect(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let bounds = read_bounds();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;

    // values[workload][metric] = one value per round, in round order.
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for round in 0..rounds {
        for w in &workloads {
            let s = seed + round;
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &s.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if round == 0 {
                // The host line: parallelism, CPU model and resolved kernel.
                println!("{}", stdout.lines().next().unwrap_or(""));
            }
            let last = stdout.lines().last().unwrap_or("");
            let v = json::parse(last).map_err(|e| format!("{w} seed {s}: no result line ({e})"))?;
            let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or("result without metrics")?;
            let mut line = format!("round {round} {w} seed {s} correct={correct}");
            for (name, m) in metrics {
                let x = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                line.push_str(&format!(" {name}={x:.4}"));
                values
                    .entry(w.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
            println!("{line}");
        }
    }

    println!(
        "\n{:<14} {:<24} {:>12} {:>12} {:>12} {:>8} {:>6} {:>9}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "halves"
    );
    for (w, metrics) in &values {
        for (name, xs) in metrics {
            let med = median(xs);
            let (q1, q3) = quartiles(xs).unwrap_or((med, med));
            let spread = spread(xs).unwrap_or(0.0);
            let (first, second) = xs.split_at(xs.len() / 2);
            let (m1, m2) = (median(first), median(second));
            let b = bounds.get(name);
            // How much worse the second half's median is than the first's.
            let worse = match b {
                Some(b) if m1 != 0.0 => {
                    let change = (m2 - m1) / m1.abs();
                    if b.higher_is_better {
                        -change
                    } else {
                        change
                    }
                }
                _ => 0.0,
            };
            let verdict = match b {
                None => "no bound",
                Some(b) if name == "setup_s" && worse > b.bound => "HALVES DIFFER",
                Some(_) if name == "setup_s" => "ok",
                Some(b) if spread > b.bound || worse > b.bound => "OVER BOUND",
                Some(b) if spread > b.bound / 3.0 => "above a third",
                Some(_) => "steady",
            };
            println!(
                "{w:<14} {name:<24} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {:>6} {worse:>+9.4}  {verdict}",
                b.map_or("-".to_string(), |b| b.bound.to_string()),
            );
        }
    }
    Ok(())
}

/// End-to-end bounds from `BENCHMARK.json`, if it is in the current
/// directory.
fn read_bounds() -> BTreeMap<String, Bound> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(v) = json::parse(&text) else {
        return out;
    };
    for m in v.get("end_to_end").and_then(Value::as_array).unwrap_or(&[]) {
        let (Some(name), Some(bound)) = (
            m.get("name").and_then(Value::as_str),
            m.get("bound").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let higher_is_better = m.get("better").and_then(Value::as_str) == Some("higher");
        out.insert(
            name.to_string(),
            Bound {
                bound,
                higher_is_better,
            },
        );
    }
    out
}

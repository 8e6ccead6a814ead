//! `kind-benchmark aa`: the whole benchmark in alternating sets of runs of
//! the same code. It prints each metric's median and quartiles per set and
//! how far the sets' medians are apart, and fails if any pair differs by
//! more than the metric's bound — or, with `--vary-seed`, if a set's own
//! interquartile spread exceeds it, which is how the driver judges whether
//! the benchmark is steady enough to be used at all.

use crate::json::Value;
use crate::spec;
use crate::stats::{median, quartiles, spread};
use crate::{child_command, Args};
use std::collections::BTreeMap;
use std::process::{ExitCode, Stdio};

/// `samples[(workload, metric)][set]` holds that set's readings.
type Samples = BTreeMap<(usize, usize), Vec<Vec<f64>>>;

fn run_child(workload: &str, seed: u64, args: &Args) -> Result<Value, String> {
    let output = child_command(workload, seed, args, false)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let report = Value::parse(last).map_err(|e| format!("unreadable result line: {e}"))?;
    if !output.status.success() || report.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("run failed ({}): {last}", output.status));
    }
    Ok(report)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn run(args: &Args) -> ExitCode {
    let mut samples: Samples = BTreeMap::new();
    for run in 0..args.runs {
        let seed = args.seed + if args.vary_seed { run as u64 } else { 0 };
        for set in 0..args.sets {
            for (w, workload) in spec::WORKLOADS.iter().enumerate() {
                eprintln!(
                    "aa: run {}/{} set {} seed {seed} {}",
                    run + 1,
                    args.runs,
                    set + 1,
                    workload.name
                );
                let report = match run_child(workload.name, seed, args) {
                    Ok(report) => report,
                    Err(why) => {
                        eprintln!("aa: {} {why}", workload.name);
                        return ExitCode::FAILURE;
                    }
                };
                for (m, metric) in spec::END_TO_END.iter().enumerate() {
                    let value = report
                        .get("metrics")
                        .and_then(|ms| ms.get(metric.name))
                        .and_then(|entry| entry.get("value"))
                        .and_then(Value::as_f64)
                        .expect("every end-to-end metric is reported");
                    samples
                        .entry((w, m))
                        .or_insert_with(|| vec![Vec::new(); args.sets])[set]
                        .push(value);
                }
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<21} {:<17} {:>3} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "set", "median", "q1", "q3", "spread", "vs set1", "bound"
    );
    for ((w, m), sets) in &samples {
        let metric = &spec::END_TO_END[*m];
        let first = median(&sets[0]);
        for (s, values) in sets.iter().enumerate() {
            let (q1, q3) = quartiles(values);
            let iqr_share = spread(values);
            let diff = worse_by(metric.better, first, median(values));
            // A set's own spread only gates when seeds vary (the driver's
            // steadiness check, which exempts `setup_s`); the distance
            // between the sets' medians always gates, in both directions.
            let unsteady = args.vary_seed && metric.name != "setup_s" && iqr_share > metric.bound;
            let apart = diff.abs() > metric.bound;
            ok &= !(unsteady || apart);
            println!(
                "{:<21} {:<17} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                spec::WORKLOADS[*w].name,
                metric.name,
                s + 1,
                median(values),
                q1,
                q3,
                iqr_share * 100.0,
                diff * 100.0,
                metric.bound * 100.0,
                match (unsteady, apart) {
                    (false, false) => "ok",
                    (true, false) => "SPREAD > BOUND",
                    (_, true) => "SETS DIFFER > BOUND",
                }
            );
        }
    }
    if ok {
        println!("aa: every pair of sets agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("aa: FAILED, see the verdict column");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by("lower", 100.0, 107.0) - 0.07).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 93.0) - 0.07).abs() < 1e-12);
        assert!(worse_by("lower", 100.0, 90.0) < 0.0);
        assert!(worse_by("higher", 100.0, 110.0) < 0.0);
    }
}

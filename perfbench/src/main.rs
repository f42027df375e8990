//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` host seconds and prints, as the
//! last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from a traced run checked against an untraced one.
//! Scratch files go to `.bench_work/<workload>/` under the current
//! directory, which is emptied first.

use perfbench::workloads::{self, Params};
use std::path::PathBuf;

struct Args {
    workload: String,
    params: Params,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed {value:?}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {:?})",
            workloads::WORKLOADS
        ));
    }
    let work_dir = PathBuf::from(".bench_work").join(&workload);
    Ok(Args { workload, params: Params { seed, seconds, work_dir }, trace })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let dir = &args.params.work_dir;
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut report = workloads::run(&args.workload, &args.params, args.trace).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });
    let bad: Vec<String> =
        report.metrics.iter().filter(|m| !m.1.is_finite()).map(|m| m.0.clone()).collect();
    report.op(bad.is_empty(), || format!("metrics not finite: {bad:?}"));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

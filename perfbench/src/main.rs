//! The repository's benchmark. See README.md in this directory for the
//! workloads, the metrics and how to run it; `run.py` builds this binary
//! and is the command `BENCHMARK.json` names.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and writes the span file under `--out-dir`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is 0 only when every check passed.

mod e2e;
mod layers;
mod replay;
mod spans;
mod stats;
mod workloads;

use stats::ReplayOutcome;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One reported figure.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    workloads::by_name(&v)
                        .ok_or(format!("unknown workload {v:?}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// The result line. Non-finite values cannot be written as JSON numbers;
/// they make the result incorrect instead.
fn result_json(outcomes: &[ReplayOutcome], metrics: &[Metric]) -> (bool, String) {
    let attempted: u64 = outcomes.iter().map(|o| o.expected).sum();
    let failed: u64 = outcomes.iter().map(ReplayOutcome::failed_ops).sum();
    let mut correct = !outcomes.is_empty() && outcomes.iter().all(ReplayOutcome::is_correct);
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let value = if x.value.is_finite() {
            x.value
        } else {
            correct = false;
            0.0
        };
        let _ = write!(
            m,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            x.name,
            x.unit
        );
    }
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        attempted.max(1)
    );
    (correct, json)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let (outcomes, metrics) = if args.trace {
        let t = layers::run(&w, args.seed, args.seconds);
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.json", w.name, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, t.tracer.to_json()));
        if let Err(e) = written {
            eprintln!("perfbench: write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!(
            "spans: {} ({} spans)",
            path.display(),
            t.tracer.spans().len()
        );
        (t.outcomes, t.metrics)
    } else {
        let r = e2e::run(&w, args.seed, args.seconds);
        (r.outcomes, r.metrics)
    };
    for m in &metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    // Failed ops out of attempted ops. Not a metric of the result line,
    // where a healthy run's 0 could carry no relative bound; the line's
    // `attempted` and `failed` carry the same counts.
    println!(
        "{:<34} {:>18.6} share",
        "error_share",
        stats::error_share(&outcomes)
    );
    let failed: u64 = outcomes.iter().map(ReplayOutcome::failed_ops).sum();
    println!(
        "checks: {} replays, {} failed ops, {}",
        outcomes.len(),
        failed,
        if outcomes.iter().all(ReplayOutcome::is_correct) {
            "all correct"
        } else {
            "FAILED"
        }
    );
    let (correct, json) = result_json(&outcomes, &metrics);
    // A record of the run beside the spans: the result with the machine's
    // thread count, which wall-clock figures depend on.
    let record = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        std::fs::write(
            &record,
            format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
                 \"nproc\": {nproc}, \"result\": {json}}}\n",
                w.name, args.seed, args.seconds, args.trace as u8
            ),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: write {}: {e}", record.display());
    }
    println!("{json}");
    // A hung replay's thread may still be running; exiting ends it.
    std::process::exit(if correct { 0 } else { 1 });
}

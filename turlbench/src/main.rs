//! `turlbench`: the end-to-end and per-layer benchmark of turl-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path turlbench/Cargo.toml -- \
//!     --workload serve_cold --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). A failed correctness gate exits with code 1; bad
//! arguments or a set-up error exit with code 2 and print no result.

mod flops;
mod load;
mod offline;
mod pretrain;
mod report;
mod requests;
mod serve;
mod stats;
mod trace;
mod world;

use std::path::Path;

use report::{Report, END_TO_END, PER_LAYER};

/// Workload names; `BENCHMARK.json` and the README say why each exists.
const WORKLOADS: [&str; 4] = ["serve_cold", "serve_hot", "offline_int8", "pretrain_small"];

/// A human-readable line on standard output (the result is the last).
pub fn say(line: impl AsRef<str>) {
    println!("{}", line.as_ref());
}

/// Write a traced run's spans under the output directory.
pub fn write_spans(spans: &trace::Spans, workload: &str, seed: u64) {
    let path = Path::new(world::OUT_DIR).join(format!("spans-{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => say(format!("spans: {} written to {}", spans.finished().len(), path.display())),
        Err(e) => say(format!("spans: cannot write {}: {e}", path.display())),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 20.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// A `/proc/self/status` field in kB.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU model, core count, compiled target features, pool width.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect();
    format!(
        "cpu \"{cpu}\", nproc {cores}, target features [{}], pool width {}",
        features.join(" "),
        turl_tensor::pool::n_threads()
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("turlbench: {e}");
            eprintln!(
                "usage: turlbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    say(format!("machine: {}", fingerprint()));
    say(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "serve_cold" => serve::run(serve::COLD, args.seed, args.seconds, args.trace, &mut report),
        "serve_hot" => serve::run(serve::HOT, args.seed, args.seconds, args.trace, &mut report),
        "offline_int8" => offline::run(args.seed, args.seconds, args.trace, &mut report),
        _ => pretrain::run(args.seed, args.seconds, args.trace, &mut report),
    };
    if let Err(e) = result {
        eprintln!("turlbench: {} failed: {e}", args.workload);
        std::process::exit(2);
    }
    let peak_mb = status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0);
    report.metric("peak_rss_mb", peak_mb);
    let line = report.json(if args.trace { &PER_LAYER } else { &END_TO_END });
    say(if report.correct() { "all correctness gates hold" } else { "a correctness gate FAILED" });
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

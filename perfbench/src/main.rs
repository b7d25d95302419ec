//! `perfbench`: runs one named workload and prints its metrics.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the run's host information and exact simulated counts. With
//! `--trace 1` the metrics are the per-layer ones and the spans are
//! written to `perfbench/out/`.

use std::process::ExitCode;
use std::time::Duration;

use ditto_bench::json::host_info;
use ditto_perfbench::spec::BenchSpec;
use ditto_perfbench::workloads::{run, Kind};

/// The seed the committed baseline is measured with.
const BASELINE_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim.
const HELD_OUT_SEED: u64 = 7_919;

/// A run that has not finished by then is stopped without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Spans written per traced run (all of them feed the metrics).
const TRACE_FILE_SPANS: usize = 50_000;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = BASELINE_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::from_name(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Collapses a pretty-printed JSON value onto one line.
fn one_line(pretty: &str) -> String {
    pretty.lines().map(str::trim).collect::<Vec<_>>().join(" ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 (baseline seed {BASELINE_SEED}, held-out seed {HELD_OUT_SEED})"
            );
            return ExitCode::from(2);
        }
    };
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))
        .and_then(|t| BenchSpec::parse(&t))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    if !spec.workloads.iter().any(|(w, _)| w == name) {
        eprintln!("perfbench: workload `{name}` is not declared in BENCHMARK.json");
        return ExitCode::from(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; stopping");
        std::process::exit(3);
    });

    let outcome = run(args.workload, args.seed, args.seconds, args.trace);
    if let Some(why) = &outcome.invalid {
        eprintln!("perfbench: invalid run, not a measurement: {why}");
        return ExitCode::from(3);
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: the run attempted nothing");
        return ExitCode::from(4);
    }
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut printed = Vec::with_capacity(declared.len());
    for m in declared {
        let Some(&(_, value)) = outcome.metrics.iter().find(|(n, _)| *n == m.name) else {
            eprintln!("perfbench: declared metric `{}` was not measured", m.name);
            return ExitCode::from(4);
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric `{}` is not a number ({value})", m.name);
            return ExitCode::from(4);
        }
        printed.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !declared.iter().any(|m| m.name == *n))
    {
        eprintln!("perfbench: measured metric `{extra}` is not declared in BENCHMARK.json");
        return ExitCode::from(4);
    }

    if let Some(tr) = &outcome.tracer {
        let path = format!("perfbench/out/trace-{name}-{}.json", args.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tr.chrome_json(TRACE_FILE_SPANS)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: wrote {} of {} spans to {path}",
                tr.spans().len().min(TRACE_FILE_SPANS),
                tr.spans().len()
            ),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }

    let mut info = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        one_line(&host_info().to_pretty()),
    );
    for (k, v) in &outcome.info {
        info.push_str(&format!(", \"{k}\": {v}"));
    }
    info.push('}');
    println!("{info}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        printed.join(", ")
    );
    ExitCode::SUCCESS
}

//! `wazi-perf`: the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how they interact.
//!
//! ```text
//! wazi-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//! wazi-perf                  every workload, each in its own process
//! wazi-perf --list           the benchmark's description (BENCHMARK.json)
//! wazi-perf --selfcheck      the untraced suite twice; fails beyond a bound
//! ```
//!
//! The last line of a workload's standard output is its result: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod direct;
mod harness;
mod host;
mod inputs;
mod layers;
mod oracle;
mod probes;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use harness::{Run, Workload};
use inputs::Common;

#[global_allocator]
static ALLOCATOR: sys::Counting = sys::Counting;

/// Spans written to a trace file; the rest are aggregated only.
const TRACE_FILE_SPANS: usize = 60_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    list: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::PINNED_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        scale: 1.0,
        list: false,
        selfcheck: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => args.seconds = parse(&value("a number")?)?,
            "--scale" => args.scale = parse(&value("a number")?)?,
            "--trace" => args.trace = parse::<u8>(&value("0 or 1")?)? != 0,
            "--list" => args.list = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name}; see --list"));
        }
    }
    if !(args.scale > 0.0 && args.seconds >= 0.0) {
        return Err("--scale must be positive and --seconds not negative".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(word: &str) -> Result<T, String> {
    word.parse()
        .map_err(|_| format!("cannot read {word:?} as a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wazi-perf: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.list {
        print!("{}", spec::benchmark_json());
        true
    } else if args.selfcheck {
        selfcheck(&args)
    } else if let Some(name) = &args.workload {
        run_workload(name, &args)
    } else {
        // Every workload runs, whether or not an earlier one failed.
        let mut all = true;
        for workload in &spec::WORKLOADS {
            all &= child(workload.name, &args, args.trace).is_some_and(|(ok, _)| ok);
        }
        all
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result. Returns whether
/// every answer was correct.
fn run_workload(name: &str, args: &Args) -> bool {
    let common = Common::generate(args.seed);
    let scale = args.scale;
    match name {
        "range_scan" => report(name, direct::RangeScan::new(&common, scale), &common, args),
        "point_probe" => report(name, direct::PointProbe::new(&common, scale), &common, args),
        "batch_fused" => report(name, batch::Batches::fused(&common, scale), &common, args),
        "batch_scattered" => report(
            name,
            batch::Batches::scattered(&common, scale),
            &common,
            args,
        ),
        "serve_solo" => report(name, serve::Frozen::solo(&common, scale), &common, args),
        "serve_inproc" => report(
            name,
            serve::Frozen::in_process(&common, scale),
            &common,
            args,
        ),
        "serve_tcp" => report(name, serve::Frozen::tcp(&common, scale), &common, args),
        "serve_rw" => report(name, serve::ReadWrite::new(&common, scale), &common, args),
        _ => unreachable!("parse_args checked the name"),
    }
}

fn report<W: Workload>(name: &str, mut workload: W, common: &Common, args: &Args) -> bool {
    let (generators, in_flight) = workload.load();
    let run = harness::drive(&mut workload, common, args.seconds, args.trace);

    let pinned = (args.seed == spec::PINNED_SEED && args.scale == 1.0).then(|| {
        let pin = spec::PINNED_DIGESTS.iter().find(|(w, _)| *w == name);
        pin.is_some_and(|(_, digest)| *digest == run.digest)
    });
    println!(
        "# wazi-perf {name} trace={} host={} trials={} calls={} inputs_digest={:#018x} digest_pinned={}",
        u8::from(args.trace),
        host::fingerprint(args.seed, args.scale, generators, in_flight),
        run.plain.len() + run.traced.len(),
        run.plain.iter().map(|t| t.calls_ns.len()).sum::<usize>(),
        run.digest,
        pinned.map_or("n/a".to_string(), |p| p.to_string()),
    );
    let rates: Vec<String> = run
        .plain
        .iter()
        .map(|t| format!("{:.4e}", t.ops_per_s()))
        .collect();
    println!("# trial ops_per_s: {}", rates.join(" "));
    if pinned == Some(false) {
        eprintln!("wazi-perf: the inputs of {name} at seed 7 are not the pinned ones; the generators changed");
    }

    let metrics = if args.trace {
        traced_metrics(name, &run)
    } else {
        end_to_end_metrics(&run)
    };
    let gates_hold = metrics
        .iter()
        .all(|(name, value, _)| *value == 0.0 || !spec::MUST_BE_ZERO.contains(name));
    let finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let correct = run.failed() == 0 && gates_hold && finite;
    for (name, value, unit) in &metrics {
        println!("# {name:<48} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted(),
        run.failed(),
        body.join(", ")
    );
    correct
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end_metrics(run: &Run) -> Metrics {
    let (p50, p99) = run.latency_us();
    let value = |name: &str| match name {
        "ops_per_s" => Run::ops_per_s(&run.plain),
        "latency_p50_us" => p50,
        "latency_p99_us" => p99,
        "peak_rss_mib" => run.peak_rss_mib,
        "index_bytes_per_point" => run.index_bytes_per_point,
        "setup_s" => run.setup_s,
        other => unreachable!("no definition for {other}"),
    };
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

/// Every per-layer metric, in the order of the table; writes the trace file.
fn traced_metrics(name: &str, run: &Run) -> Metrics {
    // One traced trial fills the file; the metrics aggregate all of them.
    let spans = run.traced.first().map_or(&[][..], |t| &t.spans);
    let path = trace_dir().join(format!("trace-{name}.json"));
    match trace::write_chrome(&path, spans, TRACE_FILE_SPANS) {
        Ok(()) => println!(
            "# trace: {} of the first traced trial's {} spans in {}",
            spans.len().min(TRACE_FILE_SPANS),
            spans.len(),
            path.display()
        ),
        Err(err) => eprintln!("wazi-perf: cannot write {}: {err}", path.display()),
    }
    let mut measured = layers::from_run(run);
    measured.extend(run.probes.iter().copied());
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let found = measured.iter().find(|(name, _)| *name == m.name);
            let (_, value) = found.unwrap_or_else(|| panic!("{} was not measured", m.name));
            (m.name, *value, m.unit)
        })
        .collect()
}

/// `<target dir>/wazi-perf`, beside the build that is running.
fn trace_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe.parent().and_then(|profile| profile.parent());
    target
        .unwrap_or(std::path::Path::new("."))
        .join("wazi-perf")
}

/// Runs one workload in a child process, echoing its output. Returns
/// whether it succeeded, and its result line.
fn child(name: &str, args: &Args, trace: bool) -> Option<(bool, String)> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{text}");
    let result = text.lines().last().unwrap_or_default().to_string();
    Some((output.status.success(), result))
}

/// The value of metric `name` in a result line.
fn metric_value(result: &str, name: &str) -> Option<f64> {
    let after = result.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    after.split([',', '}']).next()?.trim().parse().ok()
}

/// Runs the untraced suite twice back to back; fails if the second run of
/// any workload is worse than the first by more than a metric's bound.
fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    for workload in &spec::WORKLOADS {
        let runs: Vec<_> = (0..2)
            .filter_map(|_| child(workload.name, args, false))
            .collect();
        let [(first_ok, first), (second_ok, second)] = runs.as_slice() else {
            eprintln!("wazi-perf: could not run {}", workload.name);
            ok = false;
            continue;
        };
        ok &= *first_ok && *second_ok;
        for metric in &spec::END_TO_END {
            let values = metric_value(first, metric.name).zip(metric_value(second, metric.name));
            let Some((a, b)) = values else {
                eprintln!("wazi-perf: {} printed no {}", workload.name, metric.name);
                ok = false;
                continue;
            };
            let worse = stats::worse_by(a, b, metric.lower_is_better);
            let verdict = if worse <= metric.bound {
                "ok"
            } else {
                "BEYOND BOUND"
            };
            println!(
                "# selfcheck {:<16} {:<22} {a:>14.4} {b:>14.4} worse by {:>7.2}% (bound {:>4.0}%) {verdict}",
                workload.name,
                metric.name,
                worse * 100.0,
                metric.bound * 100.0
            );
            ok &= worse <= metric.bound;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": {"value": 1234.5, "unit": "1/s"}, "setup_s": {"value": 2.01, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "ops_per_s"), Some(1234.5));
        assert_eq!(metric_value(line, "setup_s"), Some(2.01));
        assert_eq!(metric_value(line, "latency_p50_us"), None);
    }
}

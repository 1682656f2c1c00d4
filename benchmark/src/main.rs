//! The repo benchmark.  See `benchmark/README.md`.
//!
//! ```text
//! dmbs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dmbs-benchmark --all | --selfcheck | --smoke | --emit-spec
//! ```
//!
//! The first form is the driver's contract: one workload, one process, the
//! result as one JSON object on the last line of stdout.  The parent modes
//! run that form in child processes, so every workload's peak RSS is its own.

mod batch;
mod checks;
mod common;
mod dist;
mod host;
mod json;
mod layers;
mod replay;
mod serve;
mod spec;
mod stats;
mod trace;

use common::{Args, Outcome};
use dmbs::sampling::LadiesSampler;
use spec::{END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode};

/// Rendezvous directory of the rank processes, relative to the repository
/// root so Unix-socket paths stay short and inside the checkout.
const SOCKET_TMPDIR: &str = "benchmark/out/tmp";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: dmbs-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      dmbs-benchmark --all [--seed <n>] [--seconds <s>]\n\
         \x20      dmbs-benchmark --selfcheck [--seed <n>] [--seconds <s>]\n\
         \x20      dmbs-benchmark --smoke\n\
         \x20      dmbs-benchmark --emit-spec",
        names.join("|")
    )
}

enum Mode {
    Workload(Args),
    All { seed: u64, seconds: f64 },
    Selfcheck { seed: u64, seconds: f64 },
    Smoke,
    EmitSpec,
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = f64::from(spec::RUN_SECONDS);
    let mut trace = false;
    let mut smoke = false;
    let mut flag = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--all" | "--selfcheck" | "--emit-spec" => flag = Some(arg.as_str()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    match (workload, flag) {
        (Some(workload), None) => {
            Ok(Mode::Workload(Args { workload, seed, seconds, trace, smoke }))
        }
        (None, Some("--all")) => Ok(Mode::All { seed, seconds }),
        (None, Some("--selfcheck")) => Ok(Mode::Selfcheck { seed, seconds }),
        (None, Some("--emit-spec")) => Ok(Mode::EmitSpec),
        (None, None) if smoke => Ok(Mode::Smoke),
        _ => Err(usage()),
    }
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let sizes = spec::sizes(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {}\n{}", args.workload, usage()))?;
    host::require_units(&args.workload, spec::runnable_units(&args.workload))?;
    match args.workload.as_str() {
        "sage_sample" => batch::run(args, &sizes, common::sage_sampler(&sizes), false),
        "sage_train" => batch::run(args, &sizes, common::sage_sampler(&sizes), true),
        "ladies_train" => {
            let sampler =
                LadiesSampler::new(spec::LADIES_LAYERS, sizes.ladies_s).with_previous_included();
            batch::run(args, &sizes, sampler, true)
        }
        "dist_train" => dist::run(args, &sizes),
        "serve_openloop" => serve::run(args, &sizes),
        _ => unreachable!("sizes() knows the workload"),
    }
}

/// Runs one workload in this process: host line, the workload's own report,
/// every metric by name with its unit, the full report as a file, and the
/// contract's result line last.
fn workload_main(args: &Args) -> Result<bool, String> {
    let out = common::out_dir()?;
    let host = host::Host::measure();
    println!(
        "workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace, args.smoke
    );
    println!("{}", host.describe());
    let outcome = run_workload(args)?;

    let emitted: Vec<(&str, &str)> = outcome.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    if emitted != spec::metric_names(args.trace) {
        return Err(format!("metrics {emitted:?} differ from the contract's"));
    }
    for (name, value, unit) in &outcome.metrics {
        print_metric(name, *value, unit);
    }
    let line =
        json::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics);
    let suffix = if args.trace { "-trace" } else { "" };
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"result\": {line}}}\n",
        json::quote(&args.workload),
        args.seed,
        json::number(args.seconds),
        args.trace,
        host.to_json()
    );
    std::fs::write(out.join(format!("result-{}{suffix}.json", args.workload)), report)
        .map_err(common::err)?;
    println!("{line}");
    Ok(outcome.correct)
}

/// Runs one workload in a child process and returns its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(common::err)?;
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace_flag = if trace { "1" } else { "0" };
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed]);
    command.args(["--seconds", &seconds, "--trace", trace_flag]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(common::err)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace={trace}) exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    stdout.lines().last().map(str::to_string).ok_or(format!("{workload} printed nothing"))
}

/// Checks a result line against the contract's schema: the four keys, and
/// exactly the expected metric names, each with a number.
fn check_schema(line: &str, trace: bool) -> Result<(), String> {
    for field in ["correct", "attempted", "failed"] {
        json::field_value(line, field).ok_or(format!("result line lacks {field}: {line}"))?;
    }
    if json::field_value(line, "correct").as_deref() != Some("true") {
        return Err(format!("result is not correct: {line}"));
    }
    let names = spec::metric_names(trace);
    for (name, _) in &names {
        let value =
            json::metric_value(line, name).ok_or(format!("metric {name} missing in {line}"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
    }
    if line.matches("\"value\":").count() != names.len() {
        return Err(format!("result line has extra metrics: {line}"));
    }
    Ok(())
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<32} {value:>18.9} {unit}");
}

fn print_line(workload: &str, line: &str, trace: bool) {
    println!("== {workload}{}", if trace { " (traced)" } else { "" });
    for (name, unit) in spec::metric_names(trace) {
        if let Some(value) = json::metric_value(line, name) {
            print_metric(name, value, unit);
        }
    }
}

fn all(seed: u64, seconds: f64) -> Result<(), String> {
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let line = child(workload, seed, seconds, trace, false)?;
            check_schema(&line, trace)?;
            print_line(workload, &line, trace);
        }
    }
    Ok(())
}

/// Runs the whole untraced set twice, the second time in reverse order, and
/// compares every workload × end-to-end metric against its bound.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut first = Vec::new();
    for (workload, _) in WORKLOADS {
        first.push(child(workload, seed, seconds, false, false)?);
    }
    let mut second = Vec::new();
    for (workload, _) in WORKLOADS.iter().rev() {
        second.push(child(workload, seed, seconds, false, false)?);
    }
    second.reverse();
    let mut resolved = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "rel diff", "bound"
    );
    for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let a = json::metric_value(&first[i], m.name).ok_or("missing metric")?;
            let b = json::metric_value(&second[i], m.name).ok_or("missing metric")?;
            let diff = if a == b { 0.0 } else { (a - b).abs() / a.abs().min(b.abs()) };
            let verdict = if diff <= m.bound { "PASS" } else { "UNRESOLVED" };
            resolved &= diff <= m.bound;
            println!(
                "{workload:<16} {:<20} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(resolved)
}

/// Every workload, traced and untraced, at smoke scale; the schema of every
/// result line; and that `BENCHMARK.json` is what the tables generate.
fn smoke() -> Result<(), String> {
    let committed = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    if committed != spec::benchmark_json() {
        return Err("BENCHMARK.json differs from `dmbs-benchmark --emit-spec`".to_string());
    }
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let line = child(workload, 1, 0.0, trace, true)?;
            check_schema(&line, trace)?;
            println!("smoke {workload} trace={} ok", u8::from(trace));
        }
        let trace_file = common::out_dir()?.join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&trace_file).map_err(common::err)?;
        if !text.starts_with("{\"traceEvents\":[") || !text.trim_end().ends_with("]}") {
            return Err(format!("{} is not a Chrome trace", trace_file.display()));
        }
    }
    println!("smoke: all workloads, checks, trace files and the JSON schema ok");
    Ok(())
}

fn main() -> ExitCode {
    // Rank processes rendezvous under `std::env::temp_dir()`; keep that in
    // the checkout.  Set before any thread exists.
    std::env::set_var("TMPDIR", SOCKET_TMPDIR);
    // A rank process re-executing this binary never returns from here.
    dmbs::comm::run_if_worker(&dist::registry());

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|mode| match mode {
        Mode::EmitSpec => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Mode::Workload(args) => {
            std::fs::create_dir_all(SOCKET_TMPDIR).map_err(common::err)?;
            workload_main(&args)
        }
        Mode::All { seed, seconds } => all(seed, seconds).map(|()| true),
        Mode::Selfcheck { seed, seconds } => selfcheck(seed, seconds),
        Mode::Smoke => smoke().map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dmbs-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

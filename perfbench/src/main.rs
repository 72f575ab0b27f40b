//! The repository benchmark: end-to-end and per-layer numbers for the
//! append-memory workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|finality|serve|modelcheck|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced for about `--seconds` and
//! prints every end-to-end metric. `--trace 1` prints every per-layer
//! metric: a fixed-size traced pass of each workload, with spans around
//! the benchmark's calls into each crate, plus the named workload's
//! tracing overhead against an untraced epoch. The last line of
//! standard output is the JSON result; the exit code is 0 only when
//! every output check passed. `--workload all` runs each workload in a
//! child process of its own, one after another.

mod finality;
mod harness;
mod modelcheck;
mod report;
mod serve;
mod shapes;
mod sweep;
mod trace;

use harness::{Accounting, EndToEnd, Layers};
use report::{describe, result_line, Metric, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["sweep", "finality", "serve", "modelcheck"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a u64".to_string())?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn end_to_end(workload: &str, seed: u64, seconds: f64) -> EndToEnd {
    match workload {
        "sweep" => sweep::end_to_end(seed, seconds),
        "finality" => finality::end_to_end(seed, seconds),
        "serve" => serve::end_to_end(seed, seconds),
        "modelcheck" => modelcheck::end_to_end(seed, seconds),
        _ => unreachable!("workload names are checked in parse"),
    }
}

fn layers(workload: &str, seed: u64, tr: &mut Tracer) -> Layers {
    match workload {
        "sweep" => sweep::layers(seed, tr),
        "finality" => finality::layers(seed, tr),
        "serve" => serve::layers(seed, tr),
        "modelcheck" => modelcheck::layers(seed, tr),
        _ => unreachable!("workload names are checked in parse"),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: every end-to-end metric.
fn run_untraced(a: &Args) -> (Vec<Metric>, Accounting, String) {
    let e = end_to_end(&a.workload, a.seed, a.seconds);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("per epoch, setup_s: {}", list(&e.setup_s));
    println!("per epoch, ops_per_s: {}", list(&e.rates));
    let mut m = e.metrics();
    m.insert(1, Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
    let digest = format!("{:#018x}", e.digest.unwrap_or(0));
    (m, e.acct, digest)
}

/// The traced run: a traced pass of every workload, and the named
/// workload's tracing overhead. Its traced pass sits between two
/// untraced epochs of the same inputs, so a drift in host speed during
/// the three cancels to first order.
fn run_traced(a: &Args) -> (Vec<Metric>, Accounting, String) {
    let mut acct = Accounting::default();
    let mut tr = Tracer::new();
    let mut metrics = Vec::new();
    let untraced = |acct: &mut Accounting| {
        let mut e = end_to_end(&a.workload, a.seed, 0.0);
        acct.absorb(std::mem::take(&mut e.acct));
        (e.rates[0], e.digest)
    };
    let (before, digest_u) = untraced(&mut acct);
    let named = layers(&a.workload, a.seed, &mut tr);
    let (after, _) = untraced(&mut acct);
    let rate_u = (before + after) / 2.0;
    let overhead = (rate_u - named.rate) / rate_u * 100.0;
    if digest_u != Some(named.digest) {
        acct.broke(0, "traced outputs differ from untraced outputs".into());
    }
    let digest = format!("{:#018x}", named.digest);
    let mut passes = vec![named];
    for w in WORKLOADS.into_iter().filter(|w| *w != a.workload) {
        passes.push(layers(w, a.seed, &mut tr));
    }
    for l in passes {
        metrics.extend(l.metrics);
        acct.absorb(l.acct);
    }
    metrics.push(Metric::new("obs.trace_overhead_pct", "%", overhead));
    for (layer, s) in tr.self_seconds() {
        metrics.push(Metric::new(format!("trace.self_s.{layer}"), "s", s));
    }
    write_spans(a, &tr);
    (metrics, acct, digest)
}

/// Writes the spans and counts of a traced run under `perfbench/out/`.
fn write_spans(a: &Args, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json_lines()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Orders `metrics` as `table` lists them and checks that both hold the
/// same names and units.
fn in_table_order(mut metrics: Vec<Metric>, table: &[(&str, &str)]) -> Vec<Metric> {
    assert_eq!(metrics.len(), table.len(), "metric count");
    let pos = |m: &Metric| table.iter().position(|(n, _)| *n == m.name);
    for m in &metrics {
        let i = pos(m).unwrap_or_else(|| panic!("{} is not in the table", m.name));
        assert_eq!(table[i].1, m.unit, "unit of {}", m.name);
    }
    metrics.sort_by_key(|m| pos(m));
    metrics
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status()
            .expect("start a workload process");
        ok &= status.success();
    }
    println!("{{\"all_workloads_passed\": {ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let (metrics, acct, digest) = if a.trace {
        let (m, acct, d) = run_traced(&a);
        (in_table_order(m, &PER_LAYER), acct, d)
    } else {
        let (m, acct, d) = run_untraced(&a);
        (in_table_order(m, &END_TO_END), acct, d)
    };
    let correct = acct.broken.is_empty() && acct.failed == 0;
    println!(
        "workload {} seed {} trace {}: output digest {digest}",
        a.workload, a.seed, a.trace as u8
    );
    print!("{}", describe(&metrics));
    for b in &acct.broken {
        println!("CHECK FAILED: {b}");
    }
    println!(
        "{}",
        result_line(correct, acct.attempted, acct.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `sheriff-benchmark`: end-to-end and per-layer benchmark of the
//! Sheriff fabric runtime. See README.md for the workloads, metrics and
//! trace format.
//!
//! ```text
//! sheriff-benchmark --workload NAME[,NAME...] | --spec FILE
//!                   [--seed N] [--seconds S] [--trace 0|1] [--chrome-trace FILE]
//! ```
//!
//! Prints one JSON result line per workload on stdout (the last line is
//! the last workload's): `correct`, `attempted`, `failed` and `metrics`,
//! the end-to-end metrics with `--trace 0` and the per-layer metrics
//! with `--trace 1`. Warnings and errors go to stderr. Exits 1 when a
//! run is not correct, 2 on bad arguments.

mod heap;
mod reference;
mod run;
mod trace;
mod workload;

use run::{Metric, Options, RunResult};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: sheriff-benchmark --workload NAME[,NAME...] | --spec FILE \
                     [--seed N] [--seconds S] [--trace 0|1] [--chrome-trace FILE]";

struct Args {
    workloads: Vec<Workload>,
    opts: Options,
    chrome_trace: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut chrome_trace = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                for name in value()?.split(',') {
                    workloads.push(Workload::builtin(name)?);
                }
            }
            "--spec" => workloads.push(Workload::load(&PathBuf::from(value()?))?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = s;
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--chrome-trace" => chrome_trace = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        return Err("no workload given".into());
    }
    if chrome_trace.is_some() && !opts.traced {
        return Err("--chrome-trace needs --trace 1".into());
    }
    Ok(Args {
        workloads,
        opts,
        chrome_trace,
    })
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &RunResult, metrics: &[Metric], correct: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted(),
        r.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in &args.workloads {
        let mut r = match run::run(w, &args.opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        for (seed, t, aborted) in r.capped_rounds() {
            eprintln!(
                "warning: {}: cluster seed {seed} round {t} hit the fabric's max_ticks \
                 backstop ({} ticks); {aborted} transactions aborted",
                r.workload, r.max_ticks
            );
        }
        let metrics = if args.opts.traced {
            r.per_layer()
        } else {
            r.end_to_end()
        };
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            r.errors.push(format!("metric {} is not finite", m.name));
        }
        let metrics: Vec<Metric> = metrics
            .into_iter()
            .map(|m| Metric {
                value: if m.value.is_finite() { m.value } else { 0.0 },
                ..m
            })
            .collect();
        for e in &r.errors {
            eprintln!("error: {}: {e}", r.workload);
        }
        eprintln!(
            "{}: seed {} (cluster seeds {:?}), {} set-ups ({} batches), {} episodes of {} rounds, \
             {} reference samples",
            r.workload,
            args.opts.seed,
            r.cluster_seeds,
            r.setups.len(),
            r.setup_batches.len(),
            r.episodes.len(),
            r.rounds_per_episode,
            r.reference.samples().len()
        );
        let correct = r.errors.is_empty();
        all_correct &= correct;
        println!("{}", result_json(&r, &metrics, correct));
        results.push(r);
    }
    if let Some(path) = &args.chrome_trace {
        let lanes: Vec<(String, &trace::SpanLog)> = results
            .iter()
            .map(|r| (r.workload.clone(), &r.log))
            .collect();
        if let Err(e) = std::fs::write(path, trace::chrome_trace(&lanes)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

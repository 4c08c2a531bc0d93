//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <reuse-public|splice-scale|warm-service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! number of seconds, checks every answer against an independent
//! reference, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics`. Untraced
//! (`--trace 0`) the metrics are the end-to-end ones; traced
//! (`--trace 1`) they are the per-layer ones, and the spans are written
//! to `.perfbench-out/`. See `perfbench/README.md` for what each
//! workload and metric is for.

mod cold;
mod gate;
mod pipeline;
mod setup;
mod stats;
mod trace;
mod warm;

use gate::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics (untraced run), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units. A layer that does not
/// run in a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.repo_ms", "ms"),
    ("setup.cache_ms", "ms"),
    ("setup.warm_fill_ms", "ms"),
    ("buildcache.entries", "count"),
    ("buildcache.reusable_specs", "count"),
    ("encode.ms", "ms"),
    ("encode.bytes", "bytes"),
    ("parse.ms", "ms"),
    ("parse.rules", "count"),
    ("ground.ms", "ms"),
    ("ground.atoms", "count"),
    ("ground.rules", "count"),
    ("translate.ms", "ms"),
    ("translate.sat_vars", "count"),
    ("preprocess.ms", "ms"),
    ("preprocess.fixed_literals", "count"),
    ("preprocess.failed_literals", "count"),
    ("preprocess.eliminated_vars", "count"),
    ("preprocess.search_ms_saved", "ms"),
    ("search.ms", "ms"),
    ("search.conflicts", "count"),
    ("search.decisions", "count"),
    ("search.propagations", "count"),
    ("search.optimize_probes", "count"),
    ("search.stability_restarts", "count"),
    ("interpret.ms", "ms"),
    ("interpret.spliced", "count"),
    ("install.ms", "ms"),
    ("install.builds", "count"),
    ("install.binary_installs", "count"),
    ("install.rewired", "count"),
    ("install.verify_errors", "count"),
    ("ground_cache.hit_rate", "ratio"),
    ("ground_cache.entries", "count"),
    ("ground_cache.invalidated", "count"),
    ("ground_cache.retained", "count"),
    ("ground_cache.salvaged", "count"),
    ("server.handle_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.update_ms", "ms"),
    ("server.failures", "count"),
    ("server.shed", "count"),
    ("trace.self_time_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("error_rate", "ratio"),
];

/// What one workload run measured.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    pub trace: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report, table: &[(&str, &str)]) -> String {
    let measured: BTreeMap<&str, f64> = report.metrics.iter().copied().collect();
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = measured.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let t = report.tally;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        t.attempted > 0 && t.failed == 0,
        t.attempted,
        t.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "reuse-public" => cold::run(&cold::REUSE_PUBLIC, args.seed, args.seconds, args.trace),
        "splice-scale" => cold::run(&cold::SPLICE_SCALE, args.seed, args.seconds, args.trace),
        "warm-service" => match warm::run(args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: warm-service: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        for (name, _) in END_TO_END {
            assert!(
                report.metrics.iter().any(|(n, _)| n == name),
                "workload did not measure {name}"
            );
        }
    }
    if let Some(tr) = &report.trace {
        let path = format!(
            ".perfbench-out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        match tr.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("perfbench: {} spans written to {path}", tr.spans().len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    eprintln!(
        "perfbench: {} attempted, {} failed (error_rate {})",
        report.tally.attempted,
        report.tally.failed,
        report.tally.error_rate()
    );
    println!("{}", result_line(&report, table));
    ExitCode::SUCCESS
}

//! The repo's benchmark. Three ways in:
//!
//! ```text
//! gossip-ledger --workload <name> --seed <u64> [--seconds <s>] --trace <0|1>
//! gossip-ledger all [--seed <u64>] [--trace] [--out <file>]
//! gossip-ledger compare <a.json>... [vs <b.json>...]
//! ```
//!
//! The first runs one workload in this process and prints its metrics, the
//! last line being the result object `BENCHMARK.json`'s contract asks for.
//! `all` runs every workload that way for its fixed cycle count, each in its
//! own child process and one at a time, so `peak_rss_mb` is per workload.
//! `compare` holds sets of `all` against each other: the sets before `vs`
//! are side a, those after it side b; without `vs` the last file is b. See
//! `README.md`.

mod compare;
mod drive;
mod json;
mod measure;
mod report;

use json::{obj, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 20040102;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("gossip-ledger: {why}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// `benchmark/`, wherever the command is run from.
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one workload in this process. `Ok(false)` when its gate failed.
fn one(args: &[String]) -> Result<bool, String> {
    let workload: String = flag(args, "--workload")?.ok_or("--workload <name> is required")?;
    let seed = flag(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: Option<f64> = flag(args, "--seconds")?;
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;

    let mut spans = measure::Spans::new(traced);
    let outcome = drive::run(&workload, seed, seconds, &mut spans)?;
    let metrics = match &outcome.layers {
        Some(layers) => {
            let probes = drive::probes(seed, &mut spans);
            let dir = home().join("out");
            std::fs::create_dir_all(&dir)
                .and_then(|()| {
                    std::fs::write(
                        dir.join(format!("trace-{workload}.jsonl")),
                        spans.to_jsonl(),
                    )
                })
                .map_err(|e| format!("writing the span trace: {e}"))?;
            report::per_layer(&outcome, layers, &probes, spans.all().len())
        }
        None => report::end_to_end(&outcome),
    };
    report::print(&workload, seed, seconds.is_none(), &outcome, &metrics);
    Ok(outcome.gate.is_ok())
}

/// Runs every workload, each in its own child process, one after the other,
/// and writes the set to `--out`.
fn all(args: &[String]) -> Result<bool, String> {
    let seed = flag(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let traced = args.iter().any(|a| a == "--trace");
    let out: PathBuf = flag(args, "--out")?.unwrap_or_else(|| {
        home().join("out").join(if traced {
            "set-traced.json"
        } else {
            "set.json"
        })
    });
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut passed = true;
    let mut workloads = Vec::new();
    for (workload, _) in drive::WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        passed &= output.status.success();
        let result = stdout.lines().last().map(json::parse);
        let info = stdout
            .lines()
            .find_map(|l| l.strip_prefix("info "))
            .map(json::parse);
        match (result, info) {
            (Some(Ok(result)), Some(Ok(info))) => workloads.push(format!(
                "\"{workload}\": {}",
                obj([("result", result), ("info", info)]).render()
            )),
            _ => return Err(format!("{workload} printed no result")),
        }
    }
    // One workload per line keeps the committed baselines diffable.
    let text = format!(
        "{{\"schema\": \"gossip-ledger/v1\", \"seed\": \"{seed}\", \"traced\": {traced}, \"workloads\": {{\n{}\n}}}}\n",
        workloads.join(",\n")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("set written to {}", out.display());
    Ok(passed)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let split = match args.iter().position(|a| a == "vs") {
        Some(at) => at,
        None => args.len().saturating_sub(1),
    };
    let a: Vec<Value> = args[..split].iter().map(load).collect::<Result<_, _>>()?;
    let b: Vec<Value> = args[split..]
        .iter()
        .filter(|path| *path != "vs")
        .map(load)
        .collect::<Result<_, _>>()?;
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one result set on each side".into());
    }
    let bounds = home().join("../BENCHMARK.json").display().to_string();
    let (table, worse) = compare::compare(&a, &b, &load(&bounds)?);
    print!("{table}");
    Ok(worse == 0)
}

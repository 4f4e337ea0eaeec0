//! The repository benchmark: one run of one workload.
//!
//! ```text
//! falcon-perfbench --workload <match_only|block_match|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> --tmp <dir>
//! ```
//!
//! Prints one provenance line and, last, one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics of untraced runs;
//! with `--trace 1` it holds the per-layer metrics of a traced run made
//! beside an untraced one. `perfbench/README.md` explains the workloads
//! and metrics; `perfbench/run.py` builds and runs this binary.

mod alloc;
mod pipeline;
mod trace;
mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::collections::BTreeMap;
use std::time::Duration;

struct Args {
    workload: workload::Kind,
    seed: u64,
    seconds: Duration,
    trace: bool,
    tmp: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key} <value>"))
    };
    let workload = workload::Kind::parse(get("--workload")?)?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        tmp: get("--tmp")?.into(),
    })
}

/// A JSON number: finite values with every digit Rust's shortest
/// round-trip formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("falcon-perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let out = workload::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &args.tmp,
    );

    let prov: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));

    let mut finite = true;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            finite &= v.is_finite();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            )
        })
        .collect();
    let failed = out.failed + usize::from(!finite);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    std::process::ExitCode::SUCCESS
}

/// What one run reports.
pub struct Outcome {
    pub provenance: BTreeMap<String, String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
}

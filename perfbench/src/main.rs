//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <apps_rtime|apps_ralloc|runtime_phased> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints log lines (each starting with `#`) and, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! with code 1 when a correctness check failed and 2 on a usage error.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use cs_core::SelectionRule;
use cs_perfbench::report::{mib, Metric, Report};
use cs_perfbench::stats::{median, ratio};
use cs_perfbench::trace::SpanLog;
use cs_perfbench::{apps, runtime, END_TO_END, PER_LAYER, WORKLOADS};
use cs_telemetry::Json;

/// Extra processes that each repeat set-up, so `setup_s` is a median that
/// includes per-process first-use costs (the default models' `OnceLock`s).
const SETUP_PROBES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run set-up only and print its duration (used by the set-up probes).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    args.trace = trace.unwrap_or(false);
    Ok(args)
}

fn rule_of(workload: &str) -> SelectionRule {
    if workload == "apps_ralloc" {
        SelectionRule::r_alloc()
    } else {
        SelectionRule::r_time()
    }
}

enum Prepared {
    Apps(Vec<cs_workloads::AppSpec>),
    Runtime(Box<runtime::State>),
}

/// Everything that happens before the first timed op.
fn setup(workload: &str, seed: u64) -> Prepared {
    if workload == "runtime_phased" {
        Prepared::Runtime(Box::new(runtime::setup(seed)))
    } else {
        Prepared::Apps(apps::setup(&rule_of(workload), seed))
    }
}

/// Re-runs set-up in [`SETUP_PROBES`] fresh processes, one after another,
/// and returns the durations they report.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed {text:?}: {e}"))
        })
        .collect()
}

/// The commit the checkout was made from when it is a git work tree;
/// otherwise an FNV-1a digest of the sources the benchmark builds.
fn source_rev() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = Command::new("git").args(["rev-parse", "HEAD"]).output() {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prepared = setup(&args.workload, args.seed);
    let setup_s = started.elapsed().as_secs_f64();
    if args.setup_probe {
        println!("{setup_s}");
        return ExitCode::SUCCESS;
    }

    let mut report = Report::default();
    let log: Option<SpanLog> = match prepared {
        Prepared::Apps(specs) => apps::run(
            &specs,
            &rule_of(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        Prepared::Runtime(state) => runtime::run(*state, args.seconds, args.trace, &mut report),
    };
    let peak_rss_mb = mib(cs_heap::peak_rss_bytes() as f64);
    let failed_ratio = ratio(report.failed as f64, report.attempted as f64);

    if args.trace {
        report.metric(
            "failed_ratio",
            failed_ratio,
            "ratio",
            report.attempted as usize,
        );
    } else {
        let mut setups = match probe_setups(&args) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        setups.push(setup_s);
        report.metric("setup_s", median(&setups), "s", setups.len());
        report.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
        report.log.push(format!(
            "# failed_ratio {failed_ratio} ({} of {} checks); setup_s samples {setups:?}",
            report.failed, report.attempted
        ));
    }

    // Every listed metric, in list order; a workload that does not exercise
    // a layer reports 0 for it.
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in &report.metrics {
        assert!(
            listed.contains(&(m.name, m.unit)),
            "metric {} [{}] is not in the benchmark's list",
            m.name,
            m.unit
        );
    }
    report.metrics = listed
        .iter()
        .map(
            |&(name, unit)| match report.metrics.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None if args.trace => Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                },
                None => panic!("end-to-end metric {name} was not measured"),
            },
        )
        .collect();

    let stamp = report.params.iter().fold(
        Json::object()
            .field("workload", args.workload.as_str())
            .field("seed", args.seed)
            .field("seconds", args.seconds)
            .field("trace", args.trace)
            .field(
                "hw_threads",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field("rev", source_rev()),
        |obj, (key, value)| obj.field(*key, value.clone()),
    );
    println!("# stamp {}", stamp.render());
    for line in &report.log {
        println!("{line}");
    }
    if let Some(log) = &log {
        print!("{}", log.self_time_table());
        let path = Path::new(".bench_trace").join(format!("{}.tsv", args.workload));
        match log.write_tsv(&path) {
            Ok(()) => println!("# {} spans written to {}", log.spans.len(), path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    for m in &report.metrics {
        println!(
            "# metric {:<34} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", report.result_json().render());
    if report.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

//! The quasi-id repository benchmark.
//!
//! Generates seeded covtype-shaped inputs, spawns the release
//! `qid serve` with pinned flags, drives it closed loop from at most two
//! client threads and two connections, verifies every answer against
//! the library, and prints every metric by name and unit. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). See `perfbench/README.md`.

mod data;
mod layers;
mod served;
mod stats;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::WORKLOADS;

/// The end-to-end metric names and units, in report order: the ones
/// every workload's own window measures.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("check_p50_us", "us"),
    ("server_cpu_us_per_op", "us"),
    ("server_rss_mb", "MB"),
];

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind a percentile or a median.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

#[derive(Clone)]
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub qid: PathBuf,
    pub smoke: bool,
    root: PathBuf,
}

impl Args {
    /// Per-run scratch space for the generated inputs, removed after.
    pub fn work_dir(&self, workload: &str) -> PathBuf {
        self.root.join(".bench_work").join(format!(
            "{workload}-seed{}-{}",
            self.seed,
            std::process::id()
        ))
    }

    /// Where traced runs write their spans.
    pub fn trace_dir(&self) -> PathBuf {
        self.root.join(".bench_work").join("traces")
    }
}

const USAGE: &str = "usage: qid-perfbench --qid <path to qid> \
     (--workload <check_hot|compute_bound|registry_churn|all> --seed <n> --seconds <s> --trace <0|1> | --smoke)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        qid: PathBuf::new(),
        smoke: false,
        root: std::env::current_dir().map_err(|e| format!("current dir: {e}"))?,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--qid" => args.qid = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.qid.is_file() {
        return Err(format!("--qid {} is not a file", args.qid.display()));
    }
    if !args.smoke && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Prints the human report and the JSON result line.
fn print_report(name: &str, args: &Args, run: &workload::RunResult) {
    let metrics = if args.trace { &run.layers } else { &run.e2e };
    println!(
        "# {name}: seed {} seconds {} trace {} ({} ops attempted, {} failed)",
        args.seed, args.seconds, args.trace as u8, run.attempted, run.failed
    );
    let extra = if args.trace { &[][..] } else { &run.extra[..] };
    for m in metrics.iter().chain(extra) {
        match m.samples {
            Some(n) => println!("{} = {} {} (n={n})", m.name, m.value, m.unit),
            None => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    for note in &run.notes {
        println!("# {note}");
    }
    for w in run.wrong.iter().take(10) {
        eprintln!("perfbench: WRONG ANSWER: {w}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no infinity: a failed op's latency reads as the
            // largest finite number.
            let v = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.wrong.is_empty(),
        run.attempted,
        run.failed,
        body.join(",")
    );
}

/// Runs every workload at small size, both untraced and traced, and
/// checks that each prints exactly the metrics `BENCHMARK.json` names,
/// with their units, and that nothing failed.
fn smoke(args: &mut Args) -> Result<(), String> {
    let path = args.root.join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let spec = qid_server::json::parse(&text)?;
    let listed = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(|v| v.as_arr())
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("malformed {key} entry"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if listed("end_to_end")? != own(END_TO_END) || listed("per_layer")? != own(layers::PER_LAYER) {
        return Err("BENCHMARK.json and the benchmark disagree on the metric list".to_string());
    }
    for name in WORKLOADS {
        for trace in [false, true] {
            args.trace = trace;
            args.seconds = match name {
                "compute_bound" => 10.0,
                "registry_churn" => 20.0,
                _ => 1.0,
            };
            let run = workload::run(name, args)?;
            print_report(name, args, &run);
            let metrics = if trace { &run.layers } else { &run.e2e };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let want = if trace {
                own(layers::PER_LAYER)
            } else {
                own(END_TO_END)
            };
            if printed != want {
                return Err(format!(
                    "{name} (trace {trace}) printed {printed:?}, expected {want:?}"
                ));
            }
            if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{name}: {} is not finite", bad.name));
            }
            if run.failed != 0 || !run.wrong.is_empty() {
                return Err(format!(
                    "{name}: failed_ratio is {} of {}",
                    run.failed, run.attempted
                ));
            }
        }
    }
    println!("# smoke: every workload printed every metric with its unit; failed_ratio 0");
    Ok(())
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke(&mut args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut code = ExitCode::SUCCESS;
    for name in names {
        match workload::run(name, &args) {
            Ok(run) => {
                print_report(name, &args, &run);
                if !run.wrong.is_empty() {
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

//! `aib-e2e` — the end-to-end benchmark of the Adaptive Index Buffer engine.
//!
//! ```text
//! aib-e2e run     --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--quick]
//! aib-e2e all     [--seed n] [--seconds s] [--repeat n] [--quick] [--out file.json]
//! aib-e2e compare <a.json> <b.json>
//! aib-e2e manifest                      (prints BENCHMARK.json from the registry)
//! ```
//!
//! `run` prints every metric by name with its unit and ends with the one
//! JSON line the driver reads. See `README.md` beside this crate.

mod bench;
mod compare;
mod json;
mod metrics;
mod oracle;
mod provenance;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{metrics_json, run_traced, run_untraced, write_file, Options, Outcome};
use json::Json;
use metrics::{unit_of, Bound, CONTENTION, END_TO_END, PER_LAYER};
use stats::{median, quartile_spread, ratio};
use workload::Workload;

/// `--seconds` when the caller gives none: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number")?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => parsed.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => parsed.files.push(file.to_string()),
        }
    }
    Ok(parsed)
}

/// `<target dir>/e2e`: beside the build, so inside the checkout and
/// git-ignored with it.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(|p| p.parent()).map(|p| p.join("e2e")))
        .unwrap_or_else(|| PathBuf::from("target/e2e"))
}

fn options(args: &Args, workload: Workload) -> Options {
    let out_dir = out_dir();
    Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
    }
}

/// Runs `f` with a scratch directory that is gone afterwards, whatever `f`
/// returned.
fn with_work_dir<T>(
    opts: &Options,
    f: impl FnOnce(&Options) -> Result<T, String>,
) -> Result<T, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let out = f(opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    out
}

fn print_table(outcome: &Outcome, traced: bool) {
    let plan = &outcome.plan;
    println!(
        "workload {}  seed {}  rows {}  clients {}  ops/client {}  {}{}",
        plan.workload.name(),
        plan.seed,
        plan.rows,
        plan.clients,
        plan.ops_per_client,
        if traced { "traced" } else { "untraced" },
        if plan.quick { "  QUICK" } else { "" }
    );
    for (name, value) in &outcome.values {
        println!("  {name:<36} {value:>16.4} {}", unit_of(name));
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!("  samples: {}", samples.join(", "));
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every gated end-to-end metric of an untraced run, every
/// per-layer metric of a traced one.
fn contract_line(outcome: &Outcome, traced: bool) -> String {
    let values: metrics::Values = if traced {
        outcome.values.clone()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.gated)
            .filter_map(|m| metrics::get(&outcome.values, m.name).map(|v| (m.name, v)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&values)),
    ])
    .compact()
}

fn cmd_run(args: &Args, traced: bool) -> Result<(), String> {
    let workload = args
        .workload
        .ok_or("run needs --workload <shift|read_mix|write_durable|mixed>")?;
    let opts = options(args, workload);
    let outcome = with_work_dir(&opts, |o| {
        if traced {
            run_traced(o)
        } else {
            run_untraced(o)
        }
    })?;
    print_table(&outcome, traced);
    println!("{}", contract_line(&outcome, traced));
    Ok(())
}

fn sizes_json(outcome: &Outcome) -> Json {
    let plan = &outcome.plan;
    Json::obj([
        ("rows", Json::Num(plan.rows as f64)),
        ("domain", Json::Num(plan.domain as f64)),
        ("clients", Json::Num(plan.clients as f64)),
        ("ops_per_client", Json::Num(plan.ops_per_client as f64)),
        (
            "warmup_ops_per_client",
            Json::Num(plan.warmup_per_client as f64),
        ),
        ("est_pages", Json::Num(plan.est_pages as f64)),
        (
            "stream_hash",
            Json::str(format!("{:016x}", outcome.stream_hash)),
        ),
    ])
}

/// All four workloads, untraced (`--repeat` times) and traced, into one
/// results file with provenance.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let opts = options(args, workload);
        let mut runs = Vec::with_capacity(args.repeat);
        for _ in 0..args.repeat {
            let outcome = with_work_dir(&opts, run_untraced)?;
            print_table(&outcome, false);
            runs.push(outcome);
        }
        let traced = with_work_dir(&opts, run_traced)?;
        print_table(&traced, true);
        all_correct &= traced.correct && runs.iter().all(|r| r.correct);

        // Per metric: the median over the repetitions, every run's value,
        // and their quartile spread.
        let end_to_end = Json::obj(END_TO_END.iter().filter(|m| (m.on)(workload)).map(|m| {
            let per_run: Vec<f64> = runs
                .iter()
                .filter_map(|r| metrics::get(&r.values, m.name))
                .collect();
            let mut entry = vec![
                ("value".to_string(), Json::Num(median(&per_run))),
                ("unit".to_string(), Json::str(m.unit)),
                ("better".to_string(), Json::str(m.better.word())),
                (
                    "bound".to_string(),
                    match m.bound {
                        Bound::Share(share) => Json::Num(share),
                        Bound::Exact => Json::str("exact"),
                        Bound::Zero => Json::str("zero"),
                    },
                ),
            ];
            if per_run.len() > 1 {
                entry.push((
                    "runs".into(),
                    Json::Arr(per_run.iter().map(|v| Json::Num(*v)).collect()),
                ));
                entry.push((
                    "spread".into(),
                    quartile_spread(&per_run).map_or(Json::Null, Json::Num),
                ));
            }
            (m.name, Json::Obj(entry))
        }));
        let first = &runs[0];
        let untraced_p50 = median(&runs.iter().map(|r| r.op_p50_us).collect::<Vec<_>>());
        let mut per_layer = traced.values.clone();
        per_layer.push((CONTENTION.name, ratio(untraced_p50, traced.op_p50_us)));
        let per_layer_json = metrics_json(&per_layer);
        workloads.push((
            workload.name(),
            Json::obj([
                ("sizes", sizes_json(first)),
                (
                    "engine_config",
                    Json::str(format!("{:?}", first.plan.engine_config())),
                ),
                (
                    "correct",
                    Json::Bool(traced.correct && runs.iter().all(|r| r.correct)),
                ),
                (
                    "attempted",
                    Json::Num(runs.iter().map(|r| r.attempted).sum::<u64>() as f64),
                ),
                (
                    "failed",
                    Json::Num(runs.iter().map(|r| r.failed).sum::<u64>() as f64),
                ),
                ("end_to_end", end_to_end),
                (
                    "samples",
                    Json::obj(first.samples.iter().map(|(n, v)| (*n, Json::Num(*v)))),
                ),
                ("per_layer", per_layer_json),
                (
                    "traced_samples",
                    Json::obj(traced.samples.iter().map(|(n, v)| (*n, Json::Num(*v)))),
                ),
                (
                    "notes",
                    Json::Arr(traced.notes.iter().map(Json::str).collect()),
                ),
            ]),
        ));
    }
    let results = Json::obj([
        ("tool", Json::str("aib-e2e")),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("provenance", provenance::stamp()),
        ("workloads", Json::obj(workloads)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(if args.quick {
            "results-quick.json"
        } else {
            "results.json"
        })
    });
    write_file(&path, &results.pretty())?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// `BENCHMARK.json`, generated from the metric registry so that the file and
/// the binary cannot drift apart (a unit test compares them).
fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().copied().map(Json::str).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "e2e/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["e2e"])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.gated)
                    .map(|m| {
                        let Bound::Share(bound) = m.bound else {
                            unreachable!("gated metrics have share bounds")
                        };
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: aib-e2e <run|all|compare> ... (see e2e/README.md)");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args, args.trace).map(|()| true),
        "all" => cmd_all(&args),
        "manifest" => {
            print!("{}", manifest().pretty());
            Ok(true)
        }
        "compare" => match args.files.as_slice() {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare needs two results files".into()),
        },
        other => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("aib-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_the_registry_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            manifest(),
            "regenerate it: aib-e2e manifest > BENCHMARK.json"
        );
        assert!(text.len() <= 64 * 1024);
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn the_contract_line_has_exactly_the_gated_metrics() {
        let plan = workload::Plan::new(Workload::Shift, 1, 1.0, true);
        let outcome = Outcome {
            plan,
            correct: true,
            attempted: 10,
            failed: 0,
            values: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            samples: Vec::new(),
            stream_hash: 0,
            op_p50_us: 0.0,
            notes: Vec::new(),
        };
        let line = Json::parse(&contract_line(&outcome, false)).expect("one JSON object");
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let gated: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| m.name)
            .collect();
        assert_eq!(names, gated);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&Json::str("s"))
        );
    }
}

//! The benchmark driver: argument parsing, one fresh child process per
//! measurement, the printed report and the result files.

use crate::child::{self, ChildArgs, READY, RESULT};
use crate::estimate::{median, quiet_mean};
use crate::json::{self, Value};
use crate::{agree, spec, workloads};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Fresh set-up-only processes are timed for this long before the
/// measuring one and again after it (and at least this many each time),
/// so that some land in a quiet gap of the host; `setup_s` is the quiet
/// mean of them all and the measuring process's own set-up (see
/// `estimate.rs`).
const SETUP_SAMPLING: Duration = Duration::from_millis(1_500);
const SETUP_MIN_SAMPLES_EACH_SIDE: usize = 8;
/// Repetitions of a full (all-workload) run, interleaved across
/// workloads so a slow phase of the host does not land on one of them;
/// the reported value is the median.
const FULL_RUN_REPS: usize = 3;

const USAGE: &str = "usage:
  zsbench [--workload <name>|all] [--seed <u64>] [--seconds <s>] [--trace [0|1]]
  zsbench --agree <A.json> <B.json>
  zsbench --print-benchmark-json
workloads: sim_serial_busy sim_sharded_wide live_procfs_busy live_procfs_idle churn_open wire_tcp";

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run {
        workload: Option<String>,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
    Child(ChildArgs),
    Agree(PathBuf, PathBuf),
    PrintBenchmarkJson,
}

/// Where result sets, traces and scratch files go, relative to the
/// repository root the benchmark is run from.
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let (mut seed, mut seconds) = (spec::DEFAULT_SEED, spec::RUN_SECONDS as f64);
    let (mut workload, mut traced, mut setup_only, mut is_child) = (None, false, false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "__child" => is_child = true,
            "--setup-only" => setup_only = true,
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not in (0, 3600]"))?;
            }
            "--trace" => {
                // `--trace` alone means 1; the driver contract passes 0 or 1.
                traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--agree" => {
                let (a, b) = (value("--agree")?, value("--agree")?);
                return Ok(Mode::Agree(a.into(), b.into()));
            }
            "--print-benchmark-json" => return Ok(Mode::PrintBenchmarkJson),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.filter(|w| w != "all");
    if let Some(w) = &workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}\n{USAGE}"));
        }
    }
    if is_child {
        return Ok(Mode::Child(ChildArgs {
            workload: workload.ok_or("__child needs --workload")?,
            seed,
            seconds,
            setup_only,
            traced,
            out_dir: out_dir(),
        }));
    }
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Entry point of both binaries.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|mode| match mode {
        Mode::Child(c) => child::run(&c).map(|()| true),
        Mode::Agree(a, b) => agree::run(&a, &b),
        Mode::PrintBenchmarkJson => spec::benchmark_json().map(|text| {
            print!("{text}");
            true
        }),
        Mode::Run {
            workload: Some(w),
            seed,
            seconds,
            traced,
        } => run_one(&w, seed, seconds, traced).and_then(|r| {
            report(&r, seconds);
            let file = out_dir().join(format!("{w}-seed{seed}-trace{}.json", u8::from(traced)));
            child::write_file(
                &file,
                &result_set(std::slice::from_ref(&r), seed, seconds, traced)?,
            )?;
            // The driver contract: the last stdout line is the result.
            println!("{}", r.contract_line()?);
            Ok(r.correct)
        }),
        Mode::Run {
            workload: None,
            seed,
            seconds,
            traced,
        } => run_all(seed, seconds, traced),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("zsbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload's measured result.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, String)>,
    /// The child's own account: rounds, segments, checks, trace file.
    pub detail: Value,
}

impl WorkloadResult {
    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::Str(u.clone()))]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line object the driver contract asks for.
    pub fn contract_line(&self) -> Result<String, String> {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
        .to_json()
    }

    fn to_value(&self) -> Value {
        Value::obj([
            ("name", Value::Str(self.name.clone())),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
            ("detail", self.detail.clone()),
        ])
    }
}

/// Starts one child and waits for it. Returns the seconds from spawn to
/// `READY` and the child's result object (`None` for a set-up sample).
fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_only: bool,
) -> Result<(f64, Option<Value>), String> {
    let mut exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if traced {
        // Only the traced binary carries the counting allocator; it is
        // built beside this one.
        exe.set_file_name("zsbench-traced");
    }
    let mut cmd = Command::new(&exe);
    cmd.args(["__child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if setup_only {
        cmd.arg("--setup-only");
    }
    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let (mut ready_s, mut result_text) = (None, None);
    // Read to the end of the child's output: it is reaped below whatever
    // it printed.
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if line == READY {
            ready_s = Some(started.elapsed().as_secs_f64());
        } else if let Some(text) = line.strip_prefix(RESULT) {
            result_text = Some(text.to_string());
        }
    }
    let status = child.wait().map_err(|e| format!("wait child: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    let ready_s = ready_s.ok_or_else(|| format!("{workload}: child never got ready"))?;
    let result = result_text
        .map(|text| json::parse(&text).map_err(|e| format!("child result: {e}")))
        .transpose()?;
    if !setup_only && result.is_none() {
        return Err(format!("{workload}: child printed no result"));
    }
    Ok((ready_s, result))
}

/// Measures one workload: set-up samples in fresh processes, then the
/// measuring process.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let mut setups = Vec::new();
    let sample_setups = |setups: &mut Vec<f64>| -> Result<(), String> {
        let started = Instant::now();
        let mut taken = 0;
        while !traced && (taken < SETUP_MIN_SAMPLES_EACH_SIDE || started.elapsed() < SETUP_SAMPLING)
        {
            setups.push(spawn_child(workload, seed, seconds, false, true)?.0);
            taken += 1;
        }
        Ok(())
    };
    sample_setups(&mut setups)?;
    let (ready_s, result) = spawn_child(workload, seed, seconds, traced, false)?;
    setups.push(ready_s);
    sample_setups(&mut setups)?;
    let detail = result.ok_or("no result")?;
    let measured = detail.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
    let lookup = |name: &str| {
        measured
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_f64())
    };
    let metrics = if traced {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                lookup(m.name)
                    .map(|v| (m.name.to_string(), v, m.unit.to_string()))
                    .ok_or_else(|| format!("{workload}: child did not report {}", m.name))
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        let setup_s = quiet_mean(&setups).ok_or("no set-up samples")?;
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "setup_s" {
                    Some(setup_s)
                } else {
                    lookup(m.name)
                };
                v.map(|v| (m.name.to_string(), v, m.unit.to_string()))
                    .ok_or_else(|| format!("{workload}: child did not report {}", m.name))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    let num = |key: &str| detail.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(WorkloadResult {
        name: workload.to_string(),
        correct: detail.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        detail,
    })
}

/// Prints one workload's metrics by name with their units, and its
/// output checks.
fn report(r: &WorkloadResult, seconds: f64) {
    let d = |key: &str| r.detail.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== {}  seed {}  window {seconds} s  nproc {nproc}",
        r.name,
        d("seed")
    );
    if let Some((_, why)) = spec::WORKLOADS.iter().find(|(n, _)| *n == r.name) {
        println!("   why: {why}");
    }
    println!(
        "   {} rounds in {} segments, {} of them quiet; latency percentiles pool their {} samples{}",
        d("rounds"),
        d("segments"),
        d("quiet_segments"),
        d("latency_samples"),
        match r.detail.get("tail_percentile").and_then(Value::as_f64) {
            Some(p) => format!(
                "; tail is p{:.2} with {} samples beyond it",
                p * 100.0,
                d("tail_beyond")
            ),
            None => String::new(),
        }
    );
    for (name, value, unit) in &r.metrics {
        let what = spec::end_to_end(name).map_or("", |m| m.what);
        println!("   {name:<40} {value:>16.4} {unit:<6} {what}");
    }
    let pct = r.failed as f64 / r.attempted.max(1) as f64 * 100.0;
    println!(
        "   {:<40} {pct:>16.4} {:<6} {} of {} attempted",
        "failed_ops_pct", "%", r.failed, r.attempted
    );
    if let Some(file) = r.detail.get("trace_file").and_then(Value::as_str) {
        println!("   trace events: {file}");
    }
    for c in r
        .detail
        .get("checks")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        let get = |k: &str| c.get(k).and_then(Value::as_str).unwrap_or("");
        let ok = c.get("ok").and_then(Value::as_bool) == Some(true);
        println!(
            "   [{}] {} — {}",
            if ok { "ok" } else { "FAILED" },
            get("name"),
            get("detail")
        );
    }
    println!("   correct: {}", r.correct);
}

/// A result-set file: what `--agree` compares and `results/` records.
fn result_set(
    results: &[WorkloadResult],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = Value::obj([
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("traced", Value::Bool(traced)),
        ("nproc", Value::Num(nproc as f64)),
        (
            "workloads",
            Value::Arr(results.iter().map(WorkloadResult::to_value).collect()),
        ),
    ])
    .to_json()?;
    text.push('\n');
    Ok(text)
}

/// All six workloads, [`FULL_RUN_REPS`] times, interleaved; reports
/// per-metric medians and writes the result set.
fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let mut reps: Vec<Vec<WorkloadResult>> = vec![Vec::new(); workloads::NAMES.len()];
    for rep in 0..FULL_RUN_REPS {
        for (i, name) in workloads::NAMES.iter().enumerate() {
            eprintln!("zsbench: repetition {}/{FULL_RUN_REPS}: {name}", rep + 1);
            reps[i].push(run_one(name, seed, seconds, traced)?);
        }
    }
    let mut merged = Vec::new();
    for runs in reps {
        let last = runs.last().ok_or("no repetitions")?.clone();
        let metrics = last
            .metrics
            .iter()
            .enumerate()
            .map(|(i, (name, _, unit))| {
                let mut vals: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(i).map(|m| m.1))
                    .collect();
                (name.clone(), median(&mut vals).unwrap_or(0.0), unit.clone())
            })
            .collect();
        merged.push(WorkloadResult {
            correct: runs.iter().all(|r| r.correct),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            metrics,
            ..last
        });
    }
    for r in &merged {
        report(r, seconds);
        println!("{}", r.contract_line()?);
    }
    let file = out_dir().join(format!("results-seed{seed}-trace{}.json", u8::from(traced)));
    child::write_file(&file, &result_set(&merged, seed, seconds, traced)?)?;
    println!("result set: {}", file.display());
    Ok(merged.iter().all(|r| r.correct))
}

/// Reads a result-set file back: workload name → result.
pub fn read_result_set(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no \"workloads\" array", path.display()))?;
    list.iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a workload has no name")?;
            let metrics = w
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("{name}: no metrics"))?
                .iter()
                .map(|(n, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    let unit = m.get("unit").and_then(Value::as_str);
                    match (value, unit) {
                        (Some(v), Some(u)) => Ok((n.clone(), v, u.to_string())),
                        _ => Err(format!("{name}.{n}: no value/unit")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            let num = |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            Ok(WorkloadResult {
                name: name.to_string(),
                correct: w.get("correct").and_then(Value::as_bool) == Some(true),
                attempted: num("attempted"),
                failed: num("failed"),
                metrics,
                detail: w.get("detail").cloned().unwrap_or(Value::Null),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Mode, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_contract_command_line_parses() {
        let m = args(&[
            "--workload",
            "wire_tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            m,
            Mode::Run {
                workload: Some("wire_tcp".into()),
                seed: 7,
                seconds: 10.0,
                traced: false
            }
        );
        // `--trace` alone, or with 1, selects the traced run.
        for tail in [&["--trace"][..], &["--trace", "1"][..]] {
            assert!(matches!(
                args(tail).unwrap(),
                Mode::Run { traced: true, .. }
            ));
        }
        // Defaults: every workload, the recorded seed and window.
        assert_eq!(
            args(&[]).unwrap(),
            Mode::Run {
                workload: None,
                seed: spec::DEFAULT_SEED,
                seconds: spec::RUN_SECONDS as f64,
                traced: false
            }
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "-1"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_sets_round_trip_through_the_file_format() {
        let r = WorkloadResult {
            name: "churn_open".into(),
            correct: true,
            attempted: 123_456,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.123_456_789, "s".into()),
                ("round_p50_us".into(), 31.25, "us".into()),
            ],
            detail: Value::obj([("rounds", Value::Num(9_000.0))]),
        };
        let text = result_set(std::slice::from_ref(&r), 11, 10.0, false).unwrap();
        let dir = std::env::temp_dir().join(format!("zsbench-rt-{}", std::process::id()));
        let file = dir.join("set.json");
        child::write_file(&file, &text).unwrap();
        assert_eq!(read_result_set(&file).unwrap(), vec![r.clone()]);
        std::fs::remove_dir_all(&dir).unwrap();
        // The contract line holds exactly the four keys.
        let line = json::parse(&r.contract_line().unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

//! `hermit_bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! hermit_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Builds the real `hermit-server`, and for each workload (all four when none
//! is named) generates a table from the seed, checkpoints it, serves it from a
//! child process and drives that over TCP from two connections, checking every
//! response against a model. `--trace 1` adds the traced single-thread replay
//! and prints the per-layer metrics instead of the end-to-end ones. See the
//! README beside this file for workloads, metrics and how to read them.

mod gen;
mod layers;
mod load;
mod report;
mod run;
mod serve;
mod setup;
mod stats;
mod trace;

use report::{Metric, Provenance};
use run::{Settings, Spec, WORKLOADS};
use serve::Launcher;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: hermit_bench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 16.0, trace: false, quick: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}\n{}", usage()));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Cargo's target directory as seen from the working directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the server this benchmark measures, from the sources in the working
/// directory, and return the binary's path.
fn build_server() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "-p", "hermit_server", "--bin", "hermit-server"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building hermit-server failed ({status}); run from the repository root"
        ));
    }
    let bin = target_dir().join("release").join("hermit-server");
    bin.is_file().then_some(bin.clone()).ok_or(format!("{} was not built", bin.display()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Type of the filesystem holding `dir`, from the longest matching mount point.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(point, _)| dir.starts_with(point))
        .max_by_key(|(point, _)| point.len())
        .map_or("unknown".into(), |(_, fstype)| fstype.to_string())
}

/// Run one workload; prints its table, record and result line. `Ok(correct)`.
fn run_workload(spec: &Spec, settings: &Settings, env: &Provenance) -> Result<bool, String> {
    let run = run::run_end_to_end(spec, settings)?;
    let total = run.total();
    let mut problems = run.problems.clone();
    let late = report::late_share(&total);
    if late > report::LATE_SHARE_LIMIT {
        problems.push(format!(
            "invalid run: the load generator sent {:.2} % of requests more than 1 ms late",
            late * 100.0
        ));
    }
    let metrics: Vec<Metric> = if env.traced {
        let mut found = report::from_end_to_end_run(&run);
        let dir = run.pristine_dir.as_deref().ok_or("no untouched data directory was kept")?;
        let out_dir = target_dir().join("hermit_bench").join(spec.name);
        found.extend(layers::traced_run(spec, settings, dir, &out_dir)?);
        eprintln!("trace written to {}", out_dir.join("trace.jsonl").display());
        report::in_table_order(report::PER_LAYER, &found)
    } else {
        report::in_table_order(report::END_TO_END, &report::end_to_end(&run))
    };
    let correct = problems.is_empty();
    report::print_table(spec.name, &metrics, &problems);
    println!("{}", report::record_line(env, spec.name, correct, &problems, &metrics));
    println!("{}", report::result_line(correct, total.attempted, total.failed, &metrics));
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if gen::CONNS > nproc {
        return Err(format!(
            "{} load threads on {nproc} cpu(s) would measure the generator; refusing",
            gen::CONNS
        ));
    }
    let server_bin = build_server()?;
    let work_dir = target_dir().join("hermit_bench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let settings = Settings {
        seed: args.seed,
        seconds: if args.quick { 1.0 } else { args.seconds },
        warmup_seconds: if args.quick { 0.2 } else { 2.0 },
        setups: if args.quick { 1 + args.trace as usize } else { 3 },
        shrink: if args.quick { 20 } else { 1 },
        launcher: Launcher::Binary(server_bin),
        work_dir: work_dir.clone(),
        keep_pristine: args.trace,
    };
    let env = Provenance {
        commit: command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or("unknown".into()),
        rustc: command_line("rustc", &["--version"]).unwrap_or("unknown".into()),
        nproc,
        filesystem: filesystem_of(&work_dir),
        seed: args.seed,
        seconds: settings.seconds,
        quick: args.quick,
        traced: args.trace,
    };
    let mut all_correct = true;
    let mut outcome = Ok(());
    for spec in WORKLOADS.iter().filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name)) {
        match run_workload(spec, &settings, &env) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                outcome = Err(format!("{}: {e}", spec.name));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome.map(|()| all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hermit_bench: the run is not correct (see PROBLEM lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hermit_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_flags_and_rejects_the_rest() {
        let a =
            args(&["--workload", "read-cold", "--seed", "42", "--seconds", "7", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace, a.quick),
            (Some("read-cold"), 42, 7.0, true, false)
        );
        let a = args(&["--quick"]).unwrap();
        assert!(a.quick && a.workload.is_none() && !a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// All four workloads at 1/20 size with 1 s windows against the in-process
    /// server, end-to-end and traced: any drift in the engine or server API
    /// this benchmark uses breaks `cargo test`, not the benchmark pipeline.
    #[test]
    fn quick_mode_runs_every_workload_correctly() {
        const FROM_PROC: [&str; 3] = [
            "storage.read_bytes_per_op",
            "storage.write_bytes_per_row",
            "storage.write_syscalls_per_write",
        ];
        let work_dir =
            std::env::temp_dir().join(format!("hermit-bench-quick-{}", std::process::id()));
        let settings = Settings {
            seed: 5,
            seconds: 1.0,
            warmup_seconds: 0.1,
            setups: 2,
            shrink: 20,
            launcher: Launcher::InProcess,
            work_dir: work_dir.clone(),
            keep_pristine: true,
        };
        for spec in &WORKLOADS {
            let run = run::run_end_to_end(spec, &settings)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(run.problems, Vec::<String>::new(), "{}", spec.name);
            let total = run.total();
            assert!(
                total.attempted > 50 && total.failed == 0,
                "{}: {} attempted",
                spec.name,
                total.attempted
            );
            assert_eq!(run.recovery_s.is_some(), spec.crash_check);
            let e2e = report::in_table_order(report::END_TO_END, &report::end_to_end(&run));
            // Everything but the child's RSS exists without a child process.
            for m in e2e.iter().filter(|m| m.name != "server_rss_mb") {
                assert!(m.value > 0.0, "{} {} = {}", spec.name, m.name, m.value);
            }
            let mut layers = report::from_end_to_end_run(&run);
            let dir = run.pristine_dir.clone().expect("a pristine directory");
            let out_dir = work_dir.join("trace").join(spec.name);
            layers.extend(
                layers::traced_run(spec, &settings, &dir, &out_dir)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name)),
            );
            assert!(out_dir.join("trace.jsonl").metadata().unwrap().len() > 0);
            let produced = |name: &str| layers.iter().any(|m| m.name == name);
            for (name, _) in report::PER_LAYER {
                // Only what needs a child's /proc or a request class the
                // workload lacks may be absent.
                let optional = name.starts_with("e2e.") || FROM_PROC.contains(name);
                assert!(optional || produced(name), "{}: no {name}", spec.name);
            }
            for m in &layers {
                assert!(
                    report::PER_LAYER.iter().any(|(n, _)| *n == m.name),
                    "{} is not in PER_LAYER",
                    m.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&work_dir);
    }
}

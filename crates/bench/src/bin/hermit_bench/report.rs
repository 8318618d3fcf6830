//! Metric names and units (the contract with `BENCHMARK.json`), how the
//! end-to-end ones are derived from a run, and the three outputs: the result
//! line the contract asks for, a self-describing record line, a human table.

use crate::gen::Class;
use crate::load::PhaseStats;
use crate::run::{stat_value, EndToEnd, Step, BACKLOG_LIMIT_NS, READ_P99_LIMIT_US};
use crate::stats::{better_quartile, quantile, supported_quantile};

/// End-to-end metrics: defined on every workload, never zero, each with a
/// regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p25_us", "us"),
    ("lat_p75_us", "us"),
    ("server_rss_mb", "MiB"),
    ("index_bytes_per_row", "B/row"),
    ("disk_bytes_per_row", "B/row"),
];

/// Per-layer metrics, printed by a traced run. The `e2e.` ones are end-to-end
/// numbers that exist on some workloads only or proved too noisy to bound;
/// a metric that does not occur on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.lat_p99_us", "us"),
    ("e2e.point_p50_us", "us"),
    ("e2e.point_p99_us", "us"),
    ("e2e.range_p50_us", "us"),
    ("e2e.range_p99_us", "us"),
    ("e2e.write_p50_us", "us"),
    ("e2e.write_p99_us", "us"),
    ("e2e.failed_share", "ratio"),
    ("e2e.recovery_s", "s"),
    ("e2e.max_rate_ok", "1/s"),
    ("e2e.step1_read_p99_us", "us"),
    ("e2e.step2_read_p99_us", "us"),
    ("e2e.step3_read_p99_us", "us"),
    ("e2e.step3_backlog_ms", "ms"),
    ("e2e.checkpoint_p50_ms", "ms"),
    ("e2e.checkpoints_refused", "count"),
    ("server.roundtrip_us", "us"),
    ("server.self_us", "us"),
    ("server.point_self_share", "ratio"),
    ("server.encode_req_ns", "ns"),
    ("server.decode_req_ns", "ns"),
    ("server.encode_resp_ns", "ns"),
    ("server.decode_resp_ns", "ns"),
    ("server.resp_bytes_per_op", "B"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.deadline_exceeded", "count"),
    ("server.connections_rejected", "count"),
    ("core.plan_ns", "ns"),
    ("core.execute_us", "us"),
    ("core.execute_self_us", "us"),
    ("core.execute_batch_us_per_query", "us"),
    ("core.txn_execute_us", "us"),
    ("core.snapshot_read_ratio", "ratio"),
    ("core.rows_per_op", "count"),
    ("core.candidates_per_row", "ratio"),
    ("core.false_positive_share", "ratio"),
    ("core.plan_hermit_share", "ratio"),
    ("core.insert_us", "us"),
    ("core.insert_txn_us", "us"),
    ("core.delete_us", "us"),
    ("core.commit_us", "us"),
    ("core.checkpoint_ms", "ms"),
    ("core.open_s", "s"),
    ("txn.begin_commit_us", "us"),
    ("txn.commits", "count"),
    ("txn.aborts", "count"),
    ("txn.conflicts", "count"),
    ("trs.lookup_ns", "ns"),
    ("trs.lookup_point_ns", "ns"),
    ("trs.ranges_per_lookup", "count"),
    ("trs.outliers_per_lookup", "count"),
    ("trs.insert_ns", "ns"),
    ("trs.build_s", "s"),
    ("trs.mem_bytes", "B"),
    ("trs.space_ratio", "ratio"),
    ("trs.depth", "count"),
    ("trs.leaves", "count"),
    ("trs.outlier_share", "ratio"),
    ("btree.host_probe_ns", "ns"),
    ("btree.tids_per_probe", "count"),
    ("btree.primary_resolve_ns", "ns"),
    ("btree.baseline_range_ns", "ns"),
    ("btree.insert_ns", "ns"),
    ("btree.mem_bytes", "B"),
    ("storage.heap_fetch_ns", "ns"),
    ("storage.pool_hit_share", "ratio"),
    ("storage.pool_misses_per_op", "count"),
    ("storage.pool_evictions", "count"),
    ("storage.wal_append_ns", "ns"),
    ("storage.wal_fsync_us", "us"),
    ("storage.wal_bytes_per_row", "B/row"),
    ("storage.read_bytes_per_op", "B"),
    ("storage.write_bytes_per_row", "B/row"),
    ("storage.write_syscalls_per_write", "count"),
    ("loadgen.late_share", "ratio"),
    ("loadgen.max_lag_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// A run whose generator sent more than this share of requests late is
/// reported invalid rather than slow.
pub const LATE_SHARE_LIMIT: f64 = 0.01;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Observations behind the value (1 for a single reading).
    pub samples: u64,
    /// False when the sample is too small for the statistic, or the metric
    /// does not occur on this workload.
    pub valid: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: u64) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, samples, valid: samples > 0 }
    }
}

/// `found`, in the order and with exactly the names of `table`; a name the
/// run did not produce reads 0 and is marked invalid.
pub fn in_table_order(table: &[(&'static str, &str)], found: &[Metric]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, _)| {
            found.iter().find(|m| m.name == name).cloned().unwrap_or(Metric {
                name,
                value: 0.0,
                samples: 0,
                valid: false,
            })
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map_or("", |(_, unit)| unit)
}

/// A latency quantile in µs. The value is always given (the contract wants
/// every metric on every run); `valid` says whether the sample supports it.
fn latency(name: &'static str, sorted_ns: &[u64], q: f64) -> Metric {
    Metric {
        name,
        value: quantile(sorted_ns, q).unwrap_or(0) as f64 / 1e3,
        samples: sorted_ns.len() as u64,
        valid: supported_quantile(sorted_ns, q).is_some(),
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn sorted_all(stats: &PhaseStats) -> Vec<u64> {
    sorted(stats.latency.iter().flatten().copied().collect())
}

fn sorted_reads(stats: &PhaseStats) -> Vec<u64> {
    let mut v = stats.latency[Class::Point as usize].clone();
    v.extend_from_slice(&stats.latency[Class::Range as usize]);
    sorted(v)
}

/// The metrics a user of the server sees, from one untraced run. Throughput
/// and the latency quartiles are computed per slice of the window and combined
/// with [`better_quartile`] (see there for why).
pub fn end_to_end(run: &EndToEnd) -> Vec<Metric> {
    let per_slice: Vec<(f64, Vec<u64>)> =
        run.slices().map(|s| (s.seconds, sorted_all(&s.stats))).collect();
    let answered: u64 = per_slice.iter().map(|(_, lat)| lat.len() as u64).sum();
    let over_slices = |higher_is_better: bool, f: &dyn Fn(f64, &[u64]) -> f64| {
        let mut values: Vec<f64> =
            per_slice.iter().map(|(seconds, lat)| f(*seconds, lat)).collect();
        better_quartile(&mut values, higher_is_better)
    };
    let quartile = |name, q| Metric {
        name,
        value: over_slices(false, &|_, lat| quantile(lat, q).unwrap_or(0) as f64 / 1e3),
        samples: answered,
        valid: per_slice.iter().all(|(_, lat)| supported_quantile(lat, q).is_some()),
    };
    vec![
        Metric::new("setup_s", run.setup_s, 1),
        Metric::new(
            "ops_per_s",
            over_slices(true, &|seconds, lat| lat.len() as f64 / seconds),
            answered,
        ),
        quartile("lat_p25_us", 0.25),
        quartile("lat_p75_us", 0.75),
        Metric {
            name: "server_rss_mb",
            value: run.server_rss_mib.unwrap_or(0.0),
            samples: run.server_rss_mib.is_some() as u64,
            valid: run.rss_mark_reached,
        },
        Metric::new("index_bytes_per_row", run.index_bytes_per_row, 1),
        Metric::new("disk_bytes_per_row", run.disk_bytes_per_row, 1),
    ]
}

/// True when this step of an open loop met the latency limit without failures
/// and without leaving a backlog.
fn step_ok(step: &Step) -> bool {
    let total = step.total();
    let p99 = supported_quantile(&sorted_reads(&total), 0.99).map(|ns| ns as f64 / 1e3);
    p99.is_some_and(|us| us <= READ_P99_LIMIT_US)
        && total.failed == 0
        && step.backlog_ns() < BACKLOG_LIMIT_NS
}

/// Per-layer metrics that come from the end-to-end run itself: per-class and
/// per-step latencies, the child's own counters, its `/proc` I/O, and how
/// well the generator kept its schedule.
pub fn from_end_to_end_run(run: &EndToEnd) -> Vec<Metric> {
    let total = run.total();
    let mut m = vec![latency("e2e.lat_p99_us", &sorted_all(&total), 0.99)];
    for (class, p50, p99) in [
        (Class::Point, "e2e.point_p50_us", "e2e.point_p99_us"),
        (Class::Range, "e2e.range_p50_us", "e2e.range_p99_us"),
        (Class::Write, "e2e.write_p50_us", "e2e.write_p99_us"),
    ] {
        let s = sorted(total.latency[class as usize].clone());
        m.push(latency(p50, &s, 0.5));
        m.push(latency(p99, &s, 0.99));
    }
    m.push(Metric::new(
        "e2e.failed_share",
        total.failed as f64 / total.attempted.max(1) as f64,
        total.attempted,
    ));
    if let Some(s) = run.recovery_s {
        m.push(Metric::new("e2e.recovery_s", s, 1));
    }
    if run.steps.iter().any(|s| s.rate.is_some()) {
        let best =
            run.steps.iter().filter(|s| step_ok(s)).filter_map(|s| s.rate).fold(0.0, f64::max);
        m.push(Metric::new("e2e.max_rate_ok", best, run.steps.len() as u64));
        let names = ["e2e.step1_read_p99_us", "e2e.step2_read_p99_us", "e2e.step3_read_p99_us"];
        for (name, step) in names.into_iter().zip(&run.steps) {
            m.push(latency(name, &sorted_reads(&step.total()), 0.99));
        }
        if let Some(last) = run.steps.last() {
            m.push(Metric::new("e2e.step3_backlog_ms", last.backlog_ns() as f64 / 1e6, 1));
        }
    }
    let checkpoints = sorted(total.checkpoints.clone());
    if !checkpoints.is_empty() {
        let p50 = quantile(&checkpoints, 0.5).unwrap_or(0) as f64 / 1e6;
        m.push(Metric::new("e2e.checkpoint_p50_ms", p50, checkpoints.len() as u64));
        m.push(Metric::new("e2e.checkpoints_refused", total.checkpoints_refused as f64, 1));
    }

    for (name, stat) in [
        ("server.requests", "hermit_requests_total"),
        ("server.errors", "hermit_request_errors"),
        ("server.deadline_exceeded", "hermit_query_deadline_exceeded"),
        ("server.connections_rejected", "hermit_connections_rejected"),
    ] {
        if let Some(v) = stat_value(&run.server_stats, stat) {
            m.push(Metric::new(name, v, 1));
        }
    }
    if let Some(io) = run.io {
        // `rchar`/`wchar`/`syscw` count read(2)/write(2)-family calls, which is
        // how the page store and the WAL reach their files; the sockets are
        // served by recv/send and stay out of them.
        let served = run.served_reads + run.served_writes;
        m.push(Metric::new(
            "storage.read_bytes_per_op",
            io.rchar as f64 / served.max(1) as f64,
            served,
        ));
        let writes = run.served_writes;
        if writes > 0 {
            m.push(Metric::new(
                "storage.write_bytes_per_row",
                io.wchar as f64 / writes as f64,
                writes,
            ));
            m.push(Metric::new(
                "storage.write_syscalls_per_write",
                io.syscw as f64 / writes as f64,
                writes,
            ));
        }
    }
    m.push(Metric::new("loadgen.late_share", late_share(&total), total.attempted));
    m.push(Metric::new("loadgen.max_lag_us", total.max_lag_ns as f64 / 1e3, total.attempted));
    m
}

pub fn late_share(total: &PhaseStats) -> f64 {
    total.late as f64 / total.attempted.max(1) as f64
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// The line the benchmark contract asks for, last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, unit_of(m.name))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Where and how this invocation runs; goes into every record.
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub filesystem: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
}

/// One self-describing JSON line per run, fit for appending to a history file.
pub fn record_line(
    env: &Provenance,
    workload: &str,
    correct: bool,
    problems: &[String],
    metrics: &[Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"valid\": {}}}",
                m.name,
                m.value,
                unit_of(m.name),
                m.samples,
                m.valid
            )
        })
        .collect();
    let problems: Vec<String> = problems.iter().map(|p| json_string(p)).collect();
    format!(
        "{{\"record\": \"hermit_bench/1\", \"commit\": {}, \"rustc\": {}, \"nproc\": {}, \
         \"filesystem\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"quick\": {}, \"traced\": {}, \"correct\": {correct}, \"problems\": [{}], \
         \"metrics\": {{{}}}}}",
        json_string(&env.commit),
        json_string(&env.rustc),
        env.nproc,
        json_string(&env.filesystem),
        json_string(workload),
        env.seed,
        env.seconds,
        env.quick,
        env.traced,
        problems.join(", "),
        body.join(", ")
    )
}

/// The table a person reads, on stderr.
pub fn print_table(workload: &str, metrics: &[Metric], problems: &[String]) {
    eprintln!("\n== {workload} ==");
    for m in metrics {
        let note = if m.valid { "" } else { "  (not supported by this run)" };
        eprintln!("{:<34} {:>16.4} {:<6} n={}{note}", m.name, m.value, unit_of(m.name), m.samples);
    }
    for p in problems {
        eprintln!("PROBLEM: {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Slice;

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// driver prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_driver() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let names = json.matches("\"name\":").count();
        assert_eq!(names, crate::run::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for spec in &crate::run::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", spec.name)),
                "workload {}",
                spec.name
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn lines_are_well_formed_and_escape_text() {
        let metrics = in_table_order(END_TO_END, &[Metric::new("setup_s", 0.25, 1)]);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(metrics[0].valid && !metrics[1].valid);
        let line = result_line(true, 0, 0, &metrics[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let env = Provenance {
            commit: "abc".into(),
            rustc: "r \"1\"".into(),
            nproc: 2,
            filesystem: "ext4".into(),
            seed: 7,
            seconds: 1.5,
            quick: true,
            traced: false,
        };
        let record = record_line(&env, "read-hot", false, &["a\nb".into()], &metrics[..1]);
        assert!(
            record.contains("\"rustc\": \"r \\\"1\\\"\"")
                && record.contains("\"problems\": [\"a\\u000ab\"]")
        );
        assert!(record.contains("\"samples\": 1, \"valid\": true") && !record.contains('\n'));
        assert_eq!(Metric::new("x", f64::NAN, 3).value, 0.0);
    }

    #[test]
    fn an_open_loop_step_passes_only_within_all_three_limits() {
        let reads: Vec<u64> = (0..2_000).map(|i| 100_000 + i).collect();
        let step = |p99_ns: u64, failed: u64, backlog_ns: u64| {
            let mut stats = PhaseStats::default();
            stats.latency[Class::Point as usize] = reads.clone();
            stats.latency[Class::Range as usize] = vec![p99_ns; 100];
            stats.attempted = 2_100;
            stats.failed = failed;
            stats.backlog_ns = backlog_ns;
            Step { rate: Some(1_000.0), slices: vec![Slice { seconds: 1.0, stats }] }
        };
        assert!(step_ok(&step(4_000_000, 0, 0)));
        assert!(!step_ok(&step(6_000_000, 0, 0)), "read p99 above 5 ms");
        assert!(!step_ok(&step(4_000_000, 1, 0)), "a failed request");
        assert!(!step_ok(&step(4_000_000, 0, 150_000_000)), "a 150 ms backlog");
    }
}

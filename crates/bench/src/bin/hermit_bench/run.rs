//! The four workloads and the end-to-end run of one of them: set up, serve,
//! load from two connections, check every response, crash-and-recover where
//! the workload asks for it, tear down.

use crate::gen::{self, check_read, check_recovered, Dataset, Layout, Mix, Op, OpStream, CONNS};
use crate::load::{self, drive, Phase, PhaseStats, Sent, WallClock};
use crate::serve::{Launcher, ProcIo, Server};
use crate::setup::{build_database, dir_bytes};
use crate::stats::median_f64;
use hermit_core::Query;
use hermit_server::{ClientError, ErrorCode, HermitClient};
use hermit_storage::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One named workload. Names are the contract with `BENCHMARK.json`.
pub struct Spec {
    pub name: &'static str,
    /// Static rows; against the server's 1024-page pool of ≈ 225 K such rows.
    pub rows: usize,
    /// `--wal-sync-every` the server is started with (the flush policy).
    pub wal_sync_every: usize,
    pub mix: Mix,
    /// Offered rates of an open loop, requests/s over both connections, one
    /// measured step each. Empty for a closed loop.
    pub rates: &'static [f64],
    /// Checkpoint requests on connection 0 during one measured window.
    pub checkpoints: u32,
    /// End with `kill -9`, restart, and verify every acknowledged write.
    pub crash_check: bool,
    /// Requests the traced replay covers.
    pub trace_ops: usize,
    /// Requests per connection, warm-up included, after which the server's
    /// peak RSS is read: about 40 % of what a run sends on the commit that
    /// introduced the benchmark. Memory that grows with every write is then
    /// compared at equal work, not at whatever count the window happened to
    /// reach (see README "Why `server_rss_mb` is read at a request count").
    pub rss_mark: u64,
}

const READ_ONLY: Mix =
    Mix { point: 50, range: 50, insert: 0, delete: 0, txn: 0, range_rows: 100, churn_reads: 0 };

/// Offered rates of `mixed-open`, requests/s over both connections: about 12,
/// 24 and 37 % of the closed-loop capacity of the same mix (24.6 K requests/s)
/// on the commit that introduced the benchmark. Frozen: a later commit is
/// judged at these rates. The 25 / 50 / 75 % one would pick on a bigger machine
/// do not work here, where the load generator shares the two cores with the
/// server: the open-loop knee is near 15 K requests/s on a quiet day and lower
/// on a noisy one (see README "The open loop").
const MIXED_OPEN_RATES: [f64; 3] = [3_000.0, 6_000.0, 9_000.0];

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "read-hot",
        rows: 150_000,
        wal_sync_every: 64,
        mix: READ_ONLY,
        rates: &[],
        checkpoints: 0,
        crash_check: false,
        trace_ops: 4_000,
        rss_mark: 100_000,
    },
    Spec {
        name: "read-cold",
        rows: 1_200_000,
        wal_sync_every: 64,
        mix: Mix { point: 0, range: 100, range_rows: 200, ..READ_ONLY },
        rates: &[],
        checkpoints: 0,
        crash_check: false,
        trace_ops: 1_000,
        rss_mark: 4_000,
    },
    Spec {
        name: "write-durable",
        rows: 150_000,
        wal_sync_every: 1,
        mix: Mix { point: 0, range: 0, insert: 50, delete: 20, txn: 30, ..READ_ONLY },
        rates: &[],
        checkpoints: 0,
        crash_check: true,
        trace_ops: 4_000,
        rss_mark: 30_000,
    },
    Spec {
        name: "mixed-open",
        rows: 150_000,
        wal_sync_every: 64,
        mix: Mix {
            point: 40,
            range: 40,
            insert: 7,
            delete: 3,
            txn: 10,
            range_rows: 100,
            churn_reads: 25,
        },
        rates: &MIXED_OPEN_RATES,
        checkpoints: 3,
        crash_check: false,
        trace_ops: 4_000,
        rss_mark: 30_000,
    },
];

/// Limits `max_rate_ok` holds a step of an open loop to.
pub const READ_P99_LIMIT_US: f64 = 5_000.0;
pub const BACKLOG_LIMIT_NS: u64 = 100_000_000;

/// Knobs of one invocation, shared by all its workloads.
#[derive(Clone)]
pub struct Settings {
    pub seed: u64,
    /// Measured window; an open loop splits it evenly over its steps.
    pub seconds: f64,
    pub warmup_seconds: f64,
    /// Set-ups per run; `setup_s` is their median, the last one serves.
    pub setups: usize,
    /// Divide every size by this (`--quick` uses 20).
    pub shrink: usize,
    pub launcher: Launcher,
    /// Scratch directory for data directories; removed per run.
    pub work_dir: PathBuf,
    /// Keep the first set-up's directory, untouched by load, for the replay.
    pub keep_pristine: bool,
}

impl Spec {
    pub fn layout(&self, settings: &Settings) -> Layout {
        Layout::new(self.rows / settings.shrink)
    }

    pub fn mix(&self, settings: &Settings) -> Mix {
        Mix { range_rows: (self.mix.range_rows / settings.shrink).max(5), ..self.mix }
    }
}

/// Length of one slice of the measured window.
///
/// Throughput and latency quartiles are computed per slice and combined over
/// slices (`stats::better_quartile`): on a shared two-core machine a run is
/// regularly disturbed for a second or two, which a whole-window figure
/// averages in.
pub const SLICE_NS: u64 = 500_000_000;

/// One measured step: the whole window of a closed loop, or one rate of an open one.
pub struct Step {
    /// Offered requests/s over both connections; `None` in a closed loop.
    pub rate: Option<f64>,
    /// Both connections merged, one entry per slice, in time order.
    pub slices: Vec<Slice>,
}

pub struct Slice {
    pub seconds: f64,
    pub stats: PhaseStats,
}

impl Step {
    /// All slices merged.
    pub fn total(&self) -> PhaseStats {
        let mut all = PhaseStats::default();
        self.slices.iter().for_each(|s| all.merge(&s.stats));
        all
    }

    /// How far past the step's end its last due request was answered.
    pub fn backlog_ns(&self) -> u64 {
        self.slices.last().map_or(0, |s| s.stats.backlog_ns)
    }
}

pub struct EndToEnd {
    pub setup_s: f64,
    pub steps: Vec<Step>,
    /// `kill -9` → restart → first correct answer.
    pub recovery_s: Option<f64>,
    pub index_bytes_per_row: f64,
    pub disk_bytes_per_row: f64,
    /// The child's `VmHWM` once every connection had sent `Spec::rss_mark`
    /// requests, or at the end of the window when one never got that far.
    pub server_rss_mib: Option<f64>,
    pub rss_mark_reached: bool,
    /// `/proc/<pid>/io` of the child over warm-up and measured window.
    pub io: Option<ProcIo>,
    /// Requests the server answered over that same stretch, by class.
    pub served_reads: u64,
    pub served_writes: u64,
    /// The child's `Stats` dump after the window.
    pub server_stats: String,
    /// Everything that makes this run incorrect, in words.
    pub problems: Vec<String>,
    /// Data directory no load ever touched (when asked to keep one).
    pub pristine_dir: Option<PathBuf>,
}

impl EndToEnd {
    /// All measured steps merged.
    pub fn total(&self) -> PhaseStats {
        let mut all = PhaseStats::default();
        self.slices().for_each(|s| all.merge(&s.stats));
        all
    }

    /// Every slice of every step, in time order.
    pub fn slices(&self) -> impl Iterator<Item = &Slice> {
        self.steps.iter().flat_map(|s| &s.slices)
    }
}

struct Connection {
    stats: Vec<PhaseStats>,
    stream: OpStream,
    /// Requests sent in every phase, warm-up included: (reads, writes).
    sent: (u64, u64),
    /// The server's peak RSS when this connection had sent `Spec::rss_mark`.
    rss_at_mark: Option<f64>,
    /// Kept open past the window: a crash check must kill the server while
    /// the dangling transaction's connection is still there, or the server
    /// rolls it back on disconnect and recovery has nothing to prove.
    client: Option<HermitClient>,
}

pub fn run_end_to_end(spec: &Spec, settings: &Settings) -> Result<EndToEnd, String> {
    let layout = spec.layout(settings);
    let mix = spec.mix(settings);
    let mut setup_times = Vec::new();
    let mut pristine_dir = None;
    let mut serving = None;
    for i in 0..settings.setups {
        let last = i + 1 == settings.setups;
        let dir = settings.work_dir.join(format!("{}-{i}", spec.name));
        let started = Instant::now();
        let data = Dataset::generate(settings.seed, layout);
        let built = build_database(&dir, &data)?;
        let server = settings.launcher.launch(&dir, spec.wal_sync_every)?;
        first_answer(&server, &data)?;
        setup_times.push(started.elapsed().as_secs_f64());
        if last {
            serving = Some((server, data, dir, built));
        } else {
            // Nothing was written, so killing leaves the directory as built.
            server.crash(Vec::new());
            if i == 0 && settings.keep_pristine {
                pristine_dir = Some(dir);
            } else {
                remove_dir(&dir);
            }
        }
    }
    let (server, data, dir, built) = serving.ok_or("no set-up was run")?;

    let warm = (settings.warmup_seconds * 1e9) as u64;
    let window = (settings.seconds * 1e9) as u64;
    let mut phases = vec![Phase { start: 0, end: warm, rate: None, measured: false }];
    // Steps (one for a closed loop, one per rate for an open one), each cut
    // into `slices_per_step` phases.
    let rates: Vec<Option<f64>> = match spec.rates {
        [] => vec![None],
        rates => rates.iter().map(|r| Some(r / settings.shrink as f64)).collect(),
    };
    let step_ns = window / rates.len() as u64;
    let slices_per_step = (step_ns / SLICE_NS).max(1);
    for (k, rate) in rates.iter().enumerate() {
        let step_start = warm + k as u64 * step_ns;
        phases.extend((0..slices_per_step).map(|i| Phase {
            start: step_start + i * step_ns / slices_per_step,
            end: step_start + (i + 1) * step_ns / slices_per_step,
            rate: rate.map(|r| r / CONNS as f64),
            measured: true,
        }));
    }
    let checkpoint_every = (spec.checkpoints > 0).then(|| window / spec.checkpoints as u64);
    let rss_mark = (spec.rss_mark / settings.shrink as u64).max(1);

    let io_before = server.io();
    let clock = WallClock(Instant::now());
    let connections: Vec<Result<Connection, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (server, data, clock, phases) = (&server, &data, &clock, &phases);
                scope.spawn(move || -> Result<Connection, String> {
                    let mut client = server.connect()?;
                    let mut stream = OpStream::new(settings.seed, layout, conn, mix);
                    let mut sent = (0, 0);
                    let mut rss_at_mark = None;
                    let mut send = |req: load::Request<'_>, live: &BTreeSet<(u32, i64)>| {
                        match req {
                            load::Request::Op(Op::Point { .. } | Op::Range { .. }) => sent.0 += 1,
                            _ => sent.1 += 1,
                        }
                        let answered = perform(&mut client, data, live, req);
                        if sent.0 + sent.1 == rss_mark {
                            rss_at_mark = server.peak_rss_mib();
                        }
                        answered
                    };
                    let checkpoints = if conn == 0 { checkpoint_every } else { None };
                    let arrivals = gen::mix(settings.seed ^ 0xA881 ^ conn as u64);
                    let stats = drive(clock, phases, &mut stream, arrivals, checkpoints, &mut send);
                    // Leave no transaction half-sent: the final checkpoint
                    // needs none open, the crash check wants a known one.
                    let mut tail = Vec::new();
                    while stream.in_txn() {
                        tail.push(stream.next_op());
                    }
                    if spec.crash_check {
                        tail.extend(stream.dangling_txn(2));
                    }
                    for op in &tail {
                        if let Sent::Failed(why) = send(load::Request::Op(op), stream.live()) {
                            return Err(format!("after the window, {op:?}: {why}"));
                        }
                    }
                    Ok(Connection { stats, stream, sent, rss_at_mark, client: Some(client) })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("load thread panicked".into())))
            .collect()
    });
    let mut connections: Vec<Connection> = connections.into_iter().collect::<Result<_, _>>()?;

    let io = match (io_before, server.io()) {
        (Some(a), Some(b)) => Some(ProcIo {
            rchar: b.rchar - a.rchar,
            wchar: b.wchar - a.wchar,
            syscw: b.syscw - a.syscw,
        }),
        _ => None,
    };
    // `VmHWM` only rises, so the later connection's reading is the largest.
    let rss_mark_reached = connections.iter().all(|c| c.rss_at_mark.is_some());
    let server_rss_mib = if rss_mark_reached {
        connections.iter().filter_map(|c| c.rss_at_mark).reduce(f64::max)
    } else {
        server.peak_rss_mib()
    };
    let server_stats = server.connect()?.stats().map_err(|e| format!("stats: {e}"))?;

    let clients: Vec<HermitClient> =
        connections.iter_mut().filter_map(|c| c.client.take()).collect();
    let mut problems = Vec::new();
    let mut server = server;
    let mut recovery_s = None;
    if spec.crash_check {
        let killed = Instant::now();
        server.crash(clients);
        server = settings.launcher.launch(&dir, spec.wal_sync_every)?;
        first_answer(&server, &data)?;
        recovery_s = Some(killed.elapsed().as_secs_f64());
        let mut client = server.connect()?;
        for (conn, c) in connections.iter().enumerate() {
            let recovered = read_churn_region(&mut client, layout, conn)?;
            if let Err(why) = check_recovered(conn, c.stream.live(), recovered) {
                problems.push(format!("recovery check failed: {why}"));
            }
        }
    } else {
        drop(clients);
    }

    let mut control = server.connect()?;
    control.checkpoint().map_err(|e| format!("final checkpoint: {e}"))?;
    let live_rows = stat_value(&control.stats().map_err(|e| format!("stats: {e}"))?, "hermit_rows")
        .ok_or("server stats lack hermit_rows")?;
    let disk_bytes = dir_bytes(&dir).map_err(|e| format!("size of {}: {e}", dir.display()))?;
    drop(control);
    server.shutdown()?;
    remove_dir(&dir);

    let measured = &phases[1..];
    let steps: Vec<Step> = rates
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let of_step = k * slices_per_step as usize..(k + 1) * slices_per_step as usize;
            let slices = of_step
                .map(|i| {
                    let mut stats = PhaseStats::default();
                    connections.iter().for_each(|c| stats.merge(&c.stats[i]));
                    Slice { seconds: (measured[i].end - measured[i].start) as f64 / 1e9, stats }
                })
                .collect();
            Step { rate, slices }
        })
        .collect();
    let served = connections.iter().fold((0, 0), |a, c| (a.0 + c.sent.0, a.1 + c.sent.1));
    let mut run = EndToEnd {
        setup_s: median_f64(&mut setup_times),
        steps,
        recovery_s,
        index_bytes_per_row: built.index_bytes_per_row,
        disk_bytes_per_row: disk_bytes as f64 / live_rows,
        server_rss_mib,
        rss_mark_reached,
        io,
        served_reads: served.0,
        served_writes: served.1,
        server_stats,
        problems,
        pristine_dir,
    };
    let total = run.total();
    if let Some(why) = &total.first_failure {
        run.problems
            .push(format!("{} of {} requests failed, first: {why}", total.failed, total.attempted));
    }
    Ok(run)
}

/// The request that ends set-up and recovery: a static point lookup, checked.
fn first_answer(server: &Server, data: &Dataset) -> Result<(), String> {
    let mut client = server.connect()?;
    let rows = client
        .query(&Query::new().point(gen::TARGET, 0.0))
        .map_err(|e| format!("first request: {e}"))?;
    check_read(data, &BTreeSet::new(), 0, 0, &rows)
        .map_err(|e| format!("first answer wrong: {e:?}"))
}

/// Send one request and check its response against the model.
pub fn perform(
    client: &mut HermitClient,
    data: &Dataset,
    live: &BTreeSet<(u32, i64)>,
    request: load::Request<'_>,
) -> Sent {
    let answered = match request {
        // The server has no code of its own for this refusal; its message is
        // the only way to tell it from a storage failure.
        load::Request::Checkpoint => match client.checkpoint() {
            Err(ClientError::Server { code: ErrorCode::Storage, message })
                if message.contains("checkpoint refused") =>
            {
                return Sent::Refused
            }
            other => other.map_err(|e| e.to_string()),
        },
        load::Request::Op(op) => match *op {
            Op::Point { target } => read(client, data, live, op, target, target),
            Op::Range { lo, hi } => read(client, data, live, op, lo, hi),
            Op::Insert { pk, target } => {
                client.insert(data.row(pk, target).to_vec()).map(drop).map_err(|e| e.to_string())
            }
            Op::Delete { pk, .. } => client.delete(pk).map_err(|e| e.to_string()),
            Op::Begin => client.begin().map(drop).map_err(|e| e.to_string()),
            Op::Commit => client.commit().map_err(|e| e.to_string()),
        },
    };
    match answered {
        Ok(()) => Sent::Ok,
        Err(why) => Sent::Failed(why),
    }
}

fn read(
    client: &mut HermitClient,
    data: &Dataset,
    live: &BTreeSet<(u32, i64)>,
    op: &Op,
    lo: usize,
    hi: usize,
) -> Result<(), String> {
    let query = op.query().expect("reads have a query");
    let rows = client.query(&query).map_err(|e| e.to_string())?;
    check_read(data, live, lo, hi, &rows)
        .map_err(|wrong| format!("wrong answer to {op:?}: {wrong:?}"))
}

/// pks of every row in one connection's churn region, read in bounded slices.
fn read_churn_region(
    client: &mut HermitClient,
    layout: Layout,
    conn: usize,
) -> Result<Vec<i64>, String> {
    const SLICE: usize = 500;
    let (lo, hi) = (layout.churn_lo(conn), layout.churn_lo(conn) + layout.churn_span);
    let mut pks = Vec::new();
    for from in (lo..hi).step_by(SLICE) {
        let to = (from + SLICE).min(hi) - 1;
        let rows = client
            .query(&Query::new().range(gen::TARGET, from as f64, to as f64).select([gen::PK]))
            .map_err(|e| format!("recovery read {from}..={to}: {e}"))?;
        pks.extend(rows.iter().filter_map(|r| r.first().and_then(Value::as_i64)));
    }
    Ok(pks)
}

/// Value of an unlabelled `name value` line of the server's `Stats` dump.
pub fn stat_value(stats: &str, name: &str) -> Option<f64> {
    stats.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

fn remove_dir(dir: &Path) {
    // Best effort: a leftover directory costs disk, not correctness, and the
    // whole work directory is removed at exit anyway.
    let _ = std::fs::remove_dir_all(dir);
}

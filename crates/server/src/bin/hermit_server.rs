//! `hermit-server`: serve a Hermit database over TCP.
//!
//! ```text
//! hermit-server [--addr HOST:PORT] [--data-dir DIR] [--mem-rows N]
//!               [--max-connections N] [--deadline-ms N] [--wal-sync-every N]
//!               [--read-timeout-ms N]
//! ```
//!
//! * `--data-dir DIR` — durable mode: open the checkpointed database at
//!   `DIR` (running recovery if needed), or create a fresh one with the
//!   default `pk/host/target` schema when the directory holds no catalog.
//!   Fresh databases get a baseline index on `host` and a Hermit index on
//!   `target` routed through it.
//! * `--mem-rows N` — in-memory demo mode (the default, with N=100000):
//!   synthetic `pk/host/target` rows with `host = 2·target`, same indexes.
//! * `--wal-sync-every N` — WAL commit batch: fsync once per N auto-commit
//!   statements (1 = every auto-commit statement and every commit durable
//!   before it is acknowledged). A transaction commit always fsyncs; the
//!   statements inside a transaction never do on their own. Durable mode
//!   only.
//!
//! Prints `listening on ADDR` once serving (scripts bind port 0 and parse
//! the line), then blocks until a client sends `Shutdown`.

use hermit_core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
use hermit_core::{Database, DurabilityConfig};
use hermit_server::{HermitServer, ServerConfig};
use hermit_storage::{ColumnDef, Schema, TidScheme, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Args {
    addr: String,
    data_dir: Option<PathBuf>,
    mem_rows: usize,
    max_connections: usize,
    deadline_ms: Option<u64>,
    wal_sync_every: usize,
    read_timeout_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hermit-server [--addr HOST:PORT] [--data-dir DIR] [--mem-rows N] \
         [--max-connections N] [--deadline-ms N] [--wal-sync-every N] [--read-timeout-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        data_dir: None,
        mem_rows: 100_000,
        max_connections: 64,
        deadline_ms: Some(5_000),
        wal_sync_every: 64,
        read_timeout_ms: Some(60_000),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i),
            "--data-dir" => args.data_dir = Some(PathBuf::from(value(&mut i))),
            "--mem-rows" => args.mem_rows = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-connections" => {
                args.max_connections = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--deadline-ms" => {
                let ms: u64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                args.deadline_ms = (ms > 0).then_some(ms);
            }
            "--wal-sync-every" => {
                args.wal_sync_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--read-timeout-ms" => {
                let ms: u64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                args.read_timeout_ms = (ms > 0).then_some(ms);
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn default_schema() -> Schema {
    Schema::new(vec![ColumnDef::int("pk"), ColumnDef::float("host"), ColumnDef::float("target")])
}

/// Open-or-create the durable database at `dir`.
fn durable_db(dir: &Path, wal_sync_every: usize) -> Database {
    let config = DurabilityConfig { wal_sync_every, ..Default::default() };
    if dir.join(hermit_core::recovery::CATALOG_FILE).exists() {
        match Database::open(dir, &config) {
            Ok(db) => {
                eprintln!("recovered {} rows from {}", db.len(), dir.display());
                return db;
            }
            Err(e) => {
                eprintln!("hermit-server: cannot open {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    let mut db = match Database::create_durable(default_schema(), 0, dir, &config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("hermit-server: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    db.create_baseline_index(1, true).expect("host index");
    db.create_hermit_index(2, 1).expect("hermit index");
    // Make the index definitions durable before serving: they live in the
    // catalog, not the WAL.
    db.checkpoint(dir).expect("initial checkpoint");
    db
}

/// In-memory demo database: `host = 2·target`, both indexed.
fn mem_db(rows: usize) -> Database {
    let mut db = Database::new(default_schema(), 0, TidScheme::Physical);
    for i in 0..rows {
        let m = i as f64;
        db.insert(&[Value::Int(i as i64), Value::Float(2.0 * m), Value::Float(m)]).unwrap();
    }
    db.create_baseline_index(1, true).expect("host index");
    db.create_hermit_index(2, 1).expect("hermit index");
    db
}

fn main() {
    let args = parse_args();
    let db = match &args.data_dir {
        Some(dir) => durable_db(dir, args.wal_sync_every.max(1)),
        None => mem_db(args.mem_rows),
    };
    let shared = SharedDatabase::new(db);
    let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
    let config = ServerConfig {
        max_connections: args.max_connections,
        query_deadline: args.deadline_ms.map(Duration::from_millis),
        read_timeout: args.read_timeout_ms.map(Duration::from_millis),
        ..Default::default()
    };
    let server = match HermitServer::start(shared, Some(worker), config, args.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hermit-server: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    server.wait();
    println!("shut down cleanly");
}

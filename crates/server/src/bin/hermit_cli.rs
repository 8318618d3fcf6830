//! `hermit-cli`: command-line client for `hermit-server`.
//!
//! ```text
//! hermit-cli [--addr HOST:PORT] [--timeout-ms N] [--retries N] <command> [args...]
//!
//! commands:
//!   insert <v>...                 insert one row (int, float, or `null` cells)
//!   delete <pk>                   delete by primary key
//!   query  <col> <lb> <ub> ...    conjunctive range query (triples repeat)
//!   point  <col> <v>              single point query
//!   explain <col> <lb> <ub> ...   EXPLAIN the plan without executing
//!   stats                         dump the server's metrics report
//!   checkpoint                    trigger a live checkpoint
//!   shutdown                      graceful server shutdown
//!   begin                         open a transaction, print its id
//!   commit                        commit this connection's transaction
//!   rollback                      roll back this connection's transaction
//!   txn                           scripted transaction: statements on stdin
//! ```
//!
//! `--timeout-ms` bounds connect / read / write syscalls (default 10000);
//! `--retries` reissues *idempotent* commands (query / point / explain /
//! stats) after transient failures with jittered exponential backoff
//! (default 2; mutating commands are never retried).
//!
//! Transactions are per-connection, so the standalone `begin` / `commit` /
//! `rollback` verbs mostly exercise the protocol (a `begin` whose process
//! exits is rolled back by the server). The useful surface is `txn`: it
//! reads one statement per line from stdin — `insert`, `delete`, `query`,
//! `point`, `commit`, `rollback`; blank lines and `#` comments skipped —
//! runs them all inside one transaction on one connection, and commits at
//! EOF unless the script said `commit`/`rollback` itself. Any failed
//! statement rolls the transaction back and exits 1; a malformed statement
//! rolls back and exits 2.
//!
//! Rows print one per line, tab-separated. Exit status 0 on success, 1 on
//! a server-reported or transport error, 2 on a usage error.
#![warn(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use, clippy::unused_result_ok))]

use hermit_core::Query;
use hermit_server::{ClientConfig, HermitClient};
use hermit_storage::Value;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: hermit-cli [--addr HOST:PORT] [--timeout-ms N] [--retries N] \
         <insert|delete|query|point|explain|stats|checkpoint|shutdown\
         |begin|commit|rollback|txn> [args...]"
    );
    std::process::exit(2);
}

fn parse_cell(s: &str) -> Value {
    if s.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    match s.parse::<f64>() {
        Ok(f) => Value::Float(f),
        Err(_) => {
            eprintln!("hermit-cli: `{s}` is not null, an integer, or a float");
            std::process::exit(2);
        }
    }
}

fn parse_query(args: &[String]) -> Query {
    if args.is_empty() || !args.len().is_multiple_of(3) {
        eprintln!("hermit-cli: query/explain take (col, lb, ub) triples");
        std::process::exit(2);
    }
    let mut q = Query::new();
    for triple in args.chunks(3) {
        let col: usize = triple[0].parse().unwrap_or_else(|_| usage());
        let lb: f64 = triple[1].parse().unwrap_or_else(|_| usage());
        let ub: f64 = triple[2].parse().unwrap_or_else(|_| usage());
        q = q.range(col, lb, ub);
    }
    q
}

fn print_rows(rows: &[Vec<Value>]) {
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    println!("({} rows)", rows.len());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut timeout = Duration::from_millis(10_000);
    let mut retries = 2u32;
    let mut rest = &argv[..];
    loop {
        match rest.first().map(String::as_str) {
            Some("--addr") => {
                addr = rest.get(1).cloned().unwrap_or_else(|| usage());
                rest = &rest[2..];
            }
            Some("--timeout-ms") => {
                let ms: u64 = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                timeout = Duration::from_millis(ms);
                rest = &rest[2..];
            }
            Some("--retries") => {
                retries = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                rest = &rest[2..];
            }
            _ => break,
        }
    }
    let Some(command) = rest.first() else { usage() };
    let args = &rest[1..];

    // `--timeout-ms 0` disables the bounds (a zero socket timeout is an
    // error at the OS level, so map it to "no timeout").
    let timeout = if timeout.is_zero() { None } else { Some(timeout) };
    let config = ClientConfig {
        connect_timeout: timeout,
        read_timeout: timeout,
        write_timeout: timeout,
        retries,
        ..ClientConfig::default()
    };
    let mut client = match HermitClient::connect_with(addr.as_str(), config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hermit-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match command.as_str() {
        "insert" => {
            if args.is_empty() {
                usage();
            }
            let row: Vec<Value> = args.iter().map(|s| parse_cell(s)).collect();
            client.insert(row).map(|tid| println!("inserted (tid {tid:#x})"))
        }
        "delete" => {
            let pk: i64 = args.first().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            client.delete(pk).map(|()| println!("deleted {pk}"))
        }
        "query" => client.query(&parse_query(args)).map(|rows| print_rows(&rows)),
        "point" => {
            if args.len() != 2 {
                usage();
            }
            let col: usize = args[0].parse().unwrap_or_else(|_| usage());
            let v: f64 = args[1].parse().unwrap_or_else(|_| usage());
            client.query(&Query::new().point(col, v)).map(|rows| print_rows(&rows))
        }
        "explain" => client.explain(&parse_query(args)).map(|plan| println!("{plan}")),
        "stats" => client.stats().map(|report| print!("{report}")),
        "checkpoint" => client.checkpoint().map(|()| println!("checkpoint complete")),
        "shutdown" => client.shutdown().map(|()| println!("shutdown acknowledged")),
        "begin" => client.begin().map(|txn| println!("begun (txn {txn})")),
        "commit" => client.commit().map(|()| println!("committed")),
        "rollback" => client.rollback().map(|()| println!("rolled back")),
        "txn" => {
            run_txn_script(&mut client);
            Ok(())
        }
        _ => usage(),
    };
    if let Err(e) = outcome {
        eprintln!("hermit-cli: {e}");
        std::process::exit(1);
    }
}

/// The scripted-transaction mode: statements from stdin, one per line, all
/// inside a single transaction on this connection. Commits at EOF unless
/// the script committed or rolled back itself. Exits the process directly:
/// 0 on success, 1 when the server rejects a statement (after rolling the
/// transaction back), 2 on a malformed statement.
fn run_txn_script(client: &mut HermitClient) {
    let txn = match client.begin() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hermit-cli: begin failed: {e}");
            std::process::exit(1);
        }
    };
    println!("begun (txn {txn})");
    let mut closed = false;
    for line in std::io::stdin().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("hermit-cli: stdin: {e}");
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the script already failed and we are exiting nonzero; the server also rolls back on disconnect"
                )]
                let _ = client.rollback();
                std::process::exit(1);
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if closed {
            eprintln!("hermit-cli: statement after commit/rollback: `{line}`");
            std::process::exit(2);
        }
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let (stmt, args) = (words[0].as_str(), &words[1..]);
        let outcome = match stmt {
            "insert" if !args.is_empty() => {
                let row: Vec<Value> = args.iter().map(|s| parse_cell(s)).collect();
                client.insert(row).map(|tid| println!("inserted (tid {tid:#x})"))
            }
            "delete" if args.len() == 1 => match args[0].parse::<i64>() {
                Ok(pk) => client.delete(pk).map(|()| println!("deleted {pk}")),
                Err(_) => script_usage(client, line),
            },
            "query" => client.query(&parse_query(args)).map(|rows| print_rows(&rows)),
            "point" if args.len() == 2 => {
                match (args[0].parse::<usize>(), args[1].parse::<f64>()) {
                    (Ok(col), Ok(v)) => {
                        client.query(&Query::new().point(col, v)).map(|rows| print_rows(&rows))
                    }
                    _ => script_usage(client, line),
                }
            }
            "commit" if args.is_empty() => {
                closed = true;
                client.commit().map(|()| println!("committed"))
            }
            "rollback" if args.is_empty() => {
                closed = true;
                client.rollback().map(|()| println!("rolled back"))
            }
            _ => script_usage(client, line),
        };
        if let Err(e) = outcome {
            eprintln!("hermit-cli: {e}");
            if !closed {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort cleanup on the error exit; the server rolls back open transactions on disconnect anyway"
                )]
                let _ = client.rollback();
            }
            std::process::exit(1);
        }
    }
    if !closed {
        if let Err(e) = client.commit() {
            eprintln!("hermit-cli: commit failed: {e}");
            #[expect(
                clippy::let_underscore_must_use,
                reason = "commit already failed and its error is what we report; the rollback is best-effort cleanup"
            )]
            let _ = client.rollback();
            std::process::exit(1);
        }
        println!("committed");
    }
    std::process::exit(0);
}

/// A malformed script statement: roll back and exit 2 (usage error), same
/// contract as a malformed command line.
fn script_usage(client: &mut HermitClient, line: &str) -> ! {
    eprintln!(
        "hermit-cli: bad txn statement: `{line}` (expected insert/delete/query/point/\
         commit/rollback)"
    );
    #[expect(
        clippy::let_underscore_must_use,
        reason = "usage error: exiting 2 regardless; the server rolls back open transactions on disconnect"
    )]
    let _ = client.rollback();
    std::process::exit(2);
}

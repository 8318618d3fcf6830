//! The server under test: the real `hermit-server` binary as a child process
//! (what the benchmark measures), or the same serving stack in-process (what
//! `cargo test` and the traced replay use — `cargo test` does not build the
//! sibling binary, and a replay wants the engine in reach).

use hermit_core::shared::{MaintenanceConfig, MaintenanceWorker, SharedDatabase};
use hermit_core::{Database, DurabilityConfig};
use hermit_server::{HermitClient, HermitServer, ServerConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// How to put a server in front of a data directory.
#[derive(Clone)]
pub enum Launcher {
    /// Spawn this `hermit-server` binary.
    Binary(PathBuf),
    /// Serve from a thread of this process.
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

/// A child that is killed and reaped when dropped, so no path out of the
/// benchmark — error, panic or normal exit — leaves a server running.
pub struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

pub enum Server {
    Child {
        child: Reaped,
        addr: SocketAddr,
        /// Held so the child's final `println!` does not hit a closed pipe.
        _stdout: BufReader<ChildStdout>,
    },
    InProcess(HermitServer),
}

/// Counters of `/proc/<pid>/io`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscw: u64,
}

impl Launcher {
    /// Start serving `dir`; returns once the server is listening.
    pub fn launch(&self, dir: &Path, wal_sync_every: usize) -> Result<Server, String> {
        match self {
            Launcher::InProcess => in_process(dir, wal_sync_every, true).map(Server::InProcess),
            Launcher::Binary(bin) => {
                let child = Command::new(bin)
                    .args(["--addr", "127.0.0.1:0", "--data-dir"])
                    .arg(dir)
                    .args(["--wal-sync-every", &wal_sync_every.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
                let mut child = Reaped(child);
                let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
                let mut line = String::new();
                let addr = match stdout.read_line(&mut line) {
                    Ok(_) => line.trim().strip_prefix("listening on ").and_then(|a| a.parse().ok()),
                    Err(_) => None,
                };
                match addr {
                    Some(addr) => Ok(Server::Child { child, addr, _stdout: stdout }),
                    None => Err(format!("{} did not report an address: {line:?}", bin.display())),
                }
            }
        }
    }
}

/// The serving stack of `hermit-server --data-dir`, on a thread of this process.
pub fn in_process(
    dir: &Path,
    wal_sync_every: usize,
    maintenance: bool,
) -> Result<HermitServer, String> {
    let config = DurabilityConfig { wal_sync_every, ..Default::default() };
    let db = Database::open(dir, &config).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let shared = SharedDatabase::new(db);
    let worker =
        maintenance.then(|| MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default()));
    HermitServer::start(shared, worker, ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))
}

impl Server {
    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Child { addr, .. } => *addr,
            Server::InProcess(server) => server.local_addr(),
        }
    }

    pub fn connect(&self) -> Result<HermitClient, String> {
        HermitClient::connect(self.addr()).map_err(|e| format!("connect {}: {e}", self.addr()))
    }

    fn pid(&self) -> Option<u32> {
        match self {
            Server::Child { child, .. } => Some(child.0.id()),
            Server::InProcess(_) => None,
        }
    }

    /// Peak resident set of the child, MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()?)).ok()?;
        let kb: f64 = proc_field(&status, "VmHWM:")?.trim_end_matches("kB").trim().parse().ok()?;
        Some(kb / 1024.0)
    }

    pub fn io(&self) -> Option<ProcIo> {
        let io = std::fs::read_to_string(format!("/proc/{}/io", self.pid()?)).ok()?;
        let field = |name| proc_field(&io, name)?.parse().ok();
        Some(ProcIo { rchar: field("rchar:")?, wchar: field("wchar:")?, syscw: field("syscw:")? })
    }

    /// Stop without any chance to clean up, while `clients` are still
    /// connected. The child gets `kill -9`. The in-process stand-in can only
    /// be stopped gracefully (and waits for its connections to close first),
    /// so tests exercise the verification that follows a crash, not the crash.
    pub fn crash(self, clients: Vec<HermitClient>) {
        match self {
            Server::Child { child, .. } => {
                drop(child);
                drop(clients);
            }
            Server::InProcess(server) => {
                drop(clients);
                server.stop();
            }
        }
    }

    /// Graceful stop: `Shutdown` request, then wait for the drain to finish.
    pub fn shutdown(self) -> Result<(), String> {
        match self {
            Server::InProcess(server) => {
                server.stop();
                Ok(())
            }
            Server::Child { mut child, addr, _stdout } => {
                let asked = HermitClient::connect(addr)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
                asked.map_err(|e| format!("shutdown request: {e}"))?;
                let status = child.0.wait().map_err(|e| format!("wait for server: {e}"))?;
                status.success().then_some(()).ok_or(format!("server exited with {status}"))
            }
        }
    }
}

fn proc_field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.lines().find_map(|l| l.strip_prefix(name)).map(str::trim)
}

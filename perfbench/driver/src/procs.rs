//! The programs under test as child processes: start-up timing, peak
//! resident memory read from `/proc`, and guaranteed teardown.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Client;

/// How long a program may take to come up before the run is abandoned.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU jiffies of the whole machine from `/proc/stat`:
/// time the hypervisor ran someone else while this machine's CPUs
/// wanted to run.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Resets the kernel's peak-resident-set mark of `pid` (`clear_refs`
/// value 5); `false` when the kernel refuses.
pub fn reset_peak_rss(pid: u32) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// A running `dpcp-serve`; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn until the first `200` from `/healthz`, in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Starts the server on an ephemeral port with `workers` workers and
    /// a verdict cache of `capacity` entries, and waits until `/healthz`
    /// answers.
    pub fn spawn(bin: &Path, workers: usize, capacity: usize) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--cache-capacity", &capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // `dpcp-serve listening on 127.0.0.1:PORT (...)`
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = match (read, line.split_whitespace().nth(3)) {
            (Some(Ok(_)), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("dpcp-serve printed no address: {line:?}"));
            }
        };
        let mut server = Server {
            child,
            addr,
            setup_s: 0.0,
        };
        loop {
            if let Ok(reply) = Client::new(&server.addr).send("GET", "/healthz", b"") {
                if reply.status == 200 {
                    break;
                }
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("dpcp-serve never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The outcome of one tracked child run.
#[derive(Debug, Clone, Copy)]
pub struct Tracked {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub success: bool,
}

/// Runs a command to completion (killing it after `timeout`), sampling
/// its peak resident set every millisecond while it lives.
pub fn run_tracked(cmd: &mut Command, timeout: Duration) -> Result<Tracked, String> {
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let mut peak = 0.0f64;
    loop {
        if let Some(rss) = peak_rss_mb(pid) {
            peak = peak.max(rss);
        }
        let failure = match child.try_wait() {
            Ok(Some(status)) => {
                return Ok(Tracked {
                    wall_s: started.elapsed().as_secs_f64(),
                    peak_rss_mb: peak,
                    success: status.success(),
                })
            }
            Ok(None) if started.elapsed() < timeout => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Ok(None) => format!("still running after {timeout:?}"),
            Err(e) => format!("wait: {e}"),
        };
        let _ = child.kill();
        let _ = child.wait();
        return Err(failure);
    }
}

//! Processes of the system under test: spawning `repro` and `serve`,
//! watching their *own* peak RSS, and stopping a `serve` cleanly — the
//! `shutdown` op first, a kill only after a timeout.
//!
//! Peak RSS is the child's `VmHWM` from `/proc/<pid>/status`, sampled
//! every 2 ms. `wait4`'s `ru_maxrss` is not usable: a child started
//! by `posix_spawn` or `fork` carries the parent's high-water mark
//! across `exec`, so it would report the generator's own peak whenever
//! that is the larger (the test below pins this).

use desc_serve::client::{ping_request, shutdown_request, Client};
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// The child's own peak resident set (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
    /// True when the child outlived its timeout and had to be killed.
    pub killed: bool,
}

impl Exit {
    /// Peak RSS in MB (10^6 bytes).
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 * 1024.0 / 1e6
    }
}

/// Waits for `child` to exit, killing it if it is still running after
/// `timeout`. Returns its exit code and whether it had to be killed.
fn reap(child: &mut Child, timeout: Duration) -> std::io::Result<(Option<i32>, bool)> {
    let deadline = Instant::now() + timeout;
    let mut killed = false;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok((status.code(), killed));
        }
        if Instant::now() >= deadline && !killed {
            child.kill()?;
            killed = true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A child's `VmHWM` in KiB; `None` once it has exited.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Watches a running child from a helper thread: samples its peak RSS
/// and kills it once `timeout` passes, so a blocked read on its pipe
/// cannot hang the benchmark. Stopped before the child is reaped, so
/// its pid cannot be reused while watched.
struct Monitor {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<u64>>,
}

impl Monitor {
    fn start(child: &Child, timeout: Duration) -> Monitor {
        let pid = child.id();
        let (tx, rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let deadline = Instant::now() + timeout;
            let (mut peak, mut killed) = (0, false);
            loop {
                peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Err(mpsc::RecvTimeoutError::Timeout) if killed || Instant::now() < deadline => {
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                        killed = true;
                    }
                    _ => return peak.max(vm_hwm_kb(pid).unwrap_or(0)),
                }
            }
        });
        Monitor {
            stop: Some(tx),
            thread: Some(thread),
        }
    }

    /// Stops watching; returns the highest `VmHWM` seen, KiB.
    fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        drop(self.stop.take());
        self.thread.take().map_or(0, |t| t.join().unwrap_or(0))
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The last lines of a child's log, for error messages.
pub fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// A spawned child under a [`Monitor`]. Dropping it unfinished reaps
/// the process, killing it if it has not exited within 5 s.
struct Watched {
    child: Child,
    monitor: Option<Monitor>,
    reaped: bool,
}

impl Watched {
    fn spawn(cmd: &mut Command, timeout: Duration) -> Result<Watched, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let monitor = Some(Monitor::start(&child, timeout));
        Ok(Watched {
            child,
            monitor,
            reaped: false,
        })
    }

    fn stdout(&mut self) -> ChildStdout {
        self.child
            .stdout
            .take()
            .expect("stdout is piped and taken once")
    }

    /// Stops watching, then reaps the child: killed first when `kill`,
    /// or when it has not exited within `timeout`.
    fn finish(&mut self, kill: bool, timeout: Duration) -> Result<Exit, String> {
        if kill {
            let _ = self.child.kill();
        }
        let peak_rss_kb = self.monitor.take().map_or(0, Monitor::stop);
        let (code, killed) = reap(&mut self.child, timeout).map_err(|e| format!("reap: {e}"))?;
        self.reaped = true;
        Ok(Exit {
            code,
            peak_rss_kb,
            killed,
        })
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.finish(false, Duration::from_secs(5));
        }
    }
}

/// One `repro` invocation.
pub struct ReproRun {
    /// Spawn until the first table line on stdout.
    pub setup_s: f64,
    /// Spawn until exit.
    pub wall_s: f64,
    /// Everything the run printed on stdout.
    pub stdout: Vec<u8>,
    /// How it ended.
    pub exit: Exit,
}

/// Runs `repro` with `args`, stderr to `log`. With `setup_only` the
/// process is killed as soon as its first table line arrives (a set-up
/// probe); otherwise it runs to completion within `timeout`.
pub fn run_repro(
    bin: &Path,
    args: &[String],
    log: &Path,
    setup_only: bool,
    timeout: Duration,
) -> Result<ReproRun, String> {
    let started = Instant::now();
    let mut proc = Watched::spawn(
        Command::new(bin)
            .args(args)
            .env_remove("DESC_CACHE_MEM_BYTES")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?),
        timeout,
    )?;
    let mut reader = BufReader::new(proc.stdout());
    let mut stdout = Vec::new();
    let read = reader.read_until(b'\n', &mut stdout);
    let setup_s = started.elapsed().as_secs_f64();
    if read.is_ok() && !setup_only {
        // EOF: the process has closed stdout by exiting, so its report
        // is written and its whole life was sampled.
        let _ = reader.read_to_end(&mut stdout);
    }
    let exit = proc.finish(setup_only, Duration::from_secs(5))?;
    let wall_s = started.elapsed().as_secs_f64();
    if stdout.is_empty() {
        return Err(format!("repro printed nothing; log: {}", log_tail(log)));
    }
    if !setup_only && exit.code != Some(0) {
        return Err(format!(
            "repro exited with {:?}; log: {}",
            exit.code,
            log_tail(log)
        ));
    }
    Ok(ReproRun {
        setup_s,
        wall_s,
        stdout,
        exit,
    })
}

/// A running `serve` on a free port. Dropping it without [`Served::stop`]
/// (an error path) still sends the `shutdown` op, then kills the process
/// if it has not exited within 5 s.
pub struct Served {
    proc: Watched,
    /// The address the server reported.
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Served {
    /// Spawns `serve --jobs <jobs>` on `127.0.0.1:0` over `cache_dir`
    /// (hot tier capped at `mem_budget` bytes when given) and returns
    /// it with its set-up time: spawn until the first `ping` reply. A
    /// server still alive after `lifetime` is killed.
    pub fn start(
        bin: &Path,
        cache_dir: &Path,
        jobs: usize,
        mem_budget: Option<u64>,
        log: &Path,
        lifetime: Duration,
    ) -> Result<(Served, f64), String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
            "--cache-dir",
        ])
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?);
        match mem_budget {
            Some(bytes) => cmd.env("DESC_CACHE_MEM_BYTES", bytes.to_string()),
            None => cmd.env_remove("DESC_CACHE_MEM_BYTES"),
        };
        // From here on, an early return drops `proc`, which reaps the
        // process (killing it after 5 s).
        let mut proc = Watched::spawn(&mut cmd, lifetime)?;
        let mut stdout = BufReader::new(proc.stdout());
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line
            .trim()
            .strip_prefix("serve: listening on ")
            .and_then(|a| a.parse().ok())
        else {
            let exit = proc.finish(false, Duration::from_secs(5));
            return Err(format!(
                "serve did not come up ({exit:?}); log: {}",
                log_tail(log)
            ));
        };
        let served = Served {
            proc,
            addr,
            _stdout: stdout,
        };
        let reply = Client::connect(addr).and_then(|mut c| c.request(&ping_request("setup")));
        match reply {
            Ok(r) if r.get("status").and_then(|s| s.as_str()) == Some("ok") => {}
            other => {
                return Err(format!(
                    "serve ping failed: {other:?}; log: {}",
                    log_tail(log)
                ))
            }
        }
        Ok((served, started.elapsed().as_secs_f64()))
    }

    /// Sends the `shutdown` op and reaps the server. A server that does
    /// not exit within the timeout is killed, and that is an error: the
    /// run would otherwise have left it behind.
    pub fn stop(mut self) -> Result<Exit, String> {
        let ack = self.shutdown();
        let exit = self.proc.finish(false, Duration::from_secs(20))?;
        if ack.is_err() || exit.killed || exit.code != Some(0) {
            return Err(format!(
                "serve did not shut down cleanly: ack {ack:?}, exit {exit:?}"
            ));
        }
        Ok(exit)
    }

    fn shutdown(&self) -> std::io::Result<desc_telemetry::Json> {
        Client::connect(self.addr).and_then(|mut c| c.request(&shutdown_request("stop")))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if !self.proc.reaped {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOLD_MB: &str = "PERFBENCH_TEST_HOLD_MB";

    /// Not a check by itself: with `PERFBENCH_TEST_HOLD_MB` set it is
    /// the child of `peak_rss_is_the_childs_not_the_generators`.
    #[test]
    fn child_holds_memory() {
        if let Some(mb) = std::env::var(HOLD_MB)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            let held = vec![1u8; mb << 20];
            std::hint::black_box(&held);
            std::thread::sleep(Duration::from_millis(300));
        }
    }

    /// Runs `cmd` to completion under a monitor, the way `run_repro`
    /// does: stdout reaches EOF when the process exits.
    fn watched(cmd: &mut Command) -> Exit {
        let mut proc =
            Watched::spawn(cmd.stdout(Stdio::piped()), Duration::from_secs(60)).expect("spawn");
        let _ = proc.stdout().read_to_end(&mut Vec::new());
        let exit = proc.finish(false, Duration::from_secs(60)).expect("reap");
        assert_eq!(exit.code, Some(0));
        exit
    }

    #[test]
    fn peak_rss_is_the_childs_not_the_generators() {
        // The generator holds 256 MB of touched pages while it measures.
        let ballast = vec![1u8; 256 << 20];
        std::hint::black_box(&ballast);
        let small = watched(Command::new("sleep").arg("0.3"));
        assert!(small.peak_rss_kb > 0, "the child was sampled");
        assert!(
            small.peak_rss_mb() < 64.0,
            "a tiny child read {} MB",
            small.peak_rss_mb()
        );
        let big = watched(
            Command::new(std::env::current_exe().expect("test binary"))
                .args(["--exact", "proc::tests::child_holds_memory", "--quiet"])
                .env(HOLD_MB, "96"),
        );
        let mb = big.peak_rss_mb();
        assert!((96.0..200.0).contains(&mb), "a 96 MB child read {mb} MB");
    }

    #[test]
    fn a_child_past_its_timeout_is_killed_and_reaped() {
        let mut child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let (code, killed) = reap(&mut child, Duration::from_millis(50)).expect("reap sleep");
        assert!(killed);
        assert_eq!(code, None, "ended by a signal");
    }
}

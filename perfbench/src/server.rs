//! `migctl serve` child processes: spawn, wait for the banner, scrape
//! `stats`, read `/proc`, and kill on every exit path.
//!
//! A [`Server`] kills and reaps its process when dropped, so an early
//! return or a panic in the benchmark never leaves an orphan behind.
//! The child also asks the kernel to kill it if the benchmark itself
//! dies by a signal (`PR_SET_PDEATHSIG`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, arg2: u64, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_OTHER: i32 = 0;
const SCHED_FIFO: i32 = 1;
const SCHED_RESET_ON_FORK: i32 = 0x4000_0000;

/// Run the calling thread under `SCHED_FIFO` (priority 1), or back under
/// the default policy. The load generator runs real-time so that its
/// own wake-ups are not queued behind the server it measures; with
/// `SCHED_RESET_ON_FORK` no server process or helper thread inherits
/// the policy. `false` when the kernel refused (no privilege): the run
/// goes on at normal priority.
pub fn realtime(on: bool) -> bool {
    let (policy, prio) = if on { (SCHED_FIFO | SCHED_RESET_ON_FORK, 1) } else { (SCHED_OTHER, 0) };
    // SAFETY: `prio` is a live `struct sched_param` (a single int) for
    // the duration of the call; pid 0 is the calling thread.
    unsafe { sched_setscheduler(0, policy, &prio) == 0 }
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `migctl serve`.
pub struct Server {
    child: Child,
    /// Client address from the banner.
    pub addr: SocketAddr,
    /// Replication address from the banner (primaries only).
    pub repl_addr: Option<String>,
    /// Every banner line, in order.
    pub banner: Vec<String>,
    /// Seconds from spawn to the listening banner.
    pub start_s: f64,
}

impl Server {
    /// Spawn `migctl serve` with `args` after the three input files and
    /// wait (up to `timeout`) for its listening banner. Stdout and
    /// stderr go to `log` (read back for the banner), so no pipe can
    /// fill up and stall the server.
    pub fn spawn(
        migctl: &Path,
        inputs: &[PathBuf; 2],
        inventory: &str,
        args: &[String],
        log: &Path,
        timeout: Duration,
    ) -> Result<Server, String> {
        let out = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(migctl);
        cmd.arg("serve")
            .arg(&inputs[0])
            .arg(&inputs[1])
            .arg("--inventory")
            .arg(inventory)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err);
        // SAFETY: `prctl(PR_SET_PDEATHSIG, SIGKILL)` only sets a flag on
        // the calling (child) process; it allocates nothing and is
        // async-signal-safe, as `pre_exec` requires.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let t0 = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", migctl.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            repl_addr: None,
            banner: Vec::new(),
            start_s: 0.0,
        };
        let deadline = t0 + timeout;
        let mut seen = 0usize;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            let complete = text.rfind('\n').map_or("", |i| &text[..i]);
            for line in complete.lines().skip(seen) {
                seen += 1;
                server.banner.push(line.to_owned());
                if let Some(rest) = line.strip_prefix("migctl serve: replicating on ") {
                    server.repl_addr = rest.split_whitespace().next().map(str::to_owned);
                }
                if let Some(rest) = line.strip_prefix("migctl serve: listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    server.addr = addr.parse().map_err(|e| format!("banner `{line}`: {e}"))?;
                    server.start_s = t0.elapsed().as_secs_f64();
                }
            }
            if server.start_s > 0.0 {
                // A primary prints its replication address right after
                // the listening line; wait for it when asked for one.
                let wants_repl = args.iter().any(|a| a == "--repl-addr");
                if !wants_repl || server.repl_addr.is_some() {
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("migctl serve exited with {status}: {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("no listening banner within {timeout:?}: {text}"));
            }
            // Fine polling while a cold start may still be quick, coarse
            // once it is a recovery that takes seconds.
            let fine = t0.elapsed() < Duration::from_millis(50);
            std::thread::sleep(Duration::from_micros(if fine { 50 } else { 500 }));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("VmHWM:")
                        .and_then(|v| v.split_whitespace().next())
                        .and_then(|kb| kb.parse::<f64>().ok())
                })
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Process CPU time (utime + stime over every thread), seconds.
    pub fn cpu_s(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()));
        let Ok(stat) = stat else { return 0.0 };
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 (1-based) of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / clock_ticks()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux this targets.
fn clock_ticks() -> f64 {
    100.0
}

/// One request/reply exchange on a fresh text connection.
pub fn request(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(20))).map_err(|e| e.to_string())?;
    s.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
    let mut r = BufReader::new(s);
    let mut first = String::new();
    r.read_line(&mut first).map_err(|e| format!("{line}: {e}"))?;
    if let Some(len) = first.trim().strip_prefix("ok prom ") {
        let len: usize = len.parse().map_err(|e| format!("prom length: {e}"))?;
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).map_err(|e| format!("prom body: {e}"))?;
        return String::from_utf8(body).map_err(|e| e.to_string());
    }
    Ok(first.trim().to_owned())
}

/// `key=value` field of a `stats` line.
pub fn field<'a>(stats: &'a str, key: &str) -> Option<&'a str> {
    stats.split_whitespace().find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// Numeric `key=value` field of a `stats` line (0 when absent).
pub fn num(stats: &str, key: &str) -> f64 {
    field(stats, key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Refuse to run while any `migctl serve` is alive: an orphan from an
/// earlier run would share the cores and skew every number.
pub fn stray_servers() -> Vec<u32> {
    let mut found = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc") else { return found };
    for entry in dir.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmd) = std::fs::read(entry.path().join("cmdline")) else { continue };
        let mut args = cmd.split(|&b| b == 0);
        let exe = args.next().unwrap_or_default();
        if exe.ends_with(b"migctl") && args.next() == Some(b"serve".as_slice()) {
            found.push(pid);
        }
    }
    found
}

/// Poll `stats` until `pred` holds or `timeout` passes.
pub fn wait_stats(
    addr: SocketAddr,
    timeout: Duration,
    pred: impl Fn(&str) -> bool,
) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let s = request(addr, "stats")?;
        if pred(&s) {
            return Ok(s);
        }
        if Instant::now() > deadline {
            return Err(format!("timed out waiting on stats: {s}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Copy a flat directory (a WAL directory has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Bytes under a flat directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|d| d.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

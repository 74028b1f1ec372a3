//! The `ssa-server` child process: boot, resource readings, kill.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// A running server; killed (SIGKILL) and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Start the binary with `args` plus `--port 0`, and wait for its
    /// `listening on ADDR` line. Its stderr goes to `log`.
    pub fn boot(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout missing")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not report its address (got {line:?}); see {}",
                    log.display()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the server has used so far.
    pub fn cpu_secs(&self) -> f64 {
        proc_cpu_secs(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL the process and wait until it is gone.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// User + system CPU seconds from a `/proc/<pid>/stat` file.
pub fn proc_cpu_secs(stat_path: &str) -> f64 {
    let text = std::fs::read_to_string(stat_path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// The benchmark's scratch directory for one run, removed on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create(root: &Path, name: &str) -> Result<WorkDir, String> {
        let path = root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

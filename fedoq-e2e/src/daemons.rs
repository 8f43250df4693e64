//! The federation under test: three `fedoq-site` daemons and one
//! `fedoq-serve` frontend, run as child processes on loopback.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Component sites every workload federation has.
pub const SITES: u16 = 3;

/// Serve worker threads; every other daemon flag keeps its default
/// (sequential scans, unbatched, uncached, default RPC policy).
pub const SERVE_WORKERS: usize = 2;

/// The flags each site daemon is started with (besides its listen port).
pub fn site_flags(db: u16, spec: &str) -> Vec<String> {
    vec![
        "--db".into(),
        db.to_string(),
        "--workload".into(),
        spec.into(),
    ]
}

/// The flags the serve frontend is started with, given the site addresses.
pub fn serve_flags(spec: &str, sites: &[String]) -> Vec<String> {
    let mut args = vec![
        "--workload".into(),
        spec.into(),
        "--workers".into(),
        SERVE_WORKERS.to_string(),
    ];
    for addr in sites {
        args.push("--site".into());
        args.push(addr.clone());
    }
    args
}

/// A running federation. Dropping it kills every daemon and waits for
/// each to exit.
pub struct Fleet {
    children: Vec<Child>,
    /// The serve frontend's client address.
    pub addr: String,
}

impl Fleet {
    /// Spawns the three sites, then the serve frontend, and waits for
    /// each to print its `LISTENING <addr>` line.
    ///
    /// # Errors
    ///
    /// A daemon that fails to start or exits before listening.
    pub fn boot(bin_dir: &Path, spec: &str) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            children: Vec::new(),
            addr: String::new(),
        };
        let site_bin = binary(bin_dir, "fedoq-site")?;
        let mut sites = Vec::new();
        for db in 0..SITES {
            sites.push(fleet.spawn(&site_bin, &site_flags(db, spec))?);
        }
        let serve_bin = binary(bin_dir, "fedoq-serve")?;
        fleet.addr = fleet.spawn(&serve_bin, &serve_flags(spec, &sites))?;
        Ok(fleet)
    }

    fn spawn(&mut self, bin: &Path, args: &[String]) -> Result<String, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not piped")?;
        self.children.push(child);
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        line.trim()
            .strip_prefix("LISTENING ")
            .map(str::to_string)
            .ok_or_else(|| format!("{}: expected LISTENING, got {line:?}", bin.display()))
    }

    /// Sum of the daemons' peak resident set (`VmHWM`), in MB.
    ///
    /// # Errors
    ///
    /// A daemon whose `/proc` status cannot be read or parsed.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0;
        for child in &self.children {
            let path = format!("/proc/{}/status", child.id());
            let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            kb += vmhwm_kb(&status).ok_or_else(|| format!("{path}: no VmHWM line"))?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Kills every daemon and waits for each to exit.
    pub fn stop(mut self) {
        self.kill_all();
    }

    fn kill_all(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

fn binary(dir: &Path, name: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} not found; build it first", path.display()))
    }
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn vmhwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parses_the_status_line() {
        let status =
            "Name:\tfedoq-site\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   50000 kB\n";
        assert_eq!(vmhwm_kb(status), Some(51234));
        assert_eq!(vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vmhwm_kb("VmHWM:\t garbage kB\n"), None);
        assert_eq!(vmhwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn vmhwm_reads_this_process() {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let kb = vmhwm_kb(&status).unwrap();
        assert!(kb > 0);
    }

    #[test]
    fn flags_are_defaults_except_workers() {
        assert_eq!(
            site_flags(2, "university"),
            ["--db", "2", "--workload", "university"]
        );
        let serve = serve_flags("gen:0.5:7", &["a:1".into(), "b:2".into()]);
        assert_eq!(
            serve,
            [
                "--workload",
                "gen:0.5:7",
                "--workers",
                "2",
                "--site",
                "a:1",
                "--site",
                "b:2"
            ]
        );
    }
}

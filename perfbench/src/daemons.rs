//! The daemons under test, run as child processes of this binary.
//!
//! `perfbench --child serve <args>` and `perfbench --child traind <args>`
//! run exactly what the `cdcl-serve` and `cdcl-traind` binaries run —
//! `cdcl_bench::{serve, traind}::parse_args_from` then `run` — so one
//! build of this package yields the whole system. A [`Daemon`] is killed
//! and waited for when dropped, so no child outlives the run, on success
//! or on a panic.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Entry point of a child process: `argv` is everything after `--child`.
pub fn child_main(argv: &[String]) -> ! {
    match argv.split_first() {
        Some((kind, rest)) if kind == "serve" => {
            let args = cdcl_bench::serve::parse_args_from(rest).unwrap_or_else(|e| {
                eprintln!("perfbench child serve: {e}");
                std::process::exit(2)
            });
            cdcl_bench::serve::run(&args);
        }
        Some((kind, rest)) if kind == "traind" => {
            let args = cdcl_bench::traind::parse_args_from(rest).unwrap_or_else(|e| {
                eprintln!("perfbench child traind: {e}");
                std::process::exit(2)
            });
            cdcl_bench::traind::run(args);
        }
        _ => {
            eprintln!("perfbench: --child expects serve|traind");
            std::process::exit(2)
        }
    }
    std::process::exit(0)
}

pub struct Daemon {
    child: Child,
    pub addr: String,
    log: std::path::PathBuf,
}

impl Daemon {
    /// Starts `kind` on a free loopback port (`--tcp`/`--listen` is
    /// appended) and waits until `probe` gets an `"ok":true` answer.
    pub fn start(kind: &str, args: &[&str], work: &Path, probe: &str) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut last_err = String::new();
        // The port is picked by binding and releasing it; retry if another
        // process takes it in between.
        for attempt in 0..3 {
            let port = free_port().map_err(|e| format!("free port: {e}"))?;
            let addr = format!("127.0.0.1:{port}");
            let flag = if kind == "serve" { "--tcp" } else { "--listen" };
            let log = work.join(format!("{kind}-{port}-{attempt}.log"));
            let stderr =
                std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
            let child = Command::new(&exe)
                .arg("--child")
                .arg(kind)
                .args(args)
                .arg(flag)
                .arg(&addr)
                .env("CDCL_THREADS", crate::KERNEL_THREADS.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("spawn {kind}: {e}"))?;
            let d = Daemon { child, addr, log };
            match d.wait_ready(probe, Duration::from_secs(20)) {
                Ok(()) => return Ok(d),
                Err(e) => last_err = format!("{kind} did not start: {e}; log: {}", d.log_tail()),
            }
        }
        Err(last_err)
    }

    fn wait_ready(&self, probe: &str, limit: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            match request(&self.addr, probe) {
                Ok(reply) if reply.contains("\"ok\":true") => return Ok(()),
                Ok(reply) => return Err(format!("probe answered {reply}")),
                Err(e) if t0.elapsed() > limit => return Err(e.to_string()),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// The last lines of the child's stderr, for failure messages.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// One verb exchange on a fresh connection: writes `line`, returns the
/// first reply line.
pub fn request(addr: &str, line: &str) -> std::io::Result<String> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(s.try_clone()?);
    let mut w = s;
    w.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

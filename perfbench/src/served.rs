//! The served side: a spawned `qid serve` process, a line-oriented
//! client connection to it, and resource sampling from `/proc/<pid>`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use qid_server::{MetricsReport, Request, Response, TraceSpan};

/// Flags every spawned server gets. The box the benchmark was designed
/// on has two cores, so two workers and one poller shard.
pub const PINNED_FLAGS: &[&str] = &["--addr", "127.0.0.1:0", "--workers", "2", "--pollers", "1"];

/// Longest wait for any single reply before the run is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `qid serve` child process.
pub struct Served {
    child: Child,
    stdout: Option<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: u32,
    pub flags: Vec<String>,
}

impl Served {
    /// Spawns `qid serve` with the pinned flags plus `extra`, and waits
    /// for the banner that names the bound address.
    pub fn spawn(qid: &Path, extra: &[String]) -> Result<Served, String> {
        let mut flags: Vec<String> = PINNED_FLAGS.iter().map(|s| s.to_string()).collect();
        flags.extend(extra.iter().cloned());
        let mut child = Command::new(qid)
            .arg("serve")
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", qid.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Served {
                child,
                stdout: Some(stdout.into_inner()),
                addr,
                pid,
                flags,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("qid serve printed no address (banner {banner:?})"))
            }
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }

    /// Asks the server to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call(Request::Shutdown.encode().as_bytes()).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(mut out) = self.stdout.take() {
                        let mut rest = String::new();
                        let _ = out.read_to_string(&mut rest);
                    }
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("qid serve exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("qid serve did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // Reached only on error paths (shutdown() reaps the child): never
        // leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection: newline-framed request and reply lines.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        let setup = || -> std::io::Result<Conn> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            Ok(Conn {
                reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
                writer: stream.try_clone()?,
                reply: Vec::with_capacity(1 << 12),
            })
        };
        setup().map_err(|e| format!("configuring connection to {addr}: {e}"))
    }

    /// Sends one request line (`line` without its newline) and returns
    /// the reply line without its newline.
    pub fn call(&mut self, line: &[u8]) -> Result<&[u8], String> {
        let io = |e: std::io::Error| format!("transport: {e}");
        self.writer.write_all(line).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.reply.clear();
        let n = self.reader.read_until(b'\n', &mut self.reply).map_err(io)?;
        if n == 0 || self.reply.last() != Some(&b'\n') {
            return Err("transport: server closed the connection".to_string());
        }
        self.reply.pop();
        Ok(&self.reply)
    }

    /// Closes the socket, so a draining server is not left waiting on it.
    pub fn close(&self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    /// Sends a request and decodes the reply.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let line = self.call(request.encode().as_bytes())?;
        let text = std::str::from_utf8(line).map_err(|e| format!("reply not UTF-8: {e}"))?;
        Response::decode(text)
    }

    pub fn metrics(&mut self) -> Result<MetricsReport, String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(format!("metrics answered {other:?}")),
        }
    }

    /// The newest `last` spans of the server's flight-recorder ring.
    pub fn trace(&mut self, last: usize) -> Result<Vec<TraceSpan>, String> {
        let request = Request::Trace {
            last,
            command: None,
            min_us: 0,
        };
        match self.request(&request)? {
            Response::Trace { spans } => Ok(spans),
            other => Err(format!("trace answered {other:?}")),
        }
    }
}

/// Process-wide resource counters of the server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// utime + stime, clock ticks (all threads, live and exited).
    pub cpu_ticks: u64,
    /// Voluntary plus involuntary context switches of the live threads.
    pub ctx_switches: u64,
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: u64,
    /// Peak resident set, KiB.
    pub hwm_kib: u64,
}

/// Linux reports utime/stime in USER_HZ ticks, which is 100 on every
/// architecture the kernel supports for userspace ABI purposes.
pub const TICKS_PER_S: f64 = 100.0;

pub fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let read = |p: String| std::fs::read_to_string(&p).map_err(|e| format!("reading {p}: {e}"));
    let stat = read(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let after = stat
        .rsplit_once(')')
        .ok_or("malformed /proc stat")?
        .1
        .split_whitespace()
        .collect::<Vec<_>>();
    let field = |n: usize| -> Result<u64, String> {
        after
            .get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat field {n} missing"))
    };
    let cpu_ticks = field(14)? + field(15)?;
    let status_value = |text: &str, key: &str| -> Option<u64> {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l[key.len()..].split_whitespace().next())
            .and_then(|v| v.parse().ok())
    };
    let status = read(format!("/proc/{pid}/status"))?;
    let hwm_kib = status_value(&status, "VmHWM:").ok_or("VmHWM missing")?;
    let mut ctx_switches = 0;
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|e| format!("listing /proc/{pid}/task: {e}"))?;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
            ctx_switches += status_value(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_value(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    let io = read(format!("/proc/{pid}/io"))?;
    let write_bytes = status_value(&io, "write_bytes:").ok_or("write_bytes missing")?;
    Ok(ProcSample {
        cpu_ticks,
        ctx_switches,
        write_bytes,
        hwm_kib,
    })
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else. Tail latencies
/// on a shared host follow it, so reports quote it beside the window.
pub fn cpu_steal() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

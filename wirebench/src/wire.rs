//! The load generator's side of the wire: daemon processes and framed
//! request/response exchanges over a Unix socket.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tacc_proto::{
    decode_response, encode_request, read_frame_event, write_frame, FrameEvent, Request, Response,
};

/// Client-side split of one traced exchange, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientSplit {
    /// `encode_request`.
    pub encode_ns: u64,
    /// `write_frame` of the request.
    pub write_ns: u64,
    /// From the request written to the response frame read.
    pub wait_ns: u64,
    /// `decode_response`.
    pub decode_ns: u64,
}

/// One answered exchange.
#[derive(Debug)]
pub struct Exchange {
    /// The decoded answer.
    pub response: Response,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Response payload bytes.
    pub response_bytes: usize,
    /// Client-side split, when traced.
    pub split: Option<ClientSplit>,
}

/// One framed connection to a daemon.
#[derive(Debug)]
pub struct Conn {
    stream: UnixStream,
    next_id: u64,
    deadline: Duration,
}

fn ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Conn {
    /// Connects to `path`, retrying until `patience` runs out (the
    /// daemon may still be binding). Every answer must arrive within
    /// `deadline` of its request.
    pub fn connect(path: &Path, patience: Duration, deadline: Duration) -> Result<Conn, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(deadline)).map_err(|e| e.to_string())?;
                    stream.set_write_timeout(Some(deadline)).map_err(|e| e.to_string())?;
                    return Ok(Conn { stream, next_id: 1, deadline });
                }
                Err(_) if start.elapsed() < patience => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("connecting to {}: {e}", path.display())),
            }
        }
    }

    /// Sends `request` and waits for its answer. `Err` means no answer
    /// arrived before the deadline or the connection broke.
    pub fn call(&mut self, request: &Request, traced: bool) -> Result<Exchange, String> {
        let id = self.next_id;
        self.next_id += 1;
        let t = Instant::now();
        let payload = encode_request(id, request);
        let encode_ns = ns(t);
        let t = Instant::now();
        write_frame(&mut self.stream, &payload).map_err(|e| e.to_string())?;
        let write_ns = ns(t);
        let t = Instant::now();
        let frame = loop {
            match read_frame_event(&mut self.stream).map_err(|e| e.to_string())? {
                FrameEvent::Frame(frame) => break frame,
                FrameEvent::Closed => return Err("connection closed before the answer".into()),
                FrameEvent::Idle if t.elapsed() >= self.deadline => {
                    return Err(format!("no answer within {:?}", self.deadline));
                }
                FrameEvent::Idle => {}
            }
        };
        let wait_ns = ns(t);
        let t = Instant::now();
        let decoded = decode_response(&frame).map_err(|e| e.to_string())?;
        let decode_ns = ns(t);
        if decoded.id != id {
            return Err(format!("answer carries id {} for request {id}", decoded.id));
        }
        Ok(Exchange {
            response: decoded.response,
            request_bytes: payload.len(),
            response_bytes: frame.len(),
            split: traced.then_some(ClientSplit { encode_ns, write_ns, wait_ns, decode_ns }),
        })
    }
}

/// A `tacc serve` child process, killed and reaped on drop.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// The Unix socket it serves on.
    pub sock: PathBuf,
}

impl Daemon {
    /// Starts `tacc serve --uds <sock> <args>` with stderr to `log`.
    pub fn spawn(
        tacc: &Path,
        sock: PathBuf,
        args: &[String],
        log: &Path,
    ) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(tacc)
            .arg("serve")
            .arg("--uds")
            .arg(&sock)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", tacc.display()))?;
        Ok(Daemon { child: Some(child), sock })
    }

    /// Waits until the socket file exists (the daemon has bound it).
    pub fn wait_bound(&self, patience: Duration) -> Result<(), String> {
        let start = Instant::now();
        while !self.sock.exists() {
            if start.elapsed() > patience {
                return Err(format!("{} never appeared", self.sock.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// SIGKILLs the daemon and reaps it.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Waits up to `patience` for a clean exit, then kills.
    pub fn finish(&mut self, patience: Duration) {
        let start = Instant::now();
        if let Some(child) = self.child.as_mut() {
            while start.elapsed() < patience {
                if let Ok(Some(_)) = child.try_wait() {
                    self.child = None;
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.kill();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

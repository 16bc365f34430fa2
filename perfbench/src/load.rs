//! The load generator: one thread driving two TCP connections (one per
//! wire dialect) over nonblocking sockets and `ppoll`.
//!
//! Three shapes share one event loop:
//!
//! * **script** — send fixed request lists with a bounded pipeline
//!   (set-up and spot checks);
//! * **open loop** — Poisson arrivals at a fixed offered rate; every
//!   request is timed from its *scheduled* send time to its reply, so a
//!   stall also charges the requests it delayed;
//! * **closed loop** — a fixed number of requests with a fixed in-flight
//!   window per connection.
//!
//! Every reply is checked against the generator's prediction.

use crate::rng::Rng;
use crate::spec::{Expect, Model, Req};
use migratory_core::enforce::net::frame;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// A reply gap this long means the server stopped answering.
const STALL: Duration = Duration::from_secs(20);

struct Pending {
    sched: Instant,
    expect: Expect,
    query: bool,
    component: usize,
    key: Option<(usize, usize)>,
    timed: bool,
}

struct Conn {
    stream: TcpStream,
    binary: bool,
    out: Vec<u8>,
    wpos: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

/// Reply counts and latency samples of one phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// `ok` replies to invokes.
    pub ok: u64,
    pub violations: u64,
    /// Correct `query` replies.
    pub reads: u64,
    pub errors: u64,
    /// Replies that disagreed with the oracle (first few kept).
    pub mismatches: u64,
    pub mismatch_notes: Vec<String>,
    /// `(scheduled offset s, latency µs)` of timed invokes.
    pub invoke_us: Vec<(f64, f64)>,
    /// `(scheduled offset s, latency µs)` of timed queries.
    pub query_us: Vec<(f64, f64)>,
    /// How late the open-loop generator sent, µs.
    pub lag_us: Vec<f64>,
}

impl Tally {
    pub fn correct(&self) -> u64 {
        self.ok + self.violations + self.reads
    }

    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.violations += o.violations;
        self.reads += o.reads;
        self.errors += o.errors;
        self.mismatches += o.mismatches;
        self.mismatch_notes.extend(o.mismatch_notes);
    }
}

/// The shape of one phase.
pub enum Shape<'a> {
    Script([&'a [Req]; 2]),
    Open {
        rate: f64,
        secs: f64,
    },
    /// Stops issuing after `limit` requests.
    Closed {
        window: usize,
        limit: u64,
    },
}

/// Two connections to one server: connection 0 speaks text, 1 binary.
pub struct Loadgen {
    conns: [Conn; 2],
    rng: [Rng; 2],
    arrivals: Rng,
}

/// A reply, dialect-neutral.
enum Reply {
    Ok,
    Violation,
    Count(usize),
    Error(String),
}

impl Loadgen {
    pub fn connect(addr: SocketAddr, seed: u64) -> Result<Loadgen, String> {
        let open = |binary: bool| -> Result<Conn, String> {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                binary,
                out: Vec::new(),
                wpos: 0,
                inbuf: Vec::new(),
                pending: VecDeque::new(),
            })
        };
        let mut root = Rng::new(seed);
        Ok(Loadgen {
            conns: [open(false)?, open(true)?],
            rng: [Rng::new(root.next_u64()), Rng::new(root.next_u64())],
            arrivals: Rng::new(root.next_u64()),
        })
    }

    fn push(&mut self, c: usize, req: &Req, sched: Instant, timed: bool) {
        let conn = &mut self.conns[c];
        if conn.binary {
            req.encode_frame(&mut conn.out);
        } else {
            conn.out.extend_from_slice(req.text_line().as_bytes());
        }
        conn.pending.push_back(Pending {
            sched,
            expect: req.expect,
            query: req.query,
            component: req.component,
            key: req.key,
            timed,
        });
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Run one phase. With `crash` set, a closed loop returns without
    /// draining: the caller kills the server with requests in flight,
    /// and [`Loadgen::abandon`] settles them.
    pub fn run(
        &mut self,
        model: &mut Model,
        shape: Shape<'_>,
        crash: bool,
    ) -> Result<Tally, String> {
        let mut t = Tally::default();
        let t0 = Instant::now();
        let mut cursor = [0usize; 2];
        let mut next_sched = t0;
        let mut seq = 0usize;
        let mut exhausted = [false; 2];
        let mut last_progress = Instant::now();
        loop {
            let now = Instant::now();
            // Issue.
            let mut issuing = false;
            match &shape {
                Shape::Script(lists) => {
                    for c in 0..2 {
                        while cursor[c] < lists[c].len() && self.conns[c].pending.len() < 512 {
                            let req = &lists[c][cursor[c]];
                            self.push(c, req, now, false);
                            cursor[c] += 1;
                            t.attempted += 1;
                        }
                        issuing |= cursor[c] < lists[c].len();
                    }
                }
                Shape::Open { rate, secs } => {
                    let end = t0 + Duration::from_secs_f64(*secs);
                    while next_sched <= now && next_sched < end {
                        let c = seq % 2;
                        seq += 1;
                        if let Some(req) = model.next(&mut self.rng[c], c) {
                            t.lag_us.push((now - next_sched).as_secs_f64() * 1e6);
                            self.push(c, &req, next_sched, true);
                            t.attempted += 1;
                        }
                        next_sched += Duration::from_secs_f64(self.arrivals.exp_gap(*rate));
                    }
                    issuing = next_sched < end;
                }
                Shape::Closed { window, limit } => {
                    if t.attempted < *limit {
                        for (c, done) in exhausted.iter_mut().enumerate() {
                            while !*done
                                && self.conns[c].pending.len() < *window
                                && t.attempted < *limit
                            {
                                match model.next(&mut self.rng[c], c) {
                                    Some(req) => {
                                        self.push(c, &req, now, false);
                                        t.attempted += 1;
                                    }
                                    None => *done = true,
                                }
                            }
                        }
                        issuing = !(exhausted[0] && exhausted[1]);
                    } else if crash {
                        return Ok(t);
                    }
                }
            }
            // Write what is buffered.
            for c in &mut self.conns {
                while c.wpos < c.out.len() {
                    match (&c.stream).write(&c.out[c.wpos..]) {
                        Ok(0) => return Err("server closed the connection".to_owned()),
                        Ok(n) => c.wpos += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("write: {e}")),
                    }
                }
                if c.wpos == c.out.len() {
                    c.out.clear();
                    c.wpos = 0;
                }
            }
            // Read and check what arrived.
            let before = t.correct() + t.errors;
            for ci in 0..2 {
                self.read_replies(ci, model, t0, &mut t)?;
            }
            if t.correct() + t.errors > before {
                last_progress = Instant::now();
            }
            if !issuing && self.in_flight() == 0 {
                return Ok(t);
            }
            if last_progress.elapsed() > STALL && self.in_flight() > 0 {
                return Err(format!("no reply for {STALL:?} with {} in flight", self.in_flight()));
            }
            // Wait for a reply, writable space, or the next arrival.
            let wait = match &shape {
                Shape::Open { .. } if issuing => {
                    next_sched.saturating_duration_since(Instant::now())
                }
                _ => Duration::from_millis(50),
            };
            self.wait(wait);
        }
    }

    fn wait(&self, d: Duration) {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        let ts = Timespec { tv_sec: d.as_secs() as i64, tv_nsec: i64::from(d.subsec_nanos()) };
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `struct pollfd`-layout entries, `ts` outlives the
        // call, and a null sigmask leaves the signal mask unchanged.
        unsafe {
            ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
        }
    }

    fn read_replies(
        &mut self,
        ci: usize,
        model: &mut Model,
        t0: Instant,
        t: &mut Tally,
    ) -> Result<(), String> {
        let c = &mut self.conns[ci];
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match (&c.stream).read(&mut chunk) {
                Ok(0) => {
                    if c.pending.is_empty() {
                        break;
                    }
                    return Err("server closed the connection with requests in flight".into());
                }
                Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let now = Instant::now();
        let mut consumed = 0usize;
        while let Some((reply, used)) = parse_reply(&c.inbuf[consumed..], c.binary)? {
            consumed += used;
            let p = c.pending.pop_front().ok_or("a reply nobody asked for")?;
            let lat_us = (now - p.sched).as_secs_f64() * 1e6;
            let good = match (&reply, p.expect) {
                (Reply::Error(msg), _) => {
                    t.errors += 1;
                    if t.mismatch_notes.len() < 5 {
                        t.mismatch_notes.push(format!("error reply: {msg}"));
                    }
                    false
                }
                (Reply::Ok, Expect::Ok) => {
                    t.ok += 1;
                    model.acked[p.component] += 1;
                    true
                }
                (Reply::Violation, Expect::Violation) => {
                    t.violations += 1;
                    true
                }
                (Reply::Count(n), Expect::Count(m)) if *n == m => {
                    t.reads += 1;
                    true
                }
                (_, expect) => {
                    t.mismatches += 1;
                    if t.mismatch_notes.len() < 5 {
                        t.mismatch_notes.push(format!(
                            "oracle expected {expect:?}, server replied {}",
                            describe(&reply)
                        ));
                    }
                    false
                }
            };
            if good && p.timed {
                if p.query {
                    t.query_us.push(((p.sched - t0).as_secs_f64(), lat_us));
                } else {
                    t.invoke_us.push(((p.sched - t0).as_secs_f64(), lat_us));
                }
            }
        }
        c.inbuf.drain(..consumed);
        Ok(())
    }

    /// Settle the requests still in flight when the server was killed:
    /// their outcome is unknown, so their keys leave the model's
    /// certain set. Returns the in-flight invokes per component (the
    /// most each recovered shard clock may exceed the acked count by).
    pub fn abandon(&mut self, model: &mut Model) -> Vec<u64> {
        let mut maybe = vec![0u64; model.components()];
        for c in &mut self.conns {
            for p in c.pending.drain(..) {
                if let Some((comp, k)) = p.key {
                    model.uncertain[comp][k] = true;
                }
                if p.expect == Expect::Ok {
                    maybe[p.component] += 1;
                }
            }
        }
        maybe
    }
}

fn describe(r: &Reply) -> String {
    match r {
        Reply::Ok => "ok".into(),
        Reply::Violation => "violation".into(),
        Reply::Count(n) => format!("query count={n}"),
        Reply::Error(m) => format!("error {m}"),
    }
}

/// Parse one complete reply off the front of `buf`: the reply and the
/// bytes it used, or `None` when more bytes are needed.
fn parse_reply(buf: &[u8], binary: bool) -> Result<Option<(Reply, usize)>, String> {
    if buf.is_empty() {
        return Ok(None);
    }
    let classify = |ok: bool, text: &str| -> Reply {
        if let Some(rest) = text.strip_prefix("query count=") {
            let n = rest.split_whitespace().next().and_then(|v| v.parse().ok());
            return n.map_or_else(|| Reply::Error(text.to_owned()), Reply::Count);
        }
        if ok {
            Reply::Ok
        } else {
            Reply::Error(text.to_owned())
        }
    };
    if binary {
        if buf[0] != frame::MAGIC {
            return Err(format!("expected a reply frame, got byte {:#04x}", buf[0]));
        }
        match frame::scan(buf) {
            frame::Scan::Incomplete => Ok(None),
            frame::Scan::Oversized(n) => Err(format!("oversized reply frame ({n} bytes)")),
            frame::Scan::Frame { kind, payload_len } => {
                let payload = &buf[frame::HEADER_LEN..frame::HEADER_LEN + payload_len];
                let reply = match kind {
                    frame::REP_OK => classify(true, &String::from_utf8_lossy(payload)),
                    frame::REP_VIOLATION => Reply::Violation,
                    _ => Reply::Error(String::from_utf8_lossy(payload).into_owned()),
                };
                Ok(Some((reply, frame::HEADER_LEN + payload_len)))
            }
        }
    } else {
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else { return Ok(None) };
        let line = &buf[..nl];
        // Only the first token decides; a violation diagnostic can be
        // long, so it is never copied.
        let reply = if line.starts_with(b"violation") {
            Reply::Violation
        } else if line == b"ok" {
            Reply::Ok
        } else if let Some(rest) = line.strip_prefix(b"ok ") {
            classify(true, &String::from_utf8_lossy(rest))
        } else {
            Reply::Error(String::from_utf8_lossy(line).into_owned())
        };
        Ok(Some((reply, nl + 1)))
    }
}

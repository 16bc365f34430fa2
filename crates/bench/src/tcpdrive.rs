//! A concurrent TCP client driver for the `migctl serve` wire protocol
//! (`core::enforce::net`, `docs/PROTOCOL.md`).
//!
//! [`drive_tcp_mux`] multiplexes every connection from one thread over
//! epoll with nonblocking sockets, mirroring the server's own event
//! core. This is the only way a 1024-connection sweep fits a small
//! machine, and it speaks both wire dialects: text `invoke` lines
//! ([`mux_text_scripts`]) and length-prefixed binary frames
//! ([`mux_binary_scripts`], `docs/PROTOCOL.md` § Binary framing).
//!
//! Used by the `experiments serve` connection sweep (apps/sec over TCP
//! at 1/16/256/1024 connections, text vs binary) and the CI serve-smoke
//! jobs.

use migratory_core::enforce::net::frame;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Reply tallies of one [`drive_tcp_mux`] run, summed over connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpDriveStats {
    /// Replies whose first token was `ok`.
    pub ok: usize,
    /// Replies whose first token was `violation`.
    pub violation: usize,
    /// Replies whose first token was `error` (or anything else).
    pub error: usize,
}

impl TcpDriveStats {
    /// Total replies received.
    #[must_use]
    pub fn total(&self) -> usize {
        self.ok + self.violation + self.error
    }
}

/// One pre-encoded request stream for [`drive_tcp_mux`]: the raw bytes
/// to pipeline down one connection, the reply count they are owed, and
/// the dialect the replies will arrive in.
pub struct MuxScript {
    /// The full request stream, ready for the wire.
    pub bytes: Vec<u8>,
    /// Replies owed (one per request in `bytes`).
    pub expected: usize,
    /// `true` when replies are binary frames, `false` for text lines.
    pub binary: bool,
}

/// Split `ops` round-robin into `connections` text-dialect
/// [`MuxScript`]s: one `invoke Name(args…)` line per op — the same
/// striping the in-process ingress benches use for their producers.
#[must_use]
pub fn mux_text_scripts(
    ops: &[(&'static str, migratory_lang::Assignment)],
    connections: usize,
) -> Vec<MuxScript> {
    (0..connections.max(1))
        .map(|c| {
            let mut bytes = Vec::new();
            let mut expected = 0usize;
            for (name, args) in ops.iter().skip(c).step_by(connections.max(1)) {
                let rendered: Vec<String> = args
                    .values()
                    .map(|v| match v {
                        migratory_model::Value::Int(i) => i.to_string(),
                        other => format!("\"{other}\""),
                    })
                    .collect();
                bytes.extend_from_slice(
                    format!("invoke {name}({})\n", rendered.join(", ")).as_bytes(),
                );
                expected += 1;
            }
            MuxScript { bytes, expected, binary: false }
        })
        .collect()
}

/// Split `ops` round-robin into `connections` binary-dialect
/// [`MuxScript`]s: one length-prefixed `REQ_INVOKE` frame per op.
#[must_use]
pub fn mux_binary_scripts(
    ops: &[(&'static str, migratory_lang::Assignment)],
    connections: usize,
) -> Vec<MuxScript> {
    (0..connections.max(1))
        .map(|c| {
            let mut bytes = Vec::new();
            let mut expected = 0usize;
            for (name, args) in ops.iter().skip(c).step_by(connections.max(1)) {
                let values: Vec<migratory_model::Value> = args.values().cloned().collect();
                frame::encode_invoke_frame(&mut bytes, name, &values);
                expected += 1;
            }
            MuxScript { bytes, expected, binary: true }
        })
        .collect()
}

/// Tally one connection's buffered reply bytes, consuming every
/// complete reply (text line or binary frame) off the front of `buf`.
fn drain_replies(
    buf: &mut Vec<u8>,
    binary: bool,
    stats: &mut TcpDriveStats,
) -> std::io::Result<usize> {
    let mut consumed = 0usize;
    let mut got = 0usize;
    loop {
        let rest = &buf[consumed..];
        if rest.is_empty() {
            break;
        }
        if binary {
            if rest[0] != frame::MAGIC {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected a reply frame, got leading byte {:#04x}", rest[0]),
                ));
            }
            match frame::scan(rest) {
                frame::Scan::Incomplete => break,
                frame::Scan::Oversized(len) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("oversized reply frame ({len} bytes)"),
                    ));
                }
                frame::Scan::Frame { kind, payload_len } => {
                    match kind {
                        frame::REP_OK => stats.ok += 1,
                        frame::REP_VIOLATION => stats.violation += 1,
                        _ => stats.error += 1,
                    }
                    consumed += frame::HEADER_LEN + payload_len;
                    got += 1;
                }
            }
        } else {
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else { break };
            let line = String::from_utf8_lossy(&rest[..nl]);
            match line.split_whitespace().next() {
                Some("ok") => stats.ok += 1,
                Some("violation") => stats.violation += 1,
                _ => stats.error += 1,
            }
            consumed += nl + 1;
            got += 1;
        }
    }
    buf.drain(..consumed);
    Ok(got)
}

/// Drive every script over its own connection from a single thread:
/// nonblocking sockets multiplexed with epoll, requests written as the
/// socket drains, replies tallied as they arrive. Scales to
/// thousand-connection sweeps without a thousand threads, and mixes
/// text- and binary-dialect connections freely in one run.
///
/// Each socket is registered once and its interest narrowed as it
/// progresses (write side dropped when the script is fully sent,
/// deregistered when the last reply lands), so a wakeup costs
/// O(ready connections) — the `poll(2)` version of this driver
/// re-scanned every unfinished socket per call, which at 1024
/// connections cost more than the server being measured.
///
/// # Errors
/// Fails on connect/write/read errors, malformed reply frames, or a
/// connection closing before its reply count is met.
pub fn drive_tcp_mux(
    addr: impl ToSocketAddrs,
    scripts: &[MuxScript],
) -> std::io::Result<TcpDriveStats> {
    use polling::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
    use std::os::fd::AsRawFd;

    struct ConnState {
        stream: TcpStream,
        wpos: usize,
        inbuf: Vec<u8>,
        got: usize,
        /// Currently registered epoll interest; 0 = finished and
        /// deregistered.
        interest: u32,
    }
    let eof = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed early");
    let want_of = |c: &ConnState, s: &MuxScript| {
        let mut want = 0;
        if c.wpos < s.bytes.len() {
            want |= EPOLLOUT;
        }
        if c.got < s.expected {
            want |= EPOLLIN;
        }
        want
    };

    // Connect every socket up front so slow accept ramps are not billed
    // to the first measured request.
    let addr = addr.to_socket_addrs()?.next().ok_or_else(eof)?;
    let mut conns = Vec::with_capacity(scripts.len());
    for _ in scripts {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(ConnState { stream, wpos: 0, inbuf: Vec::new(), got: 0, interest: 0 });
    }

    let ep = Epoll::new()?;
    let mut remaining = 0usize;
    for (i, (c, s)) in conns.iter_mut().zip(scripts).enumerate() {
        let want = want_of(c, s);
        if want == 0 {
            continue; // empty script owed no replies
        }
        ep.add(c.stream.as_raw_fd(), want, i as u64)?;
        c.interest = want;
        remaining += 1;
    }

    let mut stats = TcpDriveStats::default();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    while remaining > 0 {
        let n = ep.wait(&mut events, -1)?;
        for &e in &events[..n] {
            let i = e.token() as usize;
            let c = &mut conns[i];
            let s = &scripts[i];
            if c.interest == 0 {
                continue;
            }
            if e.ready(EPOLLOUT) && c.wpos < s.bytes.len() {
                loop {
                    match (&c.stream).write(&s.bytes[c.wpos..]) {
                        Ok(0) => return Err(eof()),
                        Ok(n) => {
                            c.wpos += n;
                            if c.wpos == s.bytes.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            if e.ready(EPOLLIN) || e.failed() {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&c.stream).read(&mut chunk) {
                        Ok(0) => {
                            if c.got < s.expected {
                                return Err(eof());
                            }
                            break;
                        }
                        Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                c.got += drain_replies(&mut c.inbuf, s.binary, &mut stats)?;
                if c.got > s.expected {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "more replies than requests on one connection",
                    ));
                }
            }
            // Narrow the registration as the connection progresses;
            // a connection owed nothing more leaves the set entirely.
            let want = want_of(c, s);
            if want == 0 {
                ep.delete(c.stream.as_raw_fd())?;
                c.interest = 0;
                remaining -= 1;
            } else if want != c.interest {
                ep.modify(c.stream.as_raw_fd(), want, i as u64)?;
                c.interest = want;
            }
        }
    }
    Ok(stats)
}

/// Ask a serving endpoint to drain and exit (the `shutdown` verb);
/// returns the server's reply line.
///
/// # Errors
/// Fails on connect/write/read errors.
pub fn shutdown_server(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let conn = TcpStream::connect(addr)?;
    let mut writer = conn.try_clone()?;
    writer.write_all(b"shutdown\n")?;
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply)?;
    Ok(reply.trim().to_owned())
}

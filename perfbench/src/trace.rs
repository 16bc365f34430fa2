//! The traced run: per-layer metrics.
//!
//! Two sources. **S** metrics are scraped from the live server's
//! `stats` / `stats prom` after the TCP traffic. **T** metrics come from
//! spans recorded here, in the benchmark's own code, around calls into
//! each layer's public functions on the same generated workload: the
//! server's request path is recomposed in-process from
//! `net::parse_invocation` / `frame::scan` + `codec::decode_invoke`,
//! `ShardedMonitor::try_apply_batch` (with a timing `CommitSink` whose
//! child span is `wal::encode_record`), `Wal::append_bytes`,
//! `Wal::sync` and `Replicator::ship_and_wait`; the ingress is timed
//! around `IngressClient::post` → `Ticket::wait`; recovery around
//! `Wal::load`, `Snapshot::decode`, `CheckpointDelta::decode` +
//! `Snapshot::apply` and `ShardedMonitor::recover`. Nothing inside the
//! program is instrumented.

use crate::spec::{Expect, Model, Req, Workload};
use crate::stats::{mean, median, quantile, PromHist};
use crate::{metric, server, Ctx, Metric, Report, Store, Traffic};
use migratory_core::enforce::net::{self, frame};
use migratory_core::enforce::wal::{self, BlockRef, CommitSink};
use migratory_core::enforce::{
    ingress, AckPolicy, CheckpointDelta, DurabilityPolicy, EnforceError, FsyncPolicy, Health,
    IngressConfig, Replicator, ResiduePolicy, ShardedMonitor, Snapshot, Wal, WalError,
};
use migratory_core::{Inventory, PatternKind, RoleAlphabet};
use migratory_lang::{Assignment, Transaction, TransactionSchema};
use migratory_model::codec::Reader;
use migratory_model::Schema;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Read as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed call: name, start/end (ns since the tracer's epoch), the
/// enclosing span, the op it served and how many ops it covered.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub ops: u32,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Start recording (kept in memory until [`take`]).
fn start(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.spans.clear();
        t.open.clear();
    });
}

/// Stop recording and hand back every span.
fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        std::mem::take(&mut t.spans)
    })
}

/// Time `f` as span `name` (a child of the innermost open span).
fn span<R>(name: &'static str, op: u64, ops: u32, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len();
        let parent = t.open.last().copied();
        let start = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span { name, start, end: start, parent, op, ops });
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[id].end = end;
            t.open.pop();
        });
    }
    out
}

fn dur_us(s: &Span) -> f64 {
    (s.end - s.start) as f64 / 1e3
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= dur_us(s);
        }
    }
    own
}

/// Spans nest: each child lies inside its parent, and no self time is
/// negative.
fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if s.start < ps.start || s.end > ps.end {
                return Err(format!("span {} escapes its parent {}", s.name, ps.name));
            }
        }
    }
    if let Some((i, v)) = self_times(spans).iter().enumerate().find(|(_, v)| **v < -1e-3) {
        return Err(format!("span {i} ({}) has negative self time {v}", spans[i].name));
    }
    Ok(())
}

/// Write spans as tab-separated `name start_ns end_ns parent op ops`.
fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\top\tops\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(out, "{}\t{}\t{}\t{parent}\t{}\t{}", s.name, s.start, s.end, s.op, s.ops);
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(dur_us).collect()
}

fn self_sum(spans: &[Span], own: &[f64], name: &str) -> f64 {
    spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, v)| *v).sum()
}

// ---------------------------------------------------------------------
// The in-process request path
// ---------------------------------------------------------------------

/// The workload's inputs, parsed once in-process.
struct Parsed {
    schema: &'static Schema,
    alphabet: &'static RoleAlphabet,
    inventory: Inventory,
    ts: &'static TransactionSchema,
    shards: usize,
}

fn parse(ctx: &Ctx) -> Result<Parsed, String> {
    let schema = migratory_model::text::parse_schema(&ctx.files.schema)
        .map_err(|e| format!("schema: {e}"))?;
    // Leaked once per process: the monitor borrows both for its life.
    let schema: &'static Schema = Box::leak(Box::new(schema));
    let alphabet: &'static RoleAlphabet =
        Box::leak(Box::new(RoleAlphabet::new(schema, 0).map_err(|e| format!("alphabet: {e}"))?));
    let inventory = Inventory::parse_init(schema, alphabet, &ctx.files.inventory)
        .map_err(|e| format!("inventory: {e}"))?;
    let ts: &'static TransactionSchema = Box::leak(Box::new(
        migratory_lang::parse_transactions(schema, &ctx.files.transactions)
            .map_err(|e| format!("transactions: {e}"))?,
    ));
    let shards = schema.num_components().max(1);
    Ok(Parsed { schema, alphabet, inventory, ts, shards })
}

/// The write half of the server's staging sink, timed: every committed
/// block is encoded into `buf` inside a `wal.encode` span.
struct TimingSink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl CommitSink for TimingSink {
    fn committed(&mut self, block: &BlockRef<'_>) -> Result<(), WalError> {
        let mut buf = self.buf.lock().expect("sink buffer poisoned");
        span("wal.encode", 0, 0, || wal::encode_record(&mut buf, block))
    }

    fn certified(&mut self, steps: usize) -> Result<(), WalError> {
        wal::encode_certify_record(&mut self.buf.lock().expect("sink buffer poisoned"), steps);
        Ok(())
    }

    fn redefined(
        &mut self,
        epoch: u64,
        policy: ResiduePolicy,
        shards: &[(u32, usize)],
        inventory: &[u8],
    ) -> Result<(), WalError> {
        let mut buf = self.buf.lock().expect("sink buffer poisoned");
        wal::encode_redefine_record(&mut buf, epoch, policy, shards, inventory)
    }
}

/// One generated request in wire form, tagged with its connection's
/// dialect.
struct Wire {
    bytes: Vec<u8>,
    binary: bool,
    expect: Expect,
}

fn to_wire(reqs: &[(usize, Req)]) -> Vec<Wire> {
    reqs.iter()
        .map(|(conn, r)| {
            let binary = *conn == 1;
            let mut bytes = Vec::new();
            if binary {
                r.encode_frame(&mut bytes);
            } else {
                bytes.extend_from_slice(r.text_line().as_bytes());
            }
            Wire { bytes, binary, expect: r.expect }
        })
        .collect()
}

/// A decoded request, as the event loop hands it on.
enum Decoded {
    Invoke(String, Vec<migratory_model::Value>),
    Query(migratory_model::ClassId, migratory_model::Condition),
}

/// The net layer's share: parse one request off the wire.
fn decode(p: &Parsed, w: &Wire, op: u64) -> Result<Decoded, String> {
    if w.binary {
        span("net.parse_binary", op, 1, || match frame::scan(&w.bytes) {
            frame::Scan::Frame { kind, payload_len } => {
                let payload = &w.bytes[frame::HEADER_LEN..frame::HEADER_LEN + payload_len];
                if kind == frame::REQ_QUERY {
                    let q = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
                    let (c, cond) = net::parse_query(p.schema, q)?;
                    Ok(Decoded::Query(c, cond))
                } else {
                    let (name, args) =
                        migratory_lang::codec::decode_invoke(&mut Reader::new(payload))
                            .map_err(|e| e.to_string())?;
                    Ok(Decoded::Invoke(name, args))
                }
            }
            _ => Err("incomplete frame".to_owned()),
        })
    } else {
        span("net.parse_text", op, 1, || {
            let line = std::str::from_utf8(&w.bytes).map_err(|e| e.to_string())?.trim_end();
            if let Some(q) = line.strip_prefix("query ") {
                let (c, cond) = net::parse_query(p.schema, q)?;
                return Ok(Decoded::Query(c, cond));
            }
            let body = line.strip_prefix("invoke ").ok_or("not an invoke")?;
            let (name, args) = net::parse_invocation(body)?;
            Ok(Decoded::Invoke(name.to_owned(), args))
        })
    }
}

/// One admitted op waiting in a lane.
struct Queued {
    op: u64,
    t: &'static Transaction,
    args: Assignment,
    expect: Expect,
}

/// Results of one pass of the in-process pipeline.
struct Pass {
    spans: Vec<Span>,
    ops: usize,
    secs: f64,
    invokes: usize,
    violations: usize,
    mismatches: usize,
}

/// Replay `wire` through the server's layers in-process: parse every
/// request of a round, run queries against the database, admit the
/// round's invokes lane by lane in blocks (a violation re-queues the
/// rest of its block, as the ingress does), then — durable — append
/// each block's record and sync once per round, and — replicated — tee
/// the round to the standby and wait for its ack.
fn pass(
    p: &Parsed,
    base: &ShardedMonitor<'static>,
    wire: &[Wire],
    round: usize,
    wal_dir: Option<&Path>,
    repl: Option<&Replicator>,
    traced: bool,
) -> Result<Pass, String> {
    let staged = Arc::new(Mutex::new(Vec::new()));
    let mut m = base.clone();
    let mut wal = match wal_dir {
        Some(dir) => {
            m = m.with_sink(Arc::new(Mutex::new(TimingSink { buf: staged.clone() })));
            Some(Wal::open(dir).map_err(|e| e.to_string())?.with_fsync(FsyncPolicy::Batch))
        }
        None => None,
    };
    let mut out =
        Pass { spans: Vec::new(), ops: 0, secs: 0.0, invokes: 0, violations: 0, mismatches: 0 };
    let mut lanes: Vec<VecDeque<Queued>> = (0..p.shards).map(|_| VecDeque::new()).collect();
    start(traced);
    let t0 = Instant::now();
    for (r, chunk) in wire.chunks(round.max(1)).enumerate() {
        let first = (r * round) as u64;
        span("round", first, chunk.len() as u32, || -> Result<(), String> {
            for (i, w) in chunk.iter().enumerate() {
                let op = first + i as u64;
                match decode(p, w, op)? {
                    Decoded::Query(class, cond) => {
                        let n = span("sharded.query", op, 1, || m.db().sat(class, &cond).len());
                        if w.expect != Expect::Count(n) {
                            out.mismatches += 1;
                        }
                    }
                    Decoded::Invoke(name, args) => {
                        let t = p.ts.get(&name).ok_or(format!("unknown transaction {name}"))?;
                        let lane = t
                            .first_named_class()
                            .map_or(0, |c| p.schema.component_of(c) as usize % p.shards);
                        lanes[lane].push_back(Queued {
                            op,
                            t,
                            args: Assignment::new(args),
                            expect: w.expect,
                        });
                        out.invokes += 1;
                    }
                }
            }
            let mut round_bytes = Vec::new();
            for lane in &mut lanes {
                while !lane.is_empty() {
                    let take = lane.len().min(256);
                    let block: Vec<Queued> = lane.drain(..take).collect();
                    let (done, err) =
                        span("sharded.try_apply_batch", block[0].op, take as u32, || {
                            m.try_apply_batch(block.iter().map(|q| (q.t, &q.args)))
                        });
                    out.mismatches +=
                        block[..done].iter().filter(|q| q.expect != Expect::Ok).count();
                    if let Some(e) = err {
                        match (&e, block.get(done)) {
                            (EnforceError::Violation(_), Some(q))
                                if q.expect == Expect::Violation =>
                            {
                                out.violations += 1;
                            }
                            _ => out.mismatches += 1,
                        }
                        for q in block.into_iter().skip(done + 1).rev() {
                            lane.push_front(q);
                        }
                    }
                    if let Some(w) = wal.as_mut() {
                        let bytes = std::mem::take(&mut *staged.lock().expect("sink poisoned"));
                        if !bytes.is_empty() {
                            span("wal.append_bytes", 0, 0, || w.append_bytes(&bytes))
                                .map_err(|e| e.to_string())?;
                            round_bytes.extend_from_slice(&bytes);
                        }
                    }
                }
            }
            if let Some(w) = wal.as_mut() {
                span("wal.sync", first, 0, || w.sync()).map_err(|e| e.to_string())?;
            }
            if let Some(repl) = repl {
                if !round_bytes.is_empty() {
                    span("repl.ship_and_wait", first, 0, || repl.ship_and_wait(&round_bytes))?;
                }
            }
            Ok(())
        })?;
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.ops = wire.len();
    out.spans = take();
    Ok(out)
}

/// Build the post-set-up store in-process: the same set-up requests,
/// admitted directly (untimed).
fn load_store(p: &Parsed, model: &mut Model) -> Result<ShardedMonitor<'static>, String> {
    let mut m = ShardedMonitor::new(p.schema, p.alphabet, &p.inventory, PatternKind::All, p.shards);
    let lists = model.setup_requests();
    // Same per-connection order as the wire set-up; connections own
    // disjoint keys, so concatenating them preserves each key's order.
    for list in &lists {
        for chunk in list.chunks(256) {
            let ops: Vec<(&Transaction, Assignment)> = chunk
                .iter()
                .map(|r| {
                    let t = p.ts.get(r.name).expect("generated names exist");
                    let args = r.args.iter().map(|a| migratory_model::Value::str(a)).collect();
                    (t, Assignment::new(args))
                })
                .collect();
            let (done, err) = m.try_apply_batch(ops.iter().map(|(t, a)| (*t, a)));
            if err.is_some() || done != ops.len() {
                return Err(format!("in-process set-up refused at {done}: {err:?}"));
            }
        }
    }
    Ok(m)
}

/// `n` traffic requests with their connections, drawn like the wire
/// traffic (connections alternate).
fn traffic_requests(model: &mut Model, seed: u64, n: usize) -> Vec<(usize, Req)> {
    let mut rngs = [crate::rng::Rng::new(seed), crate::rng::Rng::new(seed ^ 0xabcdef)];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % 2;
        if let Some(r) = model.next(&mut rngs[c], c) {
            out.push((c, r));
        }
    }
    out
}

/// Post every invoke through the real ingress from two producers (one
/// per connection's keys), each keeping `window` ops in flight; time
/// `post` → `Ticket::wait` per op.
fn ingress_phase(
    p: &Parsed,
    base: &ShardedMonitor<'static>,
    reqs: &[(usize, Req)],
    window: usize,
    wal_dir: Option<&Path>,
) -> Result<(Vec<f64>, ingress::IngressStats, usize), String> {
    let ops: Vec<(usize, &'static Transaction, Assignment, Expect)> = reqs
        .iter()
        .filter(|(_, r)| !r.query)
        .map(|(c, r)| {
            let t = p.ts.get(r.name).expect("generated names exist");
            let args = r.args.iter().map(|a| migratory_model::Value::str(a)).collect();
            (*c, t, Assignment::new(args), r.expect)
        })
        .collect();
    let drive = |client: &ingress::IngressClient<'static, '_, '_>| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|conn| {
                    let ops = &ops;
                    s.spawn(move || {
                        let mut lat = Vec::new();
                        let mut bad = 0usize;
                        let mut q: VecDeque<(ingress::Ticket, Instant, Expect)> = VecDeque::new();
                        let settle = |(tk, t0, exp): (ingress::Ticket, Instant, Expect),
                                      lat: &mut Vec<f64>,
                                      bad: &mut usize| {
                            let r = tk.wait();
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            let good = matches!(
                                (r, exp),
                                (Ok(()), Expect::Ok)
                                    | (Err(EnforceError::Violation(_)), Expect::Violation)
                            );
                            if !good {
                                *bad += 1;
                            }
                        };
                        for (_, t, args, exp) in ops.iter().filter(|o| o.0 == conn) {
                            if q.len() >= window {
                                let front = q.pop_front().expect("non-empty");
                                settle(front, &mut lat, &mut bad);
                            }
                            q.push_back((client.post(t, args.clone()), Instant::now(), *exp));
                        }
                        while let Some(front) = q.pop_front() {
                            settle(front, &mut lat, &mut bad);
                        }
                        (lat, bad)
                    })
                })
                .collect();
            let mut all = Vec::new();
            let mut bad = 0;
            for h in handles {
                let (l, b) = h.join().expect("producer panicked");
                all.extend(l);
                bad += b;
            }
            (all, bad)
        })
    };
    let mut m = base.clone();
    let config = IngressConfig::default();
    let ((lat, bad), stats) = match wal_dir {
        Some(dir) => {
            let wal = Wal::open(dir).map_err(|e| e.to_string())?.with_fsync(FsyncPolicy::Batch);
            let health = Health::new();
            ingress::serve_pipelined(
                &mut m,
                &config,
                &DurabilityPolicy::default(),
                &health,
                Arc::new(Mutex::new(wal)),
                None,
                0,
                |_| {},
                drive,
            )
        }
        None => ingress::serve(&mut m, &config, drive),
    };
    Ok((lat, stats, bad))
}

/// Attach a real `migctl serve --replica-of` to an in-process
/// [`Replicator`] bootstrapped from `m`'s state.
fn attach_replica(
    ctx: &Ctx,
    m: &ShardedMonitor<'static>,
) -> Result<(Arc<Replicator>, server::Server), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let repl = Arc::new(
        Replicator::bind("127.0.0.1:0")
            .map_err(|e| e.to_string())?
            .with_policy(AckPolicy::ReplicaK(1))
            .with_ack_timeout(Duration::from_secs(20)),
    );
    let rdir = ctx.fresh("trace-replica-wal");
    let replica = ctx.spawn(&[
        "--durable".into(),
        rdir.display().to_string(),
        "--replica-of".into(),
        addr.to_string(),
    ])?;
    let deadline = Instant::now() + Duration::from_secs(20);
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err("replica never connected".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let mut hello = [0u8; 6];
    (&stream).read_exact(&mut hello).map_err(|e| format!("replica hello: {e}"))?;
    if &hello != b"MGRPL1" {
        return Err(format!("unexpected replica hello {hello:?}"));
    }
    stream.set_read_timeout(None).map_err(|e| e.to_string())?;
    repl.register(stream, m.snapshot().encode());
    Ok((repl, replica))
}

// ---------------------------------------------------------------------
// Recovery layers
// ---------------------------------------------------------------------

/// Strip a checkpoint file's frame (`[len][crc][varint seq][body]`).
fn unframe(bytes: &[u8]) -> Result<(u64, &[u8]), String> {
    let len = u32::from_le_bytes(bytes.get(..4).ok_or("short frame")?.try_into().expect("4"));
    let payload = bytes.get(8..8 + len as usize).ok_or("truncated frame")?;
    let mut r = Reader::new(payload);
    let seq = r.u64().map_err(|e| e.to_string())?;
    Ok((seq, &payload[payload.len() - r.remaining()..]))
}

fn recovery_layers(
    p: &Parsed,
    dir: &Path,
    model: &Model,
    recover_s: f64,
    reps: usize,
) -> Result<Vec<Metric>, String> {
    let mut load_ms = Vec::new();
    let mut recover_ms = Vec::new();
    let mut tail_records = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let (snap, tail) = Wal::load(dir).map_err(|e| format!("Wal::load: {e}"))?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tail_records = tail.len();
        let t = Instant::now();
        let m = ShardedMonitor::recover(
            p.schema,
            p.alphabet,
            &p.inventory,
            PatternKind::All,
            p.shards,
            snap,
            tail,
        )
        .map_err(|e| format!("ShardedMonitor::recover: {e}"))?;
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if m.db().num_objects() != model.objects() {
            return Err(format!(
                "in-process recovery has {} objects, the oracle {}",
                m.db().num_objects(),
                model.objects()
            ));
        }
    }
    // The read side of the chain, piece by piece.
    let base = std::fs::read(dir.join("snapshot.bin")).map_err(|e| e.to_string())?;
    let (base_seq, body) = unframe(&base)?;
    let t = Instant::now();
    let mut snap = Snapshot::decode(body).map_err(|e| e.to_string())?;
    let decode_s = t.elapsed().as_secs_f64();
    let mut deltas: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_owned();
            let seq = name.strip_prefix("delta-")?.strip_suffix(".bin")?.parse().ok()?;
            Some((seq, e.path()))
        })
        .filter(|(s, _)| *s > base_seq)
        .collect();
    deltas.sort();
    let mut fold_s = 0.0;
    for (_, path) in &deltas {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let (_, body) = unframe(&bytes)?;
        let mut r = Reader::new(body);
        r.u64().map_err(|e| e.to_string())?; // parent link
        let delta_bytes = &body[body.len() - r.remaining()..];
        let t = Instant::now();
        let d = CheckpointDelta::decode(delta_bytes).map_err(|e| e.to_string())?;
        snap.apply(d).map_err(|e| e.to_string())?;
        fold_s += t.elapsed().as_secs_f64();
    }
    let (load, rec) = (median(&load_ms), median(&recover_ms));
    let acked: u64 = model.acked.iter().sum();
    Ok(vec![
        metric("wal.load_ms", load, "ms"),
        metric("wal.snapshot_decode_mb_s", body.len() as f64 / 1e6 / decode_s.max(1e-9), "MB/s"),
        metric("wal.chain_fold_ms", fold_s * 1e3, "ms"),
        metric("wal.chain_len", deltas.len() as f64, "count"),
        metric("sharded.recover_ms", rec, "ms"),
        metric("wal.tail_records", tail_records as f64, "count"),
        metric("recover.unattributed_ms", recover_s * 1e3 - load - rec, "ms"),
        metric("wal.bytes_per_op", server::dir_bytes(dir) as f64 / acked.max(1) as f64, "bytes"),
    ])
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Every per-layer metric, in `BENCHMARK.json` order; a layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.parse_text_us", "us"),
    ("net.parse_binary_us", "us"),
    ("net.requests", "count"),
    ("net.errors", "count"),
    ("ingress.op_us_p50", "us"),
    ("ingress.op_us_p99", "us"),
    ("ingress.ops_per_block", "ops"),
    ("ingress.server_ops_per_block", "ops"),
    ("ingress.queue_depth_p50", "ops"),
    ("ingress.requeued_frac", "ratio"),
    ("sharded.batch_self_us_per_op", "us"),
    ("sharded.batch_us_p99", "us"),
    ("sharded.batch_share", "ratio"),
    ("sharded.violation_frac", "ratio"),
    ("sharded.server_violation_frac", "ratio"),
    ("sharded.query_us", "us"),
    ("wal.encode_us_per_block", "us"),
    ("wal.append_us_p50", "us"),
    ("wal.sync_us_p50", "us"),
    ("wal.sync_us_p99", "us"),
    ("wal.write_spans", "count"),
    ("wal.records_per_sync", "records"),
    ("wal.commit_us_p50", "us"),
    ("wal.commit_us_p99", "us"),
    ("wal.checkpoint_stall_us_p99", "us"),
    ("wal.bytes_per_op", "bytes"),
    ("wal.load_ms", "ms"),
    ("wal.snapshot_decode_mb_s", "MB/s"),
    ("wal.chain_fold_ms", "ms"),
    ("wal.chain_len", "count"),
    ("sharded.recover_ms", "ms"),
    ("wal.tail_records", "count"),
    ("recover.unattributed_ms", "ms"),
    ("repl.ship_wait_us_p50", "us"),
    ("repl.ship_wait_us_p99", "us"),
    ("repl.server_ship_wait_us_p50", "us"),
    ("repl.server_ship_wait_us_p99", "us"),
    ("repl.spans", "count"),
    ("repl.ops_per_batch", "ops"),
    ("repl.bytes_per_op", "bytes"),
    ("repl.lag_bytes", "bytes"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("e2e.invoke_p50_us", "us"),
    ("e2e.invoke_p90_us", "us"),
    ("e2e.invoke_p99_us", "us"),
    ("e2e.query_p90_us", "us"),
    ("e2e.query_p99_us", "us"),
    ("e2e.goodput_ops_s", "ops/s"),
    ("e2e.failed_frac", "ratio"),
];

/// Traffic size of the in-process passes.
fn pass_requests(ctx: &Ctx) -> usize {
    if ctx.spec.objects <= 10_000 {
        4_000
    } else if ctx.spec.workload.durable() {
        40_000
    } else {
        120_000
    }
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    ctx: &Ctx,
    store: &mut Store,
    t: &Traffic,
    stats_line: &str,
    prom: &str,
    replica_stats: Option<&str>,
    recover_times: &[f64],
) -> Result<Report, String> {
    let mut got: Vec<Metric> = Vec::new();
    let mut notes = Vec::new();
    let mut correct = true;

    // S: the live server's counters.
    let admitted = server::num(stats_line, "admitted");
    let rejected = server::num(stats_line, "rejected");
    got.push(metric("net.requests", server::num(stats_line, "requests"), "count"));
    got.push(metric("net.errors", server::num(stats_line, "errors"), "count"));
    got.push(metric(
        "ingress.server_ops_per_block",
        PromHist::parse(prom, "migratory_block_size").mean(),
        "ops",
    ));
    got.push(metric(
        "ingress.queue_depth_p50",
        PromHist::parse(prom, "migratory_queue_depth").quantile_bound(0.5),
        "ops",
    ));
    got.push(metric(
        "sharded.server_violation_frac",
        rejected / (admitted + rejected).max(1.0),
        "ratio",
    ));
    let commit = PromHist::parse(prom, "migratory_commit_latency_us");
    got.push(metric(
        "wal.records_per_sync",
        PromHist::parse(prom, "migratory_fsync_batch").mean(),
        "records",
    ));
    got.push(metric("wal.commit_us_p50", commit.quantile_bound(0.5), "us"));
    got.push(metric("wal.commit_us_p99", commit.quantile_bound(0.99), "us"));
    got.push(metric(
        "wal.checkpoint_stall_us_p99",
        PromHist::parse(prom, "migratory_checkpoint_stall_us").quantile_bound(0.99),
        "us",
    ));
    if let Some(rs) = replica_stats {
        let ship = PromHist::parse(prom, "migratory_repl_ship_wait_us");
        let batches = crate::stats::prom_scalar(prom, "migratory_repl_shipped_batches");
        let bytes = crate::stats::prom_scalar(prom, "migratory_repl_shipped_bytes");
        got.push(metric("repl.server_ship_wait_us_p50", ship.quantile_bound(0.5), "us"));
        got.push(metric("repl.server_ship_wait_us_p99", ship.quantile_bound(0.99), "us"));
        got.push(metric("repl.ops_per_batch", admitted / batches.max(1.0), "ops"));
        got.push(metric("repl.bytes_per_op", bytes / admitted.max(1.0), "bytes"));
        let lag = server::num(stats_line, "shipped") - server::num(rs, "horizon");
        got.push(metric("repl.lag_bytes", lag, "bytes"));
        if lag != 0.0 {
            correct = false;
            notes.push(format!("replica lags the primary by {lag} bytes under replica-1"));
        }
    }
    let all = &t.tally;
    got.push(metric("e2e.failed_frac", all.errors as f64 / all.attempted.max(1) as f64, "ratio"));
    got.push(metric("loadgen.lag_p99_us", quantile(&t.lag_us, 0.99), "us"));
    got.extend([
        metric("e2e.invoke_p50_us", median(&t.p50), "us"),
        metric("e2e.invoke_p90_us", median(&t.p90), "us"),
        metric("e2e.invoke_p99_us", median(&t.p99), "us"),
        metric("e2e.query_p90_us", median(&t.query_p90), "us"),
        metric("e2e.query_p99_us", median(&t.query_p99), "us"),
        metric("e2e.goodput_ops_s", median(&t.goodput), "ops/s"),
    ]);
    if ctx.spec.workload.durable() && ctx.spec.workload != Workload::Recover {
        let acked: u64 = store.model.acked.iter().sum();
        let bytes = server::dir_bytes(&store.dir) as f64;
        got.push(metric("wal.bytes_per_op", bytes / acked.max(1) as f64, "bytes"));
    }
    // The servers are done; the in-process passes get the cores, at
    // normal priority like the server threads they stand in for.
    server::realtime(false);
    store.primary.kill();
    if let Some(r) = store.replica.as_mut() {
        r.kill();
    }

    let p = parse(ctx)?;
    if ctx.spec.workload == Workload::Recover {
        got.extend(recovery_layers(&p, &store.dir, &store.model, median(recover_times), 2)?);
    } else {
        // T: the in-process request path on a fresh copy of the store.
        let mut model = Model::new(&ctx.spec);
        let base = load_store(&p, &mut model)?;
        let reqs = traffic_requests(&mut model, ctx.seed ^ 0x7ace, pass_requests(ctx));
        let wire = to_wire(&reqs);
        // A round is what one committer fsync covers on the live server
        // (ops per block × blocks per sync); a volatile server has no
        // sync, so a round is the closed loop's in-flight requests.
        let per_sync = PromHist::parse(prom, "migratory_block_size").mean()
            * PromHist::parse(prom, "migratory_fsync_batch").mean();
        let round = if ctx.spec.workload.durable() && per_sync >= 1.0 {
            (per_sync.round() as usize).min(256)
        } else {
            2 * ctx.spec.window
        };
        let durable = ctx.spec.workload.durable();
        let wal_dir = |what: &str| durable.then(|| ctx.fresh(what));
        let plain = pass(&p, &base, &wire, round, wal_dir("pass-wal").as_deref(), None, false)?;
        let traced = pass(&p, &base, &wire, round, wal_dir("pass-wal").as_deref(), None, true)?;
        let plain_rate = plain.ops as f64 / plain.secs;
        let traced_rate = traced.ops as f64 / traced.secs;
        let mut layered = traced;
        let mut _replica = None;
        if ctx.spec.workload == Workload::Replicated {
            let (repl, replica) = attach_replica(ctx, &base)?;
            let dir = ctx.fresh("pass-wal");
            layered = pass(&p, &base, &wire, round, Some(&dir), Some(&repl), true)?;
            // The standby caught up with everything shipped.
            server::wait_stats(replica.addr, Duration::from_secs(20), |s| {
                server::num(s, "horizon") as u64 == repl.horizon()
            })?;
            repl.close();
            _replica = Some(replica);
        }
        for ps in [&plain, &layered] {
            if ps.mismatches > 0 {
                correct = false;
                notes.push(format!("in-process pass: {} oracle mismatches", ps.mismatches));
            }
        }
        check_nesting(&layered.spans)?;
        if let Some(path) = &ctx.spans_out {
            write_spans(path, &layered.spans)?;
        }
        let spans = &layered.spans;
        let own = self_times(spans);
        let round_total: f64 = durations(spans, "round").iter().sum();
        let batch_self = self_sum(spans, &own, "sharded.try_apply_batch");
        let root_self = self_sum(spans, &own, "round");
        let wal_spans = ["wal.encode", "wal.append_bytes", "wal.sync"]
            .iter()
            .map(|n| durations(spans, n).len())
            .sum::<usize>();
        let blocks = durations(spans, "wal.encode");
        got.extend([
            metric("net.parse_text_us", mean(&durations(spans, "net.parse_text")), "us"),
            metric("net.parse_binary_us", mean(&durations(spans, "net.parse_binary")), "us"),
            metric(
                "sharded.batch_self_us_per_op",
                batch_self / layered.invokes.max(1) as f64,
                "us",
            ),
            metric(
                "sharded.batch_us_p99",
                quantile(&durations(spans, "sharded.try_apply_batch"), 0.99),
                "us",
            ),
            metric("sharded.batch_share", batch_self / round_total.max(1e-9), "ratio"),
            metric(
                "sharded.violation_frac",
                layered.violations as f64 / layered.invokes.max(1) as f64,
                "ratio",
            ),
            metric("sharded.query_us", mean(&durations(spans, "sharded.query")), "us"),
            metric("wal.encode_us_per_block", mean(&blocks), "us"),
            metric("wal.append_us_p50", median(&durations(spans, "wal.append_bytes")), "us"),
            metric("wal.sync_us_p50", quantile(&durations(spans, "wal.sync"), 0.5), "us"),
            metric("wal.sync_us_p99", quantile(&durations(spans, "wal.sync"), 0.99), "us"),
            metric("wal.write_spans", wal_spans as f64, "count"),
            metric(
                "repl.ship_wait_us_p50",
                quantile(&durations(spans, "repl.ship_and_wait"), 0.5),
                "us",
            ),
            metric(
                "repl.ship_wait_us_p99",
                quantile(&durations(spans, "repl.ship_and_wait"), 0.99),
                "us",
            ),
            metric("repl.spans", durations(spans, "repl.ship_and_wait").len() as f64, "count"),
            metric("trace.unattributed_frac", root_self / round_total.max(1e-9), "ratio"),
            metric("trace.overhead_frac", 1.0 - traced_rate / plain_rate, "ratio"),
        ]);
        // Ingress: post → wait through the real admission loop.
        let (lat, stats, bad) =
            ingress_phase(&p, &base, &reqs, ctx.spec.window, wal_dir("ingress-wal").as_deref())?;
        if bad > 0 {
            correct = false;
            notes.push(format!("ingress phase: {bad} outcomes disagree with the oracle"));
        }
        // `requeued` counts re-queue events: an op waiting behind several
        // violators is re-queued once per violator, so the count can pass
        // `submitted`. What must hold is that each rejection re-queues
        // at most the rest of its block.
        let max_block = IngressConfig::default().max_block;
        if stats.requeued > stats.rejected * (max_block - 1) {
            return Err(format!(
                "ingress re-queued {} ops behind {} rejections (blocks of ≤ {max_block})",
                stats.requeued, stats.rejected
            ));
        }
        got.extend([
            metric("ingress.op_us_p50", quantile(&lat, 0.5), "us"),
            metric("ingress.op_us_p99", quantile(&lat, 0.99), "us"),
            metric(
                "ingress.ops_per_block",
                stats.admitted as f64 / stats.blocks.max(1) as f64,
                "ops",
            ),
            metric(
                "ingress.requeued_frac",
                stats.requeued as f64 / stats.submitted.max(1) as f64,
                "ratio",
            ),
        ]);
        notes.push(format!(
            "in-process: {} requests, rounds of {round}; untraced {plain_rate:.0} ops/s, \
             traced {traced_rate:.0} ops/s",
            layered.ops,
        ));
    }
    // Report every per-layer metric, in order; absent layers read 0.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = got.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
            metric(name, v, unit)
        })
        .collect();
    Ok(Report { correct, metrics, notes })
}

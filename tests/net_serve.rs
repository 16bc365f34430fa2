//! Server lifecycle tests for the wire front end (`core::enforce::net`,
//! `migctl serve`/`client`):
//!
//! * concurrent clients with interleaved violations get correct
//!   per-connection replies;
//! * graceful drain answers every in-flight ticket before the socket
//!   closes;
//! * a kill → `--recover` → re-serve round trip is byte-identical
//!   (driven through the real `migctl` binary over a real socket);
//! * the worked session in `docs/PROTOCOL.md` is executed verbatim —
//!   the protocol document cannot drift from the server.

mod common;

use migratory::core::enforce::net::{self, ServerConfig};
use migratory::core::enforce::{ResiduePolicy, ShardedMonitor, Wal};
use migratory::core::{Inventory, PatternKind, RoleAlphabet};
use migratory::lang::{parse_transactions, Assignment, TransactionSchema};
use migratory::model::text::parse_schema;
use migratory::model::Schema;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// A synchronous wire client: one reply read per request written.
struct Client {
    writer: TcpStream,
    replies: std::io::Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: impl std::net::ToSocketAddrs) -> Client {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        Client { writer: conn.try_clone().expect("clone"), replies: BufReader::new(conn).lines() }
    }

    fn send(&mut self, req: &str) {
        writeln!(self.writer, "{req}").expect("send");
    }

    fn recv(&mut self) -> String {
        self.replies.next().expect("a reply per request").expect("read reply")
    }

    fn ask(&mut self, req: &str) -> String {
        self.send(req);
        self.recv()
    }

    /// Read every remaining line until the server closes the socket.
    fn drain_to_eof(self) -> Vec<String> {
        self.replies.map(|l| l.expect("read reply")).collect()
    }
}

/// Three independent root classes (3 components → 3 shards/lanes).
fn multi_schema() -> Schema {
    parse_schema(
        r"
        schema Fleet {
          class R0 { K0 }
          class S0 isa R0 { }
          class R1 { K1 }
          class S1 isa R1 { }
          class R2 { K2 }
          class S2 isa R2 { }
        }",
    )
    .expect("schema parses")
}

fn multi_transactions(s: &Schema) -> TransactionSchema {
    parse_transactions(
        s,
        r"
        transaction Mk0(x) { create(R0, { K0 = x }); }
        transaction Up0(x) { specialize(R0, S0, { K0 = x }, {}); }
        transaction Mk1(x) { create(R1, { K1 = x }); }
        transaction Mk2(x) { create(R2, { K2 = x }); }
    ",
    )
    .expect("transactions validate")
}

// ---------------------------------------------------------------------
// Concurrent clients with interleaved violations
// ---------------------------------------------------------------------

/// Three concurrent connections — two streams of conforming creations
/// in different components, one stream of guaranteed violators into the
/// first component's lane — each synchronously checking every reply on
/// its own connection. Violations interleave with admissions inside
/// shared blocks, and no reply ever lands on the wrong connection.
#[test]
fn concurrent_clients_get_correct_per_connection_replies() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    // Specialization is forbidden: every Up0 violates, deterministically.
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const PER: usize = 120;
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &ServerConfig::default(), |_| {}).unwrap()
        });
        // The protocol promises no ordering *between* connections, so
        // the violating client must not start until the seed object's
        // create is acknowledged — an `Up0` racing ahead of `Mk0(seed)`
        // would match nothing and be a legitimate no-op `ok`.
        let seeded = &std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|clients| {
            clients.spawn(|| {
                let mut c = Client::connect(addr);
                assert_eq!(c.ask("invoke Mk0(seed)"), "ok", "the violators' target object");
                seeded.store(true, std::sync::atomic::Ordering::SeqCst);
                for i in 0..PER {
                    assert_eq!(c.ask(&format!("invoke Mk0(a{i})")), "ok", "conforming create");
                }
            });
            clients.spawn(|| {
                let mut c = Client::connect(addr);
                for i in 0..PER {
                    assert_eq!(c.ask(&format!("invoke Mk1(b{i})")), "ok", "other component");
                }
            });
            clients.spawn(|| {
                let mut c = Client::connect(addr);
                while !seeded.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                for _ in 0..PER / 2 {
                    let reply = c.ask("invoke Up0(seed)");
                    assert!(
                        reply.starts_with("violation "),
                        "specialization must be rejected: {reply}"
                    );
                    assert!(reply.contains("[S0]"), "diagnostic names the role set: {reply}");
                }
            });
        });
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap()
    });
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.admitted, 1 + 2 * PER);
    assert_eq!(stats.rejected, PER / 2);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.ingress.admitted, 1 + 2 * PER);
    assert_eq!(stats.ingress.rejected, PER / 2);
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

/// A client pipelines a whole burst and a `shutdown` in one write —
/// every in-flight invoke must still be answered, in order, before the
/// server closes the socket.
#[test]
fn graceful_drain_answers_all_inflight_tickets() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const BURST: usize = 500;
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            // A tiny block size so the burst spans many admission
            // blocks and is genuinely in flight at shutdown.
            let config = ServerConfig {
                ingress: migratory::core::enforce::IngressConfig {
                    queue_capacity: 64,
                    max_block: 8,
                },
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let mut c = Client::connect(addr);
        let mut burst = String::new();
        for i in 0..BURST {
            burst.push_str(&format!("invoke Mk0(x{i})\n"));
        }
        burst.push_str("shutdown\n");
        c.writer.write_all(burst.as_bytes()).unwrap();
        let replies = c.drain_to_eof();
        // Every request answered before EOF, in order: BURST oks, then
        // the shutdown acknowledgement, then nothing.
        assert_eq!(replies.len(), BURST + 1, "every in-flight ticket answered before close");
        assert!(replies[..BURST].iter().all(|r| r == "ok"), "all creations admitted");
        assert_eq!(replies[BURST], "ok draining");
        server.join().unwrap()
    });
    assert_eq!(stats.admitted, BURST);
    assert_eq!(stats.ingress.admitted, BURST, "the monitor committed them all");
}

// ---------------------------------------------------------------------
// kill → --recover → re-serve, through the real binary
// ---------------------------------------------------------------------

const UNI_SCHEMA: &str = r#"
schema Uni {
  class PERSON { SSN, Name }
  class STUDENT isa PERSON { Major }
}
"#;

const UNI_TX: &str = r#"
transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
transaction St(x) { specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS" }); }
transaction Rm(x) { delete(PERSON, { SSN = x }); }
"#;

const UNI_INV: &str = "∅* [PERSON]* [STUDENT]* ∅*";

/// Spawn `migctl serve` on an ephemeral port and return (child, addr).
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> (std::process::Child, String) {
    let schema = dir.join("uni.mig");
    let tx = dir.join("uni.sl");
    std::fs::write(&schema, UNI_SCHEMA).unwrap();
    std::fs::write(&tx, UNI_TX).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_migctl"))
        .arg("serve")
        .arg(&schema)
        .arg(&tx)
        .args(["--inventory", UNI_INV, "--addr", "127.0.0.1:0", "--shards", "2"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn migctl serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("serve prints its address").expect("read stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().expect("an address").to_owned();
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// What the acknowledged script must have produced: a fresh monitor fed
/// exactly the acked applications, in order.
fn expected_state(script: &[(&str, &str)]) -> Vec<u8> {
    let schema = parse_schema(UNI_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, UNI_INV).unwrap();
    let ts = parse_transactions(&schema, UNI_TX).unwrap();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
    for (name, key) in script {
        m.try_apply(
            ts.get(name).unwrap(),
            &Assignment::new(vec![migratory::model::Value::str(key)]),
        )
        .expect("acked ops conform");
    }
    m.snapshot().encode()
}

/// Fold the WAL directory back into a monitor and return its canonical
/// state bytes.
fn recovered_state(dir: &std::path::Path) -> Vec<u8> {
    let schema = parse_schema(UNI_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, UNI_INV).unwrap();
    let (snap, tail) = Wal::load(dir).expect("load wal");
    ShardedMonitor::recover(&schema, &alphabet, &inv, PatternKind::All, 2, snap, tail)
        .expect("recover")
        .snapshot()
        .encode()
}

/// SIGKILL a serving `migctl` mid-stream, `--recover` into a second
/// server, keep going, drain gracefully — after every stage the durable
/// state must be byte-identical to a fresh monitor fed exactly the
/// acknowledged applications.
#[test]
fn kill_recover_reserve_roundtrip_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("migratory-net-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");

    // Stage 1: serve fresh, ack 40 creations + 8 specializations, kill
    // without any shutdown courtesy.
    let mut script: Vec<(&str, String)> = Vec::new();
    let (mut child, addr) =
        spawn_serve(&dir, &["--durable", wal_dir.to_str().unwrap(), "--checkpoint-every", "4"]);
    {
        let mut c = Client::connect(&*addr);
        for i in 0..40 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        for i in 0..8 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke St({key})")), "ok");
            script.push(("St", key));
        }
    }
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");

    // Everything acknowledged before the kill is durable — and nothing
    // else: the folded chain + tail equals a monitor fed exactly the
    // acked script.
    let script_refs: Vec<(&str, &str)> = script.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_state(&script_refs),
        "stage 1: recovered state must be byte-identical to the acked history"
    );

    // Stage 2: re-serve with --recover, keep working, drain gracefully.
    let (mut child, addr) = spawn_serve(
        &dir,
        &["--durable", wal_dir.to_str().unwrap(), "--recover", "--checkpoint-every", "4"],
    );
    {
        let mut c = Client::connect(&*addr);
        for i in 40..52 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        // The pre-crash history constrains the resumed run: o0 is a
        // STUDENT, so deleting and re-creating under [PERSON]* after
        // [STUDENT]* would violate — the monitor remembers.
        let reply = c.ask("invoke Rm(k0)");
        assert_eq!(reply, "ok");
        script.push(("Rm", "k0".to_owned()));
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    let status = child.wait().expect("server drains and exits");
    assert!(status.success(), "graceful shutdown exits cleanly");

    let script_refs: Vec<(&str, &str)> = script.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_state(&script_refs),
        "stage 2: the re-served state must be byte-identical to the full acked history"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Connection supervision: idle timeout, quotas, cap, auth
// ---------------------------------------------------------------------

/// A stalled peer is reaped by the idle timeout with one error reply,
/// while a concurrent well-behaved connection's FIFO is undisturbed.
#[test]
fn idle_timeout_reaps_stalled_peer_without_disturbing_others() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig {
                idle_timeout: Some(std::time::Duration::from_millis(150)),
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let stalled = Client::connect(addr);
        let mut active = Client::connect(addr);
        // The active connection works, in order, for well past the idle
        // timeout — each of its requests resets its own clock.
        for i in 0..30 {
            assert_eq!(active.ask(&format!("invoke Mk0(a{i})")), "ok", "survivor keeps FIFO");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let replies = stalled.drain_to_eof();
        assert_eq!(replies.len(), 1, "one reaping error, then EOF: {replies:?}");
        assert!(
            replies[0].starts_with("error idle timeout after"),
            "the peer is told why: {}",
            replies[0]
        );
        assert_eq!(active.ask("invoke Mk0(tail)"), "ok", "survivor unaffected by the reap");
        assert_eq!(active.ask("shutdown"), "ok draining");
        server.join().unwrap()
    });
    assert_eq!(stats.admitted, 31);
    assert_eq!(stats.errors, 1, "the reap is the only error");
}

/// A stalled *binary-dialect* peer is reaped in its own dialect: the
/// unsolicited idle-timeout error arrives as a decodable error frame,
/// not a text line that would fail the client's magic-byte check.
#[test]
fn idle_timeout_reaps_binary_peer_in_binary_dialect() {
    use migratory::core::enforce::net::frame;
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig {
                idle_timeout: Some(std::time::Duration::from_millis(150)),
                ..Default::default()
            };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let stalled = TcpStream::connect(addr).unwrap();
        let mut req = Vec::new();
        frame::encode_invoke_frame(&mut req, "Mk0", &[migratory::model::Value::str("bin")]);
        (&stalled).write_all(&req).unwrap();
        let mut reader = BufReader::new(stalled);
        let (kind, _) = frame::read_frame(&mut reader).expect("binary ok");
        assert_eq!(kind, frame::REP_OK);
        // Stall past the idle timeout: the reap must speak frames too.
        let (kind, payload) = frame::read_frame(&mut reader).expect("reap arrives as a frame");
        assert_eq!(kind, frame::REP_ERROR);
        assert!(
            String::from_utf8_lossy(&payload).starts_with("idle timeout after"),
            "the peer is told why: {payload:?}"
        );
        let mut ctl = Client::connect(addr);
        assert_eq!(ctl.ask("shutdown"), "ok draining");
        server.join().unwrap()
    });
}

/// A peer that exceeds its request quota mid-pipeline gets every
/// already-read request answered in order, then one quota error, then
/// EOF — and a fresh connection starts with a fresh quota.
#[test]
fn op_quota_tears_down_peer_with_inflight_answered() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig { max_conn_ops: 3, ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let mut c = Client::connect(addr);
        let mut burst = String::new();
        for i in 0..6 {
            burst.push_str(&format!("invoke Mk0(q{i})\n"));
        }
        c.writer.write_all(burst.as_bytes()).unwrap();
        let replies = c.drain_to_eof();
        assert_eq!(replies.len(), 4, "3 in-flight answers + the quota error: {replies:?}");
        assert!(replies[..3].iter().all(|r| r == "ok"), "in-flight tickets answered: {replies:?}");
        assert_eq!(replies[3], "error connection request quota exceeded (3 requests); closing");
        let mut c2 = Client::connect(addr);
        assert_eq!(c2.ask("invoke Mk0(fresh)"), "ok", "quotas are per-connection");
        assert_eq!(c2.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// Same teardown contract for the byte quota: the line that crosses the
/// budget is refused, everything read before it was answered.
#[test]
fn byte_quota_tears_down_peer_with_inflight_answered() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            // Each "invoke Mk0(bN)\n" line is 15 bytes: 4 fit in 64,
            // the 5th crosses the budget.
            let config = ServerConfig { max_conn_bytes: 64, ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let mut c = Client::connect(addr);
        let mut burst = String::new();
        for i in 0..6 {
            burst.push_str(&format!("invoke Mk0(b{i})\n"));
        }
        c.writer.write_all(burst.as_bytes()).unwrap();
        let replies = c.drain_to_eof();
        assert_eq!(replies.len(), 5, "4 in-flight answers + the quota error: {replies:?}");
        assert!(replies[..4].iter().all(|r| r == "ok"), "in-flight tickets answered: {replies:?}");
        assert_eq!(replies[4], "error connection byte quota exceeded (64 bytes); closing");
        let mut c2 = Client::connect(addr);
        assert_eq!(c2.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// Excess sockets beyond the connection cap are refused at accept with
/// one error line; the live connection is untouched.
#[test]
fn connection_cap_refuses_excess_sockets() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig { max_connections: 1, ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let mut keeper = Client::connect(addr);
        // A round trip guarantees the keeper is registered before the
        // excess socket races it to the accept loop.
        assert_eq!(keeper.ask("ping"), "ok pong");
        let extra = Client::connect(addr);
        let replies = extra.drain_to_eof();
        assert_eq!(replies, vec!["error server at connection capacity (1)".to_owned()]);
        assert_eq!(keeper.ask("invoke Mk0(kept)"), "ok", "the live connection is untouched");
        assert_eq!(keeper.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

/// With a shared secret configured, nothing but the correct handshake
/// is served — wrong verb and wrong token both disconnect after one
/// uninformative error; the right token unlocks every verb.
#[test]
fn auth_gate_refuses_until_handshake() {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let config = ServerConfig { auth: Some("sesame".to_owned()), ..Default::default() };
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &config, |_| {}).unwrap()
        });
        let mut c = Client::connect(addr);
        c.send("invoke Mk0(x)");
        let replies = c.drain_to_eof();
        assert_eq!(
            replies,
            vec!["error authentication required (send `auth <token>` first)".to_owned()],
            "an unauthed verb is refused and disconnected"
        );
        let mut c = Client::connect(addr);
        c.send("auth wrong");
        let replies = c.drain_to_eof();
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(
            replies[0].starts_with("error authentication required"),
            "a wrong token gets the same uninformative refusal: {}",
            replies[0]
        );
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("auth sesame"), "ok authed");
        assert_eq!(c.ask("ping"), "ok pong");
        assert_eq!(c.ask("invoke Mk0(in)"), "ok");
        assert_eq!(c.ask("auth sesame"), "ok authed", "re-auth is a harmless no-op");
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

// ---------------------------------------------------------------------
// Degraded read-only mode over the wire, through the real binary
// ---------------------------------------------------------------------

/// Persistent write-ahead failure mid-stream degrades the server to
/// read-only over the wire: acked work stays durable, later writes are
/// refused loudly, `stats` reports it, `rearm` clears it, and recovery
/// is byte-identical to exactly the acked prefix.
#[test]
fn persistent_append_failure_degrades_to_read_only() {
    let dir = std::env::temp_dir().join(format!("migratory-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");
    let (mut child, addr) = spawn_serve(
        &dir,
        &[
            "--durable",
            wal_dir.to_str().unwrap(),
            "--max-block",
            "1", // one op per block: WAL appends are deterministic
            "--retries",
            "1",
            "--retry-backoff-ms",
            "1",
            "--inject",
            "append@4:persistent",
        ],
    );
    let mut script: Vec<(&str, String)> = Vec::new();
    {
        let mut c = Client::connect(&*addr);
        for i in 0..3 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            script.push(("Mk", key));
        }
        // Append #4 fails and so does its one retry: the server refuses
        // rather than ack what never reached the log.
        let reply = c.ask("invoke Mk(k3)");
        assert!(reply.starts_with("error degraded (read-only):"), "{reply}");
        let reply = c.ask("invoke Mk(k4)");
        assert!(reply.starts_with("error degraded (read-only):"), "refused fast: {reply}");
        let st = c.ask("stats");
        assert!(st.contains("degraded=yes"), "stats surface the state: {st}");
        assert_eq!(c.ask("ping"), "ok pong", "read verbs still answer");
        assert_eq!(c.ask("rearm"), "ok armed");
        let st = c.ask("stats");
        assert!(st.contains("degraded=no"), "re-armed: {st}");
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    let status = child.wait().expect("server drains and exits");
    assert!(status.success(), "a degraded run still drains cleanly");
    let script_refs: Vec<(&str, &str)> = script.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_state(&script_refs),
        "the degraded refusals left no trace — only acked ops are durable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Online redefinition under live traffic, through the real binary
// ---------------------------------------------------------------------

/// The tightened inventory a mid-stream `redefine` swaps in: students
/// are no longer admissible, so every pre-existing STUDENT cohort is
/// residue.
const UNI_NEXT_INV: &str = "∅* [PERSON]* ∅*";

/// What the acked script must have produced when a redefinition sits
/// between its two halves: a fresh monitor fed the pre-redefine ops,
/// redefined under quarantine, then fed the post-redefine ops.
fn expected_redefined_state(pre: &[(&str, &str)], post: &[(&str, &str)]) -> Vec<u8> {
    let schema = parse_schema(UNI_SCHEMA).unwrap();
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, UNI_INV).unwrap();
    let next = Inventory::parse_init(&schema, &alphabet, UNI_NEXT_INV).unwrap();
    let ts = parse_transactions(&schema, UNI_TX).unwrap();
    let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
    for (name, key) in pre {
        m.try_apply(
            ts.get(name).unwrap(),
            &Assignment::new(vec![migratory::model::Value::str(key)]),
        )
        .expect("acked pre-redefine ops conform");
    }
    let out = m.redefine(&next, ResiduePolicy::Quarantine).expect("the oracle redefinition admits");
    assert_eq!((out.epoch, out.residue, out.quarantined), (1, 2, 2), "two students are residue");
    for (name, key) in post {
        m.try_apply(
            ts.get(name).unwrap(),
            &Assignment::new(vec![migratory::model::Value::str(key)]),
        )
        .expect("acked post-redefine ops conform");
    }
    m.snapshot().encode()
}

/// The tentpole end to end, through the real binary: serve durably,
/// push mixed traffic, `redefine` mid-stream (residue quoted on the
/// wire), keep going under the new constraint, SIGKILL, `--recover`
/// into a second server that resumes at the swapped epoch — with the
/// post-upgrade violation stamped by the new automaton — and after a
/// graceful drain the durable state is byte-identical to an oracle that
/// replayed exactly the acked ops around an in-memory redefinition.
#[test]
fn redefine_under_live_traffic_survives_kill_and_recover() {
    let dir = std::env::temp_dir().join(format!("migratory-net-redefine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");

    // Stage 1: serve fresh; six persons, two of whom become students
    // (conforming under the base inventory), then tighten the
    // inventory online and keep working under epoch 1.
    let mut pre: Vec<(&str, String)> = Vec::new();
    let mut post: Vec<(&str, String)> = Vec::new();
    let (mut child, addr) =
        spawn_serve(&dir, &["--durable", wal_dir.to_str().unwrap(), "--checkpoint-every", "4"]);
    {
        let mut c = Client::connect(&*addr);
        for i in 0..6 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            pre.push(("Mk", key));
        }
        for i in 0..2 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke St({key})")), "ok");
            pre.push(("St", key));
        }
        // The barrier op itself: both student cohorts are residue and,
        // under quarantine, exempt from further checking.
        assert_eq!(c.ask(&format!("redefine quarantine {UNI_NEXT_INV}")), "ok epoch=1 residue=2");
        // Specializing a plain person now violates — and the diagnostic
        // is stamped with the post-swap epoch.
        let reply = c.ask("invoke St(k2)");
        assert!(reply.starts_with("violation "), "students are outlawed at epoch 1: {reply}");
        assert!(reply.contains("[STUDENT]"), "diagnostic names the offending role: {reply}");
        assert!(reply.ends_with("[epoch 1]"), "diagnostic quotes the new automaton: {reply}");
        // Conforming traffic keeps flowing under the new constraint.
        for i in 6..8 {
            let key = format!("k{i}");
            assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
            post.push(("Mk", key));
        }
        let st = c.ask("stats");
        assert!(
            st.ends_with("epoch=1 redefines=1 quarantined=2"),
            "stats surface the evolution state: {st}"
        );
    }
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap");

    // The redefinition was logged write-ahead: folding the log into a
    // monitor seeded with the *base* inventory replays the swap and is
    // byte-identical to the oracle.
    let pre_refs: Vec<(&str, &str)> = pre.iter().map(|(n, k)| (*n, k.as_str())).collect();
    let post_refs: Vec<(&str, &str)> = post.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_redefined_state(&pre_refs, &post_refs),
        "stage 1: the killed server's log replays the redefinition byte-identically"
    );

    // Stage 2: `--recover` hands the *base* inventory to a second
    // server; the log brings it to epoch 1, where the new constraint
    // keeps being enforced.
    let (mut child, addr) = spawn_serve(
        &dir,
        &["--durable", wal_dir.to_str().unwrap(), "--recover", "--checkpoint-every", "4"],
    );
    {
        let mut c = Client::connect(&*addr);
        let st = c.ask("stats");
        assert!(
            st.ends_with("epoch=1 redefines=1 quarantined=2"),
            "the recovered server resumes at the swapped epoch: {st}"
        );
        let reply = c.ask("invoke St(k3)");
        assert!(reply.starts_with("violation "), "epoch 1 survived the crash: {reply}");
        assert!(reply.ends_with("[epoch 1]"), "post-recovery diagnostics quote epoch 1: {reply}");
        let key = "k8".to_owned();
        assert_eq!(c.ask(&format!("invoke Mk({key})")), "ok");
        post.push(("Mk", key));
        assert_eq!(c.ask("shutdown"), "ok draining");
    }
    let status = child.wait().expect("server drains and exits");
    assert!(status.success(), "graceful shutdown exits cleanly");

    let post_refs: Vec<(&str, &str)> = post.iter().map(|(n, k)| (*n, k.as_str())).collect();
    assert_eq!(
        recovered_state(&wal_dir),
        expected_redefined_state(&pre_refs, &post_refs),
        "stage 2: the full acked history around the redefinition is byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// One metrics registry; bounded violation replies
// ---------------------------------------------------------------------

/// Sum a histogram's `_count` series over every `shard` label of a
/// `stats prom` payload.
fn prom_count(prom: &str, name: &str) -> u64 {
    let series = format!("{name}_count");
    prom.lines()
        .filter(|l| l.split(['{', ' ']).next() == Some(series.as_str()))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// A volatile server (no WAL, no caller-supplied metrics) still has a
/// registry, and its admission loop stamps the per-block histograms:
/// after traffic, `stats prom` reports non-zero block-size and
/// queue-depth counts. The request counters live in the same registry:
/// after a mixed session (admissions, a violation, errors, two
/// connections) the flat line's fields, the `stats prom` counters and
/// the `NetStats` that `serve` returns all agree.
#[test]
fn volatile_server_stamps_admission_histograms() {
    use std::io::Read;
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Assertions run after the join: a failure never leaves the server
    // parked.
    let (prom, stats_line, net) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
            net::serve(listener, &mut m, &ts, &ServerConfig::default(), |_| {}).unwrap()
        });
        let mut c = Client::connect(addr);
        for i in 0..24 {
            assert_eq!(c.ask(&format!("invoke Mk{}(v{i})", i % 3)), "ok");
        }
        assert!(c.ask("invoke Up0(v0)").starts_with("violation "));
        assert!(c.ask("invoke Nope(1)").starts_with("error unknown transaction"));
        assert!(c.ask("bogus").starts_with("error unknown verb"));
        let mut c = Client::connect(addr);
        let stats_line = c.ask("stats");
        c.send("stats prom");
        let mut r = BufReader::new(c.writer.try_clone().unwrap());
        let mut header = String::new();
        r.read_line(&mut header).unwrap();
        let len: usize =
            header.trim().strip_prefix("ok prom ").and_then(|n| n.parse().ok()).unwrap_or(0);
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload).unwrap();
        c.send("shutdown");
        let mut bye = String::new();
        r.read_line(&mut bye).unwrap();
        assert_eq!(bye, "ok draining\n");
        let net = server.join().unwrap();
        (String::from_utf8(payload).unwrap(), stats_line, net)
    });
    assert!(prom_count(&prom, "migratory_block_size") > 0, "block sizes stamped: {prom}");
    assert!(prom_count(&prom, "migratory_queue_depth") > 0, "queue depths stamped: {prom}");
    assert!(prom_count(&prom, "migratory_commit_latency_us") > 0, "releases stamped: {prom}");
    assert!(prom.contains("migratory_epoch 0"), "the gauges live in the same registry: {prom}");
    assert!(stats_line.contains("epoch=0 redefines=0 quarantined=0"), "{stats_line}");

    let field = |name: &str| -> usize {
        let key = format!("{name}=");
        let v = stats_line.split_whitespace().find_map(|t| t.strip_prefix(key.as_str()));
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key}: {stats_line}"))
    };
    let counter = |name: &str| -> usize {
        let key = format!("migratory_{name}_total ");
        let v = prom.lines().find_map(|l| l.strip_prefix(key.as_str()));
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key}: {prom}"))
    };
    assert!(prom.contains("# TYPE migratory_requests_total counter"), "{prom}");
    let flat = (field("admitted"), field("rejected"), field("errors"), field("connections"));
    assert_eq!(flat, (24, 1, 2, 2), "{stats_line}");
    let exposed =
        (counter("admitted"), counter("rejected"), counter("errors"), counter("connections"));
    assert_eq!(exposed, flat, "`stats prom` and the flat line read one registry");
    assert_eq!((net.admitted, net.rejected, net.errors, net.connections), flat);
    // Each later reading saw exactly one more request: `stats prom`
    // itself, then `shutdown`.
    assert_eq!(field("requests"), 28, "{stats_line}");
    assert_eq!(counter("requests"), 29);
    assert_eq!(net.requests, 30);
}

/// A violation whose pattern renders past the 64 KiB reply cap used to
/// panic the event thread in the binary frame encoder and hang every
/// later client. Now both dialects carry the same diagnostic, elided in
/// the middle behind an explicit letter count, with the `[epoch E]`
/// suffix intact — and the server keeps answering.
#[test]
fn oversized_violation_diagnostic_is_elided_in_both_dialects() {
    use migratory::core::enforce::net::{frame, MAX_LINE};
    use migratory::model::Value;
    const HISTORY: usize = 8000;
    let dir = std::env::temp_dir().join(format!("migratory-long-diag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (child, addr) = spawn_serve(&dir, &[]);
    let server = common::Reap(child);
    let timeout = Some(std::time::Duration::from_secs(30));

    // One component, every application a step: each creation appends a
    // [PERSON] letter to `p`'s pattern — ~9 bytes a letter, past 64 KiB.
    let mut c = Client::connect(&*addr);
    c.writer.set_read_timeout(timeout).unwrap();
    let mut burst = String::from("invoke Mk(p)\n");
    for i in 0..HISTORY {
        burst.push_str(&format!("invoke Mk(k{i})\n"));
    }
    let mut writer = c.writer.try_clone().unwrap();
    let feeder = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
    for _ in 0..=HISTORY {
        assert_eq!(c.recv(), "ok");
    }
    feeder.join().unwrap();
    // PERSON-only from here on: `p` survives, its specialization violates.
    assert_eq!(c.ask(&format!("redefine quarantine {UNI_NEXT_INV}")), "ok epoch=1 residue=0");

    let text = c.ask("invoke St(p)");
    let diag = text
        .strip_prefix("violation ")
        .unwrap_or_else(|| panic!("a violation: {}", text.chars().take(200).collect::<String>()))
        .to_owned();
    assert!(text.len() < MAX_LINE as usize, "the text reply line fits the cap: {}", text.len());
    assert!(diag.starts_with("object o1 would follow the pattern [PERSON] [PERSON] "), "head kept");
    assert!(diag.contains(" letters elided … "), "the elision is explicit");
    assert!(
        diag.ends_with("[PERSON] [STUDENT] ∉ 𝔏 (offending role set [STUDENT]) [epoch 1]"),
        "tail, offending letter and epoch kept: {}",
        diag.chars().skip(diag.chars().count().saturating_sub(200)).collect::<String>()
    );
    let kept = diag.matches("[PERSON]").count();
    let elided: usize = diag
        .split("… ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("the marker states the elided letter count");
    assert_eq!(kept + elided, HISTORY + 1, "every [PERSON] letter is kept or counted");

    let conn = TcpStream::connect(&*addr).unwrap();
    conn.set_read_timeout(timeout).unwrap();
    let mut out = Vec::new();
    frame::encode_invoke_frame(&mut out, "St", &[Value::str("p")]);
    (&conn).write_all(&out).unwrap();
    let (kind, payload) = frame::read_frame(&mut BufReader::new(&conn)).expect("a reply frame");
    assert_eq!(kind, frame::REP_VIOLATION);
    assert_eq!(String::from_utf8(payload).unwrap(), diag, "both dialects agree");

    // The server survived both replies.
    assert_eq!(c.ask("ping"), "ok pong");
    let stats = c.ask("stats");
    assert!(stats.contains(&format!("admitted={} rejected=2", HISTORY + 1)), "{stats}");
    assert_eq!(c.ask("shutdown"), "ok draining");
    let mut server = server;
    assert!(server.0.wait().expect("server drains").success());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Dialect parity: one request, two encodings, one answer
// ---------------------------------------------------------------------

/// One request written in both dialects, with the reply kind it must
/// draw. `exact`: the binary payload equals the rest of the text line.
/// Where the malformed part is itself dialect-specific (a policy word
/// vs a policy byte, the call grammar vs the binary codec) the two
/// messages cannot be the same bytes; they share `prefix`.
struct Twin {
    case: &'static str,
    text: String,
    frame: Vec<u8>,
    kind: u8,
    exact: bool,
    prefix: String,
}

impl Twin {
    fn exact(case: &'static str, text: &str, frame: Vec<u8>, kind: u8, prefix: &str) -> Twin {
        let (text, prefix) = (text.to_owned(), prefix.to_owned());
        Twin { case, text, frame, kind, exact: true, prefix }
    }

    fn alike(case: &'static str, text: &str, frame: Vec<u8>, prefix: &str) -> Twin {
        use migratory::core::enforce::net::frame::REP_ERROR;
        let (text, prefix) = (text.to_owned(), prefix.to_owned());
        Twin { case, text, frame, kind: REP_ERROR, exact: false, prefix }
    }
}

/// A reply in dialect-neutral form: the binary reply kind and payload,
/// or a text line's first word mapped to that kind and the rest of the
/// line.
type Answer = (u8, String);

fn text_answer(line: &str) -> Answer {
    use migratory::core::enforce::net::frame;
    let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
    let kind = match word {
        "ok" => frame::REP_OK,
        "violation" => frame::REP_VIOLATION,
        "error" => frame::REP_ERROR,
        other => panic!("unexpected reply word `{other}`: {line}"),
    };
    (kind, rest.to_owned())
}

/// Play `rows` against `addr` in one dialect, one request at a time.
fn play(addr: &str, rows: &[Twin], binary: bool) -> Vec<Answer> {
    use migratory::core::enforce::net::frame;
    if !binary {
        let mut c = Client::connect(addr);
        return rows.iter().map(|row| text_answer(&c.ask(&row.text))).collect();
    }
    let conn = TcpStream::connect(addr).expect("connect");
    let mut r = BufReader::new(conn.try_clone().expect("clone"));
    rows.iter()
        .map(|row| {
            (&conn).write_all(&row.frame).expect("send frame");
            let (kind, payload) = frame::read_frame(&mut r).expect("a reply frame");
            (kind, String::from_utf8(payload).expect("UTF-8 reply payload"))
        })
        .collect()
}

/// Check one text/binary answer pair against its row.
fn assert_twins(rows: &[Twin], text: &[Answer], binary: &[Answer]) {
    for ((row, t), b) in rows.iter().zip(text).zip(binary) {
        let case = row.case;
        assert_eq!(t.0, row.kind, "{case}: text reply kind: {t:?}");
        assert_eq!(b.0, row.kind, "{case}: binary reply kind: {b:?}");
        assert!(t.1.starts_with(&row.prefix), "{case}: text reply {t:?}");
        assert!(b.1.starts_with(&row.prefix), "{case}: binary reply {b:?}");
        if row.exact {
            assert_eq!(b.1, t.1, "{case}: the binary payload is the rest of the text line");
        }
    }
    assert_eq!((text.len(), binary.len()), (rows.len(), rows.len()));
}

fn invoke_frame(name: &str, args: &[&str]) -> Vec<u8> {
    let args: Vec<migratory::model::Value> =
        args.iter().map(|a| migratory::model::Value::str(a)).collect();
    let mut out = Vec::new();
    net::frame::encode_invoke_frame(&mut out, name, &args);
    out
}

fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    net::frame::encode(&mut out, kind, payload);
    out
}

/// A well-formed invoke payload followed by one stray byte.
fn trailing_invoke_frame() -> Vec<u8> {
    let mut payload = invoke_frame("Mk0", &["t"])[net::frame::HEADER_LEN..].to_vec();
    payload.push(0);
    raw_frame(net::frame::REQ_INVOKE, &payload)
}

fn redefine_frame(policy: ResiduePolicy, source: &str) -> Vec<u8> {
    let mut out = Vec::new();
    net::frame::encode_redefine_frame(&mut out, policy, source);
    out
}

fn query_frame(query: &str) -> Vec<u8> {
    let mut out = Vec::new();
    net::frame::encode_query_frame(&mut out, query);
    out
}

/// Serve `rows` on two fresh volatile servers built from `config`, one
/// driven in text and one in binary, and return both answer lists —
/// two servers, so a stateful row (a redefine's epoch, a query's count)
/// sees the same state in both dialects.
fn serve_twins(config: &ServerConfig, rows: &[Twin]) -> (Vec<Answer>, Vec<Answer>) {
    let s = multi_schema();
    let a = RoleAlphabet::new(&s, 0).unwrap();
    let inv = Inventory::parse_init(&s, &a, "∅* [R0]* ∅*").unwrap();
    let ts = multi_transactions(&s);
    let mut answers = Vec::new();
    for binary in [false, true] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        answers.push(std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 3);
                net::serve(listener, &mut m, &ts, config, |_| {}).unwrap()
            });
            let answers = play(&addr, rows, binary);
            assert_eq!(Client::connect(&*addr).ask("shutdown"), "ok draining");
            server.join().unwrap();
            answers
        }));
    }
    let binary = answers.pop().unwrap();
    (answers.pop().unwrap(), binary)
}

/// Every request that exists in both dialects draws the same answer in
/// both: the binary reply kind is the text reply's first word, and the
/// binary payload is the rest of the text line. Covers admission
/// outcomes, argument errors, indexed queries, redefinition, the
/// degraded-mode refusal, and — on a live replica — the read-only
/// refusal, which wins over every argument error in both dialects.
#[test]
fn both_dialects_answer_every_request_alike() {
    use migratory::core::enforce::net::frame::{REP_ERROR, REP_OK, REP_VIOLATION, REQ_INVOKE};
    use migratory::core::enforce::net::frame::{REQ_QUERY, REQ_REDEFINE};
    let q = ResiduePolicy::Quarantine;
    let rows = vec![
        Twin::exact("invoke ok", "invoke Mk0(a)", invoke_frame("Mk0", &["a"]), REP_OK, ""),
        Twin::exact(
            "invoke ok, second lane",
            "invoke Mk1(b)",
            invoke_frame("Mk1", &["b"]),
            REP_OK,
            "",
        ),
        Twin::exact(
            "invoke violation",
            "invoke Up0(a)",
            invoke_frame("Up0", &["a"]),
            REP_VIOLATION,
            "object ",
        ),
        Twin::exact(
            "invoke unknown transaction",
            "invoke Nope(1)",
            invoke_frame("Nope", &["1"]),
            REP_ERROR,
            "unknown transaction `Nope`",
        ),
        Twin::exact(
            "invoke wrong arity",
            "invoke Mk0(a, b)",
            invoke_frame("Mk0", &["a", "b"]),
            REP_ERROR,
            "transaction expects 1 argument(s), got 2",
        ),
        Twin::alike("invoke malformed arguments", "invoke Mk0", raw_frame(REQ_INVOKE, &[0xff]), ""),
        Twin::alike("invoke trailing bytes", "invoke Mk0(", trailing_invoke_frame(), ""),
        Twin::exact("query ok", "query R0", query_frame("R0"), REP_OK, "query count=1 oids="),
        Twin::exact(
            "query unknown class",
            "query Nope",
            query_frame("Nope"),
            REP_ERROR,
            "unknown class `Nope`",
        ),
        Twin::exact(
            "query unknown attribute",
            "query R0(Zz=1)",
            query_frame("R0(Zz=1)"),
            REP_ERROR,
            "unknown attribute `Zz`",
        ),
        Twin::exact(
            "redefine ok",
            "redefine quarantine ∅* [R0]* ∅*",
            redefine_frame(q, "∅* [R0]* ∅*"),
            REP_OK,
            "epoch=1 residue=0",
        ),
        Twin::alike(
            "redefine bad policy",
            "redefine bogus ∅*",
            raw_frame(REQ_REDEFINE, b"\x09\xe2\x88\x85*"),
            "redefine refused: unknown residue policy ",
        ),
        Twin::exact(
            "redefine bad inventory",
            "redefine quarantine ((",
            redefine_frame(q, "(("),
            REP_ERROR,
            "redefine refused: ",
        ),
        Twin::exact(
            "query after redefine",
            "query R0",
            query_frame("R0"),
            REP_OK,
            "query count=1 oids=",
        ),
    ];
    let (text, binary) = serve_twins(&ServerConfig::default(), &rows);
    assert_twins(&rows, &text, &binary);

    // Degraded read-only mode refuses writes identically in both.
    let degraded = ServerConfig::default();
    degraded.health.degrade("injected for the parity test");
    let rows = vec![
        Twin::exact(
            "degraded invoke",
            "invoke Mk0(a)",
            invoke_frame("Mk0", &["a"]),
            REP_ERROR,
            "degraded (read-only): injected for the parity test",
        ),
        Twin::exact(
            "degraded redefine",
            "redefine quarantine ∅* [R0]* ∅*",
            redefine_frame(q, "∅* [R0]* ∅*"),
            REP_ERROR,
            "degraded (read-only): injected for the parity test",
        ),
        Twin::exact("degraded query", "query R0", query_frame("R0"), REP_OK, "query count=0"),
    ];
    let (text, binary) = serve_twins(&degraded, &rows);
    assert_twins(&rows, &text, &binary);

    // A following replica refuses every write — well-formed or not —
    // before looking at its arguments, in both dialects.
    let dir = std::env::temp_dir().join(format!("migratory-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (wal_p, wal_r) = (dir.join("wal-p"), dir.join("wal-r"));
    let (primary, _, p_repl) = common::spawn_repl_serve(
        &dir,
        &["--durable", wal_p.to_str().unwrap(), "--repl-addr", "127.0.0.1:0"],
    );
    let primary = common::Reap(primary);
    let (replica, r_addr, _) = common::spawn_repl_serve(
        &dir,
        &["--durable", wal_r.to_str().unwrap(), "--replica-of", &p_repl],
    );
    let replica = common::Reap(replica);
    let invoke = "replica is read-only: invoke refused (following ";
    let redefine = "replica is read-only: redefine refused (following ";
    let rows = vec![
        Twin::exact(
            "replica invoke",
            "invoke Mk(x)",
            invoke_frame("Mk", &["x"]),
            REP_ERROR,
            invoke,
        ),
        Twin::exact(
            "replica malformed invoke",
            "invoke Mk",
            raw_frame(REQ_INVOKE, &[0xff]),
            REP_ERROR,
            invoke,
        ),
        Twin::exact(
            "replica invoke with trailing bytes",
            "invoke",
            trailing_invoke_frame(),
            REP_ERROR,
            invoke,
        ),
        Twin::exact(
            "replica redefine",
            "redefine quarantine ∅* [PERSON]* ∅*",
            redefine_frame(q, "∅* [PERSON]* ∅*"),
            REP_ERROR,
            redefine,
        ),
        Twin::exact(
            "replica redefine, bad policy",
            "redefine bogus ∅*",
            raw_frame(REQ_REDEFINE, b"\x09\xe2\x88\x85*"),
            REP_ERROR,
            redefine,
        ),
        Twin::exact(
            "replica redefine, no source",
            "redefine",
            raw_frame(REQ_REDEFINE, b""),
            REP_ERROR,
            redefine,
        ),
        Twin::exact(
            "replica redefine, bad inventory",
            "redefine quarantine ((",
            redefine_frame(q, "(("),
            REP_ERROR,
            redefine,
        ),
        Twin::exact("replica query", "query PERSON", query_frame("PERSON"), REP_OK, "query count="),
        Twin::alike("replica query, empty", "query", raw_frame(REQ_QUERY, b""), ""),
    ];
    let text = play(&r_addr, &rows, false);
    let binary = play(&r_addr, &rows, true);
    assert_twins(&rows, &text, &binary);
    drop((replica, primary));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// docs/PROTOCOL.md conformance
// ---------------------------------------------------------------------

/// Extract the first fenced code block labelled `lang` from markdown.
fn fenced_block(doc: &str, lang: &str) -> String {
    let fence = format!("```{lang}\n");
    let start =
        doc.find(&fence).unwrap_or_else(|| panic!("docs/PROTOCOL.md has no ```{lang} block"))
            + fence.len();
    let end = doc[start..].find("```").expect("unterminated fence") + start;
    doc[start..end].to_owned()
}

/// Every constant § Binary framing of `docs/PROTOCOL.md` states —
/// magic, header size, payload cap, request and reply kinds, the
/// oversized-frame refusal — is derived here from
/// `enforce::net::frame` itself, so the normative spec cannot drift
/// from the codec.
#[test]
fn binary_framing_spec_matches_the_implementation() {
    use migratory::core::enforce::net::frame;
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    let start = doc.find("## Binary framing").expect("doc has a Binary framing section");
    let spec = &doc[start..];
    let spec = &spec[..spec[3..].find("\n## ").map_or(spec.len(), |i| i + 3)];
    let claims = [
        format!("always {:#04X}", frame::MAGIC),
        format!("{}-byte header", frame::HEADER_LEN),
        format!("capped at **{}**", frame::MAX_PAYLOAD),
        format!("exceeds {} bytes", frame::MAX_PAYLOAD),
        format!("**`{:#04x}` (invoke)**", frame::REQ_INVOKE),
        format!("**`{:#04x}` (redefine)**", frame::REQ_REDEFINE),
        format!("**`{:#04x}` (query)**", frame::REQ_QUERY),
        format!("**`{:#04x}`** = `ok`", frame::REP_OK),
        format!("**`{:#04x}`** = `violation`", frame::REP_VIOLATION),
        format!("**`{:#04x}`** = `error`", frame::REP_ERROR),
    ];
    for claim in &claims {
        assert!(
            spec.contains(claim.as_str()),
            "docs/PROTOCOL.md § Binary framing drifted from enforce::net::frame: \
             expected the section to state `{claim}`"
        );
    }
}

/// Execute the worked session of `docs/PROTOCOL.md` verbatim: the
/// schema, transactions, inventory and every `>`/`<` exchange come from
/// the document, so the spec cannot drift from the server.
#[test]
fn protocol_document_session_is_live() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    let schema = parse_schema(&fenced_block(&doc, "schema")).expect("doc schema parses");
    let ts = parse_transactions(&schema, &fenced_block(&doc, "transactions"))
        .expect("doc transactions validate");
    let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
    let inv = Inventory::parse_init(&schema, &alphabet, fenced_block(&doc, "inventory").trim())
        .expect("doc inventory parses");
    let session = fenced_block(&doc, "session");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut m = ShardedMonitor::new(&schema, &alphabet, &inv, PatternKind::All, 2);
            net::serve(listener, &mut m, &ts, &ServerConfig::default(), |_| {}).unwrap()
        });
        let mut c = Client::connect(addr);
        let mut pending_request: Option<String> = None;
        for line in session.lines() {
            if let Some(req) = line.strip_prefix("> ") {
                assert!(pending_request.is_none(), "two requests without a reply: {req}");
                c.send(req);
                pending_request = Some(req.to_owned());
            } else if let Some(expected) = line.strip_prefix("< ") {
                let req = pending_request.take().expect("a reply without a request");
                let actual = c.recv();
                assert_eq!(actual, expected, "reply to `{req}` drifted from docs/PROTOCOL.md");
            }
        }
        assert!(pending_request.is_none(), "session ends with an unanswered request");
        // `quit` ended the session's connection; stop the server.
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("shutdown"), "ok draining");
        server.join().unwrap();
    });
}

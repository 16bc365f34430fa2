//! The admission-service benchmark: drives the real `migctl serve`
//! binary over TCP and, in a separate traced run, charges the time to
//! the layers by timing calls into their public functions.
//!
//! ```text
//! perfbench --migctl PATH --work DIR --workload steady|cohort|recover|replicated
//!           --seed N --seconds S --trace 0|1 [--selfcheck] [--spans FILE]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--selfcheck`
//! runs the workload at toy size and asserts that the measurement
//! reconciles. `--spans FILE` writes the traced run's spans out as
//! tab-separated rows. See `perfbench/README.md` for every metric and
//! workload.

mod load;
mod rng;
mod server;
mod spec;
mod stats;
mod trace;

use load::{Loadgen, Shape, Tally};
use server::Server;
use spec::{Files, Model, Spec, Workload};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Banner wait for a fresh server, and for a `--recover` of a large store.
const START_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    migctl: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    Ok(Args {
        migctl: PathBuf::from(need("--migctl")?),
        work: PathBuf::from(need("--work")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: need("--trace")? == "1",
        selfcheck: argv.iter().any(|a| a == "--selfcheck"),
        spans: get("--spans").map(PathBuf::from),
    })
}

/// A metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The metrics of one run, whether its checks held, and notes for
/// standard error.
pub struct Report {
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// What one run prints.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !server::realtime(true) {
        eprintln!("perfbench: SCHED_FIFO refused; the load generator runs at normal priority");
    }
    let strays = server::stray_servers();
    if !strays.is_empty() {
        eprintln!(
            "perfbench: refusing to start: `migctl serve` already running (pid {strays:?}); \
             an orphan server would skew every number"
        );
        std::process::exit(3);
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let report = &outcome.report;
    for n in &report.notes {
        eprintln!("perfbench: {n}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(json, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    json.push_str("}}");
    println!("{json}");
    std::process::exit(if report.correct { 0 } else { 1 });
}

/// Per-run paths and inputs.
pub struct Ctx {
    pub migctl: PathBuf,
    pub dir: PathBuf,
    pub spec: Spec,
    pub files: Files,
    pub inputs: [PathBuf; 2],
    pub seed: u64,
    /// Where the traced run writes its spans (`--spans FILE`).
    pub spans_out: Option<PathBuf>,
    counter: std::cell::Cell<usize>,
}

impl Ctx {
    /// A fresh path under the run directory.
    pub fn fresh(&self, what: &str) -> PathBuf {
        let n = self.counter.get();
        self.counter.set(n + 1);
        self.dir.join(format!("{what}-{n}"))
    }

    pub fn spawn(&self, args: &[String]) -> Result<Server, String> {
        Server::spawn(
            &self.migctl,
            &self.inputs,
            &self.files.inventory,
            args,
            &self.fresh("serve.log"),
            START_TIMEOUT,
        )
    }

    /// Flags of the primary for this workload (fresh durable directory
    /// where the workload is durable).
    fn primary_args(&self, dir: &Path) -> Vec<String> {
        let mut a: Vec<String> = Vec::new();
        if self.spec.workload.durable() {
            a.extend(["--durable".into(), dir.display().to_string()]);
            a.extend(["--fsync".into(), "batch".into()]);
        }
        if self.spec.workload == Workload::Replicated {
            a.extend(["--repl-addr".into(), "127.0.0.1:0".into()]);
            a.extend(["--ack".into(), "replica-1".into()]);
        }
        a
    }
}

/// Removes the run directory on every exit path.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up store: the serving processes, the model of their state and
/// the durable directory.
pub struct Store {
    pub primary: Server,
    pub replica: Option<Server>,
    pub model: Model,
    pub dir: PathBuf,
    pub setup_s: f64,
    pub tally: Tally,
    /// Acked `ok` invokes per component that the primary's own
    /// counters cover (a recovered server counts from its restart).
    pub acked_base: Vec<u64>,
}

impl Store {
    pub fn servers(&self) -> Vec<&Server> {
        std::iter::once(&self.primary).chain(self.replica.as_ref()).collect()
    }

    pub fn cpu_s(&self) -> f64 {
        self.servers().iter().map(|s| s.cpu_s()).sum()
    }
}

/// Spawn the workload's servers and load the store over the wire.
/// `recover`: the set-up ends with a kill -9 in the middle of traffic,
/// and the returned primary is already dead.
fn setup(ctx: &Ctx, seed: u64) -> Result<Store, String> {
    let t0 = Instant::now();
    let dir = ctx.fresh("wal");
    let mut primary = ctx.spawn(&ctx.primary_args(&dir))?;
    let mut replica = None;
    if let Some(repl) = primary.repl_addr.clone() {
        let rdir = ctx.fresh("replica-wal");
        replica = Some(ctx.spawn(&[
            "--durable".into(),
            rdir.display().to_string(),
            "--replica-of".into(),
            repl,
        ])?);
        server::wait_stats(primary.addr, Duration::from_secs(30), |s| {
            server::field(s, "replicas") == Some("1")
        })?;
    }
    let mut model = Model::new(&ctx.spec);
    let lists = model.setup_requests();
    let mut gen = Loadgen::connect(primary.addr, seed)?;
    let mut tally = gen.run(&mut model, Shape::Script([&lists[0], &lists[1]]), false)?;
    if ctx.spec.workload == Workload::Recover {
        // Traffic until the kill: incremental checkpoints land behind
        // it, and the kill leaves a WAL tail plus requests in flight.
        let shape = Shape::Closed { window: ctx.spec.window, limit: ctx.spec.crash_ops };
        tally.absorb(gen.run(&mut model, shape, true)?);
        primary.kill();
        let maybe = gen.abandon(&mut model);
        model.in_flight_at_crash = maybe;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let acked_base = vec![0; model.components()];
    Ok(Store { primary, replica, model, dir, setup_s, tally, acked_base })
}

/// Check a `--recover` banner against the model: the object count
/// exactly, and each shard clock between the acked count and the acked
/// count plus the invokes in flight at the crash.
fn check_recovered(server: &Server, model: &Model) -> Result<(), String> {
    let line =
        server.banner.iter().find(|l| l.contains("recovered from")).ok_or("no recovery banner")?;
    let objects: usize = line
        .split(" objects")
        .next()
        .and_then(|h| h.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .ok_or(format!("no object count in `{line}`"))?;
    if objects != model.objects() {
        return Err(format!("recovered {objects} objects, the oracle has {}", model.objects()));
    }
    let clocks: Vec<u64> = line
        .split("now at [")
        .nth(1)
        .and_then(|r| r.split(']').next())
        .map(|l| l.split(',').filter_map(|v| v.trim().parse().ok()).collect())
        .ok_or(format!("no clocks in `{line}`"))?;
    if clocks.len() != model.components() {
        return Err(format!("{} shard clocks in `{line}`", clocks.len()));
    }
    for (c, &clock) in clocks.iter().enumerate() {
        let lo = model.acked[c];
        let hi = lo + model.in_flight_at_crash.get(c).copied().unwrap_or(0);
        if clock < lo || clock > hi {
            return Err(format!("shard {c} recovered at clock {clock}, oracle allows {lo}..={hi}"));
        }
    }
    Ok(())
}

/// Spot-check reads against a recovered server.
fn spot_check(server: &Server, model: &mut Model, seed: u64) -> Result<Tally, String> {
    let mut rng = rng::Rng::new(seed);
    let reads = model.spot_checks(&mut rng, 32);
    let mut d = Loadgen::connect(server.addr, seed)?;
    let half = reads.len() / 2;
    d.run(model, Shape::Script([&reads[..half], &reads[half..]]), false)
}

/// Share of the measured seconds spent in the open loop; the closed
/// loop takes the rest (at the workload's nominal closed-loop rate).
const OPEN_SHARE: f64 = 0.65;
/// The measured seconds alternate open and closed segments this many
/// times, and every metric is a median over windows from all segments:
/// a burst of disk or scheduler noise lasting a few seconds then moves
/// a minority of the windows, not the figure.
const CYCLES: usize = 5;
/// Latency windows per open segment.
const SPLITS: usize = 2;

/// The timed traffic of one run: warm-up, then alternating open- and
/// closed-loop segments.
pub struct Traffic {
    /// Every traffic reply, summed (warm-up included).
    pub tally: Tally,
    /// Per-window invoke latency p50 / p90 / p99 and query p90 / p99, µs.
    pub p50: Vec<f64>,
    pub p90: Vec<f64>,
    pub p99: Vec<f64>,
    pub query_p90: Vec<f64>,
    pub query_p99: Vec<f64>,
    /// Per closed segment: correct replies per second.
    pub goodput: Vec<f64>,
    /// How late the open-loop generator sent, µs.
    pub lag_us: Vec<f64>,
    pub timed_invokes: usize,
    pub timed_queries: usize,
    /// Correct replies during the measured segments.
    pub served: u64,
    /// Server CPU seconds over the measured segments.
    pub cpu_s: f64,
}

fn traffic(ctx: &Ctx, store: &mut Store, seconds: f64) -> Result<Traffic, String> {
    let mut d = Loadgen::connect(store.primary.addr, ctx.seed ^ 0x5eed)?;
    let window = ctx.spec.window;
    // Closed segments run a fixed number of requests, sized from the
    // workload's nominal rate: every run then leaves the same amount of
    // history behind, and the restarts that follow replay the same work.
    let requests = |secs: f64| (ctx.spec.closed_rate * secs).ceil() as u64;
    let warm_secs = (seconds * 0.05).clamp(0.1, 0.5);
    let warm = Shape::Closed { window, limit: requests(warm_secs) };
    let mut tally = d.run(&mut store.model, warm, false)?;
    let mut t = Traffic {
        tally: Tally::default(),
        p50: Vec::new(),
        p90: Vec::new(),
        p99: Vec::new(),
        query_p90: Vec::new(),
        query_p99: Vec::new(),
        goodput: Vec::new(),
        lag_us: Vec::new(),
        timed_invokes: 0,
        timed_queries: 0,
        served: 0,
        cpu_s: 0.0,
    };
    let open_secs = seconds * OPEN_SHARE / CYCLES as f64;
    let closed_secs = seconds * (1.0 - OPEN_SHARE) / CYCLES as f64;
    let cpu0 = store.cpu_s();
    for _ in 0..CYCLES {
        let open = d.run(
            &mut store.model,
            Shape::Open { rate: ctx.spec.open_rate, secs: open_secs },
            false,
        )?;
        let span = open_secs / SPLITS as f64;
        for w in 0..SPLITS {
            let (lo, hi) = (span * w as f64, span * (w + 1) as f64);
            let v: Vec<f64> =
                open.invoke_us.iter().filter(|s| s.0 >= lo && s.0 < hi).map(|s| s.1).collect();
            t.p50.push(quantile(&v, 0.5));
            t.p90.push(quantile(&v, 0.9));
            t.p99.push(quantile(&v, 0.99));
        }
        let q: Vec<f64> = open.query_us.iter().map(|s| s.1).collect();
        t.query_p90.push(quantile(&q, 0.9));
        t.query_p99.push(quantile(&q, 0.99));
        t.timed_invokes += open.invoke_us.len();
        t.timed_queries += q.len();
        t.lag_us.extend_from_slice(&open.lag_us);
        let t0 = Instant::now();
        let closed =
            d.run(&mut store.model, Shape::Closed { window, limit: requests(closed_secs) }, false)?;
        t.goodput.push(closed.correct() as f64 / t0.elapsed().as_secs_f64());
        t.served += open.correct() + closed.correct();
        tally.absorb(open);
        tally.absorb(closed);
    }
    t.cpu_s = store.cpu_s() - cpu0;
    t.tally = tally;
    Ok(t)
}

/// Restart the workload's server `n` times and time spawn → banner:
/// `--recover` over fresh copies of the (crashed) durable directory, or
/// a cold start of a volatile server. Returns the seconds of each and
/// the last server, left running when `keep` is set.
fn restarts(
    ctx: &Ctx,
    store: &mut Store,
    n: usize,
    keep: bool,
) -> Result<(Vec<f64>, Option<Server>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..n {
        let mut s = if ctx.spec.workload.durable() {
            let copy = ctx.fresh("recover-wal");
            server::copy_dir(&store.dir, &copy).map_err(|e| format!("copying the store: {e}"))?;
            let s =
                ctx.spawn(&["--durable".into(), copy.display().to_string(), "--recover".into()])?;
            check_recovered(&s, &store.model)?;
            let t = spot_check(&s, &mut store.model, ctx.seed.wrapping_add(i as u64))?;
            if t.correct() as usize != t.attempted as usize {
                return Err(format!(
                    "recovered store failed {} spot checks: {:?}",
                    t.attempted - t.correct(),
                    t.mismatch_notes
                ));
            }
            s
        } else {
            ctx.spawn(&[])?
        };
        times.push(s.start_s);
        if keep && i + 1 == n {
            last = Some(s);
        } else {
            s.kill();
        }
    }
    Ok((times, last))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let dir = args.work.join(format!(
        "{}-{}-{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _cleanup = Cleanup(dir.clone());
    let result = measure(args, dir.clone());
    if result.is_err() {
        dump_logs(&dir);
    }
    result
}

/// Print the tail of every server log of a failed run.
fn dump_logs(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("serve.log") {
            let text = std::fs::read_to_string(e.path()).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            for l in &lines[lines.len().saturating_sub(12)..] {
                eprintln!("perfbench: [{name}] {l}");
            }
        }
    }
}

fn measure(args: &Args, dir: PathBuf) -> Result<Outcome, String> {
    let mut spec = Spec::new(args.workload, args.selfcheck);
    if args.trace {
        spec.setups = 1;
    }
    let files = spec::files(&spec);
    let inputs = [dir.join("schema.mig"), dir.join("transactions.sl")];
    std::fs::write(&inputs[0], &files.schema).map_err(|e| e.to_string())?;
    std::fs::write(&inputs[1], &files.transactions).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        migctl: args
            .migctl
            .canonicalize()
            .map_err(|e| format!("{}: {e}", args.migctl.display()))?,
        dir,
        spec,
        files,
        inputs,
        seed: args.seed,
        spans_out: args.spans.clone(),
        counter: std::cell::Cell::new(0),
    };
    let seconds = if args.selfcheck { args.seconds.min(2.0) } else { args.seconds };

    // Set-up, several times; the last store serves the timed phases.
    let mut setups = Vec::new();
    let mut store = None;
    for i in 0..ctx.spec.setups {
        let s = setup(&ctx, args.seed.wrapping_mul(31).wrapping_add(i as u64))?;
        setups.push(s.setup_s);
        store = Some(s);
    }
    let mut store = store.ok_or("no set-up ran")?;
    let mut total = Tally::default();
    total.absorb(std::mem::take(&mut store.tally));

    // `recover`: the timed restarts come first; the last recovered
    // server then serves the traffic.
    let mut recover_times = Vec::new();
    if ctx.spec.workload == Workload::Recover {
        let (times, last) = restarts(&ctx, &mut store, ctx.spec.restarts, true)?;
        recover_times = times;
        store.primary = last.ok_or("no recovered server")?;
        store.acked_base = store.model.acked.clone();
    }

    let t = traffic(&ctx, &mut store, seconds)?;
    let stats_line = server::request(store.primary.addr, "stats")?;
    let prom = server::request(store.primary.addr, "stats prom")?;
    let replica_stats = match &store.replica {
        Some(r) => Some(server::request(r.addr, "stats")?),
        None => None,
    };
    let rss_mb = store.servers().iter().map(|s| s.peak_rss_mb()).fold(0.0, f64::max);

    // Reconcile the client's tallies with the server's counters.
    let mut notes = Vec::new();
    let acked_here: u64 = store.model.acked.iter().zip(&store.acked_base).map(|(a, b)| a - b).sum();
    let admitted = server::num(&stats_line, "admitted") as u64;
    let mut reconciled = admitted == acked_here;
    if !reconciled {
        notes.push(format!("server admitted {admitted}, client acked {acked_here}"));
    }
    if let Some(rs) = &replica_stats {
        let shipped = server::num(&stats_line, "shipped");
        let horizon = server::num(rs, "horizon");
        if shipped != horizon {
            reconciled = false;
            notes.push(format!("replica horizon {horizon} behind primary shipped {shipped}"));
        }
    }

    let mut report = if args.trace {
        let replica_stats = replica_stats.as_deref();
        trace::run(&ctx, &mut store, &t, &stats_line, &prom, replica_stats, &recover_times)?
    } else {
        if ctx.spec.workload != Workload::Recover {
            store.primary.kill();
            if let Some(r) = store.replica.as_mut() {
                r.kill();
            }
            recover_times = restarts(&ctx, &mut store, ctx.spec.restarts, false)?.0;
        }
        end_to_end(&t, &setups, &recover_times, rss_mb)
    };
    total.absorb(t.tally);
    notes.append(&mut report.notes);
    notes.extend(total.mismatch_notes.iter().cloned());
    report.notes = notes;
    report.correct &= total.mismatches == 0 && reconciled;
    if args.selfcheck && !report.correct {
        return Err(format!("self-check failed: {:?}", report.notes));
    }
    Ok(Outcome { report, attempted: total.attempted.max(1), failed: total.errors })
}

/// The end-to-end metrics of an untraced run. Only figures that hold
/// still on a shared 2-vCPU host carry a bound: set-up, restart, memory
/// and server CPU per op. The client-visible latencies and goodput go
/// to standard error here and into the traced run's `e2e.*` metrics.
fn end_to_end(t: &Traffic, setups: &[f64], recover_times: &[f64], rss_mb: f64) -> Report {
    let metrics = vec![
        metric("setup_s", median(setups), "s"),
        metric("recover_s", median(recover_times), "s"),
        metric("rss_mb", rss_mb, "MiB"),
        metric("cpu_us_per_op", t.cpu_s * 1e6 / t.served.max(1) as f64, "us"),
    ];
    let show = |v: &[f64]| v.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(" ");
    let notes = vec![
        format!(
            "client view (median over windows): invoke p50 {:.0}us p90 {:.0}us p99 {:.0}us, \
             query p90 {:.0}us p99 {:.0}us, goodput {:.0} ops/s",
            median(&t.p50),
            median(&t.p90),
            median(&t.p99),
            median(&t.query_p90),
            median(&t.query_p99),
            median(&t.goodput)
        ),
        format!(
            "windows: p50 [{}] p90 [{}] p99 [{}] query p90 [{}] goodput [{}]; restarts [{}]s",
            show(&t.p50),
            show(&t.p90),
            show(&t.p99),
            show(&t.query_p90),
            show(&t.goodput),
            recover_times.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "samples: {} timed invokes, {} timed queries; {} set-up(s), {} restart(s); \
             generator lag p99 {:.0}us",
            t.timed_invokes,
            t.timed_queries,
            setups.len(),
            recover_times.len(),
            quantile(&t.lag_us, 0.99)
        ),
    ];
    Report { correct: true, metrics, notes }
}

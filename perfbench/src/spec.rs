//! Workload definitions, the seeded request generator and the reply
//! oracle.
//!
//! Every workload is a schema, a transaction file and an inventory
//! (written to disk and handed to `migctl serve`), plus a stream of
//! wire requests drawn from a seeded generator. The generator keeps a
//! per-key model of each object's role and DFA position, so it knows
//! the outcome of every request it emits: `ok` or `violation` for an
//! `invoke`, the match count for a `query`. Keys are partitioned
//! between the two connections (aligned groups of eight, so a bulk
//! transaction never straddles them) and every inventory is
//! stutter-closed, so the prediction does not depend on how the two
//! connections interleave at the server.

use crate::rng::Rng;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Durable fleet store, single-object toggles: the WAL path.
    Steady,
    /// Volatile ladder inventory with many live cohorts: the engine.
    Cohort,
    /// A large crashed durable store, recovered repeatedly.
    Recover,
    /// `steady`'s traffic through a primary with one ack-gating replica.
    Replicated,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "steady" => Some(Workload::Steady),
            "cohort" => Some(Workload::Cohort),
            "recover" => Some(Workload::Recover),
            "replicated" => Some(Workload::Replicated),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Cohort => "cohort",
            Workload::Recover => "recover",
            Workload::Replicated => "replicated",
        }
    }

    pub fn durable(self) -> bool {
        self != Workload::Cohort
    }

    pub fn fleet(self) -> bool {
        self != Workload::Cohort
    }
}

/// Sizes and traffic shape of one workload run.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Objects in the store after the bulk load.
    pub objects: usize,
    /// Offered rate of the open-loop phase, requests/s over both
    /// connections (Poisson arrivals).
    pub open_rate: f64,
    /// Closed-loop in-flight window per connection.
    pub window: usize,
    /// Nominal closed-loop throughput, requests/s: sizes the closed
    /// segments (a fixed request count each) to their share of the run.
    pub closed_rate: f64,
    /// Share of requests that are invokes the inventory rejects.
    pub violation_share: f64,
    /// Share of requests that are `query` point reads.
    pub read_share: f64,
    /// Server set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Restarts per run; `recover_s` is their median.
    pub restarts: usize,
    /// Closed-loop requests issued before the crash (`recover` only).
    pub crash_ops: u64,
    /// Ladder pairs of the `cohort` inventory.
    pub ladder_pairs: usize,
    /// Highest ladder depth the `cohort` set-up staggers objects to.
    pub stagger_depth: usize,
}

impl Spec {
    pub fn new(workload: Workload, toy: bool) -> Spec {
        let base = Spec {
            workload,
            objects: 100_000,
            open_rate: 6_000.0,
            window: 256,
            closed_rate: 12_000.0,
            violation_share: 0.05,
            read_share: 0.10,
            setups: 3,
            restarts: 5,
            crash_ops: 0,
            ladder_pairs: 32,
            stagger_depth: 24,
        };
        let spec = match workload {
            Workload::Steady => base,
            // A volatile server's restart is a ~5 ms cold start: many
            // of them, so their median holds still.
            Workload::Cohort => Spec {
                objects: 40_000,
                open_rate: 10_000.0,
                closed_rate: 120_000.0,
                violation_share: 0.0,
                restarts: 25,
                ..base
            },
            Workload::Recover => Spec {
                objects: 1_000_000,
                open_rate: 4_000.0,
                closed_rate: 15_000.0,
                setups: 1,
                restarts: 3,
                crash_ops: 20_000,
                ..base
            },
            Workload::Replicated => {
                Spec { objects: 20_000, open_rate: 3_000.0, closed_rate: 11_000.0, ..base }
            }
        };
        if toy {
            Spec {
                objects: 4_000,
                open_rate: spec.open_rate.min(2_000.0),
                setups: 2,
                restarts: 2,
                crash_ops: spec.crash_ops.min(2_000),
                stagger_depth: 4,
                ..spec
            }
        } else {
            spec
        }
    }
}

/// What a reply must say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Ok,
    Violation,
    /// A `query` reply with this match count.
    Count(usize),
}

/// One generated request, dialect-neutral.
#[derive(Clone, Debug)]
pub struct Req {
    /// `Name(a, b)` for invokes, `Class(Attr=value)` for queries.
    pub body: String,
    /// Transaction name (invokes) — empty for queries.
    pub name: &'static str,
    /// Invoke arguments (all bare strings).
    pub args: Vec<String>,
    pub query: bool,
    pub expect: Expect,
    /// Component whose shard clock an `ok` advances.
    pub component: usize,
    /// The key the request touches (model index), for crash bookkeeping.
    pub key: Option<(usize, usize)>,
}

impl Req {
    fn invoke(name: &'static str, args: Vec<String>, expect: Expect, component: usize) -> Req {
        let body = format!("{name}({})", args.join(", "));
        Req { body, name, args, query: false, expect, component, key: None }
    }

    fn read(body: String, count: usize) -> Req {
        Req {
            body,
            name: "",
            args: Vec::new(),
            query: true,
            expect: Expect::Count(count),
            component: 0,
            key: None,
        }
    }

    /// The text-dialect request line (with newline).
    pub fn text_line(&self) -> String {
        if self.query {
            format!("query {}\n", self.body)
        } else {
            format!("invoke {}\n", self.body)
        }
    }

    /// Append the binary-dialect frame of this request to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        use migratory_core::enforce::net::frame;
        if self.query {
            frame::encode_query_frame(out, &self.body);
        } else {
            let values: Vec<migratory_model::Value> =
                self.args.iter().map(|a| migratory_model::Value::str(a)).collect();
            frame::encode_invoke_frame(out, self.name, &values);
        }
    }
}

/// The files `migctl serve` reads.
pub struct Files {
    pub schema: String,
    pub transactions: String,
    pub inventory: String,
}

/// One component of the fleet schema: root class, toggled subclass,
/// key attribute, key prefix, and its three transaction names.
struct Component {
    root: &'static str,
    sub: &'static str,
    key: &'static str,
    prefix: &'static str,
    bulk: &'static str,
    on: &'static str,
    off: &'static str,
}

const FLEET: [Component; 4] = [
    Component {
        root: "TRUCK",
        sub: "IN_SERVICE",
        key: "Vin",
        prefix: "t",
        bulk: "Trucks8",
        on: "Dispatch",
        off: "Park",
    },
    Component {
        root: "DRIVER",
        sub: "ON_SHIFT",
        key: "Badge",
        prefix: "d",
        bulk: "Drivers8",
        on: "StartShift",
        off: "EndShift",
    },
    Component {
        root: "ROUTE",
        sub: "ACTIVE",
        key: "RId",
        prefix: "r",
        bulk: "Routes8",
        on: "Activate",
        off: "Retire",
    },
    Component {
        root: "DEPOT",
        sub: "OPEN",
        key: "DId",
        prefix: "p",
        bulk: "Depots8",
        on: "OpenDepot",
        off: "CloseDepot",
    },
];

/// The ladder schema's single component.
const LADDER: Component = Component {
    root: "PERSON",
    sub: "STUDENT",
    key: "SSN",
    prefix: "s",
    bulk: "People8",
    on: "St",
    off: "UnSt",
};

fn bulk_tx(c: &Component) -> String {
    let params = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let body: Vec<String> =
        params.iter().map(|p| format!("create({}, {{ {} = {p} }});", c.root, c.key)).collect();
    format!("transaction {}({}) {{ {} }}\n", c.bulk, params.join(", "), body.join(" "))
}

fn toggle_tx(c: &Component) -> String {
    format!(
        "transaction {}(x) {{ specialize({}, {}, {{ {} = x }}, {{}}); }}\n\
         transaction {}(x) {{ generalize({}, {{ {} = x }}); }}\n",
        c.on, c.root, c.sub, c.key, c.off, c.sub, c.key
    )
}

/// Build the schema, transaction and inventory files of a workload.
pub fn files(spec: &Spec) -> Files {
    if spec.workload.fleet() {
        let mut schema = String::from("schema Fleet {\n");
        let mut tx = String::new();
        for c in &FLEET {
            schema.push_str(&format!(
                "  class {} {{ {} }}\n  class {} isa {} {{ }}\n",
                c.root, c.key, c.sub, c.root
            ));
            tx.push_str(&bulk_tx(c));
            tx.push_str(&toggle_tx(c));
        }
        // A truck may be scrapped only by leaving the fleet: the
        // inventory has no letter containing SCRAPPED, so every `Scrap`
        // is rejected and rolled back.
        schema.push_str("  class SCRAPPED isa TRUCK { }\n}\n");
        tx.push_str("transaction Scrap(x) { specialize(TRUCK, SCRAPPED, { Vin = x }, {}); }\n");
        Files {
            schema, transactions: tx, inventory: "∅* ([TRUCK] ∪ [IN_SERVICE])* ∅*".to_owned()
        }
    } else {
        let c = &LADDER;
        let schema = format!(
            "schema Ladder {{\n  class {} {{ {} }}\n  class {} isa {} {{ }}\n}}\n",
            c.root, c.key, c.sub, c.root
        );
        let tx = format!("{}{}", bulk_tx(c), toggle_tx(c));
        let mut inventory = String::from("∅* ");
        for _ in 0..spec.ladder_pairs {
            inventory.push_str("[PERSON]+ [STUDENT]+ ");
        }
        inventory.push_str("∅*");
        Files { schema, transactions: tx, inventory }
    }
}

/// Per-key model of the store, shared by set-up and traffic.
///
/// Fleet stores: component 0 (trucks) is small and takes no toggles —
/// it carries the violations (every `Scrap` of a parked truck) and half
/// the reads, so its shard's letter history stays at its set-up length.
/// A violation reply quotes the object's whole pattern, one letter per
/// application its shard ever admitted; on a shard with a long history
/// that reply grows without bound (see `perfbench/README.md`). The
/// toggles, and so the write traffic, go to the three other components.
pub struct Model {
    spec: Spec,
    /// Keys per component.
    pub sizes: Vec<usize>,
    /// Per component, per key: fleet keys hold 0/1 (root/subclass);
    /// ladder keys hold the number of toggles taken so far.
    pub state: Vec<Vec<u32>>,
    /// Keys whose outcome became unknown (in flight at a crash).
    pub uncertain: Vec<Vec<bool>>,
    /// Keys (a prefix of every component) reserved for `query` reads;
    /// traffic never toggles them.
    reserved: Vec<usize>,
    /// Ladder keys parked at the top of the ladder.
    top: usize,
    /// Acknowledged `ok` invokes per component — the shard clocks.
    pub acked: Vec<u64>,
    /// `ok`-expected invokes in flight when the server was killed, per
    /// component: each may or may not have committed.
    pub in_flight_at_crash: Vec<u64>,
}

/// Trucks in a fleet store (a multiple of 16).
const TRUCKS: usize = 1024;

impl Model {
    pub fn new(spec: &Spec) -> Model {
        let round16 = |n: usize| (n / 16).max(1) * 16;
        let sizes: Vec<usize> = if spec.workload.fleet() {
            let trucks = TRUCKS.min(round16(spec.objects / 8));
            let rest = round16((spec.objects - trucks) / 3);
            vec![trucks, rest, rest, rest]
        } else {
            vec![round16(spec.objects)]
        };
        let reserved = sizes.iter().map(|&n| round16((n / 16).clamp(16, 1024))).collect();
        let top = if spec.workload.fleet() { 0 } else { round16((sizes[0] / 64).clamp(16, 256)) };
        let comps = sizes.len();
        Model {
            spec: spec.clone(),
            state: sizes.iter().map(|&n| vec![0; n]).collect(),
            uncertain: sizes.iter().map(|&n| vec![false; n]).collect(),
            sizes,
            reserved,
            top,
            acked: vec![0; comps],
            in_flight_at_crash: vec![0; comps],
        }
    }

    fn comp(&self, c: usize) -> &'static Component {
        if self.spec.workload.fleet() {
            &FLEET[c]
        } else {
            &LADDER
        }
    }

    pub fn components(&self) -> usize {
        self.state.len()
    }

    pub fn objects(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Connection owning key `k` (aligned groups of eight alternate).
    pub fn conn_of(k: usize) -> usize {
        (k / 8) % 2
    }

    fn key(&self, c: usize, k: usize) -> String {
        format!("{}{k}", self.comp(c).prefix)
    }

    /// Most toggles a ladder key may take: 2·pairs − 1 segments.
    fn ladder_limit(&self) -> u32 {
        (2 * self.spec.ladder_pairs - 1) as u32
    }

    /// Components whose keys take toggles.
    fn toggled(&self) -> std::ops::Range<usize> {
        if self.spec.workload.fleet() {
            1..self.components()
        } else {
            0..1
        }
    }

    /// The set-up requests, per connection, in order: bulk creation,
    /// reserved read keys put half into the subclass, and (ladder) the
    /// stagger and the keys parked at the top. Updates the model.
    pub fn setup_requests(&mut self) -> [Vec<Req>; 2] {
        let mut out: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
        for c in 0..self.components() {
            let comp = self.comp(c);
            for g in (0..self.sizes[c]).step_by(8) {
                let args = (g..g + 8).map(|k| self.key(c, k)).collect();
                out[Self::conn_of(g)].push(Req::invoke(comp.bulk, args, Expect::Ok, c));
            }
        }
        for c in 0..self.components() {
            let comp = self.comp(c);
            for k in (0..self.reserved[c]).step_by(2) {
                out[Self::conn_of(k)].push(Req::invoke(
                    comp.on,
                    vec![self.key(c, k)],
                    Expect::Ok,
                    c,
                ));
                self.state[c][k] = 1;
            }
        }
        if !self.spec.workload.fleet() {
            // Stagger: climbers start at depths spread over
            // 0..stagger_depth; the `top` keys climb to the last segment.
            let lo = self.reserved[0];
            let climbers = lo + self.top..self.sizes[0];
            let n = climbers.len();
            let mut steps: Vec<(usize, u32)> = Vec::new();
            for k in lo..lo + self.top {
                steps.push((k, self.ladder_limit()));
            }
            for (i, k) in climbers.enumerate() {
                steps.push((k, ((i * self.spec.stagger_depth) / n) as u32));
            }
            // Interleave depth rounds so one key's toggles are spread
            // over the set-up rather than issued back to back.
            let max = steps.iter().map(|s| s.1).max().unwrap_or(0);
            for round in 0..max {
                for &(k, depth) in &steps {
                    if round < depth {
                        let name =
                            if self.state[0][k].is_multiple_of(2) { LADDER.on } else { LADDER.off };
                        out[Self::conn_of(k)].push(Req::invoke(
                            name,
                            vec![self.key(0, k)],
                            Expect::Ok,
                            0,
                        ));
                        self.state[0][k] += 1;
                    }
                }
            }
        }
        out
    }

    /// A `query` of the subclass for `(c, k)`, with its known count.
    fn query(&self, c: usize, k: usize) -> Req {
        let comp = self.comp(c);
        let count = (self.state[c][k] % 2) as usize;
        Req::read(format!("{}({}={})", comp.sub, comp.key, self.key(c, k)), count)
    }

    /// A read of one reserved key.
    fn read(&self, rng: &mut Rng) -> Req {
        let c = rng.below(self.components().min(2));
        self.query(c, rng.below(self.reserved[c]))
    }

    /// A random key of component `c` owned by `conn` and open to traffic.
    fn traffic_key(&self, rng: &mut Rng, c: usize, conn: usize) -> Option<usize> {
        let lo = self.reserved[c] + if c == 0 { self.top } else { 0 };
        let span = self.sizes[c] - lo;
        let start = rng.below(span);
        // Probe forward from a random start for an owned, usable key.
        (0..span).map(|i| lo + (start + i) % span).find(|&k| {
            Self::conn_of(k) == conn
                && !self.uncertain[c][k]
                && (self.spec.workload.fleet() || self.state[c][k] < self.ladder_limit())
        })
    }

    /// The next traffic request of connection `conn`. `None` when the
    /// ladder has no headroom left on this connection.
    pub fn next(&mut self, rng: &mut Rng, conn: usize) -> Option<Req> {
        let u = rng.unit();
        if u < self.spec.read_share {
            return Some(self.read(rng));
        }
        if u < self.spec.read_share + self.spec.violation_share {
            // Scrapping a parked truck: the inventory has no letter
            // holding SCRAPPED, so the server must reject it.
            let k = self.traffic_key(rng, 0, conn)?;
            let mut r = Req::invoke("Scrap", vec![self.key(0, k)], Expect::Violation, 0);
            r.key = Some((0, k));
            return Some(r);
        }
        let toggled = self.toggled();
        let c = toggled.start + rng.below(toggled.len());
        let k = self.traffic_key(rng, c, conn)?;
        let comp = self.comp(c);
        let on = self.state[c][k].is_multiple_of(2);
        let name = if on { comp.on } else { comp.off };
        self.state[c][k] += 1;
        if self.spec.workload.fleet() {
            self.state[c][k] %= 2;
        }
        let mut r = Req::invoke(name, vec![self.key(c, k)], Expect::Ok, c);
        r.key = Some((c, k));
        Some(r)
    }

    /// Spot-check reads of keys whose state the model knows for sure:
    /// up to `n` random traffic keys plus one reserved key.
    pub fn spot_checks(&self, rng: &mut Rng, n: usize) -> Vec<Req> {
        let mut out = Vec::new();
        let toggled = self.toggled();
        for _ in 0..n {
            let c = toggled.start + rng.below(toggled.len());
            let k = self.reserved[c] + rng.below(self.sizes[c] - self.reserved[c]);
            if !self.uncertain[c][k] {
                out.push(self.query(c, k));
            }
        }
        out.push(self.read(rng));
        out
    }
}

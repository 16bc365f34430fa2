//! Shared randomized generators for the enforcement test suites
//! (`delta_monitor.rs`, `wal_recovery.rs`): random single- and
//! multi-component schemas, random regular inventories over their role
//! alphabets, and random ground SL transactions over a small key pool
//! (collisions intended). Deterministic via the caller's seeded rng.
//! Also [`Reap`], the process guard of the suites that spawn
//! `migctl serve`, and [`spawn_repl_serve`], the primary/replica
//! harness those suites share.
#![allow(dead_code)]

use migratory::automata::Regex;
use migratory::core::{Inventory, RoleAlphabet};
use migratory::lang::{AtomicUpdate, Transaction};
use migratory::model::{Atom, ClassId, Condition, Schema, SchemaBuilder};
use rand::rngs::StdRng;
use rand::RngExt as _;
use std::io::BufRead as _;

/// A random single-component hierarchy: root `C0(K, A)` plus 1–4
/// subclasses, each hanging off a random earlier class and owning one
/// fresh attribute.
pub fn random_schema(rng: &mut StdRng) -> (Schema, Vec<(ClassId, ClassId)>) {
    let mut b = SchemaBuilder::new();
    let root = b.class("C0", &["K", "A"]).expect("fresh root");
    let mut classes = vec![root];
    let mut edges = Vec::new();
    for i in 0..rng.random_range(1usize..5) {
        let parent = classes[rng.random_range(0..classes.len())];
        let attr = format!("X{i}");
        let c = b.subclass(&format!("C{}", i + 1), &[parent], &[&attr]).expect("fresh subclass");
        classes.push(c);
        edges.push((parent, c));
    }
    (b.build().expect("valid hierarchy"), edges)
}

/// A random regular inventory over the component's role alphabet:
/// `Init(·)` of a random regex, intersected with the well-formed shape —
/// always a valid (possibly very restrictive) inventory.
pub fn random_inventory(rng: &mut StdRng, schema: &Schema, alphabet: &RoleAlphabet) -> Inventory {
    fn random_regex(rng: &mut StdRng, syms: u32, depth: usize) -> Regex {
        if depth == 0 || rng.random_range(0u32..4) == 0 {
            return Regex::Sym(rng.random_range(0..syms));
        }
        match rng.random_range(0u32..4) {
            0 => Regex::concat([
                random_regex(rng, syms, depth - 1),
                random_regex(rng, syms, depth - 1),
            ]),
            1 => Regex::union([
                random_regex(rng, syms, depth - 1),
                random_regex(rng, syms, depth - 1),
            ]),
            2 => Regex::star(random_regex(rng, syms, depth - 1)),
            _ => Regex::plus(random_regex(rng, syms, depth - 1)),
        }
    }
    let r = random_regex(rng, alphabet.num_symbols(), 3);
    // Embed in ∅* · r · ∅* half the time so runs have room to breathe.
    let r = if rng.random_range(0u32..2) == 0 {
        Regex::concat([
            Regex::star(Regex::Sym(alphabet.empty_symbol())),
            r,
            Regex::star(Regex::Sym(alphabet.empty_symbol())),
        ])
    } else {
        r
    };
    Inventory::init_of_regex(schema, alphabet, &r).expect("Init(regex) is an inventory")
}

/// A random ground transaction of 1–3 well-formed SL updates over a
/// small key pool (collisions intended).
pub fn random_transaction(
    rng: &mut StdRng,
    schema: &Schema,
    edges: &[(ClassId, ClassId)],
) -> Transaction {
    let root = schema.class_id("C0").expect("root");
    let k = schema.attr_id("K").expect("key attr");
    let a = schema.attr_id("A").expect("root attr");
    let key = |rng: &mut StdRng| format!("k{}", rng.random_range(0u32..4));
    let n_updates = rng.random_range(1usize..4);
    let updates = (0..n_updates)
        .map(|_| match rng.random_range(0u32..5) {
            0 => AtomicUpdate::Create {
                class: root,
                gamma: Condition::from_atoms([Atom::eq_const(k, key(rng)), Atom::eq_const(a, "v")]),
            },
            1 => AtomicUpdate::Delete {
                class: root,
                gamma: Condition::from_atoms([Atom::eq_const(k, key(rng))]),
            },
            2 => AtomicUpdate::Modify {
                class: root,
                select: Condition::from_atoms([Atom::eq_const(k, key(rng))]),
                set: Condition::from_atoms([Atom::eq_const(
                    a,
                    format!("v{}", rng.random_range(0u32..3)),
                )]),
            },
            3 if !edges.is_empty() => {
                let (from, to) = edges[rng.random_range(0..edges.len())];
                let own = schema.attrs_of(to).to_vec();
                AtomicUpdate::Specialize {
                    from,
                    to,
                    select: Condition::from_atoms([Atom::eq_const(k, key(rng))]),
                    set: Condition::from_atoms(
                        own.into_iter().map(|attr| Atom::eq_const(attr, "w")),
                    ),
                }
            }
            _ => {
                let (_, child) = if edges.is_empty() {
                    (root, root)
                } else {
                    edges[rng.random_range(0..edges.len())]
                };
                AtomicUpdate::Generalize {
                    class: child,
                    gamma: Condition::from_atoms([Atom::eq_const(k, key(rng))]),
                }
            }
        })
        .collect();
    Transaction::sl("step", &[], updates)
}

/// Like [`random_schema`], but with 1–3 *extra* weakly-connected
/// components (independent root hierarchies `R1`, `R2`, …), so
/// component routing gets exercised. The returned edges and the
/// transactions below only migrate component-0 objects; extra
/// components contribute create/delete/modify traffic whose role symbol
/// is always ∅ for component 0's alphabet.
pub fn random_multi_schema(rng: &mut StdRng) -> (Schema, Vec<(ClassId, ClassId)>, usize) {
    let mut b = SchemaBuilder::new();
    let root = b.class("C0", &["K", "A"]).expect("fresh root");
    let mut classes = vec![root];
    let mut edges = Vec::new();
    for i in 0..rng.random_range(1usize..4) {
        let parent = classes[rng.random_range(0..classes.len())];
        let attr = format!("X{i}");
        let c = b.subclass(&format!("C{}", i + 1), &[parent], &[&attr]).expect("fresh subclass");
        classes.push(c);
        edges.push((parent, c));
    }
    let extra = rng.random_range(1usize..4);
    for r in 1..=extra {
        b.class(&format!("R{r}"), &[&format!("RK{r}")]).expect("fresh extra root");
    }
    (b.build().expect("valid hierarchy"), edges, extra)
}

/// A random ground transaction that, with probability ~1/4, targets a
/// random extra component instead of component 0.
pub fn random_multi_transaction(
    rng: &mut StdRng,
    schema: &Schema,
    edges: &[(ClassId, ClassId)],
    extra: usize,
) -> Transaction {
    if extra > 0 && rng.random_range(0u32..4) == 0 {
        let r = rng.random_range(1..extra + 1);
        let root = schema.class_id(&format!("R{r}")).expect("extra root");
        let k = schema.attr_id(&format!("RK{r}")).expect("extra key");
        let key = format!("k{}", rng.random_range(0u32..3));
        let update = match rng.random_range(0u32..3) {
            0 => AtomicUpdate::Create {
                class: root,
                gamma: Condition::from_atoms([Atom::eq_const(k, key)]),
            },
            1 => AtomicUpdate::Delete {
                class: root,
                gamma: Condition::from_atoms([Atom::eq_const(k, key)]),
            },
            _ => AtomicUpdate::Modify {
                class: root,
                select: Condition::from_atoms([Atom::eq_const(k, key)]),
                set: Condition::from_atoms([Atom::eq_const(
                    k,
                    format!("k{}", rng.random_range(0u32..3)),
                )]),
            },
        };
        Transaction::sl("other", &[], vec![update])
    } else {
        random_transaction(rng, schema, edges)
    }
}

/// Kills a spawned server when dropped, so a failing assertion never
/// leaks a process.
pub struct Reap(pub std::process::Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The schema, transactions and inventory of the replication suites
/// (`replication.rs`, and the replica rows of `net_serve.rs`).
pub const REPL_SCHEMA: &str = r#"
schema Uni {
  class PERSON { SSN, Name }
  class STUDENT isa PERSON { Major }
}
"#;

pub const REPL_TX: &str = r#"
transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
transaction St(x) { specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS" }); }
transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
transaction Rm(x) { delete(PERSON, { SSN = x }); }
"#;

pub const REPL_INV: &str = "∅* [PERSON]* [STUDENT]* ∅*";

/// Spawn `migctl serve` with replication flags; scrape the client
/// address and (for a primary) the replication address off the banner.
pub fn spawn_repl_serve(
    dir: &std::path::Path,
    extra: &[&str],
) -> (std::process::Child, String, String) {
    let schema = dir.join("uni.mig");
    let tx = dir.join("uni.sl");
    std::fs::write(&schema, REPL_SCHEMA).unwrap();
    std::fs::write(&tx, REPL_TX).unwrap();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_migctl"))
        .arg("serve")
        .arg(&schema)
        .arg(&tx)
        .args(["--inventory", REPL_INV, "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn migctl serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut addr = String::new();
    let mut repl_addr = String::new();
    loop {
        let line = lines.next().expect("serve prints its banner").expect("read stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().expect("an address").to_owned();
            if extra.contains(&"--repl-addr") {
                continue; // the replication banner follows
            }
            break;
        }
        if let Some(rest) = line.split("replicating on ").nth(1) {
            repl_addr = rest.split_whitespace().next().expect("an address").to_owned();
            break;
        }
    }
    std::thread::spawn(move || for _ in lines {});
    (child, addr, repl_addr)
}

//! Runtime enforcement of migration inventories — the paper's motivating
//! application of dynamic constraints ("updates on objects are only
//! allowed if the migration patterns of the objects are within the
//! permissible set", Section 3).
//!
//! A [`ShardedMonitor`] wraps a live database and a regular
//! [`Inventory`](crate::Inventory) and admits a transaction application
//! only if every object's migration pattern — including the
//! never-created objects' all-∅ patterns and the trailing ∅s of deleted
//! objects — stays inside the inventory. Because inventories are
//! prefix-closed (Definition 3.3), checking each prefix as it is
//! produced is exactly the constraint `family(Σ) ⊆ 𝔏` of Definition 3.5
//! restricted to the runs that actually happen.
//!
//! # The delta/cohort engine
//!
//! The engine makes the admit path cost **O(touched + |cohorts|)** per
//! application instead of O(|db| × run-length):
//!
//! * **Apply-then-undo instead of clone.** The transaction is applied in
//!   place through [`migratory_lang::apply_transaction_delta`], which
//!   returns the exact change-set (created / updated / deleted objects
//!   with before-images) plus the information needed to roll the
//!   application back on violation. No whole-`Instance` clone ever
//!   happens.
//! * **Cohort-compressed DFA tracking.** An object untouched by a step
//!   re-reads its current role symbol, so all objects sharing a (DFA
//!   state, last role symbol) pair move *identically*. The monitor groups
//!   them into cohorts and performs one `dfa.step` per cohort per
//!   application — the number of cohorts is bounded by |Q| × |Ω|, not by
//!   the database size. Objects exempted from the enforced family (e.g.
//!   a non-changing step under
//!   [`PatternKind::Proper`](crate::PatternKind::Proper)) collapse into
//!   a single never-checked cohort.
//! * **Run-length-encoded histories.** Per object the monitor stores only
//!   its creation step and the steps at which its role symbol *changed*
//!   (`(letter, from_step)` segments). Full patterns are reconstructed
//!   on demand — for [`ShardedMonitor::pattern_of`] and [`Violation`]
//!   diagnostics — so per-step allocation no longer grows with run
//!   length.
//!
//! Violations are rare and roll back anyway, so the rejection path
//! affords an O(objects) diagnostic scan that replays the step in the
//! reference algorithm's object order; the reported [`Violation`]
//! (object, pattern, letter) is therefore *identical* to the
//! [`ReferenceMonitor`]'s.
//!
//! # One engine, one oracle
//!
//! The engine's state machinery (records, cohorts, staging/commit,
//! diagnostics, **and the letter clock**) lives in the private `delta`
//! submodule and has exactly one front end, [`ShardedMonitor`]. It
//! partitions the object population by weakly-connected role component
//! (oid stripes as fallback), stages participating shards' checks
//! concurrently on scoped threads, and admits whole *batches* of
//! transactions against one cohort sweep per participating shard
//! ([`ShardedMonitor::try_apply_batch`]). Objects evolve independently
//! (Lemma 3.5) and, under a component alphabet, objects of different
//! components never read each other's letters — so every partition
//! carries its **own letter clock** and the shards share *no* mutable
//! state at all: disjoint components stage, commit, checkpoint and
//! recover fully independently. A single-partition monitor is
//! `ShardedMonitor::new(.., 1)`: its one shard-local clock
//! ([`ShardedMonitor::clock`]`(0)`) *is* the paper's global step
//! counter.
//!
//! The pre-optimization algorithm survives, unshared, as
//! [`ReferenceMonitor`] — it re-derives every object's letter from a
//! cloned database each step. It is the oracle: each shard of a
//! [`ShardedMonitor`] is observationally identical to a
//! `ReferenceMonitor` fed exactly the subsequence of applications
//! routed to it, byte-identical [`Violation`]s included.
//!
//! Enforcement is *kind-aware*: under
//! [`PatternKind::Proper`](crate::PatternKind::Proper) a pattern stops
//! being constrained the moment a step leaves its object unchanged (the
//! full pattern can then never be proper), and similarly for
//! [`PatternKind::Lazy`](crate::PatternKind::Lazy) (role set unchanged)
//! and [`PatternKind::ImmediateStart`](crate::PatternKind::ImmediateStart)
//! (first letter ∅). This makes the monitor enforce precisely "every
//! *kind*-pattern of every realized run lies in 𝔏" — sound and complete
//! per run prefix, since every prefix of a run is itself a run.
//!
//! The monitor also implements the paper's punchline for SL: Corollary
//! 3.3 makes `satisfies` decidable, so a schema can be **statically
//! certified** once ([`ShardedMonitor::certify`], single-partition
//! monitors only) and all runtime checks skipped thereafter — the
//! ablation measured by the `enforce` experiment.
//!
//! # Durability and concurrent ingress
//!
//! The paper's migration constraints are histories, so the monitor's
//! tracking state *is* the constraint — two further layers make it
//! survive crashes and concurrent callers:
//!
//! * [`wal`] — a write-ahead log of committed [`Delta`] blocks (each
//!   carrying its participating shards' clock offsets and letter
//!   assignments) plus a checkpoint chain: a full base [`Snapshot`] and
//!   **incremental** [`CheckpointDelta`]s capturing only the dirtied
//!   state, written by a background [`Snapshotter`] so the admission
//!   path pays O(dirty), never the full-snapshot pause. The monitor
//!   accepts a pluggable [`CommitSink`] ([`ShardedMonitor::with_sink`];
//!   no-op when absent) that receives each admitted block *before*
//!   tracking state commits, and recovers from the folded chain + tail
//!   without replaying history ([`ShardedMonitor::recover`]), folding
//!   each shard's sub-log at shard-local granularity — byte-identically,
//!   because every engine structure iterates in canonical order.
//! * [`ingress`] — bounded per-shard admission queues in front of a
//!   [`ShardedMonitor`]: concurrent producers enqueue single
//!   applications, an admission worker drains lanes into
//!   [`ShardedMonitor::try_apply_batch`] blocks (emergent batching,
//!   one group commit per block), violations reject only their own op.
//! * [`net`] — the wire front end: a TCP line-protocol server
//!   (`migctl serve`) mapping each connection onto an ingress
//!   producer, so admission requests arrive from parties that share
//!   nothing with the engine but the protocol (`docs/PROTOCOL.md`).
//!   Acknowledgement on the wire implies the write-ahead append
//!   succeeded; shutdown drains close-and-answer.

// The enforcement stack is the crate's production surface: every public
// item must carry documentation (CI compiles with `-D warnings`).
#![warn(missing_docs)]

mod delta;
pub mod faults;
pub mod health;
pub mod ingress;
pub mod metrics;
pub mod net;
pub mod reference;
pub mod repl;
pub mod sharded;
pub mod wal;

pub use faults::{FaultKind, FaultSite, IoFaults};
pub use health::{CheckpointHealth, Health};
pub use ingress::{Completion, DurabilityPolicy, IngressConfig, IngressStats, ServeOptions};
pub use metrics::{AdmissionMetrics, Histogram};
pub use reference::ReferenceMonitor;
pub use repl::{AckPolicy, ReplicaCtl, Replicator, ShipFault};
pub use sharded::{ShardStats, ShardedMonitor};
pub use wal::{
    BlockRef, CheckpointData, CheckpointDelta, CheckpointJob, CommitSink, Evolution, FsyncPolicy,
    MemoryWal, ShardLetters, Snapshot, Snapshotter, Wal, WalBlock, WalError, WalRecord,
};

use crate::alphabet::RoleAlphabet;
use crate::pattern::MigrationPattern;
use migratory_lang::{
    apply_bulk_creates, apply_transaction_delta, Assignment, Delta, LangError, Transaction,
};
use migratory_model::{Instance, Oid, Schema};
use std::sync::{Arc, Mutex};

/// Transactions with at least this many steps are probed for the
/// create-only bulk-load fast path
/// ([`migratory_lang::apply_bulk_creates`]). Below it, the general
/// interpreter's per-object inserts are cheaper than the bulk path's
/// sorted-merge rebuild of the heap maps (`BTreeMap::append` is
/// O(existing + new) regardless of batch size).
pub(crate) const BULK_APPLY_THRESHOLD: usize = 4096;

/// Apply `t[args]` to `db` and return the exact change-set, routing
/// large create-only transactions through the bulk loader — parallel
/// chunked condition evaluation plus one sorted-merge into the heap and
/// indexes. The produced [`Delta`] (and database post-state) is
/// identical to [`apply_transaction_delta`]'s, so everything downstream
/// (tracking, WAL encoding, rollback) is unaffected by the routing.
pub(crate) fn apply_delta_bulk(
    schema: &Schema,
    db: &mut Instance,
    t: &Transaction,
    args: &Assignment,
) -> Result<Delta, LangError> {
    if t.steps.len() >= BULK_APPLY_THRESHOLD {
        if let Some(bulk) = apply_bulk_creates(schema, db, t, args) {
            return bulk;
        }
    }
    apply_transaction_delta(schema, db, t, args)
}

/// A shared, pluggable commit sink handle (see [`wal::CommitSink`]).
/// `Arc<Mutex<…>>` so a monitor stays cloneable and sharded staging
/// threads can be spawned while the sink is attached; the engines lock
/// it exactly once per admitted block (group commit).
pub type SharedSink = Arc<Mutex<dyn CommitSink>>;

/// When a transaction application contributes a letter to the patterns.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StepPolicy {
    /// Every application is a step (Definition 3.4, the SL semantics).
    #[default]
    EveryApplication,
    /// Only applications that change the database are steps (Definition
    /// 4.6, the CSL semantics — "null" applications are invisible).
    OnlyChanging,
}

/// A rejected application: the object whose pattern would leave the
/// inventory, the offending pattern (including the new letter), and the
/// letter itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The object whose pattern would escape 𝔏, or `None` for the class
    /// of never-created objects (their shared pattern ∅ⁿ must also lie in
    /// the inventory when the kind does not exempt it).
    pub oid: Option<Oid>,
    /// The pattern so far, ending with the offending letter.
    pub pattern: MigrationPattern,
    /// The letter (role-set symbol) that escaped the inventory.
    pub letter: u32,
    /// The constraint epoch the rejection was produced under (0 until
    /// the first [`ShardedMonitor::redefine`]): operators can tell pre-
    /// from post-redefinition rejections apart.
    pub epoch: u64,
}

impl Violation {
    /// Render with role-set names from the alphabet.
    #[must_use]
    pub fn display(&self, alphabet: &RoleAlphabet) -> String {
        self.display_within(alphabet, usize::MAX)
    }

    /// [`Violation::display`] bounded to `max` bytes: when the full
    /// rendering is longer, the middle of the pattern is replaced by an
    /// explicit `… N letters elided …` marker. The first and last
    /// letters (the offending one included) and the `[epoch E]` suffix
    /// are kept; a rendering that fits is returned unchanged.
    #[must_use]
    pub fn display_within(&self, alphabet: &RoleAlphabet, max: usize) -> String {
        let who = match self.oid {
            Some(o) => format!("object o{}", o.0),
            None => "never-created objects".to_owned(),
        };
        let render = |word: &str| {
            format!(
                "{who} would follow the pattern {word} ∉ 𝔏 (offending role set {}) [epoch {}]",
                alphabet.name(self.letter),
                self.epoch,
            )
        };
        let word = alphabet.display_word(&self.pattern);
        let full = render(&word);
        if full.len() <= max {
            return full;
        }
        // Each kept letter costs its name plus one separator; each side
        // gets half of what the fixed text and the widest marker leave.
        let n = self.pattern.len();
        let widest = format!("… {n} letters elided …").len();
        let side = max.saturating_sub(full.len() - word.len() + widest) / 2;
        let names = |iter: &mut dyn Iterator<Item = &u32>| {
            let mut used = 0;
            iter.map(|&l| alphabet.name(l))
                .take_while(|name| {
                    used += name.len() + 1;
                    used <= side
                })
                .collect::<Vec<_>>()
        };
        let head = names(&mut self.pattern.iter());
        let mut tail = names(&mut self.pattern.iter().skip(head.len()).rev());
        tail.reverse();
        let marker = format!("… {} letters elided …", n - head.len() - tail.len());
        let mut parts = head;
        parts.push(&marker);
        parts.extend(tail);
        render(&parts.join(" "))
    }
}

/// Errors raised by [`ShardedMonitor::try_apply`] and
/// [`ReferenceMonitor::try_apply`].
#[derive(Clone, PartialEq, Debug)]
pub enum EnforceError {
    /// The application would violate the inventory; the database is
    /// unchanged.
    Violation(Violation),
    /// The transaction itself failed to apply (arity, validation).
    Lang(LangError),
    /// The attached [`CommitSink`] refused the block: the write-ahead
    /// append failed, so the application was rolled back — the log never
    /// lags the engine. The database and tracking state are unchanged.
    Durability(WalError),
    /// The server is in degraded read-only mode (persistent durability
    /// failure; see [`Health`]): the op was refused *before* any apply,
    /// nothing changed. Carries the reason recorded when the server
    /// degraded. An operator fixes the fault and re-arms (`rearm`).
    Degraded(String),
    /// A [`ShardedMonitor::redefine`] was refused — the new inventory is
    /// invalid for this monitor (alphabet mismatch, a certified monitor,
    /// or some shard's never-created ∅-walk leaves the new language).
    /// Nothing changed; the epoch did not advance.
    Redefine(String),
}

impl std::fmt::Display for EnforceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnforceError::Violation(v) => {
                write!(f, "inventory violation: pattern {:?} escapes 𝔏", v.pattern)
            }
            EnforceError::Lang(e) => write!(f, "{e}"),
            EnforceError::Durability(e) => write!(f, "commit not durable, rolled back: {e}"),
            EnforceError::Degraded(reason) => write!(f, "degraded (read-only): {reason}"),
            EnforceError::Redefine(reason) => write!(f, "redefine refused: {reason}"),
        }
    }
}

/// What happens to **residue** — objects whose consumed history is not
/// provably viable under a redefined inventory (see
/// [`ShardedMonitor::redefine`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ResiduePolicy {
    /// Quarantine: fold residue cohorts into the exempt sink. The
    /// objects stay in the database but are never pattern-checked again;
    /// `stats` counts them as `quarantined_objects`.
    #[default]
    Quarantine,
    /// Certify-and-reset: grandfather the residue's old history and
    /// restart its tracking walk at `δ_new(start, current role)`; only
    /// objects whose restart state is non-accepting fall back to
    /// quarantine.
    CertifyAndReset,
}

impl ResiduePolicy {
    /// Parse the wire token (`quarantine` | `certify-and-reset`).
    pub fn parse(s: &str) -> Result<ResiduePolicy, String> {
        match s {
            "quarantine" => Ok(ResiduePolicy::Quarantine),
            "certify-and-reset" => Ok(ResiduePolicy::CertifyAndReset),
            other => {
                Err(format!("unknown residue policy `{other}` (quarantine|certify-and-reset)"))
            }
        }
    }

    /// The stable wire byte persisted in WAL records and snapshots.
    #[must_use]
    pub fn as_byte(self) -> u8 {
        match self {
            ResiduePolicy::Quarantine => 0,
            ResiduePolicy::CertifyAndReset => 1,
        }
    }

    /// Decode [`ResiduePolicy::as_byte`].
    pub fn from_byte(b: u8) -> Result<ResiduePolicy, String> {
        match b {
            0 => Ok(ResiduePolicy::Quarantine),
            1 => Ok(ResiduePolicy::CertifyAndReset),
            other => Err(format!("unknown residue policy byte {other}")),
        }
    }
}

impl std::fmt::Display for ResiduePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResiduePolicy::Quarantine => "quarantine",
            ResiduePolicy::CertifyAndReset => "certify-and-reset",
        })
    }
}

/// The outcome of an admitted [`ShardedMonitor::redefine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RedefineOutcome {
    /// The new constraint epoch (old epoch + 1).
    pub epoch: u64,
    /// Objects whose consumed history was not provably viable under the
    /// new automaton — handled per [`ResiduePolicy`].
    pub residue: usize,
    /// Of the residue, how many were folded into the exempt quarantine
    /// cohort by this redefinition.
    pub quarantined: usize,
}

impl std::error::Error for EnforceError {}

impl From<LangError> for EnforceError {
    fn from(e: LangError) -> Self {
        EnforceError::Lang(e)
    }
}

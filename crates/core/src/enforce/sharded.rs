//! Sharded, batched concurrent admission with **per-shard letter
//! clocks**.
//!
//! Lemma 3.5 is the paper's parallelism theorem: SL transactions commute
//! with database restriction (`⟦T⟧(d|I) = (⟦T⟧(d))|I`), i.e. objects
//! evolve **independently** — one object's migration pattern never
//! depends on another object's state. Under a component alphabet the
//! independence is total: an object of one weakly-connected role
//! component never reads another component's letters, so there is
//! nothing left for disjoint components to coordinate through — not
//! even a step counter.
//!
//! A [`ShardedMonitor`] exploits exactly that. It keeps one
//! `DeltaState` tracking partition per shard, routed
//!
//! * by the schema's **weakly-connected role components** when it has
//!   more than one — an object's classes stay inside a single component
//!   for its whole life (Definition 2.2), so the route is stable; or
//! * by **oid stripe** (`oid mod shards`) as the fallback for
//!   single-component schemas — equally stable, since identifiers are
//!   minted once and never reused.
//!
//! # Shard-local time
//!
//! Each shard carries its **own letter clock** (`enforce::delta`): a
//! committed block advances only the clocks of the shards whose objects
//! it touches (every shard, under oid striping — stripes split one
//! component, whose objects all read every letter). A shard's run is
//! therefore the subsequence of effective deltas routed to it, in
//! shard-local time, and each shard is observationally identical to a
//! [`ReferenceMonitor`](super::ReferenceMonitor) fed exactly that
//! subsequence — same accept/reject decisions, byte-identical
//! [`Violation`]s, same recorded patterns (the randomized
//! per-shard-oracle suites in `tests/delta_monitor.rs` check this).
//! Disjoint components stage, commit, checkpoint and recover fully
//! independently; there is no global step counter left to contend on,
//! only a derived [`ShardedMonitor::clocks`] view. With one shard the
//! monitor is the single-partition engine, whose clock is the paper's
//! global step counter; only such a monitor can be statically certified
//! ([`ShardedMonitor::certify`]).
//!
//! Admission stages every participating shard *read-only* —
//! concurrently on [`std::thread::scope`] threads when the host has
//! more than one processor — and commits only after all shards accept,
//! so a rejected application never leaks tracking state.
//!
//! # Batch admission
//!
//! [`ShardedMonitor::try_apply_batch`] validates a whole block of
//! transactions against **one cohort sweep per participating shard**:
//! untouched cohorts are advanced `k_s` DFA letters in a single pass
//! (sound because inventories are prefix-closed, so reachable
//! non-accepting states are traps and endpoint checks subsume
//! intermediate ones), while touched objects replay their exact
//! interleaving of touch and gap steps. On a violation the batch rolls
//! back and replays sequentially, which keeps the
//! longest-conforming-prefix semantics and the per-shard-reference
//! [`Violation`] diagnostics.

use super::delta::{diagnose_step, BatchCtx, BatchStage, DeltaState, DiagParams, EXEMPT};
use super::wal::{self, BlockRef, CheckpointDelta, ShardLetters, Snapshot, WalError, WalRecord};
use super::{EnforceError, RedefineOutcome, ResiduePolicy, SharedSink, StepPolicy, Violation};
use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use crate::inventory::Inventory;
use crate::pattern::{MigrationPattern, PatternKind};
use migratory_lang::{
    apply_transaction, Assignment, Delta, LangError, ObjectDelta, Transaction, TransactionSchema,
};
use migratory_model::{Instance, Oid, Schema};
use std::collections::BTreeMap;

/// Why an admission block did not commit.
enum AdmitFail {
    /// Some letter violates the inventory (diagnose + roll back).
    Violation,
    /// The commit sink refused the block (roll back, nothing logged or
    /// tracked).
    Sink(WalError),
}

/// How objects are assigned to shards.
#[derive(Clone, Debug)]
enum Router {
    /// One stable shard per weakly-connected role component (components
    /// beyond the shard count wrap around round-robin).
    Component { shard_of: Vec<usize> },
    /// `oid mod n` striping — the fallback when the schema has a single
    /// component.
    OidStripe { n: u64 },
}

/// Point-in-time statistics of one shard (see
/// [`ShardedMonitor::shard_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard's letter clock (letters its objects have read).
    pub clock: usize,
    /// Objects tracked by this shard (live and deleted).
    pub tracked_objects: usize,
    /// Live non-exempt cohorts (distinct (DFA state, role) pairs).
    pub live_cohorts: usize,
    /// Objects folded into the exempt sink.
    pub exempt_objects: usize,
    /// Touched objects of the last admitted application or batch.
    pub last_touched: usize,
}

/// A database guarded by a migration inventory, with admission tracking
/// sharded across independent object partitions — each on its own
/// letter clock — and a batch API.
///
/// Each shard is observationally identical to a
/// [`ReferenceMonitor`](super::ReferenceMonitor) fed the subsequence of
/// effective applications routed to it (same accept/reject decisions,
/// byte-identical [`Violation`]s, same patterns in shard-local time).
/// `shards = 1` is the single-partition monitor.
///
/// ```
/// use migratory_core::enforce::ShardedMonitor;
/// use migratory_core::{Inventory, PatternKind, RoleAlphabet};
/// use migratory_lang::{parse_transactions, Assignment};
/// use migratory_model::{schema::university_schema, Value};
///
/// let s = university_schema();
/// let a = RoleAlphabet::new(&s, 0).unwrap();
/// let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* ∅*").unwrap();
/// let ts = parse_transactions(&s, r#"
///     transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
///     transaction St(x) {
///       specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
///     }
/// "#).unwrap();
/// let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 4);
/// let script: Vec<_> = (0..8)
///     .map(|i| (ts.get("Mk").unwrap(), Assignment::new(vec![Value::str(&format!("{i}"))])))
///     .collect();
/// let batch: Vec<_> = script.iter().map(|(t, a)| (*t, a)).collect();
/// let (committed, err) = m.try_apply_batch(batch);
/// assert_eq!((committed, err), (8, None));
/// assert_eq!(m.db().num_objects(), 8);
/// ```
#[derive(Clone)]
pub struct ShardedMonitor<'a> {
    schema: &'a Schema,
    alphabet: &'a RoleAlphabet,
    /// Owned: [`ShardedMonitor::redefine`] swaps it under a live
    /// monitor.
    inventory: Inventory,
    /// The constructor's (epoch-0) inventory — what a from-scratch
    /// replay of the durable image starts from
    /// ([`ShardedMonitor::resync`]).
    base_inventory: Inventory,
    kind: PatternKind,
    policy: StepPolicy,
    /// Constraint-evolution epoch: 0 until the first redefinition, +1
    /// per admitted [`ShardedMonitor::redefine`].
    epoch: u64,
    /// Admitted redefinitions, cumulative.
    redefine_total: u64,
    /// Objects quarantined by redefinitions, cumulative.
    quarantined_total: u64,
    db: Instance,
    /// The tracking partitions — each with its **own letter clock**;
    /// no shared counter exists.
    shards: Vec<DeltaState>,
    router: Router,
    /// Where committed blocks are logged before tracking state is
    /// written (`None`: volatile monitor).
    sink: Option<SharedSink>,
    /// Stage shards on scoped threads (off when the host has one
    /// processor — the batch amortization still applies, the thread
    /// hand-off cost does not).
    parallel: bool,
    /// Statically certified ([`ShardedMonitor::certify`]): admission
    /// skips every runtime check. Only a one-shard monitor certifies.
    certified: bool,
    /// Shard 0's clock when certification succeeded — the horizon at
    /// which pattern tracking froze.
    certified_at: Option<usize>,
}

impl<'a> ShardedMonitor<'a> {
    /// A sharded monitor over the empty database. `shards` is the
    /// requested partition count: schemas with several weakly-connected
    /// components are routed by component (capped at the component
    /// count); single-component schemas fall back to oid striping with
    /// exactly `shards` stripes.
    #[must_use]
    pub fn new(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
        shards: usize,
    ) -> ShardedMonitor<'a> {
        let requested = shards.max(1);
        let components = schema.num_components();
        let (router, n) = if components > 1 {
            let n = requested.min(components);
            (Router::Component { shard_of: (0..components).map(|c| c % n).collect() }, n)
        } else {
            (Router::OidStripe { n: requested as u64 }, requested)
        };
        let start = inventory.dfa().start();
        // ∅ⁿ never starts with a non-∅ letter.
        let pre_exempt = kind == PatternKind::ImmediateStart;
        ShardedMonitor {
            schema,
            alphabet,
            inventory: inventory.clone(),
            base_inventory: inventory.clone(),
            kind,
            policy: StepPolicy::default(),
            epoch: 0,
            redefine_total: 0,
            quarantined_total: 0,
            db: Instance::empty(),
            shards: (0..n).map(|_| DeltaState::new(start, pre_exempt)).collect(),
            router,
            sink: None,
            parallel: n > 1
                && std::thread::available_parallelism().map_or(1, std::num::NonZero::get) > 1,
            certified: false,
            certified_at: None,
        }
    }

    /// Choose when applications contribute letters (default:
    /// [`StepPolicy::EveryApplication`]).
    #[must_use]
    pub fn with_policy(mut self, policy: StepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Force staging on scoped threads on or off (defaults to on exactly
    /// when the host has more than one processor and there is more than
    /// one shard).
    #[must_use]
    pub fn with_parallel_staging(mut self, parallel: bool) -> Self {
        self.parallel = parallel && self.shards.len() > 1;
        self
    }

    /// Attach a [`CommitSink`](super::CommitSink): every admitted block
    /// is appended *before* any shard's tracking state commits
    /// (write-ahead, one record per block — group commit), and a sink
    /// failure rolls the whole block back
    /// ([`EnforceError::Durability`]).
    #[must_use]
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Swap the commit sink in place, returning the previous one.
    /// [`super::ingress::run`], handed a WAL, installs its staging sink
    /// for the duration of a serve and restores the caller's sink on
    /// exit.
    pub(crate) fn set_sink(&mut self, sink: Option<SharedSink>) -> Option<SharedSink> {
        std::mem::replace(&mut self.sink, sink)
    }

    /// The current database.
    #[must_use]
    pub fn db(&self) -> &Instance {
        &self.db
    }

    /// One shard's letter clock: the number of effective letters its
    /// objects have read, in shard-local time.
    ///
    /// # Panics
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn clock(&self, shard: usize) -> usize {
        self.shards[shard].steps
    }

    /// Every shard's letter clock. Under oid striping the stripes
    /// advance in lockstep (they split one component, whose objects all
    /// read every letter); under component routing the clocks are fully
    /// independent.
    #[must_use]
    pub fn clocks(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.steps).collect()
    }

    /// Sum of the per-shard letter clocks — a monotone progress
    /// measure. (A delta spanning several components counts once per
    /// participating shard; disjoint-component workloads have none.)
    #[must_use]
    pub fn letters_read(&self) -> usize {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard tracking statistics.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardStats {
                shard,
                clock: s.steps,
                tracked_objects: s.records.len(),
                live_cohorts: s.by_key.len(),
                exempt_objects: s.cohorts[EXEMPT as usize].size,
                last_touched: s.last_touched,
            })
            .collect()
    }

    /// The recorded pattern of an object (present once it has occurred
    /// in the database; absent when tracking never saw it, e.g. objects
    /// created after certification), reconstructed from its shard's
    /// run-length encoding through that shard's **own** clock. After a
    /// mid-run [`ShardedMonitor::certify`] patterns are frozen at the
    /// certification point.
    #[must_use]
    pub fn pattern_of(&self, o: Oid) -> Option<MigrationPattern> {
        self.shards.iter().find_map(|s| {
            // Records stop advancing once certified: clamp the
            // reconstruction horizon so certified steps do not
            // fabricate repeat letters.
            let horizon = self.certified_at.unwrap_or(s.steps);
            s.records.get(&o).map(|r| r.pattern_through(self.alphabet.empty_symbol(), horizon))
        })
    }

    /// Whether the monitor runs in the certified fast path.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.certified
    }

    /// Statically certify an SL transaction schema against the inventory
    /// (Corollary 3.3). On success the monitor skips all per-object
    /// runtime checks: no application of certified transactions can ever
    /// produce a pattern outside 𝔏. Returns whether `ts` certifies; errs
    /// on non-SL schemas, where the problem is undecidable (Corollary
    /// 4.7).
    ///
    /// Only a one-shard monitor certifies: the write-ahead
    /// [`WalRecord::Certified`] marker carries a single letter clock, so
    /// a monitor with more shards is refused with
    /// [`CoreError::CertifyShards`] before anything is decided or
    /// logged.
    ///
    /// Certification is **one-way**: once a monitor is certified, pattern
    /// tracking stops and later `certify` calls only report the new
    /// schema's verdict without re-enabling checks (the tracking state
    /// would be stale). Enforce a different, non-certifying schema with a
    /// fresh monitor.
    pub fn certify(&mut self, ts: &TransactionSchema) -> Result<bool, CoreError> {
        if self.shards.len() != 1 {
            return Err(CoreError::CertifyShards(self.shards.len()));
        }
        let decision =
            crate::decide::decide(self.schema, self.alphabet, ts, &self.inventory, self.kind)?;
        let holds = decision.satisfies.holds();
        if holds && !self.certified {
            // Certification freezes tracking, so a durable monitor must
            // record the event — recovery would otherwise replay
            // unchecked post-certification blocks through the tracker.
            // Write-ahead: if the marker cannot be logged, certification
            // does not take effect.
            let at = self.shards[0].steps;
            self.log_ahead(|sink| sink.certified(at))
                .map_err(|e| CoreError::Durability(e.to_string()))?;
            self.certified = true;
            self.certified_at = Some(at);
        }
        Ok(holds)
    }

    /// The shard an object is routed to. Stable across the object's
    /// lifetime: components never change (Definition 2.2) and oids are
    /// never reused.
    fn route(&self, od: &ObjectDelta) -> usize {
        match &self.router {
            Router::Component { shard_of } => {
                let cs = match &od.before {
                    Some((cs, _)) => *cs,
                    None => od.after_classes().expect("routed objects occur before or after"),
                };
                let c = cs.first().expect("memberships are non-empty");
                shard_of[self.schema.component_of(c) as usize]
            }
            Router::OidStripe { n } => (od.oid.0 % n) as usize,
        }
    }

    /// The shard a transaction's letter lands on when its delta touches
    /// no tracked object (an empty-selection or blip-only application
    /// under [`StepPolicy::EveryApplication`]): the shard of the first
    /// class the transaction names — the same rule
    /// `enforce::ingress` uses to pick a lane.
    fn fallback_shard(&self, t: &Transaction) -> usize {
        let Router::Component { shard_of } = &self.router else { return 0 };
        match t.first_named_class() {
            Some(c) => shard_of[self.schema.component_of(c) as usize],
            None => 0,
        }
    }

    /// Apply `t[args]`, committing only if no enforced pattern leaves
    /// the inventory. On violation the database is unchanged and the
    /// first offending object (in the shard-reference ascending-oid
    /// order) is reported.
    pub fn try_apply(&mut self, t: &Transaction, args: &Assignment) -> Result<(), EnforceError> {
        if self.certified {
            return self.apply_certified(&[(t, args)]).1.map_or(Ok(()), Err);
        }
        let delta = self.apply_delta(t, args)?;
        if self.policy == StepPolicy::OnlyChanging && delta.is_identity() {
            // Null application (Definition 4.6): no letter, nothing to
            // undo.
            return Ok(());
        }
        let fallback = self.fallback_shard(t);
        match self.admit_effective(&[(fallback, &delta)]) {
            Ok(()) => Ok(()),
            Err(AdmitFail::Violation) => {
                let v = self.diagnose_violation(&delta, fallback);
                delta.undo(&mut self.db);
                Err(EnforceError::Violation(v))
            }
            Err(AdmitFail::Sink(e)) => {
                delta.undo(&mut self.db);
                Err(EnforceError::Durability(e))
            }
        }
    }

    /// Apply `t[args]` to the database and return its exact change-set,
    /// routing transactions above [`super::BULK_APPLY_THRESHOLD`]
    /// create-only steps through the bulk loader (see
    /// [`super::apply_delta_bulk`]). The delta — and everything
    /// downstream of it (tracking, WAL encoding, rollback) — is
    /// identical either way.
    fn apply_delta(&mut self, t: &Transaction, args: &Assignment) -> Result<Delta, LangError> {
        super::apply_delta_bulk(self.schema, &mut self.db, t, args)
    }

    /// Apply a whole sequence one by one, stopping at the first
    /// rejection; returns how many applications committed.
    pub fn try_apply_all<'t>(
        &mut self,
        steps: impl IntoIterator<Item = (&'t Transaction, &'t Assignment)>,
    ) -> (usize, Option<EnforceError>) {
        let mut done = 0;
        for (t, args) in steps {
            match self.try_apply(t, args) {
                Ok(()) => done += 1,
                Err(e) => return (done, Some(e)),
            }
        }
        (done, None)
    }

    /// Admit a block of transactions against **one cohort sweep per
    /// participating shard**. Semantics are identical to
    /// [`Self::try_apply_all`] — the longest conforming prefix commits,
    /// and the return value is the committed count plus the error that
    /// stopped the batch (if any) — but the conforming fast path
    /// validates each shard's letters in a single staged pass. On a
    /// violation the whole block rolls back and is replayed
    /// sequentially for exact prefix semantics and byte-identical
    /// diagnostics; rejecting batches therefore cost one extra staged
    /// pass over the conforming prefix.
    pub fn try_apply_batch<'t>(
        &mut self,
        batch: impl IntoIterator<Item = (&'t Transaction, &'t Assignment)>,
    ) -> (usize, Option<EnforceError>) {
        let items: Vec<(&Transaction, &Assignment)> = batch.into_iter().collect();
        if self.certified {
            return self.apply_certified(&items);
        }
        // Optimistic in-place application; a failing transaction leaves
        // the database untouched, so the applied prefix stays validatable.
        let mut deltas: Vec<Delta> = Vec::with_capacity(items.len());
        let mut lang_err: Option<EnforceError> = None;
        for (t, args) in &items {
            match self.apply_delta(t, args) {
                Ok(d) => deltas.push(d),
                Err(e) => {
                    lang_err = Some(e.into());
                    break;
                }
            }
        }
        let applied = deltas.len();
        let effective: Vec<(usize, &Delta)> = deltas
            .iter()
            .zip(&items)
            .filter(|(d, _)| !(self.policy == StepPolicy::OnlyChanging && d.is_identity()))
            .map(|(d, (t, _))| (self.fallback_shard(t), d))
            .collect();
        if effective.is_empty() {
            return (applied, lang_err);
        }
        match self.admit_effective(&effective) {
            Ok(()) => (applied, lang_err),
            Err(AdmitFail::Violation) => {
                // Some letter in the block violates: roll the whole
                // block back and fall back to sequential admission of
                // the applied prefix.
                for d in deltas.iter().rev() {
                    d.undo(&mut self.db);
                }
                let (done, err) = self.try_apply_all(items[..applied].iter().copied());
                (done, err.or(lang_err))
            }
            Err(AdmitFail::Sink(e)) => {
                // The log refused the block: nothing commits — with a
                // failing sink a sequential replay could not make any
                // application durable either.
                for d in deltas.iter().rev() {
                    d.undo(&mut self.db);
                }
                (0, Some(EnforceError::Durability(e)))
            }
        }
    }

    /// The certified fast path (Corollary 3.3) behind
    /// [`Self::try_apply`] and [`Self::try_apply_batch`]: no checks run
    /// and tracking stays frozen; the clock still counts every
    /// application. Without a sink the applications skip change capture
    /// entirely — the raw interpreter cost is all that remains. A durable
    /// monitor still captures the deltas and logs them as one block
    /// (rolled back whole if the sink refuses it), and marks the touched
    /// objects dirty for the next incremental checkpoint. Semantics as
    /// the checked batch: the longest prefix before a failing
    /// transaction commits. Certification implies one shard.
    fn apply_certified(
        &mut self,
        items: &[(&Transaction, &Assignment)],
    ) -> (usize, Option<EnforceError>) {
        if self.sink.is_none() {
            let mut done = 0;
            let mut err = None;
            for (t, args) in items {
                if let Err(e) = apply_transaction(self.schema, &mut self.db, t, args) {
                    err = Some(e.into());
                    break;
                }
                done += 1;
            }
            self.shards[0].steps += done;
            return (done, err);
        }
        let mut deltas: Vec<Delta> = Vec::with_capacity(items.len());
        let mut lang_err: Option<EnforceError> = None;
        for (t, args) in items {
            match self.apply_delta(t, args) {
                Ok(d) => deltas.push(d),
                Err(e) => {
                    lang_err = Some(e.into());
                    break;
                }
            }
        }
        if deltas.is_empty() {
            return (0, lang_err);
        }
        let shards = [ShardLetters {
            shard: 0,
            steps0: self.shards[0].steps,
            letters: (0..deltas.len() as u32).collect(),
        }];
        let refs: Vec<&Delta> = deltas.iter().collect();
        let logged =
            self.log_ahead(|sink| sink.committed(&BlockRef { deltas: &refs, shards: &shards }));
        if let Err(e) = logged {
            for d in deltas.iter().rev() {
                d.undo(&mut self.db);
            }
            return (0, Some(EnforceError::Durability(e)));
        }
        let state = &mut self.shards[0];
        state.steps += deltas.len();
        for d in &deltas {
            state.dirty.extend(d.objects().iter().map(|od| od.oid));
        }
        (deltas.len(), lang_err)
    }

    /// Redefine the inventory online: swap in `new_inventory`
    /// atomically across **every** shard (the automaton is global —
    /// each partition's cohorts are re-keyed under the new DFA), at
    /// whatever point each shard's own letter clock has reached.
    ///
    /// The viability of consumed history is decided per *cohort*, never
    /// per object: a product construction walks the old DFA × new DFA
    /// over every path the old DFA certifies
    /// (`delta::viability_map`, computed once); a cohort is viable iff
    /// all enforced histories ending in its old state land in exactly
    /// one accepting new state. Viable cohorts remap wholesale; the
    /// residue is quarantined or reset per `policy`. Total cost
    /// O(|Q_old| × |Q_new| × |Σ| + |cohorts|) — independent of the
    /// database size.
    ///
    /// Every shard's never-created walk is checked *before* any shard
    /// mutates, and the [`WalRecord::Redefined`] record (carrying every
    /// shard's clock) is written **ahead** of the swap; a refusal or
    /// sink failure leaves the old inventory in force on all shards.
    /// Refused (with [`EnforceError::Redefine`]) on a certified monitor
    /// (tracking is frozen), on an alphabet mismatch, and when some
    /// shard's never-created ∅-walk leaves the new language while still
    /// enforced.
    pub fn redefine(
        &mut self,
        new_inventory: &Inventory,
        policy: ResiduePolicy,
    ) -> Result<RedefineOutcome, EnforceError> {
        if self.certified {
            return Err(EnforceError::Redefine(
                "monitor is certified: tracking is frozen, redefine needs a fresh monitor".into(),
            ));
        }
        let new_dfa = new_inventory.dfa();
        if new_dfa.num_symbols() != self.alphabet.num_symbols() {
            return Err(EnforceError::Redefine(format!(
                "inventory alphabet has {} symbols, monitor's has {}",
                new_dfa.num_symbols(),
                self.alphabet.num_symbols()
            )));
        }
        let empty = self.alphabet.empty_symbol();
        let fates = super::delta::viability_map(self.inventory.dfa(), new_dfa);
        // All-shards-or-nothing: every shard's ∅ walk must survive the
        // new automaton before any shard is touched.
        let mut pre_walks = Vec::with_capacity(self.shards.len());
        let multi = self.shards.len() > 1;
        for (i, state) in self.shards.iter().enumerate() {
            let pre = state.redefine_pre_walk(new_dfa, empty).map_err(|steps| {
                let at = if multi { format!("shard {i}: ") } else { String::new() };
                EnforceError::Redefine(format!(
                    "{at}the never-created class's pattern ∅^{steps} leaves the new inventory"
                ))
            })?;
            pre_walks.push(pre);
        }
        // Write-ahead: one record with every shard's clock at the swap
        // instant reaches the log before any tracking state moves.
        self.log_ahead(|sink| {
            let clocks: Vec<(u32, usize)> =
                self.shards.iter().enumerate().map(|(i, s)| (i as u32, s.steps)).collect();
            sink.redefined(self.epoch + 1, policy, &clocks, &new_inventory.encode())
        })
        .map_err(EnforceError::Durability)?;
        let reset = policy == ResiduePolicy::CertifyAndReset;
        let (mut residue, mut quarantined) = (0usize, 0usize);
        for (state, new_pre) in self.shards.iter_mut().zip(pre_walks) {
            let (r, q) = state.apply_redefine(&fates, new_dfa, new_pre, reset);
            residue += r;
            quarantined += q;
        }
        self.inventory = new_inventory.clone();
        self.epoch += 1;
        self.redefine_total += 1;
        self.quarantined_total += quarantined as u64;
        Ok(RedefineOutcome { epoch: self.epoch, residue, quarantined })
    }

    /// Per-shard letter assignment of an effective block: which shards
    /// participate in each delta, and each touched object's
    /// **shard-local** letter index. A delta is a letter for the shards
    /// of the tracked objects it touches (its fallback shard when it
    /// touches none); under oid striping every stripe reads every
    /// letter — the stripes split one component.
    #[allow(clippy::type_complexity)]
    fn assign_letters<'d>(
        &self,
        effective: &[(usize, &'d Delta)],
    ) -> (Vec<Vec<u32>>, Vec<BTreeMap<Oid, Vec<(usize, &'d ObjectDelta)>>>) {
        let n = self.shards.len();
        let mut letters: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut touched: Vec<BTreeMap<Oid, Vec<(usize, &ObjectDelta)>>> = vec![BTreeMap::new(); n];
        let stripe = matches!(self.router, Router::OidStripe { .. });
        let mut participating: Vec<usize> = Vec::new();
        for (j, (fallback, d)) in effective.iter().enumerate() {
            participating.clear();
            if stripe {
                participating.extend(0..n);
            } else {
                for od in d.objects() {
                    if super::delta::tracked(od) {
                        let s = self.route(od);
                        if !participating.contains(&s) {
                            participating.push(s);
                        }
                    }
                }
                if participating.is_empty() {
                    participating.push(*fallback);
                }
            }
            for &s in &participating {
                letters[s].push(j as u32);
            }
            for od in d.objects() {
                if super::delta::tracked(od) {
                    let s = self.route(od);
                    touched[s].entry(od.oid).or_default().push((letters[s].len(), od));
                }
            }
        }
        (letters, touched)
    }

    /// Validate an effective block across its participating shards —
    /// each from its **own letter clock** — append the block to the
    /// sink (if any), and commit if every enforced pattern stays inside
    /// the inventory. `Err` leaves monitor state (but not the database)
    /// untouched.
    fn admit_effective(&mut self, effective: &[(usize, &Delta)]) -> Result<(), AdmitFail> {
        // A lone all-creations letter above the bulk threshold takes the
        // bulk-staging path: same participation rule, same WAL record,
        // byte-identical tracking state, no per-object touched map.
        if let [(fallback, d)] = *effective {
            if d.objects().len() >= super::BULK_APPLY_THRESHOLD
                && d.objects().iter().all(ObjectDelta::created)
            {
                return self.admit_bulk_creates(fallback, d);
            }
        }
        let (letters, touched) = self.assign_letters(effective);
        // A shard participates iff the block has letters for it (the
        // staged pass includes the shard's never-created ∅ walk).
        let inputs =
            touched.iter().zip(&letters).map(|(t, l)| (!l.is_empty()).then_some((t, l.len())));
        let stages = self
            .stage_shards(inputs, |state, ctx, (touched, k)| state.stage_batch(ctx, k, touched))?;
        self.log_and_commit(effective, stages, |s| letters[s].clone(), DeltaState::commit_batch)
    }

    /// Stage every participating shard read-only from its `inputs`
    /// entry — concurrently on scoped threads when parallel staging is
    /// on ([`Self::with_parallel_staging`]). A `None` input marks a
    /// shard that does not participate: it stays untouched and its
    /// clock does not move. Any shard's refusal fails the whole block.
    fn stage_shards<I: Send, S: Send>(
        &self,
        inputs: impl Iterator<Item = Option<I>>,
        stage: impl Fn(&DeltaState, &BatchCtx<'_>, I) -> Result<S, ()> + Sync,
    ) -> Result<Vec<Option<S>>, AdmitFail> {
        let ctx = BatchCtx {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
        };
        let mut staged: Vec<Result<Option<S>, ()>> = self.shards.iter().map(|_| Ok(None)).collect();
        let jobs = self.shards.iter().zip(inputs).zip(staged.iter_mut());
        if self.parallel {
            std::thread::scope(|scope| {
                for ((state, input), slot) in jobs {
                    let Some(input) = input else { continue };
                    let (ctx, stage) = (&ctx, &stage);
                    scope.spawn(move || *slot = stage(state, ctx, input).map(Some));
                }
            });
        } else {
            for ((state, input), slot) in jobs {
                if let Some(input) = input {
                    *slot = stage(state, &ctx, input).map(Some);
                }
            }
        }
        staged.into_iter().collect::<Result<_, _>>().map_err(|()| AdmitFail::Violation)
    }

    /// Write-ahead, then commit, a block every participating shard
    /// staged as admissible: log it as one record (group commit)
    /// carrying each participating shard's clock and `letters`, and
    /// only then write the staged moves (each commit advances its
    /// shard's clock).
    fn log_and_commit<S>(
        &mut self,
        effective: &[(usize, &Delta)],
        stages: Vec<Option<S>>,
        letters: impl Fn(usize) -> Vec<u32>,
        commit: impl Fn(&mut DeltaState, S),
    ) -> Result<(), AdmitFail> {
        self.log_ahead(|sink| {
            let shards: Vec<ShardLetters> = (0..stages.len())
                .filter(|&s| stages[s].is_some())
                .map(|s| ShardLetters {
                    shard: s as u32,
                    steps0: self.shards[s].steps,
                    letters: letters(s),
                })
                .collect();
            let deltas: Vec<&Delta> = effective.iter().map(|&(_, d)| d).collect();
            sink.committed(&BlockRef { deltas: &deltas, shards: &shards })
        })
        .map_err(AdmitFail::Sink)?;
        for (state, stage) in self.shards.iter_mut().zip(stages) {
            if let Some(stage) = stage {
                commit(state, stage);
            }
        }
        Ok(())
    }

    /// Write-ahead through the commit sink, if one is attached: `write`
    /// runs on the locked sink before any tracking state moves. Poison
    /// tolerance: a sink panic on another thread must read as a
    /// durability failure (rollback, retry/degrade policy), not cascade
    /// into an admission-worker panic.
    fn log_ahead<E>(
        &self,
        write: impl FnOnce(&mut dyn wal::CommitSink) -> Result<(), E>,
    ) -> Result<(), E> {
        match &self.sink {
            Some(sink) => {
                write(&mut *sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            }
            None => Ok(()),
        }
    }

    /// Bulk-creation admission of one all-creations letter: partition
    /// the created objects per shard (ascending oid order is preserved),
    /// stage each participating shard through
    /// [`DeltaState::stage_bulk_creates`] — concurrently when it pays —
    /// log the block, and commit. Produces the same WAL record and the
    /// same per-shard tracking state as the generic
    /// [`Self::admit_effective`] path, byte for byte.
    fn admit_bulk_creates(&mut self, fallback: usize, d: &Delta) -> Result<(), AdmitFail> {
        let n = self.shards.len();
        let mut routed: Vec<Vec<&ObjectDelta>> = vec![Vec::new(); n];
        for od in d.objects() {
            routed[self.route(od)].push(od);
        }
        // Under oid striping every stripe reads every letter; under
        // component routing only the shards of the touched objects do
        // (the fallback shard when the delta somehow touches none).
        let participating: Vec<bool> = match &self.router {
            Router::OidStripe { .. } => vec![true; n],
            Router::Component { .. } => {
                let mut p: Vec<bool> = routed.iter().map(|r| !r.is_empty()).collect();
                if !p.contains(&true) {
                    p[fallback] = true;
                }
                p
            }
        };
        let inputs = routed.iter().zip(&participating).map(|(r, &p)| p.then_some(r));
        let stages = self.stage_shards(inputs, |state, ctx, routed| {
            state.stage_bulk_creates(ctx, routed.iter().copied())
        })?;
        self.log_and_commit(&[(fallback, d)], stages, |_| vec![0], DeltaState::commit_bulk_creates)
    }

    /// Rejection diagnostics for a single application: for each
    /// participating shard (ascending), check its never-created class
    /// first, then replay the letter over the participating shards'
    /// records merged in ascending oid order — exactly the scan a
    /// reference monitor fed this shard's sub-run would make, so the
    /// reported [`Violation`] is byte-identical to it.
    fn diagnose_violation(&self, delta: &Delta, fallback: usize) -> Violation {
        let dfa = self.inventory.dfa();
        let empty = self.alphabet.empty_symbol();
        let (letters, _) = self.assign_letters(&[(fallback, delta)]);
        for (s, l) in letters.iter().enumerate() {
            if l.is_empty() {
                continue;
            }
            let st = &self.shards[s];
            let pre = super::delta::never_created_walk(
                dfa,
                empty,
                self.kind,
                st.pre_state,
                st.pre_exempt,
                st.steps,
                1,
            );
            if pre.violation_at.is_some() {
                return Violation {
                    oid: None,
                    pattern: vec![empty; st.steps + 1],
                    letter: empty,
                    epoch: self.epoch,
                };
            }
        }
        let mut merged: BTreeMap<Oid, (usize, &super::delta::ObjRecord)> = BTreeMap::new();
        for (i, state) in self.shards.iter().enumerate() {
            if letters[i].is_empty() {
                continue; // shard reads no letter: its objects are not checked
            }
            for (&o, rec) in &state.records {
                merged.insert(o, (i, rec));
            }
        }
        let params = DiagParams {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa,
            kind: self.kind,
            epoch: self.epoch,
        };
        diagnose_step(
            &params,
            merged.iter().map(|(&o, &(i, rec))| {
                let state = &self.shards[i];
                let root = state.find_ro(rec.cohort);
                (o, rec, root == EXEMPT, state.cohorts[root as usize].state, state.steps + 1)
            }),
            |od| {
                let st = &self.shards[self.route(od)];
                (st.pre_state, st.pre_exempt, st.steps + 1)
            },
            delta,
        )
    }

    /// Whether this monitor routes objects by weakly-connected role
    /// component (as opposed to the oid-stripe fallback).
    #[must_use]
    pub fn routes_by_component(&self) -> bool {
        matches!(self.router, Router::Component { .. })
    }

    /// The schema this monitor enforces over.
    #[must_use]
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The role alphabet patterns are spelled in (what renders a
    /// [`Violation`] via [`Violation::display`]).
    #[must_use]
    pub fn alphabet(&self) -> &'a RoleAlphabet {
        self.alphabet
    }

    /// The enforced inventory (the current epoch's automaton).
    #[must_use]
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// The constraint-evolution epoch: 0 until the first redefinition.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Admitted redefinitions, cumulative.
    #[must_use]
    pub fn redefine_total(&self) -> u64 {
        self.redefine_total
    }

    /// Objects quarantined by redefinitions, cumulative.
    #[must_use]
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined_total
    }

    /// The enforced pattern family.
    #[must_use]
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// The letter-contribution policy.
    #[must_use]
    pub fn policy(&self) -> StepPolicy {
        self.policy
    }

    /// The component → shard table of a component-routed monitor
    /// (`None` under oid striping). The ingress front end aligns its
    /// admission lanes with this.
    pub(crate) fn component_lanes(&self) -> Option<&[usize]> {
        match &self.router {
            Router::Component { shard_of } => Some(shard_of),
            Router::OidStripe { .. } => None,
        }
    }

    // -----------------------------------------------------------------
    // Durability: snapshot + recovery (see [`wal`](super::wal))
    // -----------------------------------------------------------------

    /// Checkpoint the database heap and every shard's tracking state
    /// (each with its own letter clock). Canonical: equal monitor
    /// states yield equal [`Snapshot::encode`] bytes.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            policy: self.policy,
            certified: self.certified,
            certified_at: self.certified_at,
            evolution: self.evolution(),
            db: self.db.clone(),
            shards: self.shards.clone(),
        }
    }

    /// The constraint-evolution state a checkpoint carries.
    fn evolution(&self) -> wal::Evolution {
        wal::Evolution {
            epoch: self.epoch,
            redefine_total: self.redefine_total,
            quarantined_total: self.quarantined_total,
            inventory: Some(self.inventory.encode()),
        }
    }

    /// Capture a **full checkpoint** and reset the incremental dirty
    /// tracking: the returned snapshot covers everything, so the next
    /// [`ShardedMonitor::checkpoint_delta`] captures only changes made
    /// from here on. Prefer this over [`ShardedMonitor::snapshot`] (a
    /// pure observation that leaves the dirty sets alone) when the
    /// snapshot will be written as a base checkpoint.
    pub fn checkpoint_full(&mut self) -> Snapshot {
        let snap = self.snapshot();
        for s in &mut self.shards {
            s.dirty.clear();
            s.all_dirty = false;
        }
        snap
    }

    /// Capture an **incremental checkpoint**: the objects and tracking
    /// records dirtied since the last capture (or recovery), each
    /// shard's cohort tables and letter clock — O(dirty), never O(db).
    /// Drains the dirty sets: the caller must make the returned
    /// increment durable (or fall back to a full
    /// [`ShardedMonitor::checkpoint_full`]) before capturing again, or
    /// the chain loses these changes.
    pub fn checkpoint_delta(&mut self) -> CheckpointDelta {
        let evolution = self.evolution();
        wal::capture_delta(
            &self.db,
            &mut self.shards,
            self.policy,
            self.certified,
            self.certified_at,
            evolution,
        )
    }

    /// Undo a [`ShardedMonitor::checkpoint_delta`] whose increment could
    /// **not** be made durable (checkpoint staging failed): re-mark the
    /// increment's oids (from [`CheckpointDelta::oids`], captured before
    /// staging — tombstones included) and flip every shard fully dirty,
    /// so the next capture re-covers everything the lost delta held.
    /// Without this, a later successful checkpoint would prune WAL
    /// segments whose effects live in no delta — silent data loss on
    /// recovery. One full-record capture is the price of a failed
    /// staging, not of the steady state.
    pub fn restore_dirty(&mut self, oids: &[Oid]) {
        // Any shard's dirty set works for the object table: captures
        // read the (global) database by oid; per-shard records ride on
        // `all_dirty` below.
        if let Some(s) = self.shards.first_mut() {
            s.dirty.extend(oids.iter().copied());
        }
        for s in &mut self.shards {
            s.all_dirty = true;
        }
    }

    /// Rebuild a sharded monitor from a checkpoint (the folded chain —
    /// see [`wal::Wal::load`]) plus the WAL tail written after it,
    /// without replaying history. `shards` must request the same
    /// partitioning the snapshot was taken under (the router is
    /// re-derived from the schema; the snapshot carries one tracking
    /// state per shard). Each tail block folds **per shard at
    /// shard-local granularity**: a shard whose clock (from the
    /// checkpoint) is already past the block skips it, a shard at
    /// exactly the block's offset replays its letters with one cohort
    /// sweep — so the recovered tracking state is byte-identical to the
    /// uncrashed monitor's, and a crash between a checkpoint and its
    /// log pruning can never double-apply a record. A certified
    /// checkpoint, or a [`WalRecord::Certified`] marker in the tail,
    /// freezes tracking exactly where the crashed monitor froze it. The
    /// recovered monitor has no sink attached.
    pub fn recover(
        schema: &'a Schema,
        alphabet: &'a RoleAlphabet,
        inventory: &Inventory,
        kind: PatternKind,
        shards: usize,
        snapshot: Option<Snapshot>,
        tail: impl IntoIterator<Item = WalRecord>,
    ) -> Result<ShardedMonitor<'a>, WalError> {
        let mut m = Self::new(schema, alphabet, inventory, kind, shards);
        if let Some(snap) = snapshot {
            let Snapshot { policy, certified, certified_at, evolution, db, shards: states } = snap;
            if states.len() != m.shards.len() {
                return Err(WalError::Mismatch(format!(
                    "snapshot has {} shards, this monitor partitions into {}",
                    states.len(),
                    m.shards.len()
                )));
            }
            m.db = db;
            m.shards = states;
            m.policy = policy;
            m.certified = certified;
            m.certified_at = certified_at;
            // Pre-v3 snapshots carry no inventory: the constructor's
            // inventory (epoch 0) stays in force.
            if let Some(bytes) = &evolution.inventory {
                m.inventory = Inventory::decode(alphabet, bytes).map_err(|e| {
                    WalError::Mismatch(format!("snapshot inventory does not decode: {e}"))
                })?;
            }
            m.epoch = evolution.epoch;
            m.redefine_total = evolution.redefine_total;
            m.quarantined_total = evolution.quarantined_total;
        }
        for record in tail {
            m.replay_record(record)?;
        }
        Ok(m)
    }

    /// Fold **one** logged (or shipped) record into this monitor: the
    /// per-record semantics of [`ShardedMonitor::recover`], exposed as a
    /// method so a streaming consumer — the replication puller folding a
    /// primary's shipped records into a hot standby — shares the exact
    /// crash-recovery fold. Returns `Ok(true)` when the record applied,
    /// `Ok(false)` when it was already covered (a shard clock or epoch
    /// behind this monitor's — re-delivery after a reconnect is
    /// idempotent, nothing double-applies), and `Err` on a clock **gap**
    /// (the stream skipped a record this monitor never saw) or a record
    /// that cannot belong to this history.
    ///
    /// When a sink is attached (a standby writing its own write-ahead
    /// log), an applied block is written through it ahead of tracking —
    /// the standby's log carries the same records as the primary's — and
    /// an applied redefinition writes through inside
    /// [`ShardedMonitor::redefine`] itself.
    pub fn replay_record(&mut self, record: WalRecord) -> Result<bool, WalError> {
        let block = match record {
            WalRecord::Block(b) => b,
            WalRecord::Certified { steps } => {
                let [state] = self.shards.as_slice() else {
                    return Err(WalError::Mismatch(format!(
                        "certification marker in the log of a {}-shard monitor",
                        self.shards.len()
                    )));
                };
                let at = state.steps;
                if steps < at {
                    return Ok(false); // the checkpoint chain carries it
                }
                if steps > at {
                    return Err(WalError::Mismatch(format!(
                        "wal gap: certification at letter {steps}, monitor is at {at}"
                    )));
                }
                if self.certified {
                    return Ok(false);
                }
                self.log_ahead(|sink| sink.certified(steps))?;
                self.certified = true;
                self.certified_at = Some(steps);
                return Ok(true);
            }
            WalRecord::Redefined { epoch, policy, shards, inventory } => {
                if epoch <= self.epoch {
                    return Ok(false); // covered by the checkpoint chain
                }
                if epoch != self.epoch + 1 {
                    return Err(WalError::Mismatch(format!(
                        "wal gap: redefinition to epoch {epoch}, monitor is at {}",
                        self.epoch
                    )));
                }
                if shards.len() != self.shards.len() {
                    return Err(WalError::Mismatch(format!(
                        "redefinition names {} shards, this monitor partitions into {}",
                        shards.len(),
                        self.shards.len()
                    )));
                }
                for &(sh, at) in &shards {
                    let Some(state) = self.shards.get(sh as usize) else {
                        return Err(WalError::Mismatch(format!(
                            "redefinition names shard {sh} of {}",
                            self.shards.len()
                        )));
                    };
                    if at != state.steps {
                        return Err(WalError::Mismatch(format!(
                            "wal gap: redefinition at shard {sh} letter {at}, \
                                 shard is at {}",
                            state.steps
                        )));
                    }
                }
                let new_inv = Inventory::decode(self.alphabet, &inventory)
                    .map_err(|e| WalError::Mismatch(format!("redefine record inventory: {e}")))?;
                // Deterministic replay: same viability map, same
                // per-shard split. With a sink attached the marker is
                // re-logged write-ahead (the standby's own log);
                // without one — recovery — nothing is re-logged.
                self.redefine(&new_inv, policy).map_err(|e| {
                    WalError::Mismatch(format!("logged redefinition does not admit: {e}"))
                })?;
                return Ok(true);
            }
        };
        if block.deltas.is_empty() || block.shards.is_empty() {
            return Ok(false);
        }
        // Per-shard fold: compare each participating shard's logged
        // clock offset against its recovered clock.
        let (mut skips, mut replays) = (0usize, 0usize);
        for sl in &block.shards {
            let Some(state) = self.shards.get(sl.shard as usize) else {
                return Err(WalError::Mismatch(format!(
                    "logged block names shard {} of {}",
                    sl.shard,
                    self.shards.len()
                )));
            };
            match sl.steps0.cmp(&state.steps) {
                std::cmp::Ordering::Less => skips += 1,
                std::cmp::Ordering::Equal => replays += 1,
                std::cmp::Ordering::Greater => {
                    return Err(WalError::Mismatch(format!(
                        "wal gap: shard {} block starts at letter {}, shard is at {}",
                        sl.shard, sl.steps0, state.steps
                    )))
                }
            }
        }
        if skips > 0 && replays > 0 {
            // Checkpoints capture all shards at one commit boundary,
            // so a block is folded for all its shards or none.
            return Err(WalError::Mismatch(
                "logged block is half-folded into the checkpoint".into(),
            ));
        }
        if replays == 0 {
            return Ok(false); // fully covered by the checkpoint chain
        }
        // Write-ahead on the standby: the shipped record reaches this
        // monitor's own log before tracking state moves, so the
        // standby's durable image replays byte-identically.
        self.log_ahead(|sink| {
            let deltas: Vec<&Delta> = block.deltas.iter().collect();
            sink.committed(&BlockRef { deltas: &deltas, shards: &block.shards })
        })?;
        for d in &block.deltas {
            d.redo(&mut self.db);
        }
        self.replay_block(&block)?;
        Ok(true)
    }

    /// Rebuild **this** monitor's database and tracking state from a
    /// durable image ([`Wal::load`](super::Wal::load) output), in
    /// place — [`ShardedMonitor::recover`] as a method, preserving the
    /// router, staging mode and attached sink. The pipelined ingress
    /// calls this after a durability failure dropped appended-but-
    /// unsynced blocks: tracking state that ran ahead of the truncated
    /// log must be wound back to exactly the durable prefix, or the
    /// next logged block would leave an unrecoverable per-shard clock
    /// gap. On `Err` the monitor is unchanged.
    pub fn resync(
        &mut self,
        snapshot: Option<Snapshot>,
        tail: impl IntoIterator<Item = WalRecord>,
    ) -> Result<(), WalError> {
        let had_snapshot = snapshot.is_some();
        let fresh = Self::recover(
            self.schema,
            self.alphabet,
            &self.base_inventory,
            self.kind,
            self.shards.len(),
            snapshot,
            tail,
        )?;
        self.db = fresh.db;
        self.shards = fresh.shards;
        self.certified = fresh.certified;
        self.certified_at = fresh.certified_at;
        self.inventory = fresh.inventory;
        self.epoch = fresh.epoch;
        self.redefine_total = fresh.redefine_total;
        self.quarantined_total = fresh.quarantined_total;
        if had_snapshot {
            // No checkpoint yet: keep the configured policy (recovery
            // from the empty monitor cannot know it).
            self.policy = fresh.policy;
        }
        Ok(())
    }

    /// Replay one logged block's tracking work: rebuild each
    /// participating shard's touched map in shard-local letter indices
    /// from the record's letter assignment, stage, and commit.
    /// Admission already proved the block admissible, so a failing
    /// stage (or a letter assignment that disagrees with routing) means
    /// the log and snapshot do not belong together. A certified monitor
    /// logged its blocks without tracking, and replay mirrors that: the
    /// clock advances and the touched objects dirty the next incremental
    /// checkpoint (their heap state changed).
    fn replay_block(&mut self, block: &wal::WalBlock) -> Result<(), WalError> {
        if self.certified {
            let state = &mut self.shards[0];
            for sl in &block.shards {
                state.steps += sl.letters.len();
            }
            for d in &block.deltas {
                state.dirty.extend(d.objects().iter().map(|od| od.oid));
            }
            return Ok(());
        }
        // (delta index → shard-local letter index) per shard.
        let mut local: Vec<BTreeMap<u32, usize>> = vec![BTreeMap::new(); self.shards.len()];
        for sl in &block.shards {
            for (pos, &j) in sl.letters.iter().enumerate() {
                if j as usize >= block.deltas.len() {
                    return Err(WalError::Mismatch("letter index out of range".into()));
                }
                local[sl.shard as usize].insert(j, pos + 1);
            }
        }
        let mut touched: Vec<BTreeMap<Oid, Vec<(usize, &ObjectDelta)>>> =
            vec![BTreeMap::new(); self.shards.len()];
        for (j, d) in block.deltas.iter().enumerate() {
            for od in d.objects() {
                if !super::delta::tracked(od) {
                    continue;
                }
                let s = self.route(od);
                let Some(&lj) = local[s].get(&(j as u32)) else {
                    return Err(WalError::Mismatch(
                        "logged letter assignment disagrees with object routing".into(),
                    ));
                };
                touched[s].entry(od.oid).or_default().push((lj, od));
            }
        }
        let ctx = BatchCtx {
            schema: self.schema,
            alphabet: self.alphabet,
            dfa: self.inventory.dfa(),
            kind: self.kind,
        };
        let mut stages: Vec<(usize, BatchStage)> = Vec::with_capacity(block.shards.len());
        for sl in &block.shards {
            let s = sl.shard as usize;
            let stage = self.shards[s]
                .stage_batch(&ctx, sl.letters.len(), &touched[s])
                .map_err(|()| WalError::Mismatch("logged block does not admit".into()))?;
            stages.push((s, stage));
        }
        for (s, stage) in stages {
            self.shards[s].commit_batch(stage);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::delta::{touched_map, EXEMPT};
    use super::super::{MemoryWal, ReferenceMonitor, BULK_APPLY_THRESHOLD};
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use migratory_lang::{parse_transactions, TransactionSchema};
    use migratory_model::schema::university_schema;
    use migratory_model::{RoleSet, SchemaBuilder, Value};
    use std::sync::{Arc, Mutex};

    fn setup() -> (Schema, RoleAlphabet) {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        (s, a)
    }

    fn uni_transactions(s: &Schema) -> TransactionSchema {
        parse_transactions(
            s,
            r#"
            transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
            transaction Nm(x, n) { modify(PERSON, { SSN = x }, { Name = n }); }
            transaction St(x) {
              specialize(PERSON, STUDENT, { SSN = x }, { Major = "CS", FirstEnroll = 1 });
            }
            transaction Emp(x) {
              specialize(PERSON, EMPLOYEE, { SSN = x }, { Salary = 1, WorksIn = "D" });
            }
            transaction UnSt(x) { generalize(STUDENT, { SSN = x }); }
            transaction Rm(x) { delete(PERSON, { SSN = x }); }
        "#,
        )
        .unwrap()
    }

    /// Example 3.4's schema: characterizes Init(∅*([S]+[G]*)*∅*), so it
    /// certifies against `∅* [STUDENT]* ∅*`.
    fn certifiable_transactions(s: &Schema) -> TransactionSchema {
        parse_transactions(
            s,
            r#"
            transaction T1(n, sv, t, mj) {
              create(PERSON, { SSN = sv, Name = n });
              specialize(PERSON, STUDENT, { SSN = sv },
                         { Major = mj, FirstEnroll = t });
            }
            transaction T4(sv) { delete(PERSON, { SSN = sv }); }
        "#,
        )
        .unwrap()
    }

    fn t1_args(k: &str) -> Assignment {
        Assignment::new(vec![Value::str("ann"), Value::str(k), Value::int(1990), Value::str("CS")])
    }

    fn arg(v: &str) -> Assignment {
        Assignment::new(vec![Value::str(v)])
    }

    #[test]
    fn sharded_matches_single_engine_on_scripted_run() {
        // Single-component schema: oid striping, every stripe reads
        // every letter — the stripes advance in lockstep with the
        // reference engine's global clock.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv =
            crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let script: Vec<(&str, &str)> = vec![
            ("Mk", "1"),
            ("Mk", "2"),
            ("St", "1"),
            ("St", "2"),
            ("UnSt", "1"),
            ("St", "1"), // violates: [P][S][P][S]
            ("Rm", "2"),
        ];
        for shards in [1usize, 2, 3, 5] {
            for parallel in [false, true] {
                let mut sharded = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, shards)
                    .with_parallel_staging(parallel);
                let mut single = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
                for (name, key) in &script {
                    let t = ts.get(name).unwrap();
                    let args = arg(key);
                    assert_eq!(
                        sharded.try_apply(t, &args),
                        single.try_apply(t, &args),
                        "decision diverged at {name}({key}), {shards} shards"
                    );
                    assert_eq!(sharded.db(), single.db());
                    for c in sharded.clocks() {
                        assert_eq!(c, single.steps(), "stripes advance in lockstep");
                    }
                }
                for o in 1..=3u64 {
                    assert_eq!(sharded.pattern_of(Oid(o)), single.pattern_of(Oid(o)));
                }
                assert_eq!(sharded.num_shards(), shards);
                assert!(!sharded.routes_by_component(), "university is one component");
            }
        }
    }

    #[test]
    fn batch_commits_longest_prefix_with_reference_violation() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv =
            crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let script = [("Mk", "1"), ("St", "1"), ("UnSt", "1"), ("St", "1"), ("Mk", "2")];
        let assigns: Vec<Assignment> = script.iter().map(|(_, k)| arg(k)).collect();
        let batch: Vec<(&Transaction, &Assignment)> = script
            .iter()
            .zip(&assigns)
            .map(|((name, _), args)| (ts.get(name).unwrap(), args))
            .collect();

        let mut sharded = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2);
        let (done, err) = sharded.try_apply_batch(batch.clone());
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        let (odone, oerr) = oracle.try_apply_all(batch);
        assert_eq!(done, odone);
        assert_eq!(done, 3, "the re-specialize violates; Mk(2) is never attempted");
        assert_eq!(err, oerr, "byte-identical violation");
        assert_eq!(sharded.db(), oracle.db());
        assert_eq!(sharded.clocks(), vec![3, 3]);
        assert!(!sharded.db().occurs(Oid(2)), "Mk(2) was not attempted after the rejection");

        // The conforming remainder still admits as a batch afterwards.
        let more = [("Rm", "1"), ("Mk", "9")];
        let massigns: Vec<Assignment> = more.iter().map(|(_, k)| arg(k)).collect();
        let mbatch: Vec<(&Transaction, &Assignment)> = more
            .iter()
            .zip(&massigns)
            .map(|((name, _), args)| (ts.get(name).unwrap(), args))
            .collect();
        let (done2, err2) = sharded.try_apply_batch(mbatch);
        assert_eq!((done2, err2), (2, None));
        assert_eq!(sharded.clocks(), vec![5, 5]);
    }

    #[test]
    fn batch_of_noops_under_only_changing_emits_no_letter() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = crate::Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2)
            .with_policy(StepPolicy::OnlyChanging);
        let mk = ts.get("Mk").unwrap();
        let rm = ts.get("Rm").unwrap();
        let a1 = arg("1");
        let miss = arg("zzz");
        let batch: Vec<(&Transaction, &Assignment)> =
            vec![(rm, &miss), (mk, &a1), (rm, &miss), (rm, &miss)];
        let (done, err) = m.try_apply_batch(batch);
        assert_eq!((done, err), (4, None));
        assert_eq!(m.clocks(), vec![1, 1], "three null applications contributed no letter");
    }

    #[test]
    fn multi_component_schema_routes_by_component_with_independent_clocks() {
        // Four independent hierarchies → four shards, one per
        // component, each on its own letter clock: a shard behaves
        // exactly like a reference monitor fed only its component's
        // applications.
        let mut b = SchemaBuilder::new();
        for r in 0..4 {
            let root = b.class(&format!("R{r}"), &[&format!("K{r}")]).unwrap();
            b.subclass(&format!("S{r}"), &[root], &[]).unwrap();
        }
        let s = b.build().unwrap();
        assert_eq!(s.num_components(), 4);
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let inv = crate::Inventory::parse_init(&s, &a, "∅* ([R0] ∪ [S0])* ∅*").unwrap();
        let ts = parse_transactions(
            &s,
            r"
            transaction Mk0(x) { create(R0, { K0 = x }); }
            transaction Mk1(x) { create(R1, { K1 = x }); }
            transaction Mk2(x) { create(R2, { K2 = x }); }
            transaction Mk3(x) { create(R3, { K3 = x }); }
        ",
        )
        .unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 8);
        assert!(m.routes_by_component());
        assert_eq!(m.num_shards(), 4, "capped at the component count");
        // One per-component oracle, each fed only its component's
        // applications — the sub-run a shard's clock counts.
        let mut oracles: Vec<ReferenceMonitor<'_>> =
            (0..4).map(|_| ReferenceMonitor::new(&s, &a, &inv, PatternKind::All)).collect();
        for i in 0..12 {
            let c = i % 4;
            let t = ts.get(&format!("Mk{c}")).unwrap();
            let args = arg(&format!("k{i}"));
            assert_eq!(m.try_apply(t, &args), oracles[c].try_apply(t, &args));
        }
        assert_eq!(m.clocks(), vec![3, 3, 3, 3], "each component read only its own letters");
        let stats = m.shard_stats();
        assert_eq!(stats.len(), 4);
        for st in &stats {
            assert_eq!(
                st.tracked_objects, 3,
                "objects spread evenly across component shards: {stats:?}"
            );
        }
        for o in 1..=12u64 {
            // Lemma 3.5's restriction bijection: the sharded run minted
            // o as the ((o−1)/4 + 1)-th object of component (o−1) % 4,
            // which is that oracle's local oid.
            let c = ((o - 1) % 4) as usize;
            let local = (o - 1) / 4 + 1;
            assert_eq!(
                m.pattern_of(Oid(o)),
                oracles[c].pattern_of(Oid(local)),
                "o{o}'s shard-local pattern must match component {c}'s oracle o{local}"
            );
        }
    }

    #[test]
    fn admits_conforming_run_and_rejects_violation() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let x = arg("1");
        m.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        m.try_apply(ts.get("St").unwrap(), &x).unwrap();
        m.try_apply(ts.get("UnSt").unwrap(), &x).unwrap();
        // Re-specializing to STUDENT breaks [P]*[S]*[P]*:
        let err = m.try_apply(ts.get("St").unwrap(), &x).unwrap_err();
        match err {
            EnforceError::Violation(v) => {
                assert_eq!(v.oid, Some(Oid(1)));
                assert_eq!(v.pattern.len(), 4);
                assert!(v.display(&a).contains("o1"));
            }
            other => panic!("unexpected {other}"),
        }
        // Rolled back: the object is still a plain person, 3 letters.
        assert_eq!(m.clock(0), 3);
        assert_eq!(m.pattern_of(Oid(1)).unwrap().len(), 3, "the rejected letter was not recorded");
        // The run can continue down a permitted branch.
        m.try_apply(ts.get("Rm").unwrap(), &x).unwrap();
        assert_eq!(m.db().num_objects(), 0);
    }

    #[test]
    fn bulk_create_staging_matches_generic_staging() {
        // The bulk-load fast path must produce tracking state *equal* to
        // the generic `stage_batch`/`commit_batch` path — WAL replay runs
        // the generic path and recovery compares snapshot bytes.
        use migratory_lang::{apply_transaction_delta, AtomicUpdate};
        use migratory_model::{Atom, Condition};
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let person = s.class_id("PERSON").unwrap();
        let student = s.class_id("STUDENT").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        // Mixed classes: the bulk stage must group by role symbol and
        // allocate cohorts in the generic first-occurrence order.
        let mixed: Vec<AtomicUpdate> = (0..40)
            .map(|i| AtomicUpdate::Create {
                class: if i % 3 == 0 { student } else { person },
                gamma: Condition::from_atoms([Atom::eq_const(ssn, format!("b{i}"))]),
            })
            .collect();
        let bulk = Transaction::sl("B", &[], mixed);
        let none = Assignment::empty();
        for kind in
            [PatternKind::All, PatternKind::ImmediateStart, PatternKind::Proper, PatternKind::Lazy]
        {
            let inv = Inventory::parse_init(&s, &a, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
            let mut m = ShardedMonitor::new(&s, &a, &inv, kind, 1);
            // Seed regular letters so cohorts and the ∅ walk are mid-run.
            m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
            m.try_apply(ts.get("St").unwrap(), &arg("1")).unwrap();
            m.try_apply(ts.get("Mk").unwrap(), &arg("2")).unwrap();
            let mut dbx = m.db().clone();
            let d = apply_transaction_delta(&s, &mut dbx, &bulk, &none).unwrap();
            let ctx = BatchCtx { schema: &s, alphabet: &a, dfa: inv.dfa(), kind };
            let state = &m.shards[0];
            let generic = {
                let mut st = state.clone();
                let touched = touched_map(&[&d]);
                let stage = st.stage_batch(&ctx, 1, &touched).expect("conforming");
                st.commit_batch(stage);
                st
            };
            let bulked = {
                let mut st = state.clone();
                let stage = st.stage_bulk_creates(&ctx, d.objects().iter()).expect("conforming");
                st.commit_bulk_creates(stage);
                st
            };
            assert!(
                generic == bulked,
                "bulk staging diverged from the generic path under {kind:?}"
            );
        }
        // Both paths agree on rejection too: [PERSON] creations against
        // an inventory admitting only [STUDENT] letters (exemption never
        // saves a creation under All).
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut dbx = m.db().clone();
        let d = apply_transaction_delta(&s, &mut dbx, &bulk, &none).unwrap();
        let ctx = BatchCtx { schema: &s, alphabet: &a, dfa: inv.dfa(), kind: PatternKind::All };
        let state = &m.shards[0];
        assert!(state.stage_batch(&ctx, 1, &touched_map(&[&d])).is_err());
        assert!(state.stage_bulk_creates(&ctx, d.objects().iter()).is_err());
    }

    #[test]
    fn bulk_threshold_violation_matches_reference() {
        // Above the routing threshold the public path takes the bulk
        // loader end to end; a violating load must report the reference
        // engine's exact Violation and leave the database untouched.
        use migratory_lang::AtomicUpdate;
        use migratory_model::{Atom, Condition};
        let (s, a) = setup();
        let person = s.class_id("PERSON").unwrap();
        let ssn = s.attr_id("SSN").unwrap();
        let n = BULK_APPLY_THRESHOLD + 10;
        let updates: Vec<AtomicUpdate> = (0..n)
            .map(|i| AtomicUpdate::Create {
                class: person,
                gamma: Condition::from_atoms([Atom::eq_const(ssn, format!("v{i}"))]),
            })
            .collect();
        let bulk = Transaction::sl("B", &[], updates);
        let none = Assignment::empty();
        // [PERSON] creations against an inventory admitting only
        // [STUDENT] letters: every created object violates; the report
        // must name the first in oid order, exactly as the reference
        // engine does.
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let mut md = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut mr = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        let (ed, er) =
            (md.try_apply(&bulk, &none).unwrap_err(), mr.try_apply(&bulk, &none).unwrap_err());
        match (ed, er) {
            (EnforceError::Violation(vd), EnforceError::Violation(vr)) => assert_eq!(vd, vr),
            other => panic!("expected violations, got {other:?}"),
        }
        assert_eq!(md.db().num_objects(), 0, "violating bulk load must roll back");
        // The same load against a permitting inventory admits through
        // the bulk path and matches the reference database.
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut md = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut mr = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        md.try_apply(&bulk, &none).unwrap();
        mr.try_apply(&bulk, &none).unwrap();
        assert_eq!(md.db().num_objects(), n);
        assert_eq!(md.db(), mr.db());
    }

    #[test]
    fn committed_patterns_always_inside_inventory() {
        // Drive a randomized-ish batch; whatever commits must satisfy 𝔏
        // letter by letter (prefix-closedness makes this the invariant).
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(
            &s,
            &a,
            "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*",
        )
        .unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let script: Vec<(&str, &str)> = vec![
            ("Mk", "1"),
            ("St", "1"),
            ("Mk", "2"),
            ("Emp", "2"),
            ("Emp", "1"),
            ("UnSt", "1"),
            ("Rm", "2"),
            ("Nm", "1"),
            ("Rm", "1"),
        ];
        let mut committed = 0;
        for (t, v) in script {
            let args = if t == "Nm" {
                Assignment::new(vec![Value::str(v), Value::str("z")])
            } else {
                arg(v)
            };
            if m.try_apply(ts.get(t).unwrap(), &args).is_ok() {
                committed += 1;
            }
        }
        assert!(committed >= 5, "most of the script conforms");
        for o in [Oid(1), Oid(2)] {
            if let Some(p) = m.pattern_of(o) {
                assert!(inv.contains(&p), "committed pattern {p:?} must lie in 𝔏");
            }
        }
    }

    #[test]
    fn never_created_objects_constrain_all_kind() {
        // 𝔏 = Init([PERSON]*): no ∅ anywhere, so even one application
        // violates the never-created objects' pattern ∅ under kind=All…
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "[PERSON]*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap_err();
        assert!(matches!(err, EnforceError::Violation(Violation { oid: None, .. })));
        // …but immediate-start patterns never begin with ∅, so the same
        // application is admitted under kind=ImmediateStart.
        let mut m2 = ShardedMonitor::new(&s, &a, &inv, PatternKind::ImmediateStart, 1);
        m2.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert_eq!(m2.clock(0), 1);
    }

    #[test]
    fn proper_kind_exempts_after_noop_step() {
        // 𝔏 = Init(∅*[PERSON][STUDENT]∅*) — persons must study on their
        // second letter. A no-op modify breaks properness first, after
        // which the object is unconstrained under kind=Proper.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let x = arg("1");
        let noop = Assignment::new(vec![Value::str("1"), Value::str("n")]); // Name already "n"

        let mut strict = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        strict.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        assert!(
            strict.try_apply(ts.get("Nm").unwrap(), &noop).is_err(),
            "kind=All rejects: [P][P] ∉ 𝔏"
        );

        let mut proper = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
        proper.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        proper.try_apply(ts.get("Nm").unwrap(), &noop).unwrap();
        // o1's pattern [P][P] is not proper — exempt from here on, even
        // for letters far outside 𝔏:
        proper.try_apply(ts.get("Emp").unwrap(), &x).unwrap();
        assert_eq!(proper.pattern_of(Oid(1)).unwrap().len(), 3);
    }

    #[test]
    fn lazy_kind_exempts_on_role_preserving_change() {
        // A *real* rename changes the object but not its role set: the
        // pattern stays proper but stops being lazy.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let x = arg("1");
        let rename = Assignment::new(vec![Value::str("1"), Value::str("other")]);

        let mut lazy = ShardedMonitor::new(&s, &a, &inv, PatternKind::Lazy, 1);
        lazy.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        lazy.try_apply(ts.get("Nm").unwrap(), &rename).unwrap();
        lazy.try_apply(ts.get("Emp").unwrap(), &x).unwrap();

        let mut proper = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
        proper.try_apply(ts.get("Mk").unwrap(), &x).unwrap();
        assert!(
            proper.try_apply(ts.get("Nm").unwrap(), &rename).is_err(),
            "the rename is a proper step, so [P][P] is checked and fails"
        );
    }

    #[test]
    fn deleted_objects_trailing_empties_are_enforced() {
        // 𝔏 = Init(∅*[PERSON]∅) allows exactly one trailing ∅ after
        // deletion: a second application afterwards violates kind=All.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] ∅").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        m.try_apply(ts.get("Rm").unwrap(), &arg("1")).unwrap();
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("2")).unwrap_err();
        match err {
            EnforceError::Violation(v) => {
                assert_eq!(v.oid, Some(Oid(1)), "o1's pattern would be [P]∅∅");
                assert_eq!(v.letter, a.empty_symbol());
            }
            other => panic!("unexpected {other}"),
        }
        // Under Proper the second trailing ∅ makes o1's pattern improper
        // (and ∅∅ exempts the never-created class too): admitted.
        let mut pm = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
        pm.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        pm.try_apply(ts.get("Rm").unwrap(), &arg("1")).unwrap();
        pm.try_apply(ts.get("Mk").unwrap(), &arg("2")).unwrap();
    }

    #[test]
    fn late_created_objects_start_from_pre_state() {
        // 𝔏 = Init(∅[PERSON]*∅*): creation must happen exactly at step 2.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅ [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        // Step 1 must emit ∅ for (not-yet-created) o1 — Mk at step 1
        // violates o1's pattern [P] (𝔏 requires a leading ∅).
        let err = m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap_err();
        assert!(matches!(err, EnforceError::Violation(Violation { oid: Some(_), .. })));
        // A no-op delete emits the required ∅ first; then Mk is fine.
        m.try_apply(ts.get("Rm").unwrap(), &arg("zzz")).unwrap();
        m.try_apply(ts.get("Mk").unwrap(), &arg("1")).unwrap();
        assert_eq!(m.pattern_of(Oid(1)).unwrap().to_vec(), {
            let p = a.symbol_of(RoleSet::closure_of_named(&s, &["PERSON"]).unwrap()).unwrap();
            vec![a.empty_symbol(), p]
        });
    }

    #[test]
    fn only_changing_policy_skips_null_applications() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅ [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1)
            .with_policy(StepPolicy::OnlyChanging);
        // The no-op delete changes nothing: contributes no letter under
        // the CSL semantics, so creation still happens "at step 1" and
        // violates the required leading ∅.
        m.try_apply(ts.get("Rm").unwrap(), &arg("zzz")).unwrap();
        assert_eq!(m.clock(0), 0);
        assert!(m.try_apply(ts.get("Mk").unwrap(), &arg("1")).is_err());
    }

    #[test]
    fn certification_fast_path_matches_decide() {
        // Example 3.4's schema characterizes Init(∅*([S]+[G]*)*∅*); a
        // certified monitor admits any run of it without checks.
        let (s, a) = setup();
        let ts = certifiable_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        assert!(m.certify(&ts).unwrap(), "the schema satisfies the inventory");
        assert!(m.is_certified());
        m.try_apply(ts.get("T1").unwrap(), &t1_args("1")).unwrap();
        assert_eq!(m.db().num_objects(), 1);
        assert!(m.pattern_of(Oid(1)).is_none(), "certified mode skips tracking");

        // A schema that can violate must fail certification.
        let bad = uni_transactions(&s);
        let mut m2 = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        assert!(!m2.certify(&bad).unwrap());
        assert!(!m2.is_certified());
    }

    #[test]
    fn mid_run_certification_freezes_patterns_identically() {
        // Certifying after some steps must freeze pattern tracking in
        // both engines at the same horizon — certified steps must not
        // fabricate repeat letters in the RLE reconstruction.
        let (s, a) = setup();
        let ts = certifiable_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let t1 = ts.get("T1").unwrap();
        let mut fast = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        fast.try_apply(t1, &t1_args("1")).unwrap();
        assert!(fast.certify(&ts).unwrap());
        fast.try_apply(t1, &t1_args("2")).unwrap();
        assert_eq!(fast.clock(0), 2);
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        oracle.try_apply(t1, &t1_args("1")).unwrap();
        assert!(oracle.certify(&ts).unwrap());
        oracle.try_apply(t1, &t1_args("2")).unwrap();
        assert_eq!(oracle.steps(), 2);
        // o1's pattern is frozen at one letter ([STUDENT]); the certified
        // step contributed nothing to tracking. Both engines agree.
        assert_eq!(fast.pattern_of(Oid(1)), oracle.pattern_of(Oid(1)));
        assert_eq!(fast.pattern_of(Oid(1)).unwrap().len(), 1);
        // o2 was created after certification: untracked in both engines.
        assert!(fast.pattern_of(Oid(2)).is_none());
        assert!(oracle.pattern_of(Oid(2)).is_none());
        // Certification is one-way: a later non-certifying schema reports
        // false but does not resurrect checks over stale tracking state.
        let bad = uni_transactions(&s);
        assert!(!fast.certify(&bad).unwrap());
        assert!(fast.is_certified());
    }

    #[test]
    fn certify_rejects_csl() {
        let (s, a) = setup();
        let csl = parse_transactions(
            &s,
            r#"transaction G(x) {
                 when PERSON(SSN = x) -> delete(PERSON, { SSN = x });
               }"#,
        )
        .unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        assert!(matches!(m.certify(&csl), Err(CoreError::NotSl)));
    }

    #[test]
    fn certify_on_multi_shard_monitor_is_refused_and_logs_nothing() {
        // The certification marker carries one letter clock: a 2-shard
        // monitor refuses before deciding, and its log stays empty.
        let (s, a) = setup();
        let ts = certifiable_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 2).with_sink(wal.clone());
        assert_eq!(m.certify(&ts), Err(CoreError::CertifyShards(2)));
        assert!(!m.is_certified());
        assert_eq!(wal.lock().unwrap().log_len(), 0, "nothing reached the log");
        // The monitor keeps checking: a conforming application commits
        // through the regular path.
        m.try_apply(ts.get("T1").unwrap(), &t1_args("1")).unwrap();
        assert!(m.pattern_of(Oid(1)).is_some(), "tracking still runs");
    }

    #[test]
    fn certified_log_recovers_byte_identically() {
        // A durable one-shard monitor: a checked letter, the
        // certification marker, then certified applications — single
        // and batched (one logged block of three deltas). Recovery from
        // the log alone lands on the same bytes and stays certified.
        let (s, a) = setup();
        let ts = certifiable_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [STUDENT]* ∅*").unwrap();
        let wal = Arc::new(Mutex::new(MemoryWal::new()));
        let mut live =
            ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1).with_sink(wal.clone());
        let t1 = ts.get("T1").unwrap();
        live.try_apply(t1, &t1_args("1")).unwrap();
        assert!(live.certify(&ts).unwrap());
        live.try_apply(t1, &t1_args("2")).unwrap();
        let batch = [t1_args("3"), t1_args("4"), t1_args("5")];
        let (done, err) = live.try_apply_batch(batch.iter().map(|x| (t1, x)));
        assert_eq!((done, err), (3, None));
        assert_eq!(live.clock(0), 5);
        let records = wal.lock().unwrap().records();
        assert_eq!(records.len(), 4, "checked block, marker, single block, batch block");
        assert!(matches!(records[1], WalRecord::Certified { steps: 1 }));
        let recovered =
            ShardedMonitor::recover(&s, &a, &inv, PatternKind::All, 1, None, records).unwrap();
        assert!(recovered.is_certified());
        assert_eq!(recovered.snapshot().encode(), live.snapshot().encode());
        assert_eq!(recovered.db(), live.db());
        assert_eq!(recovered.pattern_of(Oid(1)).unwrap().len(), 1, "frozen at certification");
        assert!(recovered.pattern_of(Oid(3)).is_none(), "post-certification objects untracked");
        // A certified monitor refuses online redefinition.
        assert!(matches!(
            live.redefine(&inv, ResiduePolicy::Quarantine),
            Err(EnforceError::Redefine(_))
        ));
    }

    #[test]
    fn monitor_agrees_with_explorer_families() {
        // Cross-validation against the ground-truth enumerator: every
        // pattern the explorer produces within the inventory must drive
        // the monitor without rejection along its own run — here spot-
        // checked by replaying explorer-admissible scripts.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(
            &s,
            &a,
            "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]* [PERSON]* ∅*",
        )
        .unwrap();
        let sets =
            explore(&s, &a, &ts, &ExploreConfig { max_steps: 3, ..ExploreConfig::default() });
        // All explored patterns inside 𝔏 are admissible: the monitor is
        // not *stricter* than the constraint (completeness per prefix).
        let admissible = sets.all.iter().filter(|w| inv.contains(w)).count();
        assert!(admissible > 0);
        // And every pattern the monitor commits lies in 𝔏 (soundness):
        // exercised by the batch test above; here check the two agree on
        // the empty run.
        assert!(inv.contains(&[]));
    }

    #[test]
    fn try_apply_all_reports_commit_count() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let x = arg("1");
        let mk = ts.get("Mk").unwrap();
        let st = ts.get("St").unwrap();
        let rm = ts.get("Rm").unwrap();
        let (done, err) = m.try_apply_all([(mk, &x), (st, &x), (rm, &x)]);
        assert_eq!(done, 1, "St violates [PERSON]*");
        assert!(err.is_some());
        assert_eq!(m.db().num_objects(), 1);
    }

    /// Replay a script on a one-shard monitor and the reference engine,
    /// asserting identical commit prefixes, identical violations,
    /// identical databases and identical recorded patterns.
    fn assert_engines_agree(
        inv_src: &str,
        kind: PatternKind,
        policy: StepPolicy,
        script: &[(&str, Assignment)],
    ) {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, inv_src).unwrap();
        let mut fast = ShardedMonitor::new(&s, &a, &inv, kind, 1).with_policy(policy);
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, kind).with_policy(policy);
        for (i, (name, args)) in script.iter().enumerate() {
            let t = ts.get(name).unwrap();
            let rf = fast.try_apply(t, args);
            let ro = oracle.try_apply(t, args);
            assert_eq!(rf, ro, "engines disagree at step {i} ({name}) under {kind} / {inv_src}");
            assert_eq!(fast.db(), oracle.db(), "databases diverged at step {i}");
            assert_eq!(fast.clock(0), oracle.steps(), "letter counts diverged at step {i}");
        }
        for o in fast.db().objects().chain((1..=script.len() as u64).map(Oid)) {
            assert_eq!(fast.pattern_of(o), oracle.pattern_of(o), "pattern of o{} diverged", o.0);
        }
    }

    #[test]
    fn delta_engine_matches_reference_on_scripted_runs() {
        let one = |n: &'static str| (n, arg("1"));
        let two = |n: &'static str| (n, arg("2"));
        let script: Vec<(&str, Assignment)> = vec![
            one("Mk"),
            one("St"),
            two("Mk"),
            two("Emp"),
            one("Emp"),
            one("UnSt"),
            ("Nm", Assignment::new(vec![Value::str("1"), Value::str("z")])),
            ("Nm", Assignment::new(vec![Value::str("1"), Value::str("z")])), // no-op rename
            two("Rm"),
            one("Rm"),
            ("Mk", arg("3")),
        ];
        for inv in [
            "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*",
            "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*",
            "∅* [PERSON]+ ∅",
            "∅ [PERSON]* [EMPLOYEE]* ∅*",
        ] {
            for kind in PatternKind::ALL {
                for policy in [StepPolicy::EveryApplication, StepPolicy::OnlyChanging] {
                    assert_engines_agree(inv, kind, policy, &script);
                }
            }
        }
    }

    #[test]
    fn untouched_objects_cost_one_cohort_step() {
        // 50 parallel persons; each application touches exactly one. The
        // cohort map must stay tiny and last_touched must track the
        // delta, not the database.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let blip = parse_transactions(
            &s,
            r#"
            transaction Blip(x) {
              generalize(STUDENT, { SSN = x });
              create(PERSON, { SSN = "tmp", Name = "n" });
              delete(PERSON, { SSN = "tmp" });
            }
        "#,
        )
        .unwrap();
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* [STUDENT]* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        for i in 0..50 {
            m.try_apply(ts.get("Mk").unwrap(), &arg(&format!("k{i}"))).unwrap();
        }
        m.try_apply(ts.get("St").unwrap(), &arg("k7")).unwrap();
        assert_eq!(m.shard_stats()[0].last_touched, 1, "only k7 was touched");
        let state = &m.shards[0];
        assert!(
            state.by_key.len() <= 3,
            "50 objects collapse into ≤3 cohorts, got {}",
            state.by_key.len()
        );
        // Histories are run-length encoded: 51 steps, but o1's record
        // holds a single segment ([P] since step 1).
        let rec = &state.records[&Oid(1)];
        assert_eq!(rec.segments.len(), 1, "no per-step history growth");
        assert_eq!(m.pattern_of(Oid(1)).unwrap().len(), 51, "full pattern reconstructs");
        // o8 (= k7) changed role once: two segments.
        let touched = &state.records[&Oid(8)];
        assert_eq!(touched.segments.len(), 2);
        // `last_touched` counts tracked objects only: an object minted
        // and deleted within one application is never observable, so it
        // is not part of the count even though it is in the change-set.
        m.try_apply(blip.get("Blip").unwrap(), &arg("k7")).unwrap();
        assert_eq!(m.shard_stats()[0].last_touched, 1, "the within-step blip is not counted");
        assert_eq!(m.db().num_objects(), 50);
    }

    #[test]
    fn violation_diagnostics_identical_to_reference_with_many_objects() {
        // Several objects violate "simultaneously": the delta engine must
        // report the same (first-by-oid) object, pattern and letter the
        // reference scan reports.
        let (s, a) = setup();
        let ts = parse_transactions(
            &s,
            r#"
            transaction Mk(x) { create(PERSON, { SSN = x, Name = "n" }); }
            transaction RmAll() { delete(PERSON, { }); }
        "#,
        )
        .unwrap();
        // One trailing ∅ allowed after deletion; a bulk delete then one
        // more application gives every deleted object its second ∅ at
        // the same step.
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]+ ∅").unwrap();
        let mut fast = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        let mut oracle = ReferenceMonitor::new(&s, &a, &inv, PatternKind::All);
        let none = Assignment::empty();
        let prefix = [(ts.get("Mk").unwrap(), arg("a")), (ts.get("Mk").unwrap(), arg("b"))];
        for (t, x) in prefix.iter().chain([(ts.get("RmAll").unwrap(), none)].iter()) {
            fast.try_apply(t, x).unwrap();
            oracle.try_apply(t, x).unwrap();
        }
        let ef = fast.try_apply(ts.get("Mk").unwrap(), &arg("c")).unwrap_err();
        let eo = oracle.try_apply(ts.get("Mk").unwrap(), &arg("c")).unwrap_err();
        assert_eq!(ef, eo);
        match ef {
            EnforceError::Violation(v) => {
                assert_eq!(v.oid, Some(Oid(1)), "lowest-oid violator reported");
                assert_eq!(v.pattern.len(), 4);
                assert_eq!(v.letter, a.empty_symbol());
            }
            other => panic!("unexpected {other}"),
        }
        // Rejection rolled back: both databases agree and can continue.
        assert_eq!(fast.db(), oracle.db());
        assert_eq!(fast.clock(0), 3);
    }

    #[test]
    fn proper_kind_folds_untouched_objects_into_exempt_cohort() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON] [STUDENT] ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::Proper, 1);
        for i in 0..10 {
            m.try_apply(ts.get("Mk").unwrap(), &arg(&format!("k{i}"))).unwrap();
        }
        let state = &m.shards[0];
        // After step 2 under Proper, every untouched object is exempt:
        // only the latest creation can still occupy a live cohort.
        assert!(state.by_key.len() <= 1);
        assert!(state.cohorts[EXEMPT as usize].size >= 9);
    }

    #[test]
    fn cyclic_workloads_recycle_cohort_slots() {
        // St/UnSt toggling empties and recreates cohorts every step; the
        // free list must keep the slot table bounded instead of growing
        // one slot per application.
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* ([PERSON] ∪ [STUDENT])* ∅*").unwrap();
        // All exercises the re-key path; Proper and Lazy exercise the
        // fold-to-exempt path. Same-object toggling empties and recreates
        // a singleton cohort every step (free-list path); rotating over
        // several objects leaves live forwarders behind each fold
        // (compaction path).
        for kind in [PatternKind::All, PatternKind::Proper, PatternKind::Lazy] {
            for rotate in [false, true] {
                let keys = ["a", "b", "c"];
                let mut m = ShardedMonitor::new(&s, &a, &inv, kind, 1);
                for k in keys {
                    m.try_apply(ts.get("Mk").unwrap(), &arg(k)).unwrap();
                }
                for i in 0..300 {
                    let t = if i % 2 == 0 { "St" } else { "UnSt" };
                    let k = if rotate { keys[(i / 2) % keys.len()] } else { "b" };
                    m.try_apply(ts.get(t).unwrap(), &arg(k)).unwrap();
                }
                let state = &m.shards[0];
                assert!(
                    state.cohorts.len() <= 65,
                    "300 toggles (rotate {rotate}) under {kind} must bound the slot \
                     table, got {} cohorts",
                    state.cohorts.len()
                );
            }
        }
    }

    #[test]
    fn lang_errors_are_distinguished_from_violations() {
        let (s, a) = setup();
        let ts = uni_transactions(&s);
        let inv = Inventory::parse_init(&s, &a, "∅* [PERSON]* ∅*").unwrap();
        let mut m = ShardedMonitor::new(&s, &a, &inv, PatternKind::All, 1);
        // Wrong arity: a Lang error, not a violation; nothing committed.
        let bad = Assignment::new(vec![]);
        let err = m.try_apply(ts.get("Mk").unwrap(), &bad).unwrap_err();
        assert!(matches!(err, EnforceError::Lang(_)));
        assert!(!format!("{err}").is_empty());
        assert_eq!(m.clock(0), 0);
    }
}

//! Database instances (Definition 2.2 of the paper), stored behind an
//! **indexed heap**.
//!
//! An instance of a schema `D` is a triple `d = (o, a, oᵢ)`:
//!
//! * `o` maps each class to a finite set of abstract objects, such that
//!   `o(P) ⊆ o(Q)` whenever `P isa Q` (membership is up-closed) and
//!   `o(P) ∩ o(Q) = ∅` for non-weakly-connected `P, Q` (an object lives in
//!   a single component);
//! * `a` assigns a constant to every `(object, attribute)` pair with the
//!   attribute defined on a class the object belongs to;
//! * `oᵢ` is the *next* abstract object — strictly larger than every
//!   object occurring in `d`, used when new objects are created. Because
//!   objects are only ever minted from this counter, each abstract object
//!   is created into the database **at most once**, as the model requires.
//!
//! # Storage layout
//!
//! The *heap* stores, per object, its class set (which is its role set
//! `Rs(o, d)`) and its attribute tuple; `BTreeMap`s give deterministic
//! `<ₒ`-ordered iteration, which the canonical-database machinery of
//! Theorem 3.2 relies on. Two secondary indexes are derived from the heap
//! and maintained **incrementally by every mutation path**
//! ([`Instance::create`], [`Instance::delete_object`],
//! [`Instance::add_classes`], [`Instance::remove_classes`],
//! [`Instance::set_values`], [`Instance::put_object`]; the bulk
//! constructors [`Instance::restrict`] and [`Instance::from_objects`],
//! and [`Instance::merge_objects`] for a batch as large as the heap,
//! rebuild them wholesale):
//!
//! * the **class index** — `o(P)` materialized per class, behind
//!   [`Instance::objects_in`];
//! * the **value index** — the objects holding each `(attribute, value)`
//!   pair, which turns the equality atoms of a selection condition into
//!   point lookups.
//!
//! [`Instance::sat`] plans from the condition: it drives from the most
//! selective indexed equality atom (falling back to the class index) and
//! verifies the remaining atoms per candidate, so `Sat(Γ, d, P)` costs
//! O(candidates · log |d|) instead of a full heap scan. The pre-index
//! full scan survives as [`Instance::sat_scan`] — the semantic oracle for
//! property tests and the benchmark baseline. Index/heap consistency is
//! part of [`Instance::check_invariants`].

use crate::bitset::ClassSet;
use crate::condition::{CmpOp, Condition, Term};
use crate::error::ModelError;
use crate::ids::{AttrId, ClassId, DenseId, Oid};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A database instance `d = (o, a, oᵢ)`.
///
/// Equality, ordering and hashing are defined on the heap triple alone;
/// the indexes are derived data and never observable through comparisons.
#[derive(Clone)]
pub struct Instance {
    /// Class membership per occurring object — always a non-empty set.
    membership: BTreeMap<Oid, ClassSet>,
    /// Attribute values per occurring object.
    attrs: BTreeMap<Oid, Tuple>,
    /// Numeric part of the next abstract object `oᵢ`.
    next: u64,
    /// Class index: `o(P)` per dense class index (slots grow on demand).
    class_index: Vec<BTreeSet<Oid>>,
    /// Value index: objects holding each `(attribute, value)` pair.
    /// Entries are removed when their set drains, so `len` of an entry is
    /// an exact selectivity count.
    value_index: BTreeMap<(AttrId, Value), BTreeSet<Oid>>,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.membership == other.membership && self.attrs == other.attrs && self.next == other.next
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.membership, &self.attrs, self.next).cmp(&(
            &other.membership,
            &other.attrs,
            other.next,
        ))
    }
}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.membership.hash(state);
        self.attrs.hash(state);
        self.next.hash(state);
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("membership", &self.membership)
            .field("attrs", &self.attrs)
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl Default for Instance {
    fn default() -> Self {
        Self::empty()
    }
}

impl Instance {
    /// The empty database `d₀ = (∅, ∅, o₁)` — the starting point of every
    /// migration pattern (Section 3).
    #[must_use]
    pub fn empty() -> Self {
        Instance {
            membership: BTreeMap::new(),
            attrs: BTreeMap::new(),
            next: 1,
            class_index: Vec::new(),
            value_index: BTreeMap::new(),
        }
    }

    /// The next abstract object `oᵢ`.
    #[must_use]
    pub fn next_oid(&self) -> Oid {
        Oid(self.next)
    }

    /// Whether object `o` occurs in the database (belongs to some class).
    #[must_use]
    pub fn occurs(&self, o: Oid) -> bool {
        self.membership.contains_key(&o)
    }

    /// Number of occurring objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.membership.len()
    }

    /// Whether no object occurs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.membership.is_empty()
    }

    /// `Rs(o, d)` — the role set of `o` as a raw class set (∅ if `o` does
    /// not occur).
    #[must_use]
    pub fn role_set(&self, o: Oid) -> ClassSet {
        self.membership.get(&o).copied().unwrap_or_default()
    }

    /// The attribute tuple `ō` yielded by `o` (empty if absent).
    #[must_use]
    pub fn tuple_of(&self, o: Oid) -> Tuple {
        self.attrs.get(&o).cloned().unwrap_or_default()
    }

    /// Borrow the attribute tuple of `o`, if it occurs.
    #[must_use]
    pub fn tuple_ref(&self, o: Oid) -> Option<&Tuple> {
        self.attrs.get(&o)
    }

    /// The value `a(o, A)`.
    #[must_use]
    pub fn value(&self, o: Oid, a: AttrId) -> Option<&Value> {
        self.attrs.get(&o).and_then(|t| t.get(a))
    }

    /// Iterate all occurring objects in `<ₒ` order.
    pub fn objects(&self) -> impl Iterator<Item = Oid> + '_ {
        self.membership.keys().copied()
    }

    /// Iterate objects of class `P` (the set `o(P)`) in `<ₒ` order —
    /// served from the class index, O(|o(P)|) instead of O(|d|).
    pub fn objects_in(&self, p: ClassId) -> impl Iterator<Item = Oid> + '_ {
        self.class_index.get(p.index()).into_iter().flatten().copied()
    }

    /// Number of objects of class `P` (index lookup, O(1)).
    #[must_use]
    pub fn num_objects_in(&self, p: ClassId) -> usize {
        self.class_index.get(p.index()).map_or(0, BTreeSet::len)
    }

    /// Number of objects holding the value `v` for attribute `a` (index
    /// lookup — the planner's selectivity estimate, which is exact).
    #[must_use]
    pub fn num_objects_with(&self, a: AttrId, v: &Value) -> usize {
        // Cheap key clone: `Value` is an integer, an `Arc<str>` or a tag.
        self.value_index.get(&(a, v.clone())).map_or(0, BTreeSet::len)
    }

    /// `Sat(Γ, d, P)` — the objects of `o(P)` whose tuples satisfy the
    /// **ground** condition `Γ` (Section 2), in `<ₒ` order.
    ///
    /// Planned from the condition: the driver is the most selective of
    /// the indexed equality atoms and the class index; the remaining
    /// atoms (and class membership, when driving from a value entry) are
    /// verified per candidate. The heap is never scanned. Semantically
    /// identical to [`Instance::sat_scan`].
    #[must_use]
    pub fn sat(&self, p: ClassId, gamma: &Condition) -> Vec<Oid> {
        match self.plan(p, gamma) {
            SatPlan::Empty => Vec::new(),
            SatPlan::ValueEntry(set) => set
                .iter()
                .copied()
                .filter(|&o| self.role_set(o).contains(p) && self.member_satisfies(o, gamma))
                .collect(),
            SatPlan::ClassEntry(set) => {
                set.iter().copied().filter(|&o| self.member_satisfies(o, gamma)).collect()
            }
        }
    }

    /// Whether `Sat(Γ, d, P)` is non-empty — same planner as
    /// [`Instance::sat`] with early exit, for guard-literal evaluation.
    #[must_use]
    pub fn sat_exists(&self, p: ClassId, gamma: &Condition) -> bool {
        match self.plan(p, gamma) {
            SatPlan::Empty => false,
            SatPlan::ValueEntry(set) => {
                set.iter().any(|&o| self.role_set(o).contains(p) && self.member_satisfies(o, gamma))
            }
            SatPlan::ClassEntry(set) => set.iter().any(|&o| self.member_satisfies(o, gamma)),
        }
    }

    /// `Sat(Γ, d, P)` by full heap scan — the pre-index implementation,
    /// kept verbatim as the semantic oracle for the index-backed
    /// [`Instance::sat`] (property tests) and as the benchmark baseline.
    #[must_use]
    pub fn sat_scan(&self, p: ClassId, gamma: &Condition) -> Vec<Oid> {
        self.membership
            .iter()
            .filter(|(o, cs)| {
                cs.contains(p) && gamma.satisfied_by(self.attrs.get(o).unwrap_or(&Tuple::default()))
            })
            .map(|(o, _)| *o)
            .collect()
    }

    /// Choose the cheapest driver for `Sat(Γ, d, P)`.
    fn plan<'s>(&'s self, p: ClassId, gamma: &Condition) -> SatPlan<'s> {
        let class_entry = self.class_index.get(p.index());
        let mut best: Option<&'s BTreeSet<Oid>> = None;
        for atom in gamma.atoms() {
            if atom.op != CmpOp::Eq {
                continue;
            }
            let Term::Const(v) = &atom.term else { continue };
            match self.value_index.get(&(atom.attr, v.clone())) {
                // An equality atom nobody satisfies: Sat is empty, full stop.
                None => return SatPlan::Empty,
                Some(set) => {
                    if best.is_none_or(|b| set.len() < b.len()) {
                        best = Some(set);
                    }
                }
            }
        }
        match (best, class_entry) {
            (None, None) => SatPlan::Empty,
            (None, Some(c)) => SatPlan::ClassEntry(c),
            (Some(v), None) => {
                // Value hits exist but the class has no members: empty —
                // but the per-candidate class check handles it uniformly.
                SatPlan::ValueEntry(v)
            }
            (Some(v), Some(c)) => {
                if c.len() <= v.len() {
                    SatPlan::ClassEntry(c)
                } else {
                    SatPlan::ValueEntry(v)
                }
            }
        }
    }

    /// Whether occurring object `o`'s tuple satisfies ground `gamma`.
    fn member_satisfies(&self, o: Oid, gamma: &Condition) -> bool {
        gamma.satisfied_by(self.attrs.get(&o).unwrap_or(&Tuple::default()))
    }

    /// All constants currently stored in the database.
    #[must_use]
    pub fn active_domain(&self) -> std::collections::BTreeSet<Value> {
        self.attrs.values().flat_map(|t| t.iter().map(|(_, v)| v.clone())).collect()
    }

    // ------------------------------------------------------------------
    // Index maintenance primitives.
    // ------------------------------------------------------------------

    fn index_classes_add(&mut self, o: Oid, cs: ClassSet) {
        for c in cs.iter() {
            if self.class_index.len() <= c.index() {
                self.class_index.resize_with(c.index() + 1, BTreeSet::new);
            }
            self.class_index[c.index()].insert(o);
        }
    }

    fn index_classes_remove(&mut self, o: Oid, cs: ClassSet) {
        for c in cs.iter() {
            if let Some(set) = self.class_index.get_mut(c.index()) {
                set.remove(&o);
            }
        }
    }

    fn index_value_add(&mut self, o: Oid, a: AttrId, v: &Value) {
        self.value_index.entry((a, v.clone())).or_default().insert(o);
    }

    fn index_value_remove(&mut self, o: Oid, a: AttrId, v: &Value) {
        if let std::collections::btree_map::Entry::Occupied(mut e) =
            self.value_index.entry((a, v.clone()))
        {
            e.get_mut().remove(&o);
            if e.get().is_empty() {
                e.remove();
            }
        }
    }

    /// Drop every index entry of `o`'s current heap state.
    fn deindex_object(&mut self, o: Oid) {
        if let Some(&cs) = self.membership.get(&o) {
            self.index_classes_remove(o, cs);
        }
        if let Some(t) = self.attrs.get(&o) {
            let pairs: Vec<(AttrId, Value)> = t.iter().map(|(a, v)| (a, v.clone())).collect();
            for (a, v) in pairs {
                self.index_value_remove(o, a, &v);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutation primitives. These are the *mechanical* operations the
    // language layer's operational semantics (Definition 2.5) is built
    // from; they do not themselves validate conditions. Every one keeps
    // the class and value indexes exactly synchronized with the heap.
    // ------------------------------------------------------------------

    /// Create a new object with the given class memberships and attribute
    /// values, consuming the next abstract object. Returns its identifier.
    pub fn create(&mut self, classes: ClassSet, values: BTreeMap<AttrId, Value>) -> Oid {
        debug_assert!(!classes.is_empty(), "created objects must belong to a class");
        let oid = Oid(self.next);
        self.next += 1;
        self.index_classes_add(oid, classes);
        for (&a, v) in &values {
            self.index_value_add(oid, a, v);
        }
        self.membership.insert(oid, classes);
        self.attrs.insert(oid, Tuple::from_pairs(values));
        oid
    }

    /// Create a batch of objects at once, minting consecutive ascending
    /// identifiers from the next-object counter. Returns the first minted
    /// identifier (row `i` became `Oid(first.0 + i)`).
    ///
    /// Semantically identical to calling [`Instance::create`] once per
    /// row, but the heap maps and both secondary indexes are merged in
    /// bulk — O(existing + new) via sorted-merge rebuilds instead of
    /// O(new · log(existing)) individual inserts — which is what makes
    /// million-object bulk loads cheap. Because every minted identifier
    /// is larger than every existing one, the new heap entries append
    /// past the current maximum and the merges never interleave.
    pub fn bulk_create(&mut self, rows: &[(ClassSet, Tuple)]) -> Oid {
        let first = Oid(self.next);
        self.next += rows.len() as u64;
        let oid = |i: usize| Oid(first.0 + i as u64);
        // Class index: per class the minted oids arrive ascending, and all
        // are larger than any indexed oid — append in bulk per class.
        let mut per_class: Vec<Vec<Oid>> = Vec::new();
        for (i, (cs, _)) in rows.iter().enumerate() {
            debug_assert!(!cs.is_empty(), "created objects must belong to a class");
            for c in cs.iter() {
                if per_class.len() <= c.index() {
                    per_class.resize_with(c.index() + 1, Vec::new);
                }
                per_class[c.index()].push(oid(i));
            }
        }
        if self.class_index.len() < per_class.len() {
            self.class_index.resize_with(per_class.len(), BTreeSet::new);
        }
        for (ci, oids) in per_class.into_iter().enumerate() {
            if !oids.is_empty() {
                let mut add = BTreeSet::from_iter(oids);
                self.class_index[ci].append(&mut add);
            }
        }
        // Value index: sort all new (key, oid) facts once, group runs,
        // then merge groups — extending sets of keys already present and
        // bulk-appending the (typically dominant) fresh keys.
        let mut pairs: Vec<((AttrId, Value), Oid)> = rows
            .iter()
            .enumerate()
            .flat_map(|(i, (_, t))| t.iter().map(move |(a, v)| ((a, v.clone()), oid(i))))
            .collect();
        pairs.sort_unstable();
        let mut fresh: Vec<((AttrId, Value), BTreeSet<Oid>)> = Vec::new();
        let mut run: Option<((AttrId, Value), BTreeSet<Oid>)> = None;
        let mut flush = |index: &mut BTreeMap<(AttrId, Value), BTreeSet<Oid>>,
                         group: ((AttrId, Value), BTreeSet<Oid>)| {
            match index.get_mut(&group.0) {
                Some(existing) => existing.extend(group.1),
                None => fresh.push(group),
            }
        };
        for (key, o) in pairs {
            match &mut run {
                Some((k, set)) if *k == key => {
                    set.insert(o);
                }
                _ => {
                    if let Some(group) = run.take() {
                        flush(&mut self.value_index, group);
                    }
                    run = Some((key, BTreeSet::from([o])));
                }
            }
        }
        if let Some(group) = run {
            flush(&mut self.value_index, group);
        }
        let mut fresh: BTreeMap<(AttrId, Value), BTreeSet<Oid>> = fresh.into_iter().collect();
        self.value_index.append(&mut fresh);
        // Heap: new keys are strictly above the existing range, so the
        // sorted-merge append degenerates to concatenation.
        let mut membership: BTreeMap<Oid, ClassSet> =
            rows.iter().enumerate().map(|(i, (cs, _))| (oid(i), *cs)).collect();
        let mut attrs: BTreeMap<Oid, Tuple> =
            rows.iter().enumerate().map(|(i, (_, t))| (oid(i), t.clone())).collect();
        self.membership.append(&mut membership);
        self.attrs.append(&mut attrs);
        debug_assert!(self.check_index_invariants().is_ok(), "bulk_create desynced the indexes");
        first
    }

    /// Remove an object entirely (class memberships and attribute values).
    pub fn delete_object(&mut self, o: Oid) {
        self.deindex_object(o);
        self.membership.remove(&o);
        self.attrs.remove(&o);
    }

    /// Remove the classes of `remove` from `o`'s membership and clear the
    /// attribute values of `clear_attrs`. If the membership becomes empty
    /// the object is removed entirely (cannot happen through `generalize`,
    /// which never removes root classes, but kept total for safety).
    pub fn remove_classes(
        &mut self,
        o: Oid,
        remove: ClassSet,
        clear_attrs: impl IntoIterator<Item = AttrId>,
    ) {
        let Some(&cur) = self.membership.get(&o) else { return };
        let dropped = cur.intersection(remove);
        let rest = cur.difference(remove);
        self.index_classes_remove(o, dropped);
        self.membership.insert(o, rest);
        if self.attrs.contains_key(&o) {
            for a in clear_attrs {
                let old = self.attrs.get_mut(&o).and_then(|t| t.unset(a));
                if let Some(v) = old {
                    self.index_value_remove(o, a, &v);
                }
            }
        }
        if rest.is_empty() {
            self.delete_object(o);
        }
    }

    /// Add the classes of `add` to `o`'s membership and set the given
    /// attribute values.
    pub fn add_classes(
        &mut self,
        o: Oid,
        add: ClassSet,
        values: impl IntoIterator<Item = (AttrId, Value)>,
    ) {
        let Some(&cur) = self.membership.get(&o) else { return };
        self.index_classes_add(o, add.difference(cur));
        self.membership.insert(o, cur.union(add));
        for (a, v) in values {
            self.set_value_indexed(o, a, v);
        }
    }

    /// Overwrite attribute values of `o`.
    pub fn set_values(&mut self, o: Oid, values: impl IntoIterator<Item = (AttrId, Value)>) {
        if self.membership.contains_key(&o) {
            for (a, v) in values {
                self.set_value_indexed(o, a, v);
            }
        }
    }

    /// Set one attribute value on the heap and both sides of the value
    /// index. Writing back the stored value is a no-op.
    fn set_value_indexed(&mut self, o: Oid, a: AttrId, v: Value) {
        let t = self.attrs.entry(o).or_default();
        match t.get(a) {
            Some(old) if *old == v => return,
            Some(old) => {
                let old = old.clone();
                t.set(a, v.clone());
                self.index_value_remove(o, a, &old);
            }
            None => t.set(a, v.clone()),
        }
        self.index_value_add(o, a, &v);
    }

    /// Restore an object's raw state — membership and attribute tuple —
    /// exactly as previously captured (the rollback primitive behind
    /// `migratory_lang`'s transaction deltas). Any current state of `o`
    /// is de-indexed first, so restoring over a live object keeps the
    /// indexes exact. Does not validate against a schema; callers restore
    /// states that were valid when captured.
    pub fn put_object(&mut self, o: Oid, classes: ClassSet, tuple: Tuple) {
        debug_assert!(!classes.is_empty(), "restored objects must belong to a class");
        self.deindex_object(o);
        self.index_classes_add(o, classes);
        for (a, v) in tuple.iter() {
            let v = v.clone();
            self.index_value_add(o, a, &v);
        }
        self.membership.insert(o, classes);
        self.attrs.insert(o, tuple);
        // Schema-free half of `check_invariants` — the schema is not in
        // scope here, but index/heap agreement is auditable and this is
        // the rollback/restore primitive where drift would be fatal.
        debug_assert!(self.check_index_invariants().is_ok(), "put_object desynced the indexes");
    }

    /// Overwrite many objects' raw states at once, then set the next
    /// counter: each update is a state for [`Instance::put_object`], or
    /// `None` for [`Instance::delete_object`]. The result is exactly
    /// that of applying the updates one by one in oid order and then
    /// [`Instance::set_next`].
    ///
    /// When the updates are at least as many as the objects present, the
    /// heap and the updates are sorted-merged and both indexes rebuilt
    /// once in bulk — O((n + m) log(n + m)) instead of m incremental
    /// re-indexings. Fewer updates go through per-object
    /// [`Instance::put_object`], so a small batch on a large heap stays
    /// O(m log n).
    ///
    /// # Panics
    /// Panics as [`Instance::set_next`] does if an object remaining
    /// afterwards is not `<ₒ`-smaller than `next`.
    pub fn merge_objects(&mut self, updates: BTreeMap<Oid, Option<(ClassSet, Tuple)>>, next: u64) {
        if updates.len() < self.membership.len() {
            for (o, state) in updates {
                match state {
                    Some((classes, tuple)) => self.put_object(o, classes, tuple),
                    None => self.delete_object(o),
                }
            }
            self.set_next(next);
            return;
        }
        // Drop the old indexes before building the new ones, so the two
        // never coexist.
        self.class_index = Vec::new();
        self.value_index = BTreeMap::new();
        // Every mutation path keeps the tuple keys within the membership
        // keys, so a deletion simply drops the oid from both maps.
        let (class_updates, tuple_updates): (Vec<_>, Vec<_>) = updates
            .into_iter()
            .map(|(o, state)| {
                let (classes, tuple) = state.unzip();
                ((o, classes), (o, tuple))
            })
            .unzip();
        let membership = merge_sorted(std::mem::take(&mut self.membership), class_updates);
        let attrs = merge_sorted(std::mem::take(&mut self.attrs), tuple_updates);
        *self = Instance::from_parts(membership, attrs, self.next);
        self.set_next(next);
        debug_assert!(self.check_index_invariants().is_ok(), "merge_objects built stale indexes");
    }

    /// Build an instance from raw heap parts, deriving both indexes in
    /// bulk: entries are grouped in sorted order and the `BTree`
    /// containers are built through their (bulk-building) `FromIterator`
    /// — O(entries log entries) with small constants, which is what
    /// keeps snapshot recovery far cheaper than replaying history.
    fn from_parts(
        membership: BTreeMap<Oid, ClassSet>,
        attrs: BTreeMap<Oid, Tuple>,
        next: u64,
    ) -> Instance {
        // Class index: per class, oids arrive in ascending heap order.
        let mut per_class: Vec<Vec<Oid>> = Vec::new();
        for (&o, cs) in &membership {
            for c in cs.iter() {
                if per_class.len() <= c.index() {
                    per_class.resize_with(c.index() + 1, Vec::new);
                }
                per_class[c.index()].push(o);
            }
        }
        let class_index: Vec<BTreeSet<Oid>> =
            per_class.into_iter().map(BTreeSet::from_iter).collect();
        // Value index: sort all (key, oid) facts once, then group runs.
        let mut pairs: Vec<((AttrId, Value), Oid)> = attrs
            .iter()
            .flat_map(|(&o, t)| t.iter().map(move |(a, v)| ((a, v.clone()), o)))
            .collect();
        pairs.sort_unstable();
        let mut groups: Vec<((AttrId, Value), BTreeSet<Oid>)> = Vec::new();
        for (key, o) in pairs {
            match groups.last_mut() {
                Some((k, set)) if *k == key => {
                    set.insert(o);
                }
                _ => groups.push((key, BTreeSet::from([o]))),
            }
        }
        let value_index: BTreeMap<(AttrId, Value), BTreeSet<Oid>> = groups.into_iter().collect();
        Instance { membership, attrs, next, class_index, value_index }
    }

    /// The restriction `d|_I` of the database onto a set of objects
    /// (Section 3, before Lemma 3.5): keep only the membership and values
    /// of objects in `I`; the `next` counter is preserved and the indexes
    /// are rebuilt for the surviving objects.
    #[must_use]
    pub fn restrict(&self, objects: &[Oid]) -> Instance {
        let db = Instance::from_parts(
            self.membership
                .iter()
                .filter(|(o, _)| objects.contains(o))
                .map(|(o, cs)| (*o, *cs))
                .collect(),
            self.attrs
                .iter()
                .filter(|(o, _)| objects.contains(o))
                .map(|(o, t)| (*o, t.clone()))
                .collect(),
            self.next,
        );
        debug_assert!(db.check_index_invariants().is_ok(), "restrict rebuilt stale indexes");
        db
    }

    /// Construct an instance directly (used by canonical-database builders
    /// in the analyzer); the indexes are derived from the given objects.
    /// `next` is set just above the largest object.
    #[must_use]
    pub fn from_objects(objects: impl IntoIterator<Item = (Oid, ClassSet, Tuple)>) -> Instance {
        let mut membership = BTreeMap::new();
        let mut attrs = BTreeMap::new();
        let mut max = 0u64;
        for (o, cs, t) in objects {
            max = max.max(o.0);
            membership.insert(o, cs);
            attrs.insert(o, t);
        }
        Instance::from_parts(membership, attrs, max + 1)
    }

    /// Force the next-object counter (canonical databases only).
    ///
    /// # Panics
    /// Panics if some occurring object is not `<ₒ`-smaller than `next`:
    /// winding the counter back over live objects would let `create` mint
    /// an identifier a second time, silently corrupting the heap and its
    /// indexes (abstract objects are created **at most once**, Section 2).
    pub fn set_next(&mut self, next: u64) {
        // Keys are ordered: the largest occurring object bounds them all,
        // so the guard is O(log n) — it sits on the undo/redo hot paths.
        assert!(
            self.membership.last_key_value().is_none_or(|(o, _)| o.0 < next),
            "set_next({next}) would recycle a live object identifier"
        );
        self.next = next;
    }

    // ------------------------------------------------------------------
    // Snapshot encoding (the persistence layer's checkpoint format).
    // ------------------------------------------------------------------

    /// Append a canonical binary snapshot of the heap triple `(o, a, oᵢ)`
    /// to `out`. Only the heap is written — the class and value indexes
    /// are derived data and are rebuilt by
    /// [`Instance::decode_snapshot`] — so equal instances (which compare
    /// on the heap alone) produce identical bytes.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        crate::codec::encode_u64(out, self.next);
        crate::codec::encode_u64(out, self.membership.len() as u64);
        for (o, cs) in &self.membership {
            crate::codec::encode_u64(out, o.0);
            crate::codec::encode_idset(out, *cs);
            let empty = Tuple::default();
            let t = self.attrs.get(o).unwrap_or(&empty);
            crate::codec::encode_tuple(out, t);
        }
    }

    /// Rebuild an instance from [`Instance::encode_snapshot`] bytes,
    /// deriving both secondary indexes from the decoded heap. The decoded
    /// instance compares equal to the encoded one and passes
    /// [`Instance::check_invariants`] whenever the original did.
    pub fn decode_snapshot(r: &mut crate::codec::Reader<'_>) -> Result<Instance, ModelError> {
        let next = r.u64()?;
        let n = r.count()?;
        let mut members: Vec<(Oid, ClassSet)> = Vec::with_capacity(n);
        let mut tuples: Vec<(Oid, Tuple)> = Vec::with_capacity(n);
        for _ in 0..n {
            let o = Oid(r.u64()?);
            // Canonical encodings are strictly ascending; requiring it
            // rules out duplicates and lets the maps bulk-build below.
            if members.last().is_some_and(|&(p, _)| o <= p) {
                return Err(ModelError::Corrupt(format!("snapshot objects out of order at {o}")));
            }
            let cs: ClassSet = r.idset()?;
            if cs.is_empty() {
                return Err(ModelError::Corrupt(format!("snapshot object {o} has no classes")));
            }
            if o.0 >= next {
                return Err(ModelError::Corrupt(format!(
                    "snapshot object {o} is not below the next counter o{next}"
                )));
            }
            let t = r.tuple()?;
            members.push((o, cs));
            tuples.push((o, t));
        }
        Ok(Instance::from_parts(members.into_iter().collect(), tuples.into_iter().collect(), next))
    }

    /// Check the well-formedness invariants of Definition 2.2 against a
    /// schema:
    ///
    /// 1. membership up-closed under isa (`o(P) ⊆ o(Q)` for `P isa Q`);
    /// 2. each object inside a single weakly-connected component;
    /// 3. `a` total: each object has a value for exactly the attributes of
    ///    the classes it belongs to;
    /// 4. every occurring object `<ₒ`-smaller than `next`;
    /// 5. the class and value indexes agree exactly with the heap.
    pub fn check_invariants(&self, schema: &Schema) -> Result<(), ModelError> {
        for (&o, &cs) in &self.membership {
            if cs.is_empty() {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} occurs with empty class set"
                )));
            }
            if !schema.is_up_closed(cs) {
                return Err(ModelError::InvariantViolated(format!(
                    "membership of {o} is not isa-closed"
                )));
            }
            let comp = schema.component_of(cs.first().expect("non-empty"));
            if cs.iter().any(|c| schema.component_of(c) != comp) {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} belongs to non-weakly-connected classes"
                )));
            }
            let expected = schema.attrs_of_class_set(cs);
            let t = self.attrs.get(&o).cloned().unwrap_or_default();
            for a in expected.iter() {
                if t.get(a).is_none() {
                    return Err(ModelError::MissingValue { oid: o.0, attr: a });
                }
            }
            if t.domain() != expected {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} stores values outside its defined attributes"
                )));
            }
            if o.0 >= self.next {
                return Err(ModelError::InvariantViolated(format!(
                    "object {o} is not smaller than next object o{}",
                    self.next
                )));
            }
        }
        self.check_index_invariants()
    }

    /// Verify that both secondary indexes agree exactly with the heap
    /// (every heap fact indexed, every index entry backed by the heap).
    fn check_index_invariants(&self) -> Result<(), ModelError> {
        let mut indexed_memberships = 0usize;
        for (ci, set) in self.class_index.iter().enumerate() {
            let c = ClassId::from_index(ci);
            for &o in set {
                if !self.role_set(o).contains(c) {
                    return Err(ModelError::InvariantViolated(format!(
                        "class index lists {o} under {c} but the heap disagrees"
                    )));
                }
            }
            indexed_memberships += set.len();
        }
        let heap_memberships: usize = self.membership.values().map(|cs| cs.len()).sum();
        if indexed_memberships != heap_memberships {
            return Err(ModelError::InvariantViolated(format!(
                "class index covers {indexed_memberships} memberships, heap has {heap_memberships}"
            )));
        }
        let mut indexed_values = 0usize;
        for ((a, v), set) in &self.value_index {
            if set.is_empty() {
                return Err(ModelError::InvariantViolated(format!(
                    "value index keeps a drained entry for ({a}, {v})"
                )));
            }
            for o in set {
                if self.value(*o, *a) != Some(v) {
                    return Err(ModelError::InvariantViolated(format!(
                        "value index lists {o} under ({a}, {v}) but the heap disagrees"
                    )));
                }
            }
            indexed_values += set.len();
        }
        let heap_values: usize = self.attrs.values().map(Tuple::len).sum();
        if indexed_values != heap_values {
            return Err(ModelError::InvariantViolated(format!(
                "value index covers {indexed_values} values, heap has {heap_values}"
            )));
        }
        Ok(())
    }
}

/// The driver chosen by [`Instance::plan`] for a `Sat` evaluation.
enum SatPlan<'s> {
    /// Some equality atom matches no stored value: the result is empty.
    Empty,
    /// Drive from a value-index entry (class membership still checked per
    /// candidate).
    ValueEntry(&'s BTreeSet<Oid>),
    /// Drive from the class index (condition checked per candidate).
    ClassEntry(&'s BTreeSet<Oid>),
}

/// Sorted merge of a heap map with oid-ascending updates (`None`
/// removes the key), for [`Instance::merge_objects`]. The output
/// arrives in key order, so the map bulk-builds.
fn merge_sorted<V>(base: BTreeMap<Oid, V>, updates: Vec<(Oid, Option<V>)>) -> BTreeMap<Oid, V> {
    let mut merged = Vec::with_capacity(base.len() + updates.len());
    let mut updates = updates.into_iter().peekable();
    for (o, v) in base {
        while let Some((u, state)) = updates.next_if(|(u, _)| *u < o) {
            merged.extend(state.map(|s| (u, s)));
        }
        match updates.next_if(|(u, _)| *u == o) {
            Some((_, state)) => merged.extend(state.map(|s| (o, s))),
            None => merged.push((o, v)),
        }
    }
    merged.extend(updates.filter_map(|(u, state)| state.map(|s| (u, s))));
    merged.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Atom;
    use crate::schema::university_schema;

    fn sample() -> (Schema, Instance) {
        let schema = university_schema();
        let mut db = Instance::empty();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        for (s, n) in [("1234", "John"), ("2345", "Jim")] {
            db.create(
                ClassSet::singleton(person),
                BTreeMap::from([(ssn, Value::str(s)), (name, Value::str(n))]),
            );
        }
        (schema, db)
    }

    #[test]
    fn empty_database_is_d0() {
        let d = Instance::empty();
        assert!(d.is_empty());
        assert_eq!(d.next_oid(), Oid(1));
        assert_eq!(d.role_set(Oid(1)), ClassSet::empty());
    }

    #[test]
    fn create_bumps_next_and_occurs() {
        let (schema, db) = sample();
        assert_eq!(db.num_objects(), 2);
        assert_eq!(db.next_oid(), Oid(3));
        assert!(db.occurs(Oid(1)) && db.occurs(Oid(2)) && !db.occurs(Oid(3)));
        db.check_invariants(&schema).unwrap();
    }

    #[test]
    fn sat_selects_by_condition() {
        let (schema, db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let g = Condition::from_atoms([Atom::eq_const(ssn, "1234")]);
        assert_eq!(db.sat(person, &g), vec![Oid(1)]);
        let g2 = Condition::from_atoms([Atom::ne_const(ssn, "1234")]);
        assert_eq!(db.sat(person, &g2), vec![Oid(2)]);
        assert_eq!(db.sat(person, &Condition::empty()).len(), 2);
        // No students yet.
        let student = schema.class_id("STUDENT").unwrap();
        assert!(db.sat(student, &Condition::empty()).is_empty());
    }

    #[test]
    fn sat_agrees_with_scan_oracle() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let student = schema.class_id("STUDENT").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        db.add_classes(
            Oid(2),
            schema.up_closure_of(student),
            [(major, Value::str("CS")), (fe, Value::int(1990))],
        );
        let conds = [
            Condition::empty(),
            Condition::from_atoms([Atom::eq_const(ssn, "1234")]),
            Condition::from_atoms([Atom::eq_const(ssn, "nope")]),
            Condition::from_atoms([Atom::ne_const(ssn, "1234")]),
            Condition::from_atoms([Atom::eq_const(name, "Jim"), Atom::eq_const(major, "CS")]),
            Condition::from_atoms([Atom::eq_const(ssn, "2345"), Atom::ne_const(name, "Jim")]),
        ];
        for p in [person, student] {
            for g in &conds {
                assert_eq!(db.sat(p, g), db.sat_scan(p, g), "sat vs scan on {g:?}");
                assert_eq!(db.sat_exists(p, g), !db.sat_scan(p, g).is_empty());
            }
        }
    }

    #[test]
    fn add_remove_classes() {
        let (schema, mut db) = sample();
        let student = schema.class_id("STUDENT").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        db.add_classes(
            Oid(1),
            schema.up_closure_of(student),
            [(major, Value::str("CS")), (fe, Value::int(1990))],
        );
        db.check_invariants(&schema).unwrap();
        assert!(db.role_set(Oid(1)).contains(student));
        assert_eq!(db.objects_in(student).collect::<Vec<_>>(), vec![Oid(1)]);
        // Removing STUDENT (and its attrs) restores a plain person.
        db.remove_classes(Oid(1), schema.down_closure_of(student), [major, fe]);
        db.check_invariants(&schema).unwrap();
        assert!(!db.role_set(Oid(1)).contains(student));
        assert!(db.value(Oid(1), major).is_none());
        assert_eq!(db.num_objects_in(student), 0);
        assert_eq!(db.num_objects_with(major, &Value::str("CS")), 0);
    }

    #[test]
    fn bulk_create_matches_one_by_one_creation() {
        let schema = university_schema();
        let person = schema.class_id("PERSON").unwrap();
        let student = schema.class_id("STUDENT").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        let rows: Vec<(ClassSet, Tuple)> = (0..40)
            .map(|i| {
                // Shared Name values exercise value-index set merging;
                // alternate classes exercise both class-index slots.
                let (cs, extra) = if i % 3 == 0 {
                    (
                        schema.up_closure_of(student),
                        vec![(major, Value::str("CS")), (fe, Value::int(1990))],
                    )
                } else {
                    (ClassSet::singleton(person), vec![])
                };
                let mut pairs =
                    vec![(ssn, Value::str(&format!("s{i}"))), (name, Value::str("dup"))];
                pairs.extend(extra);
                (cs, Tuple::from_pairs(pairs))
            })
            .collect();
        // Oracle: one `create` per row, over a non-empty starting db so the
        // merge paths (existing keys, existing heap) are exercised.
        let (_, mut oracle) = sample();
        let mut bulk = oracle.clone();
        for (cs, t) in &rows {
            oracle.create(*cs, t.iter().map(|(a, v)| (a, v.clone())).collect());
        }
        let start = bulk.next_oid();
        let first = bulk.bulk_create(&rows);
        assert_eq!(first, start);
        assert_eq!(bulk, oracle, "heap triple identical to per-row creation");
        bulk.check_invariants(&schema).unwrap();
        assert_eq!(bulk.num_objects_with(name, &Value::str("dup")), 40);
        assert_eq!(bulk.num_objects_in(student), 14);
        // Appending a second batch on top of the first merges again.
        let more: Vec<(ClassSet, Tuple)> = (0..5)
            .map(|i| {
                (
                    ClassSet::singleton(person),
                    Tuple::from_pairs(vec![
                        (ssn, Value::str(&format!("t{i}"))),
                        (name, Value::str("dup")),
                    ]),
                )
            })
            .collect();
        bulk.bulk_create(&more);
        bulk.check_invariants(&schema).unwrap();
        assert_eq!(bulk.num_objects_with(name, &Value::str("dup")), 45);
    }

    #[test]
    fn delete_object_is_total() {
        let (schema, mut db) = sample();
        db.delete_object(Oid(1));
        assert!(!db.occurs(Oid(1)));
        assert_eq!(db.num_objects(), 1);
        // next is NOT reused — abstract objects are created at most once.
        assert_eq!(db.next_oid(), Oid(3));
        db.check_invariants(&schema).unwrap();
        let person = schema.class_id("PERSON").unwrap();
        assert_eq!(db.objects_in(person).collect::<Vec<_>>(), vec![Oid(2)]);
    }

    #[test]
    fn restriction_keeps_counter_and_rebuilds_indexes() {
        let (schema, db) = sample();
        let r = db.restrict(&[Oid(2)]);
        assert_eq!(r.num_objects(), 1);
        assert!(r.occurs(Oid(2)) && !r.occurs(Oid(1)));
        assert_eq!(r.next_oid(), db.next_oid());
        r.check_invariants(&schema).unwrap();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        assert_eq!(r.objects_in(person).collect::<Vec<_>>(), vec![Oid(2)]);
        // The restricted-away object's values are not indexed.
        assert_eq!(r.num_objects_with(ssn, &Value::str("1234")), 0);
        assert_eq!(r.num_objects_with(ssn, &Value::str("2345")), 1);
    }

    #[test]
    fn from_objects_rebuilds_indexes() {
        let (schema, db) = sample();
        let rebuilt = Instance::from_objects(
            db.objects().map(|o| (o, db.role_set(o), db.tuple_of(o))).collect::<Vec<_>>(),
        );
        rebuilt.check_invariants(&schema).unwrap();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        assert_eq!(rebuilt.objects_in(person).count(), 2);
        assert_eq!(
            rebuilt.sat(person, &Condition::from_atoms([Atom::eq_const(ssn, "1234")])),
            vec![Oid(1)]
        );
    }

    #[test]
    fn put_object_over_live_object_reindexes() {
        let (schema, mut db) = sample();
        let person = schema.class_id("PERSON").unwrap();
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        // Overwrite o1 with a different tuple (the undo path restores
        // captured states over whatever the transaction left behind).
        db.put_object(
            Oid(1),
            ClassSet::singleton(person),
            Tuple::from_pairs([(ssn, Value::str("9999")), (name, Value::str("John"))]),
        );
        db.check_invariants(&schema).unwrap();
        assert_eq!(db.num_objects_with(ssn, &Value::str("1234")), 0, "old value de-indexed");
        assert_eq!(
            db.sat(person, &Condition::from_atoms([Atom::eq_const(ssn, "9999")])),
            vec![Oid(1)]
        );
    }

    #[test]
    fn merge_objects_matches_one_by_one_puts_on_both_paths() {
        let (schema, base) = sample();
        let person = ClassSet::singleton(schema.class_id("PERSON").unwrap());
        let ssn = schema.attr_id("SSN").unwrap();
        let name = schema.attr_id("Name").unwrap();
        let state = |s: &str| {
            Some((person, Tuple::from_pairs([(ssn, Value::str(s)), (name, Value::str("n"))])))
        };
        // Four updates on two objects takes the bulk rebuild; one update
        // takes the per-object path. Both must equal the puts in order.
        let bulk = BTreeMap::from([
            (Oid(1), state("9999")),
            (Oid(2), None),
            (Oid(5), state("5555")),
            (Oid(7), None),
        ]);
        let single = BTreeMap::from([(Oid(2), state("2222"))]);
        for (updates, next) in [(bulk, 8), (single, 3)] {
            let mut oracle = base.clone();
            for (o, s) in updates.clone() {
                match s {
                    Some((cs, t)) => oracle.put_object(o, cs, t),
                    None => oracle.delete_object(o),
                }
            }
            oracle.set_next(next);
            let mut merged = base.clone();
            merged.merge_objects(updates, next);
            merged.check_invariants(&schema).unwrap();
            assert_eq!(merged, oracle);
            for v in ["1234", "2345", "9999", "5555", "2222"] {
                let v = Value::str(v);
                assert_eq!(merged.num_objects_with(ssn, &v), oracle.num_objects_with(ssn, &v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "recycle")]
    fn set_next_rejects_recycling_live_identifiers() {
        let (_, mut db) = sample();
        db.delete_object(Oid(2));
        // o1 still occurs: winding the counter back to 1 would let
        // `create` mint o1 a second time and corrupt the indexes.
        db.set_next(1);
    }

    #[test]
    fn set_next_to_fresh_range_is_fine() {
        let (schema, mut db) = sample();
        db.set_next(17);
        assert_eq!(db.next_oid(), Oid(17));
        db.check_invariants(&schema).unwrap();
    }

    #[test]
    fn invariant_violations_detected() {
        let (schema, mut db) = sample();
        let ga = schema.class_id("GRAD_ASSIST").unwrap();
        // Not up-closed: GRAD_ASSIST without its ancestors.
        db.membership.insert(Oid(9), ClassSet::singleton(ga));
        db.attrs.insert(Oid(9), Tuple::new());
        db.next = 10;
        assert!(db.check_invariants(&schema).is_err());
    }

    #[test]
    fn missing_attribute_detected() {
        let (schema, mut db) = sample();
        let ssn = schema.attr_id("SSN").unwrap();
        db.attrs.get_mut(&Oid(1)).unwrap().unset(ssn);
        assert_eq!(
            db.check_invariants(&schema),
            Err(ModelError::MissingValue { oid: 1, attr: ssn })
        );
    }

    #[test]
    fn extra_attribute_detected() {
        let (schema, mut db) = sample();
        let salary = schema.attr_id("Salary").unwrap();
        db.attrs.get_mut(&Oid(1)).unwrap().set(salary, Value::int(1));
        assert!(db.check_invariants(&schema).is_err());
    }

    #[test]
    fn stale_index_entries_detected() {
        let (schema, mut db) = sample();
        // Heap mutated behind the indexes' back: both directions caught.
        let ssn = schema.attr_id("SSN").unwrap();
        db.attrs.get_mut(&Oid(1)).unwrap().set(ssn, Value::str("8888"));
        let err = db.check_invariants(&schema).unwrap_err();
        assert!(format!("{err:?}").contains("index"), "got {err:?}");
    }

    #[test]
    fn snapshot_round_trips_and_rebuilds_indexes() {
        let (schema, mut db) = sample();
        let student = schema.class_id("STUDENT").unwrap();
        let major = schema.attr_id("Major").unwrap();
        let fe = schema.attr_id("FirstEnroll").unwrap();
        db.add_classes(
            Oid(2),
            schema.up_closure_of(student),
            [(major, Value::str("CS")), (fe, Value::int(1990))],
        );
        db.delete_object(Oid(1)); // next stays ahead of the live range
        let mut bytes = Vec::new();
        db.encode_snapshot(&mut bytes);
        let loaded =
            Instance::decode_snapshot(&mut crate::codec::Reader::new(&bytes)).expect("decodes");
        assert_eq!(loaded, db, "heap triple round-trips");
        // Regression: both secondary indexes must be rebuilt on load, not
        // left empty — point selects and class scans answer from them.
        loaded.check_invariants(&schema).expect("indexes rebuilt consistently");
        assert_eq!(loaded.objects_in(student).collect::<Vec<_>>(), vec![Oid(2)]);
        assert_eq!(loaded.num_objects_with(major, &Value::str("CS")), 1);
        let ssn = schema.attr_id("SSN").unwrap();
        assert_eq!(
            loaded.sat(student, &Condition::from_atoms([Atom::eq_const(ssn, "2345")])),
            vec![Oid(2)]
        );
        // Canonical: re-encoding the decoded instance is byte-identical.
        let mut again = Vec::new();
        loaded.encode_snapshot(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn snapshot_decode_rejects_corruption() {
        let (_, db) = sample();
        let mut bytes = Vec::new();
        db.encode_snapshot(&mut bytes);
        // Every strict prefix is truncated input: error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                Instance::decode_snapshot(&mut crate::codec::Reader::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // An object at/above the next counter is structurally corrupt.
        let mut bad = Vec::new();
        crate::codec::encode_u64(&mut bad, 1); // next = 1
        crate::codec::encode_u64(&mut bad, 1); // one object
        crate::codec::encode_u64(&mut bad, 5); // oid 5 ≥ next
        crate::codec::encode_idset(&mut bad, ClassSet::singleton(ClassId::from_index(0)));
        crate::codec::encode_tuple(&mut bad, &Tuple::new());
        assert!(Instance::decode_snapshot(&mut crate::codec::Reader::new(&bad)).is_err());
    }

    #[test]
    fn instances_compare_including_counter() {
        let (_, db) = sample();
        let mut db2 = db.clone();
        assert_eq!(db, db2);
        db2.set_next(17);
        assert_ne!(db, db2);
    }
}

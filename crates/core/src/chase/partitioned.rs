//! The fact-list kernels of the c-chase.
//!
//! The paper's c-chase (Section 4.3) is defined fact-at-a-time, but its
//! normalization step makes the target fragment along interval breakpoints
//! — so the concrete timeline decomposes into independent slices the same
//! way the abstract chase decomposes into epochs. The
//! [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
//! session, which runs every production chase (a one-shot `c_chase` is a
//! one-batch session), keeps each phase's facts as per-relation
//! [`FactLists`] split into a settled `pre` block and a changed `delta`
//! block, and this module holds the list-level kernels it runs on:
//!
//! * **the dirty-interval shared join** ([`shared_join_delta`] over a
//!   [`DirtyIndex`], with [`egd_ops`] on top): every tgd and egd body
//!   match that touches the delta block. A c-chase step maps the shared
//!   temporal variable `t` of `φ⁺(x̄, t)` to *one* interval, so every match
//!   lives at a single interval — one some delta fact carries. The session
//!   joins over all dirty intervals of its lists; a partition server runs
//!   the same join over its retained image, which holds exactly the facts
//!   starting in its partitions, so every match lives on one server and
//!   the servers split the work exactly;
//! * **Algorithm-1 re-fragmentation** ([`refragment_lists`]): overlap
//!   images are discovered only where they touch a *fresh* fact — a sweep
//!   join per 2-atom conjunction, the pivot-bounded generic matcher over
//!   one flat instance for wider ones — merged into groups
//!   ([`merge_image_sets`]), and every member cut at its group's interior
//!   breakpoints, plus the shared-null-base alignment cuts, to a fixpoint;
//! * **egd rewriting** ([`rewrite_values`]): one round's union-find
//!   applied to every fact, split back into unchanged and changed blocks
//!   so the next round joins only against the delta;
//! * **worker fan-out** ([`run_tasks`]): per-conjunction discovery tasks
//!   on scoped threads, merged in task order, so the result is
//!   byte-identical across thread counts.
//!
//! The equivalence argument is spelled out in `docs/parallelism.md`;
//! `tests/equivalence.rs` checks the engine against the `LegacyScan`
//! oracle.

use crate::chase::cluster::protocol::MergeOp;
use crate::chase::concrete::AnnotatedUnionFind;
use crate::error::{Result, TdxError};
use crate::normalize::{merge_image_sets, uf_find, FactRef};
use std::sync::Arc;
use tdx_logic::{Atom, RelId, Schema, Term, Var};
use tdx_storage::fxhash::{FxHashMap, FxHashSet};
use tdx_storage::{Row, SearchOptions, TemporalFact, TemporalInstance, TemporalMode, Value};
use tdx_temporal::{fragment_interval, Breakpoints, Interval, TimePoint};

/// Per-relation fact lists: the working representation between rounds.
/// `pre` holds facts unchanged since the last round, `delta` the changed
/// ones; a fact's global id is its position in `pre ++ delta`. One alias
/// crate-wide — the cluster protocol ships this exact representation, and
/// the session's materialized target lives in it between batches.
pub(crate) use crate::chase::cluster::protocol::FactLists;

/// Runs `f(0..n)` on up to `threads` scoped workers (inline when either
/// count is one) and returns the results in task order — so the merge, and
/// therefore the chase result, is deterministic regardless of thread count
/// and scheduling.
fn run_tasks<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    // Workers beyond the machine's cores only add spawn and scheduling
    // overhead — asking for 4 threads on a 1-core box must not be slower
    // than asking for 1.
    let threads = threads.min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                results.lock().expect("task results lock").push((i, r));
            });
        }
    });
    let mut out = results.into_inner().expect("workers joined");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// One body atom compiled for the shared-interval join: relation plus a
/// slot per column (a constant to filter on, or a variable slot index).
#[derive(Clone)]
struct AtomPlan {
    rel: RelId,
    slots: Vec<SlotPlan>,
}

#[derive(Clone)]
enum SlotPlan {
    Const(Value),
    Var(usize),
}

/// A conjunction compiled for dirty-interval shared joins.
#[derive(Clone)]
pub(crate) struct JoinPlan {
    atoms: Vec<AtomPlan>,
    /// Slot index → variable, in first-occurrence order.
    pub(crate) vars: Vec<Var>,
}

impl JoinPlan {
    pub(crate) fn compile(atoms: &[Atom], schema: &Schema) -> Result<JoinPlan> {
        let mut vars: Vec<Var> = Vec::new();
        let mut plans = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let rel = schema
                .rel_id(atom.relation)
                .ok_or_else(|| TdxError::Invalid(format!("unknown relation {}", atom.relation)))?;
            if schema.relation(rel).arity() != atom.arity() {
                return Err(TdxError::Invalid(format!(
                    "atom {} does not match relation arity",
                    atom.relation
                )));
            }
            let slots = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => SlotPlan::Const(Value::Const(*c)),
                    Term::Var(v) => match vars.iter().position(|w| w == v) {
                        Some(i) => SlotPlan::Var(i),
                        None => {
                            vars.push(*v);
                            SlotPlan::Var(vars.len() - 1)
                        }
                    },
                })
                .collect();
            plans.push(AtomPlan { rel, slots });
        }
        Ok(JoinPlan { atoms: plans, vars })
    }

    fn slot_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|w| *w == v)
    }
}

/// An egd body compiled for the shared join, with the slots of the two
/// variables it equates.
#[derive(Clone)]
pub(crate) struct EgdPlan {
    body: JoinPlan,
    lhs: usize,
    rhs: usize,
}

impl EgdPlan {
    pub(crate) fn compile(body: &[Atom], lhs: Var, rhs: Var, schema: &Schema) -> Result<EgdPlan> {
        let body = JoinPlan::compile(body, schema)?;
        let slot = |v: Var, side: &str| {
            body.slot_of(v)
                .ok_or_else(|| TdxError::Invalid(format!("egd {side} not in body")))
        };
        Ok(EgdPlan {
            lhs: slot(lhs, "lhs")?,
            rhs: slot(rhs, "rhs")?,
            body,
        })
    }
}

/// A per-phase candidate index for dirty-interval shared joins: for every
/// relation, the facts living at a *dirty interval* (an interval some delta
/// fact carries, in any relation), bucketed by interval and tagged fresh
/// when drawn from the delta block. Built once per phase with a single
/// scan per relation and shared by every join of that phase.
pub(crate) struct DirtyIndex {
    /// Sorted dirty intervals (deterministic enumeration order).
    intervals: Vec<Interval>,
    /// Per relation: interval → candidate facts `(global id, fresh)`.
    buckets: Vec<FxHashMap<Interval, Vec<(u32, bool)>>>,
}

impl DirtyIndex {
    /// Indexes every interval some delta fact carries.
    pub(crate) fn build<L: AsRef<[TemporalFact]>>(pre: &[L], delta: &[L]) -> DirtyIndex {
        let mut dirty: FxHashSet<Interval> = Default::default();
        for facts in delta {
            for fact in facts.as_ref() {
                dirty.insert(fact.interval);
            }
        }
        let mut buckets: Vec<FxHashMap<Interval, Vec<(u32, bool)>>> = Vec::with_capacity(pre.len());
        for (p, d) in pre.iter().zip(delta.iter()) {
            let (p, d) = (p.as_ref(), d.as_ref());
            let mut by_iv: FxHashMap<Interval, Vec<(u32, bool)>> = Default::default();
            if !dirty.is_empty() {
                for (i, fact) in p.iter().chain(d.iter()).enumerate() {
                    if dirty.contains(&fact.interval) {
                        by_iv
                            .entry(fact.interval)
                            .or_default()
                            .push((i as u32, i >= p.len()));
                    }
                }
            }
            buckets.push(by_iv);
        }
        let mut intervals: Vec<Interval> = dirty.into_iter().collect();
        intervals.sort_unstable();
        DirtyIndex { intervals, buckets }
    }
}

/// The one chase join: enumerates every [`TemporalMode::Shared`] match of
/// `plan` over `pre ++ delta` whose image touches at least one delta fact,
/// exactly once, at the index's dirty intervals in ascending order. Shared
/// matches bind all atoms to one interval, so only a dirty interval can
/// host one; within an interval the join backtracks over the per-atom
/// candidate buckets, and settled-only combinations are dropped at the
/// leaf — they were enumerated in the round or batch that last changed one
/// of their facts. `emit` receives the variable bindings (slot order) and
/// the shared interval.
pub(crate) fn shared_join_delta<L: AsRef<[TemporalFact]>>(
    plan: &JoinPlan,
    pre: &[L],
    delta: &[L],
    idx: &DirtyIndex,
    mut emit: impl FnMut(&[Value], Interval),
) {
    let mut bindings: Vec<Option<Value>> = vec![None; plan.vars.len()];
    let mut out: Vec<Value> = Vec::with_capacity(plan.vars.len());
    let mut newly: Vec<usize> = Vec::new();
    for &iv in &idx.intervals {
        let cands: Vec<&[(u32, bool)]> = match plan
            .atoms
            .iter()
            .map(|ap| {
                idx.buckets[ap.rel.0 as usize]
                    .get(&iv)
                    .map(|b| b.as_slice())
            })
            .collect::<Option<Vec<_>>>()
        {
            Some(c) => c,
            None => continue, // some atom has no candidate at this interval
        };
        descend(
            plan,
            pre,
            delta,
            &cands,
            0,
            0,
            &mut bindings,
            &mut newly,
            &mut out,
            iv,
            &mut emit,
        );
    }
}

/// Backtracking over atoms within one interval's candidate buckets.
#[allow(clippy::too_many_arguments)]
fn descend<L: AsRef<[TemporalFact]>>(
    plan: &JoinPlan,
    pre: &[L],
    delta: &[L],
    cands: &[&[(u32, bool)]],
    ai: usize,
    fresh: usize,
    bindings: &mut Vec<Option<Value>>,
    newly: &mut Vec<usize>,
    out: &mut Vec<Value>,
    iv: Interval,
    emit: &mut impl FnMut(&[Value], Interval),
) {
    if ai == plan.atoms.len() {
        if fresh > 0 {
            out.clear();
            out.extend(bindings.iter().map(|b| b.expect("all slots bound")));
            emit(out, iv);
        }
        return;
    }
    let rel = plan.atoms[ai].rel;
    'facts: for &(gid, is_fresh) in cands[ai].iter() {
        let fact = fact_at(pre, delta, rel, gid);
        let newly_from = newly.len();
        for (col, s) in plan.atoms[ai].slots.iter().enumerate() {
            let ok = match s {
                SlotPlan::Const(v) => fact.data[col] == *v,
                SlotPlan::Var(slot) => match bindings[*slot] {
                    Some(b) => fact.data[col] == b,
                    None => {
                        bindings[*slot] = Some(fact.data[col]);
                        newly.push(*slot);
                        true
                    }
                },
            };
            if !ok {
                for &u in &newly[newly_from..] {
                    bindings[u] = None;
                }
                newly.truncate(newly_from);
                continue 'facts;
            }
        }
        descend(
            plan,
            pre,
            delta,
            cands,
            ai + 1,
            fresh + usize::from(is_fresh),
            bindings,
            newly,
            out,
            iv,
            emit,
        );
        for &u in &newly[newly_from..] {
            bindings[u] = None;
        }
        newly.truncate(newly_from);
    }
}

/// The egd half of the kernel: for each egd in order, every delta-touching
/// body match (at the index's dirty intervals, ascending) that equates two
/// distinct values, as a `(egd index, lhs, rhs, interval)` merge op. The
/// session folds this sequence as is; the coordinator restores the same
/// (egd, interval) order across partitions before it folds.
pub(crate) fn egd_ops<L: AsRef<[TemporalFact]>>(
    egds: &[EgdPlan],
    pre: &[L],
    delta: &[L],
    idx: &DirtyIndex,
    mut emit: impl FnMut(MergeOp),
) {
    for (ei, ep) in egds.iter().enumerate() {
        shared_join_delta(&ep.body, pre, delta, idx, |vals, iv| {
            let (a, b) = (vals[ep.lhs], vals[ep.rhs]);
            if a != b {
                emit((ei as u32, a, b, iv));
            }
        });
    }
}

/// A 2-atom conjunction compiled for the sweep join: per-atom constant and
/// intra-atom-equality filters, plus the cross-atom join columns.
struct PairSpec {
    rels: [RelId; 2],
    consts: [Vec<(usize, Value)>; 2],
    intra: [Vec<(usize, usize)>; 2],
    /// `(col in atom 0, col in atom 1)` pairs that must be equal.
    joins: Vec<(usize, usize)>,
}

impl PairSpec {
    /// Compiles a 2-atom conjunction; `None` when a relation is unknown
    /// (the caller falls back to the generic matcher, which reports the
    /// proper error).
    fn compile(atoms: &[Atom], schema: &Schema) -> Option<PairSpec> {
        let mut rels = [RelId(0); 2];
        let mut consts: [Vec<(usize, Value)>; 2] = [Vec::new(), Vec::new()];
        let mut intra: [Vec<(usize, usize)>; 2] = [Vec::new(), Vec::new()];
        let mut joins = Vec::new();
        let mut first_of: Vec<(Var, usize, usize)> = Vec::new(); // var → (atom, col)
        for (ai, atom) in atoms.iter().enumerate() {
            rels[ai] = schema.rel_id(atom.relation)?;
            if schema.relation(rels[ai]).arity() != atom.arity() {
                return None;
            }
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => consts[ai].push((col, Value::Const(*c))),
                    Term::Var(v) => match first_of.iter().find(|(w, _, _)| w == v) {
                        None => first_of.push((*v, ai, col)),
                        Some(&(_, fa, fc)) => {
                            if fa == ai {
                                intra[ai].push((fc, col));
                            } else {
                                joins.push((fc, col));
                            }
                        }
                    },
                }
            }
        }
        Some(PairSpec {
            rels,
            consts,
            intra,
            joins,
        })
    }
}

/// Packs a fact reference into the discovery dedup key.
fn pack_ref((rel, gid): FactRef) -> u64 {
    ((rel.0 as u64) << 32) | gid as u64
}

/// Inverse of [`pack_ref`].
fn unpack_ref(k: u64) -> FactRef {
    (RelId((k >> 32) as u32), k as u32)
}

/// Sweep-based overlap join for a 2-atom conjunction over the global fact
/// lists — the list kernel's replacement for backtracking image
/// discovery. Candidates are filtered per atom, bucketed by join key,
/// sorted by interval start, and swept: a pair is emitted iff the two
/// intervals overlap (for two atoms, pairwise overlap *is* the non-empty
/// common intersection of `TemporalMode::FreeOverlapping`). Diagonal pairs
/// (both atoms on one fact) are singleton images and contribute nothing to
/// Algorithm 1's groups, so they are skipped. Only pairs touching a fresh
/// (just-changed) fact — global id at or past `fresh_start` of its
/// relation — are emitted: the semi-naive restriction of incremental
/// renormalization, since a pair of settled facts was already discovered,
/// and aligned, in the round that last changed one of them.
fn sweep_lists(
    pre: &FactLists,
    delta: &FactLists,
    fresh_start: &[usize],
    spec: &PairSpec,
    mut emit: impl FnMut(FactRef, FactRef),
) {
    // Per join key, the candidate (interval, global id, fresh) entries of
    // each atom side. Keys are *hashes* of the joined values — no per-fact
    // allocation; a hash collision only groups unrelated facts into one
    // bucket, and the equality re-check at emit time filters them out.
    type Entry = (Interval, u32, bool);
    let key_hash = |fact: &TemporalFact, ai: usize| -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tdx_storage::fxhash::FxHasher::default();
        for &(c0, c1) in &spec.joins {
            fact.data[if ai == 0 { c0 } else { c1 }].hash(&mut h);
        }
        h.finish()
    };
    let passes = |fact: &TemporalFact, ai: usize| -> bool {
        !spec.consts[ai]
            .iter()
            .any(|&(col, ref v)| fact.data[col] != *v)
            && !spec.intra[ai]
                .iter()
                .any(|&(c1, c2)| fact.data[c1] != fact.data[c2])
    };
    // Only join keys carried by some fresh fact can contribute a new pair,
    // so collect the fresh keys per side first and skip every settled fact
    // whose key matches neither — the scan over settled facts then costs
    // one cheap hash each instead of bucket insertions.
    let mut fresh_keys: [FxHashSet<u64>; 2] = [Default::default(), Default::default()];
    for (ai, keys) in fresh_keys.iter_mut().enumerate() {
        let r = spec.rels[ai].0 as usize;
        for fact in &delta[r][fresh_start[r] - pre[r].len()..] {
            if passes(fact, ai) {
                keys.insert(key_hash(fact, ai));
            }
        }
    }
    if fresh_keys[0].is_empty() && fresh_keys[1].is_empty() {
        return; // nothing fresh joins this conjunction
    }
    let mut buckets: FxHashMap<u64, [Vec<Entry>; 2]> = FxHashMap::default();
    for ai in 0..2 {
        let r = spec.rels[ai].0 as usize;
        for (gid, fact) in pre[r].iter().chain(delta[r].iter()).enumerate() {
            if !passes(fact, ai) {
                continue;
            }
            let is_fresh = gid >= fresh_start[r];
            let key = key_hash(fact, ai);
            if !is_fresh && !fresh_keys[1 - ai].contains(&key) {
                continue; // cannot pair with any fresh fact
            }
            buckets.entry(key).or_default()[ai].push((fact.interval, gid as u32, is_fresh));
        }
    }
    let (ra, rb) = (spec.rels[0], spec.rels[1]);
    for [a_side, b_side] in buckets.values_mut() {
        if a_side.is_empty() || b_side.is_empty() {
            continue;
        }
        a_side.sort_unstable_by_key(|e| e.0.start());
        b_side.sort_unstable_by_key(|e| e.0.start());
        for &(aiv, agid, afresh) in a_side.iter() {
            for &(biv, bgid, bfresh) in b_side.iter() {
                if tdx_temporal::Endpoint::Fin(biv.start()) >= aiv.end() {
                    break; // b and everything after starts at/after a ends
                }
                if !(afresh || bfresh) || !aiv.overlaps(&biv) {
                    continue;
                }
                if ra == rb && agid == bgid {
                    continue; // singleton image
                }
                // Re-check the join columns: bucket keys are hashes.
                if !spec.joins.is_empty() {
                    let fa = fact_at(pre, delta, ra, agid);
                    let fb = fact_at(pre, delta, rb, bgid);
                    if spec
                        .joins
                        .iter()
                        .any(|&(c0, c1)| fa.data[c0] != fb.data[c1])
                    {
                        continue;
                    }
                }
                emit((ra, agid), (rb, bgid));
            }
        }
    }
}

/// The fact with global id `gid` inside the `pre ++ delta` lists.
pub(crate) fn fact_at<'a, L: AsRef<[TemporalFact]>>(
    pre: &'a [L],
    delta: &'a [L],
    rel: RelId,
    gid: u32,
) -> &'a TemporalFact {
    let (pre, delta) = (pre[rel.0 as usize].as_ref(), delta[rel.0 as usize].as_ref());
    let g = gid as usize;
    if g < pre.len() {
        &pre[g]
    } else {
        &delta[g - pre.len()]
    }
}

/// Image discovery for Algorithm 1 over the working fact lists,
/// restricted to images touching a fresh fact (global id at or past
/// `fresh_start` of its relation).
///
/// Single-atom conjunctions are skipped outright: their images are
/// singletons, which never add members to a merged group and never cut (a
/// fact is aligned with itself), so they cannot change the output. 2-atom
/// conjunctions — every dependency body in the scenario suite — go through
/// the [`sweep_lists`] overlap join, one parallel task per conjunction, with
/// no store build at all. Wider conjunctions run the generic backtracking
/// matcher over one flat instance of `pre ++ delta`, one task per
/// (conjunction, pivot atom): the pivot ranges over the fresh facts, the
/// atoms before it over the settled ones and the atoms after it over
/// everything, so each image with a fresh member is found under exactly
/// one pivot — its first fresh atom. The fresh facts of a relation are
/// always a contiguous suffix of its delta block ([`apply_cuts`] appends
/// them last), so each bound is one id range.
fn discover_images(
    schema: &Arc<Schema>,
    pre: &FactLists,
    delta: &FactLists,
    fresh_start: &[usize],
    conjs: &[&[Atom]],
    threads: usize,
) -> Result<Vec<Vec<FactRef>>> {
    // Images are deduplicated as packed `(rel << 32 | gid)` keys — a pair
    // for the ubiquitous 2-atom bodies, a heap key above — so duplicate
    // enumerations (symmetric self-joins) cost a hash probe, not an
    // allocation.
    let mut specs: Vec<PairSpec> = Vec::new();
    let mut generic: Vec<&[Atom]> = Vec::new();
    for &atoms in conjs {
        if atoms.len() < 2 {
            continue;
        }
        match (atoms.len() == 2)
            .then(|| PairSpec::compile(atoms, schema))
            .flatten()
        {
            Some(spec) => specs.push(spec),
            None => generic.push(atoms),
        }
    }
    // One sweep task per spec, pairs deduplicated per spec as packed
    // sorted key pairs.
    let swept: Vec<(u64, u64)> = run_tasks(threads, specs.len(), |i| {
        let mut pairs: FxHashSet<(u64, u64)> = Default::default();
        let mut out: Vec<(u64, u64)> = Vec::new();
        sweep_lists(pre, delta, fresh_start, &specs[i], |a, b| {
            let (ka, kb) = (pack_ref(a), pack_ref(b));
            let key = if ka <= kb { (ka, kb) } else { (kb, ka) };
            if pairs.insert(key) {
                out.push(key);
            }
        });
        out
    })
    .into_iter()
    .flatten()
    .collect();
    let mut from_matcher: Vec<Result<Vec<Vec<u64>>>> = Vec::new();
    if !generic.is_empty() {
        // Inserted in `pre ++ delta` order, so a fact's id in the flat
        // instance is its global id.
        let mut flat = TemporalInstance::new(Arc::clone(schema));
        for (r, (p, d)) in pre.iter().zip(delta).enumerate() {
            for fact in p.iter().chain(d) {
                let inserted = flat.insert(RelId(r as u32), Arc::clone(&fact.data), fact.interval);
                assert!(inserted, "working fact lists hold a duplicate fact");
            }
        }
        let tasks: Vec<(&[Atom], usize)> = generic
            .iter()
            .flat_map(|&atoms| (0..atoms.len()).map(move |pivot| (atoms, pivot)))
            .collect();
        from_matcher = run_tasks(threads, tasks.len(), |t| -> Result<Vec<Vec<u64>>> {
            let (atoms, pivot) = tasks[t];
            let bounds: Vec<(u32, u32)> = atoms
                .iter()
                .enumerate()
                .map(|(j, atom)| {
                    // An unknown relation keeps the full range; the matcher
                    // reports it.
                    let fresh = schema
                        .rel_id(atom.relation)
                        .map_or(0, |rel| fresh_start[rel.0 as usize] as u32);
                    match j.cmp(&pivot) {
                        std::cmp::Ordering::Less => (0, fresh),
                        std::cmp::Ordering::Equal => (fresh, u32::MAX),
                        std::cmp::Ordering::Greater => (0, u32::MAX),
                    }
                })
                .collect();
            let mut seen: FxHashSet<Vec<u64>> = Default::default();
            let mut out = Vec::new();
            let mut key: Vec<u64> = Vec::with_capacity(atoms.len());
            flat.find_matches_bounded(
                atoms,
                TemporalMode::FreeOverlapping,
                &[],
                None,
                SearchOptions::default(),
                &bounds,
                |m| {
                    key.clear();
                    key.extend(m.atom_rows().iter().map(|&r| pack_ref(r)));
                    key.sort_unstable();
                    key.dedup();
                    if key.len() >= 2 && seen.insert(key.clone()) {
                        out.push(key.clone());
                    }
                    true
                },
            )?;
            Ok(out)
        });
    }
    let mut seen: FxHashSet<Vec<u64>> = Default::default();
    let mut out: Vec<Vec<FactRef>> = Vec::new();
    for image in swept.into_iter().map(|(a, b)| vec![a, b]).chain(
        from_matcher
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .flatten(),
    ) {
        if seen.insert(image.clone()) {
            out.push(image.iter().map(|&k| unpack_ref(k)).collect());
        }
    }
    Ok(out)
}

/// Adds the shared-null-base alignment cuts (see `align_shared_nulls` in the
/// `LegacyScan` oracle): sibling occurrences of one annotated null must stay
/// fragmented at common endpoints so the `(base, interval)`-keyed egd
/// rewrite touches all of them alike. Computed globally over the fact
/// lists — a linear pass plus a union-find, no matching, no store.
fn base_align_cuts(
    pre: &FactLists,
    delta: &FactLists,
    cuts: &mut FxHashMap<(RelId, u32), Vec<TimePoint>>,
) {
    // Facts containing nulls, union-found through shared bases.
    let mut facts: Vec<(RelId, u32, Interval)> = Vec::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut owner: FxHashMap<tdx_storage::NullId, usize> = Default::default();
    for (r, (p, d)) in pre.iter().zip(delta.iter()).enumerate() {
        let rel = RelId(r as u32);
        for (gid, fact) in p.iter().chain(d.iter()).enumerate() {
            let mut entry: Option<usize> = None;
            for v in fact.data.iter() {
                if let Value::Null(b) = v {
                    let i = *entry.get_or_insert_with(|| {
                        facts.push((rel, gid as u32, fact.interval));
                        parent.push(facts.len() - 1);
                        facts.len() - 1
                    });
                    match owner.get(b) {
                        Some(&j) => {
                            let (ri, rj) = (uf_find(&mut parent, i), uf_find(&mut parent, j));
                            if ri != rj {
                                parent[ri] = rj;
                            }
                        }
                        None => {
                            owner.insert(*b, i);
                        }
                    }
                }
            }
        }
    }
    let mut members: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for i in 0..facts.len() {
        let root = uf_find(&mut parent, i);
        members.entry(root).or_default().push(i);
    }
    for ms in members.values() {
        if ms.len() < 2 {
            continue;
        }
        let bps = Breakpoints::from_intervals(ms.iter().map(|&i| &facts[i].2));
        for &i in ms {
            let (rel, gid, iv) = facts[i];
            let pts: Vec<TimePoint> = bps.interior_of(&iv).collect();
            if !pts.is_empty() {
                cuts.entry((rel, gid)).or_default().extend(pts);
            }
        }
    }
}

/// The per-fact cut points one fixpoint iteration wants applied.
type CutMap = FxHashMap<(RelId, u32), Vec<TimePoint>>;

/// Naive normalization's cut rule: every fact is cut at every interior
/// endpoint of the global breakpoint set.
fn naive_cuts(pre: &FactLists, delta: &FactLists, cuts: &mut CutMap) {
    let bps = Breakpoints::from_intervals(
        pre.iter()
            .chain(delta.iter())
            .flat_map(|facts| facts.iter().map(|f| &f.interval)),
    );
    for (r, (p, d)) in pre.iter().zip(delta.iter()).enumerate() {
        for (gid, fact) in p.iter().chain(d.iter()).enumerate() {
            let pts: Vec<TimePoint> = bps.interior_of(&fact.interval).collect();
            if !pts.is_empty() {
                cuts.insert((RelId(r as u32), gid as u32), pts);
            }
        }
    }
}

/// Algorithm 1's cut rule over discovered overlap images: merge the images
/// into groups ([`merge_image_sets`]), then cut every member at the group's
/// interior breakpoints. Order-insensitive in the image list — the group
/// partition depends only on the image *set* and `Breakpoints` sorts.
fn image_cuts(images: &[Vec<FactRef>], pre: &FactLists, delta: &FactLists, cuts: &mut CutMap) {
    for group in merge_image_sets(images) {
        let ivs: Vec<Interval> = group
            .iter()
            .map(|&(rel, gid)| fact_at(pre, delta, rel, gid).interval)
            .collect();
        let bps = Breakpoints::from_intervals(ivs.iter());
        for (&(rel, gid), iv) in group.iter().zip(ivs.iter()) {
            let pts: Vec<TimePoint> = bps.interior_of(iv).collect();
            if !pts.is_empty() {
                cuts.entry((rel, gid)).or_default().extend(pts);
            }
        }
    }
}

/// Applies one iteration's cuts: cut facts dissolve into their fragments,
/// fragments join the delta block (they are "changed" for the next round's
/// matching) and become the next iteration's fresh set. Fragments are
/// appended after every uncut fact, so the fresh set is a suffix of each
/// relation's delta block. Returns the new `(pre, delta, fresh_start)`,
/// where `fresh_start[r]` is the global id of relation `r`'s first fresh
/// fact.
fn apply_cuts(
    nrels: usize,
    cuts: &CutMap,
    mut pre: FactLists,
    mut delta: FactLists,
) -> (FactLists, FactLists, Vec<usize>) {
    // Relations without cuts move over wholesale; within a cut relation,
    // only facts sharing a row with some cut fact can ever collide with a
    // fragment, so the dedup set tracks exactly those — the rest of the
    // relation is copied without hashing.
    let row_hash = |data: &Row| -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tdx_storage::fxhash::FxHasher::default();
        data.hash(&mut h);
        h.finish()
    };
    let mut cut_rows: Vec<Option<FxHashSet<u64>>> = vec![None; nrels];
    for &(rel, gid) in cuts.keys() {
        let fact = fact_at(&pre, &delta, rel, gid);
        cut_rows[rel.0 as usize]
            .get_or_insert_with(Default::default)
            .insert(row_hash(&fact.data));
    }
    let mut npre: FactLists = vec![Vec::new(); nrels];
    let mut ndelta: FactLists = vec![Vec::new(); nrels];
    let mut fresh_start: Vec<usize> = vec![0; nrels];
    for r in 0..nrels {
        let rel = RelId(r as u32);
        let pre_len = pre[r].len();
        let Some(rows) = &cut_rows[r] else {
            npre[r] = std::mem::take(&mut pre[r]);
            ndelta[r] = std::mem::take(&mut delta[r]);
            fresh_start[r] = npre[r].len() + ndelta[r].len();
            continue;
        };
        let mut kept: FxHashSet<(Row, Interval)> = Default::default();
        // Uncut facts first, so a fragment colliding with an existing
        // fact dissolves into it.
        for (gid, fact) in pre[r].iter().chain(delta[r].iter()).enumerate() {
            if cuts.contains_key(&(rel, gid as u32)) {
                continue;
            }
            if rows.contains(&row_hash(&fact.data))
                && !kept.insert((Arc::clone(&fact.data), fact.interval))
            {
                continue; // duplicate of an already-kept collision candidate
            }
            if gid < pre_len {
                npre[r].push(fact.clone());
            } else {
                ndelta[r].push(fact.clone());
            }
        }
        fresh_start[r] = npre[r].len() + ndelta[r].len();
        for (gid, fact) in pre[r].iter().chain(delta[r].iter()).enumerate() {
            if let Some(pts) = cuts.get(&(rel, gid as u32)) {
                let bps = Breakpoints::from_points(pts.iter().copied());
                for iv in fragment_interval(&fact.interval, &bps) {
                    if kept.insert((Arc::clone(&fact.data), iv)) {
                        ndelta[r].push(TemporalFact {
                            data: Arc::clone(&fact.data),
                            interval: iv,
                        });
                    }
                }
            }
        }
    }
    (npre, ndelta, fresh_start)
}

/// Re-fragments the working fact lists to a fixpoint. Per iteration it
/// collects cuts from (a) candidate groups of `renorm_bodies` (sweep/matcher
/// discovery, restricted to images touching a fresh fact), or every fact at
/// every endpoint (when `naive`), plus (b) shared-base alignment; applies
/// them; and stops once no cut remains. Fragments join the delta block
/// (they are "changed" for the next round's matching) and are the next
/// iteration's fresh set. `None` bodies run the alignment cuts only.
pub(crate) fn refragment_lists(
    schema: &Arc<Schema>,
    threads: usize,
    renorm_bodies: Option<&[&[Atom]]>,
    naive: bool,
    mut pre: FactLists,
    mut delta: FactLists,
) -> Result<(FactLists, FactLists)> {
    let nrels = schema.len();
    let mut fresh_start: Vec<usize> = pre.iter().map(Vec::len).collect();
    loop {
        let mut cuts = CutMap::default();
        if naive && renorm_bodies.is_some() {
            naive_cuts(&pre, &delta, &mut cuts);
        } else if let Some(conjs) = renorm_bodies {
            if !conjs.is_empty() {
                let images = discover_images(schema, &pre, &delta, &fresh_start, conjs, threads)?;
                image_cuts(&images, &pre, &delta, &mut cuts);
            }
        }
        base_align_cuts(&pre, &delta, &mut cuts);
        if cuts.is_empty() {
            return Ok((pre, delta));
        }
        (pre, delta, fresh_start) = apply_cuts(nrels, &cuts, pre, delta);
    }
}

/// Rewrites every fact through the round's union-find, splitting the result
/// into unchanged (`pre`) and changed (`delta`) blocks. Facts that become
/// identical merge (first occurrence wins).
pub(crate) fn rewrite_values(
    schema: &Arc<Schema>,
    pre: &FactLists,
    delta: &FactLists,
    uf: &mut AnnotatedUnionFind,
) -> (FactLists, FactLists) {
    let nrels = schema.len();
    let mut npre: FactLists = vec![Vec::new(); nrels];
    let mut ndelta: FactLists = vec![Vec::new(); nrels];
    for r in 0..nrels {
        let mut kept: FxHashSet<(tdx_storage::Row, Interval)> = Default::default();
        for fact in pre[r].iter().chain(delta[r].iter()) {
            // Only null-bearing facts can change under the union-find —
            // everything else keeps its row without re-resolving.
            let has_null = fact.data.iter().any(|v| matches!(v, Value::Null(_)));
            let (new_data, changed) = if has_null {
                let new_data: tdx_storage::Row = fact
                    .data
                    .iter()
                    .map(|v| uf.resolve(v, fact.interval))
                    .collect();
                let changed = new_data[..] != fact.data[..];
                (new_data, changed)
            } else {
                (Arc::clone(&fact.data), false)
            };
            if kept.insert((Arc::clone(&new_data), fact.interval)) {
                let out = TemporalFact {
                    data: new_data,
                    interval: fact.interval,
                };
                if changed {
                    ndelta[r].push(out);
                } else {
                    npre[r].push(out);
                }
            }
        }
    }
    (npre, ndelta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::concrete::{c_chase_with, ChaseOptions};
    use crate::error::TdxError;
    use crate::hom::hom_equivalent;
    use crate::semantics::semantics;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd, SchemaMapping};

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn paper_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> Emp(n,c,s)").unwrap().named("st1"),
                parse_tgd("E(n,c) & S(n,s) -> Emp(n,c,s)")
                    .unwrap()
                    .named("st2"),
            ],
            vec![parse_egd("Emp(n,c,s) & Emp(n,c,s2) -> s = s2")
                .unwrap()
                .named("fd")],
        )
        .unwrap()
    }

    fn figure4(mapping: &SchemaMapping) -> TemporalInstance {
        let mut i = TemporalInstance::new(Arc::new(mapping.source().clone()));
        i.insert_strs("E", &["Ada", "IBM"], iv(2012, 2014));
        i.insert_strs("E", &["Ada", "Google"], Interval::from(2014));
        i.insert_strs("E", &["Bob", "IBM"], iv(2013, 2018));
        i.insert_strs("S", &["Ada", "18k"], Interval::from(2013));
        i.insert_strs("S", &["Bob", "13k"], Interval::from(2015));
        i
    }

    #[test]
    fn paper_example_matches_sequential_engine() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let seq = c_chase_with(&source, &mapping, &ChaseOptions::legacy_scan()).unwrap();
        for threads in [1usize, 2, 4] {
            let par = c_chase_with(
                &source,
                &mapping,
                &ChaseOptions::partitioned_parallel(threads),
            )
            .unwrap();
            assert!(
                hom_equivalent(&semantics(&seq.target), &semantics(&par.target)),
                "threads = {threads}"
            );
            assert_eq!(par.target.nulls().len(), seq.target.nulls().len());
            assert_eq!(par.stats.tgd_steps, seq.stats.tgd_steps);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let one = c_chase_with(&source, &mapping, &ChaseOptions::partitioned_parallel(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let many = c_chase_with(
                &source,
                &mapping,
                &ChaseOptions::partitioned_parallel(threads),
            )
            .unwrap();
            assert_eq!(one.target, many.target, "threads = {threads}");
        }
    }

    #[test]
    fn failure_on_conflicting_sources() {
        let mapping = paper_mapping();
        let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "18k"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "20k"], iv(5, 15));
        for threads in [1usize, 4] {
            let err = c_chase_with(&ic, &mapping, &ChaseOptions::partitioned_parallel(threads))
                .unwrap_err();
            assert!(
                matches!(err, TdxError::ChaseFailure { .. }),
                "threads = {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_source() {
        let mapping = paper_mapping();
        let ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        let result = c_chase_with(&ic, &mapping, &ChaseOptions::partitioned_parallel(4)).unwrap();
        assert!(result.target.is_empty());
        assert_eq!(result.stats.tgd_steps, 0);
    }

    #[test]
    fn trace_and_options_are_honored() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let opts = ChaseOptions {
            record_trace: true,
            coalesce_result: true,
            ..ChaseOptions::partitioned_parallel(2)
        };
        let result = c_chase_with(&source, &mapping, &opts).unwrap();
        assert!(result.target.is_coalesced());
        assert!(result
            .trace
            .iter()
            .any(|l| l.contains("timeline partitions")));
        // Paper-faithful and naive-normalization variants stay equivalent.
        let seq = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap();
        for variant in [
            ChaseOptions {
                renormalize_between_egd_rounds: false,
                ..ChaseOptions::partitioned_parallel(2)
            },
            ChaseOptions {
                naive_normalization: true,
                ..ChaseOptions::partitioned_parallel(2)
            },
        ] {
            let par = c_chase_with(&source, &mapping, &variant).unwrap();
            assert!(hom_equivalent(
                &semantics(&seq.target),
                &semantics(&par.target)
            ));
        }
    }
}

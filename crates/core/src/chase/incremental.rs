//! Incremental cross-shard exchange: delta-batch re-chase over a
//! materialized target.
//!
//! [`IncrementalExchange`] is a stateful c-chase session: it keeps the
//! chased target materialized between calls, accepts [`DeltaBatch`]es of
//! source insertions (and interval-refining updates), and brings the
//! target back to a chase fixpoint by re-running tgd/egd work only where
//! the batch actually landed, instead of chasing the whole source from
//! scratch.
//!
//! # How a batch is absorbed
//!
//! 1. **Incremental renormalization.** The batch's facts join the
//!    normalized source's delta block and run through the
//!    `refragment_lists` fixpoint the egd rounds use too: Algorithm-1
//!    cut discovery restricted to images touching a *fresh* fact, so
//!    long-settled source facts are only re-fragmented when a new fact
//!    actually joins them.
//! 2. **Delta-scoped tgd matching.** A [`TemporalMode::Shared`] match binds
//!    every body atom to one interval, so new matches can only exist at
//!    *dirty intervals* — intervals carrying at least one changed fact.
//!    The session runs the chase's one join kernel, `shared_join_delta`
//!    of `chase/partitioned.rs`, over the working fact lists: it joins per dirty interval and emits
//!    only matches that touch the delta block, with no store build. The
//!    partition servers of a distributed session run the same kernel over
//!    their retained images, each on the dirty intervals whose start
//!    partition it owns, so both sites see one match order.
//! 3. **Restricted checks across batches.** "Has this hom an extension into
//!    the target?" must consult everything previous batches produced. The
//!    session keeps its per-tgd memo sets *persistent*:
//!    a memo entry `(determined values, interval)` records that a covering
//!    head fact was inserted, and neither egd rewriting (values only get
//!    more specific) nor re-fragmentation (fragments cover their original)
//!    can ever invalidate that coverage — so a memo hit stays a sound
//!    reason to suppress the step in every later batch.
//! 4. **Egd fixpoint over the boundary-reconciliation set.** New target
//!    facts plus every settled fact they forced to fragment form the delta
//!    block; egd matching is again dirty-interval scoped and
//!    delta-restricted, each round folds its merge ops in (egd, interval)
//!    order through the coordinator's `fold_merge_ops` into an annotated
//!    union-find, rewrites and re-fragments via `refragment_lists`. A match among
//!    settled facts needs no revisit: the previous batch left them at an
//!    egd fixpoint, so re-enumerating it would find both sides already
//!    equal — the semi-naive argument of the egd rounds, carried across
//!    batches.
//! 5. **Breakpoint maintenance.** The timeline partition is re-coarsened
//!    when the endpoint histogram shifts (endpoint count doubled, or the
//!    per-partition endpoint distribution became badly imbalanced —
//!    [`TimelinePartition::imbalance`]); nothing in the session state is
//!    keyed on the partition, so re-cutting is free.
//!
//! Failure handling: an egd equating two distinct constants means the
//! *accumulated* source admits no solution. The session rolls the batch
//! back (the target is rebuilt from the pre-batch source, which was
//! consistent) and returns the failure, staying usable.
//!
//! The session is the one production chase engine: a one-shot
//! [`c_chase_with`](crate::chase::concrete::c_chase_with) on the
//! partitioned or distributed engine opens a fresh session and applies the
//! whole source as one batch (`IncrementalExchange::chase_one_batch`) —
//! against empty settled lists every fact is fresh, so the delta-scoped
//! phases above are exactly the full chase.
//!
//! The correctness oracle is hom-equivalence to a from-scratch chase of the
//! accumulated source after every batch (`tests/incremental.rs`); the
//! argument is spelled out in `docs/incremental.md`.

use crate::chase::cluster::{
    classify_check, fold_merge_ops, is_transport_error, memo_probe_key, resolve_transport,
    spawner_for, Check, DistributedCluster, Hom, MergeOp, TrafficStats, TransportSpawner,
};
use crate::chase::concrete::{
    instantiate, AnnotatedUnionFind, CChaseResult, ChaseEngine, ChaseOptions, ChaseStats,
};
use crate::chase::partitioned::{
    egd_ops, refragment_lists, rewrite_values, shared_join_delta, DirtyIndex, EgdPlan, FactLists,
    JoinPlan,
};
use crate::error::{Result, TdxError};
use crate::query::cache::{DirtySet, QueryService};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use tdx_logic::{Atom, RelId, Schema, SchemaMapping, Var};
use tdx_storage::codec::encode;
use tdx_storage::fxhash::FxHashSet;
use tdx_storage::{
    ByteReader, ByteWriter, CodecError, NullGen, Row, TemporalFact, TemporalInstance, TemporalMode,
    Value, Wire,
};
use tdx_temporal::{Breakpoints, Interval, TimePoint, TimelinePartition};

/// A batch of source changes for [`IncrementalExchange::apply`].
///
/// Insertions are the monotone unit of the stream. An *interval-refining
/// update* replaces every previously asserted interval of one data row with
/// a new interval: when the new interval contains the old ones (the fact
/// turned out to hold *longer* — e.g. an open-ended employment gets its
/// real extent), the refinement is monotone and rides the incremental path
/// as an insertion; when it narrows the row's timeline, knowledge was
/// retracted and the session transparently falls back to one full re-chase
/// for that batch.
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    inserts: Vec<(RelId, Row, Interval)>,
    refines: Vec<(RelId, Row, Interval)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Queues a source fact insertion.
    pub fn insert(&mut self, rel: RelId, data: Row, interval: Interval) -> &mut Self {
        self.inserts.push((rel, data, interval));
        self
    }

    /// Queues an interval-refining update: after this batch, `data` is
    /// asserted exactly over `interval`, superseding every interval the row
    /// was previously asserted over.
    pub fn refine(&mut self, rel: RelId, data: Row, interval: Interval) -> &mut Self {
        self.refines.push((rel, data, interval));
        self
    }

    /// Queues every fact of `inst` as an insertion.
    pub fn extend_from_instance(&mut self, inst: &TemporalInstance) -> &mut Self {
        for (rel, fact) in inst.iter_all() {
            self.inserts
                .push((rel, Arc::clone(&fact.data), fact.interval));
        }
        self
    }

    /// A batch inserting every fact of `inst`.
    pub fn from_instance(inst: &TemporalInstance) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.extend_from_instance(inst);
        b
    }

    /// Number of queued changes.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.refines.len()
    }

    /// Whether the batch queues no changes.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.refines.is_empty()
    }
}

/// `DeltaBatch` rides the durable session's write-ahead log: insertions
/// and refinements serialize in queue order, so a replayed batch is
/// applied exactly as the original was.
impl Wire for DeltaBatch {
    fn write(&self, w: &mut ByteWriter) {
        self.inserts.write(w);
        self.refines.write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> std::result::Result<DeltaBatch, CodecError> {
        Ok(DeltaBatch {
            inserts: Wire::read(r)?,
            refines: Wire::read(r)?,
        })
    }
}

/// What one [`IncrementalExchange::apply`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch facts that were actually new (not already asserted).
    pub batch_facts: usize,
    /// Normalized-source facts changed by the batch (fragments included).
    pub source_delta: usize,
    /// Tgd homomorphisms enumerated at dirty intervals.
    pub tgd_matches: usize,
    /// Tgd steps fired (restricted-check survivors).
    pub tgd_steps: usize,
    /// New target facts the tgd phase inserted.
    pub target_new_facts: usize,
    /// Target facts (settled ones included) after the egd-body
    /// normalization of the tgd phase's output; `0` when the tgd phase
    /// inserted nothing and the egd phase was skipped.
    pub target_normalized: usize,
    /// Egd merge rounds run.
    pub egd_rounds: usize,
    /// Value identifications performed.
    pub egd_merges: usize,
    /// Timeline partitions the batch touched (dirtied).
    pub dirty_partitions: usize,
    /// The touched partition indices themselves (sorted; in terms of the
    /// post-batch partition) — the query service's fragment-invalidation
    /// input.
    pub dirty_parts: Vec<usize>,
    /// Timeline partitions in total.
    pub partitions: usize,
    /// Whether the timeline partition was re-coarsened for this batch.
    pub recoarsened: bool,
    /// Whether the batch fell back to a full re-chase (narrowing refine).
    pub full_rechase: bool,
    /// Materialized target size after the batch.
    pub target_facts: usize,
    /// Phase-by-phase narration of the batch (only when
    /// [`ChaseOptions::record_trace`] is set).
    pub trace: Vec<String>,
}

/// Session-level counters. `batches` and `full_rechases` are cumulative
/// over the session's lifetime; the work counters (`tgd_steps`,
/// `egd_merges`, `nulls_created`) describe the work behind the *current*
/// materialized state and restart whenever a full re-chase rebuilds it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Successfully applied batches (failed, rolled-back batches do not
    /// count; a narrowing-refine full re-chase counts as one).
    pub batches: usize,
    /// Tgd steps fired building the current state.
    pub tgd_steps: usize,
    /// Egd identifications performed building the current state.
    pub egd_merges: usize,
    /// Full re-chases taken (narrowing refines, failure rollbacks).
    pub full_rechases: usize,
    /// Fresh nulls behind the current state.
    pub nulls_created: u64,
}

// The restricted-chase check ([`Check`]) is the coordinator kernel of
// `chase/cluster/coordinator.rs`: three tiers, with the memo tier
// *persistent* across batches (see the module docs for why coverage
// survives rewriting and re-fragmentation).

#[derive(Clone)]
struct TgdPlan {
    body: JoinPlan,
    check: Check,
    existentials: Vec<Var>,
    /// Head atoms with their target relation ids.
    head: Vec<(RelId, Atom)>,
}

/// A stateful incremental data-exchange session (see the module docs).
///
/// Created via [`IncrementalExchange::new`] or
/// [`DataExchange::incremental`](crate::exchange::DataExchange::incremental);
/// feed it [`DeltaBatch`]es and read the materialized solution with
/// [`IncrementalExchange::target`].
#[derive(Clone)]
pub struct IncrementalExchange {
    mapping: Arc<SchemaMapping>,
    opts: ChaseOptions,
    threads: usize,
    src_schema: Arc<Schema>,
    tgt_schema: Arc<Schema>,

    /// Accumulated raw source facts (insertion order) + dedup set.
    source: FactLists,
    source_set: FxHashSet<(u32, Row, Interval)>,
    /// Distinct source endpoints (for partition maintenance).
    endpoints: FxHashSet<TimePoint>,
    /// Timeline partition + endpoint count when it was last cut.
    tp: TimelinePartition,
    endpoints_at_cut: usize,

    /// Normalized source at fixpoint (settled between batches).
    nsrc: FactLists,
    /// Materialized target at egd fixpoint (settled between batches).
    tgt: FactLists,

    plans: Vec<TgdPlan>,
    egd_plans: Vec<EgdPlan>,
    /// Egd names, in mapping order (chase-failure rendering).
    egd_names: Vec<String>,
    /// Per-tgd persistent restricted-check memos (Memo tier).
    memos: Vec<FxHashSet<(Vec<Value>, Interval)>>,
    /// Whether any tgd needs the Probe tier (materialize-and-probe).
    probe_needed: bool,
    /// Partition servers (`ChaseEngine::Distributed`); `0` = evaluate
    /// locally. When set, tgd/egd match enumeration goes through a
    /// [`DistributedCluster`] speaking the serialized partition-server
    /// protocol, while this session remains the coordinator loop.
    servers: usize,
    /// The running cluster, lazily (re)spawned whenever the timeline
    /// partition it was built over diverges from the session's (shared
    /// between clones — every round re-ships its fact lists first, so
    /// clones cannot observe each other's state).
    cluster: Option<Arc<Mutex<DistributedCluster>>>,
    /// Spawner every cluster (re)spawn goes through when set — the durable
    /// session's hook for reconnect-capable listen-mode servers.
    spawner_override: Option<Arc<dyn TransportSpawner>>,
    nulls: NullGen,
    stats: SessionStats,
    poisoned: Option<String>,
    /// The attached MVCC query front-end, if any: every committed batch
    /// (and every rebuild) publishes the new target version plus its dirty
    /// partitions here, so concurrent readers see watermark-consistent
    /// answers and the fragment cache invalidates precisely. Shared by
    /// session clones; not part of the durable state (reattach after
    /// recovery).
    query_service: Option<Arc<QueryService>>,
}

const PARTS_HINT: usize = 16;

impl IncrementalExchange {
    /// A fresh session over `mapping` with default chase options.
    pub fn new(mapping: SchemaMapping) -> Result<IncrementalExchange> {
        Self::with_options(mapping, ChaseOptions::default())
    }

    /// A fresh session with explicit options. The engine choice
    /// contributes its worker-thread count, and
    /// [`ChaseEngine::Distributed`] additionally routes tgd/egd match
    /// enumeration through a partition-server cluster (the session stays
    /// the coordinator loop: union-find, restricted checks and
    /// re-fragmentation remain here); `naive_normalization` and
    /// `renormalize_between_egd_rounds` are honored as in the batch
    /// engines.
    pub fn with_options(mapping: SchemaMapping, opts: ChaseOptions) -> Result<IncrementalExchange> {
        let threads = crate::chase::worker_threads(match opts.engine {
            ChaseEngine::PartitionedParallel { threads } => threads,
            _ => 0,
        });
        let servers = match opts.engine {
            ChaseEngine::Distributed { servers } => crate::chase::server_count(servers),
            _ => 0,
        };
        let src_schema = Arc::new(mapping.source().clone());
        let tgt_schema = Arc::new(mapping.target().clone());
        let mut plans = Vec::new();
        for tgd in mapping.st_tgds() {
            let body = JoinPlan::compile(&tgd.body, &src_schema)?;
            let existentials = tgd.existential_vars();
            let check = classify_check(&tgd.head, &existentials, &tgt_schema)?;
            let head = tgd
                .head
                .iter()
                .map(|a| {
                    tgt_schema
                        .rel_id(a.relation)
                        .map(|rel| (rel, a.clone()))
                        .ok_or_else(|| {
                            TdxError::Invalid(format!("unknown head relation {}", a.relation))
                        })
                })
                .collect::<Result<Vec<_>>>()?;
            plans.push(TgdPlan {
                body,
                check,
                existentials,
                head,
            });
        }
        let egd_plans = mapping
            .egds()
            .iter()
            .map(|egd| EgdPlan::compile(&egd.body, egd.lhs, egd.rhs, &tgt_schema))
            .collect::<Result<Vec<_>>>()?;
        let egd_names = mapping
            .egds()
            .iter()
            .map(|egd| egd.name.clone().unwrap_or_else(|| egd.to_string()))
            .collect();
        let probe_needed = plans.iter().any(|p| matches!(p.check, Check::Probe));
        let memos = plans.iter().map(|_| Default::default()).collect();
        let nsrcs = src_schema.len();
        let ntgts = tgt_schema.len();
        Ok(IncrementalExchange {
            mapping: Arc::new(mapping),
            opts,
            threads,
            src_schema,
            tgt_schema,
            source: vec![Vec::new(); nsrcs],
            source_set: Default::default(),
            endpoints: Default::default(),
            tp: TimelinePartition::whole(),
            endpoints_at_cut: 0,
            nsrc: vec![Vec::new(); nsrcs],
            tgt: vec![Vec::new(); ntgts],
            plans,
            egd_plans,
            egd_names,
            memos,
            probe_needed,
            servers,
            cluster: None,
            spawner_override: None,
            nulls: NullGen::new(),
            stats: SessionStats::default(),
            poisoned: None,
            query_service: None,
        })
    }

    /// The schema mapping the session exchanges over.
    pub fn mapping(&self) -> &SchemaMapping {
        &self.mapping
    }

    /// Cumulative session counters.
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats.clone();
        s.nulls_created = self.nulls.peek();
        s
    }

    /// Durable-state format version; [`restore_state`](Self::restore_state)
    /// rejects any other.
    pub(crate) const STATE_VERSION: u32 = 1;

    /// Fingerprint over everything a replayed state depends on: both
    /// schemas and every dependency. A state recorded under a different
    /// mapping must not silently restore.
    pub(crate) fn config_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = tdx_storage::fxhash::FxHasher::default();
        h.write(&encode(self.src_schema.as_ref()));
        h.write(&encode(self.tgt_schema.as_ref()));
        for tgd in self.mapping.st_tgds() {
            h.write(&encode(&tgd.body));
            h.write(&encode(&tgd.head));
        }
        for egd in self.mapping.egds() {
            h.write(&encode(&egd.body));
            h.write(&encode(&egd.lhs));
            h.write(&encode(&egd.rhs));
        }
        h.finish()
    }

    /// Serializes the session's full chase state — accumulated source,
    /// timeline partition, normalized source, materialized target, memo
    /// tables, null counter and session counters — in **canonical** form:
    /// hash-set state is emitted sorted, so two sessions holding equal
    /// state encode byte-identically regardless of how they got there
    /// (the recovery property tests compare these bytes directly). The
    /// derived indexes — source dedup set, endpoint set, compiled match
    /// plans — are rebuilt by [`restore_state`](Self::restore_state).
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(Self::STATE_VERSION);
        w.u64(self.config_fingerprint());
        self.source.write(&mut w);
        w.u64(self.endpoints_at_cut as u64);
        self.tp.write(&mut w);
        self.nsrc.write(&mut w);
        self.tgt.write(&mut w);
        w.u64(self.memos.len() as u64);
        for memo in &self.memos {
            let mut entries: Vec<&(Vec<Value>, Interval)> = memo.iter().collect();
            entries.sort_by_cached_key(|e| encode(*e));
            w.u64(entries.len() as u64);
            for entry in entries {
                entry.write(&mut w);
            }
        }
        w.u64(self.nulls.peek());
        w.u64(self.stats.batches as u64);
        w.u64(self.stats.tgd_steps as u64);
        w.u64(self.stats.egd_merges as u64);
        w.u64(self.stats.full_rechases as u64);
        w.into_bytes()
    }

    /// Restores a snapshot produced by [`encode_state`](Self::encode_state)
    /// into this session, which must have been constructed over the same
    /// mapping (the fingerprint is checked). Nothing is committed until
    /// the whole snapshot parses and its shape matches, so a corrupt
    /// snapshot errors cleanly and leaves the session untouched. Any
    /// running cluster is discarded — recovery re-attaches separately.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let bad = |e: CodecError| TdxError::Invalid(format!("durable state: {e}"));
        let mut r = ByteReader::new(bytes);
        let version = r.u32().map_err(bad)?;
        if version != Self::STATE_VERSION {
            return Err(TdxError::Invalid(format!(
                "durable state: unsupported state version {version} (this build speaks {})",
                Self::STATE_VERSION
            )));
        }
        if r.u64().map_err(bad)? != self.config_fingerprint() {
            return Err(TdxError::Invalid(
                "durable state: snapshot was recorded under a different schema mapping".into(),
            ));
        }
        let source: FactLists = Wire::read(&mut r).map_err(bad)?;
        let endpoints_at_cut = r.u64().map_err(bad)? as usize;
        let tp: TimelinePartition = Wire::read(&mut r).map_err(bad)?;
        let nsrc: FactLists = Wire::read(&mut r).map_err(bad)?;
        let tgt: FactLists = Wire::read(&mut r).map_err(bad)?;
        let nmemos = r.u64().map_err(bad)? as usize;
        if nmemos != self.memos.len() {
            return Err(TdxError::Invalid(
                "durable state: memo table count mismatch".into(),
            ));
        }
        let mut memos: Vec<FxHashSet<(Vec<Value>, Interval)>> = Vec::with_capacity(nmemos);
        for _ in 0..nmemos {
            let len = r.u64().map_err(bad)? as usize;
            let mut set: FxHashSet<(Vec<Value>, Interval)> = Default::default();
            for _ in 0..len {
                set.insert(Wire::read(&mut r).map_err(bad)?);
            }
            memos.push(set);
        }
        let nulls_next = r.u64().map_err(bad)?;
        let stats = SessionStats {
            batches: r.u64().map_err(bad)? as usize,
            tgd_steps: r.u64().map_err(bad)? as usize,
            egd_merges: r.u64().map_err(bad)? as usize,
            full_rechases: r.u64().map_err(bad)? as usize,
            nulls_created: 0,
        };
        if !r.is_exhausted() {
            return Err(TdxError::Invalid(
                "durable state: trailing bytes after snapshot".into(),
            ));
        }
        if source.len() != self.src_schema.len()
            || nsrc.len() != self.src_schema.len()
            || tgt.len() != self.tgt_schema.len()
        {
            return Err(TdxError::Invalid(
                "durable state: relation count mismatch".into(),
            ));
        }
        // Commit, rebuilding the derived indexes from the restored lists.
        self.source_set = source
            .iter()
            .enumerate()
            .flat_map(|(rel, facts)| {
                facts
                    .iter()
                    .map(move |f| (rel as u32, Arc::clone(&f.data), f.interval))
            })
            .collect();
        self.endpoints.clear();
        for fact in source.iter().flatten() {
            self.endpoints.insert(fact.interval.start());
            if let tdx_temporal::Endpoint::Fin(e) = fact.interval.end() {
                self.endpoints.insert(e);
            }
        }
        self.source = source;
        self.endpoints_at_cut = endpoints_at_cut;
        self.tp = tp;
        self.nsrc = nsrc;
        self.tgt = tgt;
        self.memos = memos;
        self.nulls = NullGen::starting_at(nulls_next);
        self.stats = stats;
        self.cluster = None;
        self.poisoned = None;
        Ok(())
    }

    /// Number of facts in the materialized target.
    pub fn target_len(&self) -> usize {
        self.tgt.iter().map(|l| l.len()).sum()
    }

    /// Number of facts in the accumulated source.
    pub fn source_len(&self) -> usize {
        self.source.iter().map(|l| l.len()).sum()
    }

    /// The accumulated source as an instance.
    pub fn source(&self) -> TemporalInstance {
        lists_to_instance(&self.src_schema, &self.source)
    }

    /// The materialized solution for the accumulated source (coalesced when
    /// the session options ask for it).
    pub fn target(&self) -> TemporalInstance {
        let out = lists_to_instance(&self.tgt_schema, &self.tgt);
        if self.opts.coalesce_result {
            out.coalesced()
        } else {
            out
        }
    }

    /// Whether an internal rollback failed, leaving the session unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Attaches (and returns) an MVCC query service seeded with the
    /// current materialized target. From now on every committed batch
    /// publishes the new target version with its dirty partitions, so
    /// readers holding the service evaluate concurrently with — and never
    /// block — `apply` calls. Idempotent: an already attached service is
    /// returned as-is.
    pub fn enable_query_service(&mut self) -> Arc<QueryService> {
        if let Some(svc) = &self.query_service {
            return Arc::clone(svc);
        }
        let svc = Arc::new(QueryService::new(self.target(), self.tp.clone()));
        self.query_service = Some(Arc::clone(&svc));
        svc
    }

    /// The attached query service, if any.
    pub fn query_service(&self) -> Option<Arc<QueryService>> {
        self.query_service.as_ref().map(Arc::clone)
    }

    /// Publishes the current target to the attached service (no-op when
    /// none is attached, or when a failed rollback poisoned the session —
    /// readers then keep the last consistent version).
    fn publish_target(&self, dirty: DirtySet<'_>) {
        if self.poisoned.is_some() {
            return;
        }
        if let Some(svc) = &self.query_service {
            svc.publish(self.target(), &self.tp, dirty);
        }
    }

    /// Applies one batch and brings the target back to a chase fixpoint.
    ///
    /// On chase failure the accumulated source admits no solution with the
    /// batch applied; the batch is rolled back (the session stays at its
    /// pre-batch fixpoint, at the cost of one re-chase) and the failure is
    /// returned.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<BatchStats> {
        if let Some(msg) = &self.poisoned {
            return Err(TdxError::Invalid(format!(
                "incremental session is poisoned by a failed rollback: {msg}"
            )));
        }
        // Classify refines: pure widenings ride the incremental path.
        let mut inserts: Vec<(RelId, Row, Interval)> = Vec::new();
        let mut narrowing = false;
        for (rel, data, iv) in &batch.inserts {
            self.validate_row(*rel, data)?;
            inserts.push((*rel, Arc::clone(data), *iv));
        }
        for (rel, data, new_iv) in &batch.refines {
            self.validate_row(*rel, data)?;
            let r = rel.0 as usize;
            let widens = self.source[r]
                .iter()
                .filter(|f| f.data == *data)
                .all(|f| new_iv.covers(&f.interval));
            if widens {
                inserts.push((*rel, Arc::clone(data), *new_iv));
            } else {
                narrowing = true;
            }
        }
        if narrowing {
            return self.full_rechase(batch);
        }
        // Record genuinely new facts into the accumulated source.
        let pre_lens: Vec<usize> = self.source.iter().map(|l| l.len()).collect();
        let mut fresh: FactLists = vec![Vec::new(); self.src_schema.len()];
        let mut batch_facts = 0usize;
        for (rel, data, iv) in inserts {
            let key = (rel.0, Arc::clone(&data), iv);
            if self.source_set.insert(key) {
                self.source[rel.0 as usize].push(TemporalFact {
                    data: Arc::clone(&data),
                    interval: iv,
                });
                fresh[rel.0 as usize].push(TemporalFact { data, interval: iv });
                batch_facts += 1;
            }
        }
        if batch_facts == 0 {
            self.stats.batches += 1;
            return Ok(BatchStats {
                partitions: self.tp.len(),
                target_facts: self.target_len(),
                ..BatchStats::default()
            });
        }
        match self.absorb(fresh, batch_facts) {
            Ok(stats) => {
                self.stats.batches += 1;
                // Fingerprint-diff publish: `stats.dirty_parts` tracks where
                // chase *work* happened, but a batch can also change answers
                // in partitions a spanning fact merely overlaps, and egd
                // rewrites can touch settled facts outside the delta. The
                // service's per-partition diff catches all of it exactly.
                self.publish_target(DirtySet::Diff);
                Ok(stats)
            }
            Err(e) => {
                // Roll the batch's source facts back and rebuild the
                // session at the (consistent) pre-batch fixpoint.
                for (r, len) in pre_lens.iter().enumerate() {
                    for fact in self.source[r].drain(*len..).collect::<Vec<_>>() {
                        self.source_set
                            .remove(&(r as u32, fact.data, fact.interval));
                    }
                }
                if let Err(inner) = self.rebuild_from_source() {
                    self.poisoned = Some(format!("{inner}"));
                }
                // The rebuild re-derived everything (fresh nulls included).
                self.publish_target(DirtySet::All);
                Err(e)
            }
        }
    }

    /// Runs `f` against the partition-server cluster, (re)spawning it when
    /// absent or when the session's timeline partition has moved past the
    /// one the cluster was built over (re-coarsening, full re-chase). A
    /// transport failure — a cluster that died while the session idled, or
    /// one whose respawn budget ran out mid-round — is retried exactly
    /// once against a freshly spawned cluster (a full re-ship, since every
    /// round re-syncs its own fact lists) before failing the batch; chase
    /// failures propagate unchanged. This replaces the per-batch heartbeat
    /// the v1 protocol paid a full round trip for: liveness is now probed
    /// by the round itself. The lock spans the whole ship-and-match
    /// exchange, so session clones sharing one cluster interleave at round
    /// granularity — and since every round re-syncs its own fact lists
    /// first (a watermark diff against whatever the servers actually
    /// hold), they never observe each other's state.
    fn with_cluster<R>(&mut self, f: impl Fn(&mut DistributedCluster) -> Result<R>) -> Result<R> {
        let mut retried = false;
        loop {
            let stale = match &self.cluster {
                None => true,
                Some(c) => {
                    let guard = c.lock().unwrap_or_else(|e| e.into_inner());
                    guard.partition() != &self.tp
                }
            };
            if stale {
                // Drop the old cluster *before* spawning its replacement:
                // with reconnect-capable (listen-mode) servers, a server
                // still serving the old connection would never accept the
                // new spawner's probe — the drop's protocol Shutdown (or
                // carrier EOF) frees it first.
                self.cluster = None;
                let spawner = match &self.spawner_override {
                    Some(sp) => Arc::clone(sp),
                    None => spawner_for(resolve_transport(self.opts.transport)),
                };
                self.cluster = Some(Arc::new(Mutex::new(
                    DistributedCluster::spawn_with_deadline(
                        &self.mapping,
                        &self.tp,
                        self.servers,
                        spawner,
                        self.opts.frame_deadline,
                    )?,
                )));
            }
            let cluster = self.cluster.as_ref().expect("cluster just ensured");
            let mut guard = cluster.lock().unwrap_or_else(|e| e.into_inner());
            match f(&mut guard) {
                Err(e) if !retried && is_transport_error(&e) => {
                    drop(guard);
                    self.cluster = None;
                    retried = true;
                }
                out => return out,
            }
        }
    }

    /// Partition-server count (`0` = local evaluation).
    pub(crate) fn server_count(&self) -> usize {
        self.servers
    }

    /// The transport backend the session's cluster (if any) runs on.
    pub(crate) fn transport_kind(&self) -> crate::chase::cluster::TransportKind {
        resolve_transport(self.opts.transport)
    }

    /// Re-attaches to surviving partition servers (see
    /// [`DistributedCluster::resume_with`]): a server whose `Resume`
    /// watermark digests match the recovered settled lists is adopted with
    /// its retained images intact; a blank or mismatched one gets the
    /// ordinary `Hello` handshake and a full re-ship on its first round.
    /// `spawner` also becomes the session's override for later respawns.
    /// Returns how many servers were adopted; no-op for local sessions.
    pub(crate) fn resume_cluster(&mut self, spawner: Arc<dyn TransportSpawner>) -> Result<usize> {
        if self.servers == 0 {
            return Ok(0);
        }
        self.spawner_override = Some(Arc::clone(&spawner));
        self.cluster = None;
        let (cluster, resumed) = DistributedCluster::resume_with(
            &self.mapping,
            &self.tp,
            self.servers,
            spawner,
            self.opts.frame_deadline,
            [&self.nsrc, &self.tgt],
        )?;
        self.cluster = Some(Arc::new(Mutex::new(cluster)));
        Ok(resumed)
    }

    /// Abandons the cluster as a coordinator crash would: carriers
    /// severed, no protocol shutdown, listen-mode servers keep their
    /// retained state. A cluster shared with session clones cannot be
    /// severed and is released normally instead.
    pub(crate) fn sever_cluster(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            if let Ok(m) = Arc::try_unwrap(cluster) {
                m.into_inner().unwrap_or_else(|e| e.into_inner()).sever();
            }
        }
    }

    /// Cumulative wire-traffic counters of the session's partition-server
    /// cluster, when one is running (`None` for local sessions and before
    /// the first distributed round). The observable behind the
    /// shipping-discipline tests: steady-state `ApplyDelta` traffic must be
    /// proportional to the batch, not the store.
    pub fn cluster_traffic(&self) -> Option<TrafficStats> {
        self.cluster
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).traffic())
    }

    /// One distributed tgd round: a single fused frame per server that
    /// ships the normalized-source sync program and collects the
    /// delta-touching homomorphisms per tgd in the same round trip, in
    /// ascending partition order. Normalization stays on the session.
    fn distributed_tgd_round(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<Vec<Vec<Hom>>> {
        let tgd_count = self.plans.len();
        self.with_cluster(|c| c.run_tgd_round_fused(pre, delta, tgd_count))
    }

    /// One distributed egd round: a single fused frame per server shipping
    /// the target sync program and collecting the merge operations.
    fn distributed_egd_round(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<Vec<MergeOp>> {
        self.with_cluster(|c| c.run_egd_round_fused(pre, delta))
    }

    fn validate_row(&self, rel: RelId, data: &Row) -> Result<()> {
        let schema = &self.src_schema;
        if rel.0 as usize >= schema.len() {
            return Err(TdxError::Invalid(format!("unknown relation id {}", rel.0)));
        }
        if schema.relation(rel).arity() != data.len() {
            return Err(TdxError::Invalid(format!(
                "row arity {} does not match relation {}",
                data.len(),
                schema.relation(rel).name()
            )));
        }
        if data.iter().any(|v| matches!(v, Value::Null(_))) {
            return Err(TdxError::Invalid(
                "source batches must be complete; found a null".into(),
            ));
        }
        Ok(())
    }

    /// The incremental core: absorbs `fresh` (already recorded in the
    /// accumulated source) and restores the chase fixpoint.
    fn absorb(&mut self, fresh: FactLists, batch_facts: usize) -> Result<BatchStats> {
        let mut stats = BatchStats {
            batch_facts,
            ..BatchStats::default()
        };
        // Breakpoint maintenance: endpoints are drawn from the source (the
        // chase never invents new ones); re-coarsen when the histogram
        // shifted enough that the old cut no longer balances.
        for facts in &fresh {
            for fact in facts {
                self.endpoints.insert(fact.interval.start());
                if let tdx_temporal::Endpoint::Fin(e) = fact.interval.end() {
                    self.endpoints.insert(e);
                }
            }
        }
        if self.endpoints.len() >= (2 * self.endpoints_at_cut).max(2) || {
            self.stats.batches % 16 == 15 && {
                let bps = Breakpoints::from_points(self.endpoints.iter().copied());
                self.tp.imbalance(&bps) > 3.0
            }
        } {
            let bps = Breakpoints::from_points(self.endpoints.iter().copied());
            self.tp = TimelinePartition::new(&bps.coarsen(PARTS_HINT));
            self.endpoints_at_cut = self.endpoints.len();
            stats.recoarsened = true;
        }
        stats.partitions = self.tp.len();
        self.narrate(&mut stats, |_| match self.servers {
            0 => format!(
                "{} timeline partitions, {} threads",
                self.tp.len(),
                self.threads
            ),
            servers => format!(
                "{} timeline partitions over {servers} servers",
                self.tp.len()
            ),
        });

        // Drop batch facts already present verbatim in the normalized
        // source — re-asserting an existing fragment discovers no cut, so
        // without this the duplicate would settle into the lists and
        // accumulate across batches (the raw-source dedup above cannot see
        // fragments; correctness is unaffected, size is).
        let mut batch_set: FxHashSet<(u32, Row, Interval)> = fresh
            .iter()
            .enumerate()
            .flat_map(|(r, facts)| {
                facts
                    .iter()
                    .map(move |f| (r as u32, Arc::clone(&f.data), f.interval))
            })
            .collect();
        for (r, facts) in self.nsrc.iter().enumerate() {
            for fact in facts {
                batch_set.remove(&(r as u32, Arc::clone(&fact.data), fact.interval));
            }
        }
        let mut fresh = fresh;
        for (r, facts) in fresh.iter_mut().enumerate() {
            facts.retain(|f| batch_set.contains(&(r as u32, Arc::clone(&f.data), f.interval)));
        }

        // Step 1: incremental source renormalization — the batch facts are
        // the fresh seed; settled facts re-fragment only when a new image
        // touches them.
        let tgd_bodies = self.mapping.tgd_bodies();
        let pre = std::mem::take(&mut self.nsrc);
        let fresh_facts: usize = fresh.iter().map(Vec::len).sum();
        let (npre, ndelta) = refragment_lists(
            &self.src_schema,
            self.threads,
            Some(&tgd_bodies),
            self.opts.naive_normalization,
            pre,
            fresh,
        )?;
        stats.source_delta = ndelta.iter().map(|l| l.len()).sum();
        self.narrate(&mut stats, |s| {
            format!(
                "normalized source w.r.t. Σst: {fresh_facts} → {} facts",
                s.source_delta
            )
        });
        let mut dirty_parts: BTreeSet<usize> = BTreeSet::new();
        for facts in &ndelta {
            for fact in facts {
                dirty_parts.insert(self.tp.part_of(fact.interval.start()));
            }
        }

        // Step 2: delta-scoped tgd steps at dirty intervals.
        let mut new_facts: FactLists = vec![Vec::new(); self.tgt_schema.len()];
        let mut existing: FxHashSet<(u32, Row, Interval)> = self
            .tgt
            .iter()
            .enumerate()
            .flat_map(|(r, facts)| {
                facts
                    .iter()
                    .map(move |f| (r as u32, Arc::clone(&f.data), f.interval))
            })
            .collect();
        let mut probe_inst: Option<TemporalInstance> = if self.probe_needed {
            Some(lists_to_instance(&self.tgt_schema, &self.tgt))
        } else {
            None
        };
        // Distributed sessions ship the lists and enumerate on the
        // partition servers; local sessions join over the dirty-interval
        // index. Either way the homomorphisms arrive per tgd, delta-scoped
        // and deterministically ordered.
        let mut cluster_homs: Option<Vec<Vec<Hom>>> = if self.servers > 0 {
            Some(self.distributed_tgd_round(&npre, &ndelta)?)
        } else {
            None
        };
        let src_idx = if cluster_homs.is_none() {
            Some(DirtyIndex::build(&npre, &ndelta))
        } else {
            None
        };
        for ti in 0..self.plans.len() {
            let homs: Vec<Hom> = match cluster_homs.as_mut() {
                Some(all) => std::mem::take(&mut all[ti]),
                None => {
                    let idx = src_idx.as_ref().expect("local dirty index built");
                    let plan = &self.plans[ti];
                    let mut homs = Vec::new();
                    shared_join_delta(&plan.body, &npre, &ndelta, idx, |vals, iv| {
                        homs.push((
                            plan.body
                                .vars
                                .iter()
                                .copied()
                                .zip(vals.iter().copied())
                                .collect(),
                            iv,
                        ));
                    });
                    homs
                }
            };
            stats.tgd_matches += homs.len();
            for (h, iv) in homs {
                let plan = &self.plans[ti];
                match &plan.check {
                    Check::Direct => {
                        let mut fired = false;
                        for (rel, atom) in &plan.head {
                            let row: Row = instantiate(atom, &h).into();
                            if existing.insert((rel.0, Arc::clone(&row), iv)) {
                                register_memo(&mut self.memos, &self.plans, *rel, &row, iv);
                                if let Some(pi) = probe_inst.as_mut() {
                                    pi.insert(*rel, Arc::clone(&row), iv);
                                }
                                new_facts[rel.0 as usize].push(TemporalFact {
                                    data: row,
                                    interval: iv,
                                });
                                fired = true;
                            }
                        }
                        if fired {
                            stats.tgd_steps += 1;
                        }
                        continue;
                    }
                    Check::Memo { rel: _, cols } => {
                        let key = memo_probe_key(cols, &plan.head[0].1, &h)?;
                        if self.memos[ti].contains(&(key, iv)) {
                            continue;
                        }
                    }
                    Check::Probe => {
                        let head_atoms: Vec<Atom> =
                            plan.head.iter().map(|(_, a)| a.clone()).collect();
                        let pi = probe_inst.as_ref().expect("probe instance materialized");
                        if pi.exists_match(&head_atoms, TemporalMode::Shared, &h, Some(iv))? {
                            continue;
                        }
                    }
                }
                let mut env = h;
                for v in &self.plans[ti].existentials {
                    env.push((*v, Value::Null(self.nulls.fresh())));
                }
                for (rel, atom) in &self.plans[ti].head {
                    let row: Row = instantiate(atom, &env).into();
                    if existing.insert((rel.0, Arc::clone(&row), iv)) {
                        register_memo(&mut self.memos, &self.plans, *rel, &row, iv);
                        if let Some(pi) = probe_inst.as_mut() {
                            pi.insert(*rel, Arc::clone(&row), iv);
                        }
                        new_facts[rel.0 as usize].push(TemporalFact {
                            data: row,
                            interval: iv,
                        });
                    }
                }
                stats.tgd_steps += 1;
            }
        }
        // Source fixpoint settles: delta drains into pre.
        self.nsrc = settle(npre, ndelta);
        stats.target_new_facts = new_facts.iter().map(|l| l.len()).sum();
        self.narrate(&mut stats, |s| {
            format!(
                "tgd steps: {} fired of {} matches, {} new target facts",
                s.tgd_steps, s.tgd_matches, s.target_new_facts
            )
        });

        // Step 3+4: boundary reconciliation and the egd fixpoint, only if
        // the batch produced target work.
        if stats.target_new_facts > 0 {
            for facts in &new_facts {
                for fact in facts {
                    dirty_parts.insert(self.tp.part_of(fact.interval.start()));
                }
            }
            // Borrow the bodies from a local handle so the round methods
            // below can take `&mut self`.
            let mapping = Arc::clone(&self.mapping);
            let egd_bodies = mapping.egd_bodies();
            let pre = std::mem::take(&mut self.tgt);
            // Initial normalization always runs w.r.t. the egd bodies (the
            // paper's step 3); per-round renormalization honors the option.
            let (mut pre, mut delta) = refragment_lists(
                &self.tgt_schema,
                self.threads,
                Some(&egd_bodies),
                self.opts.naive_normalization,
                pre,
                new_facts,
            )?;
            stats.target_normalized = pre.iter().chain(&delta).map(Vec::len).sum();
            self.narrate(&mut stats, |s| {
                format!(
                    "normalized target w.r.t. Σeg: {} → {} facts",
                    s.target_new_facts, s.target_normalized
                )
            });
            loop {
                // Both evaluation sites produce the merge ops in (egd,
                // interval) order and fold them through the coordinator's
                // kernel, so local and distributed rounds union alike.
                let ops: Vec<MergeOp> = if self.servers > 0 {
                    self.distributed_egd_round(&pre, &delta)?
                } else {
                    let idx = DirtyIndex::build(&pre, &delta);
                    let mut ops = Vec::new();
                    egd_ops(&self.egd_plans, &pre, &delta, &idx, |op| ops.push(op));
                    ops
                };
                let mut uf = AnnotatedUnionFind::new();
                let merges = fold_merge_ops(ops, &mut uf, |ei| self.egd_names[ei].clone())?;
                if merges == 0 {
                    break;
                }
                stats.egd_rounds += 1;
                stats.egd_merges += merges;
                self.narrate(&mut stats, |s| {
                    format!("egd round {}: {merges} identifications", s.egd_rounds)
                });
                let (npre, ndelta) = rewrite_values(&self.tgt_schema, &pre, &delta, &mut uf);
                let renorm = if self.opts.renormalize_between_egd_rounds {
                    Some(egd_bodies.as_slice())
                } else {
                    None // paper-faithful: alignment cuts only
                };
                (pre, delta) = refragment_lists(
                    &self.tgt_schema,
                    self.threads,
                    renorm,
                    self.opts.naive_normalization,
                    npre,
                    ndelta,
                )?;
                for facts in &delta {
                    for fact in facts {
                        dirty_parts.insert(self.tp.part_of(fact.interval.start()));
                    }
                }
            }
            self.tgt = settle(pre, delta);
        }

        stats.dirty_partitions = dirty_parts.len();
        stats.dirty_parts = dirty_parts.into_iter().collect();
        stats.target_facts = self.target_len();
        self.stats.tgd_steps += stats.tgd_steps;
        self.stats.egd_merges += stats.egd_merges;
        Ok(stats)
    }

    /// Appends one phase line to the batch narration when the session
    /// options ask for a trace.
    fn narrate(&self, stats: &mut BatchStats, line: impl FnOnce(&BatchStats) -> String) {
        if self.opts.record_trace {
            let line = line(stats);
            stats.trace.push(line);
        }
    }

    /// The one-shot c-chase of `source` as this (fresh) session's only
    /// batch — the body of [`c_chase_with`](crate::chase::concrete::c_chase_with)
    /// for every engine but the `LegacyScan` oracle. The result's counters
    /// come from the batch and the session; its trace is the batch's
    /// phase narration.
    pub(crate) fn chase_one_batch(mut self, source: &TemporalInstance) -> Result<CChaseResult> {
        let batch = self.apply(&DeltaBatch::from_instance(source))?;
        let target = self.target();
        let stats = ChaseStats {
            source_facts_in: source.total_len(),
            source_facts_normalized: self.nsrc.iter().map(Vec::len).sum(),
            tgd_steps: batch.tgd_steps,
            target_facts_after_tgd: batch.target_new_facts,
            target_facts_normalized: batch.target_normalized,
            egd_rounds: batch.egd_rounds,
            egd_merges: batch.egd_merges,
            target_facts_out: target.total_len(),
            nulls_created: self.stats().nulls_created,
        };
        Ok(CChaseResult {
            target,
            normalized_source: lists_to_instance(&self.src_schema, &self.nsrc),
            stats,
            trace: batch.trace,
        })
    }

    /// The non-monotone path: rebuild the accumulated source with the
    /// batch's refines applied, then re-chase everything as one batch.
    fn full_rechase(&mut self, batch: &DeltaBatch) -> Result<BatchStats> {
        let old_source = self.source.clone();
        let old_set = self.source_set.clone();
        // Refined rows lose every previously asserted interval.
        for (rel, data, _) in &batch.refines {
            let r = rel.0 as usize;
            let source = &mut self.source;
            let set = &mut self.source_set;
            source[r].retain(|f| {
                if f.data == *data {
                    set.remove(&(rel.0, Arc::clone(&f.data), f.interval));
                    false
                } else {
                    true
                }
            });
        }
        for (rel, data, iv) in batch.refines.iter().chain(batch.inserts.iter()) {
            if self.source_set.insert((rel.0, Arc::clone(data), *iv)) {
                self.source[rel.0 as usize].push(TemporalFact {
                    data: Arc::clone(data),
                    interval: *iv,
                });
            }
        }
        match self.rebuild_from_source() {
            Ok(mut stats) => {
                stats.full_rechase = true;
                stats.batch_facts = batch.len();
                self.stats.batches += 1;
                self.publish_target(DirtySet::All);
                Ok(stats)
            }
            Err(e) => {
                // The refined source admits no solution; keep the pre-batch
                // state usable.
                self.source = old_source;
                self.source_set = old_set;
                if let Err(inner) = self.rebuild_from_source() {
                    self.poisoned = Some(format!("{inner}"));
                }
                // The rollback rebuilt the pre-batch state with fresh
                // derived facts; stale fragments must not survive it.
                self.publish_target(DirtySet::All);
                Err(e)
            }
        }
    }

    /// Resets the derived state and re-chases the accumulated source as one
    /// batch — correctness anchor for fallbacks and rollbacks. The
    /// work-behind-the-current-state counters restart with the rebuild
    /// (see [`SessionStats`]); `batches` is the caller's concern — a
    /// rollback must not count the failed batch as applied.
    fn rebuild_from_source(&mut self) -> Result<BatchStats> {
        self.reset_derived_state();
        let fresh = self.source.clone();
        let n = fresh.iter().map(|l| l.len()).sum();
        self.stats.full_rechases += 1;
        self.stats.tgd_steps = 0;
        self.stats.egd_merges = 0;
        if n == 0 {
            // Nothing to chase (a failed first batch rolled back): the
            // reset state is the fixpoint, and no cluster needs spawning.
            return Ok(BatchStats {
                partitions: self.tp.len(),
                ..BatchStats::default()
            });
        }
        self.absorb(fresh, n)
    }

    /// Drops **every** piece of state derived from the pre-rebuild source,
    /// in one place so a rebuild can never leak stale derived state:
    /// normalized-source and target lists, the persistent restricted-check
    /// memos (a memo entry records coverage by a target fact that a
    /// narrowing refine may have removed — a stale entry would wrongly
    /// suppress tgd steps in later batches; see the
    /// `narrowing_then_insert_*` regression tests), the null generator,
    /// the endpoint histogram, the timeline partition, and the
    /// partition-server cluster (the fresh partition forces a respawn).
    /// The per-phase `DirtyIndex` is never persisted on the session, so no
    /// other derived structure can survive a rebuild.
    fn reset_derived_state(&mut self) {
        self.nsrc = vec![Vec::new(); self.src_schema.len()];
        self.tgt = vec![Vec::new(); self.tgt_schema.len()];
        for m in &mut self.memos {
            m.clear();
        }
        self.nulls = NullGen::new();
        self.endpoints.clear();
        self.endpoints_at_cut = 0;
        self.tp = TimelinePartition::whole();
        self.cluster = None;
    }
}

/// Registers an inserted target fact with every persistent memo watching
/// its relation (the kernel's memo registration over the session's plans).
fn register_memo(
    memos: &mut [FxHashSet<(Vec<Value>, Interval)>],
    plans: &[TgdPlan],
    rel: RelId,
    data: &[Value],
    iv: Interval,
) {
    crate::chase::cluster::register_memo(memos, plans.iter().map(|p| &p.check), rel, data, iv);
}

/// Drains `delta` into `pre`, preserving order: the settled representation
/// between batches.
fn settle(mut pre: FactLists, delta: FactLists) -> FactLists {
    for (p, d) in pre.iter_mut().zip(delta) {
        p.extend(d);
    }
    pre
}

fn lists_to_instance(schema: &Arc<Schema>, lists: &FactLists) -> TemporalInstance {
    let mut out = TemporalInstance::new(Arc::clone(schema));
    for (r, facts) in lists.iter().enumerate() {
        let rel = RelId(r as u32);
        for fact in facts {
            out.insert(rel, Arc::clone(&fact.data), fact.interval);
        }
    }
    out
}

/// The distributed one-shot c-chase through an explicit spawner: a
/// one-batch [`IncrementalExchange`] on `ChaseEngine::Distributed { servers }`
/// whose every cluster (re)spawn goes through `spawner` — the injection
/// point of the fault-injection tests and the transport benches.
pub fn c_chase_distributed_with(
    ic: &TemporalInstance,
    mapping: &SchemaMapping,
    opts: &ChaseOptions,
    servers: usize,
    spawner: Arc<dyn TransportSpawner>,
) -> Result<CChaseResult> {
    let opts = ChaseOptions {
        engine: ChaseEngine::Distributed { servers },
        ..opts.clone()
    };
    let mut session = IncrementalExchange::with_options(mapping.clone(), opts)?;
    session.spawner_override = Some(spawner);
    session.chase_one_batch(ic)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chase::concrete::c_chase_with;
    use crate::hom::hom_equivalent;
    use crate::semantics::semantics;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};
    use tdx_storage::row;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    pub(crate) fn paper_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![
                parse_tgd("E(n,c) -> exists s . Emp(n,c,s)")
                    .unwrap()
                    .named("st1"),
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

    /// Same schemas as [`paper_mapping`], different dependencies — for the
    /// durable-session fingerprint test.
    pub(crate) fn other_mapping() -> SchemaMapping {
        SchemaMapping::new(
            parse_schema("E(name, company). S(name, salary).").unwrap(),
            parse_schema("Emp(name, company, salary).").unwrap(),
            vec![parse_tgd("E(n,c) -> exists s . Emp(n,c,s)")
                .unwrap()
                .named("st1")],
            vec![],
        )
        .unwrap()
    }

    pub(crate) fn batch(
        mapping: &SchemaMapping,
        facts: &[(&str, &[&str], Interval)],
    ) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        for (rel, vals, interval) in facts {
            let rid = mapping
                .source()
                .rel_id(tdx_logic::Symbol::intern(rel))
                .unwrap();
            let data: Row = vals.iter().map(|v| Value::str(v)).collect();
            b.insert(rid, data, *interval);
        }
        b
    }

    fn assert_matches_from_scratch(session: &IncrementalExchange) {
        let source = session.source();
        let scratch = c_chase_with(&source, session.mapping(), &ChaseOptions::default()).unwrap();
        let inc = session.target();
        assert!(
            hom_equivalent(&semantics(&scratch.target), &semantics(&inc)),
            "incremental target diverged from from-scratch chase"
        );
        assert!(
            crate::verify::is_solution_concrete(&source, &inc, session.mapping()).unwrap(),
            "incremental target is not a solution"
        );
    }

    #[test]
    fn figure4_in_batches_matches_from_scratch() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let batches = [
            batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(2012, 2014))]),
            batch(
                &mapping,
                &[
                    ("E", &["Ada", "Google"][..], Interval::from(2014)),
                    ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ],
            ),
            batch(
                &mapping,
                &[
                    ("E", &["Bob", "IBM"][..], iv(2013, 2018)),
                    ("S", &["Bob", "13k"][..], Interval::from(2015)),
                ],
            ),
        ];
        for b in &batches {
            s.apply(b).unwrap();
            assert_matches_from_scratch(&s);
        }
        // Figure 9: five facts, Ada's salary unknown on [2012, 2013).
        let target = s.target();
        assert_eq!(target.total_len(), 5);
        assert!(target.contains(
            RelId(0),
            &row([Value::str("Ada"), Value::str("IBM"), Value::str("18k")]),
            iv(2013, 2014)
        ));
    }

    #[test]
    fn single_batch_equals_full_chase() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let b = batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2014)),
                ("E", &["Ada", "Google"][..], Interval::from(2014)),
                ("E", &["Bob", "IBM"][..], iv(2013, 2018)),
                ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ("S", &["Bob", "13k"][..], Interval::from(2015)),
            ],
        );
        let stats = s.apply(&b).unwrap();
        assert_eq!(stats.batch_facts, 5);
        assert!(stats.tgd_steps >= 8);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn duplicate_and_empty_batches_are_cheap_noops() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let b = batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(2012, 2014))]);
        s.apply(&b).unwrap();
        let len = s.target_len();
        let stats = s.apply(&b).unwrap();
        assert_eq!(stats.batch_facts, 0);
        assert_eq!(stats.tgd_steps, 0);
        assert_eq!(s.target_len(), len);
        let stats = s.apply(&DeltaBatch::new()).unwrap();
        assert_eq!(stats.batch_facts, 0);
    }

    #[test]
    fn reasserting_an_existing_fragment_adds_no_work() {
        // E fragments at 2014 (S joins there); a later batch re-asserting
        // the fragment verbatim is new to the raw source but must not
        // duplicate inside the normalized lists or trigger chase work.
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2016)),
                ("S", &["Ada", "18k"][..], iv(2014, 2016)),
            ],
        ))
        .unwrap();
        let target_before = s.target();
        let stats = s
            .apply(&batch(
                &mapping,
                &[("E", &["Ada", "IBM"][..], iv(2014, 2016))],
            ))
            .unwrap();
        assert_eq!(stats.batch_facts, 1, "new to the raw source");
        assert_eq!(stats.source_delta, 0, "but already normalized away");
        assert_eq!(stats.tgd_steps, 0);
        assert_eq!(s.target(), target_before);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn failed_batches_do_not_count_as_applied() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(0, 10)),
                ("S", &["Ada", "18k"][..], iv(0, 10)),
            ],
        ))
        .unwrap();
        assert_eq!(s.stats().batches, 1);
        s.apply(&batch(&mapping, &[("S", &["Ada", "20k"][..], iv(5, 15))]))
            .unwrap_err();
        assert_eq!(s.stats().batches, 1, "rolled-back batch must not count");
        assert_eq!(s.stats().full_rechases, 1, "rollback rebuilds once");
        s.apply(&batch(&mapping, &[("E", &["Bob", "IBM"][..], iv(2, 8))]))
            .unwrap();
        assert_eq!(s.stats().batches, 2);
    }

    #[test]
    fn widening_refine_rides_the_incremental_path() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(2012, 2014)),
                ("S", &["Ada", "18k"][..], iv(2013, 2014)),
            ],
        ))
        .unwrap();
        let e = mapping
            .source()
            .rel_id(tdx_logic::Symbol::intern("E"))
            .unwrap();
        let mut b = DeltaBatch::new();
        b.refine(
            e,
            row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2016),
        );
        let stats = s.apply(&b).unwrap();
        assert!(!stats.full_rechase);
        assert_matches_from_scratch(&s);
        // The widened extent is reflected in the solution.
        let target = s.target();
        let sem = semantics(&target);
        assert!(!sem.snapshot_at(2015).is_empty());
    }

    #[test]
    fn narrowing_refine_falls_back_to_full_rechase() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[("E", &["Ada", "IBM"][..], iv(2012, 2018))],
        ))
        .unwrap();
        let e = mapping
            .source()
            .rel_id(tdx_logic::Symbol::intern("E"))
            .unwrap();
        let mut b = DeltaBatch::new();
        b.refine(
            e,
            row([Value::str("Ada"), Value::str("IBM")]),
            iv(2012, 2014),
        );
        let stats = s.apply(&b).unwrap();
        assert!(stats.full_rechase);
        assert_eq!(s.source_len(), 1);
        let sem = semantics(&s.target());
        assert!(sem.snapshot_at(2015).is_empty());
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn conflicting_batch_fails_and_rolls_back() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(0, 10)),
                ("S", &["Ada", "18k"][..], iv(0, 10)),
            ],
        ))
        .unwrap();
        let before = s.target();
        let err = s
            .apply(&batch(&mapping, &[("S", &["Ada", "20k"][..], iv(5, 15))]))
            .unwrap_err();
        assert!(matches!(err, TdxError::ChaseFailure { .. }), "{err:?}");
        // Rolled back: the conflicting fact is gone and the session still
        // answers from the pre-batch fixpoint.
        assert!(!s.is_poisoned());
        assert_eq!(s.source_len(), 2);
        assert!(hom_equivalent(&semantics(&before), &semantics(&s.target())));
        // And it keeps accepting consistent batches.
        s.apply(&batch(&mapping, &[("E", &["Bob", "IBM"][..], iv(2, 8))]))
            .unwrap();
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn recoarsens_when_the_timeline_grows() {
        let mapping = paper_mapping();
        let mut s = IncrementalExchange::new(mapping.clone()).unwrap();
        let mut recoarsened = 0;
        for k in 0..40u64 {
            let name = format!("p{k}");
            let b = batch(
                &mapping,
                &[("E", &[name.as_str(), "c"][..], iv(10 * k, 10 * k + 5))],
            );
            let stats = s.apply(&b).unwrap();
            recoarsened += usize::from(stats.recoarsened);
            assert!(stats.partitions >= 1);
        }
        assert!(recoarsened >= 2, "timeline growth must re-coarsen the cut");
        assert!(s.tp.len() > 1);
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn narrowing_then_insert_does_not_reuse_stale_memos() {
        // Regression: the full re-chase a narrowing refine triggers must
        // drop the persistent restricted-check memos. A stale memo entry
        // `(Ada, IBM) @ [2012, 2018)` would claim the st1 head is already
        // covered and suppress the tgd step for the re-inserted interval —
        // the session would silently lose Ada's row.
        let mapping = paper_mapping();
        let e = mapping
            .source()
            .rel_id(tdx_logic::Symbol::intern("E"))
            .unwrap();
        for opts in [ChaseOptions::default(), ChaseOptions::distributed(2)] {
            let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
            s.apply(&batch(
                &mapping,
                &[("E", &["Ada", "IBM"][..], iv(2012, 2018))],
            ))
            .unwrap();
            // Narrow Ada's employment: full re-chase, memos must reset.
            let mut b = DeltaBatch::new();
            b.refine(
                e,
                row([Value::str("Ada"), Value::str("IBM")]),
                iv(2012, 2014),
            );
            let stats = s.apply(&b).unwrap();
            assert!(stats.full_rechase);
            assert_matches_from_scratch(&s);
            // Re-insert over an interval the pre-narrowing memo covered:
            // the tgd step must fire again.
            s.apply(&batch(
                &mapping,
                &[("E", &["Ada", "IBM"][..], iv(2015, 2018))],
            ))
            .unwrap();
            let sem = semantics(&s.target());
            assert!(
                !sem.snapshot_at(2016).is_empty(),
                "stale memo suppressed the re-inserted fact"
            );
            assert_matches_from_scratch(&s);
        }
    }

    #[test]
    fn unbounded_boundary_facts_survive_recoarsening() {
        // Unbounded intervals cross every partition boundary after their
        // start; re-coarsening moves those boundaries. The session must
        // stay hom-equivalent to a from-scratch chase throughout, in both
        // local and distributed evaluation.
        let mapping = paper_mapping();
        for opts in [ChaseOptions::default(), ChaseOptions::distributed(3)] {
            let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
            let mut recoarsened = 0usize;
            for k in 0..24u64 {
                let name = format!("p{k}");
                let mut b = batch(
                    &mapping,
                    &[("E", &[name.as_str(), "c"][..], iv(10 * k, 10 * k + 5))],
                );
                if k % 3 == 0 {
                    // Every third person keeps an open-ended employment.
                    let rid = mapping
                        .source()
                        .rel_id(tdx_logic::Symbol::intern("E"))
                        .unwrap();
                    let open = Interval::from(10 * k + 5);
                    assert!(open.is_unbounded());
                    b.insert(rid, row([Value::str(&name), Value::str("c2")]), open);
                }
                let stats = s.apply(&b).unwrap();
                recoarsened += usize::from(stats.recoarsened);
            }
            assert!(recoarsened >= 1, "growth must re-coarsen at least once");
            assert!(s.tp.len() > 1);
            assert_matches_from_scratch(&s);
        }
    }

    #[test]
    fn distributed_session_matches_from_scratch_across_server_counts() {
        let mapping = paper_mapping();
        let batches = [
            batch(&mapping, &[("E", &["Ada", "IBM"][..], iv(2012, 2014))]),
            batch(
                &mapping,
                &[
                    ("E", &["Ada", "Google"][..], Interval::from(2014)),
                    ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ],
            ),
            batch(
                &mapping,
                &[
                    ("E", &["Bob", "IBM"][..], iv(2013, 2018)),
                    ("S", &["Bob", "13k"][..], Interval::from(2015)),
                ],
            ),
        ];
        let mut targets = Vec::new();
        for servers in [1usize, 3] {
            let mut s = IncrementalExchange::with_options(
                mapping.clone(),
                ChaseOptions::distributed(servers),
            )
            .unwrap();
            for b in &batches {
                s.apply(b).unwrap();
                assert_matches_from_scratch(&s);
            }
            targets.push(s.target());
        }
        // Determinism across server counts carries over to the session.
        assert_eq!(targets[0], targets[1]);
    }

    #[test]
    fn distributed_session_rolls_back_conflicts() {
        let mapping = paper_mapping();
        let mut s =
            IncrementalExchange::with_options(mapping.clone(), ChaseOptions::distributed(2))
                .unwrap();
        s.apply(&batch(
            &mapping,
            &[
                ("E", &["Ada", "IBM"][..], iv(0, 10)),
                ("S", &["Ada", "18k"][..], iv(0, 10)),
            ],
        ))
        .unwrap();
        let before = s.target();
        let err = s
            .apply(&batch(&mapping, &[("S", &["Ada", "20k"][..], iv(5, 15))]))
            .unwrap_err();
        assert!(matches!(err, TdxError::ChaseFailure { .. }), "{err:?}");
        assert!(!s.is_poisoned());
        assert!(hom_equivalent(&semantics(&before), &semantics(&s.target())));
        s.apply(&batch(&mapping, &[("E", &["Bob", "IBM"][..], iv(2, 8))]))
            .unwrap();
        assert_matches_from_scratch(&s);
    }

    #[test]
    fn options_variants_stay_equivalent() {
        let mapping = paper_mapping();
        for opts in [
            ChaseOptions::paper_faithful(),
            ChaseOptions {
                naive_normalization: true,
                ..ChaseOptions::default()
            },
            ChaseOptions::partitioned_parallel(2),
        ] {
            let mut s = IncrementalExchange::with_options(mapping.clone(), opts).unwrap();
            s.apply(&batch(
                &mapping,
                &[
                    ("E", &["Ada", "IBM"][..], iv(2012, 2014)),
                    ("S", &["Ada", "18k"][..], Interval::from(2013)),
                ],
            ))
            .unwrap();
            s.apply(&batch(
                &mapping,
                &[("E", &["Bob", "IBM"][..], iv(2013, 2018))],
            ))
            .unwrap();
            assert_matches_from_scratch(&s);
        }
    }
}

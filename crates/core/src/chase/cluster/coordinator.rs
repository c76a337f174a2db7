//! The coordinator: the one place global chase state lives when match
//! enumeration is farmed out to partition servers.
//!
//! Two things live here:
//!
//! 1. **The coordinator kernel** — the restricted-chase check machinery
//!    (`Check`, `classify_check`, `register_memo`) and the union-find
//!    merge fold (`fold_merge_ops`). The
//!    [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
//!    session — the one production chase engine, local or distributed —
//!    folds its enumerated matches through these routines; only *where the
//!    enumeration ran* differs.
//! 2. **[`DistributedCluster`]** — the coordinator-side handle to a set of
//!    partition servers behind any [`Transport`] backend: delta-only
//!    shipping against per-server retained-prefix watermarks, a heartbeat,
//!    and a bounded retry path that respawns a dead server and replays its
//!    watermarked images. The session drives it one fused round per phase.
//!
//! # Delta-only shipping
//!
//! For each server and store the cluster caches the routed image it last
//! shipped (the concatenated pre + delta lists, per relation). The
//! invariant is **cache = the server's retained image**: an `ApplyDelta`
//! ships, per relation, a [`SyncOp`] program — runs of retained facts
//! kept in order, plus inserts of only the genuinely new facts — and the
//! server reconstructs exactly the full lists the PR 4 protocol used to
//! re-ship wholesale. The program is the greedy in-order diff
//! (`diff_ops`), which is *exact* for how the chase evolves its lists:
//! settling appends (one retained run + a suffix — the retained-prefix
//! watermark of the steady state), union-find rewrites and
//! re-fragmentation delete in place and append replacements (retained
//! runs around the deletions). Traffic is therefore proportional to what
//! changed; only re-coarsening or a rebuild (a fresh cluster) re-ships
//! everything.
//!
//! # Failure handling
//!
//! Any transport error (or undecodable response) marks the server dead —
//! including a **deadline miss**: every coordinator-side `send`/`recv`
//! runs under the per-frame deadline of
//! [`frame_deadline`](crate::chase::frame_deadline), so a hung fail-slow
//! server surfaces as a `TimedOut` transport fault exactly like a crashed
//! one. The retry path backs off exponentially (with deterministic
//! jitter), respawns the server through the cluster's
//! [`TransportSpawner`], replays the `Hello` handshake and both stores'
//! cached images as full re-ships — restoring the server to exactly its
//! pre-failure state — and re-sends the failed frame. Each slot tracks a
//! [`ServerHealth`] state machine: a failure demotes it to `Suspect`, and
//! `CLEAN_ROUNDS_TO_FORGIVE` consecutive clean rounds decay one respawn
//! off its budget again (so a long-lived session is not killed by
//! transient faults accumulated over hours). A server that exhausts
//! `MAX_RESPAWNS` *without* recovering is **quarantined**: its slot is
//! permanently replaced by an in-coordinator `LocalTransport` running
//! the identical deterministic `ServerState` kernel, so the chase
//! completes byte-identical — slower, but never failed — instead of
//! erroring out. [`DistributedCluster::heartbeat`] pings every server and
//! runs the same recovery, for callers that held a cluster idle (an
//! incremental session between batches). See `docs/robustness.md`.
//!
//! # Determinism
//!
//! Every fact is routed to one server only: the owner of the partition its
//! interval starts in ([`TimelinePartition::server_of`]). Servers own
//! contiguous ascending partition blocks and run the session's own join
//! kernel, which walks dirty intervals in ascending order, so
//! concatenating the per-tgd homomorphisms server by server yields
//! ascending interval order — the local session's hom order. Merge ops are
//! concatenated the same way and then sorted stably by (egd, interval),
//! the local egd phase's order. Neither the server count nor the transport
//! carrying the frames changes that order, so the result is
//! byte-identical to the local engine across `{channel, tcp} × any server
//! count` (`tests/equivalence.rs`).

use super::protocol::{
    config_digest, image_digest, FactLists, Hom, MergeOp, Message, RelationSync, Response,
    ServerConfig, StoreKind, SyncOp, WireHom,
};
use super::server::ServerState;
use super::transport::{
    resolve_transport, spawner_for, Transport, TransportKind, TransportSpawner,
};
use crate::chase::concrete::{AnnotatedUnionFind, UfKey};
use crate::error::{Result, TdxError};
use std::sync::Arc;
use std::time::Duration;
use tdx_logic::{Atom, RelId, Schema, SchemaMapping, Term, Var};
use tdx_storage::codec::{decode, encode};
use tdx_storage::fxhash::FxHashSet;
use tdx_storage::{TemporalFact, Value};
use tdx_temporal::{Interval, TimelinePartition};

// ---------------------------------------------------------------------------
// The coordinator kernel

/// A memo entry: determined head values + the shared interval.
pub(crate) type MemoKey = (Vec<Value>, Interval);

/// The restricted-chase check for one tgd, cheapest applicable tier first:
/// without existentials, "no extension into the target" is just "some head
/// fact is missing" — the insert's own dedup answers it (`Direct`). A
/// single-atom head with non-repeated existentials reduces to a hash memo
/// over the determined head positions, updated on every insert (`Memo`).
/// Anything else falls back to the matcher probe (`Probe`).
#[derive(Clone)]
pub(crate) enum Check {
    /// Insert-dedup answers the check.
    Direct,
    /// Hash memo over the determined columns of the single head atom.
    Memo {
        /// Head relation the memo watches.
        rel: RelId,
        /// Determined column positions (constants + universal variables).
        cols: Vec<usize>,
    },
    /// Full matcher probe against the target.
    Probe,
}

/// Classifies the restricted-chase check tier for a tgd head (see
/// [`Check`]).
pub(crate) fn classify_check(head: &[Atom], existentials: &[Var], tgt: &Schema) -> Result<Check> {
    if existentials.is_empty() {
        return Ok(Check::Direct);
    }
    if head.len() == 1 {
        let atom = &head[0];
        let repeated = existentials.iter().any(|e| {
            atom.terms
                .iter()
                .filter(|t| matches!(t, Term::Var(v) if v == e))
                .count()
                > 1
        });
        if !repeated {
            return Ok(Check::Memo {
                rel: tgt.rel_id(atom.relation).ok_or_else(|| {
                    TdxError::Invalid(format!("unknown head relation {}", atom.relation))
                })?,
                cols: atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => !existentials.contains(v),
                    })
                    .map(|(i, _)| i)
                    .collect(),
            });
        }
    }
    Ok(Check::Probe)
}

/// Registers an inserted target fact with every memo watching its relation.
pub(crate) fn register_memo<'a>(
    memos: &mut [FxHashSet<MemoKey>],
    checks: impl Iterator<Item = &'a Check>,
    rel: RelId,
    data: &[Value],
    iv: Interval,
) {
    for (mi, check) in checks.enumerate() {
        if let Check::Memo { rel: mrel, cols } = check {
            if *mrel == rel {
                let key: Vec<Value> = cols.iter().map(|&c| data[c]).collect();
                memos[mi].insert((key, iv));
            }
        }
    }
}

/// The memo probe key of one enumerated homomorphism: the determined head
/// values at `cols`, in column order. Homomorphisms arrive off the wire
/// from partition servers, so a missing binding is a malformed response —
/// a typed error through the transport-fault lane, never a panic.
pub(crate) fn memo_probe_key(
    cols: &[usize],
    atom: &Atom,
    h: &[(Var, Value)],
) -> Result<Vec<Value>> {
    cols.iter()
        .map(|&c| match &atom.terms[c] {
            Term::Const(cst) => Ok(Value::Const(*cst)),
            Term::Var(v) => h
                .iter()
                .find(|(w, _)| w == v)
                .map(|(_, val)| *val)
                .ok_or_else(|| {
                    TdxError::Invalid(format!(
                        "enumerated homomorphism leaves universal head variable {v:?} unbound"
                    ))
                }),
        })
        .collect()
}

/// Folds enumerated egd merge operations into a round's union-find. A
/// constant/constant clash fails the chase with the owning egd's name —
/// identical failure rendering for every engine. Returns the number of
/// effective identifications.
pub(crate) fn fold_merge_ops(
    ops: impl IntoIterator<Item = MergeOp>,
    uf: &mut AnnotatedUnionFind,
    egd_name: impl Fn(usize) -> String,
) -> Result<usize> {
    let mut merges = 0usize;
    for (ei, a, b, iv) in ops {
        let key = |v: Value| match v {
            Value::Const(c) => UfKey::Const(c),
            Value::Null(n) => UfKey::Null(n, iv),
        };
        match uf.union(key(a), key(b)) {
            Ok(()) => merges += 1,
            Err((c1, c2)) => {
                let render = |k: UfKey| match k {
                    UfKey::Const(c) => c.to_string(),
                    UfKey::Null(n, _) => n.to_string(),
                };
                return Err(TdxError::ChaseFailure {
                    dependency: egd_name(ei as usize),
                    left: render(c1),
                    right: render(c2),
                    interval: Some(iv),
                });
            }
        }
    }
    Ok(merges)
}

// ---------------------------------------------------------------------------
// The cluster

/// Respawn budget per server. Three strikes covers a flaky-but-recovering
/// carrier; a server that burns through the whole budget without a clean
/// round in between is quarantined into coordinator-local execution
/// (see [`ServerHealth::Quarantined`]). Unlike the pre-PR 8 budget this
/// is no longer a lifetime count: [`CLEAN_ROUNDS_TO_FORGIVE`] clean
/// rounds decay one respawn back off, so only *concentrated* failures
/// exhaust it.
pub(crate) const MAX_RESPAWNS: u32 = 3;

/// Consecutive fully-clean broadcast rounds after which one respawn is
/// forgiven (decayed off a slot's budget). Long enough that a genuinely
/// flapping server still hits quarantine, short enough that a long-lived
/// durable session shrugs off transient faults spread over hours.
pub(crate) const CLEAN_ROUNDS_TO_FORGIVE: u32 = 8;

/// The health state machine of one server slot.
///
/// `Healthy → Suspect` on any transport fault; `Suspect → Healthy` when
/// clean rounds have decayed the respawn budget back to zero;
/// `Suspect → Quarantined` (terminal for the cluster's lifetime) when the
/// budget is exhausted — the slot's owned blocks then run
/// coordinator-locally on the shared `ServerState` kernel, preserving
/// byte-identical results at reduced parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerHealth {
    /// No outstanding strikes.
    Healthy,
    /// Failed recently; strikes outstanding, still served remotely.
    Suspect,
    /// Budget exhausted; degraded to coordinator-local execution.
    Quarantined,
}

/// Cumulative wire-traffic counters of one [`DistributedCluster`] — the
/// observable for shipping-discipline tests and the bench notes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Protocol frames sent coordinator → servers.
    pub frames_sent: u64,
    /// Total bytes of those frames.
    pub bytes_sent: u64,
    /// Bytes of sync-carrying frames (`ApplyDelta` and the fused rounds —
    /// the traffic the delta-only watermark scheme bounds).
    pub apply_delta_bytes: u64,
    /// Facts actually shipped inside sync programs (appends + delta
    /// blocks; retained-prefix facts count 0).
    pub apply_delta_facts: u64,
    /// Full-barrier round trips: broadcasts where every server was sent a
    /// frame and awaited. The latency currency of the protocol — the
    /// fused v2 rounds exist to shrink this number.
    pub round_trips: u64,
    /// Dead-server respawns performed by the retry path.
    pub respawns: u64,
    /// Servers degraded to coordinator-local execution after exhausting
    /// their respawn budget (see [`ServerHealth::Quarantined`]).
    pub quarantines: u64,
}

/// One routed image set (see [`DistributedCluster::route_lists`]).
struct Routed {
    /// Per server: the concatenated pre + delta lists per relation.
    images: Vec<FactLists>,
    /// Per server: the pre/delta boundary per relation.
    splits: Vec<Vec<u64>>,
}

/// Appends one server's per-tgd wire homs to the per-tgd fold,
/// re-interning their variables.
fn fold_wire_homs(out: &mut [Vec<Hom>], per_tgd: Vec<Vec<WireHom>>) -> Result<()> {
    if per_tgd.len() > out.len() {
        return Err(TdxError::Invalid("server returned extra tgd rows".into()));
    }
    for (ti, homs) in per_tgd.into_iter().enumerate() {
        out[ti].extend(homs.into_iter().map(|(bind, iv)| {
            (
                bind.into_iter()
                    .map(|(name, val)| (Var::new(&name), val))
                    .collect::<Vec<_>>(),
                iv,
            )
        }));
    }
    Ok(())
}

struct ServerSlot {
    transport: Box<dyn Transport>,
    /// Per store: the routed image last acknowledged (concatenated
    /// pre + delta lists and the per-relation split) — the coordinator's
    /// copy of the server's retained image, and the base of the next
    /// watermark diff.
    shipped: [Option<(FactLists, Vec<u64>)>; 2],
    /// Outstanding strikes: decayed by clean rounds, never past zero.
    respawns: u32,
    health: ServerHealth,
    /// Consecutive clean broadcast rounds since the last fault.
    clean_rounds: u32,
}

impl ServerSlot {
    fn new(transport: Box<dyn Transport>) -> ServerSlot {
        ServerSlot {
            transport,
            shipped: [None, None],
            respawns: 0,
            health: ServerHealth::Healthy,
            clean_rounds: 0,
        }
    }
}

/// Placeholder carrier for a server whose spawn failed outright. Every
/// operation reports the spawn failure, so cluster construction succeeds
/// and the slot enters the ordinary retry path — respawn with backoff,
/// then quarantine — at its first frame, instead of failing the whole
/// chase before the healthy servers even start.
struct DownTransport;

fn down_err() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "partition server never spawned",
    )
}

impl Transport for DownTransport {
    fn send(&mut self, _frame: &[u8]) -> std::io::Result<()> {
        Err(down_err())
    }

    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        Err(down_err())
    }

    fn shutdown(&mut self) {}
}

/// The graceful-degradation carrier of a quarantined slot: the same
/// request/response protocol, executed coordinator-locally against the
/// identical deterministic [`ServerState`] kernel a remote server runs.
/// `send` decodes and handles the frame immediately, `recv` yields the
/// buffered response. Infallible for well-formed protocol traffic — so a
/// quarantined slot never re-enters the retry path — and byte-identical
/// to a remote server because the kernel is the same code either way.
struct LocalTransport {
    state: ServerState,
    pending: Option<Vec<u8>>,
}

impl LocalTransport {
    fn new() -> LocalTransport {
        LocalTransport {
            state: ServerState::new(),
            pending: None,
        }
    }
}

impl Transport for LocalTransport {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let msg = decode::<Message>(frame).map_err(|e| invalid(e.to_string()))?;
        let resp = self.state.handle(msg).map_err(invalid)?;
        self.pending = Some(encode(&resp));
        Ok(())
    }

    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        self.pending.take().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "local slot has no response pending",
            )
        })
    }

    fn shutdown(&mut self) {}
}

/// A coordinator-side handle to a set of partition servers behind a
/// [`Transport`] backend. Owns the server peers; dropping the cluster
/// sends `Shutdown` and joins/reaps them.
pub struct DistributedCluster {
    slots: Vec<ServerSlot>,
    /// The encoded `Hello` handshake — the same for every server — replayed
    /// on respawn.
    hello: Vec<u8>,
    tp: TimelinePartition,
    src_rels: usize,
    tgt_rels: usize,
    servers: usize,
    spawner: Arc<dyn TransportSpawner>,
    traffic: TrafficStats,
    /// Resolved per-frame deadline, applied to every transport at spawn
    /// and respawn (`None` = unbounded).
    deadline: Option<Duration>,
}

fn transport_err(s: usize, e: impl std::fmt::Display) -> TdxError {
    TdxError::Invalid(format!("partition server {s}: {e}"))
}

/// Spawns server `s`'s transport and applies the cluster deadline; either
/// failure yields a [`DownTransport`] placeholder instead of an error, so
/// cluster construction never fails on one bad slot — the retry path
/// picks the placeholder up at its first frame.
fn spawn_transport(
    spawner: &dyn TransportSpawner,
    s: usize,
    deadline: Option<Duration>,
) -> Box<dyn Transport> {
    match spawner.spawn(s) {
        Ok(mut t) => {
            if t.set_deadline(deadline).is_ok() {
                t
            } else {
                t.shutdown();
                Box::new(DownTransport)
            }
        }
        Err(_) => Box::new(DownTransport),
    }
}

/// Deterministic backoff before respawn attempt `attempt` (1-based) of
/// server `s`: exponential in the attempt, capped, plus a jitter derived
/// from `(s, attempt)` by a splitmix64 step — reproducible across runs
/// (no wall-clock or RNG state), yet de-synchronized across servers so a
/// correlated fault does not hammer the spawner in lockstep.
fn respawn_backoff(s: usize, attempt: u32) -> Duration {
    let base = (5u64 << (attempt.saturating_sub(1)).min(6)).min(200);
    let mut z = (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Duration::from_millis(base + (z >> 59)) // jitter in 0..32 ms
}

/// Whether `e` came out of the cluster's transport/retry path (a dead or
/// unreachable partition server, or an exhausted respawn budget) rather
/// than a chase failure. The incremental session uses this to replace a
/// cluster that died while it idled with a fresh spawn — one full re-ship
/// — instead of failing the batch.
pub(crate) fn is_transport_error(e: &TdxError) -> bool {
    matches!(e, TdxError::Invalid(msg) if msg.starts_with("partition server"))
}

impl DistributedCluster {
    /// Spawns `servers` partition servers over `tp` on the transport
    /// resolved from the environment (`TDX_CHASE_TRANSPORT`, default
    /// channel), distributing its ranges as contiguous balanced blocks
    /// ([`TimelinePartition::server_of`]); each fact is shipped to the
    /// owner of the range its interval starts in. Dependency bodies and
    /// schemas ship as the `Hello` handshake.
    pub fn spawn(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
    ) -> Result<DistributedCluster> {
        Self::spawn_with(mapping, tp, servers, spawner_for(resolve_transport(None)))
    }

    /// [`DistributedCluster::spawn`] on an explicit transport backend.
    pub fn spawn_on(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        transport: TransportKind,
    ) -> Result<DistributedCluster> {
        Self::spawn_with(mapping, tp, servers, spawner_for(transport))
    }

    /// [`DistributedCluster::spawn`] through an arbitrary spawner — the
    /// injection point for fault-injection tests and custom carriers.
    pub fn spawn_with(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        spawner: Arc<dyn TransportSpawner>,
    ) -> Result<DistributedCluster> {
        Self::spawn_with_deadline(mapping, tp, servers, spawner, None)
    }

    /// [`DistributedCluster::spawn_with`] with an explicit per-frame
    /// deadline request (resolved through
    /// [`frame_deadline`](crate::chase::frame_deadline) — `None` consults
    /// `TDX_CHASE_DEADLINE_MS`, `Some(ZERO)` disables deadlines). A spawn
    /// failure no longer fails the cluster: the slot starts on a
    /// `DownTransport` placeholder and goes through the retry path — and
    /// eventually quarantine — at the `Hello` handshake.
    pub fn spawn_with_deadline(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        spawner: Arc<dyn TransportSpawner>,
        deadline: Option<Duration>,
    ) -> Result<DistributedCluster> {
        let mut cluster = Self::unconfigured(mapping, tp, servers, spawner, deadline);
        // Handshake every server (pipelined like any broadcast round).
        let hellos = vec![cluster.hello.clone(); cluster.servers];
        for (s, resp) in cluster.broadcast(hellos)?.into_iter().enumerate() {
            if resp != Response::Ready {
                return Err(transport_err(
                    s,
                    format!("unexpected Hello response {resp:?}"),
                ));
            }
        }
        Ok(cluster)
    }

    /// Spawns the server carriers without sending them anything.
    fn unconfigured(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        spawner: Arc<dyn TransportSpawner>,
        deadline: Option<Duration>,
    ) -> DistributedCluster {
        let deadline = crate::chase::frame_deadline(deadline);
        let servers = servers.max(1);
        DistributedCluster {
            slots: (0..servers)
                .map(|s| ServerSlot::new(spawn_transport(&*spawner, s, deadline)))
                .collect(),
            hello: encode(&Message::Hello(ServerConfig::for_server(mapping))),
            tp: tp.clone(),
            src_rels: mapping.source().len(),
            tgt_rels: mapping.target().len(),
            servers,
            spawner,
            traffic: TrafficStats::default(),
            deadline,
        }
    }

    /// [`DistributedCluster::spawn_with`] for a *recovering* coordinator:
    /// instead of handshaking blank servers, probe each one with the v3
    /// `Resume` frame and **adopt** it — configuration, retained images
    /// and all — when its watermark digests match what this coordinator
    /// expects it to hold: the recovered settled lists (`expected`, source
    /// then target store) routed to that server. An adopted server skips
    /// both the `Hello` and the full image re-ship; any mismatch (blank
    /// server, mid-batch crash leaving mid-round lists, different
    /// configuration) falls back to the ordinary `Hello` handshake, which
    /// resets the server. Returns the cluster and how many servers were
    /// adopted.
    ///
    /// Digests cover *facts*, not pre/delta splits: a surviving server's
    /// split still marks the last round's delta boundary while the
    /// recovered coordinator treats everything as settled. Routing is
    /// per-fact and order-preserving, so `routed(pre ++ delta) =
    /// routed(pre) ++ routed(delta)` per relation — the fact lists agree
    /// even though the boundaries do not, and the next `ApplyDelta` ships
    /// fresh boundaries anyway.
    pub fn resume_with(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        servers: usize,
        spawner: Arc<dyn TransportSpawner>,
        deadline: Option<Duration>,
        expected: [&FactLists; 2],
    ) -> Result<(DistributedCluster, usize)> {
        let mut cluster = Self::unconfigured(mapping, tp, servers, spawner, deadline);
        let cfg_digest = config_digest(&ServerConfig::for_server(mapping));
        // What each surviving server *should* retain: the settled lists
        // routed as all-pre (the delta boundary difference is immaterial —
        // see above).
        let routed = [
            cluster.route_settled(StoreKind::Source, expected[0]),
            cluster.route_settled(StoreKind::Target, expected[1]),
        ];
        // A server that dies during this probe goes through the ordinary
        // retry path: its respawn replays `Hello` (shipped caches are still
        // empty), the re-sent `Resume` reports unconfigured, and the
        // fallback below re-`Hello`s — harmlessly redundant.
        let mut resumed = 0;
        for (s, resp) in cluster
            .broadcast_same(&Message::Resume)?
            .into_iter()
            .enumerate()
        {
            let adopt = match resp {
                Response::ResumeState {
                    configured,
                    config,
                    images,
                } => {
                    configured
                        && config == cfg_digest
                        && images[0] == image_digest(&routed[0].images[s])
                        && images[1] == image_digest(&routed[1].images[s])
                }
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected Resume response {other:?}"),
                    ))
                }
            };
            if adopt {
                resumed += 1;
                for (k, r) in routed.iter().enumerate() {
                    cluster.slots[s].shipped[k] = Some((r.images[s].clone(), r.splits[s].clone()));
                }
            } else {
                // The reset rides the full retry path: a server that dies
                // on its fallback `Hello` is respawned and re-reset, not
                // surfaced as a failed recovery.
                let hello = cluster.hello.clone();
                match cluster.request_retried(s, &hello)? {
                    Response::Ready => {}
                    other => {
                        return Err(transport_err(
                            s,
                            format!("unexpected Hello response {other:?}"),
                        ))
                    }
                }
            }
        }
        Ok((cluster, resumed))
    }

    /// Abandons the cluster the way a coordinator crash would: every
    /// carrier is severed — closed with **no** protocol `Shutdown`, no
    /// child reaping, no thread joins — so listen-mode servers keep their
    /// retained images for a successor's [`Resume`](Message::Resume)
    /// handshake. Crash-simulation support for durable sessions.
    pub fn sever(mut self) {
        let mut slots = std::mem::take(&mut self.slots);
        for slot in &mut slots {
            slot.transport.sever();
        }
        // `self` drops with no slots, so its Drop sends nothing; dropping
        // the severed slots is carrier cleanup only (peers already
        // detached).
    }

    /// The timeline partition the cluster was spawned over.
    pub fn partition(&self) -> &TimelinePartition {
        &self.tp
    }

    /// Number of partition servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The transport backend the cluster runs on.
    pub fn transport(&self) -> TransportKind {
        self.spawner.kind()
    }

    /// Cumulative wire-traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// The health state of server slot `s` (see [`ServerHealth`]).
    pub fn health(&self, s: usize) -> ServerHealth {
        self.slots[s].health
    }

    /// How many slots are currently quarantined (degraded to
    /// coordinator-local execution).
    pub fn quarantined(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.health == ServerHealth::Quarantined)
            .count()
    }

    fn send_counted(&mut self, s: usize, frame: &[u8]) -> std::io::Result<()> {
        self.slots[s].transport.send(frame)?;
        self.traffic.frames_sent += 1;
        self.traffic.bytes_sent += frame.len() as u64;
        Ok(())
    }

    fn recv_decoded(&mut self, s: usize) -> std::io::Result<Response> {
        let bytes = self.slots[s].transport.recv()?;
        decode::<Response>(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One request/response exchange with no recovery — the building block
    /// `respawn` itself uses.
    fn request_direct(&mut self, s: usize, frame: &[u8]) -> Result<Response> {
        self.send_counted(s, frame)
            .map_err(|e| transport_err(s, e))?;
        self.recv_decoded(s).map_err(|e| transport_err(s, e))
    }

    /// [`request_direct`](Self::request_direct) with the broadcast retry
    /// path behind it: a failed exchange respawns the slot and re-sends
    /// the same frame until it answers, or until quarantine makes the
    /// error terminal.
    fn request_retried(&mut self, s: usize, frame: &[u8]) -> Result<Response> {
        match self.request_direct(s, frame) {
            Ok(resp) => Ok(resp),
            Err(_) => loop {
                self.respawn(s)?;
                match self.request_direct(s, frame) {
                    Ok(resp) => break Ok(resp),
                    Err(e) if self.slots[s].health == ServerHealth::Quarantined => break Err(e),
                    Err(_) => continue,
                }
            },
        }
    }

    /// The retry path: back off, tear the dead server down, spawn a
    /// replacement, replay the `Hello` handshake and both stores' cached
    /// images as full re-ships. On return the server holds exactly the
    /// state it held before it died, so the caller can re-send its
    /// in-flight frame verbatim. A slot that exhausts [`MAX_RESPAWNS`]
    /// consecutive strikes is **quarantined** instead of failing the
    /// chase: its carrier becomes a [`LocalTransport`] running the same
    /// deterministic kernel coordinator-locally, replayed into the same
    /// pre-failure state.
    fn respawn(&mut self, s: usize) -> Result<()> {
        loop {
            self.slots[s].respawns += 1;
            self.traffic.respawns += 1;
            self.slots[s].clean_rounds = 0;
            if self.slots[s].health == ServerHealth::Healthy {
                self.slots[s].health = ServerHealth::Suspect;
            }
            let attempt = self.slots[s].respawns;
            if attempt > MAX_RESPAWNS {
                self.traffic.quarantines += 1;
                self.slots[s].health = ServerHealth::Quarantined;
                self.slots[s].transport.shutdown();
                self.slots[s].transport = Box::new(LocalTransport::new());
                // The local kernel is infallible for the well-formed
                // protocol replay below, so this return is the terminal
                // state of the loop.
                return self.replay_state(s);
            }
            std::thread::sleep(respawn_backoff(s, attempt));
            self.slots[s].transport.shutdown();
            self.slots[s].transport = match self.spawner.spawn(s) {
                Ok(t) => t,
                Err(_) => continue, // another strike, toward quarantine
            };
            if self.slots[s].transport.set_deadline(self.deadline).is_err() {
                continue;
            }
            if self.replay_state(s).is_ok() {
                return Ok(());
            }
        }
    }

    /// Replays slot `s`'s `Hello` handshake and both stores' cached
    /// images as full `Insert` re-ships — the respawn/quarantine tail
    /// that restores a blank peer to its pre-failure state.
    fn replay_state(&mut self, s: usize) -> Result<()> {
        let hello = self.hello.clone();
        match self.request_direct(s, &hello)? {
            Response::Ready => {}
            other => {
                return Err(transport_err(
                    s,
                    format!("unexpected Hello response after respawn: {other:?}"),
                ))
            }
        }
        for store in StoreKind::BOTH {
            let Some((image, splits)) = self.slots[s].shipped[store.idx()].clone() else {
                continue;
            };
            let facts: usize = image.iter().map(|l| l.len()).sum();
            let sync: Vec<RelationSync> = image
                .into_iter()
                .zip(&splits)
                .map(|(list, &split)| RelationSync {
                    ops: if list.is_empty() {
                        Vec::new()
                    } else {
                        vec![SyncOp::Insert(list)]
                    },
                    split,
                })
                .collect();
            let frame = encode(&Message::ApplyDelta { store, sync });
            self.traffic.apply_delta_bytes += frame.len() as u64;
            self.traffic.apply_delta_facts += facts as u64;
            match self.request_direct(s, &frame)? {
                Response::Applied => {}
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected replay response: {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Round-level health accounting: a slot that got through a whole
    /// broadcast without a fault earns a clean round, and every
    /// [`CLEAN_ROUNDS_TO_FORGIVE`] of those decays one respawn off its
    /// outstanding budget — back to `Healthy` once the budget is clear.
    /// Quarantine is terminal: a local slot stays quarantined (and its
    /// "rounds" are local calls, not evidence about the dead peer).
    fn note_clean_round(&mut self, s: usize) {
        let slot = &mut self.slots[s];
        if slot.health == ServerHealth::Quarantined || slot.respawns == 0 {
            return;
        }
        slot.clean_rounds += 1;
        if slot.clean_rounds >= CLEAN_ROUNDS_TO_FORGIVE {
            slot.clean_rounds = 0;
            slot.respawns -= 1;
            if slot.respawns == 0 {
                slot.health = ServerHealth::Healthy;
            }
        }
    }

    /// Sends one frame per server (frame `s` to server `s`), collects one
    /// response per server in server order. All frames go out before any
    /// response is awaited, so servers work concurrently; a server that
    /// fails at either step goes through the retry path and answers the
    /// same frame on its replacement.
    fn broadcast(&mut self, frames: Vec<Vec<u8>>) -> Result<Vec<Response>> {
        debug_assert_eq!(frames.len(), self.slots.len());
        let n = self.slots.len();
        self.traffic.round_trips += 1;
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let mut failed = vec![false; n];
        for (s, frame) in frames.iter().enumerate() {
            if self.send_counted(s, frame).is_err() {
                failed[s] = true;
            }
        }
        for (s, slot_out) in out.iter_mut().enumerate() {
            if failed[s] {
                continue;
            }
            match self.recv_decoded(s) {
                Ok(resp) => *slot_out = Some(resp),
                Err(_) => failed[s] = true,
            }
        }
        for s in 0..n {
            if !failed[s] {
                self.note_clean_round(s);
                continue;
            }
            // Keep retrying until the slot answers: each failed attempt
            // burns a strike, so the loop converges — at the latest onto
            // the quarantined local kernel, which fails only on a
            // malformed frame (a coordinator bug worth surfacing, not
            // retrying).
            out[s] = loop {
                self.respawn(s)?;
                match self.request_direct(s, &frames[s]) {
                    Ok(resp) => break Some(resp),
                    Err(e) if self.slots[s].health == ServerHealth::Quarantined => return Err(e),
                    Err(_) => continue,
                }
            };
        }
        // Every slot either answered above or looped through the retry
        // path until it did; an empty slot here is a coordinator bug, and
        // it surfaces as a typed error, not a panic mid-broadcast.
        out.into_iter()
            .enumerate()
            .map(|(s, r)| {
                r.ok_or_else(|| transport_err(s, "server answered no frame after recovery"))
            })
            .collect()
    }

    /// Broadcasts one identical frame to every server.
    fn broadcast_same(&mut self, msg: &Message) -> Result<Vec<Response>> {
        let frame = encode(msg);
        let frames: Vec<Vec<u8>> = (0..self.slots.len()).map(|_| frame.clone()).collect();
        self.broadcast(frames)
    }

    /// Pings every server, recovering dead ones through the retry path.
    /// Callers that held an idle cluster (an incremental session between
    /// batches) run this before trusting it with a round.
    pub fn heartbeat(&mut self) -> Result<()> {
        for (s, resp) in self.broadcast_same(&Message::Ping)?.into_iter().enumerate() {
            if resp != Response::Pong {
                return Err(transport_err(
                    s,
                    format!("unexpected Ping response {resp:?}"),
                ));
            }
        }
        Ok(())
    }

    /// Relation count of `store`'s schema.
    fn rels(&self, store: StoreKind) -> usize {
        match store {
            StoreKind::Source => self.src_rels,
            StoreKind::Target => self.tgt_rels,
        }
    }

    /// Routes `pre ++ delta` into per-server images: each fact goes to the
    /// one server owning the partition its interval starts in, in list
    /// order. Per server and relation: the concatenated pre + delta facts
    /// and the boundary between the two blocks.
    fn route_lists(&self, store: StoreKind, pre: &FactLists, delta: &FactLists) -> Routed {
        let nrels = self.rels(store);
        let mut routed = Routed {
            images: vec![vec![Vec::new(); nrels]; self.servers],
            splits: vec![vec![0; nrels]; self.servers],
        };
        for (block, lists) in [pre, delta].into_iter().enumerate() {
            for (r, facts) in lists.iter().enumerate() {
                for fact in facts {
                    let part = self.tp.part_of(fact.interval.start());
                    let s = self.tp.server_of(part, self.servers);
                    routed.images[s][r].push(fact.clone());
                    if block == 0 {
                        routed.splits[s][r] += 1;
                    }
                }
            }
        }
        routed
    }

    /// [`route_lists`](Self::route_lists) of settled lists: everything in
    /// the pre block.
    fn route_settled(&self, store: StoreKind, lists: &FactLists) -> Routed {
        self.route_lists(store, lists, &vec![Vec::new(); self.rels(store)])
    }

    /// The sync program for one server against its retained image (see the
    /// module docs), plus the count of facts actually shipped (`Insert`
    /// payloads; retained runs count 0).
    fn sync_program(
        &self,
        store: StoreKind,
        s: usize,
        image: &FactLists,
        splits: &[u64],
    ) -> (Vec<RelationSync>, u64) {
        let empty: FactLists = Vec::new();
        let old = match &self.slots[s].shipped[store.idx()] {
            Some((old_image, _)) => old_image,
            None => &empty,
        };
        let mut shipped_facts = 0u64;
        let sync: Vec<RelationSync> = image
            .iter()
            .enumerate()
            .map(|(r, list)| {
                let ops = diff_ops(old.get(r).map_or(&[][..], |l| l), list);
                shipped_facts += ops
                    .iter()
                    .map(|op| match op {
                        SyncOp::Insert(facts) => facts.len() as u64,
                        SyncOp::Keep { .. } => 0,
                    })
                    .sum::<u64>();
                RelationSync {
                    ops,
                    split: splits[r],
                }
            })
            .collect();
        (sync, shipped_facts)
    }

    /// Syncs the servers' fact lists for `store`: each fact is routed to
    /// the server owning the partition its interval starts in, and each
    /// server receives only the sync program against its retained image —
    /// runs kept in place, genuinely new facts inserted (see the module
    /// docs).
    pub fn apply_delta(
        &mut self,
        store: StoreKind,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<()> {
        let routed = self.route_lists(store, pre, delta);
        let mut frames = Vec::with_capacity(self.servers);
        for s in 0..self.servers {
            let (sync, shipped_facts) =
                self.sync_program(store, s, &routed.images[s], &routed.splits[s]);
            let frame = encode(&Message::ApplyDelta { store, sync });
            self.traffic.apply_delta_bytes += frame.len() as u64;
            self.traffic.apply_delta_facts += shipped_facts;
            frames.push(frame);
        }
        for (s, resp) in self.broadcast(frames)?.into_iter().enumerate() {
            if resp != Response::Applied {
                return Err(transport_err(
                    s,
                    format!("unexpected response to ApplyDelta: {resp:?}"),
                ));
            }
        }
        for (s, (image, split)) in routed.images.into_iter().zip(routed.splits).enumerate() {
            self.slots[s].shipped[store.idx()] = Some((image, split));
        }
        Ok(())
    }

    /// Ships one fused frame per server — the sync program for `store` plus
    /// the enumeration request it implies — and collects the responses.
    /// The retained-image cache is updated only *after* the broadcast
    /// succeeds, so a server that dies mid-fused-round is respawned to its
    /// pre-frame image and re-answers the identical frame.
    fn fused_exchange(
        &mut self,
        store: StoreKind,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<Vec<Response>> {
        let routed = self.route_lists(store, pre, delta);
        let mut frames = Vec::with_capacity(self.servers);
        for s in 0..self.servers {
            let (sync, shipped_facts) =
                self.sync_program(store, s, &routed.images[s], &routed.splits[s]);
            let msg = match store {
                StoreKind::Source => Message::TgdRoundFused { sync },
                StoreKind::Target => Message::EgdRoundFused { sync },
            };
            let frame = encode(&msg);
            self.traffic.apply_delta_bytes += frame.len() as u64;
            self.traffic.apply_delta_facts += shipped_facts;
            frames.push(frame);
        }
        let resps = self.broadcast(frames)?;
        for (s, (image, split)) in routed.images.into_iter().zip(routed.splits).enumerate() {
            self.slots[s].shipped[store.idx()] = Some((image, split));
        }
        Ok(resps)
    }

    /// One fused tgd round: sync the source lists and enumerate the
    /// delta-touching tgd matches in a single round trip per server.
    /// Returns the homomorphisms per tgd in ascending interval order —
    /// servers concatenated in server order (see the module docs), the
    /// same for every server count.
    pub fn run_tgd_round_fused(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
        tgd_count: usize,
    ) -> Result<Vec<Vec<Hom>>> {
        let mut out: Vec<Vec<Hom>> = vec![Vec::new(); tgd_count];
        for (s, resp) in self
            .fused_exchange(StoreKind::Source, pre, delta)?
            .into_iter()
            .enumerate()
        {
            match resp {
                Response::TgdFused { homs } => fold_wire_homs(&mut out, homs)?,
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to TgdRoundFused: {other:?}"),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// One fused egd round: sync the target lists and enumerate the
    /// delta-touching egd matches in a single round trip per server.
    /// Returns the merge operations stably ordered by (egd index,
    /// interval) — the order a local session enumerates them in, so both
    /// fold into the same union-find.
    pub fn run_egd_round_fused(
        &mut self,
        pre: &FactLists,
        delta: &FactLists,
    ) -> Result<Vec<MergeOp>> {
        let mut ops: Vec<MergeOp> = Vec::new();
        for (s, resp) in self
            .fused_exchange(StoreKind::Target, pre, delta)?
            .into_iter()
            .enumerate()
        {
            match resp {
                Response::EgdFused { merges } => ops.extend(merges),
                other => {
                    return Err(transport_err(
                        s,
                        format!("unexpected response to EgdRoundFused: {other:?}"),
                    ))
                }
            }
        }
        ops.sort_by_key(|&(ei, _, _, iv)| (ei, iv));
        Ok(ops)
    }

    /// Per server: the [`image_digest`] of the retained image it reports
    /// for `store` through the `Resume` probe — the audit view of what the
    /// servers hold.
    pub fn image_digests(&mut self, store: StoreKind) -> Result<Vec<u64>> {
        self.broadcast_same(&Message::Resume)?
            .into_iter()
            .enumerate()
            .map(|(s, resp)| match resp {
                Response::ResumeState { images, .. } => Ok(images[store.idx()]),
                other => Err(transport_err(
                    s,
                    format!("unexpected response to Resume: {other:?}"),
                )),
            })
            .collect()
    }
}

/// The greedy in-order diff behind delta-only shipping: expresses `new` as
/// [`SyncOp`] runs over `old` (facts kept in retained order) plus inserts
/// of the facts not found. Exact — the reconstruction always equals `new`
/// — and *minimal* whenever `new` is an order-preserving subsequence of
/// `old` with fresh facts spliced in, which is precisely how the chase
/// evolves its lists (settling appends; rewriting and re-fragmentation
/// delete in place and append replacements). A hash index over `old`
/// keeps it linear; `Arc` pointer equality short-circuits the common case
/// where a fact object survives rounds untouched.
fn diff_ops(old: &[TemporalFact], new: &[TemporalFact]) -> Vec<SyncOp> {
    use std::collections::VecDeque;
    use std::hash::{Hash, Hasher};
    if old.is_empty() {
        return if new.is_empty() {
            Vec::new()
        } else {
            vec![SyncOp::Insert(new.to_vec())]
        };
    }
    let key = |f: &TemporalFact| -> (u64, Interval) {
        let mut h = tdx_storage::fxhash::FxHasher::default();
        f.data.hash(&mut h);
        (h.finish(), f.interval)
    };
    let mut index: tdx_storage::fxhash::FxHashMap<(u64, Interval), VecDeque<u32>> =
        Default::default();
    for (i, f) in old.iter().enumerate() {
        index.entry(key(f)).or_default().push_back(i as u32);
    }
    let mut ops: Vec<SyncOp> = Vec::new();
    let mut at = 0usize; // next unconsumed position of `old`
    for fact in new {
        let matched = index.get_mut(&key(fact)).and_then(|q| {
            while q.front().is_some_and(|&p| (p as usize) < at) {
                q.pop_front();
            }
            let p = *q.front()? as usize;
            // Verify (hash collisions): equality by content, Arc fast path.
            let o = &old[p];
            (o.interval == fact.interval
                && (Arc::ptr_eq(&o.data, &fact.data) || o.data == fact.data))
                .then(|| {
                    q.pop_front();
                    p
                })
        });
        match matched {
            Some(p) => {
                match ops.last_mut() {
                    Some(SyncOp::Keep { take, .. }) if p == at => *take += 1,
                    _ => ops.push(SyncOp::Keep {
                        skip: (p - at) as u64,
                        take: 1,
                    }),
                }
                at = p + 1;
            }
            None => match ops.last_mut() {
                Some(SyncOp::Insert(facts)) => facts.push(fact.clone()),
                _ => ops.push(SyncOp::Insert(vec![fact.clone()])),
            },
        }
    }
    ops
}

impl Drop for DistributedCluster {
    fn drop(&mut self) {
        let frame = encode(&Message::Shutdown);
        for slot in &mut self.slots {
            let _ = slot.transport.send(&frame);
        }
        for slot in &mut self.slots {
            // Drain the Stopped ack (best effort), then carrier teardown:
            // join the thread / reap the child.
            let _ = slot.transport.recv();
            slot.transport.shutdown();
        }
    }
}

/// Audits that every server retains exactly its owner-routed share of the
/// coordinator's fact lists for `store` (`lists` = pre ++ delta per
/// relation), in list order — the invariant `ApplyDelta` shipping must
/// maintain. Compares each server's reported [`image_digest`] with the
/// digest of its routed lists, so a reordered image fails too. Used by the
/// protocol tests.
pub fn snapshot_consistent(
    cluster: &mut DistributedCluster,
    store: StoreKind,
    lists: &FactLists,
) -> Result<bool> {
    if lists.len() != cluster.rels(store) {
        return Ok(false);
    }
    let routed = cluster.route_settled(store, lists);
    let expected: Vec<u64> = routed.images.iter().map(image_digest).collect();
    Ok(cluster.image_digests(store)? == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::cluster::chaos::{ChaosSpawner, FaultKind, FaultPlan};
    use crate::chase::cluster::transport::ChannelSpawner;
    use crate::chase::concrete::{c_chase_with, ChaseOptions};
    use crate::chase::incremental::c_chase_distributed_with;
    use crate::hom::hom_equivalent;
    use crate::semantics::semantics;
    use tdx_logic::{parse_egd, parse_schema, parse_tgd};
    use tdx_storage::TemporalInstance;

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
    fn matches_the_sequential_engine_across_server_counts() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let seq = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap();
        for servers in [1usize, 2, 3, 5] {
            let dist =
                c_chase_with(&source, &mapping, &ChaseOptions::distributed(servers)).unwrap();
            assert!(
                hom_equivalent(&semantics(&seq.target), &semantics(&dist.target)),
                "servers = {servers}"
            );
            assert_eq!(dist.target.nulls().len(), seq.target.nulls().len());
        }
    }

    #[test]
    fn deterministic_across_server_counts() {
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let one = c_chase_with(&source, &mapping, &ChaseOptions::distributed(1)).unwrap();
        for servers in [2usize, 3, 4, 7] {
            let many =
                c_chase_with(&source, &mapping, &ChaseOptions::distributed(servers)).unwrap();
            assert_eq!(one.target, many.target, "servers = {servers}");
        }
    }

    #[test]
    fn deterministic_across_transports() {
        // The transport is a carrier, not a participant: channel and TCP
        // runs are byte-identical.
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let channel = c_chase_with(
            &source,
            &mapping,
            &ChaseOptions::distributed(2).on_transport(TransportKind::Channel),
        )
        .unwrap();
        let tcp = c_chase_with(
            &source,
            &mapping,
            &ChaseOptions::distributed(2).on_transport(TransportKind::Tcp),
        )
        .unwrap();
        assert_eq!(channel.target, tcp.target);
        assert_eq!(channel.stats, tcp.stats);
    }

    #[test]
    fn failure_on_conflicting_sources() {
        let mapping = paper_mapping();
        let mut ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        ic.insert_strs("E", &["Ada", "IBM"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "18k"], iv(0, 10));
        ic.insert_strs("S", &["Ada", "20k"], iv(5, 15));
        for servers in [1usize, 3] {
            let err = c_chase_with(&ic, &mapping, &ChaseOptions::distributed(servers)).unwrap_err();
            assert!(
                matches!(err, TdxError::ChaseFailure { .. }),
                "servers = {servers}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_source_and_trace() {
        let mapping = paper_mapping();
        let ic = TemporalInstance::new(Arc::new(mapping.source().clone()));
        let result = c_chase_with(&ic, &mapping, &ChaseOptions::distributed(2)).unwrap();
        assert!(result.target.is_empty());
        let opts = ChaseOptions {
            record_trace: true,
            coalesce_result: true,
            ..ChaseOptions::distributed(2)
        };
        let source = figure4(&mapping);
        let result = c_chase_with(&source, &mapping, &opts).unwrap();
        assert!(result.target.is_coalesced());
        assert!(result.trace.iter().any(|l| l.contains("servers")));
    }

    #[test]
    fn boundary_facts_live_on_their_start_owner_only() {
        // Cut at 10/20/30 over two servers: server 0 owns ranges {0, 1},
        // server 1 owns {2, 3}. A fact is shipped once, to the owner of
        // the range its interval starts in — however many later ranges an
        // unbounded or crossing interval overlaps.
        use tdx_storage::row;
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10, 20, 30]));
        let mut cluster = DistributedCluster::spawn(&mapping, &tp, 2).unwrap();
        let fact = |name: &str, interval: Interval| TemporalFact {
            data: row([Value::str(name), Value::str("IBM")]),
            interval,
        };
        let bounded = fact("Ada", iv(0, 5));
        let unbounded = fact("Bob", Interval::from(15)); // range 1 .. the tail
        let crossing = fact("Cyd", iv(18, 35)); // ranges 1..3
        let late = fact("Dan", Interval::from(25)); // range 2 .. the tail
        let pre: FactLists = vec![
            vec![
                bounded.clone(),
                late.clone(),
                unbounded.clone(),
                crossing.clone(),
            ],
            vec![],
        ];
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        assert_eq!(cluster.traffic().apply_delta_facts, 4);
        let placed = |cluster: &DistributedCluster, s: usize| {
            cluster.slots[s].shipped[StoreKind::Source.idx()]
                .clone()
                .unwrap()
                .0
        };
        // List order survives the routing.
        assert_eq!(
            placed(&cluster, 0),
            vec![vec![bounded, unbounded, crossing], vec![]]
        );
        assert_eq!(placed(&cluster, 1), vec![vec![late], vec![]]);
        // The servers hold exactly those images.
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
        let mut reordered = pre.clone();
        reordered[0].swap(0, 2);
        assert!(!snapshot_consistent(&mut cluster, StoreKind::Source, &reordered).unwrap());
    }

    #[test]
    fn delta_only_shipping_skips_the_retained_prefix() {
        use tdx_storage::row;
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10, 20]));
        let mut cluster = DistributedCluster::spawn(&mapping, &tp, 1).unwrap();
        let fact = |name: &str, s: u64| TemporalFact {
            data: row([Value::str(name), Value::str("IBM")]),
            interval: iv(s, s + 3),
        };
        // Round 1: full ship of 100 facts.
        let mut pre: FactLists = vec![(0..100).map(|i| fact("Ada", i)).collect(), Vec::new()];
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        let full = cluster.traffic();
        assert_eq!(full.apply_delta_facts, 100);
        // Round 2: same lists + 2 appended facts → only the suffix ships.
        pre[0].push(fact("Bob", 50));
        pre[0].push(fact("Cyd", 60));
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        let after = cluster.traffic();
        assert_eq!(after.apply_delta_facts - full.apply_delta_facts, 2);
        assert!(
            (after.apply_delta_bytes - full.apply_delta_bytes) * 10 < full.apply_delta_bytes,
            "suffix ship must be an order of magnitude under the full ship: {after:?} vs {full:?}"
        );
        // The server's reconstructed image still tiles the coordinator's.
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
        // Round 3: a rewrite in the middle ships only the rewritten fact —
        // the kept runs around it stay on the server.
        pre[0][10] = fact("Eve", 10);
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(); 2])
            .unwrap();
        let rewritten = cluster.traffic();
        assert_eq!(rewritten.apply_delta_facts - after.apply_delta_facts, 1);
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
    }

    #[test]
    fn diff_ops_reconstructs_and_is_minimal_on_chase_shaped_edits() {
        use tdx_storage::row;
        let f = |name: &str, s: u64| TemporalFact {
            data: row([Value::str(name), Value::int(s as i64)]),
            interval: iv(s, s + 2),
        };
        let reconstruct = |old: &[TemporalFact], ops: &[SyncOp]| -> Vec<TemporalFact> {
            let mut out = Vec::new();
            let mut at = 0usize;
            for op in ops {
                match op {
                    SyncOp::Keep { skip, take } => {
                        at += *skip as usize;
                        out.extend_from_slice(&old[at..at + *take as usize]);
                        at += *take as usize;
                    }
                    SyncOp::Insert(facts) => out.extend(facts.iter().cloned()),
                }
            }
            out
        };
        let inserted = |ops: &[SyncOp]| -> usize {
            ops.iter()
                .map(|op| match op {
                    SyncOp::Insert(facts) => facts.len(),
                    SyncOp::Keep { .. } => 0,
                })
                .sum()
        };
        let old: Vec<TemporalFact> = (0..50).map(|i| f("a", i)).collect();
        // Append-only (settling): one kept run + suffix.
        let mut appended = old.clone();
        appended.push(f("b", 100));
        let ops = diff_ops(&old, &appended);
        assert_eq!(reconstruct(&old, &ops), appended);
        assert_eq!(inserted(&ops), 1);
        // Mid-list deletions + replacements appended (a rewrite round).
        let mut rewritten: Vec<TemporalFact> = old
            .iter()
            .filter(|x| x.interval.start() % 7 != 0)
            .cloned()
            .collect();
        rewritten.push(f("rw", 7));
        rewritten.push(f("rw", 14));
        let ops = diff_ops(&old, &rewritten);
        assert_eq!(reconstruct(&old, &ops), rewritten);
        assert_eq!(inserted(&ops), 2);
        // Duplicates keep multiset semantics.
        let dup = vec![f("d", 1), f("d", 1), f("x", 2)];
        let new = vec![f("d", 1), f("x", 2), f("d", 1)];
        let ops = diff_ops(&dup, &new);
        assert_eq!(reconstruct(&dup, &ops), new);
        // Empty transitions.
        assert!(diff_ops(&[], &[]).is_empty());
        assert_eq!(inserted(&diff_ops(&[], &old)), 50);
        assert_eq!(
            reconstruct(&old, &diff_ops(&old, &[])),
            Vec::<TemporalFact>::new()
        );
    }

    #[test]
    fn retry_path_respawns_a_killed_server_and_restores_the_fixpoint() {
        // Kill server 1 of 3 at every frame offset it ever reaches — the
        // handshake, then each fused round — until the fault stops
        // firing; the retry path must respawn it, replay its watermarked
        // (pre-frame) images and finish with a result hom-equivalent to
        // (indeed byte-identical to) an unfaulted channel run.
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let clean = c_chase_with(&source, &mapping, &ChaseOptions::distributed(3)).unwrap();
        let mut kill_after = 0usize;
        loop {
            let spawner = Arc::new(ChaosSpawner::new(
                Arc::new(ChannelSpawner),
                &FaultPlan::single(1, kill_after, FaultKind::PartialWrite),
            ));
            let faulted = c_chase_distributed_with(
                &source,
                &mapping,
                &ChaseOptions::distributed(3),
                3,
                Arc::clone(&spawner) as Arc<dyn TransportSpawner>,
            )
            .unwrap_or_else(|e| panic!("kill_after {kill_after}: chase failed: {e:?}"));
            assert_eq!(
                clean.target, faulted.target,
                "kill_after {kill_after}: retry path diverged"
            );
            assert!(hom_equivalent(
                &semantics(&clean.target),
                &semantics(&faulted.target)
            ));
            if spawner.fired() == 0 {
                break; // past the last frame the victim ever sees
            }
            kill_after += 1;
            assert!(kill_after < 64, "fault matrix did not converge");
        }
        assert!(
            kill_after >= 2,
            "matrix stopped at offset {kill_after} before reaching a fused round"
        );
    }

    /// A spawner whose every transport dies on its first frame, counting
    /// the spawns it served.
    struct AlwaysDead(std::sync::atomic::AtomicUsize);

    struct DeadTransport;

    impl Transport for DeadTransport {
        fn send(&mut self, _: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "dead"))
        }
        fn recv(&mut self) -> std::io::Result<Vec<u8>> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "dead"))
        }
        fn shutdown(&mut self) {}
    }

    impl TransportSpawner for AlwaysDead {
        fn spawn(&self, _: usize) -> std::io::Result<Box<dyn Transport>> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(Box::new(DeadTransport))
        }
        fn kind(&self) -> TransportKind {
            TransportKind::Channel
        }
    }

    #[test]
    fn respawn_budget_is_bounded_and_ends_in_quarantine() {
        // A server that dies on every frame exhausts MAX_RESPAWNS — the
        // spawner is retried a bounded number of times, never in a loop —
        // and is then quarantined onto the coordinator-local kernel: the
        // cluster construction *succeeds* and the slot answers protocol
        // traffic locally.
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10]));
        let spawner = Arc::new(AlwaysDead(std::sync::atomic::AtomicUsize::new(0)));
        let cluster = DistributedCluster::spawn_with(
            &mapping,
            &tp,
            1,
            Arc::clone(&spawner) as Arc<dyn TransportSpawner>,
        )
        .expect("a permanently dead server degrades to local execution, not failure");
        assert_eq!(cluster.health(0), ServerHealth::Quarantined);
        assert_eq!(cluster.quarantined(), 1);
        assert_eq!(cluster.traffic().quarantines, 1);
        // Initial spawn + MAX_RESPAWNS retries, then quarantine: the
        // budget bounds how often the spawner is hammered.
        assert_eq!(
            spawner.0.load(std::sync::atomic::Ordering::SeqCst),
            1 + MAX_RESPAWNS as usize
        );
    }

    #[test]
    fn quarantined_chase_completes_byte_identical() {
        // The full batch chase with server 1 of 3 permanently dead: its
        // blocks degrade to coordinator-local execution and the result is
        // byte-identical to a healthy run.
        struct DeadOne(Arc<dyn TransportSpawner>);
        impl TransportSpawner for DeadOne {
            fn spawn(&self, s: usize) -> std::io::Result<Box<dyn Transport>> {
                if s == 1 {
                    Ok(Box::new(DeadTransport))
                } else {
                    self.0.spawn(s)
                }
            }
            fn kind(&self) -> TransportKind {
                self.0.kind()
            }
        }
        let mapping = paper_mapping();
        let source = figure4(&mapping);
        let clean = c_chase_with(&source, &mapping, &ChaseOptions::distributed(3)).unwrap();
        let degraded = c_chase_distributed_with(
            &source,
            &mapping,
            &ChaseOptions::distributed(3),
            3,
            Arc::new(DeadOne(Arc::new(ChannelSpawner))),
        )
        .expect("quarantine must complete the chase, not fail it");
        assert_eq!(clean.target, degraded.target, "local degradation diverged");
    }

    #[test]
    fn clean_rounds_decay_the_respawn_budget() {
        // One strike, then CLEAN_ROUNDS_TO_FORGIVE clean heartbeats: the
        // budget decays back to zero and the slot returns to Healthy — a
        // long-lived session is not one transient fault closer to
        // quarantine forever.
        let mapping = paper_mapping();
        let tp = TimelinePartition::new(&tdx_temporal::Breakpoints::from_points([10]));
        let spawner = Arc::new(ChaosSpawner::new(
            Arc::new(ChannelSpawner),
            &FaultPlan::single(0, 1, FaultKind::PartialWrite),
        ));
        let mut cluster =
            DistributedCluster::spawn_with(&mapping, &tp, 1, spawner as Arc<dyn TransportSpawner>)
                .unwrap();
        // The Hello consumed the one pre-fault frame; the first heartbeat
        // trips the fault, and the respawned carrier is clean.
        cluster.heartbeat().unwrap();
        assert_eq!(cluster.health(0), ServerHealth::Suspect);
        assert_eq!(cluster.traffic().respawns, 1);
        for _ in 0..CLEAN_ROUNDS_TO_FORGIVE {
            assert_eq!(cluster.health(0), ServerHealth::Suspect);
            cluster.heartbeat().unwrap();
        }
        assert_eq!(cluster.health(0), ServerHealth::Healthy);
    }
}

//! The partition-server wire protocol: message shapes and their codec.
//!
//! This layer owns *what* coordinator and servers say to each other —
//! nothing about *how* the bytes travel (that is
//! [`transport`](super::transport)) or what either side does with them
//! (that is [`server`](super::server) and
//! [`coordinator`](super::coordinator)). Every request and response is one
//! [`tdx_storage::codec`] message; a transport ships it as one frame.
//!
//! # The message sequence
//!
//! A server's lifetime is: one [`Message::Hello`] carrying its
//! [`ServerConfig`] (the process-start arguments of an out-of-process
//! server: schemas, dependency bodies, the timeline partition, its owned
//! blocks), then any number of rounds, then [`Message::Shutdown`]. Rounds
//! are built from:
//!
//! * [`Message::ApplyDelta`] — sync the server's fact lists for one store.
//!   Shipping is **delta-only**: the server retains its previous image
//!   (the concatenated pre + delta blocks, per relation) and the
//!   coordinator ships a per-relation *retained watermark* — [`SyncOp`]
//!   runs that keep ranges of the retained image in order and insert only
//!   the facts that are genuinely new — plus the index where the pre
//!   block ends ([`RelationSync::split`]). In the steady state of an
//!   incremental batch this is one retained run covering the whole old
//!   image plus an appended suffix (the classic retained-prefix
//!   watermark); a union-find rewrite round keeps the unchanged runs and
//!   inserts only the rewritten facts. A single `Insert` of everything is
//!   a full re-ship — what a fresh or respawned server gets.
//! * [`Message::TgdRoundFused`] / [`Message::EgdRoundFused`] — the **fused
//!   rounds**: apply a sync program to the `Source` (resp. `Target`) store
//!   and enumerate the delta-touching tgd (resp. egd) body matches of the
//!   owned partitions, in one round trip. Normalization stays on the
//!   coordinator, so a steady-state round costs one barrier per server.
//! * [`Message::Snapshot`] — audit view of the server's owner and replica
//!   facts.
//! * [`Message::Ping`] — liveness heartbeat, answered by
//!   [`Response::Pong`].
//! * [`Message::Resume`] — the v3 reconnect handshake: a restarted
//!   coordinator asks a surviving server for its configuration digest and
//!   retained-image watermark digests ([`Response::ResumeState`]). On a
//!   full match the coordinator adopts the server's images as its shipped
//!   caches — no re-ship; any mismatch falls back to `Hello` + full
//!   re-ship.
//!
//! Variables in homomorphism bindings travel by name, string constants as
//! text — intern ids are process-local and never appear on the wire.

use std::sync::Arc;
use tdx_logic::{Atom, Schema, SchemaMapping, Var};
use tdx_storage::codec::{ByteReader, ByteWriter, CodecError, Wire};
use tdx_storage::{TemporalFact, Value};
use tdx_temporal::{Interval, TimelinePartition};

/// Per-relation fact lists — the unit `ApplyDelta` ships and servers
/// retain.
pub type FactLists = Vec<Vec<TemporalFact>>;

/// Wire-protocol version, carried inside every [`Message::Ping`] and
/// [`Message::Hello`]. Bump on ANY change to a message payload (not just
/// new tags): the TCP spawner's connect-time ping probe then detects a
/// version-skewed `tdx` binary — same tags, different payloads — and
/// degrades to an in-process server, and a skewed peer that skipped the
/// probe (a reconnected listen-mode server) rejects the handshake instead
/// of misreading the rounds that follow.
///
/// v2: fused round frames ([`Message::TgdRoundFused`],
/// [`Message::EgdRoundFused`]).
///
/// v3: the reconnect handshake ([`Message::Resume`] /
/// [`Response::ResumeState`]) — a restarted coordinator asks a surviving
/// server what configuration and retained images it still holds, and
/// adopts them when the digests match instead of re-shipping everything.
///
/// v4: one protocol generation. The unfused v1 enumeration frames and
/// their responses are gone, the fused frames no longer request or return
/// server-side Algorithm-1 discovery (normalization stays on the
/// coordinator), and `Hello` carries the version.
///
/// v5: servers run the session's dirty-interval join kernel, which takes
/// no matcher options, so [`ServerConfig`] no longer carries them.
pub const PROTOCOL_VERSION: u32 = 5;

/// Writes this build's [`PROTOCOL_VERSION`] stamp.
fn write_version(w: &mut ByteWriter) {
    w.u32(PROTOCOL_VERSION);
}

/// Reads a version stamp and rejects any other generation with the typed
/// version-mismatch [`CodecError`].
fn read_version(r: &mut ByteReader<'_>) -> std::result::Result<(), CodecError> {
    let version = r.u32()?;
    if version != PROTOCOL_VERSION {
        return Err(CodecError(format!(
            "protocol version mismatch: peer speaks v{version}, \
             this build speaks v{PROTOCOL_VERSION}"
        )));
    }
    Ok(())
}

/// Which of a server's two stores a message addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// The normalized source (tgd bodies match against it).
    Source,
    /// The materialized target (egd bodies match against it).
    Target,
}

impl StoreKind {
    /// Index into per-store arrays (`Source = 0`, `Target = 1`).
    pub(crate) fn idx(self) -> usize {
        match self {
            StoreKind::Source => 0,
            StoreKind::Target => 1,
        }
    }

    /// Both kinds, in index order.
    pub(crate) const BOTH: [StoreKind; 2] = [StoreKind::Source, StoreKind::Target];
}

/// A partition server's spawn-time configuration — the handshake payload of
/// [`Message::Hello`], and the process-start arguments of an out-of-process
/// server.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerConfig {
    /// Source schema (relation layout of the `Source` store).
    pub(crate) src_schema: Arc<Schema>,
    /// Target schema (relation layout of the `Target` store).
    pub(crate) tgt_schema: Arc<Schema>,
    /// The timeline partition the cluster was cut over.
    pub(crate) tp: TimelinePartition,
    /// Partitions this server owns, ascending.
    pub(crate) owned: Vec<usize>,
    /// S-t tgd bodies, in mapping order.
    pub(crate) tgd_bodies: Vec<Vec<Atom>>,
    /// Egd bodies with their lhs/rhs variables, in mapping order.
    pub(crate) egds: Vec<(Vec<Atom>, Var, Var)>,
}

impl ServerConfig {
    /// The configuration of server `s` in an `servers`-wide cluster over
    /// `tp`: contiguous balanced partition blocks
    /// ([`TimelinePartition::server_of`]), dependency bodies and schemas
    /// from the mapping.
    pub fn for_server(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        s: usize,
        servers: usize,
    ) -> ServerConfig {
        let assignment = tp.server_assignment(servers);
        ServerConfig {
            src_schema: Arc::new(mapping.source().clone()),
            tgt_schema: Arc::new(mapping.target().clone()),
            tp: tp.clone(),
            owned: (0..tp.len()).filter(|&p| assignment[p] == s).collect(),
            tgd_bodies: mapping.st_tgds().iter().map(|t| t.body.clone()).collect(),
            egds: mapping
                .egds()
                .iter()
                .map(|e| (e.body.clone(), e.lhs, e.rhs))
                .collect(),
        }
    }

    /// Whether this server owns the partition `iv` starts in — the owner
    /// of every shared match at `iv`.
    pub(crate) fn owns(&self, iv: &Interval) -> bool {
        self.owned
            .binary_search(&self.tp.part_of(iv.start()))
            .is_ok()
    }
}

impl Wire for ServerConfig {
    fn write(&self, w: &mut ByteWriter) {
        self.src_schema.write(w);
        self.tgt_schema.write(w);
        self.tp.write(w);
        self.owned.write(w);
        self.tgd_bodies.write(w);
        self.egds.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(ServerConfig {
            src_schema: Arc::new(Schema::read(r)?),
            tgt_schema: Arc::new(Schema::read(r)?),
            tp: TimelinePartition::read(r)?,
            owned: Wire::read(r)?,
            tgd_bodies: Wire::read(r)?,
            egds: Wire::read(r)?,
        })
    }
}

/// One run of a relation's sync program: reconstruct the new fact list by
/// keeping ranges of the server's retained image (in order) and inserting
/// shipped facts between them. The coordinator emits the minimal run list
/// for "new = subsequence of retained + fresh facts" — exactly how the
/// chase evolves its lists (settling appends; rewriting and
/// re-fragmentation delete in place and append replacements).
#[derive(Clone, Debug, PartialEq)]
pub enum SyncOp {
    /// Drop `skip` facts of the retained image, then keep the next `take`.
    Keep {
        /// Retained facts to discard before the kept run.
        skip: u64,
        /// Length of the kept run.
        take: u64,
    },
    /// Insert shipped facts at this position.
    Insert(Vec<TemporalFact>),
}

/// One relation's `ApplyDelta` payload: the sync program and the boundary
/// between the reconstructed pre block and delta block (the server's
/// shared join emits only matches touching the delta block).
#[derive(Clone, Debug, PartialEq)]
pub struct RelationSync {
    /// Sync program reconstructing the relation's new fact list.
    pub ops: Vec<SyncOp>,
    /// Index in the reconstructed list where the delta block starts.
    pub split: u64,
}

/// A coordinator → server request. See the module docs for the sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Configure a fresh server. Must precede every other message except
    /// `Ping` and `Shutdown`; re-configuring resets the retained images.
    Hello(ServerConfig),
    /// Sync the server's fact lists for `store` (see the module docs for
    /// the watermark scheme). One [`RelationSync`] per relation of the
    /// store's schema.
    ApplyDelta {
        /// Store addressed.
        store: StoreKind,
        /// Per relation: the sync program against the retained image.
        sync: Vec<RelationSync>,
    },
    /// Return the server's owner and replica facts for `store`; respond
    /// with [`Response::Facts`].
    Snapshot {
        /// Store addressed.
        store: StoreKind,
    },
    /// Liveness probe; respond with [`Response::Pong`].
    Ping,
    /// Terminate the server loop; respond with [`Response::Stopped`].
    Shutdown,
    /// Fused round: sync the `Source` store, then enumerate the
    /// delta-touching tgd matches of the owned partitions. Respond with
    /// [`Response::TgdFused`].
    TgdRoundFused {
        /// Per relation: the sync program against the retained image.
        sync: Vec<RelationSync>,
    },
    /// Fused round: sync the `Target` store, then enumerate the
    /// delta-touching egd matches. Respond with [`Response::EgdFused`].
    EgdRoundFused {
        /// Per relation: the sync program against the retained image.
        sync: Vec<RelationSync>,
    },
    /// Reconnect probe (v3): report the digests of the configuration and
    /// retained images this server still holds, without touching them.
    /// Works on unconfigured servers (`configured: false` in the
    /// response). Respond with [`Response::ResumeState`].
    Resume,
}

/// One enumerated homomorphism: variable bindings (variables by name — wire
/// messages cannot carry process-local intern ids) and the shared interval.
pub type WireHom = (Vec<(String, Value)>, Interval);

/// A decoded homomorphism, variables re-interned on the coordinator side.
pub type Hom = (Vec<(Var, Value)>, Interval);

/// One merge operation: `(egd index, lhs value, rhs value, interval)`.
pub type MergeOp = (u32, Value, Value, Interval);

/// A partition's merge operations, tagged with its index for the
/// coordinator's deterministic ascending fold.
pub type PartitionMerges = (u64, Vec<MergeOp>);

/// A partition's homomorphisms (per tgd), tagged with its index for the
/// coordinator's deterministic ascending fold.
pub type PartitionHoms = (u64, Vec<Vec<WireHom>>);

/// A server → coordinator response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// [`Message::Hello`] acknowledged; the server is configured.
    Ready,
    /// [`Message::ApplyDelta`] acknowledged.
    Applied,
    /// Owner facts and replica facts, per relation.
    Facts {
        /// Facts whose owner partition this server owns.
        owned: FactLists,
        /// Boundary replicas of facts owned by other servers.
        replicas: FactLists,
    },
    /// [`Message::Ping`] acknowledged; the server loop is alive.
    Pong,
    /// [`Message::Shutdown`] acknowledged; the server loop has exited.
    Stopped,
    /// [`Message::TgdRoundFused`] result: per owned partition (ascending),
    /// per tgd, the enumerated homomorphisms.
    TgdFused {
        /// The homomorphisms, tagged with their partition.
        homs: Vec<PartitionHoms>,
    },
    /// [`Message::EgdRoundFused`] result: per owned partition (ascending),
    /// the `(egd index, lhs, rhs, interval)` merge operations in
    /// enumeration order.
    EgdFused {
        /// The merge operations, tagged with their partition.
        merges: Vec<PartitionMerges>,
    },
    /// [`Message::Resume`] result: what this server still holds, as
    /// digests. A reconnecting coordinator compares `config` against
    /// [`config_digest`] of the configuration it *would* ship and
    /// `images` against [`image_digest`] of the images it *would* route,
    /// and only on a full match adopts the server without a re-ship.
    ResumeState {
        /// Whether a `Hello` configured this server (false on a fresh
        /// spawn — the coordinator must fall back to `Hello`).
        configured: bool,
        /// [`config_digest`] of the server's `Hello` configuration.
        config: u64,
        /// [`image_digest`] of the retained image per store
        /// (`[Source, Target]`, [`StoreKind::idx`] order).
        images: [u64; 2],
    },
}

/// A process-independent digest of an encoded [`Wire`] value: FxHash over
/// the codec bytes. String constants travel as text in the codec, so two
/// processes that hold the same value — whatever their intern tables say —
/// digest identically.
fn wire_digest<T: Wire>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = tdx_storage::fxhash::FxHasher::default();
    h.write(&tdx_storage::codec::encode(value));
    h.finish()
}

/// The digest a server reports for (and a coordinator expects of) one
/// store's retained image: the per-relation fact lists, order-sensitive —
/// the watermark diff is positional, so adopting an image is only sound
/// when the fact *sequence* matches, not just the fact set.
pub fn image_digest(image: &FactLists) -> u64 {
    wire_digest(image)
}

/// The digest of a server configuration, for the v3 reconnect handshake.
pub fn config_digest(cfg: &ServerConfig) -> u64 {
    wire_digest(cfg)
}

impl Wire for StoreKind {
    fn write(&self, w: &mut ByteWriter) {
        w.u8(match self {
            StoreKind::Source => 0,
            StoreKind::Target => 1,
        });
    }
    fn read(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(StoreKind::Source),
            1 => Ok(StoreKind::Target),
            tag => Err(CodecError(format!("unknown StoreKind tag {tag}"))),
        }
    }
}

impl Wire for SyncOp {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            SyncOp::Keep { skip, take } => {
                w.u8(0);
                w.u64(*skip);
                w.u64(*take);
            }
            SyncOp::Insert(facts) => {
                w.u8(1);
                facts.write(w);
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(SyncOp::Keep {
                skip: r.u64()?,
                take: r.u64()?,
            }),
            1 => Ok(SyncOp::Insert(Wire::read(r)?)),
            tag => Err(CodecError(format!("unknown SyncOp tag {tag}"))),
        }
    }
}

impl Wire for RelationSync {
    fn write(&self, w: &mut ByteWriter) {
        self.ops.write(w);
        w.u64(self.split);
    }
    fn read(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(RelationSync {
            ops: Wire::read(r)?,
            split: r.u64()?,
        })
    }
}

impl Wire for Message {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            Message::Hello(cfg) => {
                w.u8(0);
                write_version(w);
                cfg.write(w);
            }
            Message::ApplyDelta { store, sync } => {
                w.u8(1);
                store.write(w);
                sync.write(w);
            }
            Message::Snapshot { store } => {
                w.u8(4);
                store.write(w);
            }
            Message::Ping => {
                w.u8(5);
                write_version(w);
            }
            Message::Shutdown => w.u8(6),
            Message::TgdRoundFused { sync } => {
                w.u8(7);
                sync.write(w);
            }
            Message::EgdRoundFused { sync } => {
                w.u8(8);
                sync.write(w);
            }
            Message::Resume => w.u8(9),
        }
    }
    fn read(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                read_version(r)?;
                Ok(Message::Hello(ServerConfig::read(r)?))
            }
            1 => Ok(Message::ApplyDelta {
                store: StoreKind::read(r)?,
                sync: Wire::read(r)?,
            }),
            4 => Ok(Message::Snapshot {
                store: StoreKind::read(r)?,
            }),
            5 => {
                read_version(r)?;
                Ok(Message::Ping)
            }
            6 => Ok(Message::Shutdown),
            7 => Ok(Message::TgdRoundFused {
                sync: Wire::read(r)?,
            }),
            8 => Ok(Message::EgdRoundFused {
                sync: Wire::read(r)?,
            }),
            9 => Ok(Message::Resume),
            tag => Err(CodecError(format!("unknown Message tag {tag}"))),
        }
    }
}

impl Wire for Response {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            Response::Ready => w.u8(0),
            Response::Applied => w.u8(1),
            Response::Facts { owned, replicas } => {
                w.u8(4);
                owned.write(w);
                replicas.write(w);
            }
            Response::Pong => w.u8(5),
            Response::Stopped => w.u8(6),
            Response::TgdFused { homs } => {
                w.u8(7);
                homs.write(w);
            }
            Response::EgdFused { merges } => {
                w.u8(8);
                merges.write(w);
            }
            Response::ResumeState {
                configured,
                config,
                images,
            } => {
                w.u8(9);
                configured.write(w);
                w.u64(*config);
                w.u64(images[0]);
                w.u64(images[1]);
            }
        }
    }
    fn read(r: &mut ByteReader<'_>) -> std::result::Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(Response::Ready),
            1 => Ok(Response::Applied),
            4 => Ok(Response::Facts {
                owned: Wire::read(r)?,
                replicas: Wire::read(r)?,
            }),
            5 => Ok(Response::Pong),
            6 => Ok(Response::Stopped),
            7 => Ok(Response::TgdFused {
                homs: Wire::read(r)?,
            }),
            8 => Ok(Response::EgdFused {
                merges: Wire::read(r)?,
            }),
            9 => Ok(Response::ResumeState {
                configured: Wire::read(r)?,
                config: r.u64()?,
                images: [r.u64()?, r.u64()?],
            }),
            tag => Err(CodecError(format!("unknown Response tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdx_logic::{parse_mapping, Term};
    use tdx_storage::codec::{decode, encode};
    use tdx_storage::{row, NullId};
    use tdx_temporal::Breakpoints;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn sample_config() -> ServerConfig {
        let mapping = parse_mapping(
            "source { E(name, company). S(name, salary). }\n\
             target { Emp(name, company, salary). }\n\
             tgd E(n,c) -> exists s . Emp(n,c,s)\n\
             tgd E(n,c) & S(n,s) -> Emp(n,c,s)\n\
             egd Emp(n,c,s) & Emp(n,c,s2) -> s = s2",
        )
        .unwrap();
        let tp = TimelinePartition::new(&Breakpoints::from_points([5, 12, 30]));
        ServerConfig::for_server(&mapping, &tp, 1, 2)
    }

    fn sample_fact() -> TemporalFact {
        TemporalFact {
            data: row([Value::str("Ada"), Value::str("IBM")]),
            interval: Interval::from(2014),
        }
    }

    #[test]
    fn server_config_roundtrips_through_the_codec() {
        let cfg = sample_config();
        assert_eq!(decode::<ServerConfig>(&encode(&cfg)).unwrap(), cfg);
        // Constants inside dependency bodies survive too.
        let mut cfg = cfg;
        cfg.tgd_bodies[0][0].terms[1] = Term::constant("IBM");
        cfg.egds[0].0[0].terms[0] = Term::constant(7i64);
        assert_eq!(decode::<ServerConfig>(&encode(&cfg)).unwrap(), cfg);
    }

    #[test]
    fn messages_roundtrip_through_the_codec() {
        let fact = sample_fact();
        let msgs = [
            Message::Hello(sample_config()),
            Message::ApplyDelta {
                store: StoreKind::Target,
                sync: vec![
                    RelationSync {
                        ops: vec![
                            SyncOp::Keep { skip: 0, take: 3 },
                            SyncOp::Insert(vec![fact.clone()]),
                            SyncOp::Keep { skip: 2, take: 1 },
                        ],
                        split: 3,
                    },
                    RelationSync {
                        ops: vec![SyncOp::Insert(vec![fact.clone()])],
                        split: 0,
                    },
                ],
            },
            Message::Snapshot {
                store: StoreKind::Source,
            },
            Message::Ping,
            Message::Shutdown,
            Message::TgdRoundFused {
                sync: vec![RelationSync {
                    ops: vec![
                        SyncOp::Keep { skip: 1, take: 4 },
                        SyncOp::Insert(vec![fact.clone()]),
                    ],
                    split: 4,
                }],
            },
            Message::EgdRoundFused {
                sync: vec![RelationSync {
                    ops: vec![SyncOp::Insert(vec![fact.clone()])],
                    split: 0,
                }],
            },
            Message::Resume,
        ];
        for msg in &msgs {
            assert_eq!(&decode::<Message>(&encode(msg)).unwrap(), msg);
        }
        let resps = [
            Response::Ready,
            Response::Applied,
            Response::Facts {
                owned: vec![vec![fact.clone()]],
                replicas: vec![vec![]],
            },
            Response::Pong,
            Response::Stopped,
            Response::TgdFused {
                homs: vec![(
                    2,
                    vec![vec![(vec![("c".to_string(), Value::str("IBM"))], iv(3, 7))]],
                )],
            },
            Response::EgdFused {
                merges: vec![(
                    1,
                    vec![(0, Value::Null(NullId(2)), Value::str("20k"), iv(1, 4))],
                )],
            },
            Response::ResumeState {
                configured: true,
                config: 0xDEAD_BEEF_0123_4567,
                images: [42, u64::MAX],
            },
            Response::ResumeState {
                configured: false,
                config: 0,
                images: [0, 0],
            },
        ];
        for resp in &resps {
            assert_eq!(&decode::<Response>(&encode(resp)).unwrap(), resp);
        }
    }

    #[test]
    fn digests_are_content_and_order_sensitive() {
        let fact = sample_fact();
        let other = TemporalFact {
            data: row([Value::str("Bob"), Value::str("IBM")]),
            interval: Interval::from(2015),
        };
        let image: FactLists = vec![vec![fact.clone(), other.clone()], vec![]];
        assert_eq!(image_digest(&image), image_digest(&image.clone()));
        // The watermark diff is positional: swapping two facts must change
        // the digest even though the set is unchanged.
        let swapped: FactLists = vec![vec![other, fact], vec![]];
        assert_ne!(image_digest(&image), image_digest(&swapped));
        assert_ne!(
            image_digest(&image),
            image_digest(&vec![Vec::new(), Vec::new()])
        );
        // Config digests separate different server slots of one cluster.
        let cfg = sample_config();
        assert_eq!(config_digest(&cfg), config_digest(&cfg.clone()));
        let mut other_slot = cfg.clone();
        other_slot.owned = vec![0];
        assert_ne!(config_digest(&cfg), config_digest(&other_slot));
    }

    #[test]
    fn v3_hello_is_rejected_with_the_version_error() {
        // A v3 Hello carried no version stamp, and a peer stamping any
        // other generation is the same skew: all must fail the decode
        // with the typed version error instead of configuring a server
        // that would then misread the rounds that follow.
        let cfg = encode(&sample_config());
        let unstamped: Vec<u8> = [&[0u8][..], &cfg].concat();
        let stamped = |version: u32| {
            let mut w = ByteWriter::new();
            w.u8(0);
            w.u32(version);
            [w.into_bytes(), cfg.clone()].concat()
        };
        let (v3, v4) = (stamped(3), stamped(4));
        for frame in [&unstamped, &v3, &v4] {
            let err = decode::<Message>(frame).unwrap_err();
            assert!(
                err.0.starts_with("protocol version mismatch"),
                "unexpected error: {err}"
            );
        }
        for (frame, peer) in [(&v3, "peer speaks v3"), (&v4, "peer speaks v4")] {
            assert!(decode::<Message>(frame).unwrap_err().0.contains(peer));
        }
        // This build's own Hello still round-trips.
        let hello = Message::Hello(sample_config());
        assert_eq!(decode::<Message>(&encode(&hello)).unwrap(), hello);
    }

    #[test]
    fn random_messages_roundtrip_and_mutations_never_panic() {
        // The codec-hardening property: arbitrary protocol messages
        // round-trip to equality, and *every* truncation of a valid frame —
        // plus a sweep of single-byte corruptions — decodes to an error or
        // to some other valid message, never a panic. Deterministic xorshift
        // sampling keeps this reproducible without real `proptest`.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rand_value = |r: &mut dyn FnMut() -> u64| match r() % 3 {
            0 => Value::int(r() as i64 % 1000),
            1 => Value::str(["Ada", "IBM", "18k", "µ-cafe"][r() as usize % 4]),
            _ => Value::Null(NullId(r() % 64)),
        };
        let rand_fact = |r: &mut dyn FnMut() -> u64| {
            let arity = r() % 4;
            let start = r() % 100;
            TemporalFact {
                data: (0..arity).map(|_| rand_value(r)).collect(),
                interval: if r().is_multiple_of(3) {
                    Interval::from(start)
                } else {
                    Interval::new(start, start + 1 + r() % 20)
                },
            }
        };
        let rand_sync = |r: &mut dyn FnMut() -> u64| -> Vec<RelationSync> {
            (0..r() % 3)
                .map(|_| RelationSync {
                    ops: (0..r() % 4)
                        .map(|_| {
                            if r().is_multiple_of(2) {
                                SyncOp::Keep {
                                    skip: r() % 10,
                                    take: r() % 50,
                                }
                            } else {
                                SyncOp::Insert((0..r() % 3).map(|_| rand_fact(r)).collect())
                            }
                        })
                        .collect(),
                    split: r() % 40,
                })
                .collect()
        };
        for case in 0..200u64 {
            let msg = match case % 8 {
                0 => Message::Hello(sample_config()),
                7 => Message::Resume,
                1 => {
                    let sync = rand_sync(&mut rng);
                    Message::ApplyDelta {
                        store: if rng() % 2 == 0 {
                            StoreKind::Source
                        } else {
                            StoreKind::Target
                        },
                        sync,
                    }
                }
                2 => Message::Shutdown,
                3 => Message::Snapshot {
                    store: StoreKind::Target,
                },
                4 => Message::Ping,
                5 => Message::TgdRoundFused {
                    sync: rand_sync(&mut rng),
                },
                _ => Message::EgdRoundFused {
                    sync: rand_sync(&mut rng),
                },
            };
            let bytes = encode(&msg);
            assert_eq!(decode::<Message>(&bytes).unwrap(), msg, "case {case}");
            // Every truncation errors (a strict prefix can never be a
            // complete message followed by exhausted input... except when
            // the dropped suffix was itself unreachable — the decoder's
            // trailing-bytes check guarantees it errors either way).
            for cut in 0..bytes.len() {
                assert!(
                    decode::<Message>(&bytes[..cut]).is_err(),
                    "case {case}: truncation at {cut} must error"
                );
            }
            // Single-byte corruption sweep: decode may fail or may yield a
            // different valid message, but must never panic or loop.
            for _ in 0..16 {
                let mut corrupt = bytes.clone();
                let at = (rng() % corrupt.len().max(1) as u64) as usize;
                corrupt[at] ^= (1 + rng() % 255) as u8;
                let _ = decode::<Message>(&corrupt);
            }
        }
    }
}

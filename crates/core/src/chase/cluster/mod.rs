//! The partition-server cluster behind `ChaseEngine::Distributed
//! { servers }`: the distributed form of the one chase engine.
//!
//! The [`IncrementalExchange`](crate::chase::incremental::IncrementalExchange)
//! session confines every shared-interval match to one timeline partition
//! and keeps its fact lists as settled + delta blocks. With
//! `ChaseEngine::Distributed` it stays the coordinator loop — union-find,
//! restricted checks and normalization remain local — and ships each fact
//! to the one **partition server** owning the partition its interval
//! starts in; the servers enumerate the delta-touching matches of the
//! facts they hold. A one-shot distributed chase
//! ([`c_chase_distributed_with`]) is a one-batch session. The layers,
//! bottom up:
//!
//! * [`protocol`] — the v6 message shapes and their byte codec
//!   ([`tdx_storage::codec`]): `Hello` (the [`ServerConfig`] handshake),
//!   delta-only `ApplyDelta` against a retained-prefix watermark, the
//!   fused `TgdRoundFused`/`EgdRoundFused` rounds, `Ping`, `Resume`,
//!   `Shutdown`.
//! * [`server`] — the server state machine and its carrier loops: behind
//!   an in-process channel pair, or behind a TCP connection (the
//!   `tdx serve-partition` subcommand).
//! * [`transport`] — how frames travel: the [`Transport`] trait with
//!   [`ChannelTransport`] (in-process actors) and [`TcpTransport`] (real
//!   child processes over loopback TCP) backends.
//! * [`chaos`] — the seeded fault harness: [`ChaosSpawner`] /
//!   `ChaosTransport` replay a [`FaultPlan`] of delays, hangs, drops,
//!   corruption, duplicates and partial writes against any inner
//!   transport.
//! * [`coordinator`] — the coordinator kernel (restricted checks +
//!   union-find folds the session runs) and [`DistributedCluster`] with
//!   heartbeat/retry, backoff + quarantine ([`ServerHealth`]) and
//!   delta-only shipping.
//!
//! See `docs/distributed.md` for the protocol and equivalence argument,
//! `docs/transport.md` for the transport layer and the watermark
//! invariant, and `docs/robustness.md` for the failure model.

pub mod chaos;
pub mod coordinator;
pub mod protocol;
pub mod server;
pub mod transport;

pub use crate::chase::incremental::c_chase_distributed_with;
pub use chaos::{ChaosSpawner, FaultKind, FaultPlan, FaultSpec};
pub use coordinator::{snapshot_consistent, DistributedCluster, ServerHealth, TrafficStats};
pub use protocol::{
    config_digest, image_digest, Hom, MergeOp, Message, Response, ServerConfig, StoreKind, WireHom,
};
pub use server::serve_listen;
pub use transport::{
    resolve_transport, spawner_for, ChannelSpawner, ChannelTransport, DurableTcpSpawner,
    TcpSpawner, TcpTransport, Transport, TransportKind, TransportSpawner,
};

pub(crate) use coordinator::{
    classify_check, fold_merge_ops, is_transport_error, memo_probe_key, register_memo, Check,
};

//! The traced layer walk: the per-layer metrics of a traced run.
//!
//! After the traced loop, the walk calls each layer's public functions on
//! the run's seeded inputs, with a span around every call, and turns the
//! spans' self times and the counters the API returns (`ChaseStats`,
//! `BatchStats`, `TrafficStats`, `CacheStats`) into one fixed metric list.
//! Every traced run walks every layer, so each run reports the whole list;
//! which workload each metric speaks for is in `README.md`.

use crate::inputs::{Inputs, Template, QUERIES_PER_BATCH};
use crate::stats::{median, Ledger};
use crate::sys::TempDir;
use crate::trace::Tracer;
use crate::workloads::{chase_options, open_seeded, serve_seeded, Samples, Workload};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdx::core::chase::cluster::{
    c_chase_distributed_with, ChannelSpawner, Transport, TransportKind, TransportSpawner,
};
use tdx::core::{
    normalize_with, plan_union, BatchStats, CompiledQuery, DirtySet, QueryService, TrafficStats,
};
use tdx::logic::Atom;
use tdx::storage::codec::encode;
use tdx::storage::wal::{write_snapshot, Wal};
use tdx::storage::TemporalMode;
use tdx::{ChaseOptions, DataExchange, IncrementalExchange};

/// Stream batches the walk feeds its twin, durable and cluster sessions, at
/// least; the walk goes on until it has fed [`WALK_CLOSEOUTS`] close-outs.
const WALK_BATCHES: usize = 50;
const WALK_CLOSEOUTS: usize = 2;
/// Stream batches the walk's query probe runs behind.
const WALK_SERVE_BATCHES: usize = 25;
/// The durable session's snapshot cadence (the library default).
const SNAPSHOT_EVERY: usize = 8;

/// Every per-layer metric, with its unit, in the order `BENCHMARK.json`
/// lists them; a walk reports exactly these.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("core.normalize.source_ms", "ms"),
    ("core.normalize.fragmentation", "ratio"),
    ("storage.matcher.tgd_join_ms", "ms"),
    ("storage.matcher.tgd_matches", "count"),
    ("core.chase.tgd_steps", "count"),
    ("core.chase.egd_rounds", "count"),
    ("core.chase.egd_merges", "count"),
    ("core.chase.nulls_created", "count"),
    ("core.chase.step_yield", "ratio"),
    ("core.chase.self_ms", "ms"),
    ("core.chase.incremental.apply_ms", "ms"),
    ("core.chase.incremental.rechase_ms", "ms"),
    ("core.chase.incremental.target_ms", "ms"),
    ("core.chase.incremental.tgd_matches", "count"),
    ("core.chase.incremental.tgd_steps", "count"),
    ("core.chase.incremental.step_yield", "ratio"),
    ("core.chase.incremental.egd_merges", "count"),
    ("core.chase.incremental.dirty_partition_share", "ratio"),
    ("core.chase.incremental.full_rechases", "count"),
    ("core.chase.incremental.recoarsens", "count"),
    ("storage.codec.record_encode_us", "us"),
    ("storage.codec.record_bytes", "bytes"),
    ("storage.codec.state_encode_ms", "ms"),
    ("storage.codec.state_bytes", "bytes"),
    ("storage.wal.append_ms", "ms"),
    ("storage.wal.snapshot_write_ms", "ms"),
    ("core.chase.durable.overhead_ms", "ms"),
    ("core.chase.cluster.overhead_ms", "ms"),
    ("core.chase.cluster.round_trips_per_batch", "count"),
    ("core.chase.cluster.frames_per_batch", "count"),
    ("core.chase.cluster.bytes_per_batch", "bytes"),
    ("core.chase.cluster.shipped_facts_per_batch", "count"),
    ("core.chase.cluster.respawns", "count"),
    ("core.chase.cluster.quarantines", "count"),
    ("core.chase.cluster.send_ms", "ms"),
    ("core.chase.cluster.recv_wait_ms", "ms"),
    ("core.query.plan_ms", "ms"),
    ("core.query.execute_ms", "ms"),
    ("core.query.warm_eval_ms", "ms"),
    ("core.query.publish_ms", "ms"),
    ("core.query.plan_hit_ratio", "ratio"),
    ("core.query.fragment_reuse_ratio", "ratio"),
    ("core.query.eval_ms.point", "ms"),
    ("core.query.eval_ms.colleagues", "ms"),
    ("core.query.eval_ms.roster", "ms"),
    ("core.query.eval_ms.union", "ms"),
    ("core.query.eval_ms.scan", "ms"),
    ("core.query.answer_rows.point", "count"),
    ("core.query.answer_rows.colleagues", "count"),
    ("core.query.answer_rows.roster", "count"),
    ("core.query.answer_rows.union", "count"),
    ("core.query.answer_rows.scan", "count"),
    ("trace.overhead_ms", "ms"),
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Ratio with an empty base reading as 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

fn eval_span(t: Template) -> &'static str {
    match t {
        Template::Point => "core.query.eval.point",
        Template::Colleagues => "core.query.eval.colleagues",
        Template::Roster => "core.query.eval.roster",
        Template::Union => "core.query.eval.union",
        Template::Scan => "core.query.eval.scan",
    }
}

/// Per-op differences `a - b` over the ops both spans occur in.
fn paired_diff(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> Vec<f64> {
    a.iter()
        .filter_map(|(op, x)| b.get(op).map(|y| x - y))
        .collect()
}

fn traffic_delta(before: TrafficStats, after: TrafficStats) -> TrafficStats {
    // A respawned cluster (after a re-coarsening) restarts its counters.
    if after.frames_sent < before.frames_sent {
        return after;
    }
    TrafficStats {
        frames_sent: after.frames_sent - before.frames_sent,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        apply_delta_bytes: after.apply_delta_bytes - before.apply_delta_bytes,
        apply_delta_facts: after.apply_delta_facts - before.apply_delta_facts,
        round_trips: after.round_trips - before.round_trips,
        respawns: after.respawns - before.respawns,
        quarantines: after.quarantines - before.quarantines,
    }
}

/// A channel transport that accumulates the time spent in `send` and
/// waiting in `recv`.
struct TimingTransport {
    inner: Box<dyn Transport>,
    send_ns: Arc<AtomicU64>,
    recv_ns: Arc<AtomicU64>,
}

impl Transport for TimingTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.send(frame);
        self.send_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let r = self.inner.recv();
        self.recv_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        self.inner.set_deadline(deadline)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn sever(&mut self) {
        self.inner.sever();
    }
}

#[derive(Default)]
struct TimingSpawner {
    send_ns: Arc<AtomicU64>,
    recv_ns: Arc<AtomicU64>,
}

impl TransportSpawner for TimingSpawner {
    fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(TimingTransport {
            inner: ChannelSpawner.spawn(server)?,
            send_ns: Arc::clone(&self.send_ns),
            recv_ns: Arc::clone(&self.recv_ns),
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Channel
    }
}

/// The walk's measurements by metric name.
#[derive(Default)]
struct Out(HashMap<&'static str, f64>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every reported metric is listed in PER_LAYER");
        self.0.insert(name, value);
    }
}

/// Runs the walk and returns every per-layer metric. `samples` are the
/// traced loop's, for the tracing overhead.
pub fn walk(
    inputs: &Inputs,
    samples: &Samples,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    tmp: &TempDir,
) -> Vec<Metric> {
    let mut out = Out::default();
    let mut op = 1_000_000u64;
    exchange_layers(inputs, tr, ledger, &mut op, &mut out);
    stream_layers(inputs, tr, ledger, tmp, &mut op, &mut out);
    query_layers(inputs, tr, ledger, &mut op, &mut out);

    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (ms, on) in samples.ops.iter().zip(&samples.traced) {
        if *on { &mut traced } else { &mut untraced }.push(*ms);
    }
    out.put("trace.overhead_ms", med(traced) - med(untraced));
    // A layer whose calls failed measured nothing; the failure is already
    // in the ledger, and the metric reads 0.
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit,
            value: out.0.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

fn exchange_layers(
    inputs: &Inputs,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    op: &mut u64,
    out: &mut Out,
) {
    let sopts = ChaseOptions::default().search_options();
    let bodies: Vec<&[Atom]> = inputs
        .mapping
        .st_tgds()
        .iter()
        .map(|t| t.body.as_slice())
        .collect();
    let ex = DataExchange::new(inputs.mapping.clone());
    let (mut facts_in, mut facts_out) = (0usize, 0usize);
    let mut matches = Vec::new();
    let mut stats = Vec::new();
    for shape in &inputs.shapes {
        *op += 1;
        let normalized = tr.span("core.normalize", *op, None, || {
            normalize_with(&shape.source, &bodies, sopts)
        });
        let Some(normalized) = ledger.op("normalize", normalized) else {
            continue;
        };
        facts_in += shape.source.total_len();
        facts_out += normalized.total_len();
        let mut found = 0usize;
        for body in &bodies {
            let r = tr.span("storage.matcher", *op, None, || {
                normalized.find_matches(body, TemporalMode::Shared, &[], None, |_| {
                    found += 1;
                    true
                })
            });
            ledger.op("find_matches", r);
        }
        matches.push(found as f64);
        let r = tr.span("core.chase", *op, None, || ex.exchange(&shape.source));
        if let Some(r) = ledger.op("exchange", r) {
            stats.push(r.stats);
        }
    }
    let normalize = tr.per_op_ms("core.normalize");
    let join = tr.per_op_ms("storage.matcher");
    let chase = tr.per_op_ms("core.chase");
    let chase_self = chase
        .iter()
        .filter_map(|(op, ms)| Some(ms - normalize.get(op)? - join.get(op)?));
    out.put("core.normalize.source_ms", med(normalize.values().copied()));
    out.put(
        "core.normalize.fragmentation",
        ratio(facts_out as f64, facts_in as f64),
    );
    out.put("storage.matcher.tgd_join_ms", med(join.values().copied()));
    out.put("storage.matcher.tgd_matches", med(matches.iter().copied()));
    let stat = |f: fn(&tdx::core::ChaseStats) -> f64| med(stats.iter().map(f));
    out.put("core.chase.tgd_steps", stat(|s| s.tgd_steps as f64));
    out.put("core.chase.egd_rounds", stat(|s| s.egd_rounds as f64));
    out.put("core.chase.egd_merges", stat(|s| s.egd_merges as f64));
    out.put("core.chase.nulls_created", stat(|s| s.nulls_created as f64));
    out.put(
        "core.chase.step_yield",
        ratio(
            stats.iter().map(|s| s.tgd_steps as f64).sum(),
            matches.iter().sum(),
        ),
    );
    out.put("core.chase.self_ms", med(chase_self));
}

/// The twin in-memory session, the durable session, the cluster session,
/// the codec and the WAL, all fed the same first stream batches.
fn stream_layers(
    inputs: &Inputs,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    tmp: &TempDir,
    op: &mut u64,
    out: &mut Out,
) {
    let base = tdx::DeltaBatch::from_instance(&inputs.base);
    let twin = IncrementalExchange::new(inputs.mapping.clone()).and_then(|mut s| {
        s.apply(&base)?;
        Ok(s)
    });
    let durable = open_seeded(inputs, &ChaseOptions::default(), &tmp.path().join("walk"));
    let cluster =
        IncrementalExchange::with_options(inputs.mapping.clone(), chase_options(Workload::Cluster))
            .and_then(|mut s| {
                s.apply(&base)?;
                Ok(s)
            });
    let wal = Wal::open(tmp.path().join("scratch.wal"));
    let snapshot_path = tmp.path().join("scratch.snapshot");
    let (Some(mut twin), Some(mut durable), Some(mut cluster), Some(mut wal)) = (
        ledger.op("seed twin session", twin),
        ledger.op("seed durable session", durable),
        ledger.op("seed cluster session", cluster),
        ledger.op("open scratch WAL", wal),
    ) else {
        return;
    };

    let walk_len = inputs
        .closeouts
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_some())
        .nth(WALK_CLOSEOUTS - 1)
        .map_or(inputs.batches.len(), |(i, _)| i + 1)
        .max(WALK_BATCHES);
    let mut batch_stats: Vec<BatchStats> = Vec::new();
    let (mut record_bytes, mut state_bytes) = (Vec::new(), Vec::new());
    let mut traffic = TrafficStats::default();
    for (i, batch) in inputs.batches.iter().take(walk_len).enumerate() {
        *op += 1;
        let closeout = inputs.closeouts[i].is_some();
        let (inc, dur, dist) = if closeout {
            (
                "core.chase.incremental.rechase",
                "core.chase.durable.rechase",
                "core.chase.cluster.rechase",
            )
        } else {
            (
                "core.chase.incremental.apply",
                "core.chase.durable.apply",
                "core.chase.cluster.apply",
            )
        };
        let r = tr.span(inc, *op, None, || twin.apply(batch));
        let Some(stats) = ledger.op("twin apply", r) else {
            return;
        };
        batch_stats.push(stats);
        tr.span("core.chase.incremental.target", *op, None, || twin.target());
        // The durable session's WAL record for this batch, written again
        // into a scratch WAL on the same filesystem.
        let seq = i as u64 + 2;
        let record = tr.span("storage.codec.record_encode", *op, None, || {
            encode(&(seq, batch.clone()))
        });
        record_bytes.push(record.len() as f64);
        let r = tr.span("storage.wal.append", *op, None, || wal.append(&record));
        ledger.op("scratch WAL append", r);
        let r = tr.span(dur, *op, None, || durable.apply(batch));
        ledger.op("durable apply", r);
        let before = cluster.cluster_traffic().unwrap_or_default();
        let r = tr.span(dist, *op, None, || cluster.apply(batch));
        ledger.op("cluster apply", r);
        let after = cluster.cluster_traffic().unwrap_or_default();
        let d = traffic_delta(before, after);
        traffic.round_trips += d.round_trips;
        traffic.frames_sent += d.frames_sent;
        traffic.bytes_sent += d.bytes_sent;
        traffic.apply_delta_facts += d.apply_delta_facts;
        traffic.respawns += d.respawns;
        traffic.quarantines += d.quarantines;
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            let bytes = tr.span("storage.codec.state_encode", *op, None, || {
                durable.state_bytes()
            });
            state_bytes.push(bytes.len() as f64);
            let r = tr.span("storage.wal.snapshot_write", *op, None, || {
                write_snapshot(&snapshot_path, &bytes)
            });
            ledger.op("scratch snapshot write", r);
        }
    }
    drop(cluster);

    // The transport's own share: one distributed chase of the walk's final
    // source through a timing wrapper around the channel transport.
    let spawner = Arc::new(TimingSpawner::default());
    let source = inputs.accumulated(walk_len, true);
    let r = tr.span("core.chase.cluster.exchange", *op, None, || {
        c_chase_distributed_with(
            &source,
            &inputs.mapping,
            &chase_options(Workload::Cluster),
            2,
            spawner.clone(),
        )
    });
    ledger.op("distributed exchange", r);

    let n = batch_stats.len() as f64;
    let sum = |f: fn(&BatchStats) -> usize| batch_stats.iter().map(f).sum::<usize>() as f64;
    let inc = tr.per_op_ms("core.chase.incremental.apply");
    out.put(
        "core.chase.incremental.apply_ms",
        med(inc.values().copied()),
    );
    out.put(
        "core.chase.incremental.rechase_ms",
        med(tr.per_op_ms("core.chase.incremental.rechase").into_values()),
    );
    out.put(
        "core.chase.incremental.target_ms",
        med(tr.per_op_ms("core.chase.incremental.target").into_values()),
    );
    out.put(
        "core.chase.incremental.tgd_matches",
        ratio(sum(|s| s.tgd_matches), n),
    );
    out.put(
        "core.chase.incremental.tgd_steps",
        ratio(sum(|s| s.tgd_steps), n),
    );
    out.put(
        "core.chase.incremental.step_yield",
        ratio(sum(|s| s.tgd_steps), sum(|s| s.tgd_matches)),
    );
    out.put(
        "core.chase.incremental.egd_merges",
        ratio(sum(|s| s.egd_merges), n),
    );
    out.put(
        "core.chase.incremental.dirty_partition_share",
        ratio(sum(|s| s.dirty_partitions), sum(|s| s.partitions)),
    );
    out.put(
        "core.chase.incremental.full_rechases",
        sum(|s| s.full_rechase as usize),
    );
    out.put(
        "core.chase.incremental.recoarsens",
        sum(|s| s.recoarsened as usize),
    );

    out.put(
        "storage.codec.record_encode_us",
        1e3 * med(tr.per_op_ms("storage.codec.record_encode").into_values()),
    );
    out.put("storage.codec.record_bytes", med(record_bytes));
    out.put(
        "storage.codec.state_encode_ms",
        med(tr.per_op_ms("storage.codec.state_encode").into_values()),
    );
    out.put("storage.codec.state_bytes", med(state_bytes));
    out.put(
        "storage.wal.append_ms",
        med(tr.per_op_ms("storage.wal.append").into_values()),
    );
    out.put(
        "storage.wal.snapshot_write_ms",
        med(tr.per_op_ms("storage.wal.snapshot_write").into_values()),
    );
    out.put(
        "core.chase.durable.overhead_ms",
        med(paired_diff(&tr.per_op_ms("core.chase.durable.apply"), &inc)),
    );
    out.put(
        "core.chase.cluster.overhead_ms",
        med(paired_diff(&tr.per_op_ms("core.chase.cluster.apply"), &inc)),
    );
    out.put(
        "core.chase.cluster.round_trips_per_batch",
        ratio(traffic.round_trips as f64, n),
    );
    out.put(
        "core.chase.cluster.frames_per_batch",
        ratio(traffic.frames_sent as f64, n),
    );
    out.put(
        "core.chase.cluster.bytes_per_batch",
        ratio(traffic.bytes_sent as f64, n),
    );
    out.put(
        "core.chase.cluster.shipped_facts_per_batch",
        ratio(traffic.apply_delta_facts as f64, n),
    );
    out.put("core.chase.cluster.respawns", traffic.respawns as f64);
    out.put("core.chase.cluster.quarantines", traffic.quarantines as f64);
    out.put(
        "core.chase.cluster.send_ms",
        spawner.send_ns.load(Ordering::Relaxed) as f64 / 1e6,
    );
    out.put(
        "core.chase.cluster.recv_wait_ms",
        spawner.recv_ns.load(Ordering::Relaxed) as f64 / 1e6,
    );
}

/// Plan, execute, cached and warm evaluation and publish, behind the first
/// [`WALK_SERVE_BATCHES`] insert batches of the serve stream.
fn query_layers(
    inputs: &Inputs,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    op: &mut u64,
    out: &mut Out,
) {
    let Some((mut session, svc)) = ledger.op("seed serve session", serve_seeded(inputs)) else {
        return;
    };
    let twin = QueryService::new(
        session.target(),
        svc.snapshot().version().partition().clone(),
    );
    let mut rows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut evals, mut compiled, mut reused, mut recomputed) = (0u64, 0u64, 0u64, 0u64);
    let mut probe_query = |q: usize, tr: &mut Tracer, ledger: &mut Ledger, op: &mut u64| {
        *op += 1;
        let query = &inputs.queries[q];
        let snap = svc.snapshot();
        let before = svc.stats();
        let r = tr.span(eval_span(query.template), *op, None, || {
            svc.eval_at(&snap, &query.query)
        });
        let after = svc.stats();
        evals += after.evals - before.evals;
        compiled += after.plans_compiled - before.plans_compiled;
        reused += after.fragments_reused - before.fragments_reused;
        recomputed += after.fragments_recomputed - before.fragments_recomputed;
        if let Some(answers) = ledger.op("query", r) {
            rows.entry(query.template.name())
                .or_default()
                .push(answers.len() as f64);
        }
        let r = tr.span("core.query.warm_eval", *op, None, || {
            svc.eval_at(&snap, &query.query)
        });
        ledger.op("warm query", r);
        let store = snap.version().snapshot();
        let plan = tr.span("core.query.plan", *op, None, || {
            plan_union(store, &query.query)
        });
        if let Some(plan) = ledger.op("plan", plan) {
            let compiled = CompiledQuery::from_plan(Arc::new(plan));
            tr.span("core.query.execute", *op, None, || compiled.eval(store));
        }
    };

    for (i, batch) in inputs
        .insert_batches
        .iter()
        .take(WALK_SERVE_BATCHES)
        .enumerate()
    {
        *op += 1;
        let r = tr.span("serve.apply", *op, None, || session.apply(batch));
        let Some(stats) = ledger.op("serve apply", r) else {
            return;
        };
        let partition = svc.snapshot().version().partition().clone();
        let target = session.target();
        tr.span("core.query.publish", *op, None, || {
            twin.publish(target, &partition, DirtySet::Parts(&stats.dirty_parts))
        });
        for &q in &inputs.query_seq[i * QUERIES_PER_BATCH..(i + 1) * QUERIES_PER_BATCH] {
            probe_query(q, tr, ledger, op);
        }
    }
    // The pool starts with one query of every template.
    for q in 0..Template::ALL.len() {
        probe_query(q, tr, ledger, op);
    }

    let span_med = |name: &str| med(tr.per_op_ms(name).into_values());
    out.put("core.query.plan_ms", span_med("core.query.plan"));
    out.put("core.query.execute_ms", span_med("core.query.execute"));
    out.put("core.query.warm_eval_ms", span_med("core.query.warm_eval"));
    out.put("core.query.publish_ms", span_med("core.query.publish"));
    out.put(
        "core.query.plan_hit_ratio",
        1.0 - ratio(compiled as f64, evals as f64),
    );
    out.put(
        "core.query.fragment_reuse_ratio",
        ratio(reused as f64, (reused + recomputed) as f64),
    );
    for t in Template::ALL {
        out.put(
            &format!("core.query.eval_ms.{}", t.name()),
            span_med(eval_span(t)),
        );
    }
    for t in Template::ALL {
        out.put(
            &format!("core.query.answer_rows.{}", t.name()),
            med(rows.remove(t.name()).unwrap_or_default()),
        );
    }
}

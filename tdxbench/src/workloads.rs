//! The four measured workloads: seeded, closed-loop, one client, through
//! the library's public API with its default options (the cluster engine is
//! pinned to 2 servers on the channel transport).

use crate::inputs::{Inputs, QUERIES_PER_BATCH};
use crate::reference::Reference;
use crate::stats::Ledger;
use crate::sys::TempDir;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tdx::core::{
    abstract_chase, hom_equivalent, is_solution_concrete, naive_eval_concrete, semantics,
    DurableExchange, QueryService, TransportKind,
};
use tdx::storage::codec::encode;
use tdx::{c_chase_with, ChaseOptions, DataExchange, DeltaBatch, IncrementalExchange};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Exchange,
    Ingest,
    Serve,
    Cluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exchange,
        Workload::Ingest,
        Workload::Serve,
        Workload::Cluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exchange => "exchange",
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
            Workload::Cluster => "cluster",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Operation time between two runs of the reference kernel, in s.
const REFERENCE_EVERY_S: f64 = 0.25;

/// Library defaults, except the engine of the `cluster` workload.
pub fn chase_options(w: Workload) -> ChaseOptions {
    match w {
        Workload::Cluster => ChaseOptions::distributed(2).on_transport(TransportKind::Channel),
        _ => ChaseOptions::default(),
    }
}

/// What the measured loop saw. Latencies are in ms.
#[derive(Default)]
pub struct Samples {
    /// Every operation, in order: an exchange round (every source once), a
    /// durable batch, or a serve cycle (one batch and the queries after it).
    pub ops: Vec<f64>,
    /// Whether that call ran with spans (traced runs trace half the ops).
    pub traced: Vec<bool>,
    pub exchanges: Vec<f64>,
    /// Insert batches without a close-out.
    pub inserts: Vec<f64>,
    pub closeouts: Vec<f64>,
    pub queries: Vec<f64>,
    /// Time spent inside timed calls, in s.
    pub busy_s: f64,
    /// Source facts handed to the library by the timed calls.
    pub facts: u64,
    pub batches: u64,
    /// Encoded bytes of the applied batches.
    pub user_bytes: u64,
    /// `wchar` growth over the batch loops.
    pub written_bytes: u64,
    pub passes: usize,
    pub respawns: u64,
    pub quarantines: u64,
}

impl Samples {
    fn push(&mut self, ms: f64, traced: bool) {
        self.ops.push(ms);
        self.traced.push(traced);
        self.busy_s += ms / 1e3;
    }
}

/// Optional spans around timed calls.
pub struct Probe<'a> {
    pub tracer: Option<&'a mut Tracer>,
}

impl Probe<'_> {
    /// Whether operation `op` records spans: a seeded half of them, so a
    /// traced run also measures the same calls untraced. The choice is
    /// pseudo-random, not alternating, so it cannot line up with periodic
    /// work such as the snapshot every 8 batches.
    pub fn traces(&self, op: u64) -> bool {
        self.tracer.is_some() && crate::inputs::Rng::new(op).next_u64() & 1 == 1
    }

    pub fn open(&mut self, on: bool, name: &'static str, op: u64) -> Option<usize> {
        match &mut self.tracer {
            Some(t) if on => Some(t.open(name, op, None)),
            _ => None,
        }
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (&mut self.tracer, id) {
            t.close(id);
        }
    }

    /// Runs `f`, returning its value and its latency in ms; records a span
    /// when `on`.
    pub fn time<T>(
        &mut self,
        on: bool,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = match &mut self.tracer {
            Some(t) if on => Some(t.open(name, op, parent)),
            _ => None,
        };
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (&mut self.tracer, id) {
            t.close(id);
        }
        (out, ms)
    }
}

/// One workload run: its set-up times, loop samples and outcome ledger.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub samples: Samples,
    pub ledger: Ledger,
    pub reference: Reference,
}

/// What every measured loop shares: its time budget, spans, samples and
/// ledger, and the set-ups it repeats between operations.
pub struct Loop<'a, 'b> {
    secs: f64,
    pub probe: &'a mut Probe<'b>,
    pub samples: Samples,
    pub ledger: Ledger,
    setup_s: Vec<f64>,
    /// Builds one more set-up of the workload and drops it.
    setup: Box<dyn FnMut() -> Result<(), String> + 'a>,
    reference: Reference,
    /// Busy time at which the reference kernel runs next.
    reference_due: f64,
}

impl<'a, 'b> Loop<'a, 'b> {
    /// A loop after the set-up that built its state, which took `first_s`.
    pub fn new(
        secs: f64,
        probe: &'a mut Probe<'b>,
        first_s: f64,
        setup: Box<dyn FnMut() -> Result<(), String> + 'a>,
    ) -> Self {
        Loop {
            secs,
            probe,
            samples: Samples::default(),
            ledger: Ledger::default(),
            setup_s: vec![first_s],
            setup,
            reference: Reference::default(),
            reference_due: 0.0,
        }
    }

    /// Whether the loop has measured `secs` seconds of operations.
    pub fn done(&self) -> bool {
        self.samples.busy_s >= self.secs
    }

    fn repeat_setup(&mut self) {
        let start = Instant::now();
        let r = (self.setup)();
        self.setup_s.push(start.elapsed().as_secs_f64());
        if let Err(e) = r {
            self.ledger.op::<(), _>("set-up", Err(e));
        }
    }

    /// Runs the next set-up once the loop has measured its share of the
    /// run, and the reference kernel every [`REFERENCE_EVERY_S`] of
    /// operations. A shared machine's speed can drift over seconds, so both
    /// are timed under the same conditions as the operations.
    pub fn between_ops(&mut self) {
        let due = self.secs * self.setup_s.len() as f64 / SETUP_REPS as f64;
        if self.setup_s.len() < SETUP_REPS && self.samples.busy_s >= due {
            self.repeat_setup();
        }
        if self.samples.busy_s >= self.reference_due {
            self.reference.sample();
            self.reference_due = self.samples.busy_s + REFERENCE_EVERY_S;
        }
    }

    pub fn finish(mut self) -> Run {
        while self.setup_s.len() < SETUP_REPS {
            self.repeat_setup();
        }
        if self.reference.samples.is_empty() {
            self.reference.sample();
        }
        Run {
            setup_s: self.setup_s,
            samples: self.samples,
            ledger: self.ledger,
            reference: self.reference,
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn exchange_setup(seed: u64) -> (Inputs, DataExchange) {
    let inputs = Inputs::generate(seed);
    let ex = DataExchange::new(inputs.mapping.clone());
    (inputs, ex)
}

fn durable_setup(
    seed: u64,
    opts: &ChaseOptions,
    dir: &Path,
) -> (Inputs, tdx::core::Result<DurableExchange>) {
    let inputs = Inputs::generate(seed);
    let session = open_seeded(&inputs, opts, dir);
    (inputs, session)
}

fn serve_setup(
    seed: u64,
) -> (
    Inputs,
    tdx::core::Result<(IncrementalExchange, Arc<QueryService>)>,
) {
    let inputs = Inputs::generate(seed);
    let session = serve_seeded(&inputs);
    (inputs, session)
}

/// Runs workload `w` until its operations have taken `secs` seconds.
pub fn run(w: Workload, seed: u64, secs: f64, probe: &mut Probe<'_>) -> Run {
    match w {
        Workload::Exchange => {
            let ((inputs, ex), first_s) = timed(|| exchange_setup(seed));
            let mut lp = Loop::new(
                secs,
                probe,
                first_s,
                Box::new(move || {
                    exchange_setup(seed);
                    Ok(())
                }),
            );
            exchange_loop(&inputs, &ex, &mut lp);
            lp.finish()
        }
        Workload::Ingest | Workload::Cluster => {
            let opts = chase_options(w);
            let dirs = TempDir::new(w.name());
            let setup_dirs = TempDir::new(&format!("{}-setup", w.name()));
            let (root, setup_root) = match (dirs, setup_dirs) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    let mut ledger = Ledger::default();
                    ledger.op::<(), _>("state dir", Err(e));
                    return Run {
                        setup_s: vec![0.0],
                        samples: Samples::default(),
                        ledger,
                        reference: Reference::default(),
                    };
                }
            };
            let mut dirs = StateDirs { root: &root, n: 0 };
            let dir = dirs.next();
            let ((inputs, session), first_s) = timed(|| durable_setup(seed, &opts, &dir));
            let mut setup_dirs = StateDirs {
                root: &setup_root,
                n: 0,
            };
            let setup_opts = opts.clone();
            let mut lp = Loop::new(
                secs,
                probe,
                first_s,
                Box::new(move || {
                    let dir = setup_dirs.next();
                    // The session (and its servers) is gone before its
                    // directory goes.
                    let ok = session_ok(durable_setup(seed, &setup_opts, &dir).1);
                    let _ = std::fs::remove_dir_all(&dir);
                    ok
                }),
            );
            if let Some(session) = lp.ledger.op("seed durable session", session) {
                durable_loop(&inputs, &opts, &mut dirs, (session, dir), &mut lp);
            }
            lp.finish()
        }
        Workload::Serve => {
            let ((inputs, session), first_s) = timed(|| serve_setup(seed));
            let mut lp = Loop::new(
                secs,
                probe,
                first_s,
                Box::new(move || session_ok(serve_setup(seed).1)),
            );
            if let Some(session) = lp.ledger.op("seed serve session", session) {
                serve_loop(&inputs, session, &mut lp);
            }
            lp.finish()
        }
    }
}

fn session_ok<T>(r: tdx::core::Result<T>) -> Result<(), String> {
    r.map(|_| ()).map_err(|e| e.to_string())
}

fn exchange_loop(inputs: &Inputs, ex: &DataExchange, lp: &mut Loop<'_, '_>) {
    let mut targets: Vec<Option<tdx::TemporalInstance>> =
        inputs.shapes.iter().map(|_| None).collect();
    let mut op = 0u64;
    // One operation exchanges every source once, so each operation costs
    // the same mix of shapes.
    while !lp.done() {
        op += 1;
        let on = lp.probe.traces(op);
        let round = lp.probe.open(on, "exchange.round", op);
        let mut round_ms = 0.0;
        for (k, shape) in inputs.shapes.iter().enumerate() {
            let (r, ms) = lp.probe.time(on, "exchange.call", op, round, || {
                ex.exchange(&shape.source)
            });
            round_ms += ms;
            lp.samples.exchanges.push(ms);
            lp.samples.facts += shape.source.total_len() as u64;
            if let Some(r) = lp.ledger.op("exchange", r) {
                match &targets[k] {
                    None => targets[k] = Some(r.target),
                    Some(first) => lp.ledger.check(
                        "a repeated exchange gives the same target",
                        *first == r.target,
                    ),
                }
            }
        }
        lp.probe.close(round);
        lp.samples.push(round_ms, on);
        lp.between_ops();
    }
    // Corollary 20 on every distinct source: the c-chase result is a
    // solution, and its semantics is hom-equivalent to the abstract chase.
    let ledger = &mut lp.ledger;
    for (shape, target) in inputs.shapes.iter().zip(&targets) {
        let Some(target) = target else { continue };
        let solution = is_solution_concrete(&shape.source, target, &inputs.mapping);
        let solution = ledger.op("is_solution_concrete", solution).unwrap_or(false);
        ledger.check(&format!("{} target is a solution", shape.name), solution);
        if let Some(abs) = ledger.op(
            "abstract chase",
            abstract_chase(&semantics(&shape.source), &inputs.mapping),
        ) {
            ledger.check(
                &format!(
                    "{} target is hom-equivalent to the abstract chase",
                    shape.name
                ),
                hom_equivalent(&semantics(target), &abs),
            );
        }
    }
}

/// Fresh state directories under one temporary root.
pub struct StateDirs<'a> {
    pub root: &'a TempDir,
    pub n: usize,
}

impl StateDirs<'_> {
    pub fn next(&mut self) -> PathBuf {
        self.n += 1;
        self.root.path().join(format!("state-{}", self.n))
    }
}

/// A durable session in `dir`, seeded with the stream's base.
pub fn open_seeded(
    inputs: &Inputs,
    opts: &ChaseOptions,
    dir: &Path,
) -> tdx::core::Result<DurableExchange> {
    let mut session = DurableExchange::open(inputs.mapping.clone(), opts.clone(), dir)?;
    session.apply(&DeltaBatch::from_instance(&inputs.base))?;
    Ok(session)
}

/// Replays the stream through durable sessions, one fresh session per pass,
/// until the loop is done; checks every pass afterwards.
pub fn durable_loop(
    inputs: &Inputs,
    opts: &ChaseOptions,
    dirs: &mut StateDirs<'_>,
    first: (DurableExchange, PathBuf),
    lp: &mut Loop<'_, '_>,
) {
    let user_bytes: Vec<u64> = inputs
        .batches
        .iter()
        .map(|b| encode(b).len() as u64)
        .collect();
    let mut verified: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut op = 0u64;
    let mut next = Some(first);
    while let Some((mut session, dir)) = next.take() {
        lp.samples.passes += 1;
        let mut applied = 0;
        let mut written = 0;
        for (i, batch) in inputs.batches.iter().enumerate() {
            if lp.done() {
                break;
            }
            op += 1;
            let on = lp.probe.traces(op);
            let wchar0 = crate::sys::wchar();
            let (r, ms) = lp
                .probe
                .time(on, "durable.apply", op, None, || session.apply(batch));
            written += crate::sys::wchar() - wchar0;
            let s = &mut lp.samples;
            s.push(ms, on);
            if inputs.closeouts[i].is_some() {
                s.closeouts.push(ms);
            } else {
                s.inserts.push(ms);
            }
            s.facts += batch.len() as u64;
            s.batches += 1;
            s.user_bytes += user_bytes[i];
            if lp.ledger.op("durable apply", r).is_none() {
                // The rejected batch leaves the session behind the
                // stream's model; the run is already incorrect, so stop.
                return;
            }
            applied = i + 1;
            lp.between_ops();
        }
        lp.samples.written_bytes += written;
        if let Some(t) = session.session().cluster_traffic() {
            lp.samples.respawns += t.respawns;
            lp.samples.quarantines += t.quarantines;
        }
        verify_durable(
            inputs,
            opts,
            &dir,
            session,
            applied,
            &mut verified,
            &mut lp.ledger,
        );
        let _ = std::fs::remove_dir_all(&dir);
        if !lp.done() {
            let dir = dirs.next();
            next = lp
                .ledger
                .op("seed durable session", open_seeded(inputs, opts, &dir))
                .map(|s| (s, dir));
        }
    }
}

/// Checks one finished pass: reopening its state directory recovers the
/// same state bytes, and its target is hom-equivalent to a from-scratch
/// chase of the accumulated, refined source. Passes of equal length must
/// end in byte-identical states, so the chase runs once per length.
fn verify_durable(
    inputs: &Inputs,
    opts: &ChaseOptions,
    dir: &Path,
    session: DurableExchange,
    applied: usize,
    verified: &mut HashMap<usize, Vec<u8>>,
    ledger: &mut Ledger,
) {
    let bytes = session.state_bytes();
    let target = session.target();
    drop(session);
    if let Some(reopened) = ledger.op(
        "reopen",
        DurableExchange::open(inputs.mapping.clone(), opts.clone(), dir),
    ) {
        ledger.check(
            "reopened state is byte-identical",
            reopened.state_bytes() == bytes,
        );
    }
    if let Some(first) = verified.get(&applied) {
        ledger.check("pass ends in the verified pass's state", *first == bytes);
        return;
    }
    let source = inputs.accumulated(applied, true);
    if let Some(scratch) = ledger.op(
        "from-scratch chase",
        c_chase_with(&source, &inputs.mapping, &ChaseOptions::default()),
    ) {
        ledger.check(
            "target is hom-equivalent to a from-scratch chase",
            hom_equivalent(&semantics(&scratch.target), &semantics(&target)),
        );
    }
    verified.insert(applied, bytes);
}

/// An in-memory session seeded with the stream's base, with its query
/// service attached.
pub fn serve_seeded(
    inputs: &Inputs,
) -> tdx::core::Result<(IncrementalExchange, Arc<QueryService>)> {
    let mut session = IncrementalExchange::new(inputs.mapping.clone())?;
    session.apply(&DeltaBatch::from_instance(&inputs.base))?;
    let svc = session.enable_query_service();
    Ok((session, svc))
}

fn serve_loop(
    inputs: &Inputs,
    first: (IncrementalExchange, Arc<QueryService>),
    lp: &mut Loop<'_, '_>,
) {
    let mut used = vec![false; inputs.queries.len()];
    let mut op = 0u64;
    let (mut session, mut svc) = first;
    'run: loop {
        lp.samples.passes += 1;
        for (i, batch) in inputs.insert_batches.iter().enumerate() {
            if lp.done() {
                break 'run;
            }
            op += 1;
            let on = lp.probe.traces(op);
            let cycle = lp.probe.open(on, "serve.cycle", op);
            let (r, ms) = lp
                .probe
                .time(on, "serve.apply", op, cycle, || session.apply(batch));
            let mut cycle_ms = ms;
            lp.samples.inserts.push(ms);
            lp.samples.facts += batch.len() as u64;
            lp.samples.batches += 1;
            let applied = lp.ledger.op("serve apply", r).is_some();
            if applied {
                for &q in &inputs.query_seq[i * QUERIES_PER_BATCH..(i + 1) * QUERIES_PER_BATCH] {
                    let query = &inputs.queries[q].query;
                    let (r, ms) = lp
                        .probe
                        .time(on, "serve.query", op, cycle, || svc.eval(query));
                    cycle_ms += ms;
                    lp.samples.queries.push(ms);
                    used[q] = true;
                    lp.ledger.op("query", r);
                }
            }
            lp.probe.close(cycle);
            lp.samples.push(cycle_ms, on);
            if !applied {
                break 'run;
            }
            lp.between_ops();
        }
        if lp.done() {
            break;
        }
        match lp.ledger.op("seed serve session", serve_seeded(inputs)) {
            Some((s, v)) => (session, svc) = (s, v),
            None => break,
        }
    }
    // Every distinct query's final answers, through the caches, against
    // naive evaluation of the final target.
    let ledger = &mut lp.ledger;
    let target = session.target();
    for (q, query) in inputs.queries.iter().enumerate() {
        if !used[q] {
            continue;
        }
        let cached = ledger.op("query", svc.eval(&query.query));
        let naive = ledger.op("naive eval", naive_eval_concrete(&target, &query.query));
        if let (Some(cached), Some(naive)) = (cached, naive) {
            ledger.check(&format!("answers of {}", query.text), cached == naive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdx::logic::{Constant, Symbol};
    use tdx::storage::{row, Value};

    #[test]
    fn an_injected_failing_batch_is_counted() {
        let mut inputs = Inputs::generate(5);
        // A second salary for someone who already has one over the same
        // interval: the egd must equate two constants, so the batch fails.
        let s = inputs.mapping.source().rel_id(Symbol::from("S")).unwrap();
        let paid = inputs.base.facts(s)[0].clone();
        let mut conflict = DeltaBatch::new();
        conflict.insert(
            s,
            row([paid.data[0], Value::Const(Constant::str("999k"))]),
            paid.interval,
        );
        inputs.batches[0] = conflict;

        let opts = ChaseOptions::default();
        let root = TempDir::new("test-injected-failure").unwrap();
        let mut dirs = StateDirs { root: &root, n: 0 };
        let dir = dirs.next();
        let session = open_seeded(&inputs, &opts, &dir).unwrap();
        let mut probe = Probe { tracer: None };
        let mut lp = Loop::new(60.0, &mut probe, 0.0, Box::new(|| Ok(())));
        durable_loop(&inputs, &opts, &mut dirs, (session, dir), &mut lp);
        let run = lp.finish();
        let (ledger, samples) = (run.ledger, run.samples);
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
        assert_eq!(
            samples.ops.len(),
            1,
            "the failed call was timed like any other"
        );
        assert!(ledger.errors[0].contains("durable apply"));
    }
}

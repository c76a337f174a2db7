//! Seeded workload inputs.
//!
//! Everything a run hands to the library is generated here from the
//! workload seed before any timing starts: the three exchange sources, the
//! ingest stream (a base plus small TailLocal insert batches, with an
//! interval-narrowing close-out every [`CLOSEOUT_EVERY`] batches) and the
//! serve query mix. The same seed gives byte-identical inputs
//! ([`Inputs::encoded`]).

use std::collections::{BTreeMap, HashMap};
use tdx::logic::{parse_union_query, RelId, SchemaMapping, Symbol, UnionQuery};
use tdx::storage::{Row, TemporalInstance};
use tdx::workload::{
    paper_mapping, split_stream, BatchOrder, EmploymentConfig, EmploymentWorkload, StreamConfig,
};
use tdx::{DeltaBatch, Interval};

/// Persons in every generated employment source.
pub const PERSONS: usize = 400;
/// Companies in every generated employment source (the generator default).
pub const COMPANIES: usize = 10;
/// Timeline length of every generated source.
pub const HORIZON: u64 = 40;
/// Share of the stream source's facts in one insert batch (about 14 facts).
pub const BATCH_FRACTION: f64 = 0.002;
/// Insert batches in one pass over the stream (about half the source).
pub const STREAM_BATCHES: usize = 250;
/// Every this many batches, one batch also closes an open-ended job.
pub const CLOSEOUT_EVERY: usize = 25;
/// Queries the serve workload runs after each insert batch.
pub const QUERIES_PER_BATCH: usize = 20;

/// SplitMix64: a tiny seeded generator, so the benchmark's own draws do not
/// depend on the library's random stand-in.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The serve query templates, in the order of their mix weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    Point,
    Colleagues,
    Roster,
    Union,
    Scan,
}

impl Template {
    pub const ALL: [Template; 5] = [
        Template::Point,
        Template::Colleagues,
        Template::Roster,
        Template::Union,
        Template::Scan,
    ];
    /// Mix weights in percent, aligned with [`Template::ALL`].
    pub const WEIGHTS: [usize; 5] = [40, 20, 25, 10, 5];

    pub fn name(self) -> &'static str {
        match self {
            Template::Point => "point",
            Template::Colleagues => "colleagues",
            Template::Roster => "roster",
            Template::Union => "union",
            Template::Scan => "scan",
        }
    }
}

/// One distinct serve query.
pub struct Query {
    pub template: Template,
    pub text: String,
    pub query: UnionQuery,
}

/// One exchange source shape.
pub struct Shape {
    pub name: &'static str,
    pub source: TemporalInstance,
}

/// An interval-narrowing close-out: `E(row)` was asserted open-ended from
/// `start` and is now known to end at `end`.
#[derive(Clone, Debug)]
pub struct Closeout {
    pub row: Row,
    pub start: u64,
    pub end: u64,
}

/// Everything one run feeds the library.
pub struct Inputs {
    pub mapping: SchemaMapping,
    /// Exchange sources: full salary coverage, sparse coverage, boundary-dense.
    pub shapes: Vec<Shape>,
    /// The instance every stream session is seeded with.
    pub base: TemporalInstance,
    /// Insert facts of each stream batch.
    pub inserts: Vec<TemporalInstance>,
    /// The close-out riding on each stream batch, if any.
    pub closeouts: Vec<Option<Closeout>>,
    /// Stream batches with their close-outs (ingest, cluster).
    pub batches: Vec<DeltaBatch>,
    /// Stream batches without close-outs (serve).
    pub insert_batches: Vec<DeltaBatch>,
    /// Distinct serve queries; every template occurs at least once.
    pub queries: Vec<Query>,
    /// The serve query sequence, [`QUERIES_PER_BATCH`] per stream batch.
    pub query_seq: Vec<usize>,
}

/// A per-purpose seed derived from the workload seed.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

fn e_relation(mapping: &SchemaMapping) -> RelId {
    mapping
        .source()
        .rel_id(Symbol::from("E"))
        .expect("the employment mapping has a source relation E")
}

/// Cumulative Zipf weights (exponent 1) over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|k| {
            acc += 1.0 / (k + 1) as f64;
            acc
        })
        .collect()
}

fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let total = cdf.last().copied().unwrap_or(0.0);
    let u = rng.unit() * total;
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

fn query_text(template: Template, a: usize, b: usize) -> String {
    match template {
        Template::Point => format!("Q(c, s) :- Emp('p{a}', c, s)"),
        Template::Colleagues => format!("Q(b) :- Emp('p{a}', c, s1) & Emp(b, c, s2)"),
        Template::Roster => format!("Q(n, s) :- Emp(n, 'c{a}', s)"),
        Template::Union => {
            let (lo, hi) = (a.min(b), a.max(b));
            format!("Q(n, s) :- Emp(n, 'c{lo}', s); Q(n, s) :- Emp(n, 'c{hi}', s)")
        }
        Template::Scan => "Q(n, s) :- Emp(n, c, s)".to_string(),
    }
}

impl Inputs {
    /// Generates every input of a run from `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mapping = paper_mapping();
        let employment = |purpose: u64, tweak: fn(&mut EmploymentConfig)| {
            let mut cfg = EmploymentConfig {
                persons: PERSONS,
                companies: COMPANIES,
                horizon: HORIZON,
                seed: sub_seed(seed, purpose),
                ..EmploymentConfig::default()
            };
            tweak(&mut cfg);
            EmploymentWorkload::generate(&cfg).source
        };
        let shapes = vec![
            Shape {
                name: "full",
                source: employment(1, |_| {}),
            },
            Shape {
                name: "sparse",
                source: employment(2, |c| c.salary_coverage = 0.6),
            },
            Shape {
                name: "boundary",
                source: employment(3, |c| {
                    c.avg_tenure = 18;
                    c.p_unbounded = 0.4;
                }),
            },
        ];

        let stream = split_stream(
            mapping.clone(),
            &employment(4, |_| {}),
            &StreamConfig {
                batches: STREAM_BATCHES,
                batch_fraction: BATCH_FRACTION,
                order: BatchOrder::TailLocal,
                seed: sub_seed(seed, 5),
            },
        );
        let closeouts = plan_closeouts(&mapping, &stream.base, &stream.batches, seed);
        let e = e_relation(&mapping);
        let mut batches = Vec::with_capacity(stream.batches.len());
        let mut insert_batches = Vec::with_capacity(stream.batches.len());
        for (inserts, closeout) in stream.batches.iter().zip(&closeouts) {
            let plain = DeltaBatch::from_instance(inserts);
            let mut full = plain.clone();
            if let Some(c) = closeout {
                full.refine(e, c.row.clone(), Interval::new(c.start, c.end));
            }
            batches.push(full);
            insert_batches.push(plain);
        }

        let (queries, query_seq) = plan_queries(seed, stream.batches.len());
        Inputs {
            mapping,
            shapes,
            base: stream.base,
            inserts: stream.batches,
            closeouts,
            batches,
            insert_batches,
            queries,
            query_seq,
        }
    }

    /// The source a session holds after the base and the first `applied`
    /// stream batches, close-outs included: the input of the from-scratch
    /// reference chase.
    pub fn accumulated(&self, applied: usize, with_closeouts: bool) -> TemporalInstance {
        let e = e_relation(&self.mapping);
        let mut facts: Vec<(RelId, Row, Interval)> = self
            .base
            .iter_all()
            .map(|(rel, f)| (rel, f.data.clone(), f.interval))
            .collect();
        for (inserts, closeout) in self.inserts.iter().zip(&self.closeouts).take(applied) {
            if let (true, Some(c)) = (with_closeouts, closeout) {
                facts.retain(|(rel, row, _)| !(*rel == e && *row == c.row));
                facts.push((e, c.row.clone(), Interval::new(c.start, c.end)));
            }
            facts.extend(
                inserts
                    .iter_all()
                    .map(|(rel, f)| (rel, f.data.clone(), f.interval)),
            );
        }
        let mut out = TemporalInstance::new(self.base.schema_arc());
        for (rel, row, iv) in facts {
            out.insert(rel, row, iv);
        }
        out
    }

    /// Every input in its wire encoding, for the determinism tests.
    #[cfg(test)]
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for shape in &self.shapes {
            out.extend(tdx::storage::codec::encode(&DeltaBatch::from_instance(
                &shape.source,
            )));
        }
        out.extend(tdx::storage::codec::encode(&DeltaBatch::from_instance(
            &self.base,
        )));
        for batch in &self.batches {
            out.extend(tdx::storage::codec::encode(batch));
        }
        for &q in &self.query_seq {
            out.extend(self.queries[q].text.as_bytes());
            out.push(b'\n');
        }
        out
    }
}

/// Chooses the close-outs: one per [`CLOSEOUT_EVERY`] batches, each an
/// open-ended `E` fact already in the session whose row holds no other
/// interval (a refine supersedes all of them) and does not recur in that
/// batch.
fn plan_closeouts(
    mapping: &SchemaMapping,
    base: &TemporalInstance,
    batches: &[TemporalInstance],
    seed: u64,
) -> Vec<Option<Closeout>> {
    let e = e_relation(mapping);
    let mut rng = Rng::new(sub_seed(seed, 6));
    let mut intervals: BTreeMap<Row, usize> = BTreeMap::new();
    let mut open: Vec<(Row, u64)> = Vec::new();
    let note = |inst: &TemporalInstance,
                intervals: &mut BTreeMap<Row, usize>,
                open: &mut Vec<(Row, u64)>| {
        for f in inst.facts(e) {
            *intervals.entry(f.data.clone()).or_default() += 1;
            if f.interval.is_unbounded() {
                open.push((f.data.clone(), f.interval.start()));
            }
        }
    };
    note(base, &mut intervals, &mut open);
    let mut out = Vec::with_capacity(batches.len());
    // Open-ended jobs start late, so the first slots come before any is in
    // the session; a slot without a candidate passes to the next batch.
    let mut due = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        let mut closeout = None;
        if (i + 1) % CLOSEOUT_EVERY == 0 {
            due += 1;
        }
        if due > 0 {
            let in_batch: Vec<&Row> = batch.facts(e).iter().map(|f| &f.data).collect();
            let candidates: Vec<usize> = (0..open.len())
                .filter(|&k| intervals[&open[k].0] == 1 && !in_batch.contains(&&open[k].0))
                .collect();
            if !candidates.is_empty() {
                let (row, start) = open.remove(candidates[rng.below(candidates.len())]);
                let end = start + 1 + rng.below(6) as u64;
                closeout = Some(Closeout { row, start, end });
                due -= 1;
            }
        }
        out.push(closeout);
        note(batch, &mut intervals, &mut open);
    }
    out
}

/// Builds the distinct query pool and the seeded, skewed query sequence.
fn plan_queries(seed: u64, batches: usize) -> (Vec<Query>, Vec<usize>) {
    let mut rng = Rng::new(sub_seed(seed, 7));
    let persons = permutation(PERSONS, &mut rng);
    let companies = permutation(COMPANIES, &mut rng);
    let person_cdf = zipf_cdf(PERSONS);
    let company_cdf = zipf_cdf(COMPANIES);
    let mut template_cdf = Vec::new();
    let mut acc = 0.0;
    for w in Template::WEIGHTS {
        acc += w as f64;
        template_cdf.push(acc);
    }

    let mut pool: Vec<Query> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut intern = |template: Template, text: String, pool: &mut Vec<Query>| -> usize {
        *index.entry(text.clone()).or_insert_with(|| {
            let query = parse_union_query(&text).expect("generated queries parse");
            pool.push(Query {
                template,
                text,
                query,
            });
            pool.len() - 1
        })
    };
    // One query of every template, so per-template numbers always exist.
    for t in Template::ALL {
        intern(t, query_text(t, 0, 1), &mut pool);
    }
    let mut seq = Vec::with_capacity(batches * QUERIES_PER_BATCH);
    for _ in 0..batches * QUERIES_PER_BATCH {
        let t = Template::ALL[draw(&template_cdf, &mut rng)];
        let person = persons[draw(&person_cdf, &mut rng)];
        let company = companies[draw(&company_cdf, &mut rng)];
        let text = match t {
            Template::Point | Template::Colleagues => query_text(t, person, 0),
            Template::Roster => query_text(t, company, 0),
            Template::Union => {
                let mut other = companies[draw(&company_cdf, &mut rng)];
                while other == company {
                    other = companies[draw(&company_cdf, &mut rng)];
                }
                query_text(t, company, other)
            }
            Template::Scan => query_text(t, 0, 0),
        };
        seq.push(intern(t, text, &mut pool));
    }
    (pool, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(Inputs::generate(7).encoded(), Inputs::generate(7).encoded());
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        assert_ne!(Inputs::generate(7).encoded(), Inputs::generate(8).encoded());
    }

    #[test]
    fn the_stream_has_small_batches_and_a_closeout_per_slot() {
        for seed in [1, 2] {
            let inputs = Inputs::generate(seed);
            assert_eq!(inputs.batches.len(), STREAM_BATCHES);
            for inserts in &inputs.inserts {
                assert!((10..=20).contains(&inserts.total_len()));
            }
            let closeouts = inputs.closeouts.iter().flatten().count();
            assert_eq!(closeouts, STREAM_BATCHES / CLOSEOUT_EVERY, "seed {seed}");
            // Every template occurs, and the mix is skewed towards points.
            let count = |t: Template| {
                inputs
                    .query_seq
                    .iter()
                    .filter(|&&q| inputs.queries[q].template == t)
                    .count()
            };
            assert!(count(Template::Point) > count(Template::Roster));
            assert!(Template::ALL.iter().all(|&t| count(t) > 0));
        }
    }

    #[test]
    fn closeouts_narrow_the_accumulated_source() {
        let inputs = Inputs::generate(3);
        let (i, c) = inputs
            .closeouts
            .iter()
            .enumerate()
            .find_map(|(i, c)| c.as_ref().map(|c| (i, c)))
            .expect("a close-out");
        let e = e_relation(&inputs.mapping);
        let intervals = |applied: usize, with: bool| -> Vec<Interval> {
            inputs
                .accumulated(applied, with)
                .facts(e)
                .iter()
                .filter(|f| f.data == c.row)
                .map(|f| f.interval)
                .collect()
        };
        assert_eq!(intervals(i, true), vec![Interval::from(c.start)]);
        assert_eq!(intervals(i + 1, true), vec![Interval::new(c.start, c.end)]);
        assert_eq!(intervals(i + 1, false), vec![Interval::from(c.start)]);
    }
}

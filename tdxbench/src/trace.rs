//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records a name, start and end (ns since the tracer started), the
//! span that contains it and the operation it belongs to. Spans stay in
//! memory while the run measures and are written out as JSON lines at the
//! end. A span's self time is its duration minus the time its child spans
//! cover; children never overlap, because the benchmark is one thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per operation, the summed self time (ms) of the spans named `name`.
    pub fn per_op_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let own = self.self_ns();
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += ns as f64 / 1e6;
            }
        }
        by_op
    }

    /// Writes every span as one JSON object per line, after `header`.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer {
            spans: vec![
                Span {
                    name: "op",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                    op: 1,
                },
                Span {
                    name: "layer",
                    start_ns: 10,
                    end_ns: 40,
                    parent: Some(0),
                    op: 1,
                },
                Span {
                    name: "layer",
                    start_ns: 50,
                    end_ns: 70,
                    parent: Some(0),
                    op: 1,
                },
                Span {
                    name: "layer",
                    start_ns: 200,
                    end_ns: 205,
                    parent: None,
                    op: 2,
                },
            ],
            ..Tracer::default()
        };
        assert_eq!(t.self_ns(), vec![50, 30, 20, 5]);
        let layer: Vec<f64> = t.per_op_ms("layer").into_values().collect();
        assert_eq!(layer, vec![50e-6, 5e-6]);
        assert_eq!(
            t.per_op_ms("op").into_values().collect::<Vec<_>>(),
            vec![50e-6]
        );
    }
}

//! Endpoint collection and interval fragmentation.
//!
//! Both normalization algorithms of the paper (Section 4.2) fragment concrete
//! facts at *distinct start and end points*: the naïve algorithm at every
//! endpoint of the instance, Algorithm 1 only at the endpoints of the facts
//! in the same merged group `Δ`. [`Breakpoints`] is that sorted endpoint
//! sequence (the paper's `TP_Δ`), and [`fragment_interval`] cuts one interval
//! at the breakpoints falling strictly inside it (the paper's `TP_f`).

use crate::interval::Interval;
use crate::point::{Endpoint, TimePoint};

/// A sorted, deduplicated sequence of time points used as cutting positions.
///
/// Corresponds to `TP_Δ = ⟨tp₁, …, tp_m⟩` in Algorithm 1: the distinct start
/// points and (finite) end points of a set of facts. `∞` never appears — an
/// unbounded fact simply keeps an unbounded last fragment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakpoints {
    points: Vec<TimePoint>,
}

impl Breakpoints {
    /// An empty cutting set.
    pub fn new() -> Self {
        Breakpoints { points: Vec::new() }
    }

    /// Collects the endpoints of the given intervals.
    pub fn from_intervals<'a, I: IntoIterator<Item = &'a Interval>>(iter: I) -> Self {
        let mut points = Vec::new();
        for iv in iter {
            points.push(iv.start());
            if let Endpoint::Fin(e) = iv.end() {
                points.push(e);
            }
        }
        points.sort_unstable();
        points.dedup();
        Breakpoints { points }
    }

    /// Builds a cutting set from already-collected points (e.g. the
    /// incrementally maintained endpoint set of an
    /// [`IntervalIndex`](crate::index::IntervalIndex)). The input need not
    /// be sorted or deduplicated.
    pub fn from_points<I: IntoIterator<Item = TimePoint>>(iter: I) -> Self {
        let mut points: Vec<TimePoint> = iter.into_iter().collect();
        points.sort_unstable();
        points.dedup();
        Breakpoints { points }
    }

    /// Adds the endpoints of one more interval.
    pub fn add_interval(&mut self, iv: &Interval) {
        self.points.push(iv.start());
        if let Endpoint::Fin(e) = iv.end() {
            self.points.push(e);
        }
        self.points.sort_unstable();
        self.points.dedup();
    }

    /// The sorted cutting positions.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Number of distinct positions.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no position has been collected.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The cutting positions strictly inside `iv` (excluding its own start;
    /// an endpoint equal to `iv.start()` or `≥ iv.end()` does not cut).
    pub fn interior_of<'a>(&'a self, iv: &Interval) -> impl Iterator<Item = TimePoint> + 'a {
        let lo = self.points.partition_point(|&p| p <= iv.start());
        let end = iv.end();
        self.points[lo..]
            .iter()
            .copied()
            .take_while(move |&p| Endpoint::Fin(p) < end)
    }

    /// Selects at most `parts − 1` evenly spaced cutting positions — the
    /// *coarse* breakpoints that split the timeline into roughly `parts`
    /// ranges with a similar number of distinct endpoints each. This is how
    /// the partitioned chase picks worker partitions: cutting at existing
    /// endpoints keeps every interval's fragments aligned with the ranges,
    /// and even endpoint counts stand in for even fact counts.
    pub fn coarsen(&self, parts: usize) -> Breakpoints {
        if parts <= 1 || self.points.len() <= 1 {
            return Breakpoints::new();
        }
        let cuts = (parts - 1).min(self.points.len() - 1);
        let mut points = Vec::with_capacity(cuts);
        // Skip index 0: a boundary at (or below) every interval's start
        // would create an empty leading range.
        for k in 1..=cuts {
            let idx = (k * self.points.len()) / (cuts + 1);
            points.push(self.points[idx.clamp(1, self.points.len() - 1)]);
        }
        points.dedup();
        Breakpoints { points }
    }
}

/// A partition of the timeline `[0, ∞)` into consecutive half-open ranges
/// cut at fixed boundary points: `[0, b₁), [b₁, b₂), …, [b_k, ∞)`.
///
/// This is the work-distribution structure of the partitioned chase: facts
/// whose intervals lie within one range can be matched, merged and
/// re-fragmented by that range's worker without coordination, while facts
/// crossing a boundary are the (small) reconciliation set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelinePartition {
    /// Strictly increasing, non-zero boundary points.
    boundaries: Vec<TimePoint>,
}

impl TimelinePartition {
    /// A partition cut at the given breakpoints (a point at 0 is dropped —
    /// the leading range always starts at 0).
    pub fn new(bps: &Breakpoints) -> TimelinePartition {
        TimelinePartition {
            boundaries: bps.points().iter().copied().filter(|&p| p > 0).collect(),
        }
    }

    /// The trivial partition: one range covering the whole timeline.
    pub fn whole() -> TimelinePartition {
        TimelinePartition {
            boundaries: Vec::new(),
        }
    }

    /// Number of ranges (`boundaries + 1`, always ≥ 1).
    pub fn len(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Whether this is the trivial single-range partition.
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// The boundary points.
    pub fn boundaries(&self) -> &[TimePoint] {
        &self.boundaries
    }

    /// The ranges, in timeline order.
    pub fn ranges(&self) -> Vec<Interval> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = 0u64;
        for &b in &self.boundaries {
            out.push(Interval::new(cur, b));
            cur = b;
        }
        out.push(Interval::from(cur));
        out
    }

    /// Index of the range containing time point `t`.
    pub fn part_of(&self, t: TimePoint) -> usize {
        self.boundaries.partition_point(|&b| b <= t)
    }

    /// Indices `lo..=hi` of the ranges `iv` overlaps.
    pub fn parts_overlapping(&self, iv: &Interval) -> (usize, usize) {
        let lo = self.part_of(iv.start());
        let hi = match iv.end() {
            Endpoint::Fin(e) => self.part_of(e - 1),
            Endpoint::Inf => self.boundaries.len(),
        };
        (lo, hi)
    }

    /// The server owning range `part` when the partition's ranges are
    /// distributed over `servers` partition servers as contiguous,
    /// balanced blocks: server `s` owns the ranges `p` with
    /// `p * servers / len` equal to `s`, so block sizes differ by at most
    /// one and the assignment depends only on `(len, servers)` — never on
    /// which server happens to ask. Contiguity matters for the distributed
    /// chase: every fact lives on the owner of the range its interval
    /// starts in, so a server holds an ascending run of start points, and
    /// concatenating the servers' enumerations in server order yields the
    /// ascending interval order a single process would produce.
    pub fn server_of(&self, part: usize, servers: usize) -> usize {
        assert!(part < self.len(), "partition index out of range");
        if servers <= 1 {
            return 0;
        }
        (part * servers.min(self.len())) / self.len()
    }

    /// How unevenly `points` distribute over the ranges: the largest
    /// per-range point count divided by the ideal (total / ranges). `1.0`
    /// is perfectly balanced; values well above it mean the endpoint
    /// histogram has shifted since the partition was cut — the signal an
    /// incremental session uses to re-coarsen its timeline partition.
    pub fn imbalance(&self, points: &Breakpoints) -> f64 {
        if self.len() <= 1 || points.is_empty() {
            return 1.0;
        }
        let mut counts = vec![0usize; self.len()];
        for &p in points.points() {
            counts[self.part_of(p)] += 1;
        }
        let ideal = points.len() as f64 / self.len() as f64;
        counts.iter().copied().max().unwrap_or(0) as f64 / ideal.max(1.0)
    }
}

/// Fragments `iv` at every breakpoint strictly inside it.
///
/// This is the `frg` step of Algorithm 1: the fact's interval `[s, e)` is cut
/// into `k` consecutive sub-intervals whose endpoints are the sub-sequence of
/// `TP_Δ` between `s` and `e`. The fragments are returned in ascending order,
/// are pairwise adjacent, and their union is exactly `iv`. When no breakpoint
/// falls inside, the single original interval is returned.
pub fn fragment_interval(iv: &Interval, bps: &Breakpoints) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cur = iv.start();
    for p in bps.interior_of(iv) {
        // `interior_of` guarantees cur < p < iv.end().
        out.push(Interval::new(cur, p));
        cur = p;
    }
    match iv.end() {
        Endpoint::Fin(e) => out.push(Interval::new(cur, e)),
        Endpoint::Inf => out.push(Interval::from(cur)),
    }
    out
}

/// Partitions the whole timeline `[0, ∞)` into *elementary epochs* induced by
/// the breakpoints: `[0, p₁), [p₁, p₂), …, [p_k, ∞)`.
///
/// Every interval whose endpoints are all drawn from `bps ∪ {0, ∞}` is a
/// union of consecutive epochs; instances whose facts share those endpoints
/// are snapshot-uniform inside each epoch. This is how the crate above
/// finitely represents the paper's infinite abstract instances.
pub fn epochs_over_timeline(bps: &Breakpoints) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cur = 0u64;
    for &p in bps.points() {
        if p > cur {
            out.push(Interval::new(cur, p));
            cur = p;
        }
    }
    out.push(Interval::from(cur));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn imbalance_detects_a_shifted_histogram() {
        let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
        // Evenly spread endpoints: perfectly balanced.
        let even = Breakpoints::from_points([5, 15, 25, 35]);
        assert!((tp.imbalance(&even) - 1.0).abs() < 1e-9);
        // Everything piled into the last range: maximally skewed.
        let skewed = Breakpoints::from_points([31, 32, 33, 34, 35, 36, 37, 38]);
        assert!(tp.imbalance(&skewed) > 3.0);
        // Degenerate cases report balance.
        assert!((TimelinePartition::whole().imbalance(&even) - 1.0).abs() < 1e-9);
        assert!((tp.imbalance(&Breakpoints::new()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collects_sorted_distinct_endpoints() {
        // Facts of the paper's Example 14, group Δ1 = {f1, f2, f3}.
        let f1 = iv(5, 11);
        let f2 = iv(8, 15);
        let f3 = iv(7, 10);
        let bps = Breakpoints::from_intervals([&f1, &f2, &f3]);
        assert_eq!(bps.points(), &[5, 7, 8, 10, 11, 15]);
    }

    #[test]
    fn infinite_ends_are_not_breakpoints() {
        let f4 = iv(20, 25);
        let f5 = Interval::from(18);
        let bps = Breakpoints::from_intervals([&f4, &f5]);
        assert_eq!(bps.points(), &[18, 20, 25]);
    }

    #[test]
    fn fragment_matches_example_14() {
        // f1 : R+(a, [5,11)) fragments to [5,7), [7,8), [8,10), [10,11).
        let bps = Breakpoints::from_intervals([&iv(5, 11), &iv(8, 15), &iv(7, 10)]);
        let frags = fragment_interval(&iv(5, 11), &bps);
        assert_eq!(frags, vec![iv(5, 7), iv(7, 8), iv(8, 10), iv(10, 11)]);
        // f5 : S+(b, [18,∞)) fragments to [18,20), [20,25), [25,∞).
        let bps = Breakpoints::from_intervals([&iv(20, 25), &Interval::from(18)]);
        let frags = fragment_interval(&Interval::from(18), &bps);
        assert_eq!(frags, vec![iv(18, 20), iv(20, 25), Interval::from(25)]);
    }

    #[test]
    fn fragment_without_interior_breakpoints_is_identity() {
        let bps = Breakpoints::from_intervals([&iv(0, 2), &iv(20, 30)]);
        assert_eq!(fragment_interval(&iv(5, 10), &bps), vec![iv(5, 10)]);
        // Breakpoints equal to the interval's own endpoints do not cut.
        let bps = Breakpoints::from_intervals([&iv(5, 10)]);
        assert_eq!(fragment_interval(&iv(5, 10), &bps), vec![iv(5, 10)]);
    }

    #[test]
    fn fragments_tile_the_original() {
        let bps = Breakpoints::from_intervals([&iv(1, 4), &iv(3, 9), &iv(6, 7)]);
        for target in [iv(0, 12), iv(2, 8), iv(3, 4)] {
            let frags = fragment_interval(&target, &bps);
            assert_eq!(frags.first().unwrap().start(), target.start());
            assert_eq!(frags.last().unwrap().end(), target.end());
            for w in frags.windows(2) {
                assert_eq!(Endpoint::Fin(w[1].start()), w[0].end());
            }
        }
    }

    #[test]
    fn interior_of_respects_bounds() {
        let bps = Breakpoints::from_intervals([&iv(0, 5), &iv(5, 10), &iv(10, 15)]);
        // points: 0,5,10,15
        let inside: Vec<_> = bps.interior_of(&iv(5, 15)).collect();
        assert_eq!(inside, vec![10]);
        let inside: Vec<_> = bps.interior_of(&Interval::from(0)).collect();
        assert_eq!(inside, vec![5, 10, 15]);
    }

    #[test]
    fn epochs_partition_timeline() {
        let bps = Breakpoints::from_intervals([&iv(2012, 2014), &Interval::from(2013)]);
        // points: 2012, 2013, 2014
        let epochs = epochs_over_timeline(&bps);
        assert_eq!(
            epochs,
            vec![
                iv(0, 2012),
                iv(2012, 2013),
                iv(2013, 2014),
                Interval::from(2014)
            ]
        );
        // Breakpoint at 0 does not create an empty leading epoch.
        let bps = Breakpoints::from_intervals([&iv(0, 3)]);
        assert_eq!(
            epochs_over_timeline(&bps),
            vec![iv(0, 3), Interval::from(3)]
        );
        assert_eq!(
            epochs_over_timeline(&Breakpoints::new()),
            vec![Interval::all()]
        );
    }

    #[test]
    fn coarsen_picks_even_cuts() {
        let bps = Breakpoints::from_points(0..=100);
        let coarse = Breakpoints::coarsen(&bps, 4);
        assert_eq!(coarse.points(), &[25, 50, 75]);
        // Fewer distinct points than requested parts: every interior point.
        let bps = Breakpoints::from_points([3, 9]);
        assert_eq!(Breakpoints::coarsen(&bps, 8).points(), &[9]);
        // Degenerate cases.
        assert!(Breakpoints::coarsen(&bps, 1).is_empty());
        assert!(Breakpoints::coarsen(&Breakpoints::new(), 4).is_empty());
        assert!(Breakpoints::coarsen(&Breakpoints::from_points([7]), 4).is_empty());
    }

    #[test]
    fn timeline_partition_lookup() {
        let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20]));
        assert_eq!(tp.len(), 3);
        assert_eq!(tp.ranges(), vec![iv(0, 10), iv(10, 20), Interval::from(20)]);
        assert_eq!(tp.part_of(0), 0);
        assert_eq!(tp.part_of(9), 0);
        assert_eq!(tp.part_of(10), 1);
        assert_eq!(tp.part_of(19), 1);
        assert_eq!(tp.part_of(20), 2);
        assert_eq!(tp.part_of(1000), 2);
        // Range membership by overlap.
        assert_eq!(tp.parts_overlapping(&iv(2, 5)), (0, 0));
        assert_eq!(tp.parts_overlapping(&iv(5, 15)), (0, 1));
        assert_eq!(tp.parts_overlapping(&iv(10, 20)), (1, 1));
        assert_eq!(tp.parts_overlapping(&Interval::from(3)), (0, 2));
        // A boundary at 0 is dropped.
        let tp = TimelinePartition::new(&Breakpoints::from_points([0, 4]));
        assert_eq!(tp.len(), 2);
        // The trivial partition.
        let tp = TimelinePartition::whole();
        assert!(tp.is_empty());
        assert_eq!(tp.ranges(), vec![Interval::all()]);
        assert_eq!(tp.parts_overlapping(&iv(3, 9)), (0, 0));
    }

    #[test]
    fn partition_ranges_tile_the_timeline() {
        let tp = TimelinePartition::new(&Breakpoints::from_points([7, 31, 64]));
        let ranges = tp.ranges();
        assert_eq!(ranges.first().unwrap().start(), 0);
        assert!(ranges.last().unwrap().is_unbounded());
        for w in ranges.windows(2) {
            assert_eq!(Endpoint::Fin(w[1].start()), w[0].end());
        }
        for t in [0u64, 6, 7, 30, 31, 63, 64, 1000] {
            let p = tp.part_of(t);
            assert!(ranges[p].contains(t), "point {t} in range {p}");
        }
    }

    #[test]
    fn server_assignment_is_contiguous_and_balanced() {
        for (parts, servers) in [(1usize, 1usize), (4, 2), (5, 3), (7, 3), (3, 8), (16, 4)] {
            let bps = Breakpoints::from_points((1..parts as u64).map(|k| 10 * k));
            let tp = TimelinePartition::new(&bps);
            assert_eq!(tp.len(), parts);
            let assign: Vec<usize> = (0..parts).map(|p| tp.server_of(p, servers)).collect();
            assert_eq!(assign.len(), parts);
            // Monotone (contiguous blocks), starting at server 0.
            assert_eq!(assign[0], 0);
            for w in assign.windows(2) {
                assert!(w[1] == w[0] || w[1] == w[0] + 1, "{assign:?}");
            }
            // Every server in 0..min(servers, parts) owns something, and
            // block sizes differ by at most one.
            let used = servers.min(parts);
            let mut counts = vec![0usize; used];
            for &s in &assign {
                counts[s] += 1;
            }
            assert!(counts.iter().all(|&c| c > 0), "{assign:?}");
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{assign:?}");
        }
    }

    #[test]
    fn unbounded_intervals_span_the_server_tail() {
        // An unbounded interval crosses every boundary after its start, so
        // its ranges run to the last one, which the last server owns; the
        // fact itself lives only on the owner of its start range.
        let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
        let unbounded = Interval::from(15);
        assert!(unbounded.is_unbounded());
        assert_eq!(tp.parts_overlapping(&unbounded), (1, 3));
        for servers in [1usize, 2, 3, 4] {
            let last = tp.server_of(tp.len() - 1, servers);
            assert_eq!(last, servers.min(tp.len()) - 1, "servers={servers}");
            assert!(tp.server_of(tp.part_of(unbounded.start()), servers) <= last);
        }
        // An unbounded interval starting at 0 spans every range; its owner
        // is server 0.
        let whole = Interval::from(0);
        assert_eq!(tp.parts_overlapping(&whole), (0, tp.len() - 1));
        assert_eq!(tp.server_of(tp.part_of(whole.start()), 3), 0);
    }

    #[test]
    fn add_interval_incremental() {
        let mut bps = Breakpoints::new();
        bps.add_interval(&iv(3, 7));
        bps.add_interval(&Interval::from(5));
        assert_eq!(bps.points(), &[3, 5, 7]);
        assert_eq!(bps.len(), 3);
        assert!(!bps.is_empty());
    }
}

//! The metric vocabulary and the run-time metrics registry.
//!
//! Every count a rank keeps is a slot of one array indexed by [`Counter`]:
//! the registry on the rank's [`crate::Comm`] holds the running totals,
//! [`crate::StepRecord::counts`] their per-step deltas, and reports read
//! either by variant or by dotted name. Subsystems record through the
//! registry instead of keeping private tallies; after a run, per-rank
//! registries come back in [`crate::RankOutput::metrics`] and are folded with
//! [`MetricsRegistry::aggregate`]. The Algorithm 2 balancer reads its
//! service-load input `I(p)` from [`Counter::ConnServiced`].

use crate::stats::{Phase, NUM_PHASES};

/// One closed list per metric kind: variant, dotted name, doc. `ALL` is the
/// declaration order, which is also the array order.
macro_rules! vocabulary {
    ($(#[$enum_meta:meta])* $kind:ident { $($(#[$meta:meta])* $variant:ident = $name:literal,)* }) => {
        $(#[$enum_meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $kind { $($(#[$meta])* $variant,)* }

        impl $kind {
            pub const ALL: [$kind; [$($name),*].len()] = [$($kind::$variant),*];
            pub const COUNT: usize = Self::ALL.len();

            /// The dotted name reports and docs use.
            pub const fn name(self) -> &'static str {
                match self { $($kind::$variant => $name,)* }
            }

            /// The variant a dotted name stands for.
            pub fn from_name(name: &str) -> Option<$kind> {
                Self::ALL.into_iter().find(|k| k.name() == name)
            }

            /// Every variant in name order (the order reports print).
            pub fn by_name() -> [$kind; Self::COUNT] {
                let mut all = Self::ALL;
                all.sort_unstable_by_key(|k| k.name());
                all
            }
        }
    };
}

vocabulary! {
    /// Monotonic counters. The per-phase `comm.msgs.*`, `comm.bytes.*` and
    /// `flops.*` rows are in [`Phase`] order so [`Counter::msgs_in`],
    /// [`Counter::bytes_in`] and [`Counter::flops_in`] are index arithmetic.
    Counter {
        /// IGBPs this rank identified and searched donors for, summed over
        /// steps.
        ConnIgbps = "conn.igbps",
        /// Search-request points serviced by this rank (the paper's `I(p)`).
        ConnServiced = "conn.serviced",
        /// Requests answered from a warm nth-level-restart hint.
        ConnCacheHit = "conn.cache.hit",
        /// Warm hints that missed and fell back to the hierarchy.
        ConnCacheMiss = "conn.cache.miss",
        /// Request points sent after an IGBP's first: to the other candidate
        /// ranks of its hierarchy level, then to every later level's.
        ConnForwards = "conn.forwards",
        /// Stencil-walk steps performed while servicing donor searches.
        ConnWalkSteps = "conn.walk_steps",
        /// Of `conn.walk_steps`, the steps of searches that returned no
        /// donor: useful / attempted walk work is `1 - miss / total`.
        ConnWalkStepsMiss = "conn.walk_steps.miss",
        /// Donor searches an inverse map's fine occupancy mask answered
        /// `Miss` without a walk.
        ConnPrefilterRejects = "conn.prefilter.rejects",
        /// Listed cells inverted to prove a search's answer — a failed walk's
        /// miss, a polar-band donor's uniqueness — from an inverse map's cell
        /// lists instead of re-walking. Not walk steps.
        ConnCandidatesTested = "conn.candidates.tested",
        /// Searches whose candidates held the point in cells apart (the axis
        /// of a revolution shell) and went to the canonical chain.
        ConnChainFallbacks = "conn.chain.fallbacks",
        /// Donors held under relaxed acceptance (stencil touching holes) at
        /// the end of a step, summed over steps.
        ConnDonorsRelaxed = "conn.donors.relaxed",
        /// IGBPs left unresolved (orphans) summed over steps.
        ConnOrphans = "conn.orphans",
        /// Donor-search protocol rounds summed over steps.
        ConnRounds = "conn.rounds",
        /// Inverse maps rebuilt from scratch (full lattice builds).
        ConnInvmapBuild = "conn.invmap.build",
        /// Inverse maps advanced incrementally under small rigid motion
        /// (pose composition instead of a full rebuild).
        ConnInvmapIncr = "conn.invmap.incr",
        /// Repartitions executed by the dynamic balancer.
        LbRepartitions = "lb.repartitions",
        /// Collectives entered by this rank.
        CommCollectives = "comm.collectives",
        /// Messages sent while the flow phase was active.
        CommMsgsFlow = "comm.msgs.flow",
        /// Messages sent while the connectivity phase was active.
        CommMsgsConnectivity = "comm.msgs.connectivity",
        /// Messages sent while the motion phase was active.
        CommMsgsMotion = "comm.msgs.motion",
        /// Messages sent while the balance phase was active.
        CommMsgsBalance = "comm.msgs.balance",
        /// Messages sent outside the four timestep phases.
        CommMsgsOther = "comm.msgs.other",
        /// Payload bytes sent while the flow phase was active.
        CommBytesFlow = "comm.bytes.flow",
        /// Payload bytes sent while the connectivity phase was active.
        CommBytesConnectivity = "comm.bytes.connectivity",
        /// Payload bytes sent while the motion phase was active.
        CommBytesMotion = "comm.bytes.motion",
        /// Payload bytes sent while the balance phase was active.
        CommBytesBalance = "comm.bytes.balance",
        /// Payload bytes sent outside the four timestep phases.
        CommBytesOther = "comm.bytes.other",
        /// Flops charged while the flow phase was active.
        FlopsFlow = "flops.flow",
        /// Flops charged while the connectivity phase was active.
        FlopsConnectivity = "flops.connectivity",
        /// Flops charged while the motion phase was active.
        FlopsMotion = "flops.motion",
        /// Flops charged while the balance phase was active.
        FlopsBalance = "flops.balance",
        /// Flops charged outside the four timestep phases.
        FlopsOther = "flops.other",
    }
}

vocabulary! {
    /// Histograms.
    Hist {
        /// Measured `f(p) = I(p)/mean` at each balance check.
        LbFRatio = "lb.f_ratio",
        /// Receive stall (virtual seconds the clock jumped forward waiting
        /// for a message to arrive) — pipeline stall time.
        CommRecvStall = "comm.recv.stall_s",
    }
}

impl Counter {
    /// Messages sent while `phase` was active.
    pub const fn msgs_in(phase: Phase) -> Counter {
        Counter::ALL[Counter::CommMsgsFlow as usize + phase as usize]
    }

    /// Payload bytes sent while `phase` was active.
    pub const fn bytes_in(phase: Phase) -> Counter {
        Counter::ALL[Counter::CommBytesFlow as usize + phase as usize]
    }

    /// Flops charged while `phase` was active.
    pub const fn flops_in(phase: Phase) -> Counter {
        Counter::ALL[Counter::FlopsFlow as usize + phase as usize]
    }
}

/// A rank's (or a step's, or a run's) value of every [`Counter`].
pub type Counts = [u64; Counter::COUNT];

/// Messages / payload bytes sent in all phases together.
pub fn traffic(counts: &Counts) -> (u64, u64) {
    let sum = |first: Counter| counts[first as usize..][..NUM_PHASES].iter().sum();
    (sum(Counter::CommMsgsFlow), sum(Counter::CommBytesFlow))
}

/// Warm-restart hit rate in `counts`: hits / (hits + misses), or `None` when
/// the cache was never consulted.
pub fn cache_hit_rate(counts: &Counts) -> Option<f64> {
    let h = counts[Counter::ConnCacheHit as usize];
    let m = counts[Counter::ConnCacheMiss as usize];
    (h + m > 0).then(|| h as f64 / (h + m) as f64)
}

/// Buckets per decade of the fixed log-spaced quantile grid.
const BUCKETS_PER_DECADE: usize = 4;
/// Smallest finite bucket boundary is 10^MIN_EXP; everything at or below it
/// lands in the underflow bucket.
const MIN_EXP: i32 = -12;
/// Decades covered by the finite buckets: [1e-12, 1e9).
const DECADES: usize = 21;
/// Finite buckets plus one underflow (index 0) and one overflow (last).
const NUM_BUCKETS: usize = DECADES * BUCKETS_PER_DECADE + 2;

/// Streaming histogram summary: count / sum / min / max plus fixed
/// log-spaced bucket counts for deterministic quantiles (p50/p95/p99).
///
/// The bucket grid is *fixed* (4 buckets per decade over [1e-12, 1e9), with
/// underflow/overflow buckets), so merging is pure integer addition: the
/// aggregate — and every quantile read from it — is byte-identical no
/// matter the order ranks are folded in. min/max/mean alone hide exactly
/// the f(p) tail the dynamic balancer triggers on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    counts: [u32; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            counts: [0; NUM_BUCKETS],
        }
    }
}

/// Bucket index of an observation on the fixed grid.
fn bucket_of(v: f64) -> usize {
    let lo = 10.0f64.powi(MIN_EXP);
    // NaN and anything <= lo (including <= 0) land in the underflow bucket.
    if v.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let hi_exp = MIN_EXP + DECADES as i32;
    if v >= 10.0f64.powi(hi_exp) {
        return NUM_BUCKETS - 1; // overflow
    }
    let idx = ((v.log10() - MIN_EXP as f64) * BUCKETS_PER_DECADE as f64).floor() as isize;
    (idx.clamp(0, (DECADES * BUCKETS_PER_DECADE) as isize - 1) as usize) + 1
}

impl Histogram {
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.counts[bucket_of(v)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Deterministic quantile estimate (`q` in [0, 1]) off the fixed bucket
    /// grid: the geometric midpoint of the bucket holding the q-th
    /// observation, clamped into `[min, max]`. Resolution is a quarter
    /// decade — coarse but byte-stable across rank orderings and merges.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c as u64;
            if cum >= target {
                if i == 0 {
                    return self.min;
                }
                if i == NUM_BUCKETS - 1 {
                    return self.max;
                }
                let mid_exp = MIN_EXP as f64 + ((i - 1) as f64 + 0.5) / BUCKETS_PER_DECADE as f64;
                return 10.0f64.powf(mid_exp).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// A value of every [`Counter`] and every [`Hist`]. Name-order iteration
/// ([`MetricsRegistry::counters`], [`MetricsRegistry::histograms`]) keeps
/// reports deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRegistry {
    counts: Counts,
    hists: [Histogram; Hist::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry { counts: [0; Counter::COUNT], hists: [Histogram::default(); Hist::COUNT] }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `v`.
    #[inline]
    pub fn add(&mut self, c: Counter, v: u64) {
        self.counts[c as usize] += v;
    }

    /// Current value of `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Every counter's current value, indexed by `Counter as usize`.
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// Current counter value by dotted name (0 for a name outside the
    /// vocabulary).
    pub fn counter(&self, name: &str) -> u64 {
        Counter::from_name(name).map_or(0, |c| self.get(c))
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, h: Hist, v: f64) {
        self.hists[h as usize].record(v);
    }

    /// The histogram of that dotted name, once it holds an observation.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        Hist::from_name(name).map(|h| &self.hists[h as usize]).filter(|h| h.count > 0)
    }

    /// The whole counter vocabulary in name order, zeros included.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::by_name().into_iter().map(|c| (c.name(), self.get(c)))
    }

    /// The histograms that hold an observation, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        Hist::by_name()
            .into_iter()
            .map(|h| (h.name(), &self.hists[h as usize]))
            .filter(|(_, h)| h.count > 0)
    }

    /// Fold `other` into `self` (counters add, histograms merge).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Aggregate per-rank registries into one cross-rank view.
    pub fn aggregate(regs: &[MetricsRegistry]) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for r in regs {
            out.merge_from(r);
        }
        out
    }

    /// Warm-restart hit rate over the registry's lifetime.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        cache_hit_rate(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc(Counter::ConnServiced);
        m.add(Counter::ConnServiced, 41);
        assert_eq!(m.get(Counter::ConnServiced), 42);
        assert_eq!(m.counter("never.touched"), 0);
    }

    #[test]
    fn histogram_summary() {
        let mut m = MetricsRegistry::new();
        m.observe(Hist::CommRecvStall, 1.0);
        m.observe(Hist::CommRecvStall, 3.0);
        let h = m.histogram("comm.recv.stall_s").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn aggregation_sums_ranks() {
        let mut a = MetricsRegistry::new();
        a.add(Counter::ConnServiced, 10);
        a.observe(Hist::LbFRatio, 0.5);
        let mut b = MetricsRegistry::new();
        b.add(Counter::ConnServiced, 30);
        b.add(Counter::ConnOrphans, 2);
        b.observe(Hist::LbFRatio, 1.5);
        let agg = MetricsRegistry::aggregate(&[a, b]);
        assert_eq!(agg.get(Counter::ConnServiced), 40);
        assert_eq!(agg.get(Counter::ConnOrphans), 2);
        let h = agg.histogram("lb.f_ratio").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1.5);
    }

    #[test]
    fn hit_rate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.cache_hit_rate(), None);
        m.add(Counter::ConnCacheHit, 3);
        m.add(Counter::ConnCacheMiss, 1);
        assert_eq!(m.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn quantiles_track_the_tail() {
        let mut h = Histogram::default();
        // 90 small observations and a 10% tail of huge ones: the p50 stays
        // small, p95/p99 see the tail that the mean alone averages away.
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert!(h.p50() >= 0.5 && h.p50() <= 2.0, "p50 = {}", h.p50());
        assert!(h.p95() >= 500.0, "p95 = {}", h.p95());
        assert!(h.p99() >= 500.0, "p99 = {}", h.p99());
        assert_eq!(h.quantile(1.0), h.quantile(0.999));
        // Quantiles never escape the observed range.
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);
    }

    #[test]
    fn quantiles_handle_edge_values() {
        let mut h = Histogram::default();
        assert_eq!(h.p50(), 0.0); // empty
        h.record(0.0); // underflow bucket
        h.record(1.0e20); // overflow bucket
        assert_eq!(h.quantile(0.25), 0.0);
        assert_eq!(h.quantile(1.0), 1.0e20);
    }

    #[test]
    fn aggregation_is_order_independent() {
        let mk = |vals: &[f64]| {
            let mut m = MetricsRegistry::new();
            for &v in vals {
                m.observe(Hist::LbFRatio, v);
            }
            m
        };
        let a = mk(&[0.1, 0.5, 2.0]);
        let b = mk(&[1.5, 7.0]);
        let c = mk(&[0.9]);
        let fwd = MetricsRegistry::aggregate(&[a.clone(), b.clone(), c.clone()]);
        let rev = MetricsRegistry::aggregate(&[c, b, a]);
        let hf = fwd.histogram("lb.f_ratio").unwrap();
        let hr = rev.histogram("lb.f_ratio").unwrap();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(hf.quantile(q).to_bits(), hr.quantile(q).to_bits());
        }
        assert_eq!(hf.min.to_bits(), hr.min.to_bits());
        assert_eq!(hf.max.to_bits(), hr.max.to_bits());
        assert_eq!(hf.count, hr.count);
    }

    #[test]
    fn per_phase_names_are_distinct() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
            assert_eq!(Counter::msgs_in(p).name(), format!("comm.msgs.{}", p.name()));
            assert_eq!(Counter::bytes_in(p).name(), format!("comm.bytes.{}", p.name()));
            assert_eq!(Counter::flops_in(p).name(), format!("flops.{}", p.name()));
        }
        let phases: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(phases.len(), NUM_PHASES);
        let names: std::collections::HashSet<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        assert!(Counter::ALL.iter().enumerate().all(|(i, &c)| c as usize == i));
        assert_eq!(Counter::from_name("conn.walk_steps.miss"), Some(Counter::ConnWalkStepsMiss));
        assert_eq!(Counter::from_name("never.touched"), None);
    }

    /// docs/OBSERVABILITY.md's counter table is the vocabulary: one row per
    /// counter, in `Counter::ALL` order, between its two marker comments.
    #[test]
    fn observability_doc_lists_exactly_the_counter_vocabulary() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let table = doc
            .split("<!-- counter-table:begin -->")
            .nth(1)
            .and_then(|rest| rest.split("<!-- counter-table:end -->").next())
            .expect("counter table markers missing");
        let listed: Vec<&str> =
            table.lines().filter_map(|l| l.strip_prefix("| `")?.split('`').next()).collect();
        let vocabulary: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(listed, vocabulary);
    }
}

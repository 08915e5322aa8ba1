//! Named counters and histograms: the run-time metrics registry.
//!
//! One registry lives on every rank's [`crate::Comm`]; subsystems record
//! into it through well-known names (the consts in [`names`]) instead of
//! keeping private tallies. After a run, per-rank registries come back in
//! [`crate::RankOutput::metrics`] and can be aggregated with
//! [`MetricsRegistry::aggregate`]. The Algorithm 2 balancer reads its
//! service-load input `I(p)` from [`names::CONN_SERVICED`] — the registry is
//! the single source of truth for measured load.

use crate::stats::Phase;
use crate::wire::{intern, Wire, WireError, WireReader};
use std::collections::BTreeMap;

/// Well-known metric names. Counter names are dotted paths; per-phase
/// message counters are resolved with [`msgs_in`] / [`bytes_in`].
pub mod names {
    /// Search-request points serviced by this rank (the paper's `I(p)`).
    pub const CONN_SERVICED: &str = "conn.serviced";
    /// Requests answered from a warm nth-level-restart hint.
    pub const CONN_CACHE_HIT: &str = "conn.cache.hit";
    /// Warm hints that missed and fell back to the hierarchy.
    pub const CONN_CACHE_MISS: &str = "conn.cache.miss";
    /// Request points sent after an IGBP's first: to the other candidate
    /// ranks of its hierarchy level, then to every later level's.
    pub const CONN_FORWARDS: &str = "conn.forwards";
    /// Stencil-walk steps performed while servicing donor searches.
    pub const CONN_WALK_STEPS: &str = "conn.walk_steps";
    /// Of `conn.walk_steps`, the steps of searches that returned no donor:
    /// useful / attempted walk work is `1 - miss / total`.
    pub const CONN_WALK_STEPS_MISS: &str = "conn.walk_steps.miss";
    /// Donor searches an inverse map's fine occupancy mask answered `Miss`
    /// without a walk.
    pub const CONN_PREFILTER_REJECTS: &str = "conn.prefilter.rejects";
    /// Donors held under relaxed acceptance (stencil touching holes) at the
    /// end of a step, summed over steps.
    pub const CONN_DONORS_RELAXED: &str = "conn.donors.relaxed";
    /// IGBPs left unresolved (orphans) summed over steps.
    pub const CONN_ORPHANS: &str = "conn.orphans";
    /// Donor-search protocol rounds summed over steps.
    pub const CONN_ROUNDS: &str = "conn.rounds";
    /// Inverse maps rebuilt from scratch (full lattice builds).
    pub const CONN_INVMAP_BUILDS: &str = "conn.invmap.build";
    /// Inverse maps advanced incrementally under small rigid motion
    /// (pose composition instead of a full rebuild).
    pub const CONN_INVMAP_INCR: &str = "conn.invmap.incr";
    /// Repartitions executed by the dynamic balancer.
    pub const LB_REPARTITIONS: &str = "lb.repartitions";
    /// Collectives entered by this rank.
    pub const COMM_COLLECTIVES: &str = "comm.collectives";
    /// Histogram: measured `f(p) = I(p)/mean` at each balance check.
    pub const LB_F_RATIO: &str = "lb.f_ratio";
    /// Histogram: receive stall (virtual seconds the clock jumped forward
    /// waiting for a message to arrive) — pipeline stall time.
    pub const COMM_RECV_STALL: &str = "comm.recv.stall_s";

    /// Messages sent while the given phase was active.
    pub fn msgs_in(phase: super::Phase) -> &'static str {
        match phase {
            super::Phase::Flow => "comm.msgs.flow",
            super::Phase::Connectivity => "comm.msgs.connectivity",
            super::Phase::Motion => "comm.msgs.motion",
            super::Phase::Balance => "comm.msgs.balance",
            super::Phase::Other => "comm.msgs.other",
        }
    }

    /// Payload bytes sent while the given phase was active.
    pub fn bytes_in(phase: super::Phase) -> &'static str {
        match phase {
            super::Phase::Flow => "comm.bytes.flow",
            super::Phase::Connectivity => "comm.bytes.connectivity",
            super::Phase::Motion => "comm.bytes.motion",
            super::Phase::Balance => "comm.bytes.balance",
            super::Phase::Other => "comm.bytes.other",
        }
    }
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

    /// Dense bucket-count encoding: count/sum/min/max then the fixed grid.
    /// `counts` is private, so the impl lives here rather than in `wire`.
    fn wire_encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.sum.encode(buf);
        self.min.encode(buf);
        self.max.encode(buf);
        for c in &self.counts {
            c.encode(buf);
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut h = Histogram {
            count: u64::decode(r)?,
            sum: f64::decode(r)?,
            min: f64::decode(r)?,
            max: f64::decode(r)?,
            counts: [0; NUM_BUCKETS],
        };
        for c in h.counts.iter_mut() {
            *c = u32::decode(r)?;
        }
        Ok(h)
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

/// A set of named counters and histograms. Iteration order is the name
/// order (`BTreeMap`), so reports are deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment a counter by `v`.
    #[inline]
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().record(v);
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self` (counters add, histograms merge).
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
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

    /// Warm-restart hit rate: hits / (hits + misses), or `None` when the
    /// cache was never consulted.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let h = self.counter(names::CONN_CACHE_HIT);
        let m = self.counter(names::CONN_CACHE_MISS);
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }
}

impl Wire for Histogram {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.wire_encode(buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Histogram::wire_decode(r)
    }
}

// Registries return from child processes inside `RankOutput`; metric names
// are a fixed vocabulary of `&'static str`, re-interned on decode.
impl Wire for MetricsRegistry {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.counters.len() as u64).to_le_bytes());
        for (&k, &v) in &self.counters {
            k.to_string().encode(buf);
            v.encode(buf);
        }
        buf.extend_from_slice(&(self.histograms.len() as u64).to_le_bytes());
        for (&k, h) in &self.histograms {
            k.to_string().encode(buf);
            h.encode(buf);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut m = MetricsRegistry::new();
        let nc = r.len_prefix()?;
        for _ in 0..nc {
            let k = intern(&String::decode(r)?);
            let v = u64::decode(r)?;
            m.counters.insert(k, v);
        }
        let nh = r.len_prefix()?;
        for _ in 0..nh {
            let k = intern(&String::decode(r)?);
            let h = Histogram::decode(r)?;
            m.histograms.insert(k, h);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_wire_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.add(names::CONN_SERVICED, 42);
        m.add(names::CONN_ORPHANS, 7);
        m.observe(names::LB_F_RATIO, 0.5);
        m.observe(names::LB_F_RATIO, 123.456);
        m.observe(names::COMM_RECV_STALL, 1.0e-9);
        let back = MetricsRegistry::from_wire_bytes(&m.to_wire_bytes()).unwrap();
        assert_eq!(back.counter(names::CONN_SERVICED), 42);
        assert_eq!(back.counter(names::CONN_ORPHANS), 7);
        let (ha, hb) =
            (m.histogram(names::LB_F_RATIO).unwrap(), back.histogram(names::LB_F_RATIO).unwrap());
        assert_eq!(ha, hb);
        assert_eq!(
            back.histogram(names::COMM_RECV_STALL).unwrap().sum.to_bits(),
            1.0e-9f64.to_bits()
        );
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc(names::CONN_SERVICED);
        m.add(names::CONN_SERVICED, 41);
        assert_eq!(m.counter(names::CONN_SERVICED), 42);
        assert_eq!(m.counter("never.touched"), 0);
    }

    #[test]
    fn histogram_summary() {
        let mut m = MetricsRegistry::new();
        m.observe(names::COMM_RECV_STALL, 1.0);
        m.observe(names::COMM_RECV_STALL, 3.0);
        let h = m.histogram(names::COMM_RECV_STALL).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn aggregation_sums_ranks() {
        let mut a = MetricsRegistry::new();
        a.add(names::CONN_SERVICED, 10);
        a.observe(names::LB_F_RATIO, 0.5);
        let mut b = MetricsRegistry::new();
        b.add(names::CONN_SERVICED, 30);
        b.add(names::CONN_ORPHANS, 2);
        b.observe(names::LB_F_RATIO, 1.5);
        let agg = MetricsRegistry::aggregate(&[a, b]);
        assert_eq!(agg.counter(names::CONN_SERVICED), 40);
        assert_eq!(agg.counter(names::CONN_ORPHANS), 2);
        let h = agg.histogram(names::LB_F_RATIO).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1.5);
    }

    #[test]
    fn hit_rate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.cache_hit_rate(), None);
        m.add(names::CONN_CACHE_HIT, 3);
        m.add(names::CONN_CACHE_MISS, 1);
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
                m.observe(names::LB_F_RATIO, v);
            }
            m
        };
        let a = mk(&[0.1, 0.5, 2.0]);
        let b = mk(&[1.5, 7.0]);
        let c = mk(&[0.9]);
        let fwd = MetricsRegistry::aggregate(&[a.clone(), b.clone(), c.clone()]);
        let rev = MetricsRegistry::aggregate(&[c, b, a]);
        let hf = fwd.histogram(names::LB_F_RATIO).unwrap();
        let hr = rev.histogram(names::LB_F_RATIO).unwrap();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(hf.quantile(q).to_bits(), hr.quantile(q).to_bits());
        }
        assert_eq!(hf.min.to_bits(), hr.min.to_bits());
        assert_eq!(hf.max.to_bits(), hr.max.to_bits());
        assert_eq!(hf.count, hr.count);
    }

    #[test]
    fn per_phase_names_are_distinct() {
        use crate::stats::Phase::*;
        let all = [Flow, Connectivity, Motion, Balance, Other];
        let mut seen = std::collections::HashSet::new();
        for p in all {
            assert!(seen.insert(names::msgs_in(p)));
            assert!(seen.insert(names::bytes_in(p)));
        }
    }
}

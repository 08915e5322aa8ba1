//! Machine models: deterministic virtual-time cost models for the machines
//! the paper measured on.
//!
//! The paper's results are *cost-structure* results (speedups, Mflops/node,
//! % time in the connectivity solution). To reproduce them on modern
//! hardware, every compute kernel reports the floating-point work it did and
//! every message reports its size; a machine model converts work and
//! communication into seconds of virtual time the way the 1997 machines did:
//!
//! * per-node sustained flop rate, with a work-class efficiency (structured
//!   sweeps stream well; donor searches chase pointers and sustain less) and
//!   a cache term (the paper attributes its super-scalar speedups to loop
//!   working sets dropping into cache as subdomains shrink),
//! * interconnect latency and bandwidth (SP2: 40 MB/s switch; SP: 110 MB/s),
//! * log₂(P) barrier/collective scaling.

/// Classification of compute work for the sustained-rate model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkClass {
    /// Structured-grid sweeps (flow solver): long unit-stride loops.
    Flow = 0,
    /// Donor searches and hole cutting: short, branchy, indirect.
    Search = 1,
    /// Everything else (motion, bookkeeping).
    Other = 2,
}

/// Simple cache-performance model: the effective rate is multiplied by a
/// factor that rises as the per-rank working set falls toward the cache size.
///
/// `factor(ws) = low + (high - low) / (1 + (ws / cache_bytes)^2)`
///
/// so `ws << cache` gives `high` (e.g. 1.15: the paper's super-scalar
/// speedups), `ws == cache` gives the midpoint, and `ws >> cache` tends to
/// `low` (memory-bound).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CacheModel {
    pub cache_bytes: f64,
    pub low: f64,
    pub high: f64,
}

impl CacheModel {
    pub fn factor(&self, working_set_bytes: f64) -> f64 {
        if working_set_bytes <= 0.0 {
            return self.high;
        }
        let r = working_set_bytes / self.cache_bytes;
        self.low + (self.high - self.low) / (1.0 + r * r)
    }

    /// A model with no cache effect (factor 1 everywhere).
    pub const FLAT: CacheModel = CacheModel { cache_bytes: 1.0, low: 1.0, high: 1.0 };
}

/// A deterministic virtual-time cost model of one parallel machine.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineModel {
    pub name: &'static str,
    /// Sustained per-node flop rate for ideal [`WorkClass::Flow`] work, flops/s.
    pub flops_per_sec: f64,
    /// Efficiency multipliers per work class (`Flow`, `Search`, `Other`).
    pub class_efficiency: [f64; 3],
    pub cache: CacheModel,
    /// One-way message latency, seconds.
    pub latency: f64,
    /// Point-to-point bandwidth, bytes/second.
    pub bandwidth: f64,
    /// CPU overhead charged to the sender per message, seconds.
    pub send_overhead: f64,
}

impl MachineModel {
    /// Effective flop rate for `class` work with the given per-rank working
    /// set (bytes); `working_set = 0` disables the cache term.
    pub fn rate(&self, class: WorkClass, working_set_bytes: f64) -> f64 {
        self.flops_per_sec
            * self.class_efficiency[class as usize]
            * self.cache.factor(working_set_bytes)
    }

    /// Seconds to perform `flops` of `class` work.
    pub fn compute_time(&self, flops: f64, class: WorkClass, working_set_bytes: f64) -> f64 {
        flops / self.rate(class, working_set_bytes)
    }

    /// Transit time of a message (excluding sender CPU overhead).
    pub fn transit_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Cost of a barrier / small collective among `nranks` ranks: one
    /// latency-and-transfer stage per doubling, so a rank synchronising
    /// with itself pays nothing.
    pub fn collective_time(&self, nranks: usize, bytes: usize) -> f64 {
        let stages = (nranks.max(1) as f64).log2().ceil();
        stages * (self.latency + bytes as f64 / self.bandwidth)
    }

    /// IBM SP2 at NASA Ames: 66.7 MHz POWER2 nodes (peak 266 Mflops,
    /// sustained ~32 on structured CFD), 40 MB/s switch.
    pub fn ibm_sp2() -> Self {
        MachineModel {
            name: "IBM-SP2",
            flops_per_sec: 32.0e6,
            class_efficiency: [1.0, 0.5, 0.6],
            cache: CacheModel { cache_bytes: 256.0 * 1024.0, low: 0.72, high: 1.18 },
            latency: 40.0e-6,
            bandwidth: 40.0e6,
            send_overhead: 8.0e-6,
        }
    }

    /// IBM SP at CEWES: 135 MHz P2SC nodes, 110 MB/s switch. The paper
    /// measures it at roughly 1.35–1.9× the SP2 per node.
    pub fn ibm_sp() -> Self {
        MachineModel {
            name: "IBM-SP",
            flops_per_sec: 50.0e6,
            class_efficiency: [1.0, 0.5, 0.6],
            cache: CacheModel { cache_bytes: 256.0 * 1024.0, low: 0.70, high: 1.22 },
            latency: 30.0e-6,
            bandwidth: 110.0e6,
            send_overhead: 6.0e-6,
        }
    }

    /// Single-processor Cray Y-MP/864 reference for Table 6 ("YMP units").
    /// Sustained rate calibrated so one Y-MP processor ≈ 1.3–1.9× one SP2
    /// node on this workload, as the paper's per-node columns imply.
    pub fn cray_ymp() -> Self {
        MachineModel {
            name: "Cray-YMP",
            flops_per_sec: 30.0e6, // sustained (vector) on this workload
            class_efficiency: [1.0, 0.55, 0.8],
            cache: CacheModel::FLAT, // vector machine: flat memory system
            latency: 1.0e-6,
            bandwidth: 1.0e9,
            send_overhead: 0.0,
        }
    }

    /// A generic modern multicore-ish model for examples and quickstarts.
    pub fn modern() -> Self {
        MachineModel {
            name: "Modern",
            flops_per_sec: 2.0e9,
            class_efficiency: [1.0, 0.5, 0.7],
            cache: CacheModel { cache_bytes: 32.0 * 1024.0 * 1024.0, low: 0.8, high: 1.1 },
            latency: 2.0e-6,
            bandwidth: 10.0e9,
            send_overhead: 0.2e-6,
        }
    }

    /// Variant with the cache term disabled (for the A4 ablation).
    pub fn without_cache_model(mut self) -> Self {
        self.cache = CacheModel::FLAT;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_factor_limits() {
        let c = CacheModel { cache_bytes: 1e6, low: 0.7, high: 1.2 };
        assert!((c.factor(0.0) - 1.2).abs() < 1e-12);
        assert!((c.factor(1.0) - 1.2).abs() < 1e-3);
        assert!((c.factor(1e12) - 0.7).abs() < 1e-3);
        let mid = c.factor(1e6);
        assert!((mid - 0.95).abs() < 1e-12, "midpoint {mid}");
        // Monotone decreasing.
        assert!(c.factor(1e5) > c.factor(1e6));
        assert!(c.factor(1e6) > c.factor(1e7));
    }

    #[test]
    fn sp_is_faster_than_sp2() {
        let sp2 = MachineModel::ibm_sp2();
        let sp = MachineModel::ibm_sp();
        let ws = 4.0 * 1024.0 * 1024.0;
        assert!(sp.rate(WorkClass::Flow, ws) > 1.3 * sp2.rate(WorkClass::Flow, ws));
        assert!(sp.transit_time(1 << 20) < sp2.transit_time(1 << 20));
    }

    #[test]
    fn search_work_is_less_efficient() {
        let m = MachineModel::ibm_sp2();
        assert!(m.rate(WorkClass::Search, 0.0) <= 0.5 * m.rate(WorkClass::Flow, 0.0));
    }

    #[test]
    fn transit_time_components() {
        let m = MachineModel::ibm_sp2();
        let t0 = m.transit_time(0);
        assert!((t0 - 40.0e-6).abs() < 1e-12);
        let t1 = m.transit_time(40_000_000);
        assert!((t1 - (40.0e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn collective_scales_logarithmically() {
        let m = MachineModel::ibm_sp2();
        let t2 = m.collective_time(2, 8);
        let t64 = m.collective_time(64, 8);
        assert!((t64 / t2 - 6.0).abs() < 1e-9);
        assert_eq!(t2, m.latency + 8.0 / m.bandwidth, "two ranks: one stage");
        assert_eq!(m.collective_time(1, 8), 0.0, "a one-rank collective is free");
    }

    #[test]
    fn without_cache_model_is_flat() {
        let m = MachineModel::ibm_sp2().without_cache_model();
        assert_eq!(m.rate(WorkClass::Flow, 1.0), m.rate(WorkClass::Flow, 1e12));
    }

    #[test]
    fn ymp_node_vs_sp2_node_band() {
        // Per-node columns of Table 6 put an SP2 node at 0.52-0.71 YMP units.
        let ymp = MachineModel::cray_ymp().rate(WorkClass::Flow, 0.0);
        let sp2 = MachineModel::ibm_sp2().rate(WorkClass::Flow, 2e6);
        let ratio = sp2 / ymp;
        assert!((0.4..0.9).contains(&ratio), "SP2/YMP per-node ratio {ratio}");
    }
}

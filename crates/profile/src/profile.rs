//! The workload profile of a finished collection instance.

use crate::op::{OpCounters, OpKind};
use crate::record::OpTiming;

/// The workload observed over one monitored collection instance's lifetime:
/// per-operation counts `N_op` plus the maximum size `s` the instance reached
/// (the `W` of the paper's total-cost formula, §3.1.1).
///
/// # Examples
///
/// ```
/// use cs_profile::{OpCounters, OpKind, WorkloadProfile};
///
/// let mut counters = OpCounters::new();
/// counters.add(OpKind::Populate, 100);
/// counters.add(OpKind::Contains, 1000);
/// let profile = WorkloadProfile::new(counters, 100);
/// assert!(profile.is_lookup_heavy());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    counters: OpCounters,
    max_size: usize,
    timing: OpTiming,
    contended: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl WorkloadProfile {
    /// Builds a profile from operation counters and a maximum size.
    pub fn new(counters: OpCounters, max_size: usize) -> Self {
        WorkloadProfile {
            counters,
            max_size,
            timing: OpTiming::default(),
            contended: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }

    /// Builds a profile in which *every* operation was clocked, taking
    /// `elapsed_nanos` in total.
    pub fn with_nanos(counters: OpCounters, max_size: usize, elapsed_nanos: u64) -> Self {
        let timed_ops = counters.total();
        WorkloadProfile::new(counters, max_size)
            .with_timing(OpTiming::new(elapsed_nanos, timed_ops))
    }

    /// Sets the sampled wall time — clocked nanos and clocked ops — and
    /// returns `self`, builder style like
    /// [`with_contended`](WorkloadProfile::with_contended).
    pub fn with_timing(mut self, timing: OpTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the number of operations that observed contention (lock wait
    /// on the striped tier, CAS retry / migration help on the lock-free
    /// tier) and returns `self` — builder style, so existing call sites
    /// keep their two-/three-argument constructors.
    pub fn with_contended(mut self, contended: u64) -> Self {
        self.contended = contended;
        self
    }

    /// Sets the heap churn attributed to this profile's operations —
    /// allocation events and requested bytes, measured per-site by
    /// `cs-heap` attribution guards — and returns `self`, builder style
    /// like [`with_contended`](WorkloadProfile::with_contended).
    pub fn with_alloc(mut self, alloc_count: u64, alloc_bytes: u64) -> Self {
        self.alloc_count = alloc_count;
        self.alloc_bytes = alloc_bytes;
        self
    }

    /// Allocation events attributed to this profile's operations.
    #[inline]
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// Allocation bytes attributed to this profile's operations (requested
    /// sizes — the churn measure, not live footprint).
    #[inline]
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Mean allocation bytes per operation; `0.0` when the profile is
    /// empty. The per-site gauge the alloc-rate dimension selects on.
    pub fn alloc_bytes_per_op(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            self.alloc_bytes as f64 / total as f64
        }
    }

    /// Operations that observed contention. Always ≤ [`total_ops`]
    /// (each op reports the flag at most once).
    ///
    /// [`total_ops`]: WorkloadProfile::total_ops
    #[inline]
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Fraction of operations that observed contention, in `[0, 1]`;
    /// `0.0` when the profile is empty.
    pub fn contention_ratio(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            (self.contended.min(total)) as f64 / total as f64
        }
    }

    /// Sampled wall time of the clocked critical operations.
    #[inline]
    pub fn timing(&self) -> OpTiming {
        self.timing
    }

    /// Wall nanoseconds summed over the clocked operations; 0 when timing
    /// was not recorded.
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        self.timing.nanos
    }

    /// The count for `op` over the instance's lifetime.
    #[inline]
    pub fn count(&self, op: OpKind) -> u64 {
        self.counters.count(op)
    }

    /// The full counter set.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Maximum size the instance reached.
    #[inline]
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Total number of critical operations executed.
    pub fn total_ops(&self) -> u64 {
        self.counters.total()
    }

    /// `true` when lookups dominate mutations — the situation where
    /// hash-indexed variants pay off.
    pub fn is_lookup_heavy(&self) -> bool {
        self.count(OpKind::Contains) > self.total_ops() / 2
    }

    /// Merges another profile into this one, keeping the larger max size.
    /// Used when summing workload over all monitored instances of a context.
    pub fn merge(&mut self, other: &WorkloadProfile) {
        self.counters.merge(&other.counters);
        self.max_size = self.max_size.max(other.max_size);
        self.timing.merge(other.timing);
        self.contended = self.contended.saturating_add(other.contended);
        self.alloc_count = self.alloc_count.saturating_add(other.alloc_count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pop: u64, con: u64, max: usize) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, pop);
        c.add(OpKind::Contains, con);
        WorkloadProfile::new(c, max)
    }

    #[test]
    fn lookup_heavy_threshold() {
        assert!(profile(10, 11, 5).is_lookup_heavy());
        assert!(!profile(10, 10, 5).is_lookup_heavy());
        assert!(!profile(100, 5, 5).is_lookup_heavy());
    }

    #[test]
    fn merge_sums_counts_and_maxes_size() {
        let mut a = profile(5, 10, 30);
        let b = profile(2, 3, 80);
        a.merge(&b);
        assert_eq!(a.count(OpKind::Populate), 7);
        assert_eq!(a.count(OpKind::Contains), 13);
        assert_eq!(a.max_size(), 80);
    }

    #[test]
    fn default_is_empty() {
        let p = WorkloadProfile::default();
        assert_eq!(p.total_ops(), 0);
        assert_eq!(p.max_size(), 0);
        assert_eq!(p.elapsed_nanos(), 0);
        assert!(!p.is_lookup_heavy());
    }

    #[test]
    fn contended_merges_and_ratios() {
        let mut a = profile(10, 10, 5).with_contended(4);
        let b = profile(20, 20, 5).with_contended(6);
        assert_eq!(a.contention_ratio(), 0.2);
        a.merge(&b);
        assert_eq!(a.contended(), 10);
        assert_eq!(a.contention_ratio(), 10.0 / 60.0);
        // Empty profile: ratio is defined as zero.
        assert_eq!(WorkloadProfile::default().contention_ratio(), 0.0);
    }

    #[test]
    fn alloc_merges_and_rates() {
        let mut a = profile(10, 10, 5).with_alloc(4, 400);
        let b = profile(20, 20, 5).with_alloc(6, 800);
        assert_eq!(a.alloc_bytes_per_op(), 20.0);
        a.merge(&b);
        assert_eq!(a.alloc_count(), 10);
        assert_eq!(a.alloc_bytes(), 1200);
        assert_eq!(a.alloc_bytes_per_op(), 20.0);
        assert_eq!(WorkloadProfile::default().alloc_bytes_per_op(), 0.0);
    }

    #[test]
    fn merge_sums_elapsed_nanos() {
        let mut a = WorkloadProfile::with_nanos(OpCounters::new(), 3, 100);
        let b = WorkloadProfile::with_nanos(OpCounters::new(), 5, 50);
        a.merge(&b);
        assert_eq!(a.elapsed_nanos(), 150);
        assert_eq!(a.max_size(), 5);
    }

    #[test]
    fn with_nanos_clocks_every_op_and_timing_merges() {
        let mut a = WorkloadProfile::with_nanos(*profile(3, 1, 4).counters(), 4, 400);
        assert_eq!(a.timing(), OpTiming::new(400, 4));
        let b = profile(60, 4, 4).with_timing(OpTiming::new(100, 1));
        a.merge(&b);
        assert_eq!(a.timing(), OpTiming::new(500, 5));
        assert_eq!(a.timing().nanos_per_op(), Some(100.0));
        assert_eq!(a.total_ops(), 68);
    }
}

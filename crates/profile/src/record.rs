//! The op-recording primitive shared by every monitored op path.
//!
//! Monitored `cs-core` handles and `cs-runtime` concurrent sites both run
//! each monitored critical op through [`record_op`]. Everything that cannot
//! change within a monitored instance is decided once, when the instance's
//! [`OpClock`] is made: which op ticks are clocked (its phase and rate) and
//! whether a counting allocator is live. Per op, [`record_op`] then:
//!
//! * attributes the op's allocations through a [`cs_heap::AllocGuard`] —
//!   on *every* op, because allocation is bursty (one capacity doubling in
//!   hundreds of pushes) and a sampled guard misses exactly those bursts.
//!   A clock made without a counting allocator opens no guard at all;
//! * wall-clocks only one op in `2^shift`, chosen by the clock's own tick.
//!   A clocked op that reads longer than [`DESCHEDULED_NANOS`] counts as
//!   unclocked: its thread was descheduled mid-op;
//! * opens the [`cs_trace::op_span`] around the recorder update, so the
//!   trace accounts the monitoring bookkeeping and never the op body;
//! * hands the resulting [`OpSample`] to the caller's recorder, which
//!   counts the op and observes its size.
//!
//! Sampled time is never scaled up. Recorders keep the clocked nanos next
//! to the number of clocked ops in an [`OpTiming`], and every nanos-per-op
//! consumer divides the two ([`OpTiming::nanos_per_op`]).

use std::cell::Cell;
use std::time::Instant;

use cs_heap::{AllocDelta, AllocGuard};

use crate::op::OpKind;

/// Clocked ops whose wall time exceeds this (1 ms) are dropped from the
/// sample. A thread descheduled inside the op body reads one scheduler
/// slice — milliseconds — on top of the op. With one op in `2^k` clocked,
/// a single such reading would outweigh thousands of real ones in a
/// window's sum. On a 2-vCPU VM running three busy threads, wall-time gaps
/// in a tight loop were either under 50 µs or over 1 ms (mostly over
/// 2 ms); no collection op of the evaluated workloads comes near 1 ms. An
/// op that always takes longer is never timed, which leaves its site
/// unverifiable rather than misjudged.
pub const DESCHEDULED_NANOS: u64 = 1_000_000;

/// Increment of the per-thread phase sequence: 2^64 divided by the golden
/// ratio, so successive phases (and any fixed stride through them) spread
/// evenly over the clock period.
const PHASE_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

thread_local! {
    /// Per-thread Weyl sequence that hands each new monitored instance its
    /// clock phase.
    static PHASE: Cell<u64> = const { Cell::new(0) };
}

/// The clock state of one monitored op path: its op tick, which ticks are
/// clocked, and whether its ops open an allocation guard.
///
/// A monitored handle makes one with [`OpClock::for_instance`] and keeps
/// it for its lifetime, so its ops read no thread-local state to decide
/// what they record. A runtime site, one long-lived collection, builds one
/// per op with [`OpClock::new`] from its thread's op tick.
#[derive(Debug, Clone, Copy)]
pub struct OpClock {
    tick: u64,
    mask: u64,
    alloc: bool,
}

impl OpClock {
    /// A clock that wall-clocks one op in `2^shift` (`0` clocks every op),
    /// starting from tick `phase`. Whether its ops attribute allocations is
    /// read now from [`cs_heap::counting_active`]; a counting allocator
    /// sees traffic from the process's first allocation, so the answer does
    /// not change later.
    pub fn new(shift: u32, phase: u64) -> OpClock {
        OpClock {
            tick: phase,
            mask: (1u64 << shift.min(63)) - 1,
            alloc: cs_heap::counting_active(),
        }
    }

    /// A clock for a new monitored instance, at the next phase of the
    /// calling thread's phase sequence.
    ///
    /// An instance of `n < 2^shift` ops is then clocked with probability
    /// `n / 2^shift`; with one fixed phase, every such instance would start
    /// at the same tick and short-lived sites would never be clocked.
    pub fn for_instance(shift: u32) -> OpClock {
        let next = PHASE.with(|p| {
            let next = p.get().wrapping_add(PHASE_STEP);
            p.set(next);
            next
        });
        // The top bits of a golden-ratio Weyl sequence are its most evenly
        // spread; rotate them into the low bits the mask tests.
        OpClock::new(shift, next.rotate_left(shift.min(63)))
    }

    /// Advances the tick; `true` when this op is clocked.
    #[inline]
    fn tick(&mut self) -> bool {
        self.tick = self.tick.wrapping_add(1);
        self.tick & self.mask == 0
    }
}

/// What one monitored op reports to its recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    /// The critical operation executed.
    pub op: OpKind,
    /// The collection size the op reports (post-op for growth). Callers
    /// that report sizes only from growth ops pass `0` for the others,
    /// which never raises a maximum.
    pub size: usize,
    /// Allocation churn attributed to the op body, exact on every op.
    pub alloc: AllocDelta,
    /// Wall nanoseconds of the op body, when this op was the clocked one.
    pub nanos: Option<u64>,
}

/// Runs `body` as one monitored critical op on `clock` and hands the
/// measurement to `absorb`, returning `body`'s result.
///
/// `body` returns `(result, size)`. One op in `2^shift` of the clock's
/// ticks is wall-clocked; every op opens an allocation guard when the clock
/// attributes allocations. `absorb` runs inside the op span, after the
/// guard and the clock closed, so recorder bookkeeping never pollutes
/// either measurement. It also sees the result, for callers whose body
/// reports more than a size (the runtime's contention flag).
///
/// # Examples
///
/// ```
/// use cs_profile::{record_op, OpClock, OpKind, OpRecorder};
///
/// let mut clock = OpClock::new(3, 0);
/// let mut rec = OpRecorder::new();
/// let mut v = Vec::new();
/// for i in 0..8 {
///     record_op(&mut clock, 0, OpKind::Populate, || (v.push(i), v.len()), |_, s| rec.absorb(s));
/// }
/// let profile = rec.finish();
/// assert_eq!(profile.count(OpKind::Populate), 8);
/// assert_eq!(profile.max_size(), 8);
/// assert_eq!(profile.timing().ops, 1); // 8 ops, 1 in 2^3 clocked
/// ```
#[inline]
pub fn record_op<R>(
    clock: &mut OpClock,
    site: u64,
    op: OpKind,
    body: impl FnOnce() -> (R, usize),
    absorb: impl FnOnce(&R, &OpSample),
) -> R {
    let clocked = clock.tick();
    let guard = clock.alloc.then(AllocGuard::begin);
    let (result, size, nanos) = if clocked {
        let start = Instant::now();
        let (result, size) = body();
        let nanos = start.elapsed().as_nanos() as u64;
        (result, size, (nanos <= DESCHEDULED_NANOS).then_some(nanos))
    } else {
        let (result, size) = body();
        (result, size, None)
    };
    let alloc = guard.map_or_else(AllocDelta::default, AllocGuard::finish);
    let sample = OpSample {
        op,
        size,
        alloc,
        nanos,
    };
    // Branching here rather than inside `op_span` keeps the untraced path
    // free of a live `Span` (and its drop) around the recorder update.
    if cs_trace::enabled() {
        let _span = cs_trace::op_span(site);
        absorb(&result, &sample);
    } else {
        absorb(&result, &sample);
    }
    result
}

/// Sampled op timing: the wall nanoseconds of the clocked ops and how many
/// ops were clocked. The one nanos-per-op estimator of the workspace is
/// their quotient.
///
/// # Examples
///
/// ```
/// use cs_profile::OpTiming;
///
/// let mut t = OpTiming::default();
/// assert_eq!(t.nanos_per_op(), None);
/// t.add_op(30);
/// t.add_op(50);
/// assert_eq!(t.nanos_per_op(), Some(40.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTiming {
    /// Wall nanoseconds summed over the clocked ops.
    pub nanos: u64,
    /// Number of clocked ops.
    pub ops: u64,
}

impl OpTiming {
    /// Timing where `ops` clocked ops took `nanos` in total.
    pub fn new(nanos: u64, ops: u64) -> Self {
        OpTiming { nanos, ops }
    }

    /// Adds one clocked op that took `nanos`.
    #[inline]
    pub fn add_op(&mut self, nanos: u64) {
        self.nanos = self.nanos.saturating_add(nanos);
        self.ops += 1;
    }

    /// Folds `other` into `self`.
    #[inline]
    pub fn merge(&mut self, other: OpTiming) {
        self.nanos = self.nanos.saturating_add(other.nanos);
        self.ops = self.ops.saturating_add(other.ops);
    }

    /// Both sums scaled by `factor` (history decay).
    pub fn scaled(self, factor: f64) -> OpTiming {
        OpTiming {
            nanos: (self.nanos as f64 * factor) as u64,
            ops: (self.ops as f64 * factor) as u64,
        }
    }

    /// Mean wall nanoseconds per clocked op; `None` when no op was clocked
    /// or the clocked ops read zero time.
    pub fn nanos_per_op(&self) -> Option<f64> {
        (self.ops > 0 && self.nanos > 0).then(|| self.nanos as f64 / self.ops as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ops: u64, shift: u32) -> (u64, u64) {
        let mut clock = OpClock::new(shift, 0);
        let (mut seen, mut clocked) = (0, 0);
        for i in 0..ops {
            record_op(
                &mut clock,
                0,
                OpKind::Contains,
                || ((), i as usize),
                |_, s| {
                    seen += 1;
                    clocked += u64::from(s.nanos.is_some());
                },
            );
        }
        (seen, clocked)
    }

    #[test]
    fn every_op_is_absorbed_and_one_in_two_to_the_shift_is_clocked() {
        for shift in [0, 1, 3, 6] {
            let (seen, clocked) = run(5 << shift, shift);
            assert_eq!(seen, 5 << shift);
            assert_eq!(clocked, 5, "shift {shift}");
        }
    }

    #[test]
    fn absorb_sees_the_result_and_post_op_size() {
        let mut v = vec![1, 2];
        let mut got = None;
        let out = record_op(
            &mut OpClock::new(0, 0),
            7,
            OpKind::Populate,
            || {
                v.push(3);
                (v.len() * 10, v.len())
            },
            |r, s| got = Some((*r, *s)),
        );
        assert_eq!(out, 30);
        let (r, s) = got.expect("absorbed");
        assert_eq!(r, 30);
        assert_eq!(s.op, OpKind::Populate);
        assert_eq!(s.size, 3);
        assert!(s.nanos.is_some(), "shift 0 clocks every op");
        // No counting allocator in unit tests: the guard is inert.
        assert_eq!(s.alloc, AllocDelta::default());
    }

    #[test]
    fn descheduled_readings_are_dropped_from_the_sample() {
        let mut nanos = Some(0);
        record_op(
            &mut OpClock::new(0, 0),
            0,
            OpKind::Iterate,
            || {
                std::thread::sleep(std::time::Duration::from_nanos(2 * DESCHEDULED_NANOS));
                ((), 0)
            },
            |_, s| nanos = s.nanos,
        );
        assert_eq!(nanos, None);
    }

    #[test]
    fn timing_merges_scales_and_estimates() {
        let mut a = OpTiming::new(100, 4);
        a.merge(OpTiming::new(60, 4));
        assert_eq!(a, OpTiming::new(160, 8));
        assert_eq!(a.nanos_per_op(), Some(20.0));
        assert_eq!(a.scaled(0.5), OpTiming::new(80, 4));
        assert_eq!(OpTiming::new(0, 3).nanos_per_op(), None);
        let mut sat = OpTiming::new(u64::MAX, 1);
        sat.add_op(1);
        assert_eq!(sat, OpTiming::new(u64::MAX, 2));
    }
}

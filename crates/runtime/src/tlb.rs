//! Thread-local profile buffers: the zero-shared-write hot path.
//!
//! Every op on a concurrent handle records into a buffer owned by the
//! calling thread ([`LocalWindowBuffer`]); nothing is shared until an
//! *epoch boundary* — the buffer reaching
//! [`FlushPolicy::flush_ops`](crate::site::FlushPolicy) recorded ops
//! (count trigger) or ageing past `flush_nanos` (time trigger, probed every
//! 64 ops) — at which point the whole buffer is folded into the site's
//! [`SiteShared`] in one batch of atomic adds plus one sink push.
//!
//! ## Memory-ordering contract
//!
//! * Buffer fields are plain (non-atomic) thread-local state: they need no
//!   ordering at all, which is what makes recording an op a handful of
//!   arithmetic instructions.
//! * A flush publishes the buffer via `SiteShared`'s relaxed atomic adds
//!   and the profile sink's mutex. The mutex release/acquire pair is the
//!   happens-before edge to the analyzer; the relaxed totals are *counters*,
//!   read only after joining worker threads (join provides the edge) or as
//!   monotonic monitoring values where momentary staleness is fine.
//! * Every op goes through the shared recording primitive
//!   [`cs_profile::record_op`]: allocations are attributed on every op, and
//!   one op in `2^sample_shift` per thread is wall-clocked, so the common op
//!   pays no `Instant::now()` call. Sampled time is not scaled: the buffer
//!   carries the clocked nanos with the clocked-op count. Unlike a handle,
//!   every op reports the site's size: a flushed epoch of a long-lived
//!   collection may hold no growth op at all.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use cs_profile::{record_op, LocalWindowBuffer, OpClock, OpKind};

use crate::site::{FlushPolicy, SiteShared};

struct LocalEntry {
    site: Arc<SiteShared>,
    buf: LocalWindowBuffer,
    last_flush: Instant,
}

impl LocalEntry {
    fn flush(&mut self, now: Instant) {
        if !self.buf.is_empty() {
            let ops = self.buf.ops_buffered();
            // The flush span covers the whole epoch handoff: the batched
            // atomic adds plus the engine-core ingest (a nested Ingest
            // span) and the sink push.
            let _span = cs_trace::span(cs_trace::Phase::Flush, self.site.id());
            self.site.ingest(self.buf.drain());
            // Credit the wall interval since this thread's previous flush
            // as application time: flush boundaries bracket pure app work,
            // so per-thread intervals can never double-count across sites.
            cs_trace::credit_app_ops(ops);
        }
        self.last_flush = now;
    }
}

struct LocalBuffers {
    // Linear scan by site id: a thread touches a handful of sites, and a
    // four-entry scan beats a hash lookup at that scale.
    entries: Vec<LocalEntry>,
}

impl LocalBuffers {
    fn entry(&mut self, site: &Arc<SiteShared>) -> &mut LocalEntry {
        // Keyed by Arc identity, not site id: ids are only unique within one
        // engine, and a process may run several runtimes.
        if let Some(i) = self.entries.iter().position(|e| Arc::ptr_eq(&e.site, site)) {
            return &mut self.entries[i];
        }
        self.entries.push(LocalEntry {
            site: Arc::clone(site),
            buf: LocalWindowBuffer::new(),
            last_flush: Instant::now(),
        });
        self.entries.last_mut().expect("just pushed")
    }

    fn flush_all(&mut self) {
        let now = Instant::now();
        for e in &mut self.entries {
            e.flush(now);
        }
    }
}

impl Drop for LocalBuffers {
    // Thread exit retires every residual buffer, so no recorded op is ever
    // lost — the invariant the concurrent stress test asserts.
    fn drop(&mut self) {
        self.flush_all();
    }
}

thread_local! {
    static TLB: RefCell<LocalBuffers> = const {
        RefCell::new(LocalBuffers {
            entries: Vec::new(),
        })
    };
    /// This thread's runtime op tick, the phase of each op's [`OpClock`].
    /// It lives apart from the buffers so that an op touches its buffer only
    /// after the body: reading a buffer-owned clock before the body cost
    /// 6–8% of `perfbench --workload runtime_phased` throughput on a 2-vCPU
    /// x86 VM.
    static TICK: Cell<u64> = const { Cell::new(0) };
}

/// Runs `body` as one critical op of `site`, recording it into the calling
/// thread's local buffer and flushing on epoch boundaries.
///
/// `body` returns `(result, post_op_size, contended)`; the contended flag
/// (lost a CAS, found a lock held, helped a migration) is counted in the
/// thread-local buffer, flows into the flushed
/// [`WorkloadProfile`](cs_profile::WorkloadProfile), and from there feeds
/// the strategy tier's contention cost term. `body` executes *outside* any
/// thread-local borrow, so collection code (including user `Hash`/`Eq`
/// impls) can never conflict with the buffer bookkeeping.
#[inline]
pub(crate) fn site_op_tracked<R>(
    site: &Arc<SiteShared>,
    op: OpKind,
    body: impl FnOnce() -> (R, usize, bool),
) -> R {
    let policy = site.policy();
    let phase = TICK.get();
    TICK.set(phase.wrapping_add(1));
    let (result, _) = record_op(
        &mut OpClock::new(policy.sample_shift, phase),
        site.id(),
        op,
        || {
            let (result, size, contended) = body();
            ((result, contended), size)
        },
        |&(_, contended), sample| {
            TLB.with(|tlb| {
                let mut tlb = tlb.borrow_mut();
                let entry = tlb.entry(site);
                entry.buf.absorb(sample);
                if contended {
                    entry.buf.note_contended();
                }
                let buffered = entry.buf.ops_buffered();
                if buffered >= policy.flush_ops {
                    entry.flush(Instant::now());
                } else if buffered & FlushPolicy::CLOCK_CHECK_MASK == 0 {
                    let now = Instant::now();
                    if now.duration_since(entry.last_flush).as_nanos() as u64 >= policy.flush_nanos
                    {
                        entry.flush(now);
                    }
                }
            })
        },
    );
    result
}

/// Flushes every buffer owned by the *calling* thread into its site.
///
/// Buffers also flush automatically on epoch boundaries and when the thread
/// exits; this exists for synchronous checkpoints — before an assertion in
/// a test, before a deliberate [`analyze_now`](cs_core::Switch::analyze_now).
pub fn flush_current_thread() {
    TLB.with(|tlb| tlb.borrow_mut().flush_all());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::CoreRef;
    use cs_collections::MapKind;
    use cs_core::Switch;

    fn site_op(site: &Arc<SiteShared>, op: OpKind, size: usize) {
        site_op_tracked(site, op, || ((), size, false));
    }

    fn test_site(flush_ops: u64) -> Arc<SiteShared> {
        sampled_test_site(flush_ops, 0)
    }

    fn sampled_test_site(flush_ops: u64, sample_shift: u32) -> Arc<SiteShared> {
        let engine = Switch::builder().build();
        let ctx = engine.named_map_context::<u64, u64>(MapKind::Chained, "tlb-test");
        Arc::new(SiteShared::new(
            ctx.id(),
            "tlb-test".into(),
            CoreRef::Map(Arc::clone(ctx.core())),
            FlushPolicy {
                flush_ops,
                flush_nanos: u64::MAX,
                sample_shift,
            },
        ))
    }

    #[test]
    fn ops_buffer_locally_until_count_trigger() {
        let site = test_site(10);
        for i in 0..9 {
            site_op(&site, OpKind::Populate, i);
        }
        // Nine ops buffered: nothing shared yet.
        assert_eq!(site.stats().total_ops, 0);
        assert_eq!(site.stats().flushes, 0);
        site_op(&site, OpKind::Populate, 9);
        // The tenth op crossed the epoch: one flush carrying all ten.
        let stats = site.stats();
        assert_eq!(stats.total_ops, 10);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.max_size, 9);
        flush_current_thread();
        assert_eq!(site.stats().flushes, 1, "empty buffers do not flush");
    }

    #[test]
    fn explicit_flush_retires_partial_buffers() {
        let site = test_site(1_000_000);
        for _ in 0..5 {
            site_op(&site, OpKind::Contains, 3);
        }
        assert_eq!(site.stats().total_ops, 0);
        flush_current_thread();
        let stats = site.stats();
        assert_eq!(stats.total_ops, 5);
        assert_eq!(stats.ops[OpKind::Contains.index()], 5);
        assert_eq!(stats.flushes, 1);
    }

    #[test]
    fn thread_exit_flushes_residue() {
        let site = test_site(1_000_000);
        let s = Arc::clone(&site);
        std::thread::spawn(move || {
            for _ in 0..17 {
                site_op(&s, OpKind::Middle, 1);
            }
            // No explicit flush: the TLS destructor must retire the buffer.
        })
        .join()
        .unwrap();
        assert_eq!(site.stats().total_ops, 17);
    }

    /// The thread's tick runs across flushes: 640 ops flushed every 100
    /// clock exactly 640 / 64 of them.
    #[test]
    fn clock_runs_across_flushes() {
        let site = sampled_test_site(100, 6);
        for _ in 0..640 {
            site_op_tracked(&site, OpKind::Contains, || {
                std::hint::black_box((0..50).sum::<u64>());
                ((), 1, false)
            });
        }
        flush_current_thread();
        let stats = site.stats();
        assert_eq!(stats.total_ops, 640);
        assert_eq!(stats.flushes, 7);
        assert_eq!(stats.timed_ops, 10);
    }

    #[test]
    fn shift_zero_clocks_every_op() {
        let site = test_site(4);
        for _ in 0..64 {
            site_op_tracked(&site, OpKind::Contains, || {
                std::hint::black_box((0..50).sum::<u64>());
                ((), 1, false)
            });
        }
        flush_current_thread();
        let stats = site.stats();
        assert_eq!(stats.timed_ops, 64, "shift 0 clocks every op");
        assert!(stats.sampled_nanos > 0);
    }
}

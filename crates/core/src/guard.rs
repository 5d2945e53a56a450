//! Adaptation guardrails: switch verification, quarantine, cooldown, and
//! the global transition budget.
//!
//! CollectionSwitch trusts its cost models: when a model says a candidate is
//! cheaper, the engine switches. A miscalibrated (or corrupted) model can
//! therefore make the program *slower*, indefinitely, with no recourse —
//! the paper's §4.4 logging mitigation explains decisions after the fact
//! but does not undo them. The guardrail layer closes that loop:
//!
//! * **Post-switch verification** — after a switch, the next completed
//!   monitoring window's measured cost-per-operation is compared with the
//!   pre-switch window. If the switch realized markedly *worse* cost than
//!   the model predicted, it is rolled back.
//! * **Quarantine** — a candidate that failed verification at a site is
//!   barred from reselection there for an exponentially growing number of
//!   rounds, so a bad model cannot flap a site forever.
//! * **Cooldown** — a site must sit out a configurable number of analysis
//!   rounds between transitions, damping oscillation under phase-flipping
//!   workloads.
//! * **Transition budget** — an optional global cap on the total number of
//!   switches an engine will perform over its lifetime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for the adaptation guardrails.
///
/// The defaults are chosen so that a well-calibrated model behaves exactly
/// as the unguarded engine did: verification only fires on switches that
/// measure *worse* than both break-even and the model's own prediction by a
/// 25% margin, the cooldown of one round matches the natural analysis
/// cadence, and no global budget is imposed.
///
/// # Examples
///
/// ```
/// use cs_core::GuardrailConfig;
///
/// let strict = GuardrailConfig::default()
///     .verify_tolerance(0.1)
///     .cooldown_rounds(4)
///     .max_transitions(Some(100));
/// assert_eq!(strict.cooldown_rounds, 4);
///
/// let off = GuardrailConfig::disabled();
/// assert!(off.verify_tolerance.is_infinite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GuardrailConfig {
    /// Slack added to the rollback threshold: a switch is rolled back when
    /// the realized cost ratio exceeds `max(1.0, predicted) + tolerance`.
    /// `f64::INFINITY` disables verification entirely.
    pub verify_tolerance: f64,
    /// Minimum analysis rounds a site must wait between transitions
    /// (including after a rollback). `1` is the natural cadence — at most
    /// one switch per analysis round, exactly the unguarded behaviour.
    pub cooldown_rounds: u64,
    /// Rounds of quarantine imposed on a candidate's first verification
    /// failure at a site.
    pub quarantine_base: u64,
    /// Upper bound on the quarantine length however many strikes accrue.
    pub quarantine_cap: u64,
    /// Global cap on lifetime transitions across all sites; `None` = no cap.
    pub max_transitions: Option<u64>,
    /// Consecutive analyzer panics tolerated before the engine enters
    /// degraded mode (adaptation and monitoring frozen).
    pub max_analyzer_failures: u32,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        GuardrailConfig {
            verify_tolerance: 0.25,
            cooldown_rounds: 1,
            quarantine_base: 4,
            quarantine_cap: 64,
            max_transitions: None,
            max_analyzer_failures: 3,
        }
    }
}

impl GuardrailConfig {
    /// A configuration with every guardrail turned off — the engine behaves
    /// exactly like the pre-guardrail implementation.
    pub fn disabled() -> Self {
        GuardrailConfig {
            verify_tolerance: f64::INFINITY,
            cooldown_rounds: 1,
            quarantine_base: 4,
            quarantine_cap: 64,
            max_transitions: None,
            max_analyzer_failures: u32::MAX,
        }
    }

    /// Sets the verification tolerance (`INFINITY` disables verification).
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is NaN or negative.
    pub fn verify_tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance >= 0.0,
            "verify tolerance must be non-negative, got {tolerance}"
        );
        self.verify_tolerance = tolerance;
        self
    }

    /// Sets the per-site cooldown in analysis rounds (minimum 1).
    pub fn cooldown_rounds(mut self, rounds: u64) -> Self {
        self.cooldown_rounds = rounds.max(1);
        self
    }

    /// Sets the first-strike quarantine length in rounds (minimum 1).
    pub fn quarantine_base(mut self, rounds: u64) -> Self {
        self.quarantine_base = rounds.max(1);
        self
    }

    /// Sets the quarantine length cap in rounds (minimum 1).
    pub fn quarantine_cap(mut self, rounds: u64) -> Self {
        self.quarantine_cap = rounds.max(1);
        self
    }

    /// Sets (or clears) the global transition budget.
    pub fn max_transitions(mut self, limit: Option<u64>) -> Self {
        self.max_transitions = limit;
        self
    }

    /// Sets how many consecutive analyzer panics are tolerated before the
    /// engine degrades (minimum 1).
    pub fn max_analyzer_failures(mut self, failures: u32) -> Self {
        self.max_analyzer_failures = failures.max(1);
        self
    }

    /// Whether post-switch verification is active.
    pub fn verification_enabled(&self) -> bool {
        self.verify_tolerance.is_finite()
    }

    /// Quarantine length for the given strike count: `base · 2^(strikes-1)`,
    /// capped.
    pub(crate) fn quarantine_len(&self, strikes: u32) -> u64 {
        let doublings = strikes.saturating_sub(1).min(32);
        self.quarantine_base
            .saturating_mul(1u64 << doublings)
            .min(self.quarantine_cap)
    }
}

/// Shared, thread-safe counter enforcing [`GuardrailConfig::max_transitions`].
///
/// One budget instance is shared by every allocation context of an engine;
/// `try_take` atomically claims one transition slot.
#[derive(Debug, Default)]
pub struct TransitionBudget {
    used: AtomicU64,
    limit: Option<u64>,
}

impl TransitionBudget {
    /// Creates a budget with the given cap (`None` = unlimited).
    pub fn new(limit: Option<u64>) -> Self {
        TransitionBudget {
            used: AtomicU64::new(0),
            limit,
        }
    }

    /// Claims one transition slot; returns `false` when the budget is spent.
    pub fn try_take(&self) -> bool {
        match self.limit {
            None => {
                self.used.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(limit) => {
                let mut cur = self.used.load(Ordering::Relaxed);
                loop {
                    if cur >= limit {
                        return false;
                    }
                    match self.used.compare_exchange_weak(
                        cur,
                        cur + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return true,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
    }

    /// Transitions claimed so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The configured cap, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

/// A switch awaiting verification at its site's next completed window.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PendingVerification {
    /// Variant index in use before the switch (restored on rollback).
    pub(crate) prev_index: usize,
    /// Variant index the switch installed.
    pub(crate) new_index: usize,
    /// Cost ratio the model predicted (new/old; < 1 is an improvement).
    pub(crate) predicted_ratio: f64,
    /// Measured cost-per-op (ns) of the window that triggered the switch
    /// (sampled nanos over clocked ops); `0.0` when that window clocked
    /// fewer than `min_timed_ops` ops, which makes the switch unverifiable.
    pub(crate) baseline_cpo: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QuarantineEntry {
    pub(crate) until_round: u64,
    pub(crate) strikes: u32,
}

/// Per-context guardrail state (behind the context's own lock).
#[derive(Debug, Default)]
pub(crate) struct GuardState {
    /// The most recent unverified switch, if any.
    pub(crate) pending: Option<PendingVerification>,
    /// Variant index → quarantine entry. Entries persist after expiry so
    /// repeat offenders escalate.
    pub(crate) quarantine: HashMap<usize, QuarantineEntry>,
    /// Round of the last transition or rollback (cooldown anchor).
    pub(crate) last_transition_round: Option<u64>,
}

impl GuardState {
    /// Whether `variant_index` is barred from selection at `round`.
    pub(crate) fn is_quarantined(&self, variant_index: usize, round: u64) -> bool {
        self.quarantine
            .get(&variant_index)
            .is_some_and(|q| round < q.until_round)
    }

    /// Records a verification failure for `variant_index`, escalating the
    /// strike count, and returns the updated entry.
    pub(crate) fn add_strike(
        &mut self,
        variant_index: usize,
        round: u64,
        config: &GuardrailConfig,
    ) -> QuarantineEntry {
        let entry = self
            .quarantine
            .entry(variant_index)
            .or_insert(QuarantineEntry {
                until_round: round,
                strikes: 0,
            });
        entry.strikes = entry.strikes.saturating_add(1);
        entry.until_round = round.saturating_add(config.quarantine_len(entry.strikes));
        *entry
    }

    /// Whether the cooldown permits a transition at `round`.
    pub(crate) fn cooldown_ok(&self, round: u64, config: &GuardrailConfig) -> bool {
        self.last_transition_round
            .is_none_or(|last| round >= last.saturating_add(config.cooldown_rounds))
    }

    /// Clears all guardrail state (used by context reset).
    pub(crate) fn clear(&mut self) {
        self.pending = None;
        self.quarantine.clear();
        self.last_transition_round = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_unguarded_cadence() {
        let c = GuardrailConfig::default();
        assert_eq!(c.cooldown_rounds, 1);
        assert_eq!(c.max_transitions, None);
        assert!(c.verification_enabled());
    }

    #[test]
    fn disabled_config_turns_verification_off() {
        let c = GuardrailConfig::disabled();
        assert!(!c.verification_enabled());
        assert_eq!(c.max_analyzer_failures, u32::MAX);
    }

    #[test]
    fn quarantine_length_doubles_and_caps() {
        let c = GuardrailConfig::default(); // base 4, cap 64
        assert_eq!(c.quarantine_len(1), 4);
        assert_eq!(c.quarantine_len(2), 8);
        assert_eq!(c.quarantine_len(3), 16);
        assert_eq!(c.quarantine_len(5), 64);
        assert_eq!(c.quarantine_len(60), 64, "deep strikes stay capped");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_rejected() {
        let _ = GuardrailConfig::default().verify_tolerance(-0.5);
    }

    #[test]
    fn budget_caps_total_takes() {
        let b = TransitionBudget::new(Some(2));
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take());
        assert_eq!(b.used(), 2);
        assert_eq!(b.limit(), Some(2));
    }

    #[test]
    fn unlimited_budget_always_grants() {
        let b = TransitionBudget::new(None);
        for _ in 0..1000 {
            assert!(b.try_take());
        }
        assert_eq!(b.used(), 1000);
    }

    #[test]
    fn budget_is_race_free() {
        let b = std::sync::Arc::new(TransitionBudget::new(Some(100)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || (0..50).filter(|_| b.try_take()).count())
            })
            .collect();
        let granted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(granted, 100);
        assert_eq!(b.used(), 100);
    }

    #[test]
    fn strikes_escalate_quarantine() {
        let c = GuardrailConfig::default();
        let mut g = GuardState::default();
        let e1 = g.add_strike(2, 10, &c);
        assert_eq!((e1.strikes, e1.until_round), (1, 14));
        assert!(g.is_quarantined(2, 13));
        assert!(!g.is_quarantined(2, 14));
        // Second failure later escalates even though the first expired.
        let e2 = g.add_strike(2, 20, &c);
        assert_eq!((e2.strikes, e2.until_round), (2, 28));
    }

    #[test]
    fn cooldown_counts_rounds_between_transitions() {
        let c = GuardrailConfig::default().cooldown_rounds(4);
        let mut g = GuardState::default();
        assert!(g.cooldown_ok(0, &c));
        g.last_transition_round = Some(3);
        assert!(!g.cooldown_ok(5, &c));
        assert!(g.cooldown_ok(7, &c));
    }

    #[test]
    fn clear_resets_everything() {
        let c = GuardrailConfig::default();
        let mut g = GuardState::default();
        g.add_strike(1, 0, &c);
        g.last_transition_round = Some(5);
        g.pending = Some(PendingVerification {
            prev_index: 0,
            new_index: 1,
            predicted_ratio: 0.5,
            baseline_cpo: 10.0,
        });
        g.clear();
        assert!(g.pending.is_none());
        assert!(g.quarantine.is_empty());
        assert!(g.last_transition_round.is_none());
    }
}

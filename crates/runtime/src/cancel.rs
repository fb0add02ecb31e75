//! Cooperative cancellation with optional wall-clock deadlines and
//! deterministic step budgets.
//!
//! Long campaigns must never hang on a single wedged solve: every
//! compute loop in the workspace (solver timesteps, campaign trial
//! dispatch) periodically polls a shared [`CancelToken`] and bails out
//! with a typed error when it fires. The token is deliberately tiny —
//! one `Arc<AtomicBool>` plus an optional deadline instant — so a poll
//! on the solver hot loop costs one relaxed atomic load, and the
//! wall-clock comparison ([`CancelToken::poll_deadline`]) is only paid
//! at the caller's chosen check interval.
//!
//! Three ways a token fires:
//!
//! 1. **Explicit** — any clone calls [`CancelToken::cancel`]; every
//!    other clone observes it on its next poll.
//! 2. **Deadline** — a token built with [`CancelToken::with_deadline`]
//!    latches itself cancelled the first time
//!    [`CancelToken::poll_deadline`] runs past the deadline. The latch
//!    makes the answer sticky: once a token has fired it stays fired,
//!    so racing observers cannot disagree about whether a run was cut
//!    short.
//! 3. **Fuel** — a token built with [`CancelToken::with_fuel`] carries a
//!    budget of work steps (solver timesteps, in this workspace). Each
//!    [`CancelToken::spend_and_poll`] burns the steps run since the last
//!    poll and latches the token once the budget is gone. No clock is
//!    read, so where a run stops depends only on the work it did — the
//!    same on an idle machine and under full load, like
//!    [`crate::backoff::VirtualClock`].
//!
//! Tokens also form a **hierarchy**: [`CancelToken::child`] and
//! [`CancelToken::child_with_deadline`] derive tokens that fire when
//! their parent fires (cancellation and deadlines both propagate
//! downward) but whose own cancellation never touches the parent or
//! their siblings. A fleet engine hands every client a child of the
//! fleet-wide token: cancelling the fleet stops every client, an
//! overrunning client's budget firing stops only that client.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap, clonable cancellation flag with an optional deadline.
///
/// Clones share state: cancelling one cancels all. The default token
/// ([`CancelToken::new`]) has no deadline and never fires on its own.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Steps left before the token fires; `None` means no step budget.
    fuel: Option<AtomicU64>,
    /// Upward link of the token hierarchy: a child observes its
    /// ancestors' flags and deadlines, never the other way around.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    /// Whether this token or any ancestor has its flag set. Walks the
    /// (short) parent chain with relaxed loads only — no clock reads.
    fn flag_fired(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
            || self.parent.as_deref().is_some_and(Inner::flag_fired)
    }

    /// Burns `steps` of fuel and checks flags and deadlines up the
    /// chain, latching whichever level's deadline has passed or fuel
    /// has run out. Returns whether anything fired.
    fn poll(&self, steps: u64) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(fuel) = &self.fuel {
            let spend = |left: u64| Some(left.saturating_sub(steps));
            let before = fuel.fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend);
            if before.is_ok_and(|left| left <= steps) && steps > 0 {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        self.parent.as_deref().is_some_and(|parent| parent.poll(steps))
    }
}

impl CancelToken {
    /// A fresh token with no deadline; fires only via
    /// [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that self-cancels once `budget` of wall-clock time has
    /// elapsed (measured from this call) — checked lazily by
    /// [`CancelToken::poll_deadline`].
    #[must_use]
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken::at(Instant::now() + budget)
    }

    /// A token that self-cancels once `deadline` has passed.
    #[must_use]
    pub fn at(deadline: Instant) -> CancelToken {
        CancelToken::with_limits(Some(deadline), None)
    }

    /// A token that self-cancels once `steps` work steps have been
    /// spent through [`CancelToken::spend_and_poll`]. A zero budget
    /// fires at the first such poll.
    #[must_use]
    pub fn with_fuel(steps: u64) -> CancelToken {
        CancelToken::with_limits(None, Some(steps))
    }

    /// A token with an optional deadline and an optional step budget,
    /// firing on whichever runs out first.
    #[must_use]
    pub fn with_limits(deadline: Option<Instant>, fuel: Option<u64>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                fuel: fuel.map(AtomicU64::new),
                parent: None,
            }),
        }
    }

    /// A child token: fires when this token fires (cancellation and
    /// deadline both propagate down), but cancelling the child leaves
    /// this token and every sibling untouched.
    #[must_use]
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                fuel: None,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// A child token with its own wall-clock budget (measured from this
    /// call): fires when either the budget runs out **or** any ancestor
    /// fires — whichever comes first. This is the admission-control
    /// shape: the fleet holds the parent, each client gets a budgeted
    /// child, and an overrunning client sheds only its own work.
    #[must_use]
    pub fn child_with_deadline(&self, budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
                fuel: None,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Fires the token; every clone and every descendant observes the
    /// cancellation. Ancestors are unaffected.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token (or any ancestor) has fired. Relaxed atomic
    /// loads over the short parent chain — cheap enough for the
    /// innermost solver loop. Does **not** consult the wall clock; use
    /// [`CancelToken::poll_deadline`] at a coarser interval for that.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag_fired()
    }

    /// Checks the deadline of this token and every ancestor (where
    /// set), latching whichever level has passed its deadline. Returns
    /// whether the token has fired, from any cause. This is the
    /// per-check-interval call: at most one `Instant::now()` comparison
    /// per hierarchy level on top of the atomic loads.
    #[must_use]
    pub fn poll_deadline(&self) -> bool {
        self.inner.poll(0)
    }

    /// As [`CancelToken::poll_deadline`], first spending `steps` of
    /// fuel at this token and every ancestor that carries a step
    /// budget. Compute loops call this at their check interval with the
    /// steps run since their last poll; a budget that reaches zero
    /// latches the token cancelled.
    #[must_use]
    pub fn spend_and_poll(&self, steps: u64) -> bool {
        self.inner.poll(steps)
    }

    /// The configured deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(!token.poll_deadline(), "no deadline, no self-cancel");
        assert!(token.deadline().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(token.poll_deadline());
    }

    #[test]
    fn expired_deadline_latches_on_poll() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        // The wall-clock comparison only happens at poll time.
        assert!(token.poll_deadline());
        assert!(token.is_cancelled(), "deadline expiry is latched");
    }

    #[test]
    fn distant_deadline_does_not_fire() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.poll_deadline());
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_some());
    }

    #[test]
    fn explicit_cancel_beats_distant_deadline() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        token.cancel();
        assert!(token.poll_deadline());
    }

    #[test]
    fn parent_cancellation_reaches_children() {
        let fleet = CancelToken::new();
        let client = fleet.child();
        let trial = client.child();
        assert!(!trial.is_cancelled());
        fleet.cancel();
        assert!(client.is_cancelled(), "child observes parent flag");
        assert!(trial.is_cancelled(), "grandchild observes ancestor flag");
        assert!(trial.poll_deadline());
    }

    #[test]
    fn child_cancellation_never_escapes_upward_or_sideways() {
        let fleet = CancelToken::new();
        let overrunner = fleet.child();
        let sibling = fleet.child();
        overrunner.cancel();
        assert!(overrunner.is_cancelled());
        assert!(!fleet.is_cancelled(), "parent unaffected");
        assert!(!sibling.is_cancelled(), "sibling unaffected");
        assert!(!sibling.poll_deadline());
    }

    #[test]
    fn child_budget_latches_independently() {
        let fleet = CancelToken::new();
        let client = fleet.child_with_deadline(Duration::ZERO);
        assert!(client.poll_deadline(), "expired child budget fires");
        assert!(client.is_cancelled());
        assert!(!fleet.is_cancelled(), "budget overrun stays with the child");
    }

    #[test]
    fn fuel_fires_after_exactly_its_budget() {
        let token = CancelToken::with_fuel(96);
        assert!(!token.spend_and_poll(32));
        assert!(!token.spend_and_poll(32));
        assert!(!token.poll_deadline(), "a plain poll spends nothing");
        assert!(!token.is_cancelled());
        assert!(token.spend_and_poll(32), "the third interval empties the tank");
        assert!(token.is_cancelled(), "exhaustion is latched");
        assert!(token.poll_deadline());
    }

    #[test]
    fn zero_fuel_fires_at_the_first_spend() {
        let token = CancelToken::with_fuel(0);
        assert!(!token.poll_deadline(), "nothing spent yet");
        assert!(token.spend_and_poll(1));
    }

    #[test]
    fn fuel_and_deadline_fire_on_whichever_runs_out_first() {
        let far = Instant::now() + Duration::from_secs(3600);
        let token = CancelToken::with_limits(Some(far), Some(64));
        assert!(!token.spend_and_poll(32));
        assert!(token.spend_and_poll(32), "fuel beats the distant deadline");
        let late = CancelToken::with_limits(Some(Instant::now()), Some(1 << 40));
        assert!(late.spend_and_poll(32), "the expired deadline beats the fuel");
    }

    #[test]
    fn children_spend_their_ancestors_fuel() {
        let trial = CancelToken::with_fuel(64);
        let solve = trial.child();
        assert!(!solve.spend_and_poll(32));
        assert!(solve.spend_and_poll(32), "the parent's budget is shared");
        assert!(trial.is_cancelled());
    }

    #[test]
    fn parent_deadline_fires_child_polls() {
        let fleet = CancelToken::with_deadline(Duration::ZERO);
        let client = fleet.child_with_deadline(Duration::from_secs(3600));
        // The child's own budget is distant, but the parent's deadline
        // has already passed — the child's poll must observe it.
        assert!(client.poll_deadline());
        assert!(client.is_cancelled(), "parent deadline propagates to child");
    }
}

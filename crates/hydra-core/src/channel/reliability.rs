//! Channel reliability: delivery guarantees, ring admission, and the
//! retry policy consulted when a send finds every slot taken.
//!
//! Every send — single, batched prefix, or retried overflow message —
//! enters the ring through [`Channel::admit`], and every message turned
//! away leaves through [`Channel::refuse`], so the two data paths in
//! [`super::delivery`] and [`super::batching`] cannot disagree on who
//! gets in.

use hydra_obs::TraceCtx;
use hydra_sim::time::{SimDuration, SimTime};

use super::Channel;

/// Delivery guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reliability {
    /// Sends fail (rather than drop) when buffers are exhausted.
    Reliable,
    /// Sends drop silently when buffers are exhausted.
    Unreliable,
}

/// Bounded deterministic retry policy for sends that hit a full ring.
///
/// When a send finds every (open) endpoint queue at capacity, a channel
/// with retry enabled re-attempts at `backoff`, `2·backoff`, `4·backoff`…
/// after `now` — classic exponential backoff, but in *sim time*, so it is
/// byte-reproducible. An attempt succeeds once the descriptor-ring model
/// says slots have freed (payloads already consumed by the device side,
/// i.e. messages whose delivery instant has passed). The policy gives up
/// after `max_attempts` attempts or once the next attempt would land past
/// `now + timeout`, whichever comes first — the send then fails exactly
/// like it would without retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Retry attempts after the initial try; `0` disables retry.
    pub max_attempts: u32,
    /// Wait before the first retry; doubles on each further attempt.
    pub backoff: SimDuration,
    /// Per-send deadline: no attempt is made after `now + timeout`.
    pub timeout: SimDuration,
}

impl RetryPolicy {
    /// No retry: a full ring fails/drops immediately (the historical
    /// behavior, and the default).
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 0,
            backoff: SimDuration::ZERO,
            timeout: SimDuration::ZERO,
        }
    }

    /// A retry policy with the given bounds.
    pub const fn new(max_attempts: u32, backoff: SimDuration, timeout: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            backoff,
            timeout,
        }
    }

    /// Whether the policy retries at all.
    pub const fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Walks the backoff schedule after `now` and returns the first
    /// attempt instant at which `fits` holds, plus the attempts spent
    /// (1-based); `None` once the policy gives up.
    fn first_fit(&self, now: SimTime, fits: impl Fn(SimTime) -> bool) -> Option<(SimTime, u32)> {
        let deadline = now.saturating_add(self.timeout);
        let mut backoff = self.backoff;
        let mut attempt_at = now;
        for attempt in 1..=self.max_attempts {
            let next = attempt_at.saturating_add(backoff);
            if next > deadline || next == SimTime::MAX {
                // Past the per-send deadline — or pinned at the sim-time
                // ceiling, where the clock can no longer advance between
                // attempts and "later" does not exist.
                return None;
            }
            if attempt > 1 && next == attempt_at {
                // Backoff stagnated (saturated doubling): every further
                // attempt would land on this same instant. Give up
                // instead of burning the remaining attempts at it.
                return None;
            }
            attempt_at = next;
            if fits(attempt_at) {
                return Some((attempt_at, attempt));
            }
            backoff = SimDuration::from_nanos(backoff.as_nanos().saturating_mul(2));
        }
        None
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl Channel {
    /// Messages the ring accepts at once: the usable capacity minus the
    /// deepest open endpoint queue. Unbounded when no endpoint is open —
    /// there is no queue to overflow.
    pub(super) fn headroom(&self) -> usize {
        self.open_queues()
            .map(|q| q.len())
            .max()
            .map_or(usize::MAX, |deepest| {
                self.usable_capacity().saturating_sub(deepest)
            })
    }

    /// Decides whether one message enters the ring, and when: at `now`
    /// while there is [`Channel::headroom`], otherwise at the first
    /// instant of the configured [`RetryPolicy`]'s backoff at which a
    /// slot has freed. Returns the admission instant and the backoff
    /// attempts spent (zero when admitted at once), or `None` when the
    /// message must be [refused](Channel::refuse).
    pub(super) fn admit(&self, now: SimTime) -> Option<(SimTime, u32)> {
        if self.headroom() > 0 {
            return Some((now, 0));
        }
        let capacity = self.usable_capacity();
        // Descriptor-ring model: a slot frees once the device side has
        // consumed the payload, i.e. once a queued message's delivery
        // instant has passed (receiver-side buffering is the receiver's
        // business, not the ring's).
        let (at, attempts) = self.config.retry.first_fit(now, |at| {
            self.open_queues()
                .all(|q| q.iter().filter(|m| m.deliver_at > at).count() < capacity)
        })?;
        self.recorder.add(self.metrics.retries, u64::from(attempts));
        self.recorder.record(
            self.metrics.retry_wait_ns,
            at.as_nanos().saturating_sub(now.as_nanos()),
        );
        Some((at, attempts))
    }

    /// Terminal accounting for one message of `bytes` that
    /// [`Channel::admit`] turned away: a reject on a reliable channel, a
    /// counted drop on an unreliable one, each closing `ctx` with its
    /// own *drop* event. Returns the channel's reliability so the caller
    /// can report the outcome in its own shape.
    pub(super) fn refuse(&mut self, now: SimTime, bytes: u64, ctx: TraceCtx) -> Reliability {
        match self.config.reliability {
            Reliability::Reliable => {
                self.recorder.add(self.metrics.rejected, 1);
                self.recorder
                    .trace_drop(ctx, "channel.reject", self.metrics.label, 0, now, bytes);
            }
            Reliability::Unreliable => {
                self.stats.dropped += 1;
                self.recorder.add(self.metrics.dropped, 1);
                self.recorder.trace_drop(
                    ctx,
                    "channel.drop",
                    self.metrics.label,
                    self.target_pid(),
                    now,
                    bytes,
                );
            }
        }
        self.config.reliability
    }

    /// Wedges `slots` descriptor-ring slots (injected ring-exhaustion
    /// fault): the usable capacity becomes `capacity - slots`. Wedged
    /// slots belong to the live ring — they are swept when the last
    /// endpoint closes (teardown/migration) or when an endpoint re-opens
    /// on a fresh ring.
    pub fn set_wedged_slots(&mut self, slots: usize) {
        self.wedged_slots = slots;
    }

    /// Descriptor-ring slots currently wedged by injected faults.
    pub fn wedged_slots(&self) -> usize {
        self.wedged_slots
    }

    /// The ring capacity minus wedged slots.
    pub(super) fn usable_capacity(&self) -> usize {
        self.config.capacity.saturating_sub(self.wedged_slots)
    }
}

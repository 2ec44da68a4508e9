//! Channel batching: the vectored send/recv hot paths that amortize the
//! fixed per-doorbell charge over many messages.

use bytes::Bytes;
use hydra_sim::time::SimTime;

use super::{Channel, ChannelMessage, Reliability};

/// The vectored completion of a [`Channel::send_batch`]: what was
/// accepted (and when each accepted message delivers), what was turned
/// away, and when the ring goes idle again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSendOutcome {
    /// Delivery instant of each accepted message, in send order.
    pub delivered_at: Vec<SimTime>,
    /// Messages past the ring's headroom on a **reliable** channel
    /// (the batched analogue of [`super::ChannelError::WouldBlock`]).
    pub rejected: usize,
    /// Messages past the ring's headroom on an **unreliable** channel,
    /// dropped and counted exactly like the single path drops them.
    pub dropped: usize,
    /// Instant the last accepted payload clears the provider ring.
    pub complete_at: SimTime,
    /// Total backoff attempts spent by the channel's
    /// [`super::RetryPolicy`] to squeeze overflow messages in after all
    /// (zero without retry).
    pub retries: u64,
}

impl BatchSendOutcome {
    /// Number of messages accepted into the ring.
    pub fn accepted(&self) -> usize {
        self.delivered_at.len()
    }
}

impl Channel {
    /// Sends a batch of messages at `now` with a **single doorbell**.
    ///
    /// This is the batched hot path: the fixed per-message provider charge
    /// (descriptor handling + doorbell) is paid **once** for the whole
    /// batch, then payloads stream back-to-back at the provider's wire
    /// rate. Message *i* is delivered once the payloads up to and
    /// including it have cleared the ring, so FIFO order — and therefore
    /// observable delivery order — is identical to the equivalent sequence
    /// of single [`Channel::send`] calls, while the total sim time is
    /// strictly smaller for any batch of two or more messages.
    ///
    /// Observability is amortized the same way: one flight-recorder
    /// *send* event plus one provider *hop* event cover the whole batch
    /// (`channel.sent`/`channel.bytes` are bumped by batch totals, and
    /// `channel.batches`/`channel.batch_size` record the batching
    /// itself). Fault paths keep **per-message** accounting: every
    /// message that does not fit gets its own *drop* event
    /// (`channel.reject` on a reliable ring, `channel.drop` on an
    /// unreliable one) and its own counter bump, exactly like the single
    /// path.
    ///
    /// The outcome reports per-message delivery instants for the accepted
    /// prefix plus reject/drop counts for the rest; unlike single `send`
    /// a full reliable ring is not an `Err` but `rejected > 0`.
    pub fn send_batch(&mut self, now: SimTime, batch: &[Bytes]) -> BatchSendOutcome {
        let mut out = BatchSendOutcome {
            delivered_at: Vec::new(),
            rejected: 0,
            dropped: 0,
            complete_at: SimTime::ZERO,
            retries: 0,
        };
        self.send_batch_into(now, batch, &mut out);
        out
    }

    /// [`Channel::send_batch`], but reusing a caller-provided outcome.
    ///
    /// Semantically identical to `send_batch` — same admission, same
    /// delivery instants, same fault accounting — but the per-message
    /// `delivered_at` vector is cleared and refilled in place instead of
    /// freshly allocated, so a steady-state send loop that keeps one
    /// [`BatchSendOutcome`] around performs **zero heap allocations** per
    /// batch once the vector has grown to the working batch size (payload
    /// [`Bytes`] handles are refcounted clones, never copies, and every
    /// recorder update goes through handles resolved when the channel was
    /// created). `tests/alloc_free_hot_path.rs` pins the contract.
    pub fn send_batch_into(&mut self, now: SimTime, batch: &[Bytes], out: &mut BatchSendOutcome) {
        let start = self.busy_until.max(now);
        out.delivered_at.clear();
        out.rejected = 0;
        out.dropped = 0;
        out.complete_at = start;
        out.retries = 0;
        if batch.is_empty() {
            return;
        }
        let total_bytes: u64 = batch.iter().map(|m| m.len() as u64).sum();
        // A batch selects once, by its mean payload size (one doorbell,
        // one provider: a batch cannot straddle two rings).
        #[allow(clippy::cast_possible_truncation)]
        self.select_provider((total_bytes / batch.len() as u64) as usize);
        let ctx = self.recorder.trace_begin(
            "channel.send_batch",
            self.metrics.label,
            0,
            now,
            total_bytes,
        );
        // The prefix is exactly what `admit` lets in at `now`, one
        // message per slot of headroom — all behind one doorbell.
        let accepted = batch.len().min(self.headroom());
        out.delivered_at.reserve(accepted);
        if accepted > 0 {
            let last = self.enqueue_run(now, now, &batch[..accepted], ctx, "provider.batch", |t| {
                out.delivered_at.push(t);
            });
            self.recorder.add(self.metrics.batches, 1);
            self.recorder
                .record(self.metrics.batch_size, accepted as u64);
            self.recorder.record(
                self.metrics.latency_ns,
                last.as_nanos().saturating_sub(now.as_nanos()),
            );
            self.note_backlog_high_water();
        }
        // Everything past the headroom: with a retry policy each message
        // gets its own deterministic backoff chance to squeeze in (paying
        // its own doorbell — a retried message is effectively a late
        // single send); what still doesn't fit is refused per message,
        // exactly like the single path.
        for msg in &batch[accepted..] {
            match self.admit(now) {
                Some((at, attempts)) => {
                    out.retries += u64::from(attempts);
                    self.enqueue_run(
                        now,
                        at,
                        std::slice::from_ref(msg),
                        ctx,
                        "provider.retry",
                        |t| out.delivered_at.push(t),
                    );
                }
                None => match self.refuse(now, msg.len() as u64, ctx) {
                    Reliability::Reliable => out.rejected += 1,
                    Reliability::Unreliable => out.dropped += 1,
                },
            }
        }
        out.complete_at = self.busy_until.max(start);
        self.publish_queue_depth();
    }

    /// Receives up to `max` messages visible at `now` on endpoint `ep` —
    /// the vectored completion side of the batched data path.
    ///
    /// Message ordering and per-message trace closure are identical to
    /// repeated [`Channel::recv`] calls; only the counter updates are
    /// aggregated into a single `channel.received` bump per batch.
    pub fn recv_batch(&mut self, now: SimTime, ep: usize, max: usize) -> Vec<ChannelMessage> {
        if !self.endpoint_open(ep) {
            return Vec::new();
        }
        let Some(q) = self.queues.get_mut(ep) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while out.len() < max {
            if q.front().is_none_or(|m| m.deliver_at > now) {
                break;
            }
            out.push(q.pop_front().expect("front just checked"));
        }
        if out.is_empty() {
            return out;
        }
        self.publish_queue_depth();
        self.stats.received += out.len() as u64;
        self.recorder.add(self.metrics.received, out.len() as u64);
        for msg in &mut out {
            msg.trace = self.recorder.trace_recv(
                msg.trace,
                "channel.recv",
                self.metrics.label,
                self.target_pid(),
                now,
                msg.data.len() as u64,
            );
        }
        out
    }
}

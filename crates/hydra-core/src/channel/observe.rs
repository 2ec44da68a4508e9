//! Channel observability: per-channel counters, the live cost profile,
//! the queue-depth level track, and the recorder handles every
//! per-message update goes through.

use std::collections::{BTreeMap, VecDeque};

use hydra_obs::{CounterId, GaugeId, HistId, Histogram, Recorder, TraceLabel};
use hydra_sim::time::SimDuration;

use super::Channel;

/// Level-track name for per-channel descriptor-ring occupancy: the
/// deepest open endpoint queue, sampled into telemetry windows by the
/// shared recorder (labeled `chan#N`).
pub const CHANNEL_QUEUE_DEPTH: &str = "channel.queue_depth";

/// Live cost profile of one channel: what communicating through it has
/// *actually* cost so far, as opposed to the provider's advertised
/// [`super::ChannelCost`].
///
/// Latencies are measured from the caller's `now` to the message's
/// delivery instant, so queueing behind earlier messages and retry
/// backoff are included — this is the observed price, not the unloaded
/// one. Messages are binned by payload size into power-of-two buckets
/// (bucket `B` covers sizes in `(B/2, B]`), each bucket holding a
/// latency [`Histogram`] so p50/p99 per size class fall out of
/// [`Histogram::quantile`]. The fixed per-message charge paid at each
/// doorbell accumulates separately as launch overhead — the channel
/// analogue of kernel-launch cost.
#[derive(Debug, Clone, Default)]
pub struct CostProfile {
    messages: u64,
    bytes: u64,
    doorbells: u64,
    launch_overhead_ns: u64,
    ewma_latency_ns: u64,
    first_send_ns: Option<u64>,
    last_delivery_ns: u64,
    by_size: BTreeMap<u64, Histogram>,
}

impl CostProfile {
    /// The power-of-two size bucket a payload of `bytes` falls into
    /// (its upper bound; zero-length payloads share the 1-byte bucket).
    pub fn size_bucket(bytes: usize) -> u64 {
        (bytes.max(1) as u64).next_power_of_two()
    }

    pub(super) fn record(&mut self, send_ns: u64, bytes: u64, latency_ns: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.ewma_latency_ns = if self.messages == 1 {
            latency_ns
        } else {
            // Integer EWMA with alpha = 1/8: old weight 7/8, new 1/8.
            (7 * self.ewma_latency_ns + latency_ns) / 8
        };
        if self.first_send_ns.is_none() {
            self.first_send_ns = Some(send_ns);
        }
        self.last_delivery_ns = self.last_delivery_ns.max(send_ns + latency_ns);
        self.by_size
            .entry(Self::size_bucket(bytes as usize))
            .or_default()
            .record(latency_ns);
    }

    pub(super) fn doorbell(&mut self, per_message: SimDuration) {
        self.doorbells += 1;
        self.launch_overhead_ns += per_message.as_nanos();
    }

    /// Messages delivered through the channel.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Payload bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Doorbells rung (single sends, batch submissions, and per-message
    /// retry admissions each pay one).
    pub fn doorbells(&self) -> u64 {
        self.doorbells
    }

    /// Accumulated fixed per-message charge across all doorbells.
    pub fn launch_overhead_ns(&self) -> u64 {
        self.launch_overhead_ns
    }

    /// Exponentially-weighted moving average of observed latency
    /// (alpha 1/8), in nanoseconds. Zero before the first message.
    pub fn ewma_latency_ns(&self) -> u64 {
        self.ewma_latency_ns
    }

    /// Observed payload throughput over the channel's active span
    /// (first send to last delivery), in bytes per second. `None` until
    /// the span is non-empty.
    pub fn throughput_bytes_per_sec(&self) -> Option<u64> {
        let first = self.first_send_ns?;
        let span = self.last_delivery_ns.checked_sub(first)?;
        if span == 0 {
            return None;
        }
        #[allow(clippy::cast_possible_truncation)]
        Some(((u128::from(self.bytes) * 1_000_000_000) / u128::from(span)) as u64)
    }

    /// The size buckets seen so far, ascending: `(upper bound bytes,
    /// latency histogram)`.
    pub fn size_buckets(&self) -> impl Iterator<Item = (u64, &Histogram)> {
        self.by_size.iter().map(|(&b, h)| (b, h))
    }

    /// The latency histogram of the bucket a payload of `bytes` falls
    /// into, if any message of that class has been delivered.
    pub fn latency_for(&self, bytes: usize) -> Option<&Histogram> {
        self.by_size.get(&Self::size_bucket(bytes))
    }
}

/// One provider's recorder handles: every metric and trace label the
/// send/recv paths update, resolved once for the label `provider` when
/// the channel is created. An adaptive channel holds one set per
/// candidate and swaps sets with the provider, so each update lands
/// under the provider that carried the message.
#[derive(Debug, Clone, Copy)]
pub(super) struct ProviderMetrics {
    pub(super) label: TraceLabel,
    pub(super) sent: CounterId,
    pub(super) bytes: CounterId,
    pub(super) received: CounterId,
    pub(super) batches: CounterId,
    pub(super) retries: CounterId,
    pub(super) rejected: CounterId,
    pub(super) dropped: CounterId,
    pub(super) latency_ns: HistId,
    pub(super) batch_size: HistId,
    pub(super) retry_wait_ns: HistId,
    pub(super) backlog_high_water: GaugeId,
}

impl ProviderMetrics {
    /// Resolves the handle set for `provider` on `rec`.
    pub(super) fn resolve(rec: &Recorder, provider: &str) -> Self {
        ProviderMetrics {
            label: rec.trace_label(provider),
            sent: rec.counter_id("channel.sent", provider),
            bytes: rec.counter_id("channel.bytes", provider),
            received: rec.counter_id("channel.received", provider),
            batches: rec.counter_id("channel.batches", provider),
            retries: rec.counter_id("channel.retries", provider),
            rejected: rec.counter_id("channel.rejected", provider),
            dropped: rec.counter_id("channel.dropped", provider),
            latency_ns: rec.hist_id("channel.latency_ns", provider),
            batch_size: rec.hist_id("channel.batch_size", provider),
            retry_wait_ns: rec.hist_id("channel.retry_wait_ns", provider),
            backlog_high_water: rec.gauge_id("channel.backlog_high_water", provider),
        }
    }
}

/// Per-channel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Messages accepted for delivery.
    pub sent: u64,
    /// Messages consumed by receivers.
    pub received: u64,
    /// Messages dropped (unreliable channel, ring full).
    pub dropped: u64,
    /// Payload bytes accepted.
    pub bytes: u64,
}

impl Channel {
    /// Publishes the deepest open endpoint queue as the channel's
    /// [`CHANNEL_QUEUE_DEPTH`] level track.
    pub(super) fn publish_queue_depth(&self) {
        let depth = self.open_queues().map(VecDeque::len).max().unwrap_or(0);
        self.recorder.set(self.depth, depth as u64);
    }

    /// Raises `channel.backlog_high_water` to the deepest endpoint
    /// queue.
    pub(super) fn note_backlog_high_water(&self) {
        let backlog = self.queues.iter().map(VecDeque::len).max().unwrap_or(0);
        self.recorder
            .raise(self.metrics.backlog_high_water, backlog as u64);
    }
}

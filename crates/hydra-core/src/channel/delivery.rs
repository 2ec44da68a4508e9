//! Channel delivery: configuration, provider cost models, the
//! single-message send/recv data path, and the ring enqueue every send
//! shares.
//!
//! Everything in this module is about moving messages from a sender to
//! the endpoint queues of a channel — serialization on the pipe,
//! delivery instants, and the causal trace chain. Every accepted
//! message, single or batched, enters the queues through
//! [`Channel::enqueue_run`]; admission and ring-full fallout live in
//! [`super::reliability`], the vectored paths in [`super::batching`].

use std::collections::VecDeque;
use std::fmt;

use bytes::Bytes;
use hydra_obs::TraceCtx;
use hydra_sim::time::{SimDuration, SimTime};

use crate::device::DeviceId;

use super::{Channel, ChannelMessage, RetryPolicy};

/// Channel transport type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Exactly two endpoints.
    Unicast,
    /// One sender, many receivers.
    Multicast,
}

/// Synchronization guarantee for handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncPolicy {
    /// Handlers see messages in send order, one at a time.
    Sequential,
    /// Handlers may run concurrently (no ordering guarantee).
    Concurrent,
}

/// Buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// Direct read/write: the device DMAs straight from/to pinned
    /// application memory; the host CPU never touches the bytes.
    ZeroCopy,
    /// Staged through an intermediate kernel buffer (one CPU copy each
    /// way).
    Copied,
}

/// Full channel configuration (the `ChannelConfig` of the paper's
/// Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelConfig {
    /// Transport type.
    pub transport: Transport,
    /// Delivery guarantee.
    pub reliability: super::Reliability,
    /// Synchronization guarantee.
    pub sync: SyncPolicy,
    /// Buffer management.
    pub buffering: Buffering,
    /// Ring capacity in messages.
    pub capacity: usize,
    /// The device hosting the far endpoint.
    pub target: DeviceId,
    /// Retry/backoff policy applied when the ring is full.
    pub retry: RetryPolicy,
}

impl ChannelConfig {
    /// The configuration from the paper's Figure 3: reliable unicast,
    /// sequential synchronization, zero-copy read/write.
    pub fn figure3(target: DeviceId) -> Self {
        ChannelConfig {
            transport: Transport::Unicast,
            reliability: super::Reliability::Reliable,
            sync: SyncPolicy::Sequential,
            buffering: Buffering::ZeroCopy,
            capacity: 64,
            target,
            retry: RetryPolicy::none(),
        }
    }

    /// The default OOB-channel configuration: unreliable, copied, small.
    pub fn oob(target: DeviceId) -> Self {
        ChannelConfig {
            transport: Transport::Unicast,
            reliability: super::Reliability::Reliable,
            sync: SyncPolicy::Sequential,
            buffering: Buffering::Copied,
            capacity: 16,
            target,
            retry: RetryPolicy::none(),
        }
    }

    /// Builder-style retry policy override.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A provider's cost metric for a channel.
///
/// The fixed cost of a message splits into two explicit parts, after
/// *Taming Offload Overheads*: `per_message` is the host-side work that
/// can never be avoided (descriptor/word preparation), while
/// `launch_overhead` is the offload-launch charge — the MMIO doorbell
/// write plus the device's engine-start cost. PIO-style providers drive
/// every word from the CPU over the coherent interconnect and have no
/// launch at all; DMA-style providers pay it per doorbell; async
/// double-buffered providers ([`ChannelCost::coalesce_launch`]) hide it
/// behind an in-flight transfer whenever the pipe is already busy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelCost {
    /// One-time endpoint construction cost.
    pub setup: SimDuration,
    /// Fixed host-side cost per message (descriptor or word setup).
    pub per_message: SimDuration,
    /// Offload-launch charge per doorbell (MMIO write + engine start);
    /// zero for CPU-driven providers that never ring one.
    pub launch_overhead: SimDuration,
    /// Async double-buffered amortization: when the pipe is already
    /// busy, the launch overlaps the in-flight transfer and is not
    /// charged again (the next doorbell is pre-armed while the engine
    /// drains the previous buffer).
    pub coalesce_launch: bool,
    /// Sustained payload throughput in bytes per second.
    pub bytes_per_sec: u64,
}

impl ChannelCost {
    /// A cost metric with the launch charge folded into `per_message`
    /// (the historical shape: every send pays the full fixed cost).
    pub const fn basic(setup: SimDuration, per_message: SimDuration, bytes_per_sec: u64) -> Self {
        ChannelCost {
            setup,
            per_message,
            launch_overhead: SimDuration::ZERO,
            coalesce_launch: false,
            bytes_per_sec,
        }
    }

    /// Unloaded end-to-end latency for one message of `bytes` (idle
    /// pipe: the launch overhead is always paid).
    pub fn latency(&self, bytes: usize) -> SimDuration {
        self.per_message + self.launch_overhead + self.wire_time(bytes)
    }

    /// Marginal latency for one message of `bytes` on a saturated pipe:
    /// a coalescing provider hides the launch behind the in-flight
    /// transfer, everyone else still pays it.
    pub fn streaming_latency(&self, bytes: usize) -> SimDuration {
        self.per_message + self.launch_if(false) + self.wire_time(bytes)
    }

    /// Latency of one message of `bytes` given whether the pipe was
    /// idle when the send was admitted.
    pub fn send_latency(&self, bytes: usize, pipe_idle: bool) -> SimDuration {
        self.per_message + self.launch_if(pipe_idle) + self.wire_time(bytes)
    }

    /// The full fixed charge paid at a doorbell rung on an idle/busy
    /// pipe — what the [`super::CostProfile`] accumulates as launch
    /// overhead.
    pub fn launch_charge(&self, pipe_idle: bool) -> SimDuration {
        self.per_message + self.launch_if(pipe_idle)
    }

    /// The launch overhead actually charged for the given pipe state.
    fn launch_if(&self, pipe_idle: bool) -> SimDuration {
        if self.coalesce_launch && !pipe_idle {
            SimDuration::ZERO
        } else {
            self.launch_overhead
        }
    }

    /// Pure payload transfer time for `bytes`, excluding the fixed
    /// per-message (doorbell + descriptor handling) charge.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        let wire = (bytes as u128 * 1_000_000_000).div_ceil(u128::from(self.bytes_per_sec));
        SimDuration::from_nanos(wire as u64)
    }

    /// Effective delivered throughput for back-to-back messages of
    /// `bytes` each, in bytes per second — the fixed charges folded
    /// into the wire rate. This is the size-dependent "bus price" the
    /// ILP layout objective consumes.
    pub fn effective_throughput(&self, bytes: usize) -> u64 {
        let ns = self.streaming_latency(bytes).as_nanos().max(1);
        #[allow(clippy::cast_possible_truncation)]
        {
            ((bytes as u128 * 1_000_000_000) / u128::from(ns)) as u64
        }
    }
}

/// A device-specific channel factory with a cost model.
pub trait ChannelProvider: fmt::Debug {
    /// Provider name for diagnostics.
    fn name(&self) -> &str;

    /// Whether this provider can realize `config`.
    fn supports(&self, config: &ChannelConfig) -> bool;

    /// The price of a channel with this configuration.
    fn cost(&self, config: &ChannelConfig) -> ChannelCost;
}

/// The zero-copy DMA descriptor-ring provider of §4.1 (for device
/// targets).
#[derive(Debug, Clone)]
pub struct ZeroCopyDmaProvider;

impl ChannelProvider for ZeroCopyDmaProvider {
    fn name(&self) -> &'static str {
        "zero-copy-dma"
    }

    fn supports(&self, config: &ChannelConfig) -> bool {
        !config.target.is_host() && config.buffering == Buffering::ZeroCopy
    }

    fn cost(&self, config: &ChannelConfig) -> ChannelCost {
        ChannelCost {
            setup: SimDuration::from_micros(120), // ring + shared region setup
            per_message: SimDuration::from_micros(1), // descriptor prep
            // Synchronous launch: the doorbell MMIO write + DMA engine
            // start is paid on every send (batches still amortize it to
            // one charge per submission).
            launch_overhead: SimDuration::from_micros(2),
            coalesce_launch: false,
            bytes_per_sec: match config.transport {
                Transport::Unicast => 500_000_000,
                Transport::Multicast => 400_000_000,
            },
        }
    }
}

/// A staging-buffer provider: works for any target, costs a copy.
#[derive(Debug, Clone)]
pub struct KernelCopyProvider;

impl ChannelProvider for KernelCopyProvider {
    fn name(&self) -> &'static str {
        "kernel-copy"
    }

    fn supports(&self, _config: &ChannelConfig) -> bool {
        true
    }

    fn cost(&self, config: &ChannelConfig) -> ChannelCost {
        // Syscall + staging copy dominate; there is no device doorbell,
        // so the whole fixed cost is per-message host work.
        ChannelCost::basic(
            SimDuration::from_micros(30),
            SimDuration::from_micros(9),
            if config.target.is_host() {
                1_500_000_000
            } else {
                250_000_000
            },
        )
    }
}

/// Identifier of a live channel.
///
/// Dense `u32` ids, handed out monotonically by the executive (never
/// reused — channel ids appear in resource names and traces, so reuse
/// would alias history). The executive's channel table is a `Vec`
/// indexed by [`ChannelId::idx`], so the send/recv hot path does array
/// indexing instead of hash lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The id as a `Vec` index into channel-side tables.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan#{}", self.0)
    }
}

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// No provider supports the requested configuration.
    NoProvider,
    /// A reliable channel's ring is full; retry after draining.
    WouldBlock,
    /// Unknown channel id.
    NoSuchChannel(ChannelId),
    /// Attaching more endpoints than the transport allows.
    TooManyEndpoints,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::NoProvider => f.write_str("no channel provider supports this config"),
            ChannelError::WouldBlock => f.write_str("channel ring full (reliable channel)"),
            ChannelError::NoSuchChannel(id) => write!(f, "no such channel {id}"),
            ChannelError::TooManyEndpoints => f.write_str("unicast channel already connected"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl Channel {
    /// Number of attached receiving endpoints (open or closed).
    pub fn endpoints(&self) -> usize {
        self.queues.len()
    }

    /// Number of endpoints still open.
    pub fn open_endpoints(&self) -> usize {
        self.closed.iter().filter(|&&c| !c).count()
    }

    /// Whether endpoint `ep` exists and is open.
    pub fn endpoint_open(&self, ep: usize) -> bool {
        self.closed.get(ep).is_some_and(|&c| !c)
    }

    /// Closes endpoint `ep`: queued messages get their traces terminated
    /// with a `channel.endpoint_closed` drop event, and the endpoint
    /// receives nothing from then on (its index stays allocated so other
    /// endpoints keep their positions). Returns `false` if the endpoint
    /// does not exist or is already closed.
    pub fn close_endpoint(&mut self, ep: usize) -> bool {
        if !self.endpoint_open(ep) {
            return false;
        }
        let q = &mut self.queues[ep];
        for msg in q.drain(..) {
            self.recorder.trace_drop(
                msg.trace,
                "channel.endpoint_closed",
                self.metrics.label,
                u64::from(self.config.target.0),
                msg.deliver_at,
                msg.data.len() as u64,
            );
        }
        self.closed[ep] = true;
        if self.open_endpoints() == 0 {
            // The last consumer is gone and the descriptor ring it owned
            // is torn down with it — wedged slots do not outlive the
            // ring (a re-opened endpoint starts from a fresh ring).
            self.wedged_slots = 0;
        }
        self.recorder
            .counter_incr("channel.endpoint_closed", &self.provider_name);
        self.publish_queue_depth();
        true
    }

    /// Queues of open endpoints.
    pub(super) fn open_queues(&self) -> impl Iterator<Item = &VecDeque<ChannelMessage>> {
        self.queues
            .iter()
            .zip(&self.closed)
            .filter(|&(_, &c)| !c)
            .map(|(q, _)| q)
    }

    /// Installs a dispatch handler marker (paper Figure 3:
    /// `InstallCallHandler`). The runtime invokes handlers instead of
    /// requiring the application to poll.
    pub fn install_handler(&mut self) {
        self.handler_installed = true;
    }

    /// Whether a dispatch handler is installed.
    pub fn has_handler(&self) -> bool {
        self.handler_installed
    }

    /// Attaches a receiving endpoint (the runtime's `ConnectOffcode`).
    ///
    /// # Errors
    ///
    /// Unicast channels accept exactly one endpoint.
    pub fn connect_endpoint(&mut self) -> Result<usize, ChannelError> {
        if self.config.transport == Transport::Unicast && !self.queues.is_empty() {
            return Err(ChannelError::TooManyEndpoints);
        }
        if !self.queues.is_empty() && self.open_endpoints() == 0 {
            // Re-opening after every endpoint closed rebuilds the ring
            // from scratch; slots wedged in the old ring are gone.
            self.wedged_slots = 0;
        }
        self.queues.push(VecDeque::new());
        self.closed.push(false);
        Ok(self.queues.len() - 1)
    }

    /// The device id used as the trace "pid" for this channel's far end.
    pub(super) fn target_pid(&self) -> u64 {
        u64::from(self.config.target.0)
    }

    /// Sends a message at `now`, returning its delivery instant.
    ///
    /// Multicast delivers to every endpoint in one send (hardware
    /// multicast: the cost is charged once, per the paper's note).
    ///
    /// Every send mints a [`TraceCtx`]: a *send* event on the host, then
    /// — if the message is accepted — a *hop* event on the target device
    /// as the payload enters the provider's queue/descriptor ring. Lost
    /// or rejected messages close their trace with a *drop* event, so a
    /// fault is visible as an unterminated-by-recv chain, not silence.
    ///
    /// # Errors
    ///
    /// [`ChannelError::WouldBlock`] on a full reliable channel. On a full
    /// unreliable channel the message is counted as dropped and `Ok` is
    /// returned with the nominal delivery time. With a [`RetryPolicy`]
    /// configured, a full ring first backs off deterministically; only
    /// when every attempt inside the policy's bounds still finds the ring
    /// full does the send fail (or drop) as above.
    pub fn send(&mut self, now: SimTime, data: Bytes) -> Result<SimTime, ChannelError> {
        self.select_provider(data.len());
        let bytes = data.len() as u64;
        let ctx = self
            .recorder
            .trace_begin("channel.send", self.metrics.label, 0, now, bytes);
        let Some((admit_at, _)) = self.admit(now) else {
            return match self.refuse(now, bytes, ctx) {
                super::Reliability::Reliable => Err(ChannelError::WouldBlock),
                super::Reliability::Unreliable => {
                    Ok(self.busy_until.max(now) + self.cost.latency(data.len()))
                }
            };
        };
        let deliver_at = self.enqueue_run(
            now,
            admit_at,
            std::slice::from_ref(&data),
            ctx,
            "provider.hop",
            |_| {},
        );
        self.recorder.record(
            self.metrics.latency_ns,
            deliver_at.as_nanos().saturating_sub(now.as_nanos()),
        );
        self.note_backlog_high_water();
        self.publish_queue_depth();
        Ok(deliver_at)
    }

    /// Rings one doorbell for the run `msgs`, admitted at `admit_at` by
    /// a send issued at `now`: the one place the send side enqueues.
    ///
    /// The run starts once the pipe is free and its payloads stream
    /// back-to-back: message *i* delivers when the bytes up to and
    /// including it have cleared the ring. One hop trace event named
    /// `hop` covers the run and stamps every queued copy; the cost
    /// profile is charged one launch and sampled once per message; the
    /// stats and the `channel.sent`/`channel.bytes` counters move by the
    /// run's totals. Each delivery instant goes to `delivered` in order,
    /// and the last one is returned.
    pub(super) fn enqueue_run(
        &mut self,
        now: SimTime,
        admit_at: SimTime,
        msgs: &[Bytes],
        ctx: TraceCtx,
        hop: &'static str,
        mut delivered: impl FnMut(SimTime),
    ) -> SimTime {
        debug_assert!(!msgs.is_empty(), "a run carries at least one message");
        let run_bytes: u64 = msgs.iter().map(|m| m.len() as u64).sum();
        let start = self.busy_until.max(admit_at);
        // Idle pipe: the doorbell must actually start the engine. Busy
        // pipe: a coalescing (double-buffered) provider pre-armed the
        // launch while the previous transfer drained.
        let pipe_idle = self.busy_until <= admit_at;
        let ctx = self.recorder.trace_hop(
            ctx,
            hop,
            self.metrics.label,
            self.target_pid(),
            start,
            run_bytes,
        );
        self.profile.doorbell(self.cost.launch_charge(pipe_idle));
        let mut cum_bytes = 0;
        for msg in msgs {
            cum_bytes += msg.len();
            let deliver_at = start + self.cost.send_latency(cum_bytes, pipe_idle);
            self.profile.record(
                now.as_nanos(),
                msg.len() as u64,
                deliver_at.as_nanos().saturating_sub(now.as_nanos()),
            );
            for (q, &closed) in self.queues.iter_mut().zip(&self.closed) {
                if !closed {
                    q.push_back(ChannelMessage {
                        data: msg.clone(),
                        deliver_at,
                        trace: ctx,
                    });
                }
            }
            self.busy_until = deliver_at;
            delivered(deliver_at);
        }
        let count = msgs.len() as u64;
        self.stats.sent += count;
        self.stats.bytes += run_bytes;
        self.recorder.add(self.metrics.sent, count);
        self.recorder.add(self.metrics.bytes, run_bytes);
        self.busy_until
    }

    /// Receives the oldest message visible at `now` on endpoint `ep`.
    ///
    /// The returned message's [`ChannelMessage::trace`] is advanced to
    /// the *recv* event, so the receiver can continue the causal chain
    /// into device-side work.
    pub fn recv(&mut self, now: SimTime, ep: usize) -> Option<ChannelMessage> {
        if !self.endpoint_open(ep) {
            return None;
        }
        let q = self.queues.get_mut(ep)?;
        if q.front().is_some_and(|m| m.deliver_at <= now) {
            self.stats.received += 1;
            self.recorder.add(self.metrics.received, 1);
            let mut msg = q.pop_front()?;
            self.publish_queue_depth();
            msg.trace = self.recorder.trace_recv(
                msg.trace,
                "channel.recv",
                self.metrics.label,
                self.target_pid(),
                now,
                msg.data.len() as u64,
            );
            Some(msg)
        } else {
            None
        }
    }

    /// Closes every still-queued message's trace with a *drop* event
    /// (used when the channel is destroyed with messages in flight).
    pub(super) fn drop_pending(&mut self) {
        for q in &mut self.queues {
            for msg in q.drain(..) {
                self.recorder.trace_drop(
                    msg.trace,
                    "channel.destroyed",
                    self.metrics.label,
                    u64::from(self.config.target.0),
                    msg.deliver_at,
                    msg.data.len() as u64,
                );
            }
        }
        self.publish_queue_depth();
    }

    /// Polls whether endpoint `ep` has a visible message at `now` (the
    /// channel API's `poll`).
    pub fn poll(&self, now: SimTime, ep: usize) -> bool {
        self.endpoint_open(ep)
            && self
                .queues
                .get(ep)
                .and_then(|q| q.front())
                .is_some_and(|m| m.deliver_at <= now)
    }

    /// Messages queued (visible or not) on endpoint `ep`.
    pub fn backlog(&self, ep: usize) -> usize {
        self.queues.get(ep).map_or(0, |q| q.len())
    }
}

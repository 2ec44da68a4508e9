//! Channels: the communication pathways between Offcodes (paper §3.2,
//! §4.1).
//!
//! A channel is created in two steps — configure + create the local
//! endpoint, then attach the target Offcode, which implicitly constructs
//! the far endpoint. Channels are typed by transport (unicast/multicast),
//! reliability, synchronization and buffering policy. Device-specific
//! **channel providers** actually realize a channel and advertise a cost
//! metric ("the 'price' for communicating with the device through a
//! specific channel, in terms of latency and throughput"); the **Channel
//! Executive** picks the cheapest capable provider.
//!
//! The layer is split by concern: `delivery` holds configuration,
//! provider cost models and the ring enqueue; `reliability` the
//! delivery guarantees, ring admission and retry backoff;
//! `batching` the vectored hot paths; `observe` counters and the
//! live cost profile; `adaptive` online provider selection. The
//! public API is re-exported flat from this module, so callers are
//! oblivious to the split.

mod adaptive;
mod batching;
mod delivery;
mod observe;
mod reliability;

pub use adaptive::AdaptivePolicy;
pub use batching::BatchSendOutcome;
pub use delivery::{
    Buffering, ChannelConfig, ChannelCost, ChannelError, ChannelId, ChannelProvider,
    KernelCopyProvider, SyncPolicy, Transport, ZeroCopyDmaProvider,
};
pub use observe::{ChannelStats, CostProfile, CHANNEL_QUEUE_DEPTH};
pub use reliability::{Reliability, RetryPolicy};

use std::collections::VecDeque;

use bytes::Bytes;
use hydra_obs::{LevelId, Recorder, TraceCtx};
use hydra_sim::time::{SimDuration, SimTime};

use crate::device::DeviceId;

use adaptive::AdaptiveState;
use observe::ProviderMetrics;

/// A message in flight on a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMessage {
    /// Serialized payload (usually an encoded `Call`).
    pub data: Bytes,
    /// When the message becomes visible at the receiver.
    pub deliver_at: SimTime,
    /// Causal trace stamp: minted at `send`, advanced through the
    /// provider hop, positioned at the `recv` event once received — so
    /// post-receive device work can keep extending the chain.
    pub trace: TraceCtx,
}

/// One live channel.
#[derive(Debug)]
pub struct Channel {
    id: ChannelId,
    config: ChannelConfig,
    provider_name: String,
    cost: ChannelCost,
    /// Next instant the pipe is free (per-channel serialization).
    busy_until: SimTime,
    /// One queue per receiving endpoint.
    queues: Vec<VecDeque<ChannelMessage>>,
    /// Parallel to `queues`: endpoints closed by teardown keep their
    /// index (so other endpoints stay stable) but receive nothing.
    closed: Vec<bool>,
    /// Descriptor-ring slots wedged by injected ring-exhaustion faults;
    /// subtracted from the configured capacity.
    wedged_slots: usize,
    stats: ChannelStats,
    profile: CostProfile,
    /// Online per-bucket provider selection; `None` on a classic
    /// fixed-provider channel.
    adaptive: Option<AdaptiveState>,
    /// The current provider's recorder handles.
    metrics: ProviderMetrics,
    /// The channel's [`CHANNEL_QUEUE_DEPTH`] level track (`chan#N`).
    depth: LevelId,
    handler_installed: bool,
    recorder: Recorder,
}

impl Channel {
    /// The channel id.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The chosen provider's name.
    pub fn provider_name(&self) -> &str {
        &self.provider_name
    }

    /// The provider's cost metric.
    pub fn cost(&self) -> ChannelCost {
        self.cost
    }

    /// The counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// The live cost profile: observed latency by size bucket, EWMA
    /// latency, throughput, and accumulated launch overhead.
    pub fn cost_profile(&self) -> &CostProfile {
        &self.profile
    }
}

/// The Channel Executive: provider registry + channel table.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hydra_core::channel::{ChannelConfig, ChannelExecutive};
/// use hydra_core::device::DeviceId;
/// use hydra_sim::time::SimTime;
///
/// let mut exec = ChannelExecutive::with_default_providers();
/// let id = exec.create_channel(ChannelConfig::figure3(DeviceId(1))).unwrap();
/// exec.get_mut(id).unwrap().connect_endpoint().unwrap();
/// let t = exec
///     .get_mut(id).unwrap()
///     .send(SimTime::ZERO, Bytes::from_static(b"call"))
///     .unwrap();
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Default)]
pub struct ChannelExecutive {
    providers: Vec<Box<dyn ChannelProvider>>,
    /// Parallel to `providers`: each provider's recorder handles, resolved
    /// on its first channel and kept until the recorder changes.
    metrics: Vec<Option<ProviderMetrics>>,
    /// Dense channel table indexed by [`ChannelId::idx`]. Ids are handed
    /// out monotonically and never reused; destroyed channels leave a
    /// `None` slot behind.
    channels: Vec<Option<Channel>>,
    live: usize,
    recorder: Recorder,
}

impl ChannelExecutive {
    /// Creates an executive with no providers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an executive with the built-in providers registered.
    pub fn with_default_providers() -> Self {
        let mut e = Self::new();
        e.register_provider(Box::new(ZeroCopyDmaProvider));
        e.register_provider(Box::new(KernelCopyProvider));
        e
    }

    /// Registers a provider (typically from a device driver).
    pub fn register_provider(&mut self, provider: Box<dyn ChannelProvider>) {
        self.providers.push(provider);
        self.metrics.push(None);
    }

    /// Installs the recorder every subsequently created channel reports
    /// into (the runtime shares its own recorder this way). Handles
    /// resolved on the previous recorder are dropped.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
        self.metrics.fill(None);
    }

    /// Provider `i`'s recorder handles, resolved on first use.
    fn provider_metrics(&mut self, i: usize) -> ProviderMetrics {
        *self.metrics[i].get_or_insert_with(|| {
            ProviderMetrics::resolve(&self.recorder, self.providers[i].name())
        })
    }

    /// The index of the supporting provider with the lowest latency for
    /// a nominal 1 kB message (the first such, on a tie).
    fn cheapest(&self, config: &ChannelConfig) -> Result<usize, ChannelError> {
        self.providers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.supports(config))
            .min_by_key(|(_, p)| p.cost(config).latency(1024))
            .map(|(i, _)| i)
            .ok_or(ChannelError::NoProvider)
    }

    /// The executive's recorder handle.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Every capable provider's bid for `config`, in registration order:
    /// the advertised cost plus the 1 kB-message latency the executive
    /// ranks bids by.
    pub fn quotes(&self, config: &ChannelConfig) -> Vec<(String, ChannelCost, SimDuration)> {
        self.providers
            .iter()
            .filter(|p| p.supports(config))
            .map(|p| {
                let cost = p.cost(config);
                (p.name().to_owned(), cost, cost.latency(1024))
            })
            .collect()
    }

    /// Exports the provider family as `hydra-verify`'s static
    /// [`ServiceTable`](hydra_verify::ServiceTable), probed against the
    /// Figure-3 NIC channel shape. This is the *only* path certification
    /// costs come from: the table is derived from the same
    /// [`ChannelProvider::cost`] implementations the executive's auction
    /// and the adaptive per-bucket selection use, so the static analysis
    /// and the runtime can never disagree on costs.
    pub fn service_table(&self) -> hydra_verify::ServiceTable {
        let probe = ChannelConfig::figure3(DeviceId(1));
        let providers = self
            .providers
            .iter()
            .filter(|p| p.supports(&probe))
            .map(|p| {
                let cost = p.cost(&probe);
                hydra_verify::ServiceModel {
                    provider: p.name().to_owned(),
                    setup_ns: cost.setup.as_nanos(),
                    per_message_ns: cost.per_message.as_nanos(),
                    launch_overhead_ns: cost.launch_overhead.as_nanos(),
                    coalesce_launch: cost.coalesce_launch,
                    bytes_per_sec: cost.bytes_per_sec,
                }
            })
            .collect();
        hydra_verify::ServiceTable {
            providers,
            adaptive: true,
            ring_capacity: probe.capacity as u64,
            device_ns_per_msg: hydra_verify::service::DEVICE_NS_PER_MSG,
            device_bytes_per_sec: hydra_verify::service::DEVICE_BYTES_PER_SEC,
        }
    }

    /// Creates a channel, selecting the supporting provider with the
    /// lowest latency for a nominal 1 kB message.
    ///
    /// # Errors
    ///
    /// Fails when no provider supports the configuration.
    pub fn create_channel(&mut self, config: ChannelConfig) -> Result<ChannelId, ChannelError> {
        let best = self.cheapest(&config)?;
        Ok(self.add_channel(config, best, None))
    }

    /// Creates a channel pinned to the named provider, bypassing the
    /// cost auction — the benchmarking/pinning API behind the crossover
    /// sweeps (each provider measured in isolation).
    ///
    /// # Errors
    ///
    /// Fails when no provider of that name supports the configuration.
    pub fn create_channel_forced(
        &mut self,
        config: ChannelConfig,
        provider: &str,
    ) -> Result<ChannelId, ChannelError> {
        let chosen = self
            .providers
            .iter()
            .position(|p| p.name() == provider && p.supports(&config))
            .ok_or(ChannelError::NoProvider)?;
        Ok(self.add_channel(config, chosen, None))
    }

    /// Creates a **cost-adaptive** channel: every supporting provider
    /// stays a live candidate, and each message-size bucket re-selects
    /// among them online from the channel's [`CostProfile`] under
    /// `policy` (see [`AdaptivePolicy`] for the deterministic
    /// hysteresis rules). The initial provider is the same static
    /// argmin [`ChannelExecutive::create_channel`] would pick.
    ///
    /// # Errors
    ///
    /// Fails when no provider supports the configuration.
    pub fn create_channel_adaptive(
        &mut self,
        config: ChannelConfig,
        policy: AdaptivePolicy,
    ) -> Result<ChannelId, ChannelError> {
        let best = self.cheapest(&config)?;
        self.recorder
            .counter_incr("channel.adaptive_created", self.providers[best].name());
        let (mut candidates, mut metrics) = (Vec::new(), Vec::new());
        for i in 0..self.providers.len() {
            let p = &self.providers[i];
            if p.supports(&config) {
                candidates.push((p.name().to_owned(), p.cost(&config)));
                metrics.push(self.provider_metrics(i));
            }
        }
        let adaptive = AdaptiveState::new(candidates, metrics, policy);
        Ok(self.add_channel(config, best, Some(adaptive)))
    }

    /// Adds a channel served by provider `provider` and counts the
    /// selection: the tail every `create_channel*` variant shares.
    fn add_channel(
        &mut self,
        config: ChannelConfig,
        provider: usize,
        adaptive: Option<AdaptiveState>,
    ) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        let p = &self.providers[provider];
        let (provider_name, cost) = (p.name().to_owned(), p.cost(&config));
        self.recorder
            .counter_incr("channel.provider_selected", &provider_name);
        let metrics = self.provider_metrics(provider);
        self.channels.push(Some(Channel {
            id,
            config,
            provider_name,
            cost,
            busy_until: SimTime::ZERO,
            queues: Vec::new(),
            closed: Vec::new(),
            wedged_slots: 0,
            stats: ChannelStats::default(),
            profile: CostProfile::default(),
            metrics,
            depth: self.recorder.level_id(CHANNEL_QUEUE_DEPTH, &id.to_string()),
            adaptive,
            handler_installed: false,
            recorder: self.recorder.clone(),
        }));
        self.live += 1;
        id
    }

    /// The live channel ids, in ascending id order — a deterministic
    /// iteration order for whole-executive sweeps (fault propagation,
    /// teardown audits).
    pub fn ids(&self) -> Vec<ChannelId> {
        self.channels
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| ChannelId(i as u32)))
            .collect()
    }

    /// Shared access to a channel.
    pub fn get(&self, id: ChannelId) -> Option<&Channel> {
        self.channels.get(id.idx()).and_then(Option::as_ref)
    }

    /// Exclusive access to a channel.
    pub fn get_mut(&mut self, id: ChannelId) -> Option<&mut Channel> {
        self.channels.get_mut(id.idx()).and_then(Option::as_mut)
    }

    /// Destroys a channel, returning whether it existed. Undelivered
    /// messages get a *drop* trace event so their chains terminate
    /// visibly rather than dangling. The id's table slot is retired, not
    /// recycled.
    pub fn destroy(&mut self, id: ChannelId) -> bool {
        match self.channels.get_mut(id.idx()).and_then(Option::take) {
            Some(mut ch) => {
                ch.drop_pending();
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Number of live channels.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no channels are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> ChannelExecutive {
        ChannelExecutive::with_default_providers()
    }

    #[test]
    fn a_new_recorder_gets_its_own_handles() {
        // Handles index the slots of the recorder that resolved them: the
        // first recorder's would touch slots the second lacks or that
        // name other series.
        let mut e = exec();
        let first = e.create_channel(ChannelConfig::oob(DeviceId(1))).unwrap();
        e.get_mut(first).unwrap().connect_endpoint().unwrap();
        let second = Recorder::new();
        e.set_recorder(second.clone());
        let id = e.create_channel(ChannelConfig::oob(DeviceId(1))).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"call")).unwrap();
        let snap = second.snapshot();
        assert_eq!(snap.counter("channel.sent", "kernel-copy"), Some(1));
        assert_eq!(snap.counter("channel.bytes", "kernel-copy"), Some(4));
    }

    #[test]
    fn executive_picks_cheapest_provider() {
        let mut e = exec();
        // Zero-copy to a device: the DMA provider wins.
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        assert_eq!(e.get(id).unwrap().provider_name(), "zero-copy-dma");
        // Copied buffering: only the kernel provider supports it.
        let id2 = e.create_channel(ChannelConfig::oob(DeviceId(1))).unwrap();
        assert_eq!(e.get(id2).unwrap().provider_name(), "kernel-copy");
    }

    #[test]
    fn no_provider_is_an_error() {
        let mut e = ChannelExecutive::new();
        assert_eq!(
            e.create_channel(ChannelConfig::figure3(DeviceId(1))),
            Err(ChannelError::NoProvider)
        );
    }

    #[test]
    fn service_table_pins_the_conservative_default() {
        // The table the executive exports from its live providers must
        // agree byte-for-byte with the conservative default the verifier
        // falls back to — if a provider's ChannelCost changes, both this
        // test and the default must move together, keeping the analysis
        // and the runtime on one cost table.
        let mut e = ChannelExecutive::with_default_providers();
        crate::providers::install_extras(&mut e);
        assert_eq!(
            e.service_table(),
            hydra_verify::ServiceTable::conservative_default()
        );
    }

    #[test]
    fn send_and_receive_in_order() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let t1 = ch.send(SimTime::ZERO, Bytes::from_static(b"one")).unwrap();
        let t2 = ch.send(SimTime::ZERO, Bytes::from_static(b"two")).unwrap();
        assert!(t2 > t1, "messages serialize on the channel");
        // Not visible before delivery time.
        assert!(ch.recv(SimTime::ZERO, ep).is_none());
        assert!(!ch.poll(SimTime::ZERO, ep));
        let m1 = ch.recv(t1, ep).unwrap();
        assert_eq!(&m1.data[..], b"one");
        let m2 = ch.recv(t2, ep).unwrap();
        assert_eq!(&m2.data[..], b"two");
        assert_eq!(ch.stats().sent, 2);
        assert_eq!(ch.stats().received, 2);
    }

    #[test]
    fn reliable_full_ring_blocks() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.capacity = 2;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"b")).unwrap();
        assert_eq!(
            ch.send(SimTime::ZERO, Bytes::from_static(b"c")),
            Err(ChannelError::WouldBlock)
        );
        // Draining unblocks.
        let t = SimTime::from_secs(1);
        ch.recv(t, 0).unwrap();
        assert!(ch.send(t, Bytes::from_static(b"c")).is_ok());
    }

    #[test]
    fn unreliable_full_ring_drops() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.capacity = 1;
        cfg.reliability = Reliability::Unreliable;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"b")).unwrap();
        assert_eq!(ch.stats().dropped, 1);
        assert_eq!(ch.stats().sent, 1);
    }

    #[test]
    fn unicast_allows_single_endpoint() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        assert_eq!(ch.connect_endpoint(), Err(ChannelError::TooManyEndpoints));
    }

    #[test]
    fn multicast_fans_out_with_single_charge() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.transport = Transport::Multicast;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep0 = ch.connect_endpoint().unwrap();
        let ep1 = ch.connect_endpoint().unwrap();
        let t = ch.send(SimTime::ZERO, Bytes::from_static(b"x")).unwrap();
        assert_eq!(ch.stats().sent, 1, "one send covers all endpoints");
        assert!(ch.recv(t, ep0).is_some());
        assert!(ch.recv(t, ep1).is_some());
    }

    #[test]
    fn latency_scales_with_size() {
        let cost = ZeroCopyDmaProvider.cost(&ChannelConfig::figure3(DeviceId(1)));
        assert!(cost.latency(1_000_000) > cost.latency(100) * 10);
    }

    #[test]
    fn handler_installation_flag() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        assert!(!e.get(id).unwrap().has_handler());
        e.get_mut(id).unwrap().install_handler();
        assert!(e.get(id).unwrap().has_handler());
    }

    #[test]
    fn destroy_removes_channel() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        assert!(e.destroy(id));
        assert!(!e.destroy(id));
        assert!(e.get(id).is_none());
        assert!(e.is_empty());
    }

    fn payloads(n: usize, bytes: usize) -> Vec<Bytes> {
        (0..n).map(|i| Bytes::from(vec![i as u8; bytes])).collect()
    }

    #[test]
    fn batched_send_beats_singles_in_sim_time() {
        let cfg = ChannelConfig::figure3(DeviceId(1));
        let mut e = exec();
        let single = e.create_channel(cfg).unwrap();
        let batched = e.create_channel(cfg).unwrap();
        e.get_mut(single).unwrap().connect_endpoint().unwrap();
        e.get_mut(batched).unwrap().connect_endpoint().unwrap();
        let msgs = payloads(8, 1024);
        let mut last_single = SimTime::ZERO;
        for m in &msgs {
            last_single = e
                .get_mut(single)
                .unwrap()
                .send(SimTime::ZERO, m.clone())
                .unwrap();
        }
        let outcome = e.get_mut(batched).unwrap().send_batch(SimTime::ZERO, &msgs);
        assert_eq!(outcome.accepted(), 8);
        // One doorbell instead of eight: exactly 7 fixed charges
        // (descriptor prep + launch overhead) saved.
        let cost = e.get(single).unwrap().cost();
        let fixed = cost.per_message + cost.launch_overhead;
        assert_eq!(outcome.complete_at + fixed * 7, last_single);
    }

    #[test]
    fn batch_delivery_matches_single_path_order() {
        let cfg = ChannelConfig::figure3(DeviceId(1));
        let mut e = exec();
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let msgs = payloads(5, 64);
        let outcome = ch.send_batch(SimTime::ZERO, &msgs);
        // Delivery instants are strictly increasing (FIFO preserved).
        for w in outcome.delivered_at.windows(2) {
            assert!(w[0] < w[1]);
        }
        let got = ch.recv_batch(outcome.complete_at, ep, usize::MAX);
        assert_eq!(got.len(), 5);
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m.data, msgs[i]);
        }
        assert_eq!(ch.stats().sent, 5);
        assert_eq!(ch.stats().received, 5);
    }

    #[test]
    fn send_batch_into_reuses_buffer_and_matches_send_batch() {
        let mk = || {
            let mut e = exec();
            let mut cfg = ChannelConfig::figure3(DeviceId(1));
            cfg.capacity = 4;
            let id = e.create_channel(cfg).unwrap();
            (e, id)
        };
        let (mut e1, id1) = mk();
        let (mut e2, id2) = mk();
        e1.get_mut(id1).unwrap().connect_endpoint().unwrap();
        e2.get_mut(id2).unwrap().connect_endpoint().unwrap();

        let mut reused = BatchSendOutcome {
            delivered_at: Vec::new(),
            rejected: 0,
            dropped: 0,
            complete_at: SimTime::ZERO,
            retries: 0,
        };
        // Same channel state, same batches: the reusing path must produce
        // outcome-identical results to the allocating path, round after
        // round, without the vector ever shrinking (steady state = no
        // allocation once it has grown to the working batch size).
        for round in 0..4u64 {
            let msgs = payloads(6, 32 + round as usize);
            let now = SimTime::from_micros(round * 50);
            let fresh = e1.get_mut(id1).unwrap().send_batch(now, &msgs);
            e2.get_mut(id2)
                .unwrap()
                .send_batch_into(now, &msgs, &mut reused);
            assert_eq!(reused, fresh, "round {round}");
            assert!(reused.delivered_at.capacity() >= reused.accepted());
            let cap = reused.delivered_at.capacity();
            // Drain both so the next round starts from identical state.
            for (e, id) in [(&mut e1, id1), (&mut e2, id2)] {
                let ch = e.get_mut(id).unwrap();
                ch.recv_batch(fresh.complete_at, 0, usize::MAX);
            }
            e2.get_mut(id2).unwrap().send_batch_into(
                SimTime::from_micros(round * 50 + 25),
                &[],
                &mut reused,
            );
            assert_eq!(reused.accepted(), 0);
            assert_eq!(
                reused.delivered_at.capacity(),
                cap,
                "clear() keeps the buffer"
            );
        }
    }

    #[test]
    fn reliable_batch_rejects_overflow_with_per_message_drops() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.capacity = 3;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        let outcome = ch.send_batch(SimTime::ZERO, &payloads(5, 16));
        assert_eq!(outcome.accepted(), 3);
        assert_eq!(outcome.rejected, 2);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(ch.stats().sent, 3);
        let snap = e.recorder().snapshot();
        assert_eq!(snap.counter_total("channel.rejected"), 2);
        let drops = snap.events_kind("drop");
        assert_eq!(drops.len(), 2, "one drop event per rejected message");
        assert!(drops.iter().all(|d| d.name == "channel.reject"));
    }

    #[test]
    fn unreliable_batch_drops_overflow_and_counts() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(2));
        cfg.capacity = 2;
        cfg.reliability = Reliability::Unreliable;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        let outcome = ch.send_batch(SimTime::ZERO, &payloads(6, 16));
        assert_eq!(
            (outcome.accepted(), outcome.rejected, outcome.dropped),
            (2, 0, 4)
        );
        assert_eq!(ch.stats().dropped, 4);
        let snap = e.recorder().snapshot();
        assert_eq!(snap.counter_total("channel.dropped"), 4);
        assert_eq!(snap.events_kind("drop").len(), 4);
    }

    #[test]
    fn batch_amortizes_flight_events_and_aggregates_counters() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(3)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let outcome = ch.send_batch(SimTime::ZERO, &payloads(8, 128));
        ch.recv_batch(outcome.complete_at, ep, usize::MAX);
        let snap = e.recorder().snapshot();
        // One send + one hop event for the whole batch...
        assert_eq!(snap.events_kind("send").len(), 1);
        assert_eq!(snap.events_kind("hop").len(), 1);
        // ...but chain closure stays per message.
        assert_eq!(snap.events_kind("recv").len(), 8);
        assert_eq!(snap.counter_total("channel.sent"), 8);
        assert_eq!(snap.counter_total("channel.bytes"), 8 * 128);
        assert_eq!(snap.counter_total("channel.batches"), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        let outcome = ch.send_batch(SimTime::from_micros(5), &[]);
        assert_eq!(outcome.accepted(), 0);
        assert_eq!(outcome.complete_at, SimTime::from_micros(5));
        assert!(e.recorder().snapshot().events.is_empty());
    }

    #[test]
    fn recv_batch_respects_visibility_and_max() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let outcome = ch.send_batch(SimTime::ZERO, &payloads(4, 32));
        // Nothing visible before the first delivery.
        assert!(ch.recv_batch(SimTime::ZERO, ep, usize::MAX).is_empty());
        // Only the first two visible at the second delivery instant.
        let t2 = outcome.delivered_at[1];
        assert_eq!(ch.recv_batch(t2, ep, usize::MAX).len(), 2);
        // `max` caps the dequeue even when more is visible.
        assert_eq!(ch.recv_batch(outcome.complete_at, ep, 1).len(), 1);
        assert_eq!(ch.backlog(ep), 1);
    }

    #[test]
    fn retry_backoff_admits_once_ring_drains() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1)).with_retry(RetryPolicy::new(
            4,
            SimDuration::from_micros(10),
            SimDuration::from_millis(1),
        ));
        cfg.capacity = 2;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        let t1 = ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        let t2 = ch.send(SimTime::ZERO, Bytes::from_static(b"b")).unwrap();
        assert!(t2 > t1);
        // Ring full at ZERO — but both slots free once the device has
        // consumed the payloads (deliver instants pass), so backoff
        // eventually admits the third send instead of blocking.
        let t3 = ch.send(SimTime::ZERO, Bytes::from_static(b"c")).unwrap();
        assert!(t3 > t2, "retried send delivers after the earlier ones");
        assert_eq!(ch.stats().sent, 3);
        let snap = e.recorder().snapshot();
        assert!(snap.counter_total("channel.retries") >= 1);
        assert_eq!(snap.counter_total("channel.rejected"), 0);
    }

    #[test]
    fn retry_timeout_still_blocks() {
        let mut e = exec();
        // Backoff instants: 10us, 30us, 70us… but the ring only frees
        // after its in-flight payloads deliver (several microseconds per
        // message) — with a 1us timeout no attempt fits.
        let mut cfg = ChannelConfig::figure3(DeviceId(1)).with_retry(RetryPolicy::new(
            3,
            SimDuration::from_micros(10),
            SimDuration::from_micros(1),
        ));
        cfg.capacity = 1;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            ch.send(SimTime::ZERO, Bytes::from_static(b"b")),
            Err(ChannelError::WouldBlock)
        );
        let snap = e.recorder().snapshot();
        assert_eq!(snap.counter_total("channel.retries"), 0);
        assert_eq!(snap.counter_total("channel.rejected"), 1);
    }

    #[test]
    fn retry_saturation_at_the_sim_ceiling_gives_up_cleanly() {
        let mut e = exec();
        // Backoff and timeout so large that every attempt instant (and
        // the deadline itself) saturates to SimTime::MAX. The old
        // behavior scheduled attempt after attempt at that one pinned
        // instant — and could "admit" a send at a point the clock can
        // never reach, overflowing the delivery computation.
        let mut cfg = ChannelConfig::figure3(DeviceId(1)).with_retry(RetryPolicy::new(
            6,
            SimDuration::from_nanos(u64::MAX / 2),
            SimDuration::MAX,
        ));
        cfg.capacity = 1;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        // Fill the single ring slot early; the message stays queued.
        ch.send(SimTime::from_millis(1), Bytes::from_static(b"a"))
            .unwrap();
        let near_ceiling = SimTime::from_nanos(u64::MAX - 1_000);
        assert_eq!(
            ch.send(near_ceiling, Bytes::from_static(b"b")),
            Err(ChannelError::WouldBlock),
            "saturated backoff gives up instead of burning attempts at the ceiling"
        );
        let snap = e.recorder().snapshot();
        assert_eq!(snap.counter_total("channel.retries"), 0);
        assert_eq!(snap.counter_total("channel.rejected"), 1);
    }

    #[test]
    fn wedged_slots_sweep_with_the_ring() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.transport = Transport::Multicast;
        cfg.capacity = 4;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep0 = ch.connect_endpoint().unwrap();
        ch.set_wedged_slots(3);
        assert_eq!(ch.wedged_slots(), 3);
        // Closing the last endpoint tears the ring down — and the wedge
        // with it (the historical bug left it pinned forever).
        assert!(ch.close_endpoint(ep0));
        assert_eq!(ch.wedged_slots(), 0);
        // A wedge applied while dormant dies when a fresh endpoint
        // re-opens on a rebuilt ring.
        ch.set_wedged_slots(2);
        let ep1 = ch.connect_endpoint().unwrap();
        assert_eq!(ch.wedged_slots(), 0);
        // Full configured capacity is usable again.
        let mut last = SimTime::ZERO;
        for i in 0..4u8 {
            last = ch.send(SimTime::ZERO, Bytes::from(vec![i; 8])).unwrap();
        }
        assert_eq!(ch.backlog(ep1), 4);
        assert_eq!(ch.recv_batch(last, ep1, usize::MAX).len(), 4);
    }

    #[test]
    fn batch_overflow_retries_surface_in_outcome() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1)).with_retry(RetryPolicy::new(
            8,
            SimDuration::from_micros(20),
            SimDuration::from_millis(10),
        ));
        cfg.capacity = 3;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        let outcome = ch.send_batch(SimTime::ZERO, &payloads(5, 16));
        // 3 fit the headroom; the 2 overflow messages back off and get in.
        assert_eq!(outcome.accepted(), 5);
        assert_eq!(outcome.rejected, 0);
        assert!(
            outcome.retries >= 2,
            "retries surfaced: {}",
            outcome.retries
        );
        assert_eq!(ch.stats().sent, 5);
        // Without retry the same batch rejects the overflow and reports
        // zero retries.
        cfg.retry = RetryPolicy::none();
        let id2 = e.create_channel(cfg).unwrap();
        let ch2 = e.get_mut(id2).unwrap();
        ch2.connect_endpoint().unwrap();
        let outcome2 = ch2.send_batch(SimTime::ZERO, &payloads(5, 16));
        assert_eq!(
            (outcome2.accepted(), outcome2.rejected, outcome2.retries),
            (3, 2, 0)
        );
    }

    #[test]
    fn retry_is_deterministic() {
        let run = || {
            let mut e = exec();
            let mut cfg = ChannelConfig::figure3(DeviceId(1)).with_retry(RetryPolicy::new(
                5,
                SimDuration::from_micros(7),
                SimDuration::from_millis(2),
            ));
            cfg.capacity = 2;
            let id = e.create_channel(cfg).unwrap();
            let ch = e.get_mut(id).unwrap();
            ch.connect_endpoint().unwrap();
            let mut ts = Vec::new();
            for i in 0..6u8 {
                ts.push(ch.send(SimTime::ZERO, Bytes::from(vec![i; 64])).ok());
            }
            ts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cost_profile_tracks_observed_prices() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        assert_eq!(ch.cost_profile().messages(), 0);
        assert_eq!(ch.cost_profile().ewma_latency_ns(), 0);
        assert!(ch.cost_profile().throughput_bytes_per_sec().is_none());
        // Two size classes: small control messages and large payloads.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now = ch.send(now, Bytes::from(vec![0u8; 100])).unwrap();
        }
        for _ in 0..5 {
            now = ch.send(now, Bytes::from(vec![0u8; 60_000])).unwrap();
        }
        ch.recv_batch(now, ep, usize::MAX);
        let p = ch.cost_profile();
        assert_eq!(p.messages(), 15);
        assert_eq!(p.bytes(), 10 * 100 + 5 * 60_000);
        assert_eq!(p.doorbells(), 15);
        let fixed = ch.cost().launch_charge(true).as_nanos();
        assert_eq!(p.launch_overhead_ns(), 15 * fixed);
        // Each send was issued at the previous delivery instant, so the
        // observed latency is the unloaded cost — and the size classes
        // land in distinct buckets with distinct quantiles.
        let small = p.latency_for(100).unwrap();
        let large = p.latency_for(60_000).unwrap();
        assert_eq!(small.count(), 10);
        assert_eq!(large.count(), 5);
        assert!(large.p50().unwrap() > small.p99().unwrap());
        assert_eq!(CostProfile::size_bucket(100), 128);
        assert_eq!(CostProfile::size_bucket(60_000), 65_536);
        assert_eq!(CostProfile::size_bucket(0), 1);
        assert!(p.ewma_latency_ns() > 0);
        assert!(p.throughput_bytes_per_sec().unwrap() > 0);
        let buckets: Vec<u64> = p.size_buckets().map(|(b, _)| b).collect();
        assert_eq!(buckets, vec![128, 65_536]);
    }

    #[test]
    fn batch_pays_one_launch_overhead_charge() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send_batch(SimTime::ZERO, &payloads(8, 256));
        let p = ch.cost_profile();
        assert_eq!(p.messages(), 8);
        assert_eq!(p.doorbells(), 1, "one doorbell for the whole batch");
        assert_eq!(
            p.launch_overhead_ns(),
            ch.cost().launch_charge(true).as_nanos()
        );
    }

    #[test]
    fn queue_depth_level_rises_and_drains() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let mut last = SimTime::ZERO;
        for i in 0..3u8 {
            last = ch.send(SimTime::ZERO, Bytes::from(vec![i; 64])).unwrap();
        }
        e.recorder().sample_window(SimTime::from_millis(1));
        e.get_mut(id).unwrap().recv_batch(last, ep, usize::MAX);
        e.recorder().sample_window(SimTime::from_millis(2));
        let snap = e.recorder().snapshot();
        assert_eq!(
            snap.windows[0].level(CHANNEL_QUEUE_DEPTH, "chan#0"),
            Some(3)
        );
        assert_eq!(
            snap.windows[1].level(CHANNEL_QUEUE_DEPTH, "chan#0"),
            Some(0)
        );
    }

    #[test]
    fn closed_endpoint_receives_nothing_and_drops_queued() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(1)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let t = ch.send(SimTime::ZERO, Bytes::from_static(b"x")).unwrap();
        assert!(ch.close_endpoint(ep));
        assert!(!ch.close_endpoint(ep), "double close is a no-op");
        assert!(!ch.endpoint_open(ep));
        assert_eq!(ch.open_endpoints(), 0);
        assert!(ch.recv(t, ep).is_none());
        assert!(!ch.poll(t, ep));
        assert!(ch.recv_batch(t, ep, usize::MAX).is_empty());
        // The queued message's trace terminated with a drop event.
        let snap = e.recorder().snapshot();
        let drops = snap.events_kind("drop");
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].name, "channel.endpoint_closed");
        assert_eq!(snap.counter_total("channel.endpoint_closed"), 1);
    }

    #[test]
    fn wedged_slots_shrink_the_ring() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.capacity = 4;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.set_wedged_slots(3);
        ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            ch.send(SimTime::ZERO, Bytes::from_static(b"b")),
            Err(ChannelError::WouldBlock),
            "capacity 4 minus 3 wedged slots leaves room for one"
        );
    }

    #[test]
    fn send_recv_emits_connected_trace_chain() {
        let mut e = exec();
        let id = e
            .create_channel(ChannelConfig::figure3(DeviceId(3)))
            .unwrap();
        let ch = e.get_mut(id).unwrap();
        let ep = ch.connect_endpoint().unwrap();
        let t = ch.send(SimTime::ZERO, Bytes::from_static(b"call")).unwrap();
        ch.recv(t, ep).unwrap();
        let snap = e.recorder().snapshot();
        let sends = snap.events_kind("send");
        let hops = snap.events_kind("hop");
        let recvs = snap.events_kind("recv");
        assert_eq!((sends.len(), hops.len(), recvs.len()), (1, 1, 1));
        // One connected chain: send -> hop -> recv.
        assert_eq!(hops[0].parent, Some(sends[0].id));
        assert_eq!(recvs[0].parent, Some(hops[0].id));
        assert!(sends
            .iter()
            .chain(&hops)
            .chain(&recvs)
            .all(|e| e.trace == sends[0].trace));
        // The chain spans host (pid 0) and the target device (pid 3).
        assert_eq!(sends[0].device, 0);
        assert_eq!(hops[0].device, 3);
        assert_eq!(recvs[0].device, 3);
    }

    #[test]
    fn rejected_send_closes_trace_with_drop() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(1));
        cfg.capacity = 1;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            ch.send(SimTime::ZERO, Bytes::from_static(b"b")),
            Err(ChannelError::WouldBlock)
        );
        let snap = e.recorder().snapshot();
        let drops = snap.events_kind("drop");
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].name, "channel.reject");
        assert_eq!(
            snap.counter("channel.rejected", "zero-copy-dma"),
            Some(1),
            "reliable rejection has its own counter"
        );
    }

    #[test]
    fn unreliable_drop_and_destroy_close_traces() {
        let mut e = exec();
        let mut cfg = ChannelConfig::figure3(DeviceId(2));
        cfg.capacity = 1;
        cfg.reliability = Reliability::Unreliable;
        let id = e.create_channel(cfg).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"a")).unwrap();
        ch.send(SimTime::ZERO, Bytes::from_static(b"b")).unwrap();
        // Destroy with "a" still queued: its trace must also terminate.
        e.destroy(id);
        let snap = e.recorder().snapshot();
        let drops = snap.events_kind("drop");
        assert_eq!(drops.len(), 2);
        assert_eq!(drops[0].name, "channel.drop");
        assert_eq!(drops[1].name, "channel.destroyed");
        // Every minted trace ends in a terminal event (recv or drop).
        for send in snap.events_kind("send") {
            let chain = snap.trace_events(send.trace);
            let last = chain.last().unwrap();
            assert!(last.kind == "recv" || last.kind == "drop");
        }
    }
}

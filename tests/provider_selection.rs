//! Property tests for the cost-adaptive provider selection: online
//! auctions must be byte-reproducible, bracketed by the static
//! providers, and predictable when the profile is cold.

use std::collections::BTreeMap;

use bytes::Bytes;
use hydra::core::channel::{
    AdaptivePolicy, ChannelConfig, ChannelProvider, KernelCopyProvider, ZeroCopyDmaProvider,
};
use hydra::core::device::DeviceId;
use hydra::core::providers::{
    install_cost_adaptive, install_extras, DoorbellBatchProvider, PioProvider,
};
use hydra::core::ChannelExecutive;
use hydra::sim::fault::{FaultKind, FaultPlan};
use hydra::sim::time::{SimDuration, SimTime};
use hydra_tivo::demo::demo_deployment;
use proptest::prelude::*;

/// Message sizes the generators draw from: spans all three regimes.
const SIZES: &[usize] = &[64, 256, 1024, 4096, 16_384, 65_536];

/// One generated traffic step: a size index and the gap to the next
/// send, in nanoseconds.
type Step = (usize, u64);

/// Replays `traffic` (under `plan`, if any) on a fresh demo runtime's
/// adaptive channel and returns a full transcript: per-send outcomes,
/// the final provider, the switch count, and the complete metrics
/// snapshot JSON (which embeds the channel cost profiles).
fn adaptive_transcript(traffic: &[Step], plan: Option<&FaultPlan>) -> String {
    let mut rt = demo_deployment();
    install_extras(rt.executive_mut());
    if let Some(p) = plan {
        rt.install_fault_plan(p);
    }
    let chan = rt
        .executive_mut()
        .create_channel_adaptive(
            ChannelConfig::figure3(DeviceId(1)),
            AdaptivePolicy::default(),
        )
        .expect("adaptive channel on the NIC");
    let ep = {
        let ch = rt.executive_mut().get_mut(chan).expect("channel is live");
        ch.connect_endpoint().expect("fresh channel has room")
    };

    let mut transcript = String::new();
    let mut now = SimTime::ZERO;
    for &(size_idx, gap_ns) in traffic {
        let size = SIZES[size_idx % SIZES.len()];
        // Health pulses propagate ring wedging from the fault plan.
        if plan.is_some() {
            let _ = rt.pulse(now);
        }
        let ch = rt.executive_mut().get_mut(chan).expect("channel is live");
        match ch.send(now, Bytes::from(vec![0x3Cu8; size])) {
            Ok(at) => transcript.push_str(&format!("ok {size} {}\n", at.as_nanos())),
            Err(e) => {
                transcript.push_str(&format!("err {size} {e:?}\n"));
                // A wedged ring stays full until delivered messages
                // drain; pull what is already deliverable.
                let drained = ch.recv_batch(now, ep, usize::MAX).len();
                transcript.push_str(&format!("drained {drained}\n"));
            }
        }
        now = now.saturating_add(SimDuration::from_nanos(gap_ns));
    }
    let ch = rt.executive_mut().get_mut(chan).expect("channel is live");
    transcript.push_str(&format!(
        "final {} switches {}\n",
        ch.provider_name(),
        ch.provider_switches()
    ));
    transcript.push_str(&rt.metrics_snapshot().to_json());
    transcript
}

/// The unloaded-latency argmin over the adaptive candidate set, with
/// the registration-order tie-break — what a cold bucket must pick.
fn static_default_for(cfg: &ChannelConfig, bytes: usize) -> &'static str {
    let quotes: Vec<(&'static str, u64)> = vec![
        (
            "zero-copy-dma",
            ZeroCopyDmaProvider.cost(cfg).latency(bytes).as_nanos(),
        ),
        (
            "kernel-copy",
            KernelCopyProvider.cost(cfg).latency(bytes).as_nanos(),
        ),
        (
            "pio",
            PioProvider::coherent_interconnect()
                .cost(cfg)
                .latency(bytes)
                .as_nanos(),
        ),
        (
            "doorbell-batch",
            DoorbellBatchProvider.cost(cfg).latency(bytes).as_nanos(),
        ),
    ];
    let best = quotes.iter().map(|&(_, l)| l).min().unwrap();
    quotes.iter().find(|&&(_, l)| l == best).unwrap().0
}

/// Builds the case's fault plan: none, a firmware stall, or a wedged
/// ring on the NIC, from three scalar draws (the vendored proptest shim
/// has no tuple strategies).
fn fault_plan_for(kind: usize, at_ns: u64, magnitude: u64) -> Option<FaultPlan> {
    let at = SimTime::from_nanos(at_ns);
    match kind {
        0 => None,
        1 => Some(FaultPlan::new(7).with_event(
            at,
            1,
            FaultKind::Stall {
                duration: SimDuration::from_micros(1 + magnitude % 50),
            },
        )),
        _ => Some(FaultPlan::new(7).with_event(
            at,
            1,
            FaultKind::RingExhaustion {
                slots: (1 + magnitude % 31) as usize,
            },
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two identical runs — same traffic, same fault plan — produce a
    /// byte-identical transcript, including the full metrics-snapshot
    /// JSON with its embedded channel cost profiles.
    #[test]
    fn online_selection_is_byte_reproducible(
        size_picks in proptest::collection::vec(0usize..SIZES.len(), 1..48),
        gaps in proptest::collection::vec(0u64..5_000, 48),
        fault_kind in 0usize..3,
        fault_at in 1u64..200_000,
        fault_magnitude in 0u64..64,
    ) {
        let traffic: Vec<Step> = size_picks
            .iter()
            .zip(&gaps)
            .map(|(&s, &g)| (s, g))
            .collect();
        let plan = fault_plan_for(fault_kind, fault_at, fault_magnitude);
        let a = adaptive_transcript(&traffic, plan.as_ref());
        let b = adaptive_transcript(&traffic, plan.as_ref());
        prop_assert_eq!(a, b);
    }

    /// A burst on the adaptive channel never takes longer (in sim time)
    /// than the same burst forced onto the worst static provider.
    #[test]
    fn adaptive_cost_is_bracketed_by_the_static_providers(
        size_idx in 0usize..SIZES.len(),
        count in 1usize..48,
    ) {
        let size = SIZES[size_idx];
        let cfg = ChannelConfig::figure3(DeviceId(1));
        let burst = |forced: Option<&str>| -> u64 {
            let mut e = ChannelExecutive::new();
            install_cost_adaptive(&mut e);
            let id = match forced {
                Some(p) => e.create_channel_forced(cfg, p).unwrap(),
                None => e.create_channel_adaptive(cfg, AdaptivePolicy::default()).unwrap(),
            };
            let ch = e.get_mut(id).unwrap();
            ch.connect_endpoint().unwrap();
            let mut last = SimTime::ZERO;
            for _ in 0..count {
                last = ch.send(SimTime::ZERO, Bytes::from(vec![0u8; size])).unwrap();
            }
            last.as_nanos()
        };
        let adaptive = burst(None);
        let worst = ["pio", "doorbell-batch", "zero-copy-dma"]
            .iter()
            .map(|p| burst(Some(p)))
            .max()
            .unwrap();
        prop_assert!(
            adaptive <= worst,
            "{count} x {size} B: adaptive {adaptive} ns > worst static {worst} ns"
        );
    }

    /// A cold profile (fewer samples than the policy floor) must fall
    /// back to the static argmin of the unloaded latency for that
    /// bucket — no oscillation, at most the one initial re-selection.
    #[test]
    fn cold_bucket_uses_the_static_default(size_idx in 0usize..SIZES.len()) {
        let size = SIZES[size_idx];
        let cfg = ChannelConfig::figure3(DeviceId(1));
        let mut e = ChannelExecutive::new();
        install_cost_adaptive(&mut e);
        let id = e.create_channel_adaptive(cfg, AdaptivePolicy::default()).unwrap();
        let ch = e.get_mut(id).unwrap();
        ch.connect_endpoint().unwrap();
        ch.send(SimTime::ZERO, Bytes::from(vec![0u8; size])).unwrap();
        prop_assert_eq!(ch.provider_name(), static_default_for(&cfg, size));
        prop_assert!(ch.provider_switches() <= 1);
    }
}

/// An adaptive channel that never carried a message still reports a
/// well-formed (empty-profile) entry in the metrics snapshot.
#[test]
fn cold_adaptive_channel_appears_in_the_snapshot() {
    let mut rt = demo_deployment();
    install_extras(rt.executive_mut());
    rt.executive_mut()
        .create_channel_adaptive(
            ChannelConfig::figure3(DeviceId(1)),
            AdaptivePolicy::default(),
        )
        .expect("adaptive channel on the NIC");
    let snap = rt.metrics_snapshot();
    let entry = snap
        .channels
        .iter()
        .find(|c| c.adaptive)
        .expect("snapshot lists the adaptive channel");
    assert_eq!(entry.messages, 0);
    assert_eq!(entry.switches, 0);
    assert!(entry.buckets.is_empty());
    assert!(snap.to_json().contains("\"adaptive\":true"));
}

/// Per-provider counters follow an adaptive channel's provider: across
/// an epoch-boundary switch and a recorder reset, `channel.sent`,
/// `channel.bytes` and `channel.latency_ns` land under the label that
/// was active for each send, and nowhere else.
#[test]
fn adaptive_metrics_follow_the_active_provider_across_switch_and_reset() {
    let mut e = ChannelExecutive::with_default_providers();
    install_extras(&mut e);
    let rec = e.recorder().clone();
    let id = e
        .create_channel_adaptive(
            ChannelConfig::figure3(DeviceId(1)),
            AdaptivePolicy::default(),
        )
        .expect("adaptive channel on the NIC");
    let ch = e.get_mut(id).expect("channel is live");
    ch.connect_endpoint().expect("fresh channel has room");
    let mut now = SimTime::ZERO;
    for phase in 0..2 {
        // provider -> (sends, bytes, latency sum)
        let mut want: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for i in 0..32u8 {
            let at = ch
                .send(now, Bytes::from(vec![i; 1024]))
                .expect("ring has room");
            let w = want.entry(ch.provider_name().to_owned()).or_default();
            w.0 += 1;
            w.1 += 1024;
            w.2 += at.as_nanos() - now.as_nanos();
        }
        let snap = rec.snapshot();
        for (provider, &(sent, bytes, latency)) in &want {
            assert_eq!(snap.counter("channel.sent", provider), Some(sent));
            assert_eq!(snap.counter("channel.bytes", provider), Some(bytes));
            let h = snap
                .histogram("channel.latency_ns", provider)
                .expect("latency recorded");
            assert_eq!((h.count, h.sum), (sent, latency));
        }
        for name in ["channel.sent", "channel.bytes"] {
            assert_eq!(
                snap.counters.iter().filter(|c| c.name == name).count(),
                want.len(),
                "{name} appears only under providers that carried messages"
            );
        }
        if phase == 0 {
            assert_eq!(ch.provider_name(), "doorbell-batch");
            assert!(want.len() >= 2, "the burst switched providers: {want:?}");
            rec.reset();
        } else {
            assert_eq!(want.len(), 1, "after the switch the bucket stays put");
        }
        now = SimTime::from_millis(1);
        while ch.recv(now, 0).is_some() {}
    }
}

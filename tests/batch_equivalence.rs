//! Property tests: `send_batch` is observably identical to the
//! equivalent sequence of single `send` calls.
//!
//! "Observably identical" covers delivery order and payloads, the
//! channel's stats, the recorder's counter totals (`channel.sent`,
//! `channel.received`, `channel.dropped`, `channel.rejected`,
//! `channel.bytes`) and the number of per-message trace drop events
//! under injected capacity faults. It deliberately does *not* cover
//! sim-time (batching is strictly faster — that is the point) or the
//! flight-recorder send/hop event count (amortized by design: one span
//! per batch instead of one per message).
//!
//! With a retry policy the batch frees ring slots sooner, so the two
//! paths may admit different messages. There each path is held to the
//! invariants they share instead: FIFO delivery, every message accounted
//! for exactly once, and one doorbell per enqueued run.

use bytes::Bytes;
use hydra::core::channel::{
    Buffering, ChannelConfig, ChannelExecutive, ChannelId, Reliability, RetryPolicy, SyncPolicy,
    Transport,
};
use hydra::core::device::DeviceId;
use hydra::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn config(reliable: bool, zero_copy: bool, capacity: usize, target: usize) -> ChannelConfig {
    ChannelConfig {
        transport: Transport::Unicast,
        reliability: if reliable {
            Reliability::Reliable
        } else {
            Reliability::Unreliable
        },
        sync: SyncPolicy::Sequential,
        buffering: if zero_copy {
            Buffering::ZeroCopy
        } else {
            Buffering::Copied
        },
        capacity,
        target: DeviceId(target as u32),
        retry: RetryPolicy::none(),
    }
}

fn payloads(n: usize) -> Vec<Bytes> {
    (0..n).map(|i| Bytes::from(vec![i as u8; i + 1])).collect()
}

/// Drives `msgs` through one channel the single-send way and through a
/// second identical channel the batched way, then returns both
/// executives for observation. Neither channel is drained.
fn drive(
    cfg: ChannelConfig,
    msgs: &[Bytes],
) -> (
    (ChannelExecutive, ChannelId),
    (ChannelExecutive, ChannelId),
    u64, // single-path rejected count
) {
    let mut single = ChannelExecutive::with_default_providers();
    let sid = single.create_channel(cfg).unwrap();
    let sch = single.get_mut(sid).unwrap();
    sch.connect_endpoint().unwrap();
    let mut rejected = 0u64;
    for m in msgs {
        if sch.send(SimTime::ZERO, m.clone()).is_err() {
            rejected += 1;
        }
    }

    let mut batched = ChannelExecutive::with_default_providers();
    let bid = batched.create_channel(cfg).unwrap();
    let bch = batched.get_mut(bid).unwrap();
    bch.connect_endpoint().unwrap();
    let outcome = bch.send_batch(SimTime::ZERO, msgs);
    assert_eq!(outcome.rejected, rejected as usize);

    ((single, sid), (batched, bid), rejected)
}

/// A `cfg` channel on a fresh executive with one endpoint — two on a
/// multicast channel, the first closed again when `close_first` —
/// returning the endpoint left open.
fn open(cfg: ChannelConfig, close_first: bool) -> (ChannelExecutive, ChannelId, usize) {
    let mut exec = ChannelExecutive::with_default_providers();
    let id = exec.create_channel(cfg).unwrap();
    let ch = exec.get_mut(id).unwrap();
    let mut ep = ch.connect_endpoint().unwrap();
    if cfg.transport == Transport::Multicast {
        let first = ep;
        ep = ch.connect_endpoint().unwrap();
        if close_first {
            ch.close_endpoint(first);
        }
    }
    (exec, id, ep)
}

/// Drains endpoint `ep` once every message has landed and checks FIFO:
/// payloads arrive in send order (refused messages leave gaps) at
/// non-decreasing delivery instants. Returns how many arrived.
fn drain_fifo(exec: &mut ChannelExecutive, id: ChannelId, ep: usize, msgs: &[Bytes]) -> usize {
    let got = exec
        .get_mut(id)
        .unwrap()
        .recv_batch(SimTime::from_secs(60), ep, usize::MAX);
    let mut next = 0;
    let mut last = SimTime::ZERO;
    for m in &got {
        let skipped = msgs[next..]
            .iter()
            .position(|p| *p == m.data)
            .expect("payloads arrive in send order");
        next += skipped + 1;
        assert!(m.deliver_at >= last, "delivery instants never go back");
        last = m.deliver_at;
    }
    got.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Without faults: same delivery order and payloads, same stats and
    /// counter totals, and the batch completes no later than the single
    /// sequence (strictly earlier from two messages up).
    #[test]
    fn batch_matches_singles_without_faults(
        n in 1usize..=32,
        zero_copy in any::<bool>(),
        reliable in any::<bool>(),
        target in 1usize..4,
    ) {
        let cfg = config(reliable, zero_copy, 64, target);
        let msgs = payloads(n);

        let mut single = ChannelExecutive::with_default_providers();
        let sid = single.create_channel(cfg).unwrap();
        let sch = single.get_mut(sid).unwrap();
        let sep = sch.connect_endpoint().unwrap();
        let mut single_done = SimTime::ZERO;
        for m in &msgs {
            single_done = sch.send(SimTime::ZERO, m.clone()).unwrap();
        }

        let mut batched = ChannelExecutive::with_default_providers();
        let bid = batched.create_channel(cfg).unwrap();
        let bch = batched.get_mut(bid).unwrap();
        let bep = bch.connect_endpoint().unwrap();
        let outcome = bch.send_batch(SimTime::ZERO, &msgs);

        prop_assert_eq!(outcome.accepted(), n);
        prop_assert!(outcome.complete_at <= single_done);
        if n >= 2 {
            prop_assert!(outcome.complete_at < single_done, "batch amortizes the doorbell");
        }

        // Drain both; delivery order and payloads must agree.
        let late = single_done.max(outcome.complete_at);
        let got_single: Vec<Bytes> = std::iter::from_fn(|| {
            single.get_mut(sid).unwrap().recv(late, sep).map(|m| m.data)
        })
        .collect();
        let got_batched: Vec<Bytes> = batched
            .get_mut(bid)
            .unwrap()
            .recv_batch(late, bep, usize::MAX)
            .into_iter()
            .map(|m| m.data)
            .collect();
        prop_assert_eq!(&got_single, &msgs);
        prop_assert_eq!(&got_batched, &msgs);

        // Stats and counter totals agree.
        let (s, b) = (
            single.get(sid).unwrap().stats(),
            batched.get(bid).unwrap().stats(),
        );
        prop_assert_eq!(s, b);
        let ssnap = single.recorder().snapshot();
        let bsnap = batched.recorder().snapshot();
        for c in ["channel.sent", "channel.received", "channel.bytes",
                  "channel.dropped", "channel.rejected"] {
            prop_assert_eq!(ssnap.counter_total(c), bsnap.counter_total(c), "{}", c);
        }
    }

    /// With injected capacity faults (batch larger than capacity): the
    /// accepted prefix, fault counts, and per-message drop-event counts
    /// all match the sequential path.
    #[test]
    fn batch_matches_singles_under_capacity_faults(
        capacity in 1usize..=8,
        extra in 1usize..=8,
        zero_copy in any::<bool>(),
        reliable in any::<bool>(),
        target in 1usize..4,
    ) {
        let cfg = config(reliable, zero_copy, capacity, target);
        let msgs = payloads(capacity + extra);
        let ((single, sid), (batched, bid), rejected) = drive(cfg, &msgs);

        if reliable {
            prop_assert_eq!(rejected, extra as u64);
        } else {
            prop_assert_eq!(rejected, 0);
        }
        let (s, b) = (
            single.get(sid).unwrap().stats(),
            batched.get(bid).unwrap().stats(),
        );
        prop_assert_eq!(s, b);
        prop_assert_eq!(s.sent, capacity as u64);
        if !reliable {
            prop_assert_eq!(s.dropped, extra as u64);
        }

        let ssnap = single.recorder().snapshot();
        let bsnap = batched.recorder().snapshot();
        for c in ["channel.sent", "channel.bytes", "channel.dropped", "channel.rejected"] {
            prop_assert_eq!(ssnap.counter_total(c), bsnap.counter_total(c), "{}", c);
        }
        // Fault paths keep per-message accounting: the flight recorder
        // holds exactly one drop event per overflowed message, with the
        // same name either way.
        let sdrops = ssnap.events_kind("drop");
        let bdrops = bsnap.events_kind("drop");
        prop_assert_eq!(sdrops.len(), extra);
        prop_assert_eq!(bdrops.len(), extra);
        let want = if reliable { "channel.reject" } else { "channel.drop" };
        prop_assert!(sdrops.iter().chain(&bdrops).all(|d| d.name == want));
    }

    /// With retry enabled — also on a multicast ring with a closed
    /// endpoint — each path delivers FIFO and accounts for every message
    /// exactly once, and the batch rings one doorbell for the prefix that
    /// fits the empty ring plus one per message it retried in.
    #[test]
    fn each_path_stays_fifo_and_conserving_under_retry(
        capacity in 1usize..=8,
        extra in 1usize..=8,
        zero_copy in any::<bool>(),
        reliable in any::<bool>(),
        multicast in any::<bool>(),
        close_first in any::<bool>(),
        attempts in 1u32..=6,
        backoff_us in 1u64..=20,
        timeout_us in 1u64..=400,
    ) {
        let mut cfg = config(reliable, zero_copy, capacity, 1);
        if multicast {
            cfg.transport = Transport::Multicast;
        }
        cfg.retry = RetryPolicy::new(
            attempts,
            SimDuration::from_micros(backoff_us),
            SimDuration::from_micros(timeout_us),
        );
        let n = capacity + extra;
        let msgs = payloads(n);

        let (mut single, sid, sep) = open(cfg, close_first);
        let mut rejected = 0;
        for m in &msgs {
            if single.get_mut(sid).unwrap().send(SimTime::ZERO, m.clone()).is_err() {
                rejected += 1;
            }
        }
        let s = single.get(sid).unwrap().stats();
        prop_assert_eq!(s.sent + s.dropped + rejected, n as u64);
        prop_assert_eq!(single.get(sid).unwrap().cost_profile().doorbells(), s.sent);
        prop_assert_eq!(drain_fifo(&mut single, sid, sep, &msgs) as u64, s.sent);

        let (mut batched, bid, bep) = open(cfg, close_first);
        let out = batched.get_mut(bid).unwrap().send_batch(SimTime::ZERO, &msgs);
        prop_assert_eq!(out.accepted() + out.rejected + out.dropped, n);
        let b = batched.get(bid).unwrap();
        prop_assert_eq!(b.stats().sent, out.accepted() as u64);
        prop_assert_eq!(b.stats().dropped, out.dropped as u64);
        let retried = (out.accepted() - capacity) as u64;
        prop_assert_eq!(b.cost_profile().doorbells(), 1 + retried);
        prop_assert!(out.retries >= retried);
        prop_assert_eq!(
            batched.recorder().snapshot().counter_total("channel.retries"),
            out.retries
        );
        prop_assert_eq!(drain_fifo(&mut batched, bid, bep, &msgs), out.accepted());
    }
}

/// Every endpoint closed: no open queue can overflow, so both paths
/// accept the whole burst, with or without retry.
#[test]
fn batch_matches_singles_with_every_endpoint_closed() {
    let retry = RetryPolicy::new(4, SimDuration::from_micros(10), SimDuration::from_millis(1));
    let msgs: Vec<Bytes> = (0..10u8).map(|i| Bytes::from(vec![i; 16])).collect();
    for reliable in [true, false] {
        for policy in [RetryPolicy::none(), retry] {
            let mut cfg = config(reliable, true, 4, 1);
            cfg.retry = policy;
            let case = format!("reliable={reliable} retry={}", policy.enabled());

            let (mut single, sid, sep) = open(cfg, false);
            let sch = single.get_mut(sid).unwrap();
            sch.close_endpoint(sep);
            for m in &msgs {
                sch.send(SimTime::ZERO, m.clone()).unwrap();
            }
            let (mut batched, bid, bep) = open(cfg, false);
            let bch = batched.get_mut(bid).unwrap();
            bch.close_endpoint(bep);
            let out = bch.send_batch(SimTime::ZERO, &msgs);

            assert_eq!(
                (out.accepted(), out.rejected, out.dropped, out.retries),
                (10, 0, 0, 0),
                "{case}"
            );
            assert_eq!(
                single.get(sid).unwrap().stats(),
                batched.get(bid).unwrap().stats(),
                "{case}"
            );
            let (ssnap, bsnap) = (single.recorder().snapshot(), batched.recorder().snapshot());
            for c in [
                "channel.sent",
                "channel.bytes",
                "channel.dropped",
                "channel.rejected",
                "channel.retries",
            ] {
                assert_eq!(
                    ssnap.counter_total(c),
                    bsnap.counter_total(c),
                    "{case}: {c}"
                );
            }
        }
    }
}

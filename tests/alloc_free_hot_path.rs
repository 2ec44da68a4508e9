//! Zero heap allocations per message on the channel, device, host-memory
//! and codec hot paths.
//!
//! A counting global allocator tallies every allocation made on the
//! current thread. After a warm-up that grows every ring, queue and
//! histogram to its working size, a steady-state loop of
//! `Channel::send_batch_into`, `Channel::send` (on a fixed and on a
//! cost-adaptive channel), `Channel::recv` and device busy-time charges
//! on the demo runtime must allocate nothing:
//! every recorder update on these paths goes through a pre-resolved
//! handle, and every trace event carries an interned label. So must the
//! host model's background tick, CPU copy, buffer touch and DMA
//! invalidation (the L2 model's whole surface), and `encode_block` into a
//! buffer reserved up front.
//!
//! The count is per thread, so the tests in this binary can run in
//! parallel without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};
use hydra_core::channel::{AdaptivePolicy, BatchSendOutcome, ChannelConfig, RetryPolicy};
use hydra_core::device::DeviceId;
use hydra_devices::host::HostModel;
use hydra_devices::nic::NicModel;
use hydra_devices::DeviceTracer;
use hydra_hw::cache::AccessKind;
use hydra_media::entropy::encode_block;
use hydra_sim::time::{SimDuration, SimTime};
use hydra_tivo::demo::demo_deployment;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn channel_send_batch_recv_allocate_nothing_in_steady_state() {
    let mut rt = demo_deployment();
    let retry = RetryPolicy::new(4, SimDuration::from_micros(1), SimDuration::from_micros(8));
    let mut cfg = ChannelConfig::figure3(DeviceId(1)).with_retry(retry);
    cfg.capacity = 16;
    let exec = rt.executive_mut();
    let bulk = exec.create_channel(cfg).expect("bulk channel");
    let oob = exec
        .create_channel(ChannelConfig::oob(DeviceId(2)))
        .expect("oob channel");
    let adaptive = exec
        .create_channel_adaptive(
            ChannelConfig::figure3(DeviceId(3)),
            AdaptivePolicy::default(),
        )
        .expect("adaptive channel");
    let bulk_ep = exec.get_mut(bulk).unwrap().connect_endpoint().unwrap();
    let oob_ep = exec.get_mut(oob).unwrap().connect_endpoint().unwrap();
    let adaptive_ep = exec.get_mut(adaptive).unwrap().connect_endpoint().unwrap();

    // Bursts alternate between fitting the ring and overfilling it, so
    // the retry and reject paths run too.
    let payload = Bytes::from(vec![7u8; 512]);
    let small = vec![payload.clone(); 6];
    let overfill = vec![payload.clone(); 40];
    let ping = Bytes::from_static(b"ping");
    let sweep: Vec<Bytes> = (0..8).map(|s| Bytes::from(vec![1u8; 64 << s])).collect();
    let mut out = BatchSendOutcome {
        delivered_at: Vec::with_capacity(32),
        rejected: 0,
        dropped: 0,
        complete_at: SimTime::ZERO,
        retries: 0,
    };
    let (mut retries, mut rejected) = (0, 0);
    let mut step = |i: u64| {
        let now = SimTime::from_micros(i * 50);
        let ch = exec.get_mut(bulk).unwrap();
        while ch.recv(now, bulk_ep).is_some() {}
        let burst = if i % 4 == 3 { &overfill } else { &small };
        ch.send_batch_into(now, burst, &mut out);
        retries += out.retries;
        rejected += out.rejected;
        let ch = exec.get_mut(oob).unwrap();
        let at = ch.send(now, ping.clone()).expect("oob ring has room");
        assert!(ch.recv(at, oob_ep).is_some());
        let ch = exec.get_mut(adaptive).unwrap();
        let at = ch
            .send(now, sweep[(i % 8) as usize].clone())
            .expect("adaptive ring has room");
        assert!(ch.recv(at, adaptive_ep).is_some());
    };
    // Warm-up: fills the flight recorder's ring and grows every queue.
    for i in 0..4_000 {
        step(i);
    }
    let allocs = allocations(|| {
        for i in 4_000..6_000 {
            step(i);
        }
    });
    assert!(
        retries > 0,
        "the overfilled bursts exercised the retry path"
    );
    assert!(
        rejected > 0,
        "the overfilled bursts exercised the refuse path"
    );
    assert_eq!(allocs, 0, "steady-state channel traffic allocated");
}

#[test]
fn device_busy_charges_allocate_nothing() {
    let rt = demo_deployment();
    let tracer = DeviceTracer::new(rt.recorder().clone(), 2);
    let mut nic = NicModel::new_3c985b(7);
    nic.set_recorder(rt.recorder().clone(), 1);
    let mut step = |i: u64| {
        let now = SimTime::from_micros(i * 10);
        tracer.busy(SimDuration::from_nanos(500));
        assert!(nic.rx_frame(now, 1024).is_some());
    };
    for i in 0..100 {
        step(i);
    }
    let allocs = allocations(|| {
        for i in 100..1_100 {
            step(i);
        }
    });
    assert_eq!(allocs, 0, "device busy-time charges allocated");
    let snap = rt.recorder().snapshot();
    assert!(snap.counter("device.busy_ns", "device-2").unwrap_or(0) >= 1_100 * 500);
}

#[test]
fn host_memory_paths_allocate_nothing() {
    let rt = demo_deployment();
    let mut host = HostModel::paper_host(7);
    host.set_recorder(rt.recorder().clone());
    let src = host.space.alloc("src", 16 * 1024);
    let dst = host.space.alloc("dst", 16 * 1024);
    let buf = host.space.alloc("buf", 8 * 1024);
    let mut step = |i: u64| {
        let now = SimTime::from_millis(i);
        host.background_tick(now);
        host.cpu_copy(now, src, dst, src.len());
        host.mem.touch(buf, AccessKind::Write);
        host.mem.dma_transfer(dst);
    };
    for i in 0..100 {
        step(i);
    }
    let allocs = allocations(|| {
        for i in 100..2_100 {
            step(i);
        }
    });
    assert_eq!(allocs, 0, "host tick, copy, touch or DMA allocated");
    let l2 = host.mem.cache().stats();
    assert!(
        l2.evictions > 0 && l2.write_backs > 0,
        "daemon walks churned the L2"
    );
}

#[test]
fn encode_block_into_reserved_buffer_allocates_nothing() {
    // A dense block whose levels span one- to five-byte varints.
    let mut block = [0i32; 64];
    for (i, c) in block.iter_mut().enumerate() {
        *c = if i % 3 == 0 {
            0
        } else {
            (i as i32 - 32) << (i % 29)
        };
    }
    let per_block = block.iter().filter(|&&c| c != 0).count() as u32;
    let blocks = 1_000;
    let mut out = BytesMut::with_capacity(blocks * 400);
    let mut nonzero = 0;
    let allocs = allocations(|| {
        for _ in 0..blocks {
            nonzero += encode_block(&mut out, &block);
        }
    });
    assert_eq!(allocs, 0, "encode_block allocated");
    assert_eq!(nonzero, blocks as u32 * per_block);
    assert!(out.len() > blocks * 64);
}

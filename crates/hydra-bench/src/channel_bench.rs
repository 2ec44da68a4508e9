//! Deterministic sim-time channel data-path benchmarks.
//!
//! Measures the single-message send path against the batched
//! (single-doorbell) path for a range of batch sizes, on a fresh
//! Figure-3 channel created on the tivo demo deployment's runtime. All
//! timing is *simulated* time, so two runs produce byte-identical
//! results — which is what lets the artifact gate pin them: the
//! rendered [`render_json`] report is `BENCH_channel.json`, and
//! [`bench_snapshot`] replays the numbers through the
//! [`hydra_obs::budget`] tolerance machinery against the committed
//! baseline in `budgets/bench_channel.json`.

use bytes::Bytes;
use hydra_core::channel::ChannelConfig;
use hydra_core::device::DeviceId;
use hydra_obs::{MetricsSnapshot, Recorder};
use hydra_sim::time::SimTime;
use hydra_tivo::demo::demo_deployment;

use crate::report::{self, num, text, Report};

/// Messages pushed through the channel per scenario.
pub const MESSAGES: usize = 512;

/// Payload bytes per message.
pub const MSG_BYTES: usize = 1024;

/// Batch sizes benchmarked; size 1 exercises the single-message path.
pub const BATCH_SIZES: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// One scenario's measured result (all sim-time, fully deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Scenario name (`single`, `batch2`, `batch4`, ...).
    pub name: String,
    /// Messages handed to the provider per doorbell.
    pub batch_size: usize,
    /// Total messages sent.
    pub messages: usize,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Sim-time from first doorbell to last message drained.
    pub elapsed_ns: u64,
    /// `bytes * 1e9 / elapsed_ns`, integer math.
    pub throughput_bytes_per_sec: u64,
    /// `elapsed_ns / messages`.
    pub ns_per_message: u64,
}

/// Runs every scenario in [`BATCH_SIZES`] and returns the results in
/// batch-size order.
pub fn run_channel_bench() -> Vec<BenchResult> {
    BATCH_SIZES.iter().map(|&b| run_scenario(b)).collect()
}

fn run_scenario(batch_size: usize) -> BenchResult {
    // Fresh demo runtime per scenario: the bench channel rides on the
    // same deployment CI already pins, but starts with an idle provider.
    let mut rt = demo_deployment();
    let exec = rt.executive_mut();
    let chan = exec
        .create_channel(ChannelConfig::figure3(DeviceId(1)))
        .expect("bench channel on the NIC");
    let ch = exec.get_mut(chan).expect("channel is live");
    let ep = ch.connect_endpoint().expect("fresh channel has room");
    let payload = Bytes::from(vec![0xA5u8; MSG_BYTES]);

    let mut now = SimTime::ZERO;
    let mut sent = 0usize;
    let mut drained = 0usize;
    while sent < MESSAGES {
        let n = batch_size.min(MESSAGES - sent);
        if batch_size == 1 {
            now = ch
                .send(now, payload.clone())
                .expect("drained channel accepts");
            drained += usize::from(ch.recv(now, ep).is_some());
        } else {
            let batch: Vec<Bytes> = vec![payload.clone(); n];
            let outcome = ch.send_batch(now, &batch);
            assert_eq!(outcome.accepted(), n, "drained channel accepts the batch");
            now = outcome.complete_at;
            drained += ch.recv_batch(now, ep, usize::MAX).len();
        }
        sent += n;
    }
    assert_eq!(drained, MESSAGES, "every message delivered and drained");

    let elapsed_ns = now.as_nanos();
    let bytes = (MESSAGES * MSG_BYTES) as u64;
    let throughput = (u128::from(bytes) * 1_000_000_000 / u128::from(elapsed_ns.max(1))) as u64;
    BenchResult {
        name: if batch_size == 1 {
            "single".to_owned()
        } else {
            format!("batch{batch_size}")
        },
        batch_size,
        messages: MESSAGES,
        bytes,
        elapsed_ns,
        throughput_bytes_per_sec: throughput,
        ns_per_message: elapsed_ns / MESSAGES as u64,
    }
}

/// Renders the results as the `BENCH_channel.json` report through the
/// shared [`crate::report`] serializer: `"schema": 1`, stable key order,
/// no floats, so two runs are byte-identical. Every field here is
/// sim-time — the channel bench has no `wall_` lines at all.
pub fn render_json(results: &[BenchResult]) -> String {
    let rep = Report {
        bench: "channel",
        config: vec![
            num("messages", MESSAGES as u64),
            num("bytes_per_message", MSG_BYTES as u64),
        ],
        scenarios: results
            .iter()
            .map(|r| {
                vec![
                    text("name", &r.name),
                    num("batch_size", r.batch_size as u64),
                    num("messages", r.messages as u64),
                    num("bytes", r.bytes),
                    num("elapsed_ns", r.elapsed_ns),
                    num("throughput_bytes_per_sec", r.throughput_bytes_per_sec),
                    num("ns_per_message", r.ns_per_message),
                ]
            })
            .collect(),
    };
    report::render(&rep)
}

/// Re-expresses the results as a [`MetricsSnapshot`] (scenario name as
/// the counter label) so the budget comparator can gate on them.
pub fn bench_snapshot(results: &[BenchResult]) -> MetricsSnapshot {
    let rec = Recorder::new();
    for r in results {
        rec.counter_add("bench.elapsed_ns", &r.name, r.elapsed_ns);
        rec.counter_add(
            "bench.throughput_bytes_per_sec",
            &r.name,
            r.throughput_bytes_per_sec,
        );
    }
    rec.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_deterministic() {
        let a = run_channel_bench();
        let b = run_channel_bench();
        assert_eq!(render_json(&a), render_json(&b));
    }

    #[test]
    fn batching_beats_single_at_eight_and_up() {
        let results = run_channel_bench();
        let single = results.iter().find(|r| r.batch_size == 1).unwrap();
        for r in results.iter().filter(|r| r.batch_size >= 8) {
            assert!(
                r.throughput_bytes_per_sec > single.throughput_bytes_per_sec,
                "{}: {} <= {}",
                r.name,
                r.throughput_bytes_per_sec,
                single.throughput_bytes_per_sec
            );
            assert!(r.elapsed_ns < single.elapsed_ns);
        }
    }

    #[test]
    fn snapshot_carries_one_line_per_scenario() {
        let results = run_channel_bench();
        let snap = bench_snapshot(&results);
        for r in &results {
            assert_eq!(
                snap.counter("bench.elapsed_ns", &r.name),
                Some(r.elapsed_ns)
            );
        }
    }
}

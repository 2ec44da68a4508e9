//! The provider-crossover regression gate (tier 1): the `bench
//! crossover` row of `hydra_bench::ARTIFACTS`.
//!
//! `budgets/bench_crossover.json` is the committed baseline for the
//! PIO / doorbell-batched / DMA sweep, and `BENCH_crossover.json` at
//! the workspace root is the committed rendering of the report. The
//! crossover report is pure sim-time — no `wall_` lines — so the byte
//! comparison covers the whole file. The two crossover points are gated
//! as bands: PIO must stop winning somewhere in the small-message range,
//! and synchronous DMA must take over somewhere in the bulk range.

mod gate;

use gate::{assert_no_failures, read, row, scenarios};
use hydra_bench::crossover_bench::SIZES;
use hydra_bench::report::{read_u64, sim_fields, SCHEMA_VERSION};

fn crossover() -> usize {
    row(&["bench", "crossover"])
}

#[test]
fn crossover_results_stay_within_committed_baseline() {
    assert_no_failures(&gate::budget_failures(crossover()));
}

#[test]
fn report_is_byte_identical_across_runs_and_matches_committed() {
    assert_no_failures(&gate::replay_failures(crossover()));
    let fresh = &gate::fresh(crossover()).stdout;
    // No wall-clock fields at all: the sim filter must be a no-op.
    assert_eq!(
        *fresh,
        sim_fields(fresh),
        "crossover report carries no wall_ lines"
    );
    assert_eq!(
        *fresh,
        read("BENCH_crossover.json"),
        "pure sim time: whole file"
    );
}

#[test]
fn committed_report_pins_the_crossover_structure() {
    let committed = read("BENCH_crossover.json");
    assert_eq!(
        read_u64(&committed, "schema"),
        Some(u64::from(SCHEMA_VERSION))
    );
    let pio_to_db = read_u64(&committed, "pio_to_doorbell_bytes")
        .expect("committed report carries the first crossover point");
    let db_to_dma = read_u64(&committed, "doorbell_to_dma_bytes")
        .expect("committed report carries the second crossover point");
    let smallest = SIZES[0] as u64;
    let largest = *SIZES.last().unwrap() as u64;
    assert!(
        pio_to_db > smallest,
        "PIO must win at least the smallest size ({pio_to_db} <= {smallest})"
    );
    assert!(
        db_to_dma > pio_to_db,
        "the doorbell-batched ring must own a middle band ({db_to_dma} <= {pio_to_db})"
    );
    assert!(
        db_to_dma < largest,
        "DMA must win before the largest size ({db_to_dma} >= {largest})"
    );
    // The repriced layout exercise gave the NIC slot to the bulk node.
    assert_eq!(read_u64(&committed, "bulk_device"), Some(1));
    assert_eq!(read_u64(&committed, "chatty_device"), Some(0));
}

/// Read off the committed report (which the replay check proves
/// current): at every size the adaptive channel costs no more than the
/// worst forced provider.
#[test]
fn adaptive_channel_never_costs_more_than_the_worst_static_provider() {
    let committed = read("BENCH_crossover.json");
    let field = |s: &str, key: &str| read_u64(s, key).expect(key);
    for &size in SIZES {
        // Provider runs only; the report's summary entries follow them.
        let (adaptive, forced): (Vec<&str>, Vec<&str>) = scenarios(&committed)
            .filter(|s| s.contains("\"provider\":"))
            .filter(|s| field(s, "bytes_per_message") == size as u64)
            .partition(|s| s.contains("\"provider\": \"adaptive\""));
        let adaptive = adaptive
            .first()
            .map(|s| field(s, "elapsed_ns"))
            .expect("adaptive run per size");
        let worst = forced
            .iter()
            .map(|s| field(s, "elapsed_ns"))
            .max()
            .expect("forced runs per size");
        assert!(
            adaptive <= worst,
            "{size} B: adaptive {adaptive} ns > worst static {worst} ns"
        );
    }
}

#[test]
fn gate_fails_when_baseline_is_perturbed_beyond_tolerance() {
    gate::assert_perturbed_lines_trip_alone(crossover());
}

#[test]
fn gate_tolerance_absorbs_small_drift() {
    gate::assert_half_tolerance_drift_passes(crossover());
}

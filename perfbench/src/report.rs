//! Metric names, the outcome of one run, and the output format.
//!
//! Every run prints one human-readable line per metric (name, value,
//! unit, sample count), then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. An untraced run's JSON
//! carries the end-to-end metrics, a traced run's the per-layer ones.

use std::collections::BTreeMap;

/// End-to-end metrics, shared by every workload; see README.md for what
/// a "unit" and a "step" are on each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ms_per_s", "ms/s"),
    ("units_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_tail_us", "us"),
];

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer reports its metrics as 0 with zero samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.sched_grows", "count"),
    ("sim.sched_shrinks", "count"),
    ("channel.send.ns_per_msg", "ns"),
    ("channel.batch.ns_per_msg", "ns"),
    ("channel.recv.ns_per_msg", "ns"),
    ("channel.delivered_frac", "frac"),
    ("channel.retries", "count"),
    ("channel.rejected", "count"),
    ("channel.dropped", "count"),
    ("channel.retry_wait_ns", "ns"),
    ("channel.doorbells_per_msg", "ratio"),
    ("channel.adaptive.switches", "count"),
    ("runtime.send_call.ns", "ns"),
    ("runtime.pump.ns_per_dispatch", "ns"),
    ("runtime.create_offcode.self_ns", "ns"),
    ("runtime.teardown.ns", "ns"),
    ("runtime.recover.ns", "ns"),
    ("runtime.recover.p99_ns", "ns"),
    ("runtime.migrated", "count"),
    ("runtime.redeployed", "count"),
    ("runtime.host_fallbacks", "count"),
    ("ilp.solve.ns", "ns"),
    ("ilp.nodes", "count"),
    ("ilp.ns_per_node", "ns"),
    ("ilp.presolved_frac", "frac"),
    ("ilp.repair.ns", "ns"),
    ("ilp.repair.nodes", "count"),
    ("ilp.warm_start_hit_frac", "frac"),
    ("verify.certify.ns", "ns"),
    ("verify.pass_work", "count"),
    ("odf.parse.ns_per_kib", "ns"),
    ("link.load.ns", "ns"),
    ("obs.snapshot.ns", "ns"),
    ("obs.sample_window.ns", "ns"),
    ("obs.series", "count"),
    ("obs.flight_dropped", "count"),
    ("devices.host.background_tick.ns", "ns"),
    ("devices.host.cpu_copy.ns_per_kib", "ns"),
    ("devices.nic.rx.ns", "ns"),
    ("devices.gpu.hw_decode.ns", "ns"),
    ("devices.disk.write_block.ns", "ns"),
    ("hw.cache.touch.ns_per_line", "ns"),
    ("hw.cache.miss_rate", "frac"),
    ("tivo.client_idle.host_ns_per_sim_ms", "ns"),
    ("tivo.client_userspace.host_ns_per_sim_ms", "ns"),
    ("tivo.client_offloaded.host_ns_per_sim_ms", "ns"),
    ("tivo.server_simple.host_ns_per_sim_ms", "ns"),
    ("tivo.server_offloaded.host_ns_per_sim_ms", "ns"),
    ("residual.frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One measured figure and how many samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    pub value: f64,
    pub samples: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output check
    /// mismatched.
    pub failed: u64,
    /// Output-check findings; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Figures by metric name (end-to-end or per-layer).
    pub figures: BTreeMap<&'static str, Figure>,
    /// The workload's own names for its figures, printed for people
    /// only (for example `msgs_per_s` for `units_per_s`).
    pub aliases: Vec<(&'static str, &'static str, Figure)>,
    /// Free-form lines printed before the figures.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.figures.insert(name, Figure { value, samples });
    }

    /// Prints the run. Fails (without printing the result line) when an
    /// end-to-end figure is missing or not finite — a tail percentile
    /// refused for too few samples, for instance.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "fail_frac {} (failed {} of {} attempted)",
            self.failed as f64 / attempted as f64,
            self.failed,
            attempted
        );
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut json = Vec::new();
        for &(name, unit) in list {
            let fig = match self.figures.get(name) {
                Some(f) => *f,
                None if traced => Figure {
                    value: 0.0,
                    samples: 0,
                },
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !fig.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            println!("{name} {} {unit} n={}", fig.value, fig.samples);
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fig.value
            ));
        }
        for (alias, of, fig) in &self.aliases {
            println!("  {alias} = {of}: {} n={}", fig.value, fig.samples);
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            attempted,
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

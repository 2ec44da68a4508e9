//! Deterministic observability for the HYDRA reproduction.
//!
//! The runtime's interesting behavior — which deployment pipeline stage
//! did how much work, which channel provider won a bid, how hard the ILP
//! solver searched — happens inside a discrete-event simulation. A
//! conventional metrics library would stamp everything with the wall
//! clock and ruin reproducibility; this crate instead records:
//!
//! - **counters** (`sent`, `dropped`, provider selections, host
//!   fallbacks),
//! - **high-water gauges** (channel backlog),
//! - **histograms** with power-of-two buckets (message latency, sizes),
//! - **spans** stamped with [`hydra_sim::time::SimTime`] and measured in
//!   modeled *work units* rather than elapsed time (sim time does not
//!   advance inside the deployment pipeline).
//!
//! - **causal trace events** ([`trace`]): a [`TraceCtx`] stamped onto a
//!   channel message at `send`, carried through provider queues and DMA
//!   rings as *hop* events, and closed at `recv`/`drop`, stored in a
//!   bounded flight-recorder ring with visible overflow accounting.
//!
//! - **telemetry windows** ([`timeline`]): a [`Sampler`] ticking on the
//!   DES engine clock closes fixed-width windows of counter deltas and
//!   instantaneous *level* tracks (queue depths), turning end-of-run
//!   aggregates into deterministic time series — per-device utilization,
//!   occupancy, and throughput over time.
//!
//! Everything is keyed by a static metric name plus an instance label.
//! Each key is interned once into a dense slot behind a sorted
//! `(name, label)` index: hot paths hold typed handles
//! ([`CounterId`], [`GaugeId`], [`LevelId`], [`HistId`], [`TraceLabel`])
//! and update by slot write, with no lock, lookup or allocation, while
//! cold paths use the string API over the same slots. Renderings walk
//! the sorted index, so a [`MetricsSnapshot`] — including its JSON
//! rendering — is byte-for-byte identical across identical executions.
//! `tests/obs_determinism.rs` in the workspace root holds the proof. The
//! [`Recorder`] is an `Rc`, single-threaded by design: one simulation
//! world, one registry; a sharded simulation would keep one registry per
//! shard and merge them at snapshot time.
//!
//! Two consumers sit on top of the frozen snapshot: [`export`] renders
//! the event chains as Chrome trace-event JSON (`chrome://tracing` /
//! Perfetto), and [`budget`] checks counters against committed baselines
//! with per-counter tolerances — a metrics regression gate for CI.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod budget;
pub mod export;
pub mod histogram;
pub mod recorder;
pub mod snapshot;
pub mod timeline;
pub mod trace;

pub use bounds::{
    check_bound, peak_level, peak_window_permille, sustained_busy_permille, BoundViolation,
};
pub use budget::{check_budget, parse_budget, BudgetSpec, BudgetViolation, CounterBudget};
pub use export::chrome_trace;
pub use histogram::Histogram;
pub use recorder::{CounterId, GaugeId, HistId, LevelId, Recorder, SpanId, SpanRecord};
pub use snapshot::{
    json_str, ChannelProfileSample, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot,
    ProfileBucketSample, SpanSample, TraceEventSample,
};
pub use timeline::{
    timeline_csv, Sampler, TimeSeries, WindowLevelSample, WindowSample, WindowTrackSample,
};
pub use trace::{
    EventId, FlightRecorder, IntoTraceLabel, TraceCtx, TraceEvent, TraceEventKind, TraceId,
    TraceLabel,
};

//! # hydra-sim — discrete-event simulation kernel
//!
//! The foundation of the HYDRA reproduction: a deterministic discrete-event
//! simulator with nanosecond-resolution virtual time, a seedable PCG random
//! number generator with stream splitting, and the measurement primitives
//! (samples, histograms, time-weighted gauges) that the paper's experiment
//! harness needs.
//!
//! The original HYDRA system ran on real hardware — programmable NICs, a
//! GPU, Linux kernel modules. This reproduction replaces the testbed with a
//! simulated machine; every hardware and network model in the workspace is
//! driven by the [`Sim`] engine defined here.
//!
//! ## Example
//!
//! ```
//! use hydra_sim::{Sim, time::{SimDuration, SimTime}};
//!
//! // A model can be any type; events are closures over `&mut Sim<M>`.
//! #[derive(Debug, Default)]
//! struct World { packets: u32 }
//!
//! let mut sim = Sim::new(World::default());
//! sim.every(SimTime::ZERO, SimDuration::from_millis(5), |sim| {
//!     sim.model_mut().packets += 1;
//!     sim.model().packets < 10
//! });
//! sim.run();
//! assert_eq!(sim.model().packets, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use engine::{
    BinaryHeapScheduler, CalendarQueue, EventId, SchedEntry, SchedStats, Scheduler, SchedulerKind,
    Sim,
};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultParseError, FaultPlan};
pub use rng::DetRng;
pub use slab::{Slab, SlabKey};
pub use stats::{Histogram, Samples, Summary, TimeWeighted};
pub use time::{SimDuration, SimTime};

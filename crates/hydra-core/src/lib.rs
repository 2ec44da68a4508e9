//! # hydra-core — the HYDRA runtime
//!
//! The paper's primary contribution, reproduced as a library: Offcodes and
//! their two-phase lifecycle ([`offcode`]), marshaled `Call` objects with
//! interface type checking ([`call`]), typed invocation proxies
//! ([`proxy`]), communication channels with device-specific providers and
//! the cost-driven Channel Executive ([`channel`]), the device registry
//! ([`device`]), the §5 offloading layout graph with exact-ILP and greedy
//! resolvers ([`layout`]), the pseudo-Offcodes that bound firmware
//! symbol resolution ([`pseudo`]), and the deployment pipeline that ties
//! it all together ([`runtime`]). The paper's resource management unit
//! is the runtime's instance table: each instance holds its device
//! memory reservation, its OOB channel and its receive endpoints, and
//! [`Runtime::teardown`] returns all three.
//!
//! ```text
//! ODFs ──▶ layout graph ──▶ placement (ILP) ──▶ link at device
//!   base ──▶ OOB channel ──▶ initialize ──▶ start ──▶ calls flow
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod call;
pub mod channel;
pub mod device;
pub mod error;
pub mod health;
pub mod layout;
pub mod offcode;
pub mod providers;
pub mod proxy;
pub mod pseudo;
pub mod runtime;

pub use call::{Call, CallTypeError, MarshalError, Value};
pub use channel::{
    AdaptivePolicy, Buffering, Channel, ChannelConfig, ChannelCost, ChannelError, ChannelExecutive,
    ChannelId, ChannelProvider, CostProfile, Reliability, RetryPolicy, SyncPolicy, Transport,
    CHANNEL_QUEUE_DEPTH,
};
pub use device::{DeviceDescriptor, DeviceId, DeviceRegistry};
pub use error::{MigrateError, MigrateLeg, RuntimeError};
pub use health::{DeviceHealth, HealthMonitor, HealthTransition};
pub use hydra_obs::{MetricsSnapshot, Recorder};
pub use layout::{GraphDelta, LayoutError, LayoutGraph, LayoutNode, NodeIdx, Objective, Placement};
pub use offcode::{synthetic_object, Offcode, OffcodeCtx, OffcodeId};
pub use providers::{DoorbellBatchProvider, PioProvider};
pub use proxy::Proxy;
pub use pseudo::{HeapOffcode, RuntimeInfoOffcode, HEAP_GUID, RUNTIME_GUID};
pub use runtime::{Deployment, DispatchResult, Lifecycle, RecoveryReport, Runtime, RuntimeConfig};

//! # hydra-tivo — the TiVoPC case study
//!
//! The paper's §6 end to end: the TiVo component Offcodes with the
//! Figure 8 constraint layout ([`components`]), the three video-server
//! implementations whose jitter, CPU and L2 behaviour Figures 9–10 and
//! Tables 2–3 report ([`server`]), the user-space vs offloaded client of
//! Table 4 ([`client`]), the record-then-playback flow with real bytes
//! through the smart disk ([`playback`]), the Figure 1 GHz/Gbps model
//! ([`tcpmodel`]), and the harness that regenerates every table and
//! figure in paper format ([`experiments`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod client;
pub mod components;
pub mod demo;
pub mod experiments;
pub mod faults;
pub mod onload;
pub mod playback;
pub mod server;
pub mod stats;
pub mod storage;
pub mod tcpmodel;
pub mod toe;
pub mod virtualization;

pub use certify::{
    certify_service_table, certify_set, demo_certify_odfs, observe_declared, stats_certify_odfs,
    stats_observation, stats_overlay, tivo_certify_odfs, Observation, ObservedChannel,
};
pub use client::{run_client, stream_frames, ClientConfig, ClientKind, ClientRun};
pub use components::{register_tivo_client, tivo_client_odfs, tivo_server_odfs, TivoComponent};
pub use demo::demo_deployment;
pub use faults::{fault_demo_odfs, fault_demo_plan, run_fault_demo};

pub use experiments::{
    fig1, fig10_tab3, fig9_tab2, ilp_vs_greedy, tab4_client, ClientResults, Fig1, IlpResults,
    JitterResults, ServerSideResults, SuiteConfig,
};
pub use onload::{compare_designs, IoDesign, IoDesignPoint};
pub use playback::{run_record_playback, PlaybackConfig, PlaybackRun};
pub use server::{run_server, ServerConfig, ServerKind, ServerRun};
pub use stats::{run_stats_demo, run_stats_observed, stats_demo_plan, StatsChannelObs};
pub use storage::{build_corpus, run_search, SearchKind, SearchRun};
pub use tcpmodel::{GhzGbpsModel, GhzGbpsPoint, TcpDirection};
pub use toe::{run_bulk_receive, TcpPlacement, ToeRun};
pub use virtualization::{run_vm_demux, vm_demux_comparison, DemuxKind, VmDemuxConfig, VmDemuxRun};

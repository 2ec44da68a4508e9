//! Flow certification: network-calculus propagation of arrival and
//! service curves through the deployment graph.
//!
//! Every Offcode declares (or defaults) a token-bucket arrival curve for
//! its outbound calls: sustained `rate_per_sec`, `burst` messages, and
//! `max_bytes` per message. Each node with inbound import edges serves
//! one descriptor ring; the pass aggregates the curves of all writers
//! into the ring and charges the worst-case service time from the
//! [`ServiceTable`] the Channel Executive itself exports. From that it
//! derives, per ring:
//!
//! - **stability** — the aggregate arrival rate must not exceed the
//!   worst-case service rate (`HV041` when it does: no finite bound
//!   exists);
//! - **worst-case queue depth** — the sum of writer bursts plus one
//!   in-service slot per writer (`HV040` when it exceeds the ring
//!   capacity: statically provable ring exhaustion);
//! - **worst-case latency** — queue bound × worst-case service time plus
//!   one worst-case provider setup (the first message on a cold channel
//!   pays it).
//!
//! Device utilization charges every ring's load against *every* device
//! the precheck still allows it on (plus the host fallback), so the
//! bound holds for any placement the solver picks: `HV042` above 1000‰
//! sustained, `HV043` above 800‰. Chain latency bounds sum the ring
//! bounds along every maximal import path from the deployment roots.
//!
//! A [`FaultOverlay`] widens the *certificate* (latency and utilization)
//! by the committed fault plan's per-device disruption budget without
//! changing the diagnostics: a fault plan makes observed behavior worse,
//! never the deployment more broken.

use hydra_obs::json_str;
use hydra_odf::odf::{Guid, TrafficSpec};

use crate::diag::{Diagnostic, HvCode, Loc};
use crate::input::{DeviceTable, GraphView};
use crate::precheck::Precheck;
use crate::service::ServiceTable;

/// Default sustained rate assumed for an Offcode without a `<traffic>`
/// element (messages per second).
pub const DEFAULT_RATE_PER_SEC: u64 = 1_000;
/// Default burst assumed without a `<traffic>` element.
pub const DEFAULT_BURST: u64 = 1;
/// Default message size assumed without a `<traffic>` element (bytes).
pub const DEFAULT_MAX_BYTES: u64 = 1_024;

/// Most maximal chains enumerated before the certificate truncates.
const MAX_CHAINS: usize = 64;

/// Certified worst-case bounds for one descriptor ring (one serving
/// Offcode instance and every channel posting into it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelBound {
    /// Node index of the serving Offcode.
    pub node: usize,
    /// Bind name of the serving Offcode.
    pub bind_name: String,
    /// GUID of the serving Offcode (raw value).
    pub guid_value: u64,
    /// Number of distinct writers posting into the ring.
    pub writers: u64,
    /// Aggregate sustained arrival rate (messages per second).
    pub rate_per_sec: u64,
    /// Largest message any writer can post (bytes).
    pub max_bytes: u64,
    /// Worst-case per-message service time (nanoseconds).
    pub service_ns: u64,
    /// Worst-case queue depth (descriptor-ring entries).
    pub queue_bound: u64,
    /// The ring's capacity in entries.
    pub ring_capacity: u64,
    /// Whether the ring is stable (arrival rate ≤ service rate).
    pub stable: bool,
    /// Worst-case per-message latency through the ring in nanoseconds;
    /// `None` when the ring is unstable (no finite bound exists).
    pub latency_bound_ns: Option<u64>,
}

/// Certified end-to-end latency bound for one maximal import chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainBound {
    /// Bind names along the chain, root first.
    pub path: Vec<String>,
    /// Sum of per-hop ring latency bounds; `None` if any hop is
    /// unstable.
    pub latency_bound_ns: Option<u64>,
}

/// Certified sustained utilization bound for one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceBound {
    /// Device index in the table (0 = host).
    pub index: usize,
    /// Diagnostic name.
    pub name: String,
    /// Worst-case sustained busy time in permille of wall time.
    pub permille: u64,
}

/// The quantitative certificate: every bound the flow pass derived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Certificate {
    /// Per-ring bounds, in serving-node index order.
    pub channels: Vec<ChannelBound>,
    /// Per-chain latency bounds, lexicographic by path.
    pub chains: Vec<ChainBound>,
    /// Per-device utilization bounds, in device index order.
    pub devices: Vec<DeviceBound>,
    /// Whether chain enumeration hit the cap and was truncated.
    pub truncated: bool,
}

impl Certificate {
    /// Looks up the bound for the ring served by `bind_name`.
    pub fn channel(&self, bind_name: &str) -> Option<&ChannelBound> {
        self.channels.iter().find(|c| c.bind_name == bind_name)
    }

    /// Looks up the utilization bound for device `index`.
    pub fn device(&self, index: usize) -> Option<&DeviceBound> {
        self.devices.iter().find(|d| d.index == index)
    }

    /// Canonical JSON: fixed field order, pre-sorted vectors, no
    /// nondeterministic content.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"channels\":[");
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let latency = c
                .latency_bound_ns
                .map_or_else(|| "null".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"ring\":{},\"guid\":{},\"writers\":{},\"rate_per_sec\":{},\
                 \"max_bytes\":{},\"service_ns\":{},\"queue_bound\":{},\
                 \"ring_capacity\":{},\"stable\":{},\"latency_bound_ns\":{}}}",
                json_str(&c.bind_name),
                c.guid_value,
                c.writers,
                c.rate_per_sec,
                c.max_bytes,
                c.service_ns,
                c.queue_bound,
                c.ring_capacity,
                c.stable,
                latency
            ));
        }
        out.push_str("],\"chains\":[");
        for (i, ch) in self.chains.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let path: Vec<String> = ch.path.iter().map(|p| json_str(p)).collect();
            let latency = ch
                .latency_bound_ns
                .map_or_else(|| "null".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"path\":[{}],\"latency_bound_ns\":{}}}",
                path.join(","),
                latency
            ));
        }
        out.push_str("],\"devices\":[");
        for (i, d) in self.devices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"name\":{},\"permille\":{}}}",
                d.index,
                json_str(&d.name),
                d.permille
            ));
        }
        out.push_str(&format!("],\"truncated\":{}}}", self.truncated));
        out
    }
}

/// A committed fault plan's disruption budget, used to *widen* the
/// certificate so bounds still bracket observed behavior under faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultOverlay {
    /// Per-device total disruption over the horizon: `(device index,
    /// nanoseconds the device is stalled or recovering)`.
    pub disruptions: Vec<(usize, u64)>,
    /// The observation horizon in nanoseconds the disruptions are
    /// amortized over.
    pub horizon_ns: u64,
}

impl FaultOverlay {
    /// Total disruption budget charged to device `k`.
    fn device_ns(&self, k: usize) -> u64 {
        self.disruptions
            .iter()
            .filter(|(d, _)| *d == k)
            .map(|(_, ns)| *ns)
            .sum()
    }

    /// The disruption in permille of the horizon for device `k`.
    fn device_permille(&self, k: usize) -> u64 {
        if self.horizon_ns == 0 {
            return 0;
        }
        let num = u128::from(self.device_ns(k)) * 1_000u128;
        u64::try_from(num.div_ceil(u128::from(self.horizon_ns))).unwrap_or(u64::MAX)
    }
}

/// The effective arrival curve for a node: declared or defaulted.
fn effective_traffic(view: &GraphView<'_>, n: usize) -> TrafficSpec {
    view.nodes[n].traffic.unwrap_or(TrafficSpec {
        rate_per_sec: DEFAULT_RATE_PER_SEC,
        burst: DEFAULT_BURST,
        max_bytes: DEFAULT_MAX_BYTES,
    })
}

/// Runs the flow pass; returns (diagnostics, work units, certificate).
///
/// Diagnostics are judged on the *unwidened* bounds; the `overlay` (a
/// committed fault plan) then widens the certificate's latency and
/// utilization entries so the differential harness can assert
/// bracketing under faults too.
pub(crate) fn run(
    view: &GraphView<'_>,
    pre: &Precheck,
    services: &ServiceTable,
    devices: &DeviceTable,
    roots: Option<&[Guid]>,
    overlay: Option<&FaultOverlay>,
) -> (Vec<Diagnostic>, u64, Certificate) {
    let mut diags = Vec::new();
    let n = view.nodes.len();
    let work = (n + view.edges.len()) as u64;
    let node_loc = |j: usize| Loc::Node {
        index: j,
        bind_name: view.nodes[j].bind_name.to_owned(),
    };

    // HV044: outbound callers running on the default curve.
    for (i, node) in view.nodes.iter().enumerate() {
        if node.traffic.is_none() && !view.successors(i).is_empty() {
            diags.push(
                Diagnostic::new(
                    HvCode::DefaultedTraffic,
                    node_loc(i),
                    format!(
                        "no <traffic> element; certified with the default curve \
                         ({DEFAULT_RATE_PER_SEC}/s burst {DEFAULT_BURST} x {DEFAULT_MAX_BYTES}B)"
                    ),
                )
                .for_subject(node.guid),
            );
        }
    }

    // Per-ring aggregation: every node with inbound edges serves a ring,
    // and each inbound edge adds its writer's curve.
    let rings = (0..n).filter(|&j| !view.importers(j).is_empty()).count();
    let mut channels = Vec::with_capacity(rings);
    for j in 0..n {
        let inbound = view.importers(j);
        if inbound.is_empty() {
            continue;
        }
        let writers = view.writers(j).count() as u64;
        let mut agg_rate: u64 = 0;
        let mut burst_sum: u64 = 0;
        let mut max_bytes: u64 = 0;
        for &w in inbound {
            let t = effective_traffic(view, w);
            agg_rate = agg_rate.saturating_add(t.rate_per_sec);
            burst_sum = burst_sum.saturating_add(t.burst);
            max_bytes = max_bytes.max(t.max_bytes);
        }
        let service_ns = services.worst_service_ns(max_bytes);
        // Stable iff the worst-case time to serve one second's arrivals
        // fits in one second: rate × service_ns ≤ 1e9 (u128, no overflow).
        let stable = u128::from(agg_rate) * u128::from(service_ns) <= 1_000_000_000u128;
        // Each writer can dump its full burst concurrently, plus one
        // message in service per writer.
        let queue_bound = burst_sum.saturating_add(writers);
        if !stable {
            diags.push(
                Diagnostic::new(
                    HvCode::UnstableChannel,
                    node_loc(j),
                    format!(
                        "aggregate arrival rate {agg_rate}/s exceeds worst-case service \
                         rate ({service_ns}ns per {max_bytes}B message): backlog is unbounded"
                    ),
                )
                .for_subject(view.nodes[j].guid),
            );
        } else if queue_bound > services.ring_capacity {
            diags.push(
                Diagnostic::new(
                    HvCode::QueueBoundExceedsRing,
                    node_loc(j),
                    format!(
                        "worst-case queue depth {queue_bound} exceeds ring capacity {}: \
                         ring exhaustion is statically provable",
                        services.ring_capacity
                    ),
                )
                .for_subject(view.nodes[j].guid),
            );
        }
        let latency_bound_ns = stable.then(|| {
            queue_bound
                .saturating_mul(service_ns)
                .saturating_add(services.worst_setup_ns())
        });
        channels.push(ChannelBound {
            node: j,
            bind_name: view.nodes[j].bind_name.to_owned(),
            guid_value: view.nodes[j].guid.0,
            writers,
            rate_per_sec: agg_rate,
            max_bytes,
            service_ns,
            queue_bound,
            ring_capacity: services.ring_capacity,
            stable,
            latency_bound_ns,
        });
    }

    // Device utilization: charge each ring's load to every device the
    // precheck still allows the serving node on, plus the host fallback —
    // the bound then holds for any placement the solver picks.
    let mut busy_permille = vec![0u128; devices.devices.len()];
    for c in &channels {
        let j = c.node;
        let mut load_ns: u128 = 0;
        for &w in view.importers(j) {
            let t = effective_traffic(view, w);
            load_ns +=
                u128::from(t.rate_per_sec) * u128::from(services.device_occupancy_ns(t.max_bytes));
        }
        for k in std::iter::once(0).chain(pre.feasible.iter(j)) {
            if k < busy_permille.len() {
                busy_permille[k] += load_ns;
            }
        }
    }
    let mut device_bounds = Vec::with_capacity(devices.devices.len());
    for (k, dev) in devices.devices.iter().enumerate() {
        // load_ns is ns-per-second of busy time; /1e6 gives permille.
        let permille = u64::try_from(busy_permille[k] / 1_000_000u128).unwrap_or(u64::MAX);
        let loc = || Loc::Device {
            index: k,
            name: dev.name.clone(),
        };
        if permille > 1000 {
            diags.push(Diagnostic::new(
                HvCode::UtilizationOverrun,
                loc(),
                format!(
                    "certified sustained utilization {permille} permille exceeds 1000: \
                     the declared load cannot be served"
                ),
            ));
        } else if permille > 800 {
            diags.push(Diagnostic::new(
                HvCode::UtilizationHigh,
                loc(),
                format!("certified sustained utilization {permille} permille exceeds 800"),
            ));
        }
        device_bounds.push(DeviceBound {
            index: k,
            name: dev.name.clone(),
            permille,
        });
    }

    // Widen the certificate by the committed fault plan: a disrupted
    // device can stall every ring it may host for its full disruption
    // budget, and its busy fraction can rise by the same share.
    let mut certificate = Certificate {
        channels,
        chains: Vec::new(),
        devices: device_bounds,
        truncated: false,
    };
    if let Some(ov) = overlay {
        for c in &mut certificate.channels {
            let extra = std::iter::once(0)
                .chain(pre.feasible.iter(c.node))
                .map(|k| ov.device_ns(k))
                .max()
                .unwrap_or(0);
            c.latency_bound_ns = c.latency_bound_ns.map(|l| l.saturating_add(extra));
        }
        for d in &mut certificate.devices {
            let widened = d.permille.saturating_add(ov.device_permille(d.index));
            d.permille = widened.min(1000).max(d.permille.min(1000));
        }
    }

    // Chains: every maximal simple path from the deployment roots, with
    // latency as the sum of the (possibly widened) per-hop ring bounds.
    // Per-node hop cost: a served ring's latency bound, `None` for an
    // unstable ring (no finite bound poisons the chain), zero for a
    // node that serves no ring (cannot appear as a hop, but total
    // correctly ignores it).
    let mut ring_latency: Vec<Option<u64>> = vec![Some(0); n];
    for c in &certificate.channels {
        ring_latency[c.node] = c.latency_bound_ns;
    }
    let mut walk = ChainWalk {
        view,
        ring_latency: &ring_latency,
        path: Vec::new(),
        on_path: vec![false; n],
        hops: Vec::new(),
        found: Vec::new(),
        truncated: false,
    };
    for r in view.roots(roots) {
        walk.path.push(r);
        walk.on_path[r] = true;
        walk.extend();
        walk.on_path[r] = false;
        walk.path.pop();
    }
    let ChainWalk {
        hops,
        mut found,
        truncated,
        ..
    } = walk;
    let names = |c: &Chain| {
        hops[c.hops.clone()]
            .iter()
            .map(|&i| view.nodes[i].bind_name)
    };
    found.sort_by(|a, b| names(a).cmp(names(b)));
    found.dedup_by(|a, b| a.latency_bound_ns == b.latency_bound_ns && names(a).eq(names(b)));
    certificate.chains = found
        .iter()
        .map(|c| ChainBound {
            path: names(c).map(str::to_owned).collect(),
            latency_bound_ns: c.latency_bound_ns,
        })
        .collect();
    certificate.truncated = truncated;

    (diags, work, certificate)
}

/// One maximal chain found by [`ChainWalk`]: its node indices are
/// `hops[self.hops]`.
struct Chain {
    hops: std::ops::Range<usize>,
    latency_bound_ns: Option<u64>,
}

/// Depth-first enumeration of maximal simple paths by node index; the
/// bind names are read only once the chains are sorted.
struct ChainWalk<'v, 'a> {
    view: &'v GraphView<'a>,
    ring_latency: &'v [Option<u64>],
    /// The current path, root first.
    path: Vec<usize>,
    on_path: Vec<bool>,
    /// Every recorded chain's node indices, back to back.
    hops: Vec<usize>,
    found: Vec<Chain>,
    truncated: bool,
}

impl ChainWalk<'_, '_> {
    /// Extends the current path by every unvisited successor of its tip;
    /// records a chain when the tip has none.
    fn extend(&mut self) {
        if self.found.len() >= MAX_CHAINS {
            self.truncated = true;
            return;
        }
        let v = *self.path.last().expect("path never empty");
        let mut extended = false;
        for &w in self.view.successors(v) {
            if self.on_path[w] {
                continue;
            }
            extended = true;
            self.path.push(w);
            self.on_path[w] = true;
            self.extend();
            self.on_path[w] = false;
            self.path.pop();
        }
        if !extended && self.path.len() > 1 {
            let mut total: Option<u64> = Some(0);
            for &hop in &self.path[1..] {
                total = match (total, self.ring_latency[hop]) {
                    (Some(t), Some(l)) => Some(t.saturating_add(l)),
                    _ => None,
                };
            }
            let start = self.hops.len();
            self.hops.extend_from_slice(&self.path);
            self.found.push(Chain {
                hops: start..self.hops.len(),
                latency_bound_ns: total,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{test_view, EdgeView, NodeView};
    use hydra_odf::odf::{class_ids, ConstraintKind};

    fn node(
        name: &str,
        guid: u64,
        traffic: Option<TrafficSpec>,
    ) -> (NodeView<'_>, &'static [bool]) {
        let node = NodeView {
            guid: Guid(guid),
            bind_name: name,
            demand: 1024,
            traffic,
        };
        (node, &[true, true])
    }

    fn edge(from: usize, to: usize) -> EdgeView {
        EdgeView {
            from,
            to,
            kind: ConstraintKind::Link,
        }
    }

    fn table() -> DeviceTable {
        DeviceTable {
            devices: vec![
                crate::input::DeviceInfo {
                    class: class_ids::HOST_CPU,
                    name: "host".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 1 << 28,
                },
                crate::input::DeviceInfo {
                    class: class_ids::NETWORK,
                    name: "nic".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 1 << 21,
                },
            ],
        }
    }

    fn run_flow(
        view: &GraphView,
        overlay: Option<&FaultOverlay>,
    ) -> (Vec<Diagnostic>, Certificate) {
        let pre = Precheck::narrow(view);
        let (d, _, c) = run(
            view,
            &pre,
            &ServiceTable::conservative_default(),
            &table(),
            None,
            overlay,
        );
        (d, c)
    }

    fn spec(rate: u64, burst: u64, bytes: u64) -> TrafficSpec {
        TrafficSpec {
            rate_per_sec: rate,
            burst,
            max_bytes: bytes,
        }
    }

    #[test]
    fn stable_ring_gets_finite_bounds() {
        let view = test_view(
            vec![
                node("a", 1, Some(spec(10_000, 2, 16 * 1024))),
                node("b", 2, None),
            ],
            vec![edge(0, 1)],
        );
        let (diags, cert) = run_flow(&view, None);
        assert!(diags.iter().all(|d| d.code != HvCode::UnstableChannel));
        let c = cert.channel("b").unwrap();
        assert!(c.stable);
        assert_eq!(c.queue_bound, 3, "burst 2 + one in service");
        assert_eq!(c.service_ns, 9_000 + 65_536, "kernel-copy dominates 16K");
        assert_eq!(c.latency_bound_ns, Some(3 * (9_000 + 65_536) + 140_000));
        assert_eq!(cert.chains.len(), 1);
        assert_eq!(cert.chains[0].path, vec!["a", "b"]);
        assert_eq!(cert.chains[0].latency_bound_ns, c.latency_bound_ns);
    }

    #[test]
    fn overload_fires_hv041_and_kills_latency() {
        let view = test_view(
            vec![
                node("a", 1, Some(spec(1_000_000, 1, 16 * 1024))),
                node("b", 2, None),
            ],
            vec![edge(0, 1)],
        );
        let (diags, cert) = run_flow(&view, None);
        assert!(diags.iter().any(|d| d.code == HvCode::UnstableChannel));
        assert_eq!(cert.channel("b").unwrap().latency_bound_ns, None);
        assert_eq!(cert.chains[0].latency_bound_ns, None);
    }

    #[test]
    fn burst_overflow_fires_hv040() {
        let view = test_view(
            vec![node("a", 1, Some(spec(1_000, 100, 64))), node("b", 2, None)],
            vec![edge(0, 1)],
        );
        let (diags, cert) = run_flow(&view, None);
        assert!(diags
            .iter()
            .any(|d| d.code == HvCode::QueueBoundExceedsRing));
        assert!(cert.channel("b").unwrap().queue_bound > 64);
        // The ring is still stable: the bound is about depth, not rate.
        assert!(cert.channel("b").unwrap().stable);
    }

    #[test]
    fn defaulted_traffic_reports_hv044_for_writers_only() {
        let view = test_view(
            vec![node("a", 1, None), node("b", 2, None)],
            vec![edge(0, 1)],
        );
        let (diags, _) = run_flow(&view, None);
        let defaults: Vec<_> = diags
            .iter()
            .filter(|d| d.code == HvCode::DefaultedTraffic)
            .collect();
        assert_eq!(defaults.len(), 1, "only the writer is defaulted");
        assert_eq!(defaults[0].subject, Some(Guid(1)));
    }

    #[test]
    fn utilization_charges_every_feasible_device() {
        // 60k msgs/s of 16 KiB: occupancy 26.384µs each → ~1583‰.
        let view = test_view(
            vec![
                node("a", 1, Some(spec(60_000, 1, 16 * 1024))),
                node("b", 2, None),
            ],
            vec![edge(0, 1)],
        );
        let (diags, cert) = run_flow(&view, None);
        assert!(diags.iter().any(|d| d.code == HvCode::UtilizationOverrun));
        // Charged to the NIC (feasible) *and* the host (fallback).
        assert!(cert.device(0).unwrap().permille > 1000);
        assert!(cert.device(1).unwrap().permille > 1000);
    }

    #[test]
    fn overlay_widens_certificate_not_diagnostics() {
        let view = test_view(
            vec![
                node("a", 1, Some(spec(10_000, 2, 16 * 1024))),
                node("b", 2, None),
            ],
            vec![edge(0, 1)],
        );
        let (base_diags, base) = run_flow(&view, None);
        let overlay = FaultOverlay {
            disruptions: vec![(1, 400_000)],
            horizon_ns: 10_000_000,
        };
        let (diags, widened) = run_flow(&view, Some(&overlay));
        assert_eq!(base_diags, diags, "overlay never changes findings");
        let b0 = base.channel("b").unwrap().latency_bound_ns.unwrap();
        let b1 = widened.channel("b").unwrap().latency_bound_ns.unwrap();
        assert_eq!(b1, b0 + 400_000);
        assert_eq!(
            widened.device(1).unwrap().permille,
            base.device(1).unwrap().permille + 40
        );
    }

    #[test]
    fn certificate_json_is_deterministic() {
        let view = test_view(
            vec![
                node("a", 1, Some(spec(10_000, 2, 16 * 1024))),
                node("b", 2, None),
            ],
            vec![edge(0, 1)],
        );
        let (_, c1) = run_flow(&view, None);
        let (_, c2) = run_flow(&view, None);
        assert_eq!(c1.to_json(), c2.to_json());
        assert!(c1.to_json().contains("\"queue_bound\":3"));
    }
}

//! A store-and-forward Ethernet switch.
//!
//! The testbed's Dell PowerConnect 6024 is modelled as a learning switch
//! with per-output-port queues: a frame is received completely, looked up,
//! then queued for its output link. Queueing behind cross traffic is the
//! network's contribution to packet jitter; finite queues drop frames
//! (the paper's UDP stream is deliberately unreliable).

use std::collections::HashMap;

use hydra_sim::time::{SimDuration, SimTime};

use crate::link::{Link, LinkSpec};
use crate::packet::{MacAddr, Packet};

/// A switch port identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Outcome of offering a frame to the switch.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardOutcome {
    /// The frame will be delivered out `port` and arrives at `arrival`.
    Deliver {
        /// Output port chosen by the MAC table (or flood target).
        port: PortId,
        /// Arrival instant at the far end of the output link.
        arrival: SimTime,
    },
    /// The frame was dropped because the output queue was full.
    Dropped,
    /// The destination is unknown and flooding found no other port.
    NoRoute,
}

/// Statistics of one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped at full output queues.
    pub dropped: u64,
    /// Frames flooded (unknown destination).
    pub flooded: u64,
}

/// A learning store-and-forward switch.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use hydra_net::link::LinkSpec;
/// use hydra_net::packet::{MacAddr, Packet, Port, Protocol};
/// use hydra_net::switch::{ForwardOutcome, PortId, Switch};
/// use hydra_sim::time::SimTime;
///
/// let mut sw = Switch::new(LinkSpec::gigabit(), 64);
/// let a = sw.add_port(MacAddr(1));
/// let b = sw.add_port(MacAddr(2));
/// let pkt = Packet::new(MacAddr(1), Port(1), MacAddr(2), Port(2), Protocol::Udp, Bytes::new());
/// match sw.forward(SimTime::ZERO, a, &pkt) {
///     ForwardOutcome::Deliver { port, .. } => assert_eq!(port, b),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Switch {
    ports: Vec<Link>,
    mac_table: HashMap<MacAddr, PortId>,
    queue_capacity: usize,
    /// Pending departures per port, pruned lazily: (departure instant).
    in_flight: Vec<Vec<SimTime>>,
    latency: SimDuration,
    spec_template: LinkSpec,
    stats: SwitchStats,
}

impl Switch {
    /// Creates a switch whose output links all share `spec`, with
    /// `queue_capacity` frames of buffering per output port.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero.
    pub fn new(spec: LinkSpec, queue_capacity: usize) -> Self {
        assert!(
            queue_capacity > 0,
            "Switch: queue_capacity must be positive"
        );
        Switch {
            ports: Vec::new(),
            mac_table: HashMap::new(),
            queue_capacity,
            in_flight: Vec::new(),
            latency: SimDuration::from_micros(4), // store-and-forward + lookup
            spec_template: spec,
            stats: SwitchStats::default(),
        }
    }

    /// Attaches a station, returning its port.
    pub fn add_port(&mut self, station: MacAddr) -> PortId {
        let id = PortId(self.ports.len());
        self.ports.push(Link::new(self.spec_template));
        self.mac_table.insert(station, id);
        self.in_flight.push(Vec::new());
        id
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    fn queue_len(&mut self, port: PortId, now: SimTime) -> usize {
        let q = &mut self.in_flight[port.0];
        q.retain(|&dep| dep > now);
        q.len()
    }

    /// Offers a frame received on `ingress` at `now`.
    ///
    /// Learning: the source MAC is bound to `ingress`. Lookup: known
    /// destinations go out their port; unknown destinations are "flooded",
    /// which in this point-to-point model means delivered to the only
    /// other port if exactly one exists.
    pub fn forward(&mut self, now: SimTime, ingress: PortId, packet: &Packet) -> ForwardOutcome {
        self.mac_table.insert(packet.src, ingress);
        let egress = match self.mac_table.get(&packet.dst) {
            Some(&p) if p != ingress => p,
            Some(_) => return ForwardOutcome::NoRoute, // hairpin: not modelled
            None => {
                self.stats.flooded += 1;
                let candidates: Vec<PortId> = (0..self.ports.len())
                    .map(PortId)
                    .filter(|&p| p != ingress)
                    .collect();
                match candidates.as_slice() {
                    [only] => *only,
                    _ => return ForwardOutcome::NoRoute,
                }
            }
        };
        if self.queue_len(egress, now) >= self.queue_capacity {
            self.stats.dropped += 1;
            return ForwardOutcome::Dropped;
        }
        let ready = now + self.latency;
        let arrival = self.ports[egress.0].transmit(ready, packet.wire_bytes());
        self.in_flight[egress.0].push(arrival);
        self.stats.forwarded += 1;
        ForwardOutcome::Deliver {
            port: egress,
            arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Port, Protocol};
    use bytes::Bytes;

    fn pkt(src: u64, dst: u64, len: usize) -> Packet {
        Packet::new(
            MacAddr(src),
            Port(1),
            MacAddr(dst),
            Port(2),
            Protocol::Udp,
            Bytes::from(vec![0u8; len]),
        )
    }

    fn switch() -> (Switch, PortId, PortId) {
        let mut sw = Switch::new(LinkSpec::gigabit(), 4);
        let a = sw.add_port(MacAddr(1));
        let b = sw.add_port(MacAddr(2));
        (sw, a, b)
    }

    #[test]
    fn known_destination_routes_directly() {
        let (mut sw, a, b) = switch();
        match sw.forward(SimTime::ZERO, a, &pkt(1, 2, 100)) {
            ForwardOutcome::Deliver { port, arrival } => {
                assert_eq!(port, b);
                assert!(arrival > SimTime::ZERO);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.stats().forwarded, 1);
    }

    #[test]
    fn unknown_destination_floods_to_single_peer() {
        let mut sw = Switch::new(LinkSpec::gigabit(), 4);
        let a = sw.add_port(MacAddr(1));
        let _b = sw.add_port(MacAddr(2));
        // Destination 9 was never learned.
        match sw.forward(SimTime::ZERO, a, &pkt(1, 9, 10)) {
            ForwardOutcome::Deliver { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(sw.stats().flooded, 1);
    }

    #[test]
    fn unknown_destination_with_many_peers_is_no_route() {
        let mut sw = Switch::new(LinkSpec::gigabit(), 4);
        let a = sw.add_port(MacAddr(1));
        sw.add_port(MacAddr(2));
        sw.add_port(MacAddr(3));
        assert_eq!(
            sw.forward(SimTime::ZERO, a, &pkt(1, 9, 10)),
            ForwardOutcome::NoRoute
        );
    }

    #[test]
    fn full_queue_drops() {
        let (mut sw, a, _b) = switch(); // capacity 4
                                        // Big frames, all offered at t=0: they occupy the output queue.
        let mut outcomes = Vec::new();
        for i in 0..6 {
            outcomes.push(sw.forward(SimTime::ZERO, a, &pkt(1, 2, 9000 + i)));
        }
        let drops = outcomes
            .iter()
            .filter(|o| matches!(o, ForwardOutcome::Dropped))
            .count();
        assert_eq!(drops, 2);
        assert_eq!(sw.stats().dropped, 2);
    }

    #[test]
    fn queue_drains_over_time() {
        let (mut sw, a, _b) = switch();
        for _ in 0..4 {
            sw.forward(SimTime::ZERO, a, &pkt(1, 2, 1000));
        }
        // At t=0 the queue is full...
        assert_eq!(
            sw.forward(SimTime::ZERO, a, &pkt(1, 2, 1000)),
            ForwardOutcome::Dropped
        );
        // ...but after the frames depart it accepts again.
        let later = SimTime::from_millis(1);
        assert!(matches!(
            sw.forward(later, a, &pkt(1, 2, 1000)),
            ForwardOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn learning_rebinds_moved_station() {
        let mut sw = Switch::new(LinkSpec::gigabit(), 4);
        let a = sw.add_port(MacAddr(1));
        let b = sw.add_port(MacAddr(2));
        // Station 2 actually speaks from port a: learning rebinds it.
        sw.forward(SimTime::ZERO, a, &pkt(2, 1, 10));
        // Now traffic to 2 goes out port a, so from b it is deliverable.
        match sw.forward(SimTime::ZERO, b, &pkt(1, 2, 10)) {
            ForwardOutcome::Deliver { port, .. } => assert_eq!(port, a),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hairpin_is_no_route() {
        let (mut sw, a, _) = switch();
        // Destination on the same port it arrived from.
        sw.forward(SimTime::ZERO, a, &pkt(2, 1, 10)); // learn 2 -> a
        assert_eq!(
            sw.forward(SimTime::ZERO, a, &pkt(1, 2, 10)),
            ForwardOutcome::NoRoute
        );
    }
}

//! Device health tracking: sim-time heartbeats and a
//! Healthy → Suspect → Failed state machine.
//!
//! The runtime expects every non-host device to "beat" at least once per
//! [`HEARTBEAT_EVERY`]. A device model that has fail-stopped (its
//! [`hydra_sim::fault::FaultInjector`] says `crashed`) goes silent; after
//! [`SUSPECT_AFTER`] missed beats the monitor marks it Suspect, after
//! [`FAIL_AFTER`] it is Failed. A Suspect
//! device that resumes beating (a stall that cleared) is restored to
//! Healthy by the next [`HealthMonitor::poll`], which reports the
//! recovery edge like any other transition. Failure is sticky: a Failed
//! device never returns to service in this model, which keeps recovery
//! decisions (re-layout, migration) final and replayable.
//!
//! The monitor is pure bookkeeping — no wall clock, no channels — so two
//! runs over the same fault schedule produce byte-identical transitions.

use hydra_sim::{SimDuration, SimTime};

use crate::device::DeviceId;

/// Liveness verdict for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceHealth {
    /// Heartbeats arriving on schedule.
    Healthy,
    /// Missed enough beats to be suspicious; still in the layout.
    Suspect,
    /// Declared dead. Sticky — never leaves this state.
    Failed,
}

impl std::fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Suspect => "suspect",
            DeviceHealth::Failed => "failed",
        })
    }
}

/// Expected beat interval per device.
pub const HEARTBEAT_EVERY: SimDuration = SimDuration::from_millis(1);
/// Missed beats before Healthy degrades to Suspect.
pub const SUSPECT_AFTER: u32 = 2;
/// Missed beats before the device is declared Failed.
pub const FAIL_AFTER: u32 = 4;

/// One state-machine edge observed by [`HealthMonitor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// The device that changed state.
    pub device: DeviceId,
    /// Its previous state.
    pub from: DeviceHealth,
    /// Its new state.
    pub to: DeviceHealth,
    /// Consecutive beats missed when the edge fired.
    pub missed: u32,
}

#[derive(Debug, Clone, Copy)]
struct DeviceTrack {
    last_beat: SimTime,
    state: DeviceHealth,
}

/// Tracks heartbeats for a fleet of devices and reports state changes.
///
/// Device index 0 is the host by convention and is exempt: the host
/// cannot fail in this model (it is where Offcodes fall back *to*).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    tracks: Vec<DeviceTrack>,
}

impl HealthMonitor {
    /// A monitor for `devices` devices, all Healthy, last beat at time 0.
    #[must_use]
    pub fn new(devices: usize) -> Self {
        HealthMonitor {
            tracks: vec![
                DeviceTrack {
                    last_beat: SimTime::ZERO,
                    state: DeviceHealth::Healthy,
                };
                devices
            ],
        }
    }

    /// Record a heartbeat from `device` at `now`. Failed is sticky and
    /// ignores late beats.
    ///
    /// The beat only refreshes the deadline clock — the Suspect → Healthy
    /// edge itself fires from the next [`HealthMonitor::poll`], so a
    /// device that resumes beating after a stall produces an observable
    /// recovery transition instead of silently snapping back (the
    /// historical behavior reset state here, and `poll` — the only place
    /// transitions are reported — never saw the recovery).
    pub fn beat(&mut self, device: DeviceId, now: SimTime) {
        let Some(track) = self.tracks.get_mut(device.idx()) else {
            return;
        };
        if track.state == DeviceHealth::Failed {
            return;
        }
        track.last_beat = track.last_beat.max(now);
    }

    /// Evaluate every device against the deadline at `now` and return the
    /// transitions that fired, in device order.
    pub fn poll(&mut self, now: SimTime) -> Vec<HealthTransition> {
        let mut out = Vec::new();
        let period = HEARTBEAT_EVERY.as_nanos();
        for (idx, track) in self.tracks.iter_mut().enumerate() {
            if idx == 0 || track.state == DeviceHealth::Failed {
                continue;
            }
            let elapsed = now.as_nanos().saturating_sub(track.last_beat.as_nanos());
            let missed = u32::try_from(elapsed / period).unwrap_or(u32::MAX);
            let next = if missed >= FAIL_AFTER {
                DeviceHealth::Failed
            } else if missed >= SUSPECT_AFTER {
                DeviceHealth::Suspect
            } else {
                DeviceHealth::Healthy
            };
            if next != track.state {
                out.push(HealthTransition {
                    device: DeviceId(idx as u32),
                    from: track.state,
                    to: next,
                    missed,
                });
                track.state = next;
            }
        }
        out
    }

    /// Current state of `device` (Healthy for unknown indices, so a
    /// monitor built before hot-plug stays permissive).
    #[must_use]
    pub fn state(&self, device: DeviceId) -> DeviceHealth {
        self.tracks
            .get(device.idx())
            .map_or(DeviceHealth::Healthy, |t| t.state)
    }

    /// Force `device` straight to Failed (e.g. the runtime saw the crash
    /// directly instead of waiting out the deadline).
    pub fn mark_failed(&mut self, device: DeviceId) {
        if device.0 == 0 {
            return;
        }
        if let Some(track) = self.tracks.get_mut(device.idx()) {
            track.state = DeviceHealth::Failed;
        }
    }

    /// Whether `device` has been declared Failed.
    #[must_use]
    pub fn is_failed(&self, device: DeviceId) -> bool {
        self.state(device) == DeviceHealth::Failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn silence_escalates_healthy_suspect_failed() {
        let mut mon = HealthMonitor::new(3);
        mon.beat(DeviceId(1), at_ms(0));
        mon.beat(DeviceId(2), at_ms(0));
        assert!(mon.poll(at_ms(1)).is_empty());

        // Device 2 keeps beating; device 1 goes silent.
        mon.beat(DeviceId(2), at_ms(2));
        let t = mon.poll(at_ms(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].device, DeviceId(1));
        assert_eq!(t[0].to, DeviceHealth::Suspect);

        mon.beat(DeviceId(2), at_ms(4));
        let t = mon.poll(at_ms(4));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, DeviceHealth::Failed);
        assert!(mon.is_failed(DeviceId(1)));
        assert_eq!(mon.state(DeviceId(2)), DeviceHealth::Healthy);
    }

    #[test]
    fn beat_clears_suspect_but_failed_is_sticky() {
        let mut mon = HealthMonitor::new(2);
        let t = mon.poll(at_ms(3));
        assert_eq!(t[0].to, DeviceHealth::Suspect);
        mon.beat(DeviceId(1), at_ms(3));
        // The beat refreshes the deadline; the recovery edge itself is
        // poll's to report.
        assert_eq!(mon.state(DeviceId(1)), DeviceHealth::Suspect);
        let t = mon.poll(at_ms(3));
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (DeviceHealth::Suspect, DeviceHealth::Healthy)
        );
        assert_eq!(mon.state(DeviceId(1)), DeviceHealth::Healthy);

        mon.mark_failed(DeviceId(1));
        mon.beat(DeviceId(1), at_ms(4));
        assert!(mon.is_failed(DeviceId(1)));
        assert!(mon.poll(at_ms(100)).is_empty());
    }

    #[test]
    fn stall_then_recover_round_trips_through_suspect() {
        let mut mon = HealthMonitor::new(2);
        mon.beat(DeviceId(1), at_ms(1));
        assert!(mon.poll(at_ms(2)).is_empty());
        // Two missed beats while stalled: Suspect, but not yet Failed.
        let t = mon.poll(at_ms(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, DeviceHealth::Suspect);
        assert_eq!(t[0].missed, 2);
        // The stall clears and beats resume before the fail deadline.
        mon.beat(DeviceId(1), at_ms(4));
        let t = mon.poll(at_ms(4));
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (DeviceHealth::Suspect, DeviceHealth::Healthy)
        );
        // Recovered for good: later polls stay quiet while beats flow.
        mon.beat(DeviceId(1), at_ms(5));
        assert!(mon.poll(at_ms(5)).is_empty());
    }

    #[test]
    fn host_is_exempt() {
        let mut mon = HealthMonitor::new(2);
        mon.mark_failed(DeviceId(0));
        assert!(mon.poll(at_ms(1000)).iter().all(|t| t.device.0 != 0));
        assert_eq!(mon.state(DeviceId(0)), DeviceHealth::Healthy);
    }

    #[test]
    fn skipping_straight_to_failed_reports_one_edge() {
        let mut mon = HealthMonitor::new(2);
        let t = mon.poll(at_ms(50));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].from, DeviceHealth::Healthy);
        assert_eq!(t[0].to, DeviceHealth::Failed);
        assert!(t[0].missed >= 4);
    }
}

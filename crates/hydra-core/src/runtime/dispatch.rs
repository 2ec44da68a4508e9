//! Dispatch: the channel-connection table, calls sent over channels,
//! synchronous invocation and the pump that delivers channel messages
//! to their connected Offcodes.

use bytes::Bytes;
use hydra_sim::time::SimTime;

use super::{Instance, Lifecycle, Runtime};
use crate::call::{Call, Value};
use crate::channel::{BatchSendOutcome, Channel, ChannelError, ChannelExecutive, ChannelId};
use crate::error::RuntimeError;
use crate::offcode::{OffcodeCtx, OffcodeId};

/// A value returned through a channel dispatch (see [`Runtime::pump`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchResult {
    /// The Offcode that handled the call.
    pub handler: OffcodeId,
    /// The call's return descriptor id.
    pub return_id: u64,
    /// The returned value (or the error, stringified).
    pub result: Result<Value, String>,
}

/// Receiver bindings per channel, indexed by [`ChannelId::idx`]: which
/// instance reads which endpoint. A channel with no binding is `None`.
#[derive(Debug, Default)]
pub(super) struct Connections(Vec<Option<Vec<(usize, OffcodeId)>>>);

impl Connections {
    /// Binds endpoint `ep` of `chan` to instance `id`.
    pub(super) fn bind(&mut self, chan: ChannelId, ep: usize, id: OffcodeId) {
        let i = chan.idx();
        if self.0.len() <= i {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i].get_or_insert_with(Vec::new).push((ep, id));
    }

    /// Forgets torn-down instance `id`: drops the bindings of its OOB
    /// channel `oob` and closes its endpoint on every other channel, in
    /// ascending channel-id order.
    pub(super) fn sweep(
        &mut self,
        id: OffcodeId,
        oob: ChannelId,
        executive: &mut ChannelExecutive,
    ) {
        if let Some(slot) = self.0.get_mut(oob.idx()) {
            *slot = None;
        }
        for (ci, slot) in self.0.iter_mut().enumerate() {
            let Some(bindings) = slot.as_mut() else {
                continue;
            };
            let chan = ChannelId(ci as u32);
            bindings.retain(|&(ep, oc)| {
                if oc == id {
                    if let Some(ch) = executive.get_mut(chan) {
                        ch.close_endpoint(ep);
                    }
                    false
                } else {
                    true
                }
            });
            if bindings.is_empty() {
                *slot = None;
            }
        }
    }
}

impl Runtime {
    /// The live channel `id`.
    fn channel_mut(&mut self, id: ChannelId) -> Result<&mut Channel, RuntimeError> {
        self.executive
            .get_mut(id)
            .ok_or(RuntimeError::Channel(ChannelError::NoSuchChannel(id)))
    }

    /// Connects a deployed Offcode as a receiver on a channel (the
    /// channel's `ConnectOffcode`).
    ///
    /// # Errors
    ///
    /// Fails for unknown channels/instances or over-connected unicast
    /// channels.
    pub fn connect_offcode(
        &mut self,
        channel: ChannelId,
        id: OffcodeId,
    ) -> Result<(), RuntimeError> {
        let Some(inst) = self.instance(id) else {
            return Err(RuntimeError::NoSuchInstance(id.0));
        };
        let device = inst.device;
        let ch = self.channel_mut(channel)?;
        if ch.config().target != device {
            return Err(RuntimeError::Rejected(format!(
                "channel targets {} but {id} runs on {device}",
                ch.config().target
            )));
        }
        let ep = ch.connect_endpoint()?;
        self.connections.bind(channel, ep, id);
        Ok(())
    }

    /// Sends an encoded call from the application side of a channel.
    ///
    /// # Errors
    ///
    /// Propagates channel errors (unknown channel, ring full).
    pub fn send_call(
        &mut self,
        channel: ChannelId,
        call: &Call,
        now: SimTime,
    ) -> Result<SimTime, RuntimeError> {
        Ok(self.channel_mut(channel)?.send(now, call.encode())?)
    }

    /// Sends a batch of encoded calls from the application side of a
    /// channel in one provider operation (single doorbell), returning
    /// the per-message delivery schedule and fault counts.
    ///
    /// # Errors
    ///
    /// Fails only when the channel does not exist; per-message capacity
    /// faults are reported in the returned [`BatchSendOutcome`].
    pub fn send_call_batch(
        &mut self,
        channel: ChannelId,
        calls: &[Call],
        now: SimTime,
    ) -> Result<BatchSendOutcome, RuntimeError> {
        let ch = self.channel_mut(channel)?;
        let encoded: Vec<_> = calls.iter().map(Call::encode).collect();
        Ok(ch.send_batch(now, &encoded))
    }

    /// Runs one entry point of instance `id` in a fresh [`OffcodeCtx`] on
    /// its device, then books the cycles it charged and delivers the
    /// messages it queued. Both count whether or not the entry point
    /// succeeds: the device did the work and the sends left it.
    pub(super) fn run_hook<T>(
        &mut self,
        id: OffcodeId,
        now: SimTime,
        hook: impl FnOnce(&mut Instance, &mut OffcodeCtx) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let inst = self
            .instance_mut(id)
            .ok_or(RuntimeError::NoSuchInstance(id.0))?;
        let device = inst.device;
        let mut ctx = OffcodeCtx::new(now, device);
        let result = hook(inst, &mut ctx);
        self.device_work[device.idx()] += ctx.charged();
        self.deliver_outbox(ctx.take_outbox(), now);
        result
    }

    fn deliver_outbox(&mut self, outbox: Vec<(ChannelId, Bytes)>, now: SimTime) {
        for (chan, data) in outbox {
            if let Some(ch) = self.executive.get_mut(chan) {
                // Errors (ring full on a reliable channel) are surfaced as
                // drop statistics; a production system would back-pressure.
                let _ = ch.send(now, data);
            }
        }
    }

    /// Synchronously invokes a deployed Offcode (the proxy's transparent
    /// invocation path collapses to this once the Call reaches the
    /// target device).
    ///
    /// # Errors
    ///
    /// Propagates the Offcode's own error.
    pub fn invoke(
        &mut self,
        id: OffcodeId,
        call: &Call,
        now: SimTime,
    ) -> Result<Value, RuntimeError> {
        self.run_hook(id, now, |inst, ctx| {
            if inst.state != Lifecycle::Started {
                return Err(RuntimeError::BadState("offcode not started"));
            }
            inst.offcode.handle_call(ctx, call)
        })
    }

    /// Delivers every visible channel message to its connected Offcodes,
    /// cascading until quiescent (bounded). Returns the dispatch results
    /// in delivery order.
    pub fn pump(&mut self, now: SimTime) -> Vec<DispatchResult> {
        let mut results = Vec::new();
        for _round in 0..64 {
            let mut progressed = false;
            // Sweep the dense connection table in ascending channel-id
            // order (invokes cannot add channels mid-round).
            for ci in 0..self.connections.0.len() {
                let Some(bindings) = self.connections.0[ci].clone() else {
                    continue;
                };
                let chan = ChannelId(ci as u32);
                for (ep, id) in bindings {
                    while let Some(msg) =
                        self.executive.get_mut(chan).and_then(|ch| ch.recv(now, ep))
                    {
                        progressed = true;
                        let result = match Call::decode(msg.data) {
                            Err(e) => Err(RuntimeError::from(e).to_string()),
                            Ok(call) => {
                                let return_id = call.return_id;
                                let r = self.invoke(id, &call, now).map_err(|e| e.to_string());
                                results.push(DispatchResult {
                                    handler: id,
                                    return_id,
                                    result: r,
                                });
                                continue;
                            }
                        };
                        results.push(DispatchResult {
                            handler: id,
                            return_id: 0,
                            result,
                        });
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        results
    }

    /// Invariant sweep over the channel-connection table; an empty result
    /// means no orphans. Reported problems (sorted): empty binding lists,
    /// bindings for destroyed channels, bindings pointing at dead
    /// instances, bindings whose endpoint is closed, and wedged
    /// descriptor-ring slots outliving their ring (a channel with zero
    /// open endpoints has no live ring to wedge).
    pub fn audit_connections(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for chan in self.executive.ids() {
            let Some(ch) = self.executive.get(chan) else {
                continue;
            };
            if ch.wedged_slots() > 0 && ch.open_endpoints() == 0 {
                problems.push(format!(
                    "{chan}: {} wedged slot(s) on a torn-down ring",
                    ch.wedged_slots()
                ));
            }
        }
        for (ci, slot) in self.connections.0.iter().enumerate() {
            let Some(bindings) = slot else { continue };
            let chan = ChannelId(ci as u32);
            if bindings.is_empty() {
                problems.push(format!("{chan}: empty binding list"));
                continue;
            }
            let Some(ch) = self.executive.get(chan) else {
                problems.push(format!("{chan}: bindings for destroyed channel"));
                continue;
            };
            for &(ep, id) in bindings {
                if self.instance(id).is_none() {
                    problems.push(format!(
                        "{chan}: endpoint {ep} bound to dead instance #{}",
                        id.0
                    ));
                }
                if !ch.endpoint_open(ep) {
                    problems.push(format!("{chan}: endpoint {ep} is closed but still bound"));
                }
            }
        }
        problems.sort();
        problems
    }
}

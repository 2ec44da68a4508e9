//! The Offcode component model (paper §3.1).
//!
//! "An Offcode is a component that contains its state, a well-defined
//! interface and a thread of control." In this reproduction an Offcode is
//! a Rust object implementing [`Offcode`]: the runtime deploys it to a
//! (simulated) device, drives its two-phase initialization
//! (`initialize` → `start`), and routes [`Call`]s to it. The
//! [`OffcodeCtx`] passed to every entry point is the Offcode's window to
//! the world: the clock, the device it runs on, compute-cost charging,
//! and channel sends — everything else is deliberately out of reach, like
//! firmware.

use std::fmt;

use bytes::Bytes;
use hydra_hw::cpu::Cycles;
use hydra_link::object::{HofObject, Section, Symbol, SymbolKind};
use hydra_odf::odf::Guid;
use hydra_sim::time::SimTime;

use crate::call::{Call, Value};
use crate::channel::ChannelId;
use crate::device::DeviceId;
use crate::error::RuntimeError;

/// Identifier of a deployed Offcode instance.
///
/// Dense `u32` ids, handed out monotonically starting at 1 (never
/// reused — instance ids appear in traces and dispatch results). The
/// runtime's instance table is a `Vec` indexed by [`OffcodeId::idx`],
/// so the invoke/pump hot path does array indexing instead of hash
/// lookups; `Guid` survives only at the API boundary (depot, ODF,
/// verify).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OffcodeId(pub u32);

impl OffcodeId {
    /// The id as a `Vec` index into instance-side tables.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OffcodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offcode#{}", self.0)
    }
}

/// The execution context handed to an Offcode's entry points.
///
/// Compute cost is *declared*, not measured: an Offcode calls
/// [`OffcodeCtx::charge`] with the cycles its logic would cost, and the
/// runtime books them against the hosting device's processor. Sends are
/// collected and executed by the runtime after the entry point returns
/// (the Offcode never touches another Offcode's memory).
#[derive(Debug)]
pub struct OffcodeCtx {
    now: SimTime,
    device: DeviceId,
    charged: Cycles,
    outbox: Vec<(ChannelId, Bytes)>,
}

impl OffcodeCtx {
    /// Creates a context for an entry-point invocation.
    pub fn new(now: SimTime, device: DeviceId) -> Self {
        OffcodeCtx {
            now,
            device,
            charged: Cycles::ZERO,
            outbox: Vec::new(),
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The device this Offcode is deployed on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Declares compute work performed by the current entry point.
    pub fn charge(&mut self, work: Cycles) {
        self.charged += work;
    }

    /// Total work declared so far in this invocation.
    pub fn charged(&self) -> Cycles {
        self.charged
    }

    /// Queues a raw message on a channel (executed by the runtime after
    /// the entry point returns).
    pub fn send(&mut self, channel: ChannelId, data: Bytes) {
        self.outbox.push((channel, data));
    }

    /// Queues a marshaled call on a channel.
    pub fn send_call(&mut self, channel: ChannelId, call: &Call) {
        self.send(channel, call.encode());
    }

    /// Drains the queued sends (runtime use).
    pub fn take_outbox(&mut self) -> Vec<(ChannelId, Bytes)> {
        std::mem::take(&mut self.outbox)
    }
}

/// A deployable component.
///
/// The `IOffcode` interface of the paper: identity, two-phase startup,
/// and call handling. Types implementing this trait are registered in the
/// runtime's Offcode depot with a factory and an ODF.
pub trait Offcode: fmt::Debug {
    /// The Offcode's GUID (must match its ODF).
    fn guid(&self) -> Guid;

    /// The bind name (must match its ODF).
    fn bind_name(&self) -> &str;

    /// The relocatable object file that carries this Offcode to a device.
    ///
    /// The runtime builds the object once per depot entry, on first use,
    /// from a fresh factory instance, and reuses that copy for
    /// verification, certification, every link/load and every migration.
    /// So the object must depend only on the Offcode's type and bind
    /// name, never on instance state.
    ///
    /// The default is a synthetic object sized like a small firmware
    /// module, importing the standard pseudo-Offcode symbols so the
    /// deployment pipeline exercises the real linker.
    fn object_file(&self) -> HofObject {
        synthetic_object(self.bind_name(), 8 * 1024, 1024)
    }

    /// Phase 1: acquire local resources. Peer Offcodes may not exist yet,
    /// so only local state may be touched (paper §3.1).
    ///
    /// # Errors
    ///
    /// Failing aborts the deployment; the runtime rolls back resources.
    fn initialize(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// Phase 2: all peer Offcodes are deployed; inter-Offcode
    /// communication is available.
    ///
    /// # Errors
    ///
    /// Failing aborts the deployment; the runtime rolls back resources.
    fn start(&mut self, _ctx: &mut OffcodeCtx) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// Handles one marshaled invocation.
    ///
    /// # Errors
    ///
    /// Propagated to the caller as the invocation's result.
    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError>;

    /// Serializes the Offcode's state for migration (the relocation
    /// semantics HYDRA inherits from FarGo, paper §7). `None` (the
    /// default) marks the Offcode as non-migratable.
    fn snapshot(&self) -> Option<Bytes> {
        None
    }

    /// Restores state captured by [`Offcode::snapshot`] on a freshly
    /// instantiated copy at the new device.
    ///
    /// # Errors
    ///
    /// Failing aborts the migration leg: the runtime redeploys the
    /// Offcode on the host and retries the restore there (see
    /// `MigrateError::FellBack` in `hydra-core`'s error module).
    fn restore(&mut self, _state: Bytes) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// Builds a synthetic but structurally real HOF object for an Offcode:
/// `code_bytes` of text, `data_bytes` of data, an entry symbol named
/// `<bind_name>_entry`, and undefined references to the pseudo-Offcode
/// exports with matching relocations.
pub fn synthetic_object(bind_name: &str, code_bytes: usize, data_bytes: usize) -> HofObject {
    // Deterministic pseudo-code derived from the name, so different
    // Offcodes produce different images.
    let seed: u64 = bind_name.bytes().map(u64::from).sum();
    let text = periodic_bytes(code_bytes, 31, seed);
    let data = periodic_bytes(data_bytes, 17, seed);
    let mut obj = HofObject::new(bind_name)
        .with_section(Section::text(text))
        .with_section(Section::data(data))
        .with_section(Section::bss(4096))
        .with_symbol(Symbol {
            name: format!("{bind_name}_entry"),
            kind: SymbolKind::Defined {
                section: 0,
                offset: 0,
            },
        });
    // Reference the firmware exports the devices advertise.
    let imports = [
        "hydra_heap_alloc",
        "hydra_channel_write",
        "hydra_channel_read",
    ];
    for (i, imp) in imports.iter().enumerate() {
        let sym_idx = obj.symbols.len() as u32;
        obj = obj
            .with_symbol(Symbol {
                name: (*imp).to_owned(),
                kind: SymbolKind::Undefined,
            })
            .with_relocation(hydra_link::object::Relocation {
                section: 0,
                offset: (16 + i * 8) as u32,
                symbol: sym_idx,
                addend: 0,
                kind: hydra_link::object::RelocKind::Abs64,
            });
    }
    obj
}

/// The period of [`periodic_bytes`]: byte `i` depends only on `i mod 251`.
const BYTE_PERIOD: usize = 251;

/// `len` bytes where byte `i` is `(i·step + seed) mod 251`.
///
/// Since `(i + 251)·step ≡ i·step (mod 251)`, the sequence repeats every
/// 251 bytes: one period is computed with the formula and the rest is
/// copied, instead of a multiply and a division per byte.
fn periodic_bytes(len: usize, step: u64, seed: u64) -> Vec<u8> {
    let period: Vec<u8> = (0..len.min(BYTE_PERIOD) as u64)
        .map(|i| (i.wrapping_mul(step).wrapping_add(seed) % BYTE_PERIOD as u64) as u8)
        .collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let take = (len - out.len()).min(period.len());
        out.extend_from_slice(&period[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Echo;

    impl Offcode for Echo {
        fn guid(&self) -> Guid {
            Guid(1)
        }
        fn bind_name(&self) -> &'static str {
            "test.Echo"
        }
        fn handle_call(
            &mut self,
            ctx: &mut OffcodeCtx,
            call: &Call,
        ) -> Result<Value, RuntimeError> {
            ctx.charge(Cycles::new(100));
            Ok(call.args.first().cloned().unwrap_or(Value::Unit))
        }
    }

    #[test]
    fn ctx_accumulates_charges_and_sends() {
        let mut ctx = OffcodeCtx::new(SimTime::from_millis(5), DeviceId(2));
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.device(), DeviceId(2));
        ctx.charge(Cycles::new(10));
        ctx.charge(Cycles::new(5));
        assert_eq!(ctx.charged(), Cycles::new(15));
        ctx.send(ChannelId(1), Bytes::from_static(b"a"));
        ctx.send_call(ChannelId(2), &Call::new(Guid(1), "f"));
        let outbox = ctx.take_outbox();
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0].0, ChannelId(1));
        assert!(ctx.take_outbox().is_empty());
    }

    #[test]
    fn default_phases_succeed() {
        let mut e = Echo;
        let mut ctx = OffcodeCtx::new(SimTime::ZERO, DeviceId::HOST);
        assert!(e.initialize(&mut ctx).is_ok());
        assert!(e.start(&mut ctx).is_ok());
    }

    #[test]
    fn echo_roundtrip() {
        let mut e = Echo;
        let mut ctx = OffcodeCtx::new(SimTime::ZERO, DeviceId::HOST);
        let call = Call::new(Guid(1), "echo").with_arg(Value::U32(7));
        assert_eq!(e.handle_call(&mut ctx, &call).unwrap(), Value::U32(7));
        assert_eq!(ctx.charged(), Cycles::new(100));
    }

    #[test]
    fn synthetic_object_is_valid_and_linkable() {
        let obj = synthetic_object("tivo.Streamer", 4096, 512);
        obj.validate().unwrap();
        assert_eq!(obj.undefined_symbols().len(), 3);
        assert!(obj.load_size() > 4096);
        // Different names produce different images.
        let other = synthetic_object("tivo.Decoder", 4096, 512);
        assert_ne!(obj.sections[0].bytes, other.sections[0].bytes);
    }

    /// The per-byte formula the one-period build replaces.
    fn per_byte(len: usize, step: u64, seed: u64) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(step).wrapping_add(seed) % 251) as u8)
            .collect()
    }

    #[test]
    fn one_period_build_equals_the_per_byte_formula() {
        let long = "x".repeat(10_000);
        let names = [
            "",
            "a",
            "tivo.Streamer",
            long.as_str(),
            "dévice.Überträger",
            "設備.ストリーム",
            "\u{10FFFF}\u{1F600}",
        ];
        for name in names {
            let seed: u64 = name.bytes().map(u64::from).sum();
            for len in [0, 1, 250, 251, 252, 1024, 8192] {
                let obj = synthetic_object(name, len, len);
                assert_eq!(
                    obj.sections[0].bytes,
                    per_byte(len, 31, seed),
                    "{name:?} text {len}"
                );
                assert_eq!(
                    obj.sections[1].bytes,
                    per_byte(len, 17, seed),
                    "{name:?} data {len}"
                );
            }
        }
    }

    #[test]
    fn default_object_file_uses_bind_name() {
        let obj = Echo.object_file();
        assert_eq!(obj.name, "test.Echo");
        assert!(obj.symbols.iter().any(|s| s.name == "test.Echo_entry"));
    }
}

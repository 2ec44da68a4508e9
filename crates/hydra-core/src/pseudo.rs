//! Pseudo-Offcodes (paper §4).
//!
//! "Pseudo Offcodes are runtime components that happen to be implemented
//! as Offcodes … having the Offcodes communicate with the run-time through
//! pseudo Offcodes is an easy way of limiting the number of symbols that
//! need to be resolved." Two of the paper's examples are provided:
//! `hydra.Heap` (device memory services) and `hydra.Runtime` (runtime
//! introspection). Their exported symbols are exactly the entries every
//! [`DeviceDescriptor`]'s firmware export table carries.
//!
//! [`DeviceDescriptor`]: crate::device::DeviceDescriptor

use hydra_hw::cpu::Cycles;
use hydra_link::loader::DeviceMemoryAllocator;
use hydra_odf::odf::{Guid, OdfDocument};
use hydra_odf::wsdl::{InterfaceSpec, OperationSpec, TypeTag};

use crate::call::{Call, Value};
use crate::error::RuntimeError;
use crate::offcode::{Offcode, OffcodeCtx};

/// Reserved GUID of `hydra.Runtime`.
pub const RUNTIME_GUID: Guid = Guid(0xF000);
/// Reserved GUID of `hydra.Heap`.
pub const HEAP_GUID: Guid = Guid(0xF001);

/// The `hydra.Heap` pseudo-Offcode: alloc/free over a private region of
/// the hosting device's memory.
#[derive(Debug)]
pub struct HeapOffcode {
    allocator: DeviceMemoryAllocator,
}

impl HeapOffcode {
    /// Creates a heap over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        HeapOffcode {
            allocator: DeviceMemoryAllocator::new(0x8000_0000, capacity),
        }
    }

    /// The ODF describing this pseudo-Offcode (deployable anywhere).
    pub fn odf() -> OdfDocument {
        OdfDocument::new("hydra.Heap", HEAP_GUID)
    }

    /// The WSDL-lite interface.
    pub fn interface() -> InterfaceSpec {
        InterfaceSpec::new("IHeap", HEAP_GUID)
            .with_operation(OperationSpec {
                name: "alloc".into(),
                inputs: vec![("size".into(), TypeTag::U64)],
                output: TypeTag::U64,
            })
            .with_operation(OperationSpec {
                name: "free".into(),
                inputs: vec![("addr".into(), TypeTag::U64)],
                output: TypeTag::Unit,
            })
            .with_operation(OperationSpec {
                name: "stats".into(),
                inputs: vec![],
                output: TypeTag::U64,
            })
    }
}

impl Offcode for HeapOffcode {
    fn guid(&self) -> Guid {
        HEAP_GUID
    }

    fn bind_name(&self) -> &'static str {
        "hydra.Heap"
    }

    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        ctx.charge(Cycles::new(200));
        match call.operation.as_str() {
            "alloc" => {
                let size = call
                    .args
                    .first()
                    .and_then(Value::as_u64)
                    .ok_or_else(|| RuntimeError::Rejected("alloc needs a size".into()))?;
                let addr = self
                    .allocator
                    .allocate(size)
                    .map_err(|e| RuntimeError::Rejected(e.to_string()))?;
                Ok(Value::U64(addr))
            }
            "free" => {
                let addr = call
                    .args
                    .first()
                    .and_then(Value::as_u64)
                    .ok_or_else(|| RuntimeError::Rejected("free needs an address".into()))?;
                match self.allocator.free(addr) {
                    Some(_) => Ok(Value::Unit),
                    None => Err(RuntimeError::Rejected(format!(
                        "free of {addr:#x}: not an allocated block"
                    ))),
                }
            }
            "stats" => Ok(Value::U64(self.allocator.used())),
            other => Err(RuntimeError::UnknownOperation(other.to_owned())),
        }
    }
}

/// The `hydra.Runtime` pseudo-Offcode: introspection surface.
#[derive(Debug, Default)]
pub struct RuntimeInfoOffcode {
    calls_served: u64,
}

impl RuntimeInfoOffcode {
    /// Creates the pseudo-Offcode.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ODF describing this pseudo-Offcode.
    pub fn odf() -> OdfDocument {
        OdfDocument::new("hydra.Runtime", RUNTIME_GUID)
    }

    /// The WSDL-lite interface.
    pub fn interface() -> InterfaceSpec {
        InterfaceSpec::new("IRuntime", RUNTIME_GUID)
            .with_operation(OperationSpec {
                name: "version".into(),
                inputs: vec![],
                output: TypeTag::Str,
            })
            .with_operation(OperationSpec {
                name: "device".into(),
                inputs: vec![],
                output: TypeTag::U64,
            })
            .with_operation(OperationSpec {
                name: "calls_served".into(),
                inputs: vec![],
                output: TypeTag::U64,
            })
    }
}

impl Offcode for RuntimeInfoOffcode {
    fn guid(&self) -> Guid {
        RUNTIME_GUID
    }

    fn bind_name(&self) -> &'static str {
        "hydra.Runtime"
    }

    fn handle_call(&mut self, ctx: &mut OffcodeCtx, call: &Call) -> Result<Value, RuntimeError> {
        ctx.charge(Cycles::new(50));
        self.calls_served += 1;
        match call.operation.as_str() {
            "version" => Ok(Value::Str("hydra-0.1 (ASPLOS'08 reproduction)".into())),
            "device" => Ok(Value::U64(u64::from(ctx.device().0))),
            "calls_served" => Ok(Value::U64(self.calls_served)),
            other => Err(RuntimeError::UnknownOperation(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;
    use hydra_sim::time::SimTime;

    fn ctx() -> OffcodeCtx {
        OffcodeCtx::new(SimTime::ZERO, DeviceId(2))
    }

    #[test]
    fn heap_alloc_free_cycle() {
        let mut heap = HeapOffcode::new(1024);
        let mut c = ctx();
        let alloc = Call::new(HEAP_GUID, "alloc").with_arg(Value::U64(100));
        let mut addrs = Vec::new();
        for _ in 0..2 {
            let Value::U64(addr) = heap.handle_call(&mut c, &alloc).unwrap() else {
                panic!()
            };
            assert!(addr >= 0x8000_0000);
            addrs.push(addr);
        }
        let stats = Call::new(HEAP_GUID, "stats");
        let free = |addr| Call::new(HEAP_GUID, "free").with_arg(Value::U64(addr));
        heap.handle_call(&mut c, &free(addrs[0])).unwrap();
        assert_eq!(
            heap.handle_call(&mut c, &stats).unwrap(),
            Value::U64(112), // one 16-byte-aligned block stays live
        );
        assert!(
            heap.handle_call(&mut c, &free(addrs[0])).is_err(),
            "double free"
        );
        assert!(heap.handle_call(&mut c, &free(addrs[1] + 16)).is_err());
        heap.handle_call(&mut c, &free(addrs[1])).unwrap();
        assert_eq!(heap.handle_call(&mut c, &stats).unwrap(), Value::U64(0));
    }

    #[test]
    fn heap_exhaustion_and_misuse_rejected() {
        let mut heap = HeapOffcode::new(64);
        let mut c = ctx();
        let big = Call::new(HEAP_GUID, "alloc").with_arg(Value::U64(1_000));
        assert!(matches!(
            heap.handle_call(&mut c, &big),
            Err(RuntimeError::Rejected(_))
        ));
        let free = Call::new(HEAP_GUID, "free").with_arg(Value::U64(0));
        assert!(heap.handle_call(&mut c, &free).is_err());
        let no_arg = Call::new(HEAP_GUID, "alloc");
        assert!(heap.handle_call(&mut c, &no_arg).is_err());
    }

    #[test]
    fn heap_calls_type_check_against_interface() {
        let spec = HeapOffcode::interface();
        let good = Call::new(HEAP_GUID, "alloc").with_arg(Value::U64(8));
        assert!(good.check_against(&spec).is_ok());
        let bad = Call::new(HEAP_GUID, "alloc").with_arg(Value::Str("8".into()));
        assert!(bad.check_against(&spec).is_err());
    }

    #[test]
    fn runtime_info_reports_device_and_counts() {
        let mut info = RuntimeInfoOffcode::new();
        let mut c = ctx();
        assert_eq!(
            info.handle_call(&mut c, &Call::new(RUNTIME_GUID, "device"))
                .unwrap(),
            Value::U64(2)
        );
        info.handle_call(&mut c, &Call::new(RUNTIME_GUID, "version"))
            .unwrap();
        assert_eq!(
            info.handle_call(&mut c, &Call::new(RUNTIME_GUID, "calls_served"))
                .unwrap(),
            Value::U64(3)
        );
    }
}

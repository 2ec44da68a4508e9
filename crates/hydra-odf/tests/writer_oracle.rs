//! Byte-identity oracle for the direct XML writer.
//!
//! `OdfDocument::to_xml` and `InterfaceSpec::to_xml` write XML text
//! directly. [`dom_readers::tree_writers`] keeps the writers they
//! replaced, which build an `Element` tree and serialize it. On generated
//! documents, with every optional section present or absent and text
//! that is empty, whitespace-only, padded, quoted, holds `&<>"'`, is
//! non-ASCII or spans lines, both must write the same bytes.

mod dom_readers;

use dom_readers::tree_writers::{interface_to_xml, odf_to_xml};
use hydra_odf::odf::{ConstraintKind, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec};
use hydra_odf::wsdl::{InterfaceSpec, OperationSpec, TypeTag};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const TEXT: &[&str] = &[
    "",
    " ",
    "\n\t \r\n",
    "x",
    "  padded  ",
    "\"quoted\"",
    "\"  x  \"",
    "&<>\"'",
    "a&b<c>d\"e'f",
    "&amp;",
    "é",
    "日本語",
    "\u{A0}nbsp\u{A0}",
    "two\nlines\n",
    "hydra.net.Socket",
];
const NUMBERS: &[u64] = &[0, 1, 255, 0xffff, 0x1_0000, 0xffff_ffff, u64::MAX];
const KINDS: &[ConstraintKind] = &[
    ConstraintKind::Link,
    ConstraintKind::Pull,
    ConstraintKind::Gang,
    ConstraintKind::AsymGang,
];
const TYPES: &[TypeTag] = &[
    TypeTag::Unit,
    TypeTag::Bool,
    TypeTag::U32,
    TypeTag::U64,
    TypeTag::I64,
    TypeTag::Bytes,
    TypeTag::Str,
];

struct Draw<'r>(&'r mut TestRng);

impl Draw<'_> {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.0.below(from.len() as u64) as usize]
    }

    fn text(&mut self) -> String {
        self.pick(TEXT).to_owned()
    }

    fn number(&mut self) -> u64 {
        self.pick(NUMBERS)
    }

    fn up_to(&mut self, n: u64) -> u64 {
        self.0.below(n + 1)
    }

    fn maybe(&mut self) -> Option<String> {
        (self.0.below(2) == 0).then(|| self.text())
    }

    fn odf(&mut self) -> OdfDocument {
        OdfDocument {
            bind_name: self.text(),
            guid: Guid(self.number()),
            interfaces: (0..self.up_to(3)).map(|_| self.text()).collect(),
            imports: (0..self.up_to(3))
                .map(|_| Import {
                    file: self.text(),
                    bind_name: self.text(),
                    guid: Guid(self.number()),
                    constraint: self.pick(KINDS),
                    priority: self.number() as u8,
                })
                .collect(),
            targets: (0..self.up_to(3))
                .map(|_| DeviceClassSpec {
                    id: self.number() as u32,
                    name: self.text(),
                    bus: self.maybe(),
                    mac: self.maybe(),
                    vendor: self.maybe(),
                })
                .collect(),
            footprint: (self.0.below(2) == 0).then(|| self.number()),
            traffic: (self.0.below(2) == 0).then(|| TrafficSpec {
                rate_per_sec: self.number(),
                burst: self.number(),
                max_bytes: self.number(),
            }),
        }
    }

    fn interface(&mut self) -> InterfaceSpec {
        InterfaceSpec {
            name: self.text(),
            guid: Guid(self.number()),
            operations: (0..self.up_to(3))
                .map(|_| OperationSpec {
                    name: self.text(),
                    inputs: (0..self.up_to(3))
                        .map(|_| (self.text(), self.pick(TYPES)))
                        .collect(),
                    output: self.pick(TYPES),
                })
                .collect(),
        }
    }
}

/// An ODF and an interface spec, built field by field.
struct Built;

impl Strategy for Built {
    type Value = (OdfDocument, InterfaceSpec);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let mut draw = Draw(rng);
        (draw.odf(), draw.interface())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn direct_writer_matches_tree_writer(built in Built) {
        let (odf, spec) = built;
        prop_assert_eq!(odf.to_xml(), odf_to_xml(&odf));
        prop_assert_eq!(spec.to_xml(), interface_to_xml(&spec));
    }
}

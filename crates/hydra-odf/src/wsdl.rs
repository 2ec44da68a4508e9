//! WSDL-lite interface specifications.
//!
//! The paper describes Offcode interfaces with WSDL (§3.1). Full WSDL is
//! web-scale machinery; the reproduction keeps the useful core: a named,
//! GUID-identified interface whose operations declare typed inputs and an
//! output. The runtime uses these specs to type-check marshaled `Call`
//! objects at channel boundaries.

use std::fmt;

use crate::odf::{parse_u64, Guid};
use crate::xml::{self, take_attr, Attribute, Raw, Sink, XmlError};

/// Primitive types marshalable across a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// No value (outputs only).
    Unit,
    /// Boolean.
    Bool,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// Raw byte buffer.
    Bytes,
    /// UTF-8 string.
    Str,
}

impl TypeTag {
    /// The spelling used in WSDL-lite documents.
    pub fn as_str(&self) -> &'static str {
        match self {
            TypeTag::Unit => "unit",
            TypeTag::Bool => "bool",
            TypeTag::U32 => "u32",
            TypeTag::U64 => "u64",
            TypeTag::I64 => "i64",
            TypeTag::Bytes => "bytes",
            TypeTag::Str => "str",
        }
    }

    /// Parses the WSDL-lite spelling.
    pub fn from_str_opt(s: &str) -> Option<TypeTag> {
        match s {
            "unit" => Some(TypeTag::Unit),
            "bool" => Some(TypeTag::Bool),
            "u32" => Some(TypeTag::U32),
            "u64" => Some(TypeTag::U64),
            "i64" => Some(TypeTag::I64),
            "bytes" => Some(TypeTag::Bytes),
            "str" => Some(TypeTag::Str),
            _ => None,
        }
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One operation of an interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationSpec {
    /// Operation name (unique within the interface).
    pub name: String,
    /// Typed input parameters, in call order.
    pub inputs: Vec<(String, TypeTag)>,
    /// Result type.
    pub output: TypeTag,
}

/// A GUID-identified interface: a set of operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceSpec {
    /// Interface name, e.g. `IChecksum`.
    pub name: String,
    /// Interface GUID (distinct from any Offcode GUID).
    pub guid: Guid,
    /// Operations in declaration order.
    pub operations: Vec<OperationSpec>,
}

/// Errors interpreting a WSDL-lite document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsdlError {
    /// Underlying XML problem.
    Xml(XmlError),
    /// A required element/attribute is missing.
    Missing(&'static str),
    /// An invalid value.
    Invalid {
        /// What was being parsed.
        what: &'static str,
        /// The offending value.
        value: String,
    },
    /// Two operations share a name.
    DuplicateOperation(String),
}

impl From<XmlError> for WsdlError {
    fn from(e: XmlError) -> Self {
        WsdlError::Xml(e)
    }
}

impl fmt::Display for WsdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsdlError::Xml(e) => write!(f, "{e}"),
            WsdlError::Missing(what) => write!(f, "wsdl: missing {what}"),
            WsdlError::Invalid { what, value } => write!(f, "wsdl: invalid {what}: '{value}'"),
            WsdlError::DuplicateOperation(name) => {
                write!(f, "wsdl: duplicate operation '{name}'")
            }
        }
    }
}

impl std::error::Error for WsdlError {}

impl InterfaceSpec {
    /// Builder entry point.
    pub fn new(name: impl Into<String>, guid: Guid) -> Self {
        InterfaceSpec {
            name: name.into(),
            guid,
            operations: Vec::new(),
        }
    }

    /// Adds an operation.
    pub fn with_operation(mut self, op: OperationSpec) -> Self {
        self.operations.push(op);
        self
    }

    /// Looks up an operation by name.
    pub fn operation(&self, name: &str) -> Option<&OperationSpec> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Parses a WSDL-lite document.
    ///
    /// The interface is read straight off the XML reader's events; no
    /// element tree is built. Every check runs once the whole document
    /// has been read, so malformed XML is always reported as such, and
    /// the first failing check is reported in document order.
    ///
    /// # Errors
    ///
    /// Fails on malformed XML, a missing name/GUID, unknown types, or
    /// duplicated operation names.
    ///
    /// # Examples
    ///
    /// ```
    /// use hydra_odf::wsdl::InterfaceSpec;
    ///
    /// let spec = InterfaceSpec::parse(r#"
    ///   <interface name="IChecksum" guid="500">
    ///     <operation name="checksum">
    ///       <input name="data" type="bytes"/>
    ///       <output type="u32"/>
    ///     </operation>
    ///   </interface>"#).unwrap();
    /// assert_eq!(spec.operation("checksum").unwrap().inputs.len(), 1);
    /// ```
    pub fn parse(xml: &str) -> Result<InterfaceSpec, WsdlError> {
        let mut reader = WsdlReader::default();
        xml::read(xml, &mut reader)?;
        reader.finish()
    }

    /// Serializes back to WSDL-lite XML, indented two spaces per level.
    ///
    /// The output re-parses to an equal spec through
    /// [`InterfaceSpec::parse`] when the spec is one the reader can
    /// return: every parsed spec is. A spec built by hand with two
    /// operations of one name writes, but reads back as
    /// [`WsdlError::DuplicateOperation`].
    pub fn to_xml(&self) -> String {
        let mut w = xml::Writer::default();
        let guid = self.guid.0.to_string();
        let attributes = [("name", self.name.as_str()), ("guid", guid.as_str())];
        if self.operations.is_empty() {
            w.empty("interface", &attributes);
            return w.finish();
        }
        w.open("interface", &attributes);
        for op in &self.operations {
            w.open("operation", &[("name", &op.name)]);
            for (name, ty) in &op.inputs {
                w.empty("input", &[("name", name), ("type", ty.as_str())]);
            }
            w.empty("output", &[("type", op.output.as_str())]);
            w.close("operation");
        }
        w.close("interface");
        w.finish()
    }
}

/// A child element of an `<operation>`: its name and its `name` and
/// `type` attributes.
struct RawChild<'a> {
    tag: &'a str,
    name: Raw<'a>,
    ty: Raw<'a>,
}

struct RawOperation<'a> {
    name: Raw<'a>,
    children: Vec<RawChild<'a>>,
}

/// The typed WSDL sink behind [`InterfaceSpec::parse`]: the root's name
/// and attributes, and each direct `<operation>` child with its direct
/// children's attributes. [`WsdlReader::finish`] checks them once the
/// document has been read.
#[derive(Default)]
struct WsdlReader<'a> {
    root: &'a str,
    name: Raw<'a>,
    guid: Raw<'a>,
    operations: Vec<RawOperation<'a>>,
    /// Depth of the innermost open element; the root is at depth 1.
    depth: usize,
    /// Whether the open element at depth 2 is an `<operation>`.
    in_operation: bool,
}

impl<'a> Sink<'a> for WsdlReader<'a> {
    fn start(&mut self, name: &'a str, attributes: &mut [Attribute<'a>]) {
        self.depth += 1;
        match self.depth {
            1 => {
                self.root = name;
                self.name = take_attr(attributes, "name");
                self.guid = take_attr(attributes, "guid");
            }
            2 => {
                self.in_operation = name == "operation";
                if self.in_operation {
                    self.operations.push(RawOperation {
                        name: take_attr(attributes, "name"),
                        children: Vec::new(),
                    });
                }
            }
            3 if self.in_operation => {
                if let Some(op) = self.operations.last_mut() {
                    op.children.push(RawChild {
                        tag: name,
                        name: take_attr(attributes, "name"),
                        ty: take_attr(attributes, "type"),
                    });
                }
            }
            _ => {}
        }
    }

    fn end(&mut self) {
        self.depth -= 1;
    }
}

/// A `type` attribute's tag, or the error for its absence or spelling.
fn type_tag(raw: Raw<'_>, what: &'static str) -> Result<TypeTag, WsdlError> {
    let raw = raw.ok_or(WsdlError::Missing(what))?;
    TypeTag::from_str_opt(&raw).ok_or_else(|| WsdlError::Invalid {
        what,
        value: raw.into_owned(),
    })
}

impl WsdlReader<'_> {
    fn finish(self) -> Result<InterfaceSpec, WsdlError> {
        if self.root != "interface" {
            return Err(WsdlError::Invalid {
                what: "root element",
                value: self.root.to_owned(),
            });
        }
        let name = self
            .name
            .ok_or(WsdlError::Missing("interface/name"))?
            .into_owned();
        let guid_raw = self.guid.ok_or(WsdlError::Missing("interface/guid"))?;
        let guid = parse_u64("interface/guid", &guid_raw)
            .map(Guid)
            .map_err(|_| WsdlError::Invalid {
                what: "interface/guid",
                value: guid_raw.to_string(),
            })?;
        let mut operations: Vec<OperationSpec> = Vec::new();
        for op in self.operations {
            let op_name = op
                .name
                .ok_or(WsdlError::Missing("operation/name"))?
                .into_owned();
            if operations.iter().any(|o| o.name == op_name) {
                return Err(WsdlError::DuplicateOperation(op_name));
            }
            let mut inputs = Vec::new();
            let mut output = TypeTag::Unit;
            for child in op.children {
                match child.tag {
                    "input" => {
                        let pname = child
                            .name
                            .ok_or(WsdlError::Missing("input/name"))?
                            .into_owned();
                        inputs.push((pname, type_tag(child.ty, "input/type")?));
                    }
                    "output" => output = type_tag(child.ty, "output/type")?,
                    other => {
                        return Err(WsdlError::Invalid {
                            what: "operation child",
                            value: other.to_owned(),
                        })
                    }
                }
            }
            operations.push(OperationSpec {
                name: op_name,
                inputs,
                output,
            });
        }
        Ok(InterfaceSpec {
            name,
            guid,
            operations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOCKET_WSDL: &str = r#"<interface name="ISocket" guid="7070"&>
"#;

    #[test]
    fn parse_and_round_trip() {
        let spec = InterfaceSpec::new("ISocket", Guid(7070))
            .with_operation(OperationSpec {
                name: "send".into(),
                inputs: vec![
                    ("data".into(), TypeTag::Bytes),
                    ("flags".into(), TypeTag::U32),
                ],
                output: TypeTag::U32,
            })
            .with_operation(OperationSpec {
                name: "close".into(),
                inputs: vec![],
                output: TypeTag::Unit,
            });
        let re = InterfaceSpec::parse(&spec.to_xml()).unwrap();
        assert_eq!(spec, re);
        assert_eq!(re.operation("send").unwrap().output, TypeTag::U32);
        assert!(re.operation("nope").is_none());
    }

    #[test]
    fn malformed_xml_reported() {
        assert!(matches!(
            InterfaceSpec::parse(SOCKET_WSDL),
            Err(WsdlError::Xml(_))
        ));
    }

    #[test]
    fn missing_guid_rejected() {
        assert_eq!(
            InterfaceSpec::parse(r#"<interface name="I"/>"#),
            Err(WsdlError::Missing("interface/guid"))
        );
    }

    #[test]
    fn bad_type_rejected() {
        let doc = r#"<interface name="I" guid="1">
            <operation name="f"><input name="x" type="quaternion"/></operation>
        </interface>"#;
        assert!(matches!(
            InterfaceSpec::parse(doc),
            Err(WsdlError::Invalid {
                what: "input/type",
                ..
            })
        ));
    }

    #[test]
    fn duplicate_operation_rejected() {
        let doc = r#"<interface name="I" guid="1">
            <operation name="f"/><operation name="f"/>
        </interface>"#;
        assert_eq!(
            InterfaceSpec::parse(doc),
            Err(WsdlError::DuplicateOperation("f".into()))
        );
    }

    #[test]
    fn unknown_operation_child_rejected() {
        let doc = r#"<interface name="I" guid="1">
            <operation name="f"><banana/></operation>
        </interface>"#;
        assert!(matches!(
            InterfaceSpec::parse(doc),
            Err(WsdlError::Invalid {
                what: "operation child",
                ..
            })
        ));
    }

    #[test]
    fn output_defaults_to_unit() {
        let doc = r#"<interface name="I" guid="1">
            <operation name="poke"><input name="x" type="u64"/></operation>
        </interface>"#;
        let spec = InterfaceSpec::parse(doc).unwrap();
        assert_eq!(spec.operation("poke").unwrap().output, TypeTag::Unit);
    }

    #[test]
    fn type_tags_round_trip() {
        for t in [
            TypeTag::Unit,
            TypeTag::Bool,
            TypeTag::U32,
            TypeTag::U64,
            TypeTag::I64,
            TypeTag::Bytes,
            TypeTag::Str,
        ] {
            assert_eq!(TypeTag::from_str_opt(t.as_str()), Some(t));
        }
    }
}

//! The DOM readers: the named oracle for the typed ODF, WSDL and
//! deployment-file readers, with the DOM they walk ([`dom`]) and the
//! tree writers that are the direct writer's oracle ([`tree_writers`]).
//!
//! Before the typed readers, `OdfDocument::parse` and
//! `InterfaceSpec::parse` were `xml::parse` (now [`dom::parse`])
//! followed by these `from_element` functions, which walk the finished
//! `Element` tree. They are kept here verbatim but for two changes made
//! to both sides together:
//!
//! - a `reference` `pri` above 255 or a `device-class` `id` above
//!   `u32::MAX` is invalid instead of silently truncated;
//! - an `include` or an import's `file` is stripped of whitespace and
//!   `"` together, to a fixpoint, instead of trimmed first and unquoted
//!   second, so that `"  x  "` reads as `x` and a parsed ODF writes and
//!   reads back unchanged.
//!
//! The typed readers must return the same `Result`, errors included, on
//! every document.

#![allow(dead_code)]

use hydra_odf::odf::{
    ConstraintKind, DeploymentFile, DeviceClassSpec, Guid, Import, OdfDocument, OdfError,
    TrafficSpec,
};
use hydra_odf::wsdl::{InterfaceSpec, OperationSpec, TypeTag, WsdlError};
use hydra_odf::xml::XmlError;

pub mod dom;
pub mod tree_writers;

use dom::Element;

/// `OdfDocument::parse` as it was: the DOM, then [`odf_from_element`].
pub fn odf(text: &str) -> Result<OdfDocument, OdfError> {
    odf_from_element(&dom::parse(text)?)
}

/// `InterfaceSpec::parse` as it was: the DOM, then
/// [`interface_from_element`].
pub fn interface(text: &str) -> Result<InterfaceSpec, WsdlError> {
    interface_from_element(&dom::parse(text)?)
}

/// The deployment file as `repro lint` read it from the DOM: each
/// `<offcode>` child of a `<deployment>` root, or the root itself.
pub fn deployment(text: &str) -> Result<DeploymentFile, XmlError> {
    let root = dom::parse(text)?;
    Ok(if root.name == "deployment" {
        DeploymentFile::Wrapped(
            root.children_named("offcode")
                .map(odf_from_element)
                .collect(),
        )
    } else {
        DeploymentFile::Single(odf_from_element(&root))
    })
}

/// Requires the typed ODF, WSDL and deployment-file readers to return
/// what the DOM readers return on `text`, errors included.
pub fn assert_typed_readers_agree(text: &str) {
    assert_eq!(OdfDocument::parse(text), odf(text), "ODF of {text:?}");
    assert_eq!(
        InterfaceSpec::parse(text),
        interface(text),
        "interface of {text:?}"
    );
    assert_eq!(
        DeploymentFile::parse(text),
        deployment(text),
        "deployment of {text:?}"
    );
}

fn parse_u64(what: &'static str, raw: &str) -> Result<u64, OdfError> {
    let raw = raw.trim().trim_matches('"');
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.map_err(|_| OdfError::Invalid {
        what,
        value: raw.to_owned(),
    })
}

/// [`parse_u64`], then a range check in place of an `as` cast.
fn parse_in_range<T: TryFrom<u64>>(what: &'static str, raw: &str) -> Result<T, OdfError> {
    T::try_from(parse_u64(what, raw)?).map_err(|_| OdfError::Invalid {
        what,
        value: raw.trim().trim_matches('"').to_owned(),
    })
}

/// Interprets an already-parsed XML element as an ODF.
pub fn odf_from_element(root: &Element) -> Result<OdfDocument, OdfError> {
    if root.name != "offcode" {
        return Err(OdfError::Invalid {
            what: "root element",
            value: root.name.clone(),
        });
    }
    let package = root.child("package").ok_or(OdfError::Missing("package"))?;
    let bind_name = package
        .child("bindname")
        .ok_or(OdfError::Missing("package/bindname"))?
        .text();
    if bind_name.is_empty() {
        return Err(OdfError::Missing("package/bindname"));
    }
    let guid = Guid(parse_u64(
        "package/GUID",
        &package
            .child("GUID")
            .ok_or(OdfError::Missing("package/GUID"))?
            .text(),
    )?);
    let mut interfaces = Vec::new();
    if let Some(iface) = package.child("interface") {
        for inc in iface.children_named("include") {
            interfaces.push(
                inc.text()
                    .trim_matches(|c: char| c == '"' || c.is_whitespace())
                    .to_owned(),
            );
        }
    }
    let footprint = match package.child("footprint") {
        None => None,
        Some(fp) => Some(parse_u64("package/footprint", &fp.text())?),
    };

    let mut imports = Vec::new();
    if let Some(sw) = root.child("sw-env") {
        for imp in sw.children_named("import") {
            imports.push(parse_import(imp)?);
        }
    }

    let mut targets = Vec::new();
    if let Some(t) = root.child("targets") {
        for dc in t.children_named("device-class") {
            targets.push(parse_device_class(dc)?);
        }
    }

    let traffic = match root.child("traffic") {
        None => None,
        Some(t) => Some(parse_traffic(t)?),
    };

    Ok(OdfDocument {
        bind_name,
        guid,
        interfaces,
        imports,
        targets,
        footprint,
        traffic,
    })
}

fn parse_traffic(t: &Element) -> Result<TrafficSpec, OdfError> {
    let rate_per_sec = parse_u64(
        "traffic/rate",
        t.attr("rate").ok_or(OdfError::Missing("traffic/rate"))?,
    )?;
    let burst = match t.attr("burst") {
        None => 1,
        Some(b) => parse_u64("traffic/burst", b)?.max(1),
    };
    let max_bytes = match t.attr("bytes") {
        None => 1024,
        Some(b) => parse_u64("traffic/bytes", b)?,
    };
    Ok(TrafficSpec {
        rate_per_sec,
        burst,
        max_bytes,
    })
}

fn parse_import(imp: &Element) -> Result<Import, OdfError> {
    let file = imp
        .child("file")
        .map(|e| {
            e.text()
                .trim_matches(|c: char| c == '"' || c.is_whitespace())
                .to_owned()
        })
        .unwrap_or_default();
    let bind_name = imp
        .child("bindname")
        .ok_or(OdfError::Missing("import/bindname"))?
        .text();
    let guid = Guid(parse_u64(
        "import/GUID",
        &imp.child("GUID")
            .ok_or(OdfError::Missing("import/GUID"))?
            .text(),
    )?);
    let (constraint, priority) = match imp.child("reference") {
        None => (ConstraintKind::Link, 0),
        Some(r) => {
            let kind = match r.attr("type") {
                None => ConstraintKind::Link,
                Some(s) => ConstraintKind::from_str_opt(s).ok_or(OdfError::Invalid {
                    what: "reference/type",
                    value: s.to_owned(),
                })?,
            };
            let pri = match r.attr("pri") {
                None => 0,
                Some(p) => parse_in_range("reference/pri", p)?,
            };
            (kind, pri)
        }
    };
    Ok(Import {
        file,
        bind_name,
        guid,
        constraint,
        priority,
    })
}

fn parse_device_class(dc: &Element) -> Result<DeviceClassSpec, OdfError> {
    let id = parse_in_range(
        "device-class/id",
        dc.attr("id").ok_or(OdfError::Missing("device-class/id"))?,
    )?;
    let name = dc
        .child("name")
        .ok_or(OdfError::Missing("device-class/name"))?
        .text();
    let get = |tag: &str| dc.child(tag).map(|e| e.text());
    Ok(DeviceClassSpec {
        id,
        name,
        bus: get("bus"),
        mac: get("mac"),
        vendor: get("vendor"),
    })
}

/// Interprets an already-parsed element as a WSDL-lite interface.
pub fn interface_from_element(root: &Element) -> Result<InterfaceSpec, WsdlError> {
    if root.name != "interface" {
        return Err(WsdlError::Invalid {
            what: "root element",
            value: root.name.clone(),
        });
    }
    let name = root
        .attr("name")
        .ok_or(WsdlError::Missing("interface/name"))?
        .to_owned();
    let guid_raw = root
        .attr("guid")
        .ok_or(WsdlError::Missing("interface/guid"))?;
    let guid = parse_u64("interface/guid", guid_raw)
        .map(Guid)
        .map_err(|_| WsdlError::Invalid {
            what: "interface/guid",
            value: guid_raw.to_owned(),
        })?;
    let mut operations: Vec<OperationSpec> = Vec::new();
    for op in root.children_named("operation") {
        let op_name = op
            .attr("name")
            .ok_or(WsdlError::Missing("operation/name"))?
            .to_owned();
        if operations.iter().any(|o| o.name == op_name) {
            return Err(WsdlError::DuplicateOperation(op_name));
        }
        let mut inputs = Vec::new();
        let mut output = TypeTag::Unit;
        for child in op.child_elements() {
            match child.name.as_str() {
                "input" => {
                    let pname = child
                        .attr("name")
                        .ok_or(WsdlError::Missing("input/name"))?
                        .to_owned();
                    let ty_raw = child.attr("type").ok_or(WsdlError::Missing("input/type"))?;
                    let ty = TypeTag::from_str_opt(ty_raw).ok_or(WsdlError::Invalid {
                        what: "input/type",
                        value: ty_raw.to_owned(),
                    })?;
                    inputs.push((pname, ty));
                }
                "output" => {
                    let ty_raw = child
                        .attr("type")
                        .ok_or(WsdlError::Missing("output/type"))?;
                    output = TypeTag::from_str_opt(ty_raw).ok_or(WsdlError::Invalid {
                        what: "output/type",
                        value: ty_raw.to_owned(),
                    })?;
                }
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

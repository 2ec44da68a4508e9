//! # hydra-odf — Offcode Description Files
//!
//! The manifesto layer of the HYDRA programming model (paper §3.3): a
//! minimal XML reader and writer built for this crate ([`xml`]), the ODF
//! document model with package/dependencies/device-class sections and the
//! four placement constraints ([`odf`]), and WSDL-lite interface
//! specifications with typed operations ([`wsdl`]).
//!
//! Parsed documents round-trip: `parse(doc.to_xml()) == doc` for every
//! `doc` that [`OdfDocument::parse`] or [`InterfaceSpec::parse`]
//! returns, a property the test suite checks for hand-written,
//! paper-derived and generated documents. A document built by hand
//! round-trips only when it holds values the reader could return; the
//! two `to_xml` methods list the exceptions (an empty bind name, text
//! with surrounding whitespace, a zero traffic burst, two operations of
//! one name).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod odf;
pub mod wsdl;
pub mod xml;

pub use odf::{
    class_ids, ConstraintKind, DeploymentFile, DeviceClassSpec, Guid, Import, OdfDocument, OdfError,
};
pub use wsdl::{InterfaceSpec, OperationSpec, TypeTag, WsdlError};
pub use xml::XmlError;

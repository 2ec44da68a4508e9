//! # hydra-odf — Offcode Description Files
//!
//! The manifesto layer of the HYDRA programming model (paper §3.3): a
//! minimal XML parser built for this crate ([`xml`]), the ODF document
//! model with package/dependencies/device-class sections and the four
//! placement constraints ([`odf`]), and WSDL-lite interface specifications
//! with typed operations ([`wsdl`]).
//!
//! Everything round-trips: `parse(doc.to_xml()) == doc`, a property the
//! test suite checks for hand-written, paper-derived, and generated
//! documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod odf;
pub mod wsdl;
pub mod xml;

pub use odf::{
    class_ids, ConstraintKind, DeploymentFile, DeviceClassSpec, Guid, Import, OdfDocument, OdfError,
};
pub use wsdl::{InterfaceSpec, OperationSpec, TypeTag, WsdlError};
pub use xml::{Element, Node, XmlError};

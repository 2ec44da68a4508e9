//! Error-path coverage for [`OdfDocument::parse`]: every rejection the
//! parser can produce, pinned with the variant it must report, plus the
//! number rule [`InterfaceSpec::parse`] shares with it. The
//! happy paths live in the crate's unit tests; these are the inputs a
//! deployment lint (`repro -- lint`) has to survive without panicking.

use hydra_odf::odf::{Guid, OdfDocument, OdfError};
use hydra_odf::wsdl::{InterfaceSpec, WsdlError};

fn err(xml: &str) -> OdfError {
    OdfDocument::parse(xml).expect_err("must be rejected")
}

#[test]
fn malformed_xml_is_an_xml_error() {
    assert!(matches!(err("<offcode"), OdfError::Xml(_)));
    assert!(matches!(err(""), OdfError::Xml(_)));
    assert!(matches!(
        err("<offcode><package></offcode>"),
        OdfError::Xml(_)
    ));
}

#[test]
fn wrong_root_element_is_rejected() {
    let e = err("<deployment><package/></deployment>");
    assert!(matches!(
        e,
        OdfError::Invalid {
            what: "root element",
            ..
        }
    ));
}

#[test]
fn missing_package_sections_are_named() {
    assert_eq!(err("<offcode></offcode>"), OdfError::Missing("package"));
    assert_eq!(
        err("<offcode><package><GUID>1</GUID></package></offcode>"),
        OdfError::Missing("package/bindname")
    );
    // An empty bindname counts as missing, not as a valid empty string.
    assert_eq!(
        err("<offcode><package><bindname></bindname><GUID>1</GUID></package></offcode>"),
        OdfError::Missing("package/bindname")
    );
    assert_eq!(
        err("<offcode><package><bindname>x</bindname></package></offcode>"),
        OdfError::Missing("package/GUID")
    );
}

#[test]
fn non_numeric_guid_is_invalid() {
    let e = err("<offcode><package><bindname>x</bindname><GUID>seven</GUID></package></offcode>");
    match e {
        OdfError::Invalid { what, value } => {
            assert_eq!(what, "package/GUID");
            assert_eq!(value, "seven");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A WSDL interface `guid` reads numbers like an ODF `GUID`: hex,
/// padded and quoted values are the same number, and a non-number is
/// still invalid.
#[test]
fn wsdl_guid_reads_like_an_odf_guid() {
    let guid = |attr: &str| {
        InterfaceSpec::parse(&format!("<interface name=\"I\" guid={attr}/>")).map(|i| i.guid)
    };
    for attr in ["\"16\"", "\"0x10\"", "\"0X10\"", "\" 16 \"", "'\"16\"'"] {
        assert_eq!(guid(attr), Ok(Guid(16)), "guid={attr}");
    }
    assert_eq!(
        guid("\"seven\""),
        Err(WsdlError::Invalid {
            what: "interface/guid",
            value: "seven".into(),
        })
    );
}

/// The value an invalid number reports is its text trimmed once: a
/// quote inside the whitespace keeps what it encloses.
#[test]
fn invalid_number_value_is_normalized_once() {
    let e = err("<offcode><package><bindname>x</bindname>\
         <GUID> \"9\u{b}\" </GUID></package></offcode>");
    assert_eq!(
        e,
        OdfError::Invalid {
            what: "package/GUID",
            value: "9\u{b}".into(),
        }
    );
}

#[test]
fn bad_footprint_is_invalid_but_absent_is_fine() {
    let e = err("<offcode><package><bindname>x</bindname><GUID>1</GUID>\
         <footprint>lots</footprint></package></offcode>");
    assert!(matches!(
        e,
        OdfError::Invalid {
            what: "package/footprint",
            ..
        }
    ));
    let odf = OdfDocument::parse(
        "<offcode><package><bindname>x</bindname><GUID>1</GUID></package></offcode>",
    )
    .unwrap();
    assert_eq!(odf.footprint, None);
}

#[test]
fn import_requires_bindname_and_guid() {
    let base = "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
                <sw-env><import>{IMP}</import></sw-env></offcode>";
    let e = err(&base.replace("{IMP}", "<GUID>2</GUID>"));
    assert_eq!(e, OdfError::Missing("import/bindname"));
    let e = err(&base.replace("{IMP}", "<bindname>y</bindname>"));
    assert_eq!(e, OdfError::Missing("import/GUID"));
}

#[test]
fn unknown_constraint_kind_is_invalid() {
    let e = err(
        "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
         <sw-env><import><bindname>y</bindname><GUID>2</GUID>\
         <reference type=Sideways/></import></sw-env></offcode>",
    );
    match e {
        OdfError::Invalid { what, value } => {
            assert_eq!(what, "reference/type");
            assert_eq!(value, "Sideways");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn device_class_requires_id_and_name() {
    let base = "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
                <targets>{DC}</targets></offcode>";
    let e = err(&base.replace("{DC}", "<device-class><name>nic</name></device-class>"));
    assert_eq!(e, OdfError::Missing("device-class/id"));
    let e = err(&base.replace("{DC}", "<device-class id=0x0001></device-class>"));
    assert_eq!(e, OdfError::Missing("device-class/name"));
    let e = err(&base.replace(
        "{DC}",
        "<device-class id=banana><name>nic</name></device-class>",
    ));
    assert!(matches!(
        e,
        OdfError::Invalid {
            what: "device-class/id",
            ..
        }
    ));
}

#[test]
fn errors_render_their_context() {
    assert!(err("<offcode></offcode>").to_string().contains("package"));
    assert!(err("<nope/>").to_string().contains("root element"));
}

#[test]
fn reference_priority_above_255_is_invalid_not_truncated() {
    let doc = |pri: &str| {
        format!(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <sw-env><import><bindname>y</bindname><GUID>2</GUID>\
             <reference type=Pull pri={pri}/></import></sw-env></offcode>"
        )
    };
    let odf = OdfDocument::parse(&doc("255")).expect("255 fits a u8");
    assert_eq!(odf.imports[0].priority, 255);
    for (pri, value) in [("256", "256"), ("300", "300"), ("'\"0x100\"'", "0x100")] {
        assert_eq!(
            err(&doc(pri)),
            OdfError::Invalid {
                what: "reference/pri",
                value: value.to_owned(),
            },
            "pri={pri}"
        );
    }
}

#[test]
fn device_class_id_above_u32_max_is_invalid_not_truncated() {
    let doc = |id: &str| {
        format!(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <targets><device-class id={id}><name>nic</name></device-class></targets></offcode>"
        )
    };
    let odf = OdfDocument::parse(&doc("0xffffffff")).expect("u32::MAX fits");
    assert_eq!(odf.targets[0].id, u32::MAX);
    // `0x100000001` used to truncate to class 1, the network class.
    for id in ["0x100000000", "0x100000001", "4294967296"] {
        assert_eq!(
            err(&doc(id)),
            OdfError::Invalid {
                what: "device-class/id",
                value: id.to_owned(),
            },
            "id={id}"
        );
    }
}

//! The tree writers: `OdfDocument::to_xml` and `InterfaceSpec::to_xml`
//! as they were, building an [`Element`] tree and serializing it. They
//! are the byte-identity oracle for the direct writer.

use hydra_odf::odf::OdfDocument;
use hydra_odf::wsdl::InterfaceSpec;

use super::dom::{Element, Node};

/// `OdfDocument::to_xml` as it was.
pub fn odf_to_xml(odf: &OdfDocument) -> String {
    let text_el = |name: &str, text: &str| Element {
        name: name.into(),
        attributes: vec![],
        children: vec![Node::Text(text.into())],
    };
    let mut package_children = vec![
        Node::Element(text_el("bindname", &odf.bind_name)),
        Node::Element(text_el("GUID", &odf.guid.0.to_string())),
    ];
    if let Some(fp) = odf.footprint {
        package_children.push(Node::Element(text_el("footprint", &fp.to_string())));
    }
    if !odf.interfaces.is_empty() {
        package_children.push(Node::Element(Element {
            name: "interface".into(),
            attributes: vec![],
            children: odf
                .interfaces
                .iter()
                .map(|i| Node::Element(text_el("include", i)))
                .collect(),
        }));
    }
    let mut children = vec![Node::Element(Element {
        name: "package".into(),
        attributes: vec![],
        children: package_children,
    })];
    if !odf.imports.is_empty() {
        children.push(Node::Element(Element {
            name: "sw-env".into(),
            attributes: vec![],
            children: odf
                .imports
                .iter()
                .map(|imp| {
                    let mut c = Vec::new();
                    if !imp.file.is_empty() {
                        c.push(Node::Element(text_el("file", &imp.file)));
                    }
                    c.push(Node::Element(text_el("bindname", &imp.bind_name)));
                    c.push(Node::Element(Element {
                        name: "reference".into(),
                        attributes: vec![
                            ("type".into(), imp.constraint.as_str().into()),
                            ("pri".into(), imp.priority.to_string()),
                        ],
                        children: vec![],
                    }));
                    c.push(Node::Element(text_el("GUID", &imp.guid.0.to_string())));
                    Node::Element(Element {
                        name: "import".into(),
                        attributes: vec![],
                        children: c,
                    })
                })
                .collect(),
        }));
    }
    if !odf.targets.is_empty() {
        children.push(Node::Element(Element {
            name: "targets".into(),
            attributes: vec![],
            children: odf
                .targets
                .iter()
                .map(|t| {
                    let mut c = vec![Node::Element(text_el("name", &t.name))];
                    if let Some(b) = &t.bus {
                        c.push(Node::Element(text_el("bus", b)));
                    }
                    if let Some(m) = &t.mac {
                        c.push(Node::Element(text_el("mac", m)));
                    }
                    if let Some(v) = &t.vendor {
                        c.push(Node::Element(text_el("vendor", v)));
                    }
                    Node::Element(Element {
                        name: "device-class".into(),
                        attributes: vec![("id".into(), format!("0x{:04x}", t.id))],
                        children: c,
                    })
                })
                .collect(),
        }));
    }
    if let Some(t) = odf.traffic {
        children.push(Node::Element(Element {
            name: "traffic".into(),
            attributes: vec![
                ("rate".into(), t.rate_per_sec.to_string()),
                ("burst".into(), t.burst.to_string()),
                ("bytes".into(), t.max_bytes.to_string()),
            ],
            children: vec![],
        }));
    }
    Element {
        name: "offcode".into(),
        attributes: vec![],
        children,
    }
    .to_xml()
}

/// `InterfaceSpec::to_xml` as it was.
pub fn interface_to_xml(spec: &InterfaceSpec) -> String {
    let ops = spec
        .operations
        .iter()
        .map(|op| {
            let mut children: Vec<Node> = op
                .inputs
                .iter()
                .map(|(n, t)| {
                    Node::Element(Element {
                        name: "input".into(),
                        attributes: vec![
                            ("name".into(), n.clone()),
                            ("type".into(), t.as_str().into()),
                        ],
                        children: vec![],
                    })
                })
                .collect();
            children.push(Node::Element(Element {
                name: "output".into(),
                attributes: vec![("type".into(), op.output.as_str().into())],
                children: vec![],
            }));
            Node::Element(Element {
                name: "operation".into(),
                attributes: vec![("name".into(), op.name.clone())],
                children,
            })
        })
        .collect();
    Element {
        name: "interface".into(),
        attributes: vec![
            ("name".into(), spec.name.clone()),
            ("guid".into(), spec.guid.0.to_string()),
        ],
        children: ops,
    }
    .to_xml()
}

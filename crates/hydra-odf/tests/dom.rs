//! The DOM's own tests: the `Element` tree that the oracles in
//! [`dom_readers`] build over `xml::read`, its query methods and its
//! serializer. Parsing, entities, mixed content, error messages and
//! positions, the serialization round trip and the paper's Figure 4.

mod dom_readers;

use dom_readers::dom::{parse, Node};
use hydra_odf::xml::Pos;

#[test]
fn parses_nested_elements() {
    let root = parse("<a><b><c/></b><b/></a>").unwrap();
    assert_eq!(root.name, "a");
    assert_eq!(root.children_named("b").count(), 2);
    assert!(root.child("b").unwrap().child("c").is_some());
}

#[test]
fn parses_attributes_quoted_and_unquoted() {
    let root = parse(r#"<dev id=0x0001 name="Network Device" kind='nic'/>"#).unwrap();
    assert_eq!(root.attr("id"), Some("0x0001"));
    assert_eq!(root.attr("name"), Some("Network Device"));
    assert_eq!(root.attr("kind"), Some("nic"));
    assert_eq!(root.attr("missing"), None);
}

#[test]
fn parses_text_and_entities() {
    let root = parse("<p>a &lt;b&gt; &amp; c &#65; &#x42;</p>").unwrap();
    assert_eq!(root.text(), "a <b> & c A B");
}

#[test]
fn skips_prolog_comments_doctype() {
    let doc = r#"<?xml version="1.0"?>
<!DOCTYPE odf>
<!-- header comment -->
<root><!-- inner --><child/></root>
<!-- trailing -->"#;
    let root = parse(doc).unwrap();
    assert_eq!(root.name, "root");
    assert!(root.child("child").is_some());
}

#[test]
fn mixed_content_preserved() {
    let root = parse("<p>pre<b>mid</b>post</p>").unwrap();
    assert_eq!(root.children.len(), 3);
    assert!(matches!(&root.children[0], Node::Text(t) if t == "pre"));
    assert!(matches!(&root.children[2], Node::Text(t) if t == "post"));
}

#[test]
fn error_on_mismatched_tags() {
    let err = parse("<a><b></a></b>").unwrap_err();
    assert!(err.message.contains("mismatched"), "{err}");
}

#[test]
fn error_on_unclosed() {
    let err = parse("<a><b>").unwrap_err();
    assert!(err.message.contains("unclosed"), "{err}");
}

#[test]
fn error_on_duplicate_attribute() {
    let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
    assert!(err.message.contains("duplicate"), "{err}");
}

#[test]
fn error_on_trailing_content() {
    let err = parse("<a/><b/>").unwrap_err();
    assert!(err.message.contains("after document root"), "{err}");
}

#[test]
fn error_on_unterminated_trailing_comment() {
    let err = parse("<a/>\n<!-- never closed").unwrap_err();
    assert_eq!(err.message, "unterminated comment");
    assert_eq!(err.pos, Pos { line: 2, col: 18 }, "{err}");
    // The same error, at the same place, as in the prolog.
    let prolog = parse("\n<!-- never closed").unwrap_err();
    assert_eq!(prolog, err);
}

#[test]
fn error_on_unterminated_trailing_pi() {
    let err = parse("<a/><!-- closed --> <?pi never closed").unwrap_err();
    assert_eq!(err.message, "unterminated processing instruction");
    assert_eq!(err.pos, Pos { line: 1, col: 38 }, "{err}");
    let prolog = parse("<!-- closed --> <?pi never closed").unwrap_err();
    assert_eq!(prolog.message, err.message);
    assert_eq!(prolog.pos.col, 34);
}

#[test]
fn error_positions_are_useful() {
    let err = parse("<a>\n  <b x=></b>\n</a>").unwrap_err();
    assert_eq!(err.pos.line, 2);
}

#[test]
fn unknown_entity_rejected() {
    let err = parse("<a>&nope;</a>").unwrap_err();
    assert!(err.message.contains("unknown entity"), "{err}");
}

#[test]
fn serialization_round_trips() {
    let doc = r#"<odf version="2">
  <package guid="123">
    <bindname>hydra.net.Socket</bindname>
  </package>
  <import type="Pull" pri="0"/>
  <note>a &lt;tricky&gt; &amp; "quoted" value</note>
</odf>"#;
    let root = parse(doc).unwrap();
    let re = parse(&root.to_xml()).unwrap();
    assert_eq!(root, re);
}

#[test]
fn whitespace_only_text_is_kept_as_node_but_trimmed_by_text() {
    let root = parse("<a>\n  \n</a>").unwrap();
    assert_eq!(root.text(), "");
}

#[test]
fn paper_odf_fragment_parses() {
    // Adapted directly from the paper's Figure 4 (with the typo of an
    // unclosed <reference> normalized to a self-closing tag).
    let doc = r#"<offcode>
  <package>
    <bindname>hydra.net.utils.Socket</bindname>
    <GUID>7070714</GUID>
    <interface><include>"/offcodes/socket.wsdl"</include></interface>
  </package>
  <sw-env>
    <import>
      <file>"/offcodes/checksum.xdf"</file>
      <bindname>hydra.net.utils.Checksum</bindname>
      <reference type=Pull pri=0/>
      <GUID>6060843</GUID>
    </import>
  </sw-env>
  <targets>
    <device-class id=0x0001>
      <name>Network Device</name>
      <bus>pci</bus>
      <mac>ethernet</mac>
      <vendor>3COM</vendor>
    </device-class>
  </targets>
</offcode>"#;
    let root = parse(doc).unwrap();
    assert_eq!(root.name, "offcode");
    let import = root.child("sw-env").unwrap().child("import").unwrap();
    assert_eq!(
        import.child("reference").unwrap().attr("type"),
        Some("Pull")
    );
    let dc = root
        .child("targets")
        .unwrap()
        .child("device-class")
        .unwrap();
    assert_eq!(dc.attr("id"), Some("0x0001"));
    assert_eq!(dc.child("name").unwrap().text(), "Network Device");
}

//! Differential oracle for the byte-cursor XML parser.
//!
//! [`reference`] is the original parser, kept verbatim but for its
//! handling of an unterminated comment or PI after the root, which
//! changed with the parser (see [`reference`]). It collects the input
//! into a `Vec<char>`, recurses once per nesting level, and builds names,
//! values and text one `char` at a time. Generated documents —
//! random trees with comments, PIs, DOCTYPE, quoted and unquoted
//! attributes, entities and character references, multi-byte UTF-8 and
//! Unicode whitespace, then truncated or byte-mutated — go through both
//! parsers, which must return the same `Result`, down to the error's
//! position and message. The byte cursor, `xml::read`, builds no tree
//! of its own: it is compared through the test-side DOM in
//! [`dom_readers::dom`], a sink over its events. Every fixture's ODF and
//! WSDL interpretation must agree too, and `parse → to_xml → parse` must
//! reach a fixpoint. On every generated document and fixture, the typed
//! ODF, WSDL and deployment-file readers must also return what the DOM
//! readers in [`dom_readers`] return. The reference recurses, so every
//! document here stays within [`MAX_DEPTH`]; the depth bound itself is
//! tested on its own.

mod dom_readers;

use dom_readers::dom::{self, Element};
use hydra_odf::odf::OdfDocument;
use hydra_odf::wsdl::{InterfaceSpec, OperationSpec, TypeTag};
use hydra_odf::xml::{XmlError, MAX_DEPTH};
use hydra_odf::Guid;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The parser as it was before the byte cursor, with one change made to
/// both parsers together: `skip_misc` returns an unterminated comment or
/// PI after the root as an error instead of accepting it.
mod reference {
    use crate::dom_readers::dom::{Element, Node};
    use hydra_odf::xml::{Pos, XmlError};

    /// Parses a complete document, returning the root element.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`XmlError`] on any well-formedness violation.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut p = Parser::new(input);
        p.skip_prolog()?;
        let root = p.parse_element()?;
        p.skip_misc()?;
        if !p.at_end() {
            return Err(p.error("content after document root"));
        }
        Ok(root)
    }

    struct Parser<'a> {
        chars: Vec<char>,
        pos: usize,
        src: &'a str,
    }

    impl<'a> Parser<'a> {
        fn new(src: &'a str) -> Self {
            Parser {
                chars: src.chars().collect(),
                pos: 0,
                src,
            }
        }

        fn current_pos(&self) -> Pos {
            let mut line = 1;
            let mut col = 1;
            for &c in &self.chars[..self.pos.min(self.chars.len())] {
                if c == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            Pos { line, col }
        }

        fn error(&self, message: &str) -> XmlError {
            let _ = self.src;
            XmlError {
                pos: self.current_pos(),
                message: message.to_owned(),
            }
        }

        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn peek_at(&self, ahead: usize) -> Option<char> {
            self.chars.get(self.pos + ahead).copied()
        }

        fn bump(&mut self) -> Option<char> {
            let c = self.peek();
            if c.is_some() {
                self.pos += 1;
            }
            c
        }

        fn at_end(&self) -> bool {
            self.pos >= self.chars.len()
        }

        fn starts_with(&self, s: &str) -> bool {
            s.chars()
                .enumerate()
                .all(|(i, c)| self.peek_at(i) == Some(c))
        }

        fn eat(&mut self, s: &str) -> bool {
            if self.starts_with(s) {
                self.pos += s.chars().count();
                true
            } else {
                false
            }
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(c) if c.is_whitespace()) {
                self.pos += 1;
            }
        }

        fn skip_comment(&mut self) -> Result<bool, XmlError> {
            if !self.eat("<!--") {
                return Ok(false);
            }
            loop {
                if self.at_end() {
                    return Err(self.error("unterminated comment"));
                }
                if self.eat("-->") {
                    return Ok(true);
                }
                self.pos += 1;
            }
        }

        fn skip_pi(&mut self) -> Result<bool, XmlError> {
            if !self.eat("<?") {
                return Ok(false);
            }
            loop {
                if self.at_end() {
                    return Err(self.error("unterminated processing instruction"));
                }
                if self.eat("?>") {
                    return Ok(true);
                }
                self.pos += 1;
            }
        }

        fn skip_doctype(&mut self) -> Result<bool, XmlError> {
            if !self.starts_with("<!DOCTYPE") {
                return Ok(false);
            }
            while let Some(c) = self.bump() {
                if c == '>' {
                    return Ok(true);
                }
            }
            Err(self.error("unterminated DOCTYPE"))
        }

        fn skip_prolog(&mut self) -> Result<(), XmlError> {
            loop {
                self.skip_ws();
                if self.skip_pi()? || self.skip_comment()? || self.skip_doctype()? {
                    continue;
                }
                return Ok(());
            }
        }

        fn skip_misc(&mut self) -> Result<(), XmlError> {
            loop {
                self.skip_ws();
                if self.skip_comment()? || self.skip_pi()? {
                    continue;
                }
                return Ok(());
            }
        }

        fn is_name_start(c: char) -> bool {
            c.is_alphabetic() || c == '_' || c == ':'
        }

        fn is_name_char(c: char) -> bool {
            Self::is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
        }

        fn parse_name(&mut self) -> Result<String, XmlError> {
            match self.peek() {
                Some(c) if Self::is_name_start(c) => {}
                _ => return Err(self.error("expected a name")),
            }
            let mut name = String::new();
            while let Some(c) = self.peek() {
                if Self::is_name_char(c) {
                    name.push(c);
                    self.pos += 1;
                } else {
                    break;
                }
            }
            Ok(name)
        }

        fn parse_entity(&mut self) -> Result<char, XmlError> {
            // Caller consumed '&'.
            let mut ent = String::new();
            loop {
                match self.bump() {
                    Some(';') => break,
                    Some(c) if ent.len() < 10 => ent.push(c),
                    _ => return Err(self.error("unterminated entity reference")),
                }
            }
            match ent.as_str() {
                "lt" => Ok('<'),
                "gt" => Ok('>'),
                "amp" => Ok('&'),
                "quot" => Ok('"'),
                "apos" => Ok('\''),
                other => {
                    if let Some(hex) = other.strip_prefix("#x") {
                        u32::from_str_radix(hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.error("invalid character reference"))
                    } else if let Some(dec) = other.strip_prefix('#') {
                        dec.parse::<u32>()
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.error("invalid character reference"))
                    } else {
                        Err(self.error(&format!("unknown entity &{other};")))
                    }
                }
            }
        }

        fn parse_attr_value(&mut self) -> Result<String, XmlError> {
            let mut value = String::new();
            match self.peek() {
                Some(quote @ ('"' | '\'')) => {
                    self.pos += 1;
                    loop {
                        match self.bump() {
                            None => return Err(self.error("unterminated attribute value")),
                            Some(c) if c == quote => break,
                            Some('&') => value.push(self.parse_entity()?),
                            Some('<') => return Err(self.error("'<' in attribute value")),
                            Some(c) => value.push(c),
                        }
                    }
                }
                // Unquoted value (non-standard but used by the paper's ODF).
                Some(c) if !c.is_whitespace() && c != '>' && c != '/' => {
                    while let Some(c) = self.peek() {
                        if c.is_whitespace() || c == '>' || c == '/' {
                            break;
                        }
                        value.push(c);
                        self.pos += 1;
                    }
                }
                _ => return Err(self.error("expected attribute value")),
            }
            Ok(value)
        }

        fn parse_element(&mut self) -> Result<Element, XmlError> {
            if !self.eat("<") {
                return Err(self.error("expected '<'"));
            }
            let name = self.parse_name()?;
            let mut attributes = Vec::new();
            loop {
                self.skip_ws();
                match self.peek() {
                    Some('/') => {
                        self.pos += 1;
                        if !self.eat(">") {
                            return Err(self.error("expected '>' after '/'"));
                        }
                        return Ok(Element {
                            name,
                            attributes,
                            children: Vec::new(),
                        });
                    }
                    Some('>') => {
                        self.pos += 1;
                        break;
                    }
                    Some(c) if Self::is_name_start(c) => {
                        let key = self.parse_name()?;
                        if attributes.iter().any(|(k, _)| *k == key) {
                            return Err(self.error(&format!("duplicate attribute '{key}'")));
                        }
                        self.skip_ws();
                        if !self.eat("=") {
                            return Err(self.error("expected '=' after attribute name"));
                        }
                        self.skip_ws();
                        let value = self.parse_attr_value()?;
                        attributes.push((key, value));
                    }
                    _ => return Err(self.error("malformed start tag")),
                }
            }

            let mut children = Vec::new();
            let mut text = String::new();
            loop {
                if self.at_end() {
                    return Err(self.error(&format!("unclosed element <{name}>")));
                }
                if self.starts_with("</") {
                    if !text.is_empty() {
                        children.push(Node::Text(std::mem::take(&mut text)));
                    }
                    self.pos += 2;
                    let close = self.parse_name()?;
                    if close != name {
                        return Err(
                            self.error(&format!("mismatched close tag </{close}> for <{name}>"))
                        );
                    }
                    self.skip_ws();
                    if !self.eat(">") {
                        return Err(self.error("expected '>' in close tag"));
                    }
                    return Ok(Element {
                        name,
                        attributes,
                        children,
                    });
                }
                if self.starts_with("<!--") {
                    self.skip_comment()?;
                    continue;
                }
                if self.starts_with("<?") {
                    self.skip_pi()?;
                    continue;
                }
                if self.starts_with("<") {
                    if !text.is_empty() {
                        children.push(Node::Text(std::mem::take(&mut text)));
                    }
                    children.push(Node::Element(self.parse_element()?));
                    continue;
                }
                match self.bump() {
                    Some('&') => text.push(self.parse_entity()?),
                    Some(c) => text.push(c),
                    None => unreachable!("at_end checked above"),
                }
            }
        }
    }
}

fn both(doc: &str) -> Result<Element, XmlError> {
    let new = dom::parse(doc);
    assert_eq!(new, reference::parse(doc), "parsers disagree on {doc:?}");
    dom_readers::assert_typed_readers_agree(doc);
    new
}

fn depth(e: &Element) -> usize {
    1 + e.child_elements().map(depth).max().unwrap_or(0)
}

/// Names and attributes, recursively, without the text.
fn skeleton(e: &Element) -> String {
    let mut out = format!("<{} {:?}>", e.name, e.attributes);
    for child in e.child_elements() {
        out.push_str(&skeleton(child));
    }
    out + "</>"
}

/// A parsed tree serializes to a document that parses back to the same
/// elements, and from there `to_xml` and `parse` are exact inverses.
fn check_round_trip(tree: &Element) {
    let once = dom::parse(&tree.to_xml()).expect("serialized tree parses");
    assert_eq!(skeleton(&once), skeleton(tree));
    assert_eq!(dom::parse(&once.to_xml()).as_ref(), Ok(&once));
}

const NAMES: &[&str] = &[
    "a", "b", "offcode", "GUID", "_x", "a:b", "n-1.2", "名前", "ñ", "Δx",
];
const SPACE: &[&str] = &[
    " ", "  ", "\n", "\t", "\r\n", "\u{0B}", "\u{0C}", "\u{A0}", "\u{2003}", "\u{85}",
];
const TEXT: &[&str] = &[
    "hi",
    "x y",
    "é",
    "日本語",
    "🦀",
    ">",
    "]]",
    "=",
    "\"",
    "'",
    "/",
    "-",
    "?",
    ";",
    "a\nb",
    "!",
];
const REFS: &[&str] = &[
    "&lt;",
    "&gt;",
    "&amp;",
    "&quot;",
    "&apos;",
    "&#65;",
    "&#x42;",
    "&#x1F980;",
    "&#0;",
    "&#xD800;",
    "&#x110000;",
    "&#;",
    "&#x;",
    "&#+5;",
    "&#x+41;",
    "&bogus;",
    "&abcdefghi;",
    "&abcdefghij;",
    "&abcdefghijk;",
    "&日本語日;",
    "&lt",
    "&",
];
const UNQUOTED: &[&str] = &["0x0001", "Pull", "1", "a&b", "é", "x\"y", "<", "=="];
const HOSTILE: &[&str] = &[
    "<", ">", "&", ";", "\"", "'", "/", "=", "!", "?", "-", " ", "é", "\n", "<a>", "</a>", "<!--",
    "-->", "<?", "?>", "&#", "\u{FEFF}",
];

/// Writes random documents into `out`.
struct Writer<'r> {
    rng: &'r mut TestRng,
    out: String,
}

impl Writer<'_> {
    fn pick(&mut self, from: &[&str]) {
        let i = self.rng.below(from.len() as u64) as usize;
        self.out.push_str(from[i]);
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.below(one_in) == 0
    }

    fn space(&mut self, max: u64) {
        for _ in 0..self.rng.below(max + 1) {
            self.pick(SPACE);
        }
    }

    fn comment(&mut self) {
        self.out.push_str("<!--");
        for _ in 0..self.rng.below(3) {
            self.pick(&["-", " x ", "é", "<a>", "--", "&bogus;"]);
        }
        self.out.push_str("-->");
    }

    fn pi(&mut self) {
        self.out.push_str("<?");
        self.pick(&["xml version=\"1.0\"", "pi x", "", "?", "<a>"]);
        self.out.push_str("?>");
    }

    fn text(&mut self) {
        for _ in 0..=self.rng.below(3) {
            match self.rng.below(4) {
                0 => self.pick(REFS),
                1 => self.space(2),
                _ => self.pick(TEXT),
            }
        }
    }

    fn attribute(&mut self, names: &mut Vec<String>) {
        let before = self.out.len();
        self.pick(NAMES);
        let name = self.out[before..].to_owned();
        names.push(name);
        if self.chance(3) {
            self.space(1);
        }
        self.out.push('=');
        if self.chance(3) {
            self.space(1);
        }
        match self.rng.below(3) {
            0 => self.pick(UNQUOTED),
            quote => {
                let q = if quote == 1 { '"' } else { '\'' };
                self.out.push(q);
                for _ in 0..self.rng.below(4) {
                    if self.chance(3) {
                        self.pick(REFS);
                    } else {
                        self.pick(TEXT);
                    }
                }
                self.out.push(q);
            }
        }
    }

    fn element(&mut self, depth: usize) {
        let i = self.rng.below(NAMES.len() as u64) as usize;
        let name = NAMES[i];
        self.out.push('<');
        self.out.push_str(name);
        let mut names = Vec::new();
        for _ in 0..self.rng.below(4) {
            self.space(1);
            if !self.chance(4) {
                self.pick(&[" "]);
            }
            self.attribute(&mut names);
        }
        self.space(1);
        if self.chance(3) {
            self.out.push_str("/>");
            return;
        }
        self.out.push('>');
        for _ in 0..self.rng.below(5) {
            match self.rng.below(6) {
                0 | 1 => self.text(),
                2 => self.comment(),
                3 => self.pi(),
                _ if depth < 8 => self.element(depth + 1),
                _ => self.text(),
            }
        }
        self.out.push_str("</");
        self.out.push_str(name);
        self.space(1);
        self.out.push('>');
    }

    fn document(&mut self) {
        if self.chance(2) {
            self.out.push_str("<?xml version=\"1.0\"?>");
        }
        for _ in 0..self.rng.below(4) {
            match self.rng.below(4) {
                0 => self.comment(),
                1 => self.pi(),
                2 => self.out.push_str("<!DOCTYPE odf>"),
                _ => self.space(2),
            }
        }
        self.element(1);
        for _ in 0..self.rng.below(3) {
            match self.rng.below(5) {
                0 => self.comment(),
                1 => self.pi(),
                2 => self.space(2),
                3 => self.pick(&["<!-- open", "<? open", "<!DOCTYPE x>", "<b/>", "x"]),
                _ => {}
            }
        }
    }

    /// Truncates, overwrites, inserts or deletes bytes; invalid UTF-8
    /// left behind becomes U+FFFD.
    fn mutate(&mut self) {
        let mut bytes = std::mem::take(&mut self.out).into_bytes();
        for _ in 0..=self.rng.below(3) {
            let at = self.rng.below(bytes.len() as u64 + 1) as usize;
            match self.rng.below(4) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] = self.rng.next_u64() as u8,
                2 => {
                    let i = self.rng.below(HOSTILE.len() as u64) as usize;
                    bytes.splice(at..at, HOSTILE[i].bytes());
                }
                _ => {
                    let end = (at + self.rng.below(8) as usize).min(bytes.len());
                    bytes.drain(at..end);
                }
            }
        }
        self.out = String::from_utf8_lossy(&bytes).into_owned();
    }
}

/// Random documents, half of them mutated.
struct Documents;

impl Strategy for Documents {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let mut w = Writer {
            rng,
            out: String::new(),
        };
        w.document();
        if w.chance(2) {
            w.mutate();
        }
        w.out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn parsers_agree_on_generated_documents(doc in Documents) {
        if let Ok(tree) = both(&doc) {
            prop_assert!(depth(&tree) <= MAX_DEPTH);
            check_round_trip(&tree);
        }
    }

    #[test]
    fn parsers_agree_on_arbitrary_text(doc in "[<>/=&;#x!?\"' a-c\n-]{0,48}") {
        let _ = both(&doc);
    }
}

/// How often the generator produces each outcome: the property above is
/// only as strong as its mix of accepted and rejected documents.
#[test]
fn generated_documents_cover_accepts_and_every_error() {
    let mut rng = TestRng::from_seed(11);
    let mut accepted = 0;
    let mut messages = std::collections::BTreeSet::new();
    for _ in 0..3000 {
        match dom::parse(&Documents.sample(&mut rng)) {
            Ok(_) => accepted += 1,
            Err(e) => {
                let kind: String = e
                    .message
                    .chars()
                    .take_while(|c| *c != '\'' && *c != '<' && *c != '&')
                    .collect();
                messages.insert(kind);
            }
        }
    }
    assert!(accepted > 300, "only {accepted} documents parsed");
    for expected in [
        "unterminated comment",
        "unterminated processing instruction",
        "unterminated entity reference",
        "unterminated attribute value",
        "unknown entity ",
        "invalid character reference",
        "duplicate attribute ",
        "expected a name",
        "malformed start tag",
        "mismatched close tag ",
        "unclosed element ",
        "content after document root",
    ] {
        assert!(
            messages.contains(expected),
            "no {expected:?} in {messages:?}"
        );
    }
}

/// The reader classifies an ASCII byte as whitespace or as part of a
/// name without decoding it. Every ASCII character, and a few non-ASCII
/// ones, in every position where that decision is made must be read as
/// the reference reads it.
#[test]
fn parsers_agree_on_every_ascii_character_in_names_and_whitespace() {
    let non_ascii = [
        '\u{85}', '\u{A0}', '\u{2003}', '\u{3000}', 'é', '名', '٣', '\u{FEFF}',
    ];
    for c in (0..0x80u8).map(char::from).chain(non_ascii) {
        for doc in [
            format!("{c}<a/>"),
            format!("<a/>{c}"),
            format!("<{c}a/>"),
            format!("<a{c}/>"),
            format!("<a{c}b/>"),
            format!("<a{c}x='1'/>"),
            format!("<a x{c}='1'/>"),
            format!("<a x={c}'1'/>"),
            format!("<a x=1{c}y=2/>"),
            format!("<a x={c}/>"),
            format!("<a></a{c}>"),
            format!("<a>{c}<b/>{c}</a>"),
        ] {
            let _ = both(&doc);
        }
    }
}

fn nested(levels: usize, inner: &str) -> String {
    "<a>".repeat(levels) + inner + &"</a>".repeat(levels)
}

#[test]
fn parsers_agree_up_to_the_depth_bound() {
    for levels in [MAX_DEPTH - 1, MAX_DEPTH] {
        let tree = both(&nested(levels, "x")).expect("within the bound");
        assert_eq!(depth(&tree), levels);
        check_round_trip(&tree);
        let _ = both(&nested(levels, "<!-- open"));
        let _ = both(&nested(levels, "&bogus;"));
    }
    // `<b/>` at the bound adds one level without opening an element.
    let doc = nested(MAX_DEPTH - 1, "<b/>");
    assert_eq!(depth(&both(&doc).expect("within the bound")), MAX_DEPTH);
}

#[test]
fn nesting_past_the_bound_is_a_positioned_error() {
    // An open or an empty element one level too deep, positioned at its
    // `<`.
    for doc in [nested(MAX_DEPTH + 1, "x"), nested(MAX_DEPTH, "<b/>")] {
        let err = dom::parse(&doc).expect_err("one level too deep");
        assert!(err.message.contains("deeper than"), "{err}");
        assert_eq!((err.pos.line, err.pos.col as usize), (1, 3 * MAX_DEPTH + 1));
    }
    // Far past the bound: an error, not a stack overflow.
    let doc = nested(100_000, "");
    let err = dom::parse(&doc).expect_err("far too deep");
    assert_eq!(err.pos.col as usize, 3 * MAX_DEPTH + 1);
}

fn fixture_documents() -> Vec<(String, String)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
    let mut dirs = vec![std::path::PathBuf::from(root)];
    let mut docs = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("fixtures directory") {
            let path = entry.expect("fixture entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "xml") {
                let text = std::fs::read_to_string(&path).expect("fixture reads");
                docs.push((path.display().to_string(), text));
            }
        }
    }
    docs.sort();
    docs
}

#[test]
fn fixtures_interpret_identically_under_both_parsers() {
    let docs = fixture_documents();
    assert!(docs.len() >= 6, "fixtures found: {}", docs.len());
    let mut odfs = 0;
    for (path, text) in &docs {
        let new = dom::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let old = reference::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(new, old, "{path}");
        check_round_trip(&new);
        let elements: Vec<&Element> = if new.name == "deployment" {
            new.child_elements().collect()
        } else {
            vec![&new]
        };
        let old_elements: Vec<&Element> = if old.name == "deployment" {
            old.child_elements().collect()
        } else {
            vec![&old]
        };
        dom_readers::assert_typed_readers_agree(text);
        for (n, o) in elements.iter().zip(&old_elements) {
            let odf = dom_readers::odf_from_element(n);
            assert_eq!(odf, dom_readers::odf_from_element(o), "{path}");
            assert_eq!(
                dom_readers::interface_from_element(n),
                dom_readers::interface_from_element(o)
            );
            // The text the runtime's own generator would hand the parser.
            if let Ok(odf) = odf {
                odfs += 1;
                let text = odf.to_xml();
                assert_eq!(OdfDocument::parse(&text), Ok(odf.clone()));
                let old_tree = reference::parse(&text).expect("generated ODF parses");
                assert_eq!(dom_readers::odf_from_element(&old_tree), Ok(odf));
            }
        }
    }
    assert!(odfs >= 6, "ODFs found: {odfs}");
}

#[test]
fn interface_specs_interpret_identically_under_both_parsers() {
    let spec = InterfaceSpec::new("IChecksum", Guid(500))
        .with_operation(OperationSpec {
            name: "checksum".into(),
            inputs: vec![
                ("data".into(), TypeTag::Bytes),
                ("seed".into(), TypeTag::U32),
            ],
            output: TypeTag::U32,
        })
        .with_operation(OperationSpec {
            name: "reset".into(),
            inputs: Vec::new(),
            output: TypeTag::Unit,
        });
    let docs = [
        spec.to_xml(),
        r#"<interface name="IChecksum" guid="500">
             <operation name="checksum">
               <input name="data" type="bytes"/>
               <output type="u32"/>
             </operation>
           </interface>"#
            .to_owned(),
        "<interface name=I guid=7><operation name=f><bogus/></operation></interface>".to_owned(),
    ];
    for text in &docs {
        let new = both(text).expect("well-formed");
        let old = reference::parse(text).expect("well-formed");
        assert_eq!(
            dom_readers::interface_from_element(&new),
            dom_readers::interface_from_element(&old)
        );
    }
    assert_eq!(InterfaceSpec::parse(&docs[0]), Ok(spec));
}

#[test]
fn error_positions_count_characters_not_bytes() {
    for doc in [
        "<名前 x=>",
        "<a>\n  é<b x=></b>\n</a>",
        "<a>🦀&bogus;</a>",
        "<a>\r\n<é",
    ] {
        let new = both(doc).expect_err("malformed");
        assert!(new.pos.col >= 1, "{new}");
    }
}

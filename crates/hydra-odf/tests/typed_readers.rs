//! Differential oracle for the typed ODF, WSDL and deployment-file
//! readers.
//!
//! The readers fill `OdfDocument`, `InterfaceSpec` and `DeploymentFile`
//! straight from the XML reader's events. [`dom_readers`] keeps the
//! readers they replaced, which build the `Element` tree first and walk
//! it. The generator here writes documents shaped like the real thing —
//! ODFs, WSDL interfaces and `<deployment>` wrappers — with the edges
//! where a streaming reader can drift from a tree walk: duplicated
//! sections and fields (the first counts), text split by comments, PIs,
//! references and child elements (only direct text counts), nested
//! look-alikes (`<bindname>` inside `<bindname>`, `<offcode>` below a
//! non-`<offcode>` child), numbers at the edge of their range, and
//! semantic errors placed before XML errors. Half of the documents are
//! then mutated byte-wise. Every reader must return the same `Result` as
//! its DOM counterpart, errors included, and every document that parses
//! must write and read back unchanged.

mod dom_readers;

use std::collections::BTreeSet;

use hydra_odf::odf::{DeploymentFile, OdfDocument, OdfError};
use hydra_odf::wsdl::{InterfaceSpec, WsdlError};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Numbers that parse, one of them at the top of `u32`.
const GOOD_NUMBERS: &[&str] = &[
    "1",
    "42",
    " 7 ",
    "0x10",
    "0XfF",
    "\"9\"",
    "255",
    "0xffffffff",
    "&#x31;2",
];
/// Numbers that do not parse, or do not fit a `u8` priority or a `u32`
/// class id.
const BAD_NUMBERS: &[&str] = &[
    "seven",
    "",
    "-1",
    "18446744073709551616",
    "256",
    "0x100000000",
];
const NAMES: &[&str] = &[
    "a",
    "hydra.net.Socket",
    "  padded  ",
    "é",
    "日本",
    "a&amp;b",
    "&lt;x&gt;",
    "\"/offcodes/x.wsdl\"",
    "\"  /offcodes/padded.wsdl  \"",
    "&#65;",
    "\u{A0}nb\u{A0}",
];
const KINDS: &[&str] = &[
    "Link", "Pull", "Gang", "AsymGang", "Link", "Pull", "Gang", "Sideways", "pull",
];
const TYPES: &[&str] = &[
    "unit",
    "bool",
    "u32",
    "u64",
    "i64",
    "bytes",
    "str",
    "quaternion",
];
const OPERATIONS: &[&str] = &["f", "g", "send", "f"];
const SPACE: &[&str] = &[
    "", " ", "\n  ", "\t", "\r\n", "\u{0B}", "\u{0C}", "\u{2003}",
];
const HOSTILE: &[&str] = &[
    "<",
    ">",
    "&",
    "\"",
    "'",
    "/",
    "</a>",
    "<package>",
    "</package>",
    "<bindname>z</bindname>",
    "<GUID>3</GUID>",
    "<!--",
    "-->",
    " pri=300",
    " id=7",
    "\u{1C}",
    "\u{0B}",
    "é",
];

struct Writer<'r> {
    rng: &'r mut TestRng,
    out: String,
}

/// One optional part of a section, left out one time in `absent`.
type Part<'p, 'r> = (u64, &'p mut dyn FnMut(&mut Writer<'r>));

impl<'r> Writer<'r> {
    fn pick(&mut self, from: &[&str]) -> String {
        let i = self.rng.below(from.len() as u64) as usize;
        from[i].to_owned()
    }

    fn put(&mut self, from: &[&str]) {
        let s = self.pick(from);
        self.out.push_str(&s);
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.below(one_in) == 0
    }

    fn number(&mut self) -> String {
        if self.chance(12) {
            self.pick(BAD_NUMBERS)
        } else {
            self.pick(GOOD_NUMBERS)
        }
    }

    /// Whitespace or a comment between elements.
    fn gap(&mut self) {
        match self.rng.below(6) {
            0 => self.out.push_str("<!-- gap -->"),
            1 => self.out.push_str("<?pi gap?>"),
            2 => self.out.push_str("stray"),
            _ => self.put(SPACE),
        }
    }

    /// An attribute with `value`, quoted so the value survives unless it
    /// is written bare.
    fn attribute(&mut self, key: &str, value: &str) {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push('=');
        let bare = !value.is_empty()
            && !value
                .chars()
                .any(|c| c.is_whitespace() || "\"'/>".contains(c));
        if bare && self.chance(3) {
            self.out.push_str(value);
        } else {
            let quote = if value.contains('"') { '\'' } else { '"' };
            self.out.push(quote);
            self.out.push_str(value);
            self.out.push(quote);
        }
    }

    /// Text that `value` should come out as, split by comments, PIs,
    /// references or child elements whose text must not count.
    fn text(&mut self, value: &str) {
        let cut = self.rng.below(value.len() as u64 + 1) as usize;
        // Never inside a reference: after its `;`, or before its `&`.
        let outside = |i: usize| {
            let head = &value[..i];
            head.rfind('&').is_none_or(|a| head[a..].contains(';'))
        };
        let cut = (cut..=value.len())
            .find(|&i| value.is_char_boundary(i) && outside(i))
            .unwrap_or(value.len());
        self.put(SPACE);
        self.out.push_str(&value[..cut]);
        match self.rng.below(8) {
            0 => self.out.push_str("<!-- split -->"),
            1 => self.out.push_str("<?split?>"),
            2 => self.out.push_str("<i>grand</i>"),
            3 => self.out.push_str("<bindname>nested</bindname>"),
            4 => self.out.push_str("<GUID>99</GUID><name>n</name>"),
            _ => {}
        }
        self.out.push_str(&value[cut..]);
        self.put(SPACE);
    }

    /// `<tag>` holding text, sometimes twice (the second must be
    /// ignored) and sometimes empty.
    fn field(&mut self, tag: &str, value: &str) {
        let times = if self.chance(6) { 2 } else { 1 };
        for i in 0..times {
            if self.chance(20) {
                self.out.push_str(&format!("<{tag}/>"));
            } else {
                self.out.push_str(&format!("<{tag}>"));
                let value = if i == 0 {
                    value.to_owned()
                } else {
                    self.number()
                };
                self.text(&value);
                self.out.push_str(&format!("</{tag}>"));
            }
            self.gap();
        }
    }

    /// Calls each of `parts` in a shuffled order, each present with
    /// probability `1 - 1/absent`.
    fn shuffled(&mut self, parts: &mut [Part<'_, 'r>]) {
        let mut order: Vec<usize> = (0..parts.len()).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        for i in order {
            let (absent, part) = &mut parts[i];
            if !self.chance(*absent) {
                part(self);
            }
        }
    }

    fn package(&mut self) {
        self.out.push_str("<package>");
        let name = if self.chance(20) {
            " ".to_owned()
        } else {
            self.pick(NAMES)
        };
        let guid = self.number();
        let footprint = self.number();
        self.shuffled(&mut [
            (20, &mut |w: &mut Self| w.field("bindname", &name)),
            (20, &mut |w: &mut Self| w.field("GUID", &guid)),
            (3, &mut |w: &mut Self| w.field("footprint", &footprint)),
            (3, &mut |w: &mut Self| {
                for _ in 0..=w.rng.below(1) {
                    w.out.push_str("<interface>");
                    for _ in 0..w.rng.below(3) {
                        let include = w.pick(NAMES);
                        w.field("include", &include);
                    }
                    w.out.push_str("</interface>");
                }
            }),
            (3, &mut |w: &mut Self| {
                w.out.push_str("<junk><GUID>5</GUID></junk>");
            }),
        ]);
        self.out.push_str("</package>");
    }

    fn import(&mut self) {
        self.out.push_str("<import>");
        let file = self.pick(NAMES);
        let name = self.pick(NAMES);
        let guid = self.number();
        self.shuffled(&mut [
            (3, &mut |w: &mut Self| w.field("file", &file)),
            (20, &mut |w: &mut Self| w.field("bindname", &name)),
            (20, &mut |w: &mut Self| w.field("GUID", &guid)),
            (3, &mut |w: &mut Self| {
                for _ in 0..=w.rng.below(1) {
                    w.out.push_str("<reference");
                    if !w.chance(4) {
                        let kind = w.pick(KINDS);
                        w.attribute("type", &kind);
                    }
                    if !w.chance(3) {
                        let pri = w.number();
                        w.attribute("pri", &pri);
                    }
                    w.out.push_str("/>");
                }
            }),
        ]);
        self.out.push_str("</import>");
    }

    fn device_class(&mut self) {
        self.out.push_str("<device-class");
        if !self.chance(12) {
            let id = self.number();
            self.attribute("id", &id);
        }
        self.out.push('>');
        let [name, bus, mac, vendor] = [(); 4].map(|()| self.pick(NAMES));
        self.shuffled(&mut [
            (20, &mut |w: &mut Self| w.field("name", &name)),
            (2, &mut |w: &mut Self| w.field("bus", &bus)),
            (2, &mut |w: &mut Self| w.field("mac", &mac)),
            (2, &mut |w: &mut Self| w.field("vendor", &vendor)),
        ]);
        self.out.push_str("</device-class>");
    }

    fn traffic(&mut self) {
        self.out.push_str("<traffic");
        for key in ["rate", "burst", "bytes"] {
            if !self.chance(5) {
                let n = self.number();
                self.attribute(key, &n);
            }
        }
        self.out.push_str("/>");
    }

    /// Up to three children written by `child` inside `<tag>`.
    fn list(&mut self, tag: &str, child: fn(&mut Self)) {
        self.out.push_str(&format!("<{tag}>"));
        for _ in 0..self.rng.below(4) {
            self.gap();
            child(self);
        }
        self.gap();
        self.out.push_str(&format!("</{tag}>"));
    }

    fn odf(&mut self) {
        let root = if self.chance(20) {
            "manifest"
        } else {
            "offcode"
        };
        self.out.push_str(&format!("<{root}>"));
        self.shuffled(&mut [
            (15, &mut |w: &mut Self| w.package()),
            (4, &mut |w: &mut Self| w.list("sw-env", Self::import)),
            (4, &mut |w: &mut Self| w.list("targets", Self::device_class)),
            (3, &mut |w: &mut Self| w.traffic()),
            (6, &mut |w: &mut Self| w.package()),
            (8, &mut |w: &mut Self| w.list("sw-env", Self::import)),
            (8, &mut |w: &mut Self| w.traffic()),
            (4, &mut |w: &mut Self| {
                w.out.push_str("<junk><package/></junk>");
            }),
            (2, &mut |w: &mut Self| w.gap()),
        ]);
        self.out.push_str(&format!("</{root}>"));
    }

    fn operation_child(&mut self) {
        let tag = match self.rng.below(16) {
            0 => "banana",
            1..=4 => "output",
            _ => "input",
        };
        self.out.push_str(&format!("<{tag}"));
        if tag == "input" && !self.chance(12) {
            let name = self.pick(&["data", "x", "a&amp;b"]);
            self.attribute("name", &name);
        }
        if !self.chance(12) {
            let ty = self.pick(TYPES);
            self.attribute("type", &ty);
        }
        if self.chance(6) {
            self.out.push_str("><operation name=f/><input/></");
            self.out.push_str(tag);
            self.out.push('>');
        } else {
            self.out.push_str("/>");
        }
    }

    fn interface(&mut self) {
        let root = if self.chance(20) {
            "service"
        } else {
            "interface"
        };
        self.out.push_str(&format!("<{root}"));
        if !self.chance(15) {
            let name = self.pick(NAMES);
            self.attribute("name", &name);
        }
        if !self.chance(15) {
            let guid = self.number();
            self.attribute("guid", &guid);
        }
        self.out.push('>');
        for _ in 0..self.rng.below(4) {
            self.gap();
            if self.chance(6) {
                self.out.push_str("<notes><input/><operation/></notes>");
                continue;
            }
            self.out.push_str("<operation");
            if !self.chance(15) {
                let name = self.pick(OPERATIONS);
                self.attribute("name", &name);
            }
            self.out.push('>');
            for _ in 0..self.rng.below(4) {
                self.gap();
                self.operation_child();
            }
            self.out.push_str("</operation>");
        }
        self.gap();
        self.out.push_str(&format!("</{root}>"));
    }

    fn deployment(&mut self) {
        self.out.push_str("<deployment>");
        for _ in 0..self.rng.below(5) {
            self.gap();
            match self.rng.below(6) {
                0 => {
                    self.out.push_str("<group>");
                    self.odf();
                    self.out.push_str("</group>");
                }
                1 => self.out.push_str("<note>text</note>"),
                _ => self.odf(),
            }
        }
        self.gap();
        self.out.push_str("</deployment>");
    }

    fn document(&mut self) {
        if self.chance(3) {
            self.out
                .push_str("<?xml version=\"1.0\"?>\n<!-- prolog -->");
        }
        match self.rng.below(5) {
            0 => self.interface(),
            1 => self.deployment(),
            _ => self.odf(),
        }
        if self.chance(16) {
            self.out.push_str("<!-- open");
        }
    }

    /// Truncates, overwrites, inserts or deletes bytes; invalid UTF-8
    /// left behind becomes U+FFFD.
    fn mutate(&mut self) {
        let mut bytes = std::mem::take(&mut self.out).into_bytes();
        for _ in 0..=self.rng.below(2) {
            let at = self.rng.below(bytes.len() as u64 + 1) as usize;
            match self.rng.below(5) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] = self.rng.next_u64() as u8,
                2 | 3 => {
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

/// ODF-, WSDL- and deployment-shaped documents, half of them mutated.
struct Shaped;

impl Strategy for Shaped {
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
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn typed_readers_agree_with_dom_readers_on_shaped_documents(doc in Shaped) {
        dom_readers::assert_typed_readers_agree(&doc);
    }

    /// `parse(to_xml(parse(t))) == parse(t)` for every ODF, interface
    /// and wrapped ODF that parses.
    #[test]
    fn parsed_documents_write_and_read_back_unchanged(doc in Shaped) {
        if let Ok(odf) = OdfDocument::parse(&doc) {
            prop_assert_eq!(OdfDocument::parse(&odf.to_xml()), Ok(odf));
        }
        if let Ok(spec) = InterfaceSpec::parse(&doc) {
            prop_assert_eq!(InterfaceSpec::parse(&spec.to_xml()), Ok(spec));
        }
        if let Ok(DeploymentFile::Wrapped(odfs)) = DeploymentFile::parse(&doc) {
            for odf in odfs.into_iter().flatten() {
                prop_assert_eq!(OdfDocument::parse(&odf.to_xml()), Ok(odf));
            }
        }
    }
}

fn odf_outcome(r: &Result<OdfDocument, OdfError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(OdfError::Xml(_)) => "xml".into(),
        Err(OdfError::Missing(what)) => format!("missing {what}"),
        Err(OdfError::Invalid { what, .. }) => format!("invalid {what}"),
    }
}

fn wsdl_outcome(r: &Result<InterfaceSpec, WsdlError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(WsdlError::Xml(_)) => "xml".into(),
        Err(WsdlError::Missing(what)) => format!("missing {what}"),
        Err(WsdlError::Invalid { what, .. }) => format!("invalid {what}"),
        Err(WsdlError::DuplicateOperation(_)) => "duplicate operation".into(),
    }
}

/// The property above is only as strong as its mix: the generator must
/// reach accepted documents and every error the readers can return.
#[test]
fn shaped_documents_cover_accepts_and_every_error() {
    let mut rng = TestRng::from_seed(26);
    let mut odf = BTreeSet::new();
    let mut wsdl = BTreeSet::new();
    let mut deployment = BTreeSet::new();
    let mut accepted = [0; 2];
    let docs = 4000;
    for _ in 0..docs {
        let doc = Shaped.sample(&mut rng);
        let o = odf_outcome(&OdfDocument::parse(&doc));
        accepted[0] += usize::from(o == "ok");
        odf.insert(o);
        let w = wsdl_outcome(&InterfaceSpec::parse(&doc));
        accepted[1] += usize::from(w == "ok");
        wsdl.insert(w);
        deployment.insert(match DeploymentFile::parse(&doc) {
            Err(_) => "xml".to_owned(),
            Ok(DeploymentFile::Single(r)) => format!("single {}", odf_outcome(&r)),
            Ok(DeploymentFile::Wrapped(rs)) => format!(
                "wrapped {}",
                rs.iter().map(odf_outcome).collect::<BTreeSet<_>>().len()
            ),
        });
    }
    // Three in five documents are ODFs, one in five wraps ODFs and one in
    // five is an interface; half of all documents are mutated.
    assert!(
        accepted[0] > docs / 20,
        "only {} ODFs accepted",
        accepted[0]
    );
    assert!(
        accepted[1] > docs / 40,
        "only {} WSDLs accepted",
        accepted[1]
    );
    for expected in [
        "ok",
        "xml",
        "invalid root element",
        "missing package",
        "missing package/bindname",
        "missing package/GUID",
        "invalid package/GUID",
        "invalid package/footprint",
        "missing import/bindname",
        "missing import/GUID",
        "invalid import/GUID",
        "invalid reference/type",
        "invalid reference/pri",
        "missing device-class/id",
        "invalid device-class/id",
        "missing device-class/name",
        "missing traffic/rate",
        "invalid traffic/rate",
        "invalid traffic/burst",
        "invalid traffic/bytes",
    ] {
        assert!(odf.contains(expected), "no ODF {expected:?} in {odf:?}");
    }
    for expected in [
        "ok",
        "xml",
        "invalid root element",
        "missing interface/name",
        "missing interface/guid",
        "invalid interface/guid",
        "missing operation/name",
        "duplicate operation",
        "missing input/name",
        "missing input/type",
        "invalid input/type",
        "missing output/type",
        "invalid output/type",
        "invalid operation child",
    ] {
        assert!(wsdl.contains(expected), "no WSDL {expected:?} in {wsdl:?}");
    }
    // Wrappers with no `<offcode>`, one outcome, and a mix of outcomes.
    for expected in ["xml", "single ok", "wrapped 0", "wrapped 1", "wrapped 2"] {
        assert!(
            deployment.contains(expected),
            "no deployment {expected:?} in {deployment:?}"
        );
    }
}

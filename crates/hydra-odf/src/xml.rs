//! A minimal XML reader and writer.
//!
//! Offcode Description Files are XML (paper §3.3). The reproduction ships
//! its own small reader rather than an external dependency: elements,
//! attributes (quoted *or* unquoted — the paper's own ODF sample writes
//! `type=Pull pri=0`), text, comments, processing instructions, and the
//! five predefined entities.
//!
//! The reader, [`read`], is the crate's one public XML entry: a strict
//! well-formedness reader with positioned errors that walks the input's
//! bytes once and reports what it finds to a [`Sink`] as events — a
//! start tag with its attributes, a run of character data, a decoded
//! entity or character reference, and an end tag. Names, text runs and
//! attribute values are borrowed from the input (a value is copied only
//! when it holds a reference); whitespace and name bytes are classified
//! without decoding a character, and a line/column is computed only when
//! an error is raised. Elements may nest at most [`MAX_DEPTH`] deep; the
//! names of open elements are kept on a heap stack, so no input can
//! exhaust the call stack.
//!
//! Its sinks are the typed readers behind
//! [`OdfDocument::parse`](crate::odf::OdfDocument::parse),
//! [`InterfaceSpec::parse`](crate::wsdl::InterfaceSpec::parse) and
//! [`DeploymentFile::parse`](crate::odf::DeploymentFile::parse), which
//! keep only the fields they read; no element tree is built.
//!
//! The writer behind [`OdfDocument::to_xml`](crate::odf::OdfDocument::to_xml)
//! and [`InterfaceSpec::to_xml`](crate::wsdl::InterfaceSpec::to_xml) is
//! crate-private: it writes tags and escaped text straight into a
//! `String`, one tag per line, two spaces of indentation per open element.

use std::borrow::Cow;
use std::fmt;

/// A position in the source text, for error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parse error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Where the problem was found.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for XmlError {}

/// The deepest element nesting [`read`] accepts; the root element is at
/// depth 1. An ODF nests at most 4 deep, 5 inside a `<deployment>`
/// wrapper. The bound turns hostile nesting into a positioned error,
/// which `repro lint` and `repro certify` report as `HV009`. No
/// production code builds a tree; the bound keeps the tests' DOM and the
/// recursive reference parser it is compared with shallow enough for
/// recursive descent, drop, comparison and serialization.
pub const MAX_DEPTH: usize = 128;

/// An attribute as [`read`] reports it: the name, and the entity-decoded
/// value, borrowed from the input unless it holds a reference.
pub type Attribute<'a> = (&'a str, Cow<'a, str>);

/// An attribute's value or an element's text as a typed reader keeps it
/// until its checks run: absent, or borrowed from the input while it is
/// one run.
pub(crate) type Raw<'a> = Option<Cow<'a, str>>;

/// A consumer of the events [`read`] reports, in document order.
pub trait Sink<'a> {
    /// A start tag, once it has been read through its `>` or `/>`. The
    /// sink may move values out of `attributes`.
    fn start(&mut self, name: &'a str, attributes: &mut [Attribute<'a>]);
    /// A run of character data holding no markup and no reference.
    fn text(&mut self, _run: &'a str) {}
    /// A decoded entity or character reference in character data.
    fn reference(&mut self, _c: char) {}
    /// The end of the innermost open element. An empty-element tag
    /// (`<a/>`) ends right after it starts.
    fn end(&mut self);
}

/// Reads a complete document, reporting it to `sink` as events.
///
/// Events stop at the first error, so a sink must not act on what it
/// has seen until `read` returns `Ok`.
///
/// # Errors
///
/// Returns a positioned [`XmlError`] on any well-formedness violation,
/// and on elements nested deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// use hydra_odf::xml::{self, Attribute, Sink};
///
/// #[derive(Default)]
/// struct Names(Vec<String>);
///
/// impl<'a> Sink<'a> for Names {
///     fn start(&mut self, name: &'a str, _attributes: &mut [Attribute<'a>]) {
///         self.0.push(name.to_owned());
///     }
///     fn end(&mut self) {}
/// }
///
/// let mut names = Names::default();
/// xml::read("<a x=1><b>hi</b><c/></a>", &mut names).unwrap();
/// assert_eq!(names.0, ["a", "b", "c"]);
/// assert!(xml::read("<a><b></a>", &mut Names::default()).is_err());
/// ```
pub fn read<'a>(input: &'a str, sink: &mut impl Sink<'a>) -> Result<(), XmlError> {
    let mut r = Reader {
        src: input,
        pos: 0,
        attributes: Vec::new(),
    };
    r.skip_prolog()?;
    r.read_root(sink)?;
    r.skip_misc()?;
    if !r.at_end() {
        return Err(r.error("content after document root"));
    }
    Ok(())
}

/// Appends a text run to `text`, which stays borrowed from the input
/// while it holds a single run.
pub(crate) fn append<'a>(text: &mut Cow<'a, str>, run: &'a str) {
    if text.is_empty() {
        *text = Cow::Borrowed(run);
    } else {
        text.to_mut().push_str(run);
    }
}

/// Moves the value of attribute `name` out of `attributes`, if present.
pub(crate) fn take_attr<'a>(attributes: &mut [Attribute<'a>], name: &str) -> Raw<'a> {
    attributes
        .iter_mut()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| std::mem::take(v))
}

/// A cursor over the document's bytes. `pos` always sits on a character
/// boundary: the reader only steps over whole characters, and the bytes
/// it scans for (`<`, `&`, `>`, quotes, `-->`, `?>`) are ASCII, which
/// never occurs inside a multi-byte UTF-8 sequence.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// The attributes of the start tag being read, reused across tags.
    attributes: Vec<Attribute<'a>>,
}

/// Whether the ASCII byte `b` is whitespace: exactly the ASCII characters
/// `char::is_whitespace` accepts (`u8::is_ascii_whitespace` leaves out
/// `\x0B`).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// Whether the ASCII byte `b` may appear in a name: `[A-Za-z_:]` anywhere,
/// and `[0-9.-]` after the first character, as the `char` rules give on
/// ASCII.
fn is_ascii_name_byte(b: u8, first: bool) -> bool {
    b.is_ascii_alphabetic()
        || b == b'_'
        || b == b':'
        || (!first && (b.is_ascii_digit() || b == b'-' || b == b'.'))
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

impl<'a> Reader<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    /// An error at the cursor, whose line and column (in characters)
    /// are counted only now.
    fn error(&self, message: &str) -> XmlError {
        let before = &self.src[..self.pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let pos = Pos {
            line: 1 + before.bytes().filter(|&b| b == b'\n').count() as u32,
            col: 1 + before[line_start..].chars().count() as u32,
        };
        XmlError {
            pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<char> {
        match *self.rest().first()? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.src[self.pos..].chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        let ate = self.starts_with(s);
        if ate {
            self.pos += s.len();
        }
        ate
    }

    /// Moves past the next occurrence of `end`, or to the end of input
    /// (returning `false`) when there is none.
    fn skip_past(&mut self, end: &str) -> bool {
        match self.src[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                true
            }
            None => {
                self.pos = self.src.len();
                false
            }
        }
    }

    /// Skips whitespace, deciding on an ASCII byte without decoding it.
    fn skip_ws(&mut self) {
        while let Some(&b) = self.rest().first() {
            if b.is_ascii() {
                if !is_ascii_space(b) {
                    return;
                }
                self.pos += 1;
            } else {
                match self.peek() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                }
            }
        }
    }

    fn skip_comment(&mut self) -> Result<bool, XmlError> {
        if !self.eat("<!--") {
            return Ok(false);
        }
        if self.skip_past("-->") {
            Ok(true)
        } else {
            Err(self.error("unterminated comment"))
        }
    }

    fn skip_pi(&mut self) -> Result<bool, XmlError> {
        if !self.eat("<?") {
            return Ok(false);
        }
        if self.skip_past("?>") {
            Ok(true)
        } else {
            Err(self.error("unterminated processing instruction"))
        }
    }

    fn skip_doctype(&mut self) -> Result<bool, XmlError> {
        if !self.starts_with("<!DOCTYPE") {
            return Ok(false);
        }
        if self.skip_past(">") {
            Ok(true)
        } else {
            Err(self.error("unterminated DOCTYPE"))
        }
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

    /// Skips whitespace, comments and processing instructions after the
    /// root. An unterminated comment or PI is an error, as in the prolog.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.skip_comment()? || self.skip_pi()? {
                continue;
            }
            return Ok(());
        }
    }

    /// Reads a name, deciding on an ASCII byte without decoding it. A
    /// non-ASCII character belongs to a name when it is alphabetic.
    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(&b) = self.rest().first() {
            if b.is_ascii() {
                if !is_ascii_name_byte(b, self.pos == start) {
                    break;
                }
                self.pos += 1;
            } else {
                match self.peek() {
                    Some(c) if c.is_alphabetic() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(&self.src[start..self.pos])
    }

    /// Decodes the entity or character reference after a consumed `&`.
    fn parse_entity(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        loop {
            let len = self.pos - start;
            match self.bump() {
                Some(';') => break,
                Some(_) if len < 10 => {}
                _ => return Err(self.error("unterminated entity reference")),
            }
        }
        match &self.src[start..self.pos - 1] {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "quot" => Ok('"'),
            "apos" => Ok('\''),
            other => {
                let code = if let Some(hex) = other.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = other.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    return Err(self.error(&format!("unknown entity &{other};")));
                };
                code.and_then(char::from_u32)
                    .ok_or_else(|| self.error("invalid character reference"))
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        match self.peek() {
            Some(quote @ ('"' | '\'')) => {
                self.pos += 1;
                let quote = quote as u8;
                let mut value = Cow::Borrowed("");
                loop {
                    let run = self
                        .rest()
                        .iter()
                        .position(|&b| b == quote || b == b'&' || b == b'<');
                    let Some(run) = run else {
                        self.pos = self.src.len();
                        return Err(self.error("unterminated attribute value"));
                    };
                    append(&mut value, &self.src[self.pos..self.pos + run]);
                    self.pos += run + 1;
                    match self.src.as_bytes()[self.pos - 1] {
                        b'&' => value.to_mut().push(self.parse_entity()?),
                        b'<' => return Err(self.error("'<' in attribute value")),
                        _ => return Ok(value),
                    }
                }
            }
            // Unquoted value (non-standard but used by the paper's ODF).
            Some(c) if !c.is_whitespace() && c != '>' && c != '/' => {
                let start = self.pos;
                while let Some(c) = self
                    .peek()
                    .filter(|&c| !c.is_whitespace() && c != '>' && c != '/')
                {
                    self.pos += c.len_utf8();
                }
                Ok(Cow::Borrowed(&self.src[start..self.pos]))
            }
            _ => Err(self.error("expected attribute value")),
        }
    }

    /// Reads a start tag from its `<` through `>` or `/>` and reports it,
    /// followed by its end for `/>`. Returns the name and whether the
    /// element is still open (`>`).
    fn read_start_tag(&mut self, sink: &mut impl Sink<'a>) -> Result<(&'a str, bool), XmlError> {
        if !self.eat("<") {
            return Err(self.error("expected '<'"));
        }
        let name = self.parse_name()?;
        self.attributes.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.pos += 1;
                    if !self.eat(">") {
                        return Err(self.error("expected '>' after '/'"));
                    }
                    sink.start(name, &mut self.attributes);
                    sink.end();
                    return Ok((name, false));
                }
                Some('>') => {
                    self.pos += 1;
                    sink.start(name, &mut self.attributes);
                    return Ok((name, true));
                }
                Some(c) if is_name_start(c) => {
                    let key = self.parse_name()?;
                    if self.attributes.iter().any(|&(k, _)| k == key) {
                        return Err(self.error(&format!("duplicate attribute '{key}'")));
                    }
                    self.skip_ws();
                    if !self.eat("=") {
                        return Err(self.error("expected '=' after attribute name"));
                    }
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    self.attributes.push((key, value));
                }
                _ => return Err(self.error("malformed start tag")),
            }
        }
    }

    /// Reads the root element and everything inside it. Only the names
    /// of open elements are kept, on a heap stack, so nesting costs heap,
    /// not call depth.
    fn read_root(&mut self, sink: &mut impl Sink<'a>) -> Result<(), XmlError> {
        let (mut current, open) = self.read_start_tag(sink)?;
        if !open {
            return Ok(());
        }
        let mut ancestors: Vec<&'a str> = Vec::new();
        loop {
            let Some(&next) = self.rest().first() else {
                return Err(self.error(&format!("unclosed element <{current}>")));
            };
            match next {
                b'&' => {
                    self.pos += 1;
                    let c = self.parse_entity()?;
                    sink.reference(c);
                }
                b'<' if self.starts_with("</") => {
                    self.pos += 2;
                    let close = self.parse_name()?;
                    if close != current {
                        return Err(
                            self.error(&format!("mismatched close tag </{close}> for <{current}>"))
                        );
                    }
                    self.skip_ws();
                    if !self.eat(">") {
                        return Err(self.error("expected '>' in close tag"));
                    }
                    sink.end();
                    match ancestors.pop() {
                        Some(parent) => current = parent,
                        None => return Ok(()),
                    }
                }
                b'<' if self.starts_with("<!--") => {
                    self.skip_comment()?;
                }
                b'<' if self.starts_with("<?") => {
                    self.skip_pi()?;
                }
                b'<' => {
                    // The child sits one below `current`, at depth
                    // `ancestors.len() + 2`.
                    if ancestors.len() + 2 > MAX_DEPTH {
                        return Err(self.error(&format!("elements nested deeper than {MAX_DEPTH}")));
                    }
                    let (child, open) = self.read_start_tag(sink)?;
                    if open {
                        ancestors.push(std::mem::replace(&mut current, child));
                    }
                }
                _ => {
                    let run = self
                        .rest()
                        .iter()
                        .position(|&b| b == b'<' || b == b'&')
                        .unwrap_or(self.src.len() - self.pos);
                    sink.text(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }
}

/// XML text written directly, one tag per line: each open element
/// indents what it holds by two spaces, and attribute values and text
/// are escaped. The writer behind `OdfDocument::to_xml` and
/// `InterfaceSpec::to_xml`.
#[derive(Default)]
pub(crate) struct Writer {
    out: String,
    /// Elements opened and not yet closed.
    depth: usize,
}

impl Writer {
    /// `<name …>` on its own line. What follows, up to the matching
    /// [`close`](Self::close), is indented one level deeper.
    pub(crate) fn open(&mut self, name: &str, attributes: &[(&str, &str)]) {
        self.start_tag(name, attributes);
        self.out.push_str(">\n");
        self.depth += 1;
    }

    /// `</name>`, closing the innermost open element.
    pub(crate) fn close(&mut self, name: &str) {
        self.depth -= 1;
        self.indent();
        self.end_tag(name);
    }

    /// An element with no content: `<name …/>`.
    pub(crate) fn empty(&mut self, name: &str, attributes: &[(&str, &str)]) {
        self.start_tag(name, attributes);
        self.out.push_str("/>\n");
    }

    /// An element holding only `text`, trimmed: `<name>text</name>`, and
    /// `<name></name>` when nothing is left.
    pub(crate) fn leaf(&mut self, name: &str, text: &str) {
        self.start_tag(name, &[]);
        self.out.push('>');
        escape(&mut self.out, text.trim());
        self.end_tag(name);
    }

    /// The text written.
    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn start_tag(&mut self, name: &str, attributes: &[(&str, &str)]) {
        self.indent();
        self.out.push('<');
        self.out.push_str(name);
        for (key, value) in attributes {
            self.out.push(' ');
            self.out.push_str(key);
            self.out.push_str("=\"");
            escape(&mut self.out, value);
            self.out.push('"');
        }
    }

    fn end_tag(&mut self, name: &str) {
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push_str(">\n");
    }
}

/// Appends `text` to `out` with the five predefined entities escaped.
fn escape(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events [`read`] reports, written out: a start tag with its
    /// attributes, text runs and references as decoded, and `</>` for
    /// an end.
    #[derive(Default)]
    struct Log(String);

    impl<'a> Sink<'a> for Log {
        fn start(&mut self, name: &'a str, attributes: &mut [Attribute<'a>]) {
            self.0.push('<');
            self.0.push_str(name);
            for (k, v) in attributes.iter() {
                self.0.push_str(&format!(" {k}=[{v}]"));
            }
            self.0.push('>');
        }

        fn text(&mut self, run: &'a str) {
            self.0.push_str(run);
        }

        fn reference(&mut self, c: char) {
            self.0.push(c);
        }

        fn end(&mut self) {
            self.0.push_str("</>");
        }
    }

    fn events(doc: &str) -> Result<String, XmlError> {
        let mut log = Log::default();
        read(doc, &mut log)?;
        Ok(log.0)
    }

    #[test]
    fn parses_nested_elements() {
        assert_eq!(
            events("<a><b><c/></b><b/></a>").unwrap(),
            "<a><b><c></></><b></></>"
        );
    }

    #[test]
    fn parses_attributes_quoted_and_unquoted() {
        assert_eq!(
            events(r#"<dev id=0x0001 name="Network Device" kind='nic'/>"#).unwrap(),
            "<dev id=[0x0001] name=[Network Device] kind=[nic]></>"
        );
    }

    #[test]
    fn parses_text_and_entities() {
        assert_eq!(
            events("<p>a &lt;b&gt; &amp; c &#65; &#x42;</p>").unwrap(),
            "<p>a <b> & c A B</>"
        );
    }

    #[test]
    fn skips_prolog_comments_doctype() {
        let doc = r#"<?xml version="1.0"?>
<!DOCTYPE odf>
<!-- header comment -->
<root><!-- inner --><child/></root>
<!-- trailing -->"#;
        assert_eq!(events(doc).unwrap(), "<root><child></></>");
    }

    #[test]
    fn mixed_content_preserved() {
        assert_eq!(
            events("<p>pre<b>mid</b>post</p>").unwrap(),
            "<p>pre<b>mid</>post</>"
        );
    }

    #[test]
    fn error_on_mismatched_tags() {
        let err = events("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn error_on_unclosed() {
        let err = events("<a><b>").unwrap_err();
        assert!(err.message.contains("unclosed"), "{err}");
    }

    #[test]
    fn error_on_duplicate_attribute() {
        let err = events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn error_on_trailing_content() {
        let err = events("<a/><b/>").unwrap_err();
        assert!(err.message.contains("after document root"), "{err}");
    }

    #[test]
    fn error_on_unterminated_trailing_comment() {
        let err = events("<a/>\n<!-- never closed").unwrap_err();
        assert_eq!(err.message, "unterminated comment");
        assert_eq!(err.pos, Pos { line: 2, col: 18 }, "{err}");
        // The same error, at the same place, as in the prolog.
        let prolog = events("\n<!-- never closed").unwrap_err();
        assert_eq!(prolog, err);
    }

    #[test]
    fn error_on_unterminated_trailing_pi() {
        let err = events("<a/><!-- closed --> <?pi never closed").unwrap_err();
        assert_eq!(err.message, "unterminated processing instruction");
        assert_eq!(err.pos, Pos { line: 1, col: 38 }, "{err}");
        let prolog = events("<!-- closed --> <?pi never closed").unwrap_err();
        assert_eq!(prolog.message, err.message);
        assert_eq!(prolog.pos.col, 34);
    }

    #[test]
    fn error_positions_are_useful() {
        let err = events("<a>\n  <b x=></b>\n</a>").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = events("<a>&nope;</a>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    /// The writer's text reads back as the same events as the document
    /// it writes out by hand.
    #[test]
    fn serialization_round_trips() {
        let doc = r#"<odf version="2">
  <package guid="123">
    <bindname>hydra.net.Socket</bindname>
  </package>
  <import type="Pull" pri="0"/>
  <note>a &lt;tricky&gt; &amp; "quoted" value</note>
</odf>"#;
        let mut w = Writer::default();
        w.open("odf", &[("version", "2")]);
        w.open("package", &[("guid", "123")]);
        w.leaf("bindname", "hydra.net.Socket");
        w.close("package");
        w.empty("import", &[("type", "Pull"), ("pri", "0")]);
        w.leaf("note", r#"a <tricky> & "quoted" value"#);
        w.close("odf");
        let written = w.finish();
        assert_eq!(
            written,
            doc.replace(r#""quoted""#, "&quot;quoted&quot;") + "\n"
        );
        assert_eq!(events(&written), events(doc));
    }

    #[test]
    fn whitespace_only_text_is_kept_as_node_but_trimmed_by_text() {
        assert_eq!(events("<a>\n  \n</a>").unwrap(), "<a>\n  \n</>");
        let mut w = Writer::default();
        w.leaf("a", "\n  \n");
        assert_eq!(w.finish(), "<a></a>\n");
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
        let log = events(doc).unwrap();
        assert!(log.starts_with("<offcode>"), "{log}");
        for part in [
            "<reference type=[Pull] pri=[0]></>",
            "<device-class id=[0x0001]>",
            "<name>Network Device</>",
        ] {
            assert!(log.contains(part), "no {part} in {log}");
        }
    }
}

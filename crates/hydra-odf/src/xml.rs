//! A minimal XML parser.
//!
//! Offcode Description Files are XML (paper §3.3). The reproduction ships
//! its own small parser rather than an external dependency: elements,
//! attributes (quoted *or* unquoted — the paper's own ODF sample writes
//! `type=Pull pri=0`), text, comments, processing instructions, and the
//! five predefined entities.
//!
//! There is one parser, the crate-internal `read`: a strict
//! well-formedness reader with positioned errors that walks the input's
//! bytes once and reports what it finds to a `Sink` as events — a start
//! tag with its attributes, a run of character data, a decoded entity or
//! character reference, and an end tag. Names, text runs and attribute
//! values are borrowed from the input (a value is copied only when it
//! holds a reference); whitespace and name bytes are classified without
//! decoding a character, and a line/column is computed only when an
//! error is raised. Elements may nest at most [`MAX_DEPTH`] deep; the
//! names of open elements are kept on a heap stack, so no input can
//! exhaust the call stack.
//!
//! Its consumers are [`parse`], which builds an [`Element`] tree, and the
//! typed readers behind [`OdfDocument::parse`](crate::odf::OdfDocument::parse),
//! [`InterfaceSpec::parse`](crate::wsdl::InterfaceSpec::parse) and
//! [`DeploymentFile::parse`](crate::odf::DeploymentFile::parse), which keep
//! only the fields they read and never build the tree.

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

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

/// A node in the document tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (entity-decoded, whitespace preserved).
    Text(String),
}

impl Element {
    /// The value of attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find_map(|n| match n {
            Node::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter_map(move |n| match n {
            Node::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements regardless of name.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// The concatenated text content of this element (direct children
    /// only), trimmed.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                s.push_str(t);
            }
        }
        s.trim().to_owned()
    }

    /// Serializes the element back to XML (entity-escaping text and
    /// attribute values, always quoting).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
            return;
        }
        let only_text = self.children.iter().all(|c| matches!(c, Node::Text(_)));
        out.push('>');
        if only_text {
            out.push_str(&escape(&self.text()));
        } else {
            out.push('\n');
            for c in &self.children {
                match c {
                    Node::Element(e) => e.write(out, depth + 1),
                    Node::Text(t) => {
                        let t = t.trim();
                        if !t.is_empty() {
                            out.push_str(&"  ".repeat(depth + 1));
                            out.push_str(&escape(t));
                            out.push('\n');
                        }
                    }
                }
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// The deepest element nesting [`parse`] accepts; the root element is at
/// depth 1. An ODF nests at most 4 deep, 5 inside a `<deployment>`
/// wrapper. The bound keeps a hostile document from building a tree
/// whose recursive drop, comparison or serialization would overflow the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete document, returning the root element.
///
/// # Errors
///
/// Returns a positioned [`XmlError`] on any well-formedness violation,
/// and on elements nested deeper than [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// let root = hydra_odf::xml::parse("<a x=1><b>hi</b></a>").unwrap();
/// assert_eq!(root.name, "a");
/// assert_eq!(root.attr("x"), Some("1"));
/// assert_eq!(root.child("b").unwrap().text(), "hi");
/// ```
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut tree = Tree::default();
    read(input, &mut tree)?;
    Ok(tree
        .root
        .expect("a document that reads without error has ended its root"))
}

/// An attribute as [`read`] reports it: the name, and the entity-decoded
/// value, borrowed from the input unless it holds a reference.
pub(crate) type Attribute<'a> = (&'a str, Cow<'a, str>);

/// An attribute's value or an element's text as a typed reader keeps it
/// until its checks run: absent, or borrowed from the input while it is
/// one run.
pub(crate) type Raw<'a> = Option<Cow<'a, str>>;

/// A consumer of the events [`read`] reports, in document order.
pub(crate) trait Sink<'a> {
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
/// The same as [`parse`].
pub(crate) fn read<'a>(input: &'a str, sink: &mut impl Sink<'a>) -> Result<(), XmlError> {
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

/// The DOM sink behind [`parse`].
#[derive(Default)]
struct Tree {
    /// Elements whose start tag has been read, innermost last.
    open: Vec<Open>,
    /// The root, once it has ended.
    root: Option<Element>,
}

/// An element whose start tag has been read.
struct Open {
    element: Element,
    /// Character data since the last child element, not yet a node.
    text: String,
}

impl Open {
    fn flush_text(&mut self) {
        if !self.text.is_empty() {
            let text = std::mem::take(&mut self.text);
            self.element.children.push(Node::Text(text));
        }
    }
}

impl<'a> Sink<'a> for Tree {
    fn start(&mut self, name: &'a str, attributes: &mut [Attribute<'a>]) {
        if let Some(parent) = self.open.last_mut() {
            parent.flush_text();
        }
        let attributes = attributes
            .iter_mut()
            .map(|(k, v)| ((*k).to_owned(), std::mem::take(v).into_owned()))
            .collect();
        self.open.push(Open {
            element: Element {
                name: name.to_owned(),
                attributes,
                children: Vec::new(),
            },
            text: String::new(),
        });
    }

    fn text(&mut self, run: &'a str) {
        if let Some(open) = self.open.last_mut() {
            open.text.push_str(run);
        }
    }

    fn reference(&mut self, c: char) {
        if let Some(open) = self.open.last_mut() {
            open.text.push(c);
        }
    }

    fn end(&mut self) {
        let Some(mut done) = self.open.pop() else {
            return;
        };
        done.flush_text();
        match self.open.last_mut() {
            Some(parent) => parent.element.children.push(Node::Element(done.element)),
            None => self.root = Some(done.element),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}

//! The DOM: an `Element` tree built by a sink over `xml::read`, its
//! query methods and its serializer.
//!
//! The crate's readers and writer never build a tree; this one is kept
//! for the oracles only. `Element`, `Node`, their methods and the tree
//! serializer are the crate's own, moved here as they were; [`parse`] is
//! the `Tree` sink that `xml::parse` used to be.

use hydra_odf::xml::{self, Attribute, Sink, XmlError};

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

/// Parses a complete document, returning the root element.
///
/// # Errors
///
/// Returns the positioned [`XmlError`] of `xml::read`.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut tree = Tree::default();
    xml::read(input, &mut tree)?;
    Ok(tree
        .root
        .expect("a document that reads without error has ended its root"))
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

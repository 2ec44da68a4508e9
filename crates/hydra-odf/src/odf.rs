//! The Offcode Description File model.
//!
//! An ODF (paper §3.3) has three parts: the *package* (bind name, GUID,
//! supported interfaces), the *dependencies* on peer Offcodes with their
//! placement constraints, and the *device classes* the Offcode can target.
//! This module models, validates, parses and serializes ODFs; the layout
//! machinery in `hydra-core` consumes them to build the offloading layout
//! graph.

use std::borrow::Cow;
use std::fmt;

use crate::xml::{self, take_attr, Attribute, Raw, Sink, XmlError};

/// A globally unique identifier for Offcodes and interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guid(pub u64);

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guid:{}", self.0)
    }
}

/// Placement constraints between two Offcodes (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// No placement constraint; merely a functional dependency.
    Link,
    /// Both Offcodes must land on the *same* device.
    Pull,
    /// If one is offloaded, the other must be offloaded too (possibly to a
    /// different device), and vice versa.
    Gang,
    /// Offloading *this* Offcode requires offloading the referenced one,
    /// but not the reverse.
    AsymGang,
}

impl ConstraintKind {
    /// The ODF attribute spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ConstraintKind::Link => "Link",
            ConstraintKind::Pull => "Pull",
            ConstraintKind::Gang => "Gang",
            ConstraintKind::AsymGang => "AsymGang",
        }
    }

    /// Parses the ODF attribute spelling.
    pub fn from_str_opt(s: &str) -> Option<ConstraintKind> {
        match s {
            "Link" => Some(ConstraintKind::Link),
            "Pull" => Some(ConstraintKind::Pull),
            "Gang" => Some(ConstraintKind::Gang),
            "AsymGang" => Some(ConstraintKind::AsymGang),
            _ => None,
        }
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A class of target devices the Offcode can run on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceClassSpec {
    /// Numeric class id (e.g. `0x0001` = network device).
    pub id: u32,
    /// Human-readable class name.
    pub name: String,
    /// Required bus attachment, if any.
    pub bus: Option<String>,
    /// Required MAC layer, if any (for network devices).
    pub mac: Option<String>,
    /// Required vendor, if any.
    pub vendor: Option<String>,
}

impl DeviceClassSpec {
    /// The host-CPU pseudo class: every ODF may fall back to the host.
    pub fn host_cpu() -> Self {
        DeviceClassSpec {
            id: 0,
            name: "Host CPU".into(),
            bus: None,
            mac: None,
            vendor: None,
        }
    }

    /// A class known only by its id, named `class-{id}`, with no bus,
    /// MAC or vendor requirement.
    pub fn numbered(id: u32) -> Self {
        DeviceClassSpec {
            id,
            name: format!("class-{id}"),
            bus: None,
            mac: None,
            vendor: None,
        }
    }
}

/// A declared arrival curve for an Offcode's outbound calls: a
/// token-bucket `(rate, burst)` plus the worst-case payload size.
///
/// The static certification pass in `hydra-verify` propagates these
/// curves through the channel/provider cost tables to bound queue
/// depths, end-to-end latencies, and device utilization before anything
/// is deployed. The element is optional; undeclared Offcodes get a
/// conservative default and an informational `HV044` diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficSpec {
    /// Sustained call rate toward each imported peer, in messages/sec.
    pub rate_per_sec: u64,
    /// Maximum back-to-back burst, in messages (at least 1).
    pub burst: u64,
    /// Worst-case payload size per message, in bytes.
    pub max_bytes: u64,
}

/// A dependency on a peer Offcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Path of the peer's ODF/object file.
    pub file: String,
    /// Peer's bind name.
    pub bind_name: String,
    /// Peer's GUID.
    pub guid: Guid,
    /// Placement constraint toward the peer.
    pub constraint: ConstraintKind,
    /// Priority (lower is more important when constraints conflict).
    pub priority: u8,
}

/// A parsed, validated Offcode Description File.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OdfDocument {
    /// Bind name under which the Offcode registers at the target.
    pub bind_name: String,
    /// The Offcode's GUID.
    pub guid: Guid,
    /// WSDL interface files included by the package section.
    pub interfaces: Vec<String>,
    /// Peer dependencies.
    pub imports: Vec<Import>,
    /// Candidate device classes, in preference order.
    pub targets: Vec<DeviceClassSpec>,
    /// Declared worst-case memory footprint in bytes, if the package
    /// states one (`<footprint>` in the package section). Consumed by the
    /// static capacity pre-check; absent means "unknown".
    pub footprint: Option<u64>,
    /// Declared arrival curve for outbound calls (`<traffic rate=..
    /// burst=.. bytes=../>`), if any. Consumed by the static
    /// certification pass; absent means "use conservative defaults".
    pub traffic: Option<TrafficSpec>,
}

/// Errors raised while interpreting an ODF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OdfError {
    /// The XML itself is malformed.
    Xml(XmlError),
    /// A required element is missing.
    Missing(&'static str),
    /// An element or attribute has an invalid value.
    Invalid {
        /// What was being parsed.
        what: &'static str,
        /// The offending value.
        value: String,
    },
}

impl From<XmlError> for OdfError {
    fn from(e: XmlError) -> Self {
        OdfError::Xml(e)
    }
}

impl fmt::Display for OdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdfError::Xml(e) => write!(f, "{e}"),
            OdfError::Missing(what) => write!(f, "odf: missing {what}"),
            OdfError::Invalid { what, value } => {
                write!(f, "odf: invalid {what}: '{value}'")
            }
        }
    }
}

impl std::error::Error for OdfError {}

/// A numeric field as it is checked: trimmed, then stripped of
/// surrounding quotes.
fn normalized(raw: &str) -> &str {
    raw.trim().trim_matches('"')
}

fn invalid(what: &'static str, raw: &str) -> OdfError {
    OdfError::Invalid {
        what,
        value: normalized(raw).to_owned(),
    }
}

/// A decimal or `0x`/`0X` hex `u64`, after trimming whitespace and
/// quotes; shared by the ODF and WSDL readers.
pub(crate) fn parse_u64(what: &'static str, raw: &str) -> Result<u64, OdfError> {
    let text = normalized(raw);
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| invalid(what, raw))
}

/// [`parse_u64`] into a narrower type: a value out of its range is
/// invalid, not truncated.
fn parse_narrow<T: TryFrom<u64>>(what: &'static str, raw: &str) -> Result<T, OdfError> {
    T::try_from(parse_u64(what, raw)?).map_err(|_| invalid(what, raw))
}

impl OdfDocument {
    /// Creates a minimal ODF with just a name and GUID (builder entry
    /// point; extend with [`OdfDocument::with_import`] /
    /// [`OdfDocument::with_target`]).
    pub fn new(bind_name: impl Into<String>, guid: Guid) -> Self {
        OdfDocument {
            bind_name: bind_name.into(),
            guid,
            interfaces: Vec::new(),
            imports: Vec::new(),
            targets: Vec::new(),
            footprint: None,
            traffic: None,
        }
    }

    /// Adds an interface include.
    pub fn with_interface(mut self, file: impl Into<String>) -> Self {
        self.interfaces.push(file.into());
        self
    }

    /// Adds a peer dependency.
    pub fn with_import(mut self, import: Import) -> Self {
        self.imports.push(import);
        self
    }

    /// Adds a candidate device class.
    pub fn with_target(mut self, target: DeviceClassSpec) -> Self {
        self.targets.push(target);
        self
    }

    /// Declares the worst-case memory footprint in bytes.
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint = Some(bytes);
        self
    }

    /// Declares the arrival curve for outbound calls. A zero burst is
    /// clamped to 1 (a message in flight is a burst of one).
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(TrafficSpec {
            burst: traffic.burst.max(1),
            ..traffic
        });
        self
    }

    /// Parses and validates an ODF from XML text.
    ///
    /// The fields are read straight off the XML reader's events; no
    /// element tree is built. Each single field is the first matching
    /// child of the first matching parent, and a field's text is its
    /// direct character data, trimmed. Every check runs once the whole
    /// document has been read, so malformed XML is always reported as
    /// such.
    ///
    /// # Errors
    ///
    /// Fails on malformed XML, a missing `package`/`bindname`/`GUID`, or
    /// invalid numeric fields, including a `reference` `pri` above 255
    /// or a `device-class` `id` above `u32::MAX`. The first failing check
    /// is reported, in this order: the root element, the package's
    /// `bindname`, `GUID` and `footprint`, each import and each device
    /// class in document order, then `traffic`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hydra_odf::odf::OdfDocument;
    ///
    /// let odf = OdfDocument::parse(r#"
    ///   <offcode>
    ///     <package>
    ///       <bindname>demo.Checksum</bindname>
    ///       <GUID>42</GUID>
    ///     </package>
    ///   </offcode>"#).unwrap();
    /// assert_eq!(odf.bind_name, "demo.Checksum");
    /// ```
    pub fn parse(xml: &str) -> Result<OdfDocument, OdfError> {
        let mut reader = OdfReader::default();
        xml::read(xml, &mut reader)?;
        reader.finish()
    }

    /// Serializes back to ODF XML, indented two spaces per level.
    ///
    /// [`OdfDocument::parse`] reads the output back as an equal document
    /// for every document it returns. A document built by hand reads
    /// back equal only if:
    /// - its bind name is not empty (an empty one reads back as
    ///   [`OdfError::Missing`]);
    /// - no bind name, include, file or device-class field starts or
    ///   ends with whitespace, and no include or file starts or ends
    ///   with `"` (the reader strips them);
    /// - its traffic burst is not 0 (the reader reads 0 as 1).
    pub fn to_xml(&self) -> String {
        let mut w = xml::Writer::default();
        w.open("offcode", &[]);
        w.open("package", &[]);
        w.leaf("bindname", &self.bind_name);
        w.leaf("GUID", &self.guid.0.to_string());
        if let Some(fp) = self.footprint {
            w.leaf("footprint", &fp.to_string());
        }
        if !self.interfaces.is_empty() {
            w.open("interface", &[]);
            for include in &self.interfaces {
                w.leaf("include", include);
            }
            w.close("interface");
        }
        w.close("package");
        if !self.imports.is_empty() {
            w.open("sw-env", &[]);
            for imp in &self.imports {
                w.open("import", &[]);
                if !imp.file.is_empty() {
                    w.leaf("file", &imp.file);
                }
                w.leaf("bindname", &imp.bind_name);
                w.empty(
                    "reference",
                    &[
                        ("type", imp.constraint.as_str()),
                        ("pri", &imp.priority.to_string()),
                    ],
                );
                w.leaf("GUID", &imp.guid.0.to_string());
                w.close("import");
            }
            w.close("sw-env");
        }
        if !self.targets.is_empty() {
            w.open("targets", &[]);
            for t in &self.targets {
                w.open("device-class", &[("id", &format!("0x{:04x}", t.id))]);
                w.leaf("name", &t.name);
                for (tag, value) in [("bus", &t.bus), ("mac", &t.mac), ("vendor", &t.vendor)] {
                    if let Some(value) = value {
                        w.leaf(tag, value);
                    }
                }
                w.close("device-class");
            }
            w.close("targets");
        }
        if let Some(t) = self.traffic {
            w.empty(
                "traffic",
                &[
                    ("rate", &t.rate_per_sec.to_string()),
                    ("burst", &t.burst.to_string()),
                    ("bytes", &t.max_bytes.to_string()),
                ],
            );
        }
        w.close("offcode");
        w.finish()
    }
}

/// A deployment file, as `repro lint` and `repro certify` take it: a
/// single ODF, or a `<deployment>` element wrapping several.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentFile {
    /// A `<deployment>` root: each direct `<offcode>` child, read on its
    /// own as by [`OdfDocument::parse`], in document order. Other
    /// children, and `<offcode>` elements nested deeper, are ignored.
    Wrapped(Vec<Result<OdfDocument, OdfError>>),
    /// Any other root, read as one ODF.
    Single(Result<OdfDocument, OdfError>),
}

impl DeploymentFile {
    /// Reads a deployment file. A malformed document fails as a whole;
    /// a well-formed one reports each ODF's own result.
    ///
    /// # Errors
    ///
    /// Returns the positioned [`XmlError`] of a malformed document.
    ///
    /// # Examples
    ///
    /// ```
    /// use hydra_odf::odf::DeploymentFile;
    ///
    /// let file = DeploymentFile::parse(
    ///     "<deployment><offcode/><note/>\
    ///      <offcode><package><bindname>b</bindname><GUID>2</GUID></package></offcode>\
    ///      </deployment>",
    /// )
    /// .unwrap();
    /// let DeploymentFile::Wrapped(odfs) = file else { panic!("a wrapper") };
    /// assert_eq!(odfs.len(), 2);
    /// assert!(odfs[0].is_err());
    /// assert_eq!(odfs[1].as_ref().unwrap().bind_name, "b");
    /// ```
    pub fn parse(xml: &str) -> Result<DeploymentFile, XmlError> {
        let mut reader = DeploymentReader::default();
        xml::read(xml, &mut reader)?;
        Ok(match reader.offcodes {
            Some(offcodes) => {
                DeploymentFile::Wrapped(offcodes.into_iter().map(OdfReader::finish).collect())
            }
            None => DeploymentFile::Single(reader.single.finish()),
        })
    }
}

/// The `<deployment>` sink: one [`OdfReader`] per direct `<offcode>`
/// child of a `<deployment>` root, or one for any other root.
#[derive(Default)]
struct DeploymentReader<'a> {
    /// Depth of the innermost open element; the root is at depth 1.
    depth: usize,
    /// `Some` once the root is known to be `<deployment>`.
    offcodes: Option<Vec<OdfReader<'a>>>,
    /// Whether the open element at depth 2 is an `<offcode>`.
    in_offcode: bool,
    /// The reader of a root other than `<deployment>`.
    single: OdfReader<'a>,
}

impl<'a> DeploymentReader<'a> {
    /// The reader the current event belongs to, if any.
    fn target(&mut self) -> Option<&mut OdfReader<'a>> {
        match &mut self.offcodes {
            None => Some(&mut self.single),
            Some(offcodes) if self.in_offcode => offcodes.last_mut(),
            Some(_) => None,
        }
    }
}

impl<'a> Sink<'a> for DeploymentReader<'a> {
    fn start(&mut self, name: &'a str, attributes: &mut [Attribute<'a>]) {
        self.depth += 1;
        if self.depth == 1 && name == "deployment" {
            self.offcodes = Some(Vec::new());
        } else if let (2, Some(offcodes)) = (self.depth, &mut self.offcodes) {
            self.in_offcode = name == "offcode";
            if self.in_offcode {
                offcodes.push(OdfReader::default());
            }
        }
        if let Some(odf) = self.target() {
            odf.start(name, attributes);
        }
    }

    fn text(&mut self, run: &'a str) {
        if let Some(odf) = self.target() {
            odf.text(run);
        }
    }

    fn reference(&mut self, c: char) {
        if let Some(odf) = self.target() {
            odf.reference(c);
        }
    }

    fn end(&mut self) {
        if let Some(odf) = self.target() {
            odf.end();
        }
        if self.depth == 2 {
            self.in_offcode = false;
        }
        self.depth -= 1;
    }
}

/// What an open element is to the [`OdfReader`].
#[derive(Clone, Copy)]
enum Role {
    /// Nothing in it is read.
    Skip,
    /// The `<offcode>` root.
    Root,
    /// The first `<package>`.
    Package,
    /// The package's first `<interface>`.
    Interface,
    /// The first `<sw-env>`.
    SwEnv,
    /// An `<import>` of the first `<sw-env>`.
    Import,
    /// The first `<targets>`.
    Targets,
    /// A `<device-class>` of the first `<targets>`.
    Class,
    /// An element whose direct character data is read into a field.
    Text(Slot),
}

/// A field that holds an element's text.
#[derive(Clone, Copy)]
enum Slot {
    BindName,
    Guid,
    Footprint,
    Include,
    File,
    ImportBindName,
    ImportGuid,
    ClassName,
    Bus,
    Mac,
    Vendor,
}

#[derive(Default)]
struct RawPackage<'a> {
    bind_name: Raw<'a>,
    guid: Raw<'a>,
    footprint: Raw<'a>,
    /// Whether the first `<interface>` has started.
    interface: bool,
    includes: Vec<Cow<'a, str>>,
}

#[derive(Default)]
struct RawImport<'a> {
    file: Raw<'a>,
    bind_name: Raw<'a>,
    guid: Raw<'a>,
    /// The first `<reference>`'s `type` and `pri`.
    reference: Option<(Raw<'a>, Raw<'a>)>,
}

#[derive(Default)]
struct RawClass<'a> {
    id: Raw<'a>,
    name: Raw<'a>,
    bus: Raw<'a>,
    mac: Raw<'a>,
    vendor: Raw<'a>,
}

/// The typed ODF sink behind [`OdfDocument::parse`]: it keeps only the
/// fields an [`OdfDocument`] is built from, and [`OdfReader::finish`]
/// checks them once the document has been read.
#[derive(Default)]
struct OdfReader<'a> {
    /// The root element's name.
    root: &'a str,
    package: Option<RawPackage<'a>>,
    /// The imports of the first `<sw-env>`, once it has started.
    imports: Option<Vec<RawImport<'a>>>,
    /// The device classes of the first `<targets>`, once it has started.
    classes: Option<Vec<RawClass<'a>>>,
    /// The first `<traffic>`'s `rate`, `burst` and `bytes`.
    traffic: Option<[Raw<'a>; 3]>,
    /// The role of each open element, innermost last.
    open: Vec<Role>,
    /// The text of the open [`Role::Text`] element so far.
    text: Cow<'a, str>,
}

impl<'a> OdfReader<'a> {
    /// The single-valued field `slot` fills, in the current package,
    /// import or device class.
    fn field(&mut self, slot: Slot) -> Option<&mut Raw<'a>> {
        let package = self.package.as_mut();
        let import = self.imports.as_mut().and_then(|i| i.last_mut());
        let class = self.classes.as_mut().and_then(|c| c.last_mut());
        Some(match slot {
            Slot::BindName => &mut package?.bind_name,
            Slot::Guid => &mut package?.guid,
            Slot::Footprint => &mut package?.footprint,
            Slot::Include => return None,
            Slot::File => &mut import?.file,
            Slot::ImportBindName => &mut import?.bind_name,
            Slot::ImportGuid => &mut import?.guid,
            Slot::ClassName => &mut class?.name,
            Slot::Bus => &mut class?.bus,
            Slot::Mac => &mut class?.mac,
            Slot::Vendor => &mut class?.vendor,
        })
    }

    /// The role of a text element for `slot`: read it only if it is the
    /// first of its name under its parent.
    fn text_role(&mut self, slot: Slot) -> Role {
        let first = match slot {
            Slot::Include => true,
            _ => self.field(slot).is_some_and(|f| f.is_none()),
        };
        if first {
            self.text = Cow::Borrowed("");
            Role::Text(slot)
        } else {
            Role::Skip
        }
    }

    /// The role of a child `name` of an element with role `parent`.
    fn role(&mut self, parent: Role, name: &str, attributes: &mut [Attribute<'a>]) -> Role {
        match (parent, name) {
            (Role::Root, "package") if self.package.is_none() => {
                self.package = Some(RawPackage::default());
                Role::Package
            }
            (Role::Root, "sw-env") if self.imports.is_none() => {
                self.imports = Some(Vec::new());
                Role::SwEnv
            }
            (Role::Root, "targets") if self.classes.is_none() => {
                self.classes = Some(Vec::new());
                Role::Targets
            }
            (Role::Root, "traffic") if self.traffic.is_none() => {
                self.traffic = Some(["rate", "burst", "bytes"].map(|k| take_attr(attributes, k)));
                Role::Skip
            }
            (Role::Package, "bindname") => self.text_role(Slot::BindName),
            (Role::Package, "GUID") => self.text_role(Slot::Guid),
            (Role::Package, "footprint") => self.text_role(Slot::Footprint),
            (Role::Package, "interface") => match &mut self.package {
                Some(p) if !p.interface => {
                    p.interface = true;
                    Role::Interface
                }
                _ => Role::Skip,
            },
            (Role::Interface, "include") => self.text_role(Slot::Include),
            (Role::SwEnv, "import") => match &mut self.imports {
                Some(imports) => {
                    imports.push(RawImport::default());
                    Role::Import
                }
                None => Role::Skip,
            },
            (Role::Import, "file") => self.text_role(Slot::File),
            (Role::Import, "bindname") => self.text_role(Slot::ImportBindName),
            (Role::Import, "GUID") => self.text_role(Slot::ImportGuid),
            (Role::Import, "reference") => {
                if let Some(import) = self.imports.as_mut().and_then(|i| i.last_mut()) {
                    if import.reference.is_none() {
                        import.reference =
                            Some((take_attr(attributes, "type"), take_attr(attributes, "pri")));
                    }
                }
                Role::Skip
            }
            (Role::Targets, "device-class") => match &mut self.classes {
                Some(classes) => {
                    classes.push(RawClass {
                        id: take_attr(attributes, "id"),
                        ..RawClass::default()
                    });
                    Role::Class
                }
                None => Role::Skip,
            },
            (Role::Class, "name") => self.text_role(Slot::ClassName),
            (Role::Class, "bus") => self.text_role(Slot::Bus),
            (Role::Class, "mac") => self.text_role(Slot::Mac),
            (Role::Class, "vendor") => self.text_role(Slot::Vendor),
            _ => Role::Skip,
        }
    }

    /// Checks the fields read and builds the document, in the order the
    /// checks of [`OdfDocument::parse`] are documented.
    fn finish(self) -> Result<OdfDocument, OdfError> {
        if self.root != "offcode" {
            return Err(OdfError::Invalid {
                what: "root element",
                value: self.root.to_owned(),
            });
        }
        let package = self.package.ok_or(OdfError::Missing("package"))?;
        let bind_name = package
            .bind_name
            .ok_or(OdfError::Missing("package/bindname"))?
            .trim()
            .to_owned();
        if bind_name.is_empty() {
            return Err(OdfError::Missing("package/bindname"));
        }
        let guid = Guid(parse_u64(
            "package/GUID",
            &package.guid.ok_or(OdfError::Missing("package/GUID"))?,
        )?);
        let interfaces = package.includes.iter().map(|i| unquoted(i)).collect();
        let footprint = match package.footprint {
            None => None,
            Some(fp) => Some(parse_u64("package/footprint", &fp)?),
        };
        let imports = (self.imports.unwrap_or_default().into_iter())
            .map(RawImport::finish)
            .collect::<Result<_, _>>()?;
        let targets = (self.classes.unwrap_or_default().into_iter())
            .map(RawClass::finish)
            .collect::<Result<_, _>>()?;
        let traffic = match self.traffic {
            None => None,
            Some([rate, burst, bytes]) => Some(TrafficSpec {
                rate_per_sec: parse_u64(
                    "traffic/rate",
                    &rate.ok_or(OdfError::Missing("traffic/rate"))?,
                )?,
                burst: match burst {
                    None => 1,
                    Some(b) => parse_u64("traffic/burst", &b)?.max(1),
                },
                max_bytes: match bytes {
                    None => 1024,
                    Some(b) => parse_u64("traffic/bytes", &b)?,
                },
            }),
        };
        Ok(OdfDocument {
            bind_name,
            guid,
            interfaces,
            imports,
            targets,
            footprint,
            traffic,
        })
    }
}

impl<'a> Sink<'a> for OdfReader<'a> {
    fn start(&mut self, name: &'a str, attributes: &mut [Attribute<'a>]) {
        let role = match self.open.last() {
            None => {
                self.root = name;
                if name == "offcode" {
                    Role::Root
                } else {
                    Role::Skip
                }
            }
            Some(Role::Skip | Role::Text(_)) => Role::Skip,
            Some(&parent) => self.role(parent, name, attributes),
        };
        self.open.push(role);
    }

    fn text(&mut self, run: &'a str) {
        if let Some(Role::Text(_)) = self.open.last() {
            xml::append(&mut self.text, run);
        }
    }

    fn reference(&mut self, c: char) {
        if let Some(Role::Text(_)) = self.open.last() {
            self.text.to_mut().push(c);
        }
    }

    fn end(&mut self) {
        let Some(Role::Text(slot)) = self.open.pop() else {
            return;
        };
        let text = std::mem::take(&mut self.text);
        match slot {
            Slot::Include => {
                if let Some(package) = &mut self.package {
                    package.includes.push(text);
                }
            }
            _ => {
                if let Some(field) = self.field(slot) {
                    *field = Some(text);
                }
            }
        }
    }
}

impl RawImport<'_> {
    fn finish(self) -> Result<Import, OdfError> {
        let file = self.file.map(|f| unquoted(&f)).unwrap_or_default();
        let bind_name = self
            .bind_name
            .ok_or(OdfError::Missing("import/bindname"))?
            .trim()
            .to_owned();
        let guid = Guid(parse_u64(
            "import/GUID",
            &self.guid.ok_or(OdfError::Missing("import/GUID"))?,
        )?);
        let (constraint, priority) = match self.reference {
            None => (ConstraintKind::Link, 0),
            Some((kind, pri)) => {
                let kind = match kind {
                    None => ConstraintKind::Link,
                    Some(s) => {
                        ConstraintKind::from_str_opt(&s).ok_or_else(|| OdfError::Invalid {
                            what: "reference/type",
                            value: s.into_owned(),
                        })?
                    }
                };
                let pri = match pri {
                    None => 0,
                    Some(p) => parse_narrow("reference/pri", &p)?,
                };
                (kind, pri)
            }
        };
        Ok(Import {
            file,
            bind_name,
            guid,
            constraint,
            priority,
        })
    }
}

impl RawClass<'_> {
    fn finish(self) -> Result<DeviceClassSpec, OdfError> {
        let id = parse_narrow(
            "device-class/id",
            &self.id.ok_or(OdfError::Missing("device-class/id"))?,
        )?;
        let name = self
            .name
            .ok_or(OdfError::Missing("device-class/name"))?
            .trim()
            .to_owned();
        let text = |t: Raw<'_>| t.map(|t| t.trim().to_owned());
        Ok(DeviceClassSpec {
            id,
            name,
            bus: text(self.bus),
            mac: text(self.mac),
            vendor: text(self.vendor),
        })
    }
}

/// A path-like text field, stripped of surrounding whitespace and quotes
/// together, so that `"  x  "` reads as `x`.
fn unquoted(text: &str) -> String {
    text.trim_matches(|c: char| c == '"' || c.is_whitespace())
        .to_owned()
}

/// Well-known device class ids used throughout the reproduction.
pub mod class_ids {
    /// The host CPU fallback class.
    pub const HOST_CPU: u32 = 0x0000;
    /// Programmable network interface cards.
    pub const NETWORK: u32 = 0x0001;
    /// Programmable storage controllers ("smart disks").
    pub const STORAGE: u32 = 0x0002;
    /// Graphics processing units.
    pub const GPU: u32 = 0x0003;
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_ODF: &str = r#"<offcode>
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

    #[test]
    fn parses_paper_figure_4() {
        let odf = OdfDocument::parse(PAPER_ODF).unwrap();
        assert_eq!(odf.bind_name, "hydra.net.utils.Socket");
        assert_eq!(odf.guid, Guid(7070714));
        assert_eq!(odf.interfaces, vec!["/offcodes/socket.wsdl"]);
        assert_eq!(odf.imports.len(), 1);
        let imp = &odf.imports[0];
        assert_eq!(imp.bind_name, "hydra.net.utils.Checksum");
        assert_eq!(imp.guid, Guid(6060843));
        assert_eq!(imp.constraint, ConstraintKind::Pull);
        assert_eq!(imp.priority, 0);
        assert_eq!(odf.targets.len(), 1);
        let t = &odf.targets[0];
        assert_eq!(t.id, 1);
        assert_eq!(t.name, "Network Device");
        assert_eq!(t.bus.as_deref(), Some("pci"));
        assert_eq!(t.vendor.as_deref(), Some("3COM"));
    }

    #[test]
    fn round_trips_through_xml() {
        let odf = OdfDocument::parse(PAPER_ODF).unwrap();
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(odf, re);
    }

    #[test]
    fn builder_round_trips() {
        let odf = OdfDocument::new("tivo.Decoder", Guid(99))
            .with_interface("/offcodes/decoder.wsdl")
            .with_import(Import {
                file: "/offcodes/display.odf".into(),
                bind_name: "tivo.Display".into(),
                guid: Guid(100),
                constraint: ConstraintKind::Pull,
                priority: 1,
            })
            .with_target(DeviceClassSpec {
                id: class_ids::GPU,
                name: "GPU".into(),
                bus: Some("agp".into()),
                mac: None,
                vendor: None,
            })
            .with_target(DeviceClassSpec::host_cpu());
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(odf, re);
    }

    #[test]
    fn footprint_round_trips() {
        let odf = OdfDocument::new("x", Guid(1)).with_footprint(64 * 1024);
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(re.footprint, Some(64 * 1024));
        assert_eq!(odf, re);
    }

    #[test]
    fn bad_footprint_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID><footprint>lots</footprint></package></offcode>",
        )
        .unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "package/footprint",
                ..
            }
        ));
    }

    #[test]
    fn traffic_round_trips() {
        let odf = OdfDocument::new("x", Guid(1)).with_traffic(TrafficSpec {
            rate_per_sec: 10_000,
            burst: 2,
            max_bytes: 16 * 1024,
        });
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(
            re.traffic,
            Some(TrafficSpec {
                rate_per_sec: 10_000,
                burst: 2,
                max_bytes: 16 * 1024,
            })
        );
        assert_eq!(odf, re);
    }

    #[test]
    fn traffic_defaults_and_clamps() {
        let odf = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic rate=500/></offcode>",
        )
        .unwrap();
        assert_eq!(
            odf.traffic,
            Some(TrafficSpec {
                rate_per_sec: 500,
                burst: 1,
                max_bytes: 1024,
            })
        );
        // A declared zero burst parses (and builds) as 1.
        let odf = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic rate=500 burst=0 bytes=64/></offcode>",
        )
        .unwrap();
        assert_eq!(odf.traffic.unwrap().burst, 1);
        let built = OdfDocument::new("x", Guid(1)).with_traffic(TrafficSpec {
            rate_per_sec: 500,
            burst: 0,
            max_bytes: 64,
        });
        assert_eq!(built.traffic.unwrap().burst, 1);
    }

    #[test]
    fn traffic_without_rate_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic burst=2/></offcode>",
        )
        .unwrap_err();
        assert_eq!(e, OdfError::Missing("traffic/rate"));
    }

    #[test]
    fn bad_traffic_rate_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic rate=fast/></offcode>",
        )
        .unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "traffic/rate",
                ..
            }
        ));
    }

    #[test]
    fn missing_package_rejected() {
        assert_eq!(
            OdfDocument::parse("<offcode/>"),
            Err(OdfError::Missing("package"))
        );
    }

    #[test]
    fn missing_guid_rejected() {
        let e = OdfDocument::parse("<offcode><package><bindname>x</bindname></package></offcode>")
            .unwrap_err();
        assert_eq!(e, OdfError::Missing("package/GUID"));
    }

    #[test]
    fn bad_guid_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>banana</GUID></package></offcode>",
        )
        .unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "package/GUID",
                ..
            }
        ));
    }

    #[test]
    fn hex_guid_accepted() {
        let odf = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>0xff</GUID></package></offcode>",
        )
        .unwrap();
        assert_eq!(odf.guid, Guid(255));
    }

    #[test]
    fn wrong_root_rejected() {
        let e = OdfDocument::parse("<manifest/>").unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "root element",
                ..
            }
        ));
    }

    #[test]
    fn unknown_constraint_rejected() {
        let doc = r"<offcode>
  <package><bindname>x</bindname><GUID>1</GUID></package>
  <sw-env><import>
    <bindname>y</bindname><reference type=Sometimes/><GUID>2</GUID>
  </import></sw-env>
</offcode>";
        let e = OdfDocument::parse(doc).unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "reference/type",
                ..
            }
        ));
    }

    #[test]
    fn import_without_reference_defaults_to_link() {
        let doc = r"<offcode>
  <package><bindname>x</bindname><GUID>1</GUID></package>
  <sw-env><import><bindname>y</bindname><GUID>2</GUID></import></sw-env>
</offcode>";
        let odf = OdfDocument::parse(doc).unwrap();
        assert_eq!(odf.imports[0].constraint, ConstraintKind::Link);
    }

    #[test]
    fn malformed_xml_is_surfaced() {
        assert!(matches!(
            OdfDocument::parse("<offcode>"),
            Err(OdfError::Xml(_))
        ));
    }

    #[test]
    fn constraint_kind_string_round_trip() {
        for k in [
            ConstraintKind::Link,
            ConstraintKind::Pull,
            ConstraintKind::Gang,
            ConstraintKind::AsymGang,
        ] {
            assert_eq!(ConstraintKind::from_str_opt(k.as_str()), Some(k));
        }
        assert_eq!(ConstraintKind::from_str_opt("nope"), None);
    }
}

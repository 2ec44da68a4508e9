//! Verifier inputs: a device table and a layout-graph view.
//!
//! `hydra-verify` sits *below* `hydra-core` in the crate graph (so the
//! runtime can call it as a pre-flight gate), which means it cannot use
//! the runtime's `DeviceRegistry`/`LayoutGraph` types directly. Instead
//! it defines structural mirrors: [`DeviceTable`] carries exactly the
//! fields device-class matching needs, and [`GraphView`] is the node/edge
//! shape of the layout graph. `hydra-core`'s registry keeps a
//! [`DeviceTable`] of its devices, and the runtime matches device classes
//! through [`DeviceTable::compatibility`], so [`DeviceInfo::matches`] is
//! the workspace's one matching rule.

use hydra_odf::odf::{ConstraintKind, DeviceClassSpec, Guid, OdfDocument, TrafficSpec};

use crate::index::{Adjacency, DeviceSets};

/// Default worst-case footprint assumed for an Offcode whose ODF does not
/// declare one (bytes). Matches the synthetic 8 KiB text + 1 KiB data
/// object the runtime links for components without a real object file.
pub const DEFAULT_FOOTPRINT: u64 = 9 * 1024;

/// What the verifier knows about one installed device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceInfo {
    /// Device class id (`hydra_odf::odf::class_ids`).
    pub class: u32,
    /// Diagnostic name.
    pub name: String,
    /// Bus attachment, if any.
    pub bus: Option<String>,
    /// MAC layer, if any.
    pub mac: Option<String>,
    /// Vendor string, if any.
    pub vendor: Option<String>,
    /// Bytes of memory available for Offcodes.
    pub offcode_memory: u64,
}

impl DeviceInfo {
    /// Whether this device satisfies a device-class spec: class id must
    /// match and each *specified* optional attribute must match
    /// (unspecified attributes are wildcards).
    pub fn matches(&self, spec: &DeviceClassSpec) -> bool {
        if self.class != spec.id {
            return false;
        }
        let attr_ok = |want: &Option<String>, have: &Option<String>| match want {
            None => true,
            Some(w) => have.as_deref() == Some(w.as_str()),
        };
        attr_ok(&spec.bus, &self.bus)
            && attr_ok(&spec.mac, &self.mac)
            && attr_ok(&spec.vendor, &self.vendor)
    }
}

/// The installed devices, indexed like the runtime's registry: index 0 is
/// always the host CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceTable {
    /// The devices; index 0 is the host.
    pub devices: Vec<DeviceInfo>,
}

impl DeviceTable {
    /// The compatibility vector for a target set: `true` per device that
    /// matches one of the specs; the host entry is forced `true` (the
    /// runtime can always fall back to the host CPU).
    pub fn compatibility(&self, specs: &[DeviceClassSpec]) -> Vec<bool> {
        (0..self.devices.len())
            .map(|k| self.compatible(specs, k))
            .collect()
    }

    /// Whether device `k` may run an Offcode targeting `specs`: the host
    /// (index 0) always may, a device past the table never may, and any
    /// other device may when it matches one of the specs. Equals
    /// `compatibility(specs)[k]` for every installed `k`.
    pub fn compatible(&self, specs: &[DeviceClassSpec], k: usize) -> bool {
        k == 0
            || self
                .devices
                .get(k)
                .is_some_and(|d| specs.iter().any(|s| d.matches(s)))
    }

    /// How many installed devices satisfy one spec.
    pub fn feasible_count(&self, spec: &DeviceClassSpec) -> usize {
        self.devices.iter().filter(|d| d.matches(spec)).count()
    }
}

/// One Offcode in the graph view.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView<'a> {
    /// The Offcode's GUID.
    pub guid: Guid,
    /// Its bind name (diagnostics).
    pub bind_name: &'a str,
    /// Worst-case memory footprint in bytes.
    pub demand: u64,
    /// The declared arrival curve for this Offcode's outbound calls, if
    /// its ODF carries a `<traffic>` element. `None` means certification
    /// substitutes the conservative default curve.
    pub traffic: Option<TrafficSpec>,
}

/// One constraint edge in the graph view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeView {
    /// Source node index (the importer).
    pub from: usize,
    /// Destination node index (the imported peer).
    pub to: usize,
    /// The placement constraint.
    pub kind: ConstraintKind,
}

/// A structural view of the offloading layout graph, indexed once for
/// every pass: a GUID→node map, per-node successor and writer lists,
/// and per-node compatible device sets.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphView<'a> {
    /// The nodes, in deployment-set order.
    pub nodes: Vec<NodeView<'a>>,
    /// The constraint edges.
    pub edges: Vec<EdgeView>,
    /// Node `n`'s set: the non-host devices it may run on.
    pub compat: DeviceSets,
    /// `(guid, node)` for the first node with each GUID, sorted by GUID.
    by_guid: Vec<(Guid, usize)>,
    /// Successors over all edges, sorted and deduplicated.
    out: Adjacency,
    /// Importers over all edges, sorted, one entry per edge.
    into: Adjacency,
}

impl<'a> GraphView<'a> {
    /// Indexes `nodes`, their compatible device sets (one per node),
    /// `edges`, and the GUID map built from `nodes`.
    fn indexed(
        nodes: Vec<NodeView<'a>>,
        compat: DeviceSets,
        edges: Vec<EdgeView>,
        by_guid: Vec<(Guid, usize)>,
    ) -> Self {
        assert_eq!(compat.nodes(), nodes.len(), "one device set per node");
        let out = Adjacency::new(nodes.len(), edges.iter().map(|e| (e.from, e.to)), true);
        let into = Adjacency::new(nodes.len(), edges.iter().map(|e| (e.to, e.from)), false);
        GraphView {
            nodes,
            edges,
            compat,
            by_guid,
            out,
            into,
        }
    }

    /// Builds the view straight from an ODF set and a device table.
    ///
    /// Requires a *well-formed* set (unique GUIDs, imports resolved
    /// inside the set — the conditions the manifest pass checks); imports
    /// that do not resolve are skipped here so the graph passes can still
    /// run on partially broken sets.
    ///
    /// Per-node demand comes from `demands` when given (parallel to
    /// `odfs`), else from the ODF's declared footprint, else
    /// [`DEFAULT_FOOTPRINT`].
    pub fn from_odfs(
        odfs: &'a [OdfDocument],
        table: &DeviceTable,
        demands: Option<&[u64]>,
    ) -> Self {
        let mut compat = DeviceSets::new(odfs.len(), table.devices.len());
        let nodes: Vec<NodeView<'a>> = odfs
            .iter()
            .enumerate()
            .map(|(i, odf)| {
                for k in 1..table.devices.len() {
                    if table.compatible(&odf.targets, k) {
                        compat.insert(i, k);
                    }
                }
                NodeView {
                    guid: odf.guid,
                    bind_name: &odf.bind_name,
                    demand: demands
                        .and_then(|d| d.get(i).copied())
                        .or(odf.footprint)
                        .unwrap_or(DEFAULT_FOOTPRINT),
                    traffic: odf.traffic,
                }
            })
            .collect();
        let by_guid = guid_index(&nodes);
        let imports = odfs.iter().map(|o| o.imports.len()).sum();
        let mut edges = Vec::with_capacity(imports);
        for (i, odf) in odfs.iter().enumerate() {
            for imp in &odf.imports {
                if let Some(j) = lookup(&by_guid, imp.guid) {
                    if i != j {
                        edges.push(EdgeView {
                            from: i,
                            to: j,
                            kind: imp.constraint,
                        });
                    }
                }
            }
        }
        GraphView::indexed(nodes, compat, edges, by_guid)
    }

    /// The first node with `guid`, if any.
    pub(crate) fn node(&self, guid: Guid) -> Option<usize> {
        lookup(&self.by_guid, guid)
    }

    /// Node `v`'s successors: the distinct nodes it imports, ascending.
    pub(crate) fn successors(&self, v: usize) -> &[usize] {
        self.out.of(v)
    }

    /// Node `v`'s importers, ascending, once per edge into `v`: a node
    /// that imports `v` twice appears twice.
    pub(crate) fn importers(&self, v: usize) -> &[usize] {
        self.into.of(v)
    }

    /// Node `v`'s distinct importers, ascending: the writers of the
    /// ring it serves.
    pub(crate) fn writers(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let all = self.importers(v);
        let first = |&(i, w): &(usize, &usize)| i == 0 || all[i - 1] != *w;
        all.iter().enumerate().filter(first).map(|(_, &w)| w)
    }

    /// The deployment roots' node indices, ascending: the nodes whose
    /// GUID is in `roots`, or, with `None`, the nodes nothing imports.
    pub(crate) fn roots<'r>(
        &'r self,
        roots: Option<&'r [Guid]>,
    ) -> impl Iterator<Item = usize> + 'r {
        (0..self.nodes.len()).filter(move |&n| match roots {
            Some(guids) => guids.contains(&self.nodes[n].guid),
            None => self.importers(n).is_empty(),
        })
    }
}

/// `(guid, node)` for the first node with each GUID, sorted by GUID:
/// the first node with a GUID wins, like the runtime's depot.
fn guid_index(nodes: &[NodeView<'_>]) -> Vec<(Guid, usize)> {
    let mut by_guid: Vec<(Guid, usize)> =
        nodes.iter().enumerate().map(|(i, n)| (n.guid, i)).collect();
    by_guid.sort_unstable();
    by_guid.dedup_by_key(|&mut (guid, _)| guid);
    by_guid
}

fn lookup(by_guid: &[(Guid, usize)], guid: Guid) -> Option<usize> {
    let at = by_guid.binary_search_by_key(&guid, |&(g, _)| g).ok()?;
    Some(by_guid[at].1)
}

/// A view over `nodes`, each with its compatibility vector (index 0 is
/// the host), and `edges`.
#[cfg(test)]
pub(crate) fn test_view<'a>(
    nodes: Vec<(NodeView<'a>, &[bool])>,
    edges: Vec<EdgeView>,
) -> GraphView<'a> {
    let compat = DeviceSets::from_rows(nodes.iter().map(|&(_, c)| c));
    let nodes: Vec<NodeView<'a>> = nodes.into_iter().map(|(n, _)| n).collect();
    let by_guid = guid_index(&nodes);
    GraphView::indexed(nodes, compat, edges, by_guid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_odf::odf::class_ids;

    pub(crate) fn table() -> DeviceTable {
        DeviceTable {
            devices: vec![
                DeviceInfo {
                    class: class_ids::HOST_CPU,
                    name: "host".into(),
                    bus: None,
                    mac: None,
                    vendor: None,
                    offcode_memory: 256 * 1024 * 1024,
                },
                DeviceInfo {
                    class: class_ids::NETWORK,
                    name: "nic".into(),
                    bus: Some("pci".into()),
                    mac: Some("ethernet".into()),
                    vendor: Some("3COM".into()),
                    offcode_memory: 2 * 1024 * 1024,
                },
                DeviceInfo {
                    class: class_ids::GPU,
                    name: "gpu".into(),
                    bus: Some("agp".into()),
                    mac: None,
                    vendor: None,
                    offcode_memory: 16 * 1024 * 1024,
                },
            ],
        }
    }

    #[test]
    fn matching_honours_specified_attrs() {
        let t = table();
        let mut spec = DeviceClassSpec::numbered(class_ids::NETWORK);
        assert_eq!(t.feasible_count(&spec), 1);
        spec.vendor = Some("Intel".into());
        assert_eq!(t.feasible_count(&spec), 0);
    }

    #[test]
    fn compatibility_forces_host() {
        let t = table();
        assert_eq!(t.compatibility(&[]), vec![true, false, false]);
        assert_eq!(
            t.compatibility(&[DeviceClassSpec::numbered(class_ids::GPU)]),
            vec![true, false, true]
        );
    }

    #[test]
    fn one_device_query_agrees_with_compatibility() {
        let t = table();
        let nic = DeviceClassSpec::numbered(class_ids::NETWORK);
        let mut intel_nic = nic.clone();
        intel_nic.vendor = Some("Intel".into());
        let gpu = DeviceClassSpec::numbered(class_ids::GPU);
        let sets = [
            vec![],
            vec![nic.clone()],
            vec![intel_nic],
            vec![gpu.clone()],
            vec![nic, gpu],
        ];
        for specs in &sets {
            let compat = t.compatibility(specs);
            for (k, &ok) in compat.iter().enumerate() {
                assert_eq!(t.compatible(specs, k), ok, "device {k} of {specs:?}");
            }
            assert!(!t.compatible(specs, compat.len()), "past the table");
        }
    }

    #[test]
    fn graph_view_from_odfs_uses_footprints() {
        use hydra_odf::odf::Import;
        let a = OdfDocument::new("a", Guid(1))
            .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
            .with_footprint(4096)
            .with_import(Import {
                file: String::new(),
                bind_name: "b".into(),
                guid: Guid(2),
                constraint: ConstraintKind::Pull,
                priority: 0,
            });
        let b = OdfDocument::new("b", Guid(2));
        let odfs = [a, b];
        let view = GraphView::from_odfs(&odfs, &table(), None);
        assert_eq!(view.nodes.len(), 2);
        assert_eq!(view.nodes[0].demand, 4096);
        assert_eq!(view.nodes[1].demand, DEFAULT_FOOTPRINT);
        assert_eq!(view.edges.len(), 1);
        assert_eq!(view.compat.iter(0).collect::<Vec<_>>(), vec![1]);
        assert!(view.compat.is_empty(1));
        assert_eq!(view.successors(0), &[1]);
        assert_eq!(view.importers(1), &[0]);
        assert_eq!(view.roots(None).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn the_first_node_with_a_guid_wins() {
        let odfs = [
            OdfDocument::new("a", Guid(7)),
            OdfDocument::new("b", Guid(3)),
            OdfDocument::new("c", Guid(7)),
        ];
        let view = GraphView::from_odfs(&odfs, &table(), None);
        assert_eq!(view.node(Guid(7)), Some(0));
        assert_eq!(view.node(Guid(3)), Some(1));
        assert_eq!(view.node(Guid(4)), None);
        let roots = [Guid(7)];
        assert_eq!(view.roots(Some(&roots)).collect::<Vec<_>>(), vec![0, 2]);
    }
}

//! The offloading layout graph and its resolvers (paper §5).
//!
//! The runtime turns the ODFs of an application into a [`LayoutGraph`]:
//! Offcodes as nodes (each with a per-device compatibility vector `C[n][k]`
//! and a bus-bandwidth price), constraints as edges. Placement is then an
//! assignment `X[n][k] ∈ {0,1}`:
//!
//! * uniqueness — every Offcode lands on exactly one target (eq. 1),
//! * `Pull` — both endpoints on the *same* device (eq. 2),
//! * `Gang` — both offloaded, or neither (eq. 3),
//! * asymmetric `Gang` — offloading the source implies offloading the
//!   destination (eq. 4).
//!
//! Two objectives from §5.1.3 are provided: **maximized offloading** and
//! **maximize bus usage** (per-Offcode prices under per-device bandwidth
//! capacities — the paper's capability matrix reduced to its per-device
//! row sums, which keeps the program linear; see DESIGN.md).
//!
//! [`LayoutGraph::resolve_ilp`] solves exactly via `hydra-ilp`;
//! [`LayoutGraph::resolve_greedy`] is the heuristic the paper notes "is
//! not always optimal" for complex scenarios.

use std::collections::HashMap;
use std::fmt;

use hydra_ilp::branch::{Search, SearchStats};
use hydra_ilp::model::{Direction, Name, Outcome, Problem, Sense, Solution, VarId};
use hydra_odf::odf::{ConstraintKind, Guid, OdfDocument};

use crate::channel::ChannelCost;
use crate::device::{DeviceId, DeviceRegistry};

/// The bus-bandwidth price of an Offcode whose channel moves
/// `bytes`-sized messages under `cost`, in MB/s of *effective*
/// delivered bandwidth: the streaming per-message and launch charges
/// folded into the wire rate ([`ChannelCost::effective_throughput`]).
///
/// This is the richer price the crossover curves feed into
/// [`Objective::MaximizeBusUsage`]: a chatty small-message Offcode on a
/// high-setup DMA channel prices low (the doorbells dominate), while
/// the same traffic over PIO — or bulk traffic over DMA — prices high.
#[allow(clippy::cast_precision_loss)]
pub fn bus_price(cost: &ChannelCost, bytes: usize) -> f64 {
    cost.effective_throughput(bytes) as f64 / 1_000_000.0
}

/// Index of a node within a [`LayoutGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

/// One Offcode in the layout graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutNode {
    /// The Offcode's GUID.
    pub guid: Guid,
    /// Its bind name (diagnostics).
    pub bind_name: String,
    /// `compat[k]` — may this Offcode run on device `k`? Index 0 is the
    /// host and is always `true`.
    pub compat: Vec<bool>,
    /// Estimated bus bandwidth demand (the §5 "price"; arbitrary units).
    pub price: f64,
}

/// A constraint edge between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutEdge {
    /// Source node (the importing Offcode).
    pub from: NodeIdx,
    /// Destination node (the imported Offcode).
    pub to: NodeIdx,
    /// The constraint.
    pub constraint: ConstraintKind,
}

/// A placement: one device per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement(pub Vec<DeviceId>);

impl Placement {
    /// The device hosting node `n`.
    pub fn device_of(&self, n: NodeIdx) -> DeviceId {
        self.0[n.0]
    }

    /// How many Offcodes are offloaded (not on the host).
    pub fn offloaded_count(&self) -> usize {
        self.0.iter().filter(|d| !d.is_host()).count()
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// A structural change applied to a layout graph between solves, named
/// so [`LayoutGraph::repair`] can focus the re-solve on the nodes the
/// change can actually affect instead of re-deriving the whole layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphDelta {
    /// `device` fail-stopped and has been removed from every node's
    /// compatibility vector (see [`LayoutGraph::mask_device`]): nodes
    /// previously placed on it lost their home.
    MaskDevice(DeviceId),
    /// `device` (re-)joined the deployment and compatibility vectors now
    /// allow it: nodes able to run there may newly pay off offloaded.
    DeviceJoin(DeviceId),
}

/// Optimization objectives (paper §5.1.3).
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Offload as many Offcodes as possible, to minimize host CPU usage
    /// and memory contention.
    MaximizeOffloading,
    /// Maximize the total bus-bandwidth price of offloaded Offcodes,
    /// subject to per-device bandwidth capacities (`capacities[k]`; the
    /// host entry is ignored).
    MaximizeBusUsage {
        /// Bandwidth capacity per device, indexed like the registry.
        capacities: Vec<f64>,
    },
}

/// Layout failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutError {
    /// An import references a GUID that is not part of the application.
    UnknownImport {
        /// The importing Offcode.
        importer: Guid,
        /// The missing peer.
        missing: Guid,
    },
    /// Two Offcodes share a GUID.
    DuplicateGuid(Guid),
    /// An Offcode imports its own GUID (would form a self-loop edge).
    SelfImport(Guid),
    /// The constraint system is unsatisfiable.
    Unsatisfiable,
    /// A placement violates the graph (returned by [`LayoutGraph::check`]).
    Violation(String),
    /// An objective's shape does not match the graph (e.g. capacity vector
    /// of the wrong length).
    BadObjective(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::UnknownImport { importer, missing } => {
                write!(f, "{importer} imports unknown offcode {missing}")
            }
            LayoutError::DuplicateGuid(g) => write!(f, "duplicate offcode {g}"),
            LayoutError::SelfImport(g) => write!(f, "{g} imports itself"),
            LayoutError::Unsatisfiable => f.write_str("layout constraints are unsatisfiable"),
            LayoutError::Violation(s) => write!(f, "placement violates layout: {s}"),
            LayoutError::BadObjective(s) => write!(f, "bad objective: {s}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// The `X[n][k]` placement-variable grid produced by [`LayoutGraph::to_ilp`]
/// (`None` where the compatibility mask forbids the pairing).
pub type VarGrid = Vec<Vec<Option<VarId>>>;

/// The offloading layout graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayoutGraph {
    nodes: Vec<LayoutNode>,
    edges: Vec<LayoutEdge>,
}

impl LayoutGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the compatibility vector is empty or its host entry is
    /// `false`.
    pub fn add_node(&mut self, node: LayoutNode) -> NodeIdx {
        assert!(
            node.compat.first() == Some(&true),
            "compat[0] (host) must be true"
        );
        let idx = NodeIdx(self.nodes.len());
        self.nodes.push(node);
        idx
    }

    /// Adds a constraint edge. An exact duplicate of an existing edge
    /// (same endpoints and constraint) is deduplicated — it would only
    /// restate a constraint already in force and bloat the ILP.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, or on a self-loop
    /// (`from == to`): no constraint kind is meaningful against itself,
    /// and the ILP/greedy resolvers would silently mistranslate one.
    pub fn add_edge(&mut self, from: NodeIdx, to: NodeIdx, constraint: ConstraintKind) {
        assert!(from.0 < self.nodes.len() && to.0 < self.nodes.len());
        assert!(from != to, "self-loop edge on node {}", from.0);
        let edge = LayoutEdge {
            from,
            to,
            constraint,
        };
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
    }

    /// Removes `device` from every node's compatibility vector, so the
    /// resolvers route around it. Used by failure recovery: a fail-stopped
    /// device must attract no Offcode in the replacement layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadObjective`] if `device` is the host —
    /// the host can never be masked (it is the universal fallback and
    /// `compat[0]` must stay `true`).
    pub fn mask_device(&mut self, device: DeviceId) -> Result<(), LayoutError> {
        if device.is_host() {
            return Err(LayoutError::BadObjective(
                "the host cannot be masked out of a layout".into(),
            ));
        }
        for node in &mut self.nodes {
            if let Some(slot) = node.compat.get_mut(device.idx()) {
                *slot = false;
            }
        }
        Ok(())
    }

    /// Pins node `n` to `device`: its compatibility vector keeps only the
    /// host and `device`. Failure recovery pins Offcodes that cannot be
    /// snapshot-migrated to wherever they already run, so the re-layout
    /// cannot order a move that would lose their state.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn pin_node(&mut self, n: NodeIdx, device: DeviceId) {
        let node = &mut self.nodes[n.0];
        for (k, slot) in node.compat.iter_mut().enumerate() {
            *slot = k == 0 || k == device.idx();
        }
    }

    /// Overrides node `n`'s bus-bandwidth price (the §5 objective
    /// weight), e.g. from a measured channel cost via [`bus_price`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn set_price(&mut self, n: NodeIdx, price: f64) {
        self.nodes[n.0].price = price;
    }

    /// Reprices node `n` from a provider's [`ChannelCost`] at the
    /// Offcode's typical message size: the node's bus demand becomes
    /// the channel's effective delivered bandwidth (see [`bus_price`]),
    /// so [`Objective::MaximizeBusUsage`] prefers offloading the
    /// Offcodes whose channels actually move the most bytes per second
    /// — small-message Offcodes are priced by the fixed per-message and
    /// launch charges, not the headline wire rate.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn reprice_from_cost(&mut self, n: NodeIdx, cost: &ChannelCost, message_bytes: usize) {
        self.set_price(n, bus_price(cost, message_bytes));
    }

    /// The nodes.
    pub fn nodes(&self) -> &[LayoutNode] {
        &self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[LayoutEdge] {
        &self.edges
    }

    /// Builds the graph for an application: one node per ODF, edges from
    /// imports. The node order follows `odfs`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate GUIDs or imports of GUIDs not in `odfs`.
    pub fn from_odfs(
        odfs: &[OdfDocument],
        registry: &DeviceRegistry,
    ) -> Result<LayoutGraph, LayoutError> {
        let mut graph = LayoutGraph::new();
        let mut by_guid: HashMap<Guid, NodeIdx> = HashMap::new();
        for odf in odfs {
            if by_guid.contains_key(&odf.guid) {
                return Err(LayoutError::DuplicateGuid(odf.guid));
            }
            let idx = graph.add_node(LayoutNode {
                guid: odf.guid,
                bind_name: odf.bind_name.clone(),
                compat: registry.table().compatibility(&odf.targets),
                price: 1.0,
            });
            by_guid.insert(odf.guid, idx);
        }
        for (i, odf) in odfs.iter().enumerate() {
            for imp in &odf.imports {
                if imp.guid == odf.guid {
                    return Err(LayoutError::SelfImport(odf.guid));
                }
                let Some(&to) = by_guid.get(&imp.guid) else {
                    return Err(LayoutError::UnknownImport {
                        importer: odf.guid,
                        missing: imp.guid,
                    });
                };
                graph.add_edge(NodeIdx(i), to, imp.constraint);
            }
        }
        Ok(graph)
    }

    /// Number of deployment targets the compat vectors cover.
    fn num_devices(&self) -> usize {
        self.nodes.first().map_or(1, |n| n.compat.len())
    }

    /// Checks an objective's shape without building the ILP.
    fn validate_objective(&self, objective: &Objective) -> Result<(), LayoutError> {
        if let Objective::MaximizeBusUsage { capacities } = objective {
            if capacities.len() != self.num_devices() {
                return Err(LayoutError::BadObjective(format!(
                    "capacity vector has {} entries for {} devices",
                    capacities.len(),
                    self.num_devices()
                )));
            }
        }
        Ok(())
    }

    /// Verifies a placement against compatibility and every constraint.
    ///
    /// # Errors
    ///
    /// Returns the first violation, described.
    pub fn check(&self, placement: &Placement) -> Result<(), LayoutError> {
        if placement.0.len() != self.nodes.len() {
            return Err(LayoutError::Violation("wrong placement length".into()));
        }
        for (n, node) in self.nodes.iter().enumerate() {
            let dev = placement.0[n];
            if dev.idx() >= node.compat.len() || !node.compat[dev.idx()] {
                return Err(LayoutError::Violation(format!(
                    "{} cannot run on {dev}",
                    node.bind_name
                )));
            }
        }
        for e in &self.edges {
            let da = placement.device_of(e.from);
            let db = placement.device_of(e.to);
            let name = |i: NodeIdx| self.nodes[i.0].bind_name.clone();
            match e.constraint {
                ConstraintKind::Link => {}
                ConstraintKind::Pull => {
                    if da != db {
                        return Err(LayoutError::Violation(format!(
                            "Pull violated: {} on {da}, {} on {db}",
                            name(e.from),
                            name(e.to)
                        )));
                    }
                }
                ConstraintKind::Gang => {
                    if da.is_host() != db.is_host() {
                        return Err(LayoutError::Violation(format!(
                            "Gang violated: {} on {da}, {} on {db}",
                            name(e.from),
                            name(e.to)
                        )));
                    }
                }
                ConstraintKind::AsymGang => {
                    if !da.is_host() && db.is_host() {
                        return Err(LayoutError::Violation(format!(
                            "AsymGang violated: {} offloaded but {} on host",
                            name(e.from),
                            name(e.to)
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total price of offloaded Offcodes under a placement.
    pub fn bus_value(&self, placement: &Placement) -> f64 {
        self.nodes
            .iter()
            .zip(&placement.0)
            .filter(|(_, d)| !d.is_host())
            .map(|(n, _)| n.price)
            .sum()
    }

    /// Builds the §5 ILP: returns the problem plus the `X[n][k]` variable
    /// grid (`None` where the compatibility mask forbids the pairing).
    ///
    /// Variables are named `x_{n}_{k}` and rows `unique_{n}`,
    /// `pull_{e}_{k}`, `gang_{e}`, `asym_{e}` and `cap_{k}` (`e` is the
    /// edge index), as static [`Name`] tags rendered only on display.
    ///
    /// # Errors
    ///
    /// Fails if an objective's capacity vector has the wrong length.
    pub fn to_ilp(&self, objective: &Objective) -> Result<(Problem, VarGrid), LayoutError> {
        self.validate_objective(objective)?;
        let k_count = self.num_devices();
        let mut p = Problem::new(Direction::Maximize);
        let mut x: VarGrid = Vec::with_capacity(self.nodes.len());
        for (n, node) in self.nodes.iter().enumerate() {
            let mut row = Vec::with_capacity(k_count);
            for k in 0..k_count {
                if node.compat[k] {
                    row.push(Some(p.add_binary(Name::at2("x", n, k))));
                } else {
                    row.push(None);
                }
            }
            x.push(row);
        }

        // Eq. 1 — uniqueness per Offcode.
        for (n, row) in x.iter().enumerate() {
            let terms: Vec<(VarId, f64)> = row.iter().flatten().map(|&v| (v, 1.0)).collect();
            p.add_constraint(Name::at("unique", n), terms, Sense::Eq, 1.0);
        }

        // Constraint edges.
        for (ei, e) in self.edges.iter().enumerate() {
            let a = e.from.0;
            let b = e.to.0;
            match e.constraint {
                ConstraintKind::Link => {}
                // Eq. 2 — same device, coordinate-wise.
                ConstraintKind::Pull => {
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..k_count {
                        match (x[a][k], x[b][k]) {
                            (Some(va), Some(vb)) => p.add_constraint(
                                Name::at2("pull", ei, k),
                                vec![(va, 1.0), (vb, -1.0)],
                                Sense::Eq,
                                0.0,
                            ),
                            (Some(v), None) | (None, Some(v)) => {
                                // One side cannot be there: neither may be.
                                p.add_constraint(
                                    Name::at2("pull", ei, k),
                                    vec![(v, 1.0)],
                                    Sense::Eq,
                                    0.0,
                                );
                            }
                            (None, None) => {}
                        }
                    }
                }
                // Eq. 3 — offloaded-ness equal (sums over k >= 1).
                ConstraintKind::Gang => {
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    terms.extend(x[a][1..].iter().flatten().map(|&v| (v, 1.0)));
                    terms.extend(x[b][1..].iter().flatten().map(|&v| (v, -1.0)));
                    p.add_constraint(Name::at("gang", ei), terms, Sense::Eq, 0.0);
                }
                // Eq. 4 — offload(a) <= offload(b).
                ConstraintKind::AsymGang => {
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    terms.extend(x[a][1..].iter().flatten().map(|&v| (v, 1.0)));
                    terms.extend(x[b][1..].iter().flatten().map(|&v| (v, -1.0)));
                    p.add_constraint(Name::at("asym", ei), terms, Sense::Le, 0.0);
                }
            }
        }

        // Objective.
        match objective {
            Objective::MaximizeOffloading => {
                let terms: Vec<(VarId, f64)> = x
                    .iter()
                    .flat_map(|row| row[1..].iter().flatten().map(|&v| (v, 1.0)))
                    .collect();
                p.set_objective(terms);
            }
            Objective::MaximizeBusUsage { capacities } => {
                let terms: Vec<(VarId, f64)> = x
                    .iter()
                    .enumerate()
                    .flat_map(|(n, row)| {
                        let price = self.nodes[n].price;
                        row[1..].iter().flatten().map(move |&v| (v, price))
                    })
                    .collect();
                p.set_objective(terms);
                for k in 1..k_count {
                    let terms: Vec<(VarId, f64)> = x
                        .iter()
                        .enumerate()
                        .filter_map(|(n, row)| row[k].map(|v| (v, self.nodes[n].price)))
                        .collect();
                    if !terms.is_empty() {
                        p.add_constraint(Name::at("cap", k), terms, Sense::Le, capacities[k]);
                    }
                }
            }
        }
        Ok((p, x))
    }

    /// Resolves the layout exactly with branch-and-bound ILP.
    ///
    /// # Errors
    ///
    /// Fails if the constraints are unsatisfiable.
    pub fn resolve_ilp(&self, objective: &Objective) -> Result<Placement, LayoutError> {
        self.resolve_ilp_with_stats(objective).map(|(p, _)| p)
    }

    /// Like [`LayoutGraph::resolve_ilp`], but also returns the
    /// branch-and-bound search statistics (nodes explored, bounds pruned)
    /// so callers can feed an observability recorder.
    ///
    /// Before building the ILP, `hydra-verify`'s narrowing pre-check runs
    /// over the graph; when it proves the all-host placement is the only
    /// feasible one, the solve is skipped entirely and the stats come
    /// back with `presolved = true` and `nodes = 0`.
    ///
    /// # Errors
    ///
    /// Fails if the constraints are unsatisfiable.
    pub fn resolve_ilp_with_stats(
        &self,
        objective: &Objective,
    ) -> Result<(Placement, SearchStats), LayoutError> {
        self.resolve_ilp_hinted(objective, None)
    }

    /// The shared exact-resolve core: presolve, build the ILP, optionally
    /// install a warm-start hint placement as the initial incumbent, and
    /// search to proven optimality.
    fn resolve_ilp_hinted(
        &self,
        objective: &Objective,
        hint: Option<&Placement>,
    ) -> Result<(Placement, SearchStats), LayoutError> {
        if self.nodes.is_empty() {
            return Ok((Placement(Vec::new()), SearchStats::default()));
        }
        self.validate_objective(objective)?;
        if let Some(presolved) = self.presolved() {
            return Ok(presolved);
        }
        let (problem, x) = self.to_ilp(objective)?;
        self.search_hinted(&mut Search::new(&problem), &x, hint)
    }

    /// The all-host placement when `hydra-verify`'s narrowing pre-check
    /// proves it the only feasible one, so no search is needed.
    fn presolved(&self) -> Option<(Placement, SearchStats)> {
        let edges = self.edges.iter().map(|e| hydra_verify::input::EdgeView {
            from: e.from.0,
            to: e.to.0,
            kind: e.constraint,
        });
        let compat = self.nodes.iter().map(|n| n.compat.as_slice());
        if !hydra_verify::Precheck::over(compat, edges).host_only() {
            return None;
        }
        let placement = Placement(vec![DeviceId::HOST; self.nodes.len()]);
        debug_assert!(self.check(&placement).is_ok());
        let stats = SearchStats {
            presolved: true,
            ..SearchStats::default()
        };
        Some((placement, stats))
    }

    /// Searches this graph's ILP (`search` over the problem whose grid is
    /// `x`) to proven optimality, warm-started from `hint`.
    fn search_hinted(
        &self,
        search: &mut Search<'_>,
        x: &VarGrid,
        hint: Option<&Placement>,
    ) -> Result<(Placement, SearchStats), LayoutError> {
        let hint_values = hint.map(|p| Self::x_values(search.problem(), x, p));
        let result = search.solve(hint_values.as_deref());
        let Outcome::Optimal(sol) = result.outcome else {
            return Err(LayoutError::Unsatisfiable);
        };
        let placement = Self::extract_placement(x, &sol);
        debug_assert!(self.check(&placement).is_ok());
        Ok((placement, result.stats))
    }

    /// The `X[n][k]` value vector a placement corresponds to, in
    /// `problem`'s variable space (a node placed somewhere its grid row
    /// has no variable simply contributes nothing, which the feasibility
    /// check then rejects).
    fn x_values(problem: &Problem, x: &VarGrid, placement: &Placement) -> Vec<f64> {
        let mut values = vec![0.0; problem.num_vars()];
        for (n, row) in x.iter().enumerate() {
            if let Some(Some(v)) = row.get(placement.0[n].idx()) {
                values[v.index()] = 1.0;
            }
        }
        values
    }

    /// Reads a placement back out of an integral ILP solution.
    fn extract_placement(x: &VarGrid, sol: &Solution) -> Placement {
        let mut devices = Vec::with_capacity(x.len());
        for row in x {
            let mut chosen = DeviceId::HOST;
            for (k, v) in row.iter().enumerate() {
                if let Some(v) = v {
                    if sol.is_set(*v) {
                        chosen = DeviceId(k as u32);
                        break;
                    }
                }
            }
            devices.push(chosen);
        }
        Placement(devices)
    }

    /// Incrementally re-solves the layout after `delta`, warm-starting
    /// from `prev` — the placement that was optimal *before* the change.
    ///
    /// `self` is the **post-delta** graph (the device already masked via
    /// [`LayoutGraph::mask_device`], or compatibility vectors already
    /// extended for a joined device). Instead of re-deriving every
    /// node's placement from scratch, repair:
    ///
    /// 1. collects the **dirty** nodes — those whose previous placement
    ///    the delta made infeasible, plus (on a join) every node the new
    ///    device could attract;
    /// 2. closes the dirty set over binding (non-`Link`) constraint
    ///    edges, so Gang/Pull/AsymGang partners re-solve together;
    /// 3. exactly re-solves only that sub-component — warm-started from
    ///    the previous placement with evicted nodes pulled to the host —
    ///    while every untouched node stays frozen where it was (under
    ///    [`Objective::MaximizeBusUsage`], frozen nodes keep their
    ///    capacity share);
    /// 4. splices the repaired sub-placement back over `prev` and proves
    ///    it optimal against the full problem's LP-relaxation bound. If
    ///    the bound leaves room above the repaired value (a better
    ///    global layout might exist, or the bound is simply loose), it
    ///    falls back to the full ILP — warm-started by the repaired
    ///    candidate — so the result is **always** objective-equal to a
    ///    from-scratch [`LayoutGraph::resolve_ilp`].
    ///
    /// When the component is the whole graph, the sub-problem *is* the
    /// full problem, so steps 3 and 4 share one [`Search`]: the bound
    /// proof replays the sub-solve's root relaxation, and the fallback
    /// revisits its nodes without re-solving them.
    ///
    /// The returned [`SearchStats`] count the actual search performed:
    /// `repaired_nodes` is the size of the re-solved component,
    /// `warm_start_hits` the accepted hints, and `nodes` the search nodes
    /// visited across the sub-solve (and the fallback, when taken) — the
    /// root LP bound itself is not a search node.
    ///
    /// # Errors
    ///
    /// Fails when `prev`'s length does not match the graph, the
    /// objective's shape is invalid, or the constraints are
    /// unsatisfiable.
    pub fn repair(
        &self,
        prev: &Placement,
        delta: &GraphDelta,
        objective: &Objective,
    ) -> Result<(Placement, SearchStats), LayoutError> {
        if prev.0.len() != self.nodes.len() {
            return Err(LayoutError::Violation(
                "previous placement length does not match the graph".into(),
            ));
        }
        self.validate_objective(objective)?;
        if self.nodes.is_empty() {
            return Ok((Placement(Vec::new()), SearchStats::default()));
        }

        // 1. Dirty nodes: infeasible under the post-delta compat masks,
        //    plus everything a joined device could newly attract.
        let mut in_repair = vec![false; self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            let dev = prev.0[n];
            if dev.idx() >= node.compat.len() || !node.compat[dev.idx()] {
                in_repair[n] = true;
            }
            if let GraphDelta::DeviceJoin(joined) = delta {
                if node.compat.get(joined.idx()) == Some(&true) {
                    in_repair[n] = true;
                }
            }
        }

        // 2. Close over binding edges: a re-placed node drags its
        //    Pull/Gang/AsymGang partners into the re-solve (transitively),
        //    because their optimal placements are coupled to its own.
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if e.constraint == ConstraintKind::Link {
                continue;
            }
            adjacency[e.from.0].push(e.to.0);
            adjacency[e.to.0].push(e.from.0);
        }
        let mut frontier: Vec<usize> = (0..self.nodes.len()).filter(|&n| in_repair[n]).collect();
        while let Some(n) = frontier.pop() {
            for &m in &adjacency[n] {
                if !in_repair[m] {
                    in_repair[m] = true;
                    frontier.push(m);
                }
            }
        }
        let component: Vec<usize> = (0..self.nodes.len()).filter(|&n| in_repair[n]).collect();

        let mut stats = SearchStats {
            repaired_nodes: component.len() as u64,
            ..SearchStats::default()
        };

        // 3. Exactly re-solve the component with everything else frozen.
        //    Same problem ⇒ same search: a component covering every node
        //    has no frozen complement, so its sub-problem is the full
        //    problem, and the sub-solve, the bound proof and the fallback
        //    all run on the one `search`.
        let (problem, x) = self.to_ilp(objective)?;
        let mut search = Search::new(&problem);
        let mut candidate = prev.clone();
        if !component.is_empty() {
            let hint = Placement(
                component
                    .iter()
                    .map(|&n| {
                        let dev = prev.0[n];
                        let node = &self.nodes[n];
                        if dev.idx() < node.compat.len() && node.compat[dev.idx()] {
                            dev
                        } else {
                            DeviceId::HOST
                        }
                    })
                    .collect(),
            );
            let (sub_placement, sub_stats) = if component.len() == self.nodes.len() {
                match self.presolved() {
                    Some(presolved) => presolved,
                    None => self.search_hinted(&mut search, &x, Some(&hint))?,
                }
            } else {
                let (sub, sub_objective) = self.frozen_subgraph(&component, prev, objective);
                sub.resolve_ilp_hinted(&sub_objective, Some(&hint))?
            };
            stats.nodes += sub_stats.nodes;
            stats.pruned += sub_stats.pruned;
            stats.presolved = sub_stats.presolved;
            stats.warm_start_hits += sub_stats.warm_start_hits;
            for (&n, &dev) in component.iter().zip(&sub_placement.0) {
                candidate.0[n] = dev;
            }
        }

        // 4. Prove the spliced candidate optimal — or fall back. The full
        //    problem's root LP relaxation bounds every placement from
        //    above; a candidate meeting the bound is optimal, no search
        //    needed.
        let values = Self::x_values(&problem, &x, &candidate);
        let feasible =
            self.check(&candidate).is_ok() && problem.check_feasible(&values, 1e-6).is_ok();
        if feasible {
            let bound = match search.root_relaxation() {
                Outcome::Optimal(s) => s.objective,
                Outcome::Infeasible => return Err(LayoutError::Unsatisfiable),
                Outcome::Unbounded => f64::INFINITY,
            };
            if problem.objective_value(&values) >= bound - 1e-6 {
                return Ok((candidate, stats));
            }
        }
        let result = search.solve(feasible.then_some(values.as_slice()));
        let Outcome::Optimal(sol) = result.outcome else {
            return Err(LayoutError::Unsatisfiable);
        };
        stats.nodes += result.stats.nodes;
        stats.pruned += result.stats.pruned;
        stats.warm_start_hits += result.stats.warm_start_hits;
        stats.presolved = false;
        let placement = Self::extract_placement(&x, &sol);
        debug_assert!(self.check(&placement).is_ok());
        Ok((placement, stats))
    }

    /// The sub-graph a strict-subset repair `component` re-solves, with
    /// the objective it re-solves under: every other node stays frozen
    /// at its `prev` device and, under [`Objective::MaximizeBusUsage`],
    /// keeps the bus share it already holds.
    fn frozen_subgraph(
        &self,
        component: &[usize],
        prev: &Placement,
        objective: &Objective,
    ) -> (LayoutGraph, Objective) {
        let mut sub = LayoutGraph::new();
        let mut sub_idx = vec![usize::MAX; self.nodes.len()];
        for &n in component {
            sub_idx[n] = sub.add_node(self.nodes[n].clone()).0;
        }
        for e in &self.edges {
            let (a, b) = (sub_idx[e.from.0], sub_idx[e.to.0]);
            if a != usize::MAX && b != usize::MAX {
                sub.add_edge(NodeIdx(a), NodeIdx(b), e.constraint);
            }
        }
        let sub_objective = match objective {
            Objective::MaximizeOffloading => Objective::MaximizeOffloading,
            Objective::MaximizeBusUsage { capacities } => {
                let mut remaining = capacities.clone();
                for (n, node) in self.nodes.iter().enumerate() {
                    let dev = prev.0[n];
                    if sub_idx[n] == usize::MAX && !dev.is_host() {
                        if let Some(cap) = remaining.get_mut(dev.idx()) {
                            *cap = (*cap - node.price).max(0.0);
                        }
                    }
                }
                Objective::MaximizeBusUsage {
                    capacities: remaining,
                }
            }
        };
        (sub, sub_objective)
    }

    /// Greedy heuristic: visit Offcodes in descending price order; place
    /// each on its first compatible non-host device that keeps all
    /// constraints toward already-placed neighbours satisfiable and (for
    /// [`Objective::MaximizeBusUsage`]) fits the device's remaining
    /// capacity; otherwise fall back to the host.
    ///
    /// Greedy is *not always optimal* (the paper's motivation for the ILP
    /// formulation); `repro -- ilp` quantifies the gap.
    pub fn resolve_greedy(&self, objective: &Objective) -> Placement {
        let k_count = self.num_devices();
        let mut remaining: Vec<f64> = match objective {
            Objective::MaximizeBusUsage { capacities } => capacities.clone(),
            Objective::MaximizeOffloading => vec![f64::INFINITY; k_count],
        };
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            self.nodes[b]
                .price
                .partial_cmp(&self.nodes[a].price)
                .expect("prices are finite")
                .then(a.cmp(&b))
        });
        let mut devices: Vec<Option<DeviceId>> = vec![None; self.nodes.len()];
        for &n in &order {
            let node = &self.nodes[n];
            let mut chosen = DeviceId::HOST;
            #[allow(clippy::needless_range_loop)]
            for k in 1..k_count {
                if !node.compat[k] {
                    continue;
                }
                if node.price > remaining[k] {
                    continue;
                }
                if self.greedy_compatible(n, DeviceId(k as u32), &devices) {
                    chosen = DeviceId(k as u32);
                    break;
                }
            }
            if !chosen.is_host() {
                remaining[chosen.idx()] -= node.price;
            } else if !self.greedy_compatible(n, DeviceId::HOST, &devices) {
                // Host conflicts with a placed neighbour (e.g. Gang with an
                // offloaded peer). Leave on host anyway: greedy is a
                // heuristic, and `check` will expose the violation; repair
                // by pulling the neighbour back would cascade.
            }
            devices[n] = Some(chosen);
        }
        let mut placement = Placement(
            devices
                .into_iter()
                .map(|d| d.expect("all placed"))
                .collect(),
        );
        self.repair_gangs(&mut placement);
        placement
    }

    /// Whether placing node `n` on `dev` keeps constraints to already
    /// placed neighbours satisfied.
    fn greedy_compatible(&self, n: usize, dev: DeviceId, placed: &[Option<DeviceId>]) -> bool {
        for e in &self.edges {
            let (other, constraint, n_is_from) = if e.from.0 == n {
                (e.to.0, e.constraint, true)
            } else if e.to.0 == n {
                (e.from.0, e.constraint, false)
            } else {
                continue;
            };
            let Some(od) = placed[other] else { continue };
            let ok = match constraint {
                ConstraintKind::Link => true,
                ConstraintKind::Pull => od == dev,
                ConstraintKind::Gang => od.is_host() == dev.is_host(),
                ConstraintKind::AsymGang => {
                    if n_is_from {
                        // n offloaded requires other offloaded.
                        dev.is_host() || !od.is_host()
                    } else {
                        od.is_host() || !dev.is_host()
                    }
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Post-pass: pull offenders of Gang/AsymGang edges back to the host
    /// until the placement is feasible (always terminates: host-everything
    /// is feasible).
    fn repair_gangs(&self, placement: &mut Placement) {
        loop {
            let mut changed = false;
            for e in &self.edges {
                let da = placement.0[e.from.0];
                let db = placement.0[e.to.0];
                match e.constraint {
                    ConstraintKind::Pull => {
                        if da != db {
                            placement.0[e.from.0] = DeviceId::HOST;
                            placement.0[e.to.0] = DeviceId::HOST;
                            changed = true;
                        }
                    }
                    ConstraintKind::Gang => {
                        if da.is_host() != db.is_host() {
                            placement.0[e.from.0] = DeviceId::HOST;
                            placement.0[e.to.0] = DeviceId::HOST;
                            changed = true;
                        }
                    }
                    ConstraintKind::AsymGang => {
                        if !da.is_host() && db.is_host() {
                            placement.0[e.from.0] = DeviceId::HOST;
                            changed = true;
                        }
                    }
                    ConstraintKind::Link => {}
                }
            }
            if !changed {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceDescriptor;
    use hydra_odf::odf::{class_ids, DeviceClassSpec, Import};

    fn registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::new();
        reg.install(DeviceDescriptor::programmable_nic()); // dev1
        reg.install(DeviceDescriptor::smart_disk()); // dev2
        reg.install(DeviceDescriptor::gpu()); // dev3
        reg
    }

    fn node(guid: u64, compat: Vec<bool>) -> LayoutNode {
        LayoutNode {
            guid: Guid(guid),
            bind_name: format!("oc{guid}"),
            compat,
            price: 1.0,
        }
    }

    #[test]
    fn from_odfs_builds_nodes_and_edges() {
        let streamer = OdfDocument::new("tivo.Streamer", Guid(1))
            .with_target(DeviceClassSpec::numbered(class_ids::NETWORK))
            .with_import(Import {
                file: String::new(),
                bind_name: "tivo.Decoder".into(),
                guid: Guid(2),
                constraint: ConstraintKind::Gang,
                priority: 0,
            });
        let decoder = OdfDocument::new("tivo.Decoder", Guid(2))
            .with_target(DeviceClassSpec::numbered(class_ids::GPU));
        let g = LayoutGraph::from_odfs(&[streamer, decoder], &registry()).unwrap();
        assert_eq!(g.nodes().len(), 2);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.nodes()[0].compat, vec![true, true, false, false]);
        assert_eq!(g.nodes()[1].compat, vec![true, false, false, true]);
        assert_eq!(g.edges()[0].constraint, ConstraintKind::Gang);
    }

    #[test]
    fn unknown_import_rejected() {
        let a = OdfDocument::new("a", Guid(1)).with_import(Import {
            file: String::new(),
            bind_name: "ghost".into(),
            guid: Guid(99),
            constraint: ConstraintKind::Link,
            priority: 0,
        });
        assert!(matches!(
            LayoutGraph::from_odfs(&[a], &registry()),
            Err(LayoutError::UnknownImport { .. })
        ));
    }

    #[test]
    fn self_import_rejected() {
        let a = OdfDocument::new("a", Guid(1)).with_import(Import {
            file: String::new(),
            bind_name: "a".into(),
            guid: Guid(1),
            constraint: ConstraintKind::Link,
            priority: 0,
        });
        assert_eq!(
            LayoutGraph::from_odfs(&[a], &registry()),
            Err(LayoutError::SelfImport(Guid(1)))
        );
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true]));
        let b = g.add_node(node(2, vec![true, true]));
        g.add_edge(a, b, ConstraintKind::Pull);
        g.add_edge(a, b, ConstraintKind::Pull);
        assert_eq!(g.edges().len(), 1, "exact duplicate collapses");
        // A different constraint between the same pair is a new edge.
        g.add_edge(a, b, ConstraintKind::Gang);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_edge_panics() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true]));
        g.add_edge(a, a, ConstraintKind::Pull);
    }

    #[test]
    fn ilp_names_render_in_order() {
        let mut g = LayoutGraph::new();
        let compats = [
            [true, true, true],
            [true, true, false],
            [true, true, true],
            [true, false, true],
        ];
        for (i, compat) in compats.iter().enumerate() {
            let mut n = node(i as u64 + 1, compat.to_vec());
            n.price = 1.0 + i as f64;
            g.add_node(n);
        }
        g.add_edge(NodeIdx(0), NodeIdx(1), ConstraintKind::Link);
        g.add_edge(NodeIdx(1), NodeIdx(2), ConstraintKind::Pull);
        g.add_edge(NodeIdx(0), NodeIdx(3), ConstraintKind::Gang);
        g.add_edge(NodeIdx(2), NodeIdx(3), ConstraintKind::AsymGang);
        let objective = Objective::MaximizeBusUsage {
            capacities: vec![f64::INFINITY, 2.5, 4.0],
        };
        let (p, x) = g.to_ilp(&objective).unwrap();
        let vars: Vec<String> = p.variables().iter().map(|v| v.name.to_string()).collect();
        let want = [
            "x_0_0", "x_0_1", "x_0_2", "x_1_0", "x_1_1", "x_2_0", "x_2_1", "x_2_2", "x_3_0",
            "x_3_2",
        ];
        assert_eq!(vars, want);
        let rows: Vec<String> = p.constraints().iter().map(|c| c.name.to_string()).collect();
        let want = [
            "unique_0", "unique_1", "unique_2", "unique_3", "pull_1_0", "pull_1_1", "pull_1_2",
            "gang_2", "asym_3", "cap_1", "cap_2",
        ];
        assert_eq!(rows, want);

        let mut values = vec![0.0; p.num_vars()];
        values[x[2][1].unwrap().index()] = 2.0;
        assert_eq!(
            p.check_feasible(&values, 1e-9),
            Err("bound violated for x_2_1".into())
        );
        assert_eq!(
            p.check_feasible(&vec![0.0; p.num_vars()], 1e-9),
            Err("constraint 'unique_0' violated: 0 = 1".into())
        );
    }

    #[test]
    fn host_only_graph_is_presolved() {
        let mut g = LayoutGraph::new();
        // Disjoint Pull: the pre-check proves all-host without a solve.
        let a = g.add_node(node(1, vec![true, true, false]));
        let b = g.add_node(node(2, vec![true, false, true]));
        g.add_edge(a, b, ConstraintKind::Pull);
        let (p, stats) = g
            .resolve_ilp_with_stats(&Objective::MaximizeOffloading)
            .unwrap();
        assert_eq!(p.offloaded_count(), 0);
        assert!(stats.presolved);
        assert_eq!(stats.nodes, 0);

        // An offloadable graph must still search.
        let mut g2 = LayoutGraph::new();
        g2.add_node(node(1, vec![true, true]));
        let (p2, stats2) = g2
            .resolve_ilp_with_stats(&Objective::MaximizeOffloading)
            .unwrap();
        assert_eq!(p2.offloaded_count(), 1);
        assert!(!stats2.presolved);
        assert!(stats2.nodes >= 1);
    }

    #[test]
    fn presolve_still_validates_objective() {
        let mut g = LayoutGraph::new();
        // Host-only node: the pre-check would short-circuit, but a bad
        // capacity vector must still be rejected first.
        g.add_node(node(1, vec![true, false]));
        let obj = Objective::MaximizeBusUsage {
            capacities: vec![1.0],
        };
        assert!(matches!(
            g.resolve_ilp(&obj),
            Err(LayoutError::BadObjective(_))
        ));
    }

    #[test]
    fn duplicate_guid_rejected() {
        let a = OdfDocument::new("a", Guid(1));
        let b = OdfDocument::new("b", Guid(1));
        assert_eq!(
            LayoutGraph::from_odfs(&[a, b], &registry()),
            Err(LayoutError::DuplicateGuid(Guid(1)))
        );
    }

    #[test]
    fn ilp_offloads_everything_when_unconstrained() {
        let mut g = LayoutGraph::new();
        g.add_node(node(1, vec![true, true, false, false]));
        g.add_node(node(2, vec![true, false, true, false]));
        g.add_node(node(3, vec![true, false, false, true]));
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p.offloaded_count(), 3);
        assert_eq!(p.0, vec![DeviceId(1), DeviceId(2), DeviceId(3)]);
        g.check(&p).unwrap();
    }

    #[test]
    fn pull_forces_same_device() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true, true]));
        let b = g.add_node(node(2, vec![true, false, true]));
        g.add_edge(a, b, ConstraintKind::Pull);
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p.device_of(a), p.device_of(b));
        assert_eq!(p.device_of(a), DeviceId(2)); // the only shared device
        g.check(&p).unwrap();
    }

    #[test]
    fn pull_with_no_shared_device_lands_on_host() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true, false]));
        let b = g.add_node(node(2, vec![true, false, true]));
        g.add_edge(a, b, ConstraintKind::Pull);
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p.device_of(a), DeviceId::HOST);
        assert_eq!(p.device_of(b), DeviceId::HOST);
    }

    #[test]
    fn gang_links_offloadedness() {
        let mut g = LayoutGraph::new();
        // a can only be offloaded to dev1; b can only run on host.
        let a = g.add_node(node(1, vec![true, true]));
        let b = g.add_node(node(2, vec![true, false]));
        g.add_edge(a, b, ConstraintKind::Gang);
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        // Gang forces a back to the host.
        assert_eq!(p.device_of(a), DeviceId::HOST);
        g.check(&p).unwrap();
    }

    #[test]
    fn asym_gang_is_one_directional() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true]));
        let b = g.add_node(node(2, vec![true, false]));
        // a -> b: offloading a requires offloading b (impossible).
        g.add_edge(a, b, ConstraintKind::AsymGang);
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p.device_of(a), DeviceId::HOST);

        // Reverse direction: offloading b requires a — b stays on host
        // anyway, a is free.
        let mut g2 = LayoutGraph::new();
        let a2 = g2.add_node(node(1, vec![true, true]));
        let b2 = g2.add_node(node(2, vec![true, false]));
        g2.add_edge(b2, a2, ConstraintKind::AsymGang);
        let p2 = g2.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p2.device_of(a2), DeviceId(1));
    }

    #[test]
    fn bus_usage_objective_respects_capacity() {
        let mut g = LayoutGraph::new();
        for guid in 1..=3 {
            let mut n = node(guid, vec![true, true]);
            n.price = 2.0;
            g.add_node(n);
        }
        // Device 1 can carry only 4.0 of price: at most two offcodes.
        let obj = Objective::MaximizeBusUsage {
            capacities: vec![f64::INFINITY, 4.0],
        };
        let p = g.resolve_ilp(&obj).unwrap();
        assert_eq!(p.offloaded_count(), 2);
        assert!((g.bus_value(&p) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn channel_cost_repricing_steers_bus_usage_objective() {
        use crate::channel::{ChannelConfig, ChannelProvider, ZeroCopyDmaProvider};
        use crate::providers::PioProvider;

        let cfg = ChannelConfig::figure3(DeviceId(1));
        let dma = ZeroCopyDmaProvider.cost(&cfg);
        let pio = PioProvider::coherent_interconnect().cost(&cfg);

        // The richer price model: fixed charges fold into the rate, so
        // DMA prices *below* PIO for chatty small messages and far
        // above it for bulk.
        assert!(bus_price(&dma, 128) < bus_price(&pio, 128));
        assert!(bus_price(&dma, 65_536) > bus_price(&pio, 65_536));

        // Two Offcodes compete for one device: a chatty control-plane
        // node and a bulk streamer, both on DMA channels. With the flat
        // default prices the solver is indifferent; repriced from the
        // channel costs, capacity only admits one and the bulk node's
        // effective bandwidth must win the slot.
        let mut g = LayoutGraph::new();
        let chatty = g.add_node(node(1, vec![true, true]));
        let bulk = g.add_node(node(2, vec![true, true]));
        g.reprice_from_cost(chatty, &dma, 128);
        g.reprice_from_cost(bulk, &dma, 65_536);
        let obj = Objective::MaximizeBusUsage {
            capacities: vec![f64::INFINITY, bus_price(&dma, 65_536) + 1.0],
        };
        let p = g.resolve_ilp(&obj).unwrap();
        assert_eq!(p.device_of(bulk), DeviceId(1));
        assert_eq!(p.device_of(chatty), DeviceId::HOST);
        g.check(&p).unwrap();
    }

    #[test]
    fn bad_capacity_vector_rejected() {
        let mut g = LayoutGraph::new();
        g.add_node(node(1, vec![true, true]));
        let obj = Objective::MaximizeBusUsage {
            capacities: vec![1.0],
        };
        assert!(matches!(
            g.resolve_ilp(&obj),
            Err(LayoutError::BadObjective(_))
        ));
    }

    #[test]
    fn greedy_produces_feasible_placements() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true, false]));
        let b = g.add_node(node(2, vec![true, false, true]));
        let c = g.add_node(node(3, vec![true, true, true]));
        g.add_edge(a, b, ConstraintKind::Gang);
        g.add_edge(b, c, ConstraintKind::Pull);
        let p = g.resolve_greedy(&Objective::MaximizeOffloading);
        g.check(&p).unwrap();
    }

    #[test]
    fn greedy_is_suboptimal_on_adversarial_graph() {
        // The classic trap: a high-price node grabs the device another
        // pair needs for a Pull, forcing both of them to the host.
        // Devices: host + dev1 (the only device b/c can share).
        let mut g = LayoutGraph::new();
        let mut big = node(1, vec![true, true]);
        big.price = 10.0;
        let a = g.add_node(big); // greedy places first (highest price)
        let mut nb = node(2, vec![true, true]);
        nb.price = 6.0;
        let b = g.add_node(nb);
        let mut nc = node(3, vec![true, true]);
        nc.price = 6.0;
        let c = g.add_node(nc);
        g.add_edge(b, c, ConstraintKind::Pull);
        let _ = a;
        let obj = Objective::MaximizeBusUsage {
            capacities: vec![f64::INFINITY, 12.0],
        };
        let greedy = g.resolve_greedy(&obj);
        let exact = g.resolve_ilp(&obj).unwrap();
        g.check(&greedy).unwrap();
        g.check(&exact).unwrap();
        // ILP offloads the b+c pair (6+6 = 12 fits exactly; value 12).
        // Greedy grabbed the big node first (value 10) and the pair no
        // longer fits (6 > 12-10).
        assert!((g.bus_value(&exact) - 12.0).abs() < 1e-9);
        assert!(g.bus_value(&exact) > g.bus_value(&greedy));
    }

    #[test]
    fn ilp_never_worse_than_greedy_on_random_graphs() {
        use hydra_sim::rng::DetRng;
        let mut rng = DetRng::new(2024);
        for trial in 0..15 {
            let k = 2 + rng.index(3); // 2..4 devices + host
            let n = 3 + rng.index(5);
            let mut g = LayoutGraph::new();
            for i in 0..n {
                let mut compat = vec![true];
                for _ in 0..k {
                    compat.push(rng.chance(0.6));
                }
                let mut nd = node(i as u64 + 1, compat);
                nd.price = 1.0 + rng.index(5) as f64;
                g.add_node(nd);
            }
            for _ in 0..n {
                let a = NodeIdx(rng.index(n));
                let b = NodeIdx(rng.index(n));
                if a == b {
                    continue;
                }
                let c = match rng.index(4) {
                    0 => ConstraintKind::Link,
                    1 => ConstraintKind::Pull,
                    2 => ConstraintKind::Gang,
                    _ => ConstraintKind::AsymGang,
                };
                g.add_edge(a, b, c);
            }
            let capacities: Vec<f64> = (0..=k).map(|_| 3.0 + rng.index(8) as f64).collect();
            let obj = Objective::MaximizeBusUsage { capacities };
            let greedy = g.resolve_greedy(&obj);
            let exact = g.resolve_ilp(&obj).unwrap();
            g.check(&greedy)
                .unwrap_or_else(|e| panic!("trial {trial}: greedy infeasible: {e}"));
            g.check(&exact)
                .unwrap_or_else(|e| panic!("trial {trial}: ilp infeasible: {e}"));
            assert!(
                g.bus_value(&exact) >= g.bus_value(&greedy) - 1e-9,
                "trial {trial}: ilp {} < greedy {}",
                g.bus_value(&exact),
                g.bus_value(&greedy)
            );
        }
    }

    #[test]
    fn mask_device_routes_around_a_failure() {
        let mut g = LayoutGraph::new();
        g.add_node(node(1, vec![true, true, false]));
        g.add_node(node(2, vec![true, true, true]));
        g.mask_device(DeviceId(1)).unwrap();
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p.device_of(NodeIdx(0)), DeviceId::HOST);
        assert_eq!(p.device_of(NodeIdx(1)), DeviceId(2));
        assert!(g.mask_device(DeviceId::HOST).is_err());
    }

    #[test]
    fn pin_node_keeps_only_host_and_home() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true, true]));
        g.pin_node(a, DeviceId(2));
        assert_eq!(g.nodes()[0].compat, vec![true, false, true]);
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert_eq!(p.device_of(a), DeviceId(2));
    }

    #[test]
    fn empty_graph_resolves() {
        let g = LayoutGraph::new();
        let p = g.resolve_ilp(&Objective::MaximizeOffloading).unwrap();
        assert!(p.0.is_empty());
    }

    #[test]
    fn repair_after_mask_matches_scratch_and_searches_less() {
        // Two independent pairs: (a —Gang— b) offloadable to dev1, and
        // (c —Pull— d) offloadable to dev2. Fail dev1: only the a/b
        // component needs re-solving; c/d stay frozen on dev2.
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true, false]));
        let b = g.add_node(node(2, vec![true, true, false]));
        let c = g.add_node(node(3, vec![true, false, true]));
        let d = g.add_node(node(4, vec![true, false, true]));
        g.add_edge(a, b, ConstraintKind::Gang);
        g.add_edge(c, d, ConstraintKind::Pull);
        let obj = Objective::MaximizeOffloading;
        let prev = g.resolve_ilp(&obj).unwrap();
        assert_eq!(prev.offloaded_count(), 4);

        g.mask_device(DeviceId(1)).unwrap();
        let (scratch, scratch_stats) = g.resolve_ilp_with_stats(&obj).unwrap();
        let (repaired, stats) = g
            .repair(&prev, &GraphDelta::MaskDevice(DeviceId(1)), &obj)
            .unwrap();
        g.check(&repaired).unwrap();
        // Objective-equal to the from-scratch solve...
        assert_eq!(repaired.offloaded_count(), scratch.offloaded_count());
        // ...with the untouched pair still exactly where it was.
        assert_eq!(repaired.device_of(c), prev.device_of(c));
        assert_eq!(repaired.device_of(d), prev.device_of(d));
        assert_eq!(repaired.device_of(a), DeviceId::HOST);
        assert_eq!(repaired.device_of(b), DeviceId::HOST);
        // Only the failed pair re-solved, and strictly less search than
        // scratch (the a/b sub-component presolves to host-only).
        assert_eq!(stats.repaired_nodes, 2);
        assert!(
            stats.nodes < scratch_stats.nodes,
            "repair {} nodes vs scratch {}",
            stats.nodes,
            scratch_stats.nodes
        );
    }

    #[test]
    fn repair_after_join_exploits_the_new_device() {
        // One node that can use dev1 — but dev1 starts masked out.
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true]));
        let b = g.add_node(node(2, vec![true, false]));
        g.add_edge(a, b, ConstraintKind::Link);
        g.mask_device(DeviceId(1)).unwrap();
        let obj = Objective::MaximizeOffloading;
        let prev = g.resolve_ilp(&obj).unwrap();
        assert_eq!(prev.offloaded_count(), 0);

        // The device comes back: rebuild compat, repair from all-host.
        g.nodes[a.0].compat = vec![true, true];
        let (repaired, stats) = g
            .repair(&prev, &GraphDelta::DeviceJoin(DeviceId(1)), &obj)
            .unwrap();
        assert_eq!(repaired.device_of(a), DeviceId(1));
        assert_eq!(repaired.device_of(b), DeviceId::HOST);
        // Only the joinable node re-solved (b is Link-connected, not
        // bound, and stays frozen).
        assert_eq!(stats.repaired_nodes, 1);
    }

    #[test]
    fn repair_falls_back_when_frozen_freedom_matters() {
        // Bus-usage trap: after dev1 fails, the optimal masked layout
        // needs dev2's capacity for the evicted big node — but the
        // *clean* small node is frozen there, so the spliced repair
        // under-achieves. The LP bound exposes the gap and repair falls
        // back to the full ILP, so the answer still matches scratch.
        let mut g = LayoutGraph::new();
        let mut big = node(1, vec![true, true, true]);
        big.price = 10.0;
        let a = g.add_node(big);
        let mut small = node(2, vec![true, false, true]);
        small.price = 6.0;
        let b = g.add_node(small);
        let obj = Objective::MaximizeBusUsage {
            capacities: vec![f64::INFINITY, 10.0, 10.0],
        };
        let prev = g.resolve_ilp(&obj).unwrap();
        // Optimal pre-failure: big on dev1 (10), small on dev2 (6).
        assert_eq!(prev.device_of(a), DeviceId(1));
        assert_eq!(prev.device_of(b), DeviceId(2));

        g.mask_device(DeviceId(1)).unwrap();
        let scratch = g.resolve_ilp(&obj).unwrap();
        let (repaired, stats) = g
            .repair(&prev, &GraphDelta::MaskDevice(DeviceId(1)), &obj)
            .unwrap();
        g.check(&repaired).unwrap();
        // Scratch finds big on dev2 (10) beating small there (6); the
        // component-only candidate could not and the fallback ran.
        assert!(
            (g.bus_value(&repaired) - g.bus_value(&scratch)).abs() < 1e-9,
            "repair {} vs scratch {}",
            g.bus_value(&repaired),
            g.bus_value(&scratch)
        );
        assert!((g.bus_value(&repaired) - 10.0).abs() < 1e-9);
        assert_eq!(repaired.device_of(a), DeviceId(2));
        assert_eq!(repaired.device_of(b), DeviceId::HOST);
        assert!(stats.nodes > 0, "the fallback searched");
    }

    #[test]
    fn repair_rejects_mismatched_placement() {
        let mut g = LayoutGraph::new();
        g.add_node(node(1, vec![true, true]));
        let err = g.repair(
            &Placement(vec![DeviceId::HOST, DeviceId::HOST]),
            &GraphDelta::MaskDevice(DeviceId(1)),
            &Objective::MaximizeOffloading,
        );
        assert!(matches!(err, Err(LayoutError::Violation(_))));
    }

    #[test]
    fn check_detects_all_violation_kinds() {
        let mut g = LayoutGraph::new();
        let a = g.add_node(node(1, vec![true, true]));
        let b = g.add_node(node(2, vec![true, true]));
        g.add_edge(a, b, ConstraintKind::Pull);
        // Compatibility violation.
        let p = Placement(vec![DeviceId(5), DeviceId(0)]);
        assert!(g.check(&p).is_err());
        // Pull violation.
        let p = Placement(vec![DeviceId(1), DeviceId(0)]);
        assert!(matches!(g.check(&p), Err(LayoutError::Violation(s)) if s.contains("Pull")));
        // Wrong length.
        assert!(g.check(&Placement(vec![DeviceId(0)])).is_err());
        // Feasible.
        g.check(&Placement(vec![DeviceId(1), DeviceId(1)])).unwrap();
    }
}

//! Golden digests of the verifier's output over a seeded corpus.
//!
//! Each set is verified and certified, and the FNV-1a digest of three
//! renderings is pinned per set: `verify`'s report JSON, `certify`'s
//! report JSON and its certificate JSON. The corpus holds
//! `deploy_recover`-shaped import trees of 4–16 Offcodes, the valid-set
//! shapes of `verify_proptests.rs`, every committed `fixtures/*.xml` and
//! `fixtures/certify/*.xml` file, the built-in certify sets, and mutated
//! sets. Between them the mutated sets fire every code the six passes can
//! emit (all but HV009, which only the file readers emit). They also
//! include a certificate widened by a [`FaultOverlay`], a set whose chain
//! enumeration truncates, and a device table past 64 devices.
//!
//! A rewrite of any pass that moves one byte of a finding, a bound, a
//! chain's order or a pass's work count fails here, and the failure
//! names the set and prints every digest in table form.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;

use hydra::odf::odf::{
    class_ids, ConstraintKind, DeploymentFile, DeviceClassSpec, Guid, Import, OdfDocument,
    TrafficSpec,
};
use hydra::sim::rng::DetRng;
use hydra::tivo::certify::{certify_service_table, certify_set};
use hydra::verify::{
    certify, verify, CertifyInput, DeviceInfo, DeviceTable, FaultOverlay, HvCode, ServiceTable,
    VerifyInput,
};

/// One verifier input.
struct Case {
    name: String,
    odfs: Vec<OdfDocument>,
    table: DeviceTable,
    demands: Option<Vec<u64>>,
    roots: Option<Vec<Guid>>,
    overlay: Option<FaultOverlay>,
}

impl Case {
    fn new(name: impl Into<String>, odfs: Vec<OdfDocument>) -> Self {
        Case {
            name: name.into(),
            odfs,
            table: testbed(),
            demands: None,
            roots: None,
            overlay: None,
        }
    }
}

fn device(class: u32, name: &str, offcode_memory: u64) -> DeviceInfo {
    DeviceInfo {
        class,
        name: name.into(),
        bus: None,
        mac: None,
        vendor: None,
        offcode_memory,
    }
}

/// Host, NIC, smart disk and GPU, sized like the stock descriptors.
fn testbed() -> DeviceTable {
    DeviceTable {
        devices: vec![
            device(class_ids::HOST_CPU, "host", 256 << 20),
            device(class_ids::NETWORK, "nic", 2 << 20),
            device(class_ids::STORAGE, "disk", 2 << 20),
            device(class_ids::GPU, "gpu", 16 << 20),
        ],
    }
}

/// A table of 70 devices, so device sets span more than one 64-bit word.
fn wide_table() -> DeviceTable {
    let classes = [class_ids::NETWORK, class_ids::STORAGE, class_ids::GPU];
    let mut devices = vec![device(class_ids::HOST_CPU, "host", 256 << 20)];
    for k in 1..70u64 {
        let class = classes[(k % 3) as usize];
        devices.push(device(class, &format!("dev{k}"), (1 + k % 5) << 18));
    }
    DeviceTable { devices }
}

fn import(to: usize, constraint: ConstraintKind) -> Import {
    Import {
        file: String::new(),
        bind_name: format!("app.N{to}"),
        guid: Guid(to as u64 + 1),
        constraint,
        priority: 0,
    }
}

fn traffic(rate_per_sec: u64, burst: u64, max_bytes: u64) -> TrafficSpec {
    TrafficSpec {
        rate_per_sec,
        burst,
        max_bytes,
    }
}

fn offcode(i: usize, classes: &[u32]) -> OdfDocument {
    let mut odf = OdfDocument::new(format!("app.N{i}"), Guid(i as u64 + 1));
    for &c in classes {
        odf = odf.with_target(DeviceClassSpec::numbered(c));
    }
    odf
}

/// The shape perfbench's `deploy_recover` generates: a NIC target plus
/// at most one more class, declared footprints and traffic, one importer
/// per Offcode, Pull groups of at most three, and the last Offcode a
/// leaf behind an AsymGang edge.
fn tree(rng: &mut DetRng, n: usize) -> Vec<OdfDocument> {
    let mut odfs: Vec<OdfDocument> = (0..n)
        .map(|i| {
            let extra = [None, Some(class_ids::STORAGE), Some(class_ids::GPU)][rng.index(3)];
            let classes: Vec<u32> = std::iter::once(class_ids::NETWORK).chain(extra).collect();
            offcode(i, &classes)
                .with_footprint(rng.range_u64(1, 7) * 8 * 1024)
                .with_traffic(traffic(
                    rng.range_u64(20, 199),
                    rng.range_u64(1, 3),
                    64 << rng.next_below(5),
                ))
        })
        .collect();
    let mut group: Vec<usize> = (0..n).collect();
    for to in 1..n {
        let from = rng.index(to);
        let mut kind = match rng.next_below(5) {
            0 => ConstraintKind::Pull,
            1 | 2 => ConstraintKind::Gang,
            _ => ConstraintKind::AsymGang,
        };
        if kind == ConstraintKind::Pull {
            if group.iter().filter(|&&g| g == group[from]).count() < 3 {
                group[to] = group[from];
            } else {
                kind = ConstraintKind::Gang;
            }
        }
        if to == n - 1 {
            kind = ConstraintKind::AsymGang;
            group[to] = to;
        }
        odfs[from].imports.push(import(to, kind));
    }
    odfs
}

/// The shape of `verify_proptests.rs`'s `valid_set`: a NIC target plus
/// an optional second class, and forward, non-repeated imports of any
/// kind, so one Offcode may have several importers.
fn valid_set(rng: &mut DetRng, n: usize) -> Vec<OdfDocument> {
    let mut odfs: Vec<OdfDocument> = (0..n)
        .map(|i| {
            let extra = [None, Some(class_ids::STORAGE), Some(class_ids::GPU)][rng.index(3)];
            let classes: Vec<u32> = std::iter::once(class_ids::NETWORK).chain(extra).collect();
            offcode(i, &classes)
        })
        .collect();
    let kinds = [
        ConstraintKind::Link,
        ConstraintKind::Pull,
        ConstraintKind::Gang,
        ConstraintKind::AsymGang,
    ];
    for _ in 0..rng.index(8) {
        let (from, to) = (rng.index(n), rng.index(n));
        if from >= to || odfs[from].imports.iter().any(|i| i.guid.0 == to as u64 + 1) {
            continue;
        }
        odfs[from].imports.push(import(to, kinds[rng.index(4)]));
    }
    odfs
}

/// Applies one of the mutations below, chosen by `rng`.
fn mutate(odfs: &mut [OdfDocument], rng: &mut DetRng) {
    let n = odfs.len();
    let (a, b) = (rng.index(n), rng.index(n));
    match rng.next_below(12) {
        0 => odfs[a].guid = odfs[b].guid,
        1 => {
            let name = odfs[b].bind_name.clone();
            odfs[a].bind_name = name;
        }
        2 => odfs[a].imports.push(import(900 + b, ConstraintKind::Link)),
        3 => odfs[a].imports.push(import(a, ConstraintKind::Pull)),
        4 => {
            if let Some(first) = odfs[a].imports.first().cloned() {
                odfs[a].imports.push(first);
            }
        }
        5 => odfs[a].targets.clear(),
        6 => odfs[a].targets = vec![DeviceClassSpec::numbered(class_ids::GPU)],
        7 => odfs[a].targets.push(DeviceClassSpec::numbered(0x77)),
        8 => {
            let kinds = [
                ConstraintKind::Link,
                ConstraintKind::Pull,
                ConstraintKind::Gang,
            ];
            odfs[a].imports.push(import(b, kinds[rng.index(3)]));
        }
        9 => odfs[a].footprint = Some(rng.range_u64(1, 40) << 20),
        10 => odfs[a].traffic = None,
        _ => {
            let t = traffic(
                rng.range_u64(1, 80_000),
                rng.range_u64(1, 90),
                64 << rng.index(9),
            );
            odfs[a].traffic = Some(t);
        }
    }
}

/// Hand-built sets, each aimed at one or two codes or certificate
/// features.
fn targeted() -> Vec<Case> {
    let base = |seed: u64| tree(&mut DetRng::new(seed), 8);
    let mut cases = Vec::new();
    let mut push = |name: &str, odfs: Vec<OdfDocument>| cases.push(Case::new(name, odfs));

    let mut s = base(1);
    s[3].guid = s[2].guid;
    push("HV001-duplicate-guid", s);
    let mut s = base(2);
    let name = s[1].bind_name.clone();
    s[4].bind_name = name;
    push("HV004-duplicate-bind-name", s);
    let mut s = base(3);
    s[0].imports.push(import(999, ConstraintKind::Link));
    s[2].imports.push(import(2, ConstraintKind::Pull));
    push("HV002-HV003-dangling-and-self", s);
    let mut s = base(4);
    let first = s[0].imports[0].clone();
    s[0].imports.push(first);
    push("HV005-duplicate-import", s);
    let mut s = base(5);
    s[5].targets.clear();
    s[6].targets = vec![DeviceClassSpec {
        vendor: Some("Nobody".into()),
        ..DeviceClassSpec::numbered(class_ids::NETWORK)
    }];
    s[7].targets.push(DeviceClassSpec::numbered(0x77));
    push("HV006-HV007-HV008-targets", s);

    // HV010 + HV030: a gang cycle is also a wait-for cycle.
    let mut s = base(6);
    s[7].imports.push(import(0, ConstraintKind::Gang));
    push("HV010-HV030-gang-cycle", s);
    // HV030 alone: a Link cycle.
    let mut s = base(7);
    s[7].imports.push(import(3, ConstraintKind::Link));
    s[3].imports.push(import(7, ConstraintKind::Link));
    push("HV030-link-cycle", s);
    // HV011: parallel edges of different kinds, once in each direction.
    let mut s = base(8);
    let to = s[0].imports[0].guid.0 as usize - 1;
    s[0].imports.push(import(to, ConstraintKind::Link));
    s[to].imports.push(import(0, ConstraintKind::Pull));
    push("HV011-conflicting-edges", s);
    // HV012 and HV013: NIC-only Pull GPU-only; a host-only gang member.
    let s = vec![
        offcode(0, &[class_ids::NETWORK])
            .with_import(import(1, ConstraintKind::Pull))
            .with_import(import(2, ConstraintKind::Gang))
            .with_import(import(3, ConstraintKind::AsymGang)),
        offcode(1, &[class_ids::GPU]),
        offcode(2, &[]),
        offcode(3, &[class_ids::STORAGE]).with_import(import(4, ConstraintKind::Gang)),
        offcode(4, &[]),
    ];
    push("HV012-HV013-placement-conflicts", s);

    // HV020 + HV022: pinned Offcodes larger than the NIC; HV021: a
    // flexible pair that overflows the NIC but fits the GPU.
    let s = vec![
        offcode(0, &[class_ids::NETWORK])
            .with_footprint(3 << 20)
            .with_import(import(1, ConstraintKind::Link))
            .with_import(import(2, ConstraintKind::Link)),
        offcode(1, &[class_ids::NETWORK]).with_footprint(1 << 20),
        offcode(2, &[class_ids::STORAGE, class_ids::GPU])
            .with_footprint(3 << 19)
            .with_import(import(3, ConstraintKind::Link)),
        offcode(3, &[class_ids::STORAGE, class_ids::GPU]).with_footprint(3 << 19),
    ];
    push("HV020-HV021-HV022-capacity", s);

    // HV031: an Offcode no root reaches (explicit roots).
    let mut s = base(9);
    s.push(offcode(8, &[class_ids::NETWORK]).with_import(import(3, ConstraintKind::Link)));
    let mut case = Case::new("HV031-unreachable", s);
    case.roots = Some(vec![Guid(1)]);
    cases.push(case);

    // HV040 (burst), HV041 (rate), HV044 (defaulted writer).
    let s = vec![
        offcode(0, &[class_ids::NETWORK])
            .with_traffic(traffic(1_000, 100, 64))
            .with_import(import(1, ConstraintKind::Link)),
        offcode(1, &[class_ids::NETWORK])
            .with_traffic(traffic(1_000_000, 1, 16 * 1024))
            .with_import(import(2, ConstraintKind::Link)),
        offcode(2, &[class_ids::GPU]).with_import(import(3, ConstraintKind::Link)),
        offcode(3, &[class_ids::GPU]),
    ];
    cases.push(Case::new("HV040-HV041-HV044-flow", s));

    // HV042 on the host and NIC; HV043 on the GPU, where one writer's
    // four stable rings together pass 800 permille.
    let mut s = vec![
        offcode(0, &[class_ids::NETWORK])
            .with_traffic(traffic(60_000, 1, 16 * 1024))
            .with_import(import(1, ConstraintKind::Link)),
        offcode(1, &[class_ids::NETWORK]),
        offcode(2, &[class_ids::NETWORK]).with_traffic(traffic(21_250, 1, 64)),
    ];
    for i in 3..7 {
        s[2].imports.push(import(i, ConstraintKind::Link));
        s.push(offcode(i, &[class_ids::GPU]));
    }
    cases.push(Case::new("HV042-HV043-utilization", s));

    // HV050 (placements differ, and a shared multi-device set) and
    // HV051 (both writers pinned to the one NIC).
    let s = vec![
        offcode(0, &[class_ids::NETWORK]).with_import(import(4, ConstraintKind::Link)),
        offcode(1, &[class_ids::GPU]).with_import(import(4, ConstraintKind::Link)),
        offcode(2, &[class_ids::NETWORK, class_ids::GPU])
            .with_import(import(4, ConstraintKind::Link)),
        offcode(3, &[class_ids::NETWORK]).with_import(import(4, ConstraintKind::Link)),
        offcode(4, &[class_ids::NETWORK]),
    ];
    cases.push(Case::new("HV050-HV051-ring-races", s));
    // Writers ordered only by a backward import: N2 imports N0, so the
    // pair (N0, N2) is serialized although N0 cannot reach N2.
    let s = vec![
        offcode(0, &[class_ids::NETWORK]).with_import(import(3, ConstraintKind::Link)),
        offcode(1, &[class_ids::GPU]).with_import(import(3, ConstraintKind::Link)),
        offcode(2, &[class_ids::GPU])
            .with_import(import(3, ConstraintKind::Link))
            .with_import(import(0, ConstraintKind::Link)),
        offcode(3, &[class_ids::NETWORK, class_ids::GPU]),
    ];
    cases.push(Case::new("HV050-HV051-backward-order", s));

    // A certificate widened by a fault overlay, under runtime-style
    // demands and an explicit root.
    let s = base(10);
    let mut case = Case::new("overlay-widened", s);
    case.demands = Some((0..8).map(|i| 9 * 1024 + 4096 * i).collect());
    case.roots = Some(vec![Guid(1)]);
    case.overlay = Some(FaultOverlay {
        disruptions: vec![(1, 400_000), (3, 50_000), (1, 25_000), (9, 1)],
        horizon_ns: 10_000_000,
    });
    cases.push(case);

    // Seven layers of two, each node importing both of the next layer:
    // 128 maximal chains, so enumeration stops at the cap.
    let mut s = vec![offcode(0, &[class_ids::NETWORK, class_ids::GPU])];
    for layer in 0..7 {
        for side in 0..2 {
            let i = 1 + 2 * layer + side;
            s.push(offcode(i, &[class_ids::NETWORK, class_ids::STORAGE]));
        }
    }
    for i in 0..s.len() {
        let next = if i == 0 { 1 } else { 1 + 2 * ((i - 1) / 2 + 1) };
        if next + 1 < s.len() {
            s[i].imports.push(import(next, ConstraintKind::Link));
            s[i].imports.push(import(next + 1, ConstraintKind::Link));
        }
    }
    cases.push(Case::new("truncated-chains", s));

    // A wide device table: sets past 64 devices.
    for seed in 0..3 {
        let mut case = Case::new(format!("wide-table-{seed}"), base(20 + seed));
        case.table = wide_table();
        cases.push(case);
    }
    cases
}

/// The whole corpus, in a fixed order.
fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut rng = DetRng::new(0x0060_1de4);
    for i in 0..26 {
        let n = 4 + i % 13;
        let mut case = Case::new(format!("tree-{i:02}-n{n}"), tree(&mut rng, n));
        if i % 2 == 1 {
            // What the runtime passes: real load sizes and the root.
            case.demands = Some((0..n as u64).map(|k| 12_000 + 700 * k).collect());
            case.roots = Some(vec![Guid(1)]);
        }
        cases.push(case);
    }
    for i in 0..20 {
        let n = 2 + i % 5;
        cases.push(Case::new(
            format!("valid-{i:02}-n{n}"),
            valid_set(&mut rng, n),
        ));
    }
    let mut paths: Vec<_> = ["fixtures", "fixtures/certify"]
        .iter()
        .flat_map(|dir| fs::read_dir(dir).expect("fixture directory"))
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "xml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "every committed fixture is in the corpus");
    for path in paths {
        let text = fs::read_to_string(&path).expect("fixture text");
        let odfs = match DeploymentFile::parse(&text).expect("well-formed fixture") {
            DeploymentFile::Wrapped(odfs) => odfs,
            DeploymentFile::Single(odf) => vec![odf],
        };
        let odfs = odfs.into_iter().map(|o| o.expect("valid ODF")).collect();
        cases.push(Case::new(path.display().to_string(), odfs));
    }
    for name in ["demo", "tivo", "stats"] {
        let (odfs, overlay) = certify_set(name).expect("built-in certify set");
        let mut case = Case::new(format!("builtin-{name}"), odfs);
        case.overlay = overlay;
        cases.push(case);
    }
    cases.extend(targeted());
    for i in 0..30 {
        let n = 4 + i % 13;
        let mut odfs = if i % 3 == 0 {
            valid_set(&mut rng, n)
        } else {
            tree(&mut rng, n)
        };
        for _ in 0..=rng.index(3) {
            mutate(&mut odfs, &mut rng);
        }
        cases.push(Case::new(format!("mutated-{i:02}"), odfs));
    }
    cases
}

/// FNV-1a, folded over `text`.
fn fnv1a(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The case's digest, and the codes its certification fired.
fn digest(case: &Case, services: &ServiceTable) -> (u64, Vec<HvCode>) {
    let input = VerifyInput {
        odfs: &case.odfs,
        devices: &case.table,
        demands: case.demands.as_deref(),
        roots: case.roots.as_deref(),
    };
    let verified = verify(&input);
    let certified = certify(&CertifyInput {
        verify: input,
        services,
        overlay: case.overlay.as_ref(),
    });
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    fnv1a(&mut hash, &verified.to_json());
    fnv1a(&mut hash, &certified.report.to_json());
    fnv1a(&mut hash, &certified.certificate.to_json());
    let codes = certified
        .report
        .diagnostics
        .iter()
        .map(|d| d.code)
        .collect();
    (hash, codes)
}

/// Every code the six passes can emit.
const PASS_CODES: [HvCode; 24] = [
    HvCode::DuplicateGuid,
    HvCode::DanglingImport,
    HvCode::SelfImport,
    HvCode::DuplicateBindName,
    HvCode::DuplicateImport,
    HvCode::HostOnlyTargets,
    HvCode::UnsatisfiableTargetSpec,
    HvCode::NoFeasibleDevice,
    HvCode::GangCycle,
    HvCode::ConflictingEdges,
    HvCode::DisjointPull,
    HvCode::GangForcedHost,
    HvCode::DeviceOvercommit,
    HvCode::PotentialOvercommit,
    HvCode::OversizedOffcode,
    HvCode::ChannelDeadlock,
    HvCode::UnreachableOffcode,
    HvCode::QueueBoundExceedsRing,
    HvCode::UnstableChannel,
    HvCode::UtilizationOverrun,
    HvCode::UtilizationHigh,
    HvCode::DefaultedTraffic,
    HvCode::RingWriteRace,
    HvCode::MigrationAliasRace,
];

/// The pinned digests, in corpus order.
const GOLDEN: &[(&str, u64)] = &[
    ("tree-00-n4", 0xfeda6b7a1d215774),
    ("tree-01-n5", 0xe78a7c01ef24ee4f),
    ("tree-02-n6", 0x72e7fd3ecabcb754),
    ("tree-03-n7", 0x839df03af2708749),
    ("tree-04-n8", 0xc8c5528add2143d7),
    ("tree-05-n9", 0xac77ef4b3b7b28a8),
    ("tree-06-n10", 0x8ac9d04d2d9455a1),
    ("tree-07-n11", 0x786522154f1c5181),
    ("tree-08-n12", 0xa336da092f7b73d8),
    ("tree-09-n13", 0xb4440f74a9f0a56e),
    ("tree-10-n14", 0xb7204c6b2a0300bf),
    ("tree-11-n15", 0xc393199b1f8e2dd3),
    ("tree-12-n16", 0xef454eb3e80782fd),
    ("tree-13-n4", 0x25b530726e7899f5),
    ("tree-14-n5", 0xe60ef76ed8e156bc),
    ("tree-15-n6", 0x954530de51324734),
    ("tree-16-n7", 0x325c6fcf87805437),
    ("tree-17-n8", 0x43500e05f9cd966f),
    ("tree-18-n9", 0x7b4d34d11046a664),
    ("tree-19-n10", 0x9eec903903b7cec6),
    ("tree-20-n11", 0xe4e4b5de0d7a9bbf),
    ("tree-21-n12", 0x36d6a0512ac44f11),
    ("tree-22-n13", 0x08b3072eccd4885b),
    ("tree-23-n14", 0x4d018a31ee9ec787),
    ("tree-24-n15", 0x5c8fa5c12120d88b),
    ("tree-25-n16", 0x2a41f8e51dd0c950),
    ("valid-00-n2", 0xc29854de10491887),
    ("valid-01-n3", 0x430abc2f725bfb97),
    ("valid-02-n4", 0x0fc942d0c99414af),
    ("valid-03-n5", 0x73037823f15f397f),
    ("valid-04-n6", 0x420fb04a7f7f718f),
    ("valid-05-n2", 0xf6a53bacf0b8df07),
    ("valid-06-n3", 0xb8e33d3c6a14aaf9),
    ("valid-07-n4", 0x6555f8d79c2e5fd3),
    ("valid-08-n5", 0x3888c38bd7ee3c7f),
    ("valid-09-n6", 0xf036c5f8926d4c49),
    ("valid-10-n2", 0x30a9be164257a91b),
    ("valid-11-n3", 0xca1187d93c3ff50b),
    ("valid-12-n4", 0x7ed06e0cf10261db),
    ("valid-13-n5", 0xa40a1617451e84c1),
    ("valid-14-n6", 0x004e48226de906a8),
    ("valid-15-n2", 0xf6a53bacf0b8df07),
    ("valid-16-n3", 0x7c57a4db9ef98639),
    ("valid-17-n4", 0x14e29ca98eefc73b),
    ("valid-18-n5", 0x9c491b6b312d1688),
    ("valid-19-n6", 0x206358e92f762033),
    ("fixtures/certify/queue_overflow.xml", 0x8b0577c99952f287),
    ("fixtures/certify/ring_write_race.xml", 0x217a0210c137307b),
    (
        "fixtures/certify/utilization_overrun.xml",
        0x4575b80361fd22d5,
    ),
    ("fixtures/disjoint_pull.xml", 0x2adad85539320b37),
    ("fixtures/gang_cycle.xml", 0x92975709d04f2418),
    ("fixtures/overcommit.xml", 0x183ce1fa136ab635),
    ("builtin-demo", 0x5977f70688f49c11),
    ("builtin-tivo", 0x6944aa11d2446fae),
    ("builtin-stats", 0xad2c733cb9904b17),
    ("HV001-duplicate-guid", 0xfb339c74100d6aed),
    ("HV004-duplicate-bind-name", 0xe6c2d0a11f808363),
    ("HV002-HV003-dangling-and-self", 0xf237ed09fdb8d7b1),
    ("HV005-duplicate-import", 0xaee41bca452378c7),
    ("HV006-HV007-HV008-targets", 0x6c2b590e49b5f4ea),
    ("HV010-HV030-gang-cycle", 0x39666fd978cbb11d),
    ("HV030-link-cycle", 0xf4ab9a3b7d64452b),
    ("HV011-conflicting-edges", 0x107c9ca2af6c4499),
    ("HV012-HV013-placement-conflicts", 0x90385d0916c546dc),
    ("HV020-HV021-HV022-capacity", 0x006e65f5629a5544),
    ("HV031-unreachable", 0x88664bd42f521292),
    ("HV040-HV041-HV044-flow", 0xf9da2ca77d85aaf1),
    ("HV042-HV043-utilization", 0xf51b3db8f7a03bc3),
    ("HV050-HV051-ring-races", 0xace040fc16423979),
    ("HV050-HV051-backward-order", 0x35d0cfd363b6da5e),
    ("overlay-widened", 0xa06fea6cc7a73dc3),
    ("truncated-chains", 0xb20300495afd5fdd),
    ("wide-table-0", 0x9db66fa7546d38e4),
    ("wide-table-1", 0xd1cf5f29f639d39e),
    ("wide-table-2", 0x8bb5f5cec8438797),
    ("mutated-00", 0xe62645c07dd4d6dd),
    ("mutated-01", 0xc7a8c2f70de25e75),
    ("mutated-02", 0x904d9459b8971fe0),
    ("mutated-03", 0xedcdba0540c97f1a),
    ("mutated-04", 0xc7f44437d9a413e0),
    ("mutated-05", 0xe9a6c9adf3c86d67),
    ("mutated-06", 0xbd917c030c32ac04),
    ("mutated-07", 0xe827e301a49c706f),
    ("mutated-08", 0xdf88abc2967ea3ee),
    ("mutated-09", 0x61ec42e30e290724),
    ("mutated-10", 0x8b61e20f1a311037),
    ("mutated-11", 0xa5f3ed0d22ae4689),
    ("mutated-12", 0x04eba9200ed0f242),
    ("mutated-13", 0x145874f047e20e6c),
    ("mutated-14", 0x73b7291ed03590ba),
    ("mutated-15", 0x69db221b03d2cdde),
    ("mutated-16", 0x71c7c8597ce9c20b),
    ("mutated-17", 0x34840b8f921e377c),
    ("mutated-18", 0x181ef2d1b11c452f),
    ("mutated-19", 0x3c7927d261b7f351),
    ("mutated-20", 0x6581c2cc0a7aff33),
    ("mutated-21", 0xc6d2cbccacb8b629),
    ("mutated-22", 0x375588d35fee0c30),
    ("mutated-23", 0x544622f88e1a6d6f),
    ("mutated-24", 0xb884b1aacecb4267),
    ("mutated-25", 0xe0bc20f18cd414be),
    ("mutated-26", 0x536bafdc68b6cd16),
    ("mutated-27", 0x4da24d887572ac5b),
    ("mutated-28", 0xeeca0f43b927342d),
    ("mutated-29", 0x7bc01b73a714f256),
];

#[test]
fn verifier_output_matches_the_golden_digests() {
    let services = certify_service_table();
    let cases = corpus();
    let mut fired = BTreeSet::new();
    let mut got = Vec::new();
    for case in &cases {
        let (hash, codes) = digest(case, &services);
        fired.extend(codes);
        got.push((case.name.as_str(), hash));
    }
    let missing: Vec<_> = PASS_CODES.iter().filter(|c| !fired.contains(c)).collect();
    assert!(
        missing.is_empty(),
        "codes the corpus never fires: {missing:?}"
    );
    assert!(
        cases.iter().any(|c| c.overlay.is_some()),
        "an overlay-widened set is in the corpus"
    );
    let mut table = String::new();
    for (name, hash) in &got {
        writeln!(table, "    ({name:?}, {hash:#018x}),").unwrap();
    }
    assert_eq!(got.len(), GOLDEN.len(), "corpus size; digests:\n{table}");
    for ((name, hash), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "corpus order; digests:\n{table}");
        assert_eq!(
            hash, want,
            "set {name}: digest {hash:#018x}, golden {want:#018x}; digests:\n{table}"
        );
    }
}

/// The truncated set really hits the chain cap, and the overlay really
/// widens a bound, so their digests pin what they claim to.
#[test]
fn the_corpus_reaches_truncation_and_widening() {
    let services = certify_service_table();
    let cases = targeted();
    let run = |case: &Case, overlay: Option<&FaultOverlay>| {
        certify(&CertifyInput {
            verify: VerifyInput {
                odfs: &case.odfs,
                devices: &case.table,
                demands: case.demands.as_deref(),
                roots: case.roots.as_deref(),
            },
            services: &services,
            overlay,
        })
    };
    let truncated = cases.iter().find(|c| c.name == "truncated-chains").unwrap();
    let cert = run(truncated, None).certificate;
    assert!(cert.truncated);
    assert_eq!(cert.chains.len(), 64);
    let widened = cases.iter().find(|c| c.name == "overlay-widened").unwrap();
    let plain = run(widened, None).certificate;
    let wide = run(widened, widened.overlay.as_ref()).certificate;
    assert_ne!(plain, wide);
    assert!(plain
        .chains
        .iter()
        .zip(&wide.chains)
        .all(|(p, w)| p.latency_bound_ns <= w.latency_bound_ns));
    assert!(wide.to_json().len() > 100);
}

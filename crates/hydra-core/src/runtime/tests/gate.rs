use super::*;
use proptest::prelude::*;

fn register(
    rt: &mut Runtime,
    guid: u64,
    target: u32,
    imports: &[(u64, ConstraintKind)],
) -> Result<(), RuntimeError> {
    let name = format!("g.N{guid}");
    let mut odf =
        OdfDocument::new(name.clone(), Guid(guid)).with_target(DeviceClassSpec::numbered(target));
    for &(to, constraint) in imports {
        odf = odf.with_import(Import {
            file: String::new(),
            bind_name: format!("g.N{to}"),
            guid: Guid(to),
            constraint,
            priority: 0,
        });
    }
    rt.register_offcode(odf, move || Counter::boxed(guid, &name))
}

/// Guid 1 Pull-imports 2; 3 stands alone.
fn with_set() -> Runtime {
    let mut rt = runtime();
    let nic = class_ids::NETWORK;
    register(&mut rt, 1, nic, &[(2, ConstraintKind::Pull)]).unwrap();
    register(&mut rt, 2, nic, &[]).unwrap();
    register(&mut rt, 3, nic, &[]).unwrap();
    rt
}

/// Whether the gate would reuse a verdict for `root`'s closure now.
fn hit(rt: &Runtime, root: u64) -> bool {
    let order = rt.deployment_closure(Guid(root)).unwrap();
    rt.gate.holds(Guid(root), &order)
}

fn certify(rt: &Runtime, root: u64) {
    rt.certify_deployment(Guid(root), SimTime::ZERO).unwrap();
}

#[test]
fn certification_serves_the_next_gate_with_fresh_counters() {
    let mut cached = with_set();
    let mut fresh = with_set();
    for rt in [&mut cached, &mut fresh] {
        certify(rt, 1);
    }
    assert!(hit(&cached, 1));
    assert!(!hit(&cached, 3), "another root's closure is not served");
    fresh.gate = Gate::default();
    let a = cached.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    let b = fresh.create_offcode(Guid(1), SimTime::ZERO).unwrap();
    assert_eq!(a, b);
    assert_eq!(cached.metrics_snapshot(), fresh.metrics_snapshot());
}

#[test]
fn deploying_a_closure_member_misses() {
    // Guid 1's closure shrinks to [1]: a different key.
    let mut rt = with_set();
    certify(&rt, 1);
    assert!(hit(&rt, 1));
    rt.create_offcode(Guid(2), SimTime::ZERO).unwrap();
    assert!(!hit(&rt, 1));
}

#[test]
fn changes_outside_the_closure_keep_the_verdict() {
    // Registering guid 4 or deploying guid 3 leaves guid 1's closure,
    // and so every input of its passes, as it was.
    type Change = fn(&mut Runtime);
    let changes: [Change; 2] = [
        |rt| register(rt, 4, class_ids::NETWORK, &[]).unwrap(),
        |rt| {
            rt.create_offcode(Guid(3), SimTime::ZERO).unwrap();
        },
    ];
    for change in changes {
        let mut cached = with_set();
        let mut fresh = with_set();
        for rt in [&mut cached, &mut fresh] {
            certify(rt, 1);
            change(rt);
        }
        assert!(hit(&cached, 1));
        fresh.gate = Gate::default();
        let a = cached.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        let b = fresh.create_offcode(Guid(1), SimTime::ZERO).unwrap();
        assert_eq!(a, b);
        assert_eq!(cached.metrics_snapshot(), fresh.metrics_snapshot());
    }
}

#[test]
fn provider_change_leaves_the_gate_hit() {
    // The structural passes never read the provider table.
    let mut rt = with_set();
    certify(&rt, 1);
    crate::providers::install_extras(rt.executive_mut());
    assert!(hit(&rt, 1));
}

/// Registers Offcode `guid` of a random five-Offcode set: it may
/// import any other with a random constraint and runs on a
/// random device class, so closures overlap and some verdicts
/// carry errors.
fn random_set(rt: &mut Runtime, bits: u64, guid: u64) -> Result<(), RuntimeError> {
    let mut b = bits.rotate_left(guid as u32 * 13);
    let mut imports = Vec::new();
    for to in (1..=5).filter(|&to| to != guid) {
        let kind = match b & 15 {
            0 => Some(ConstraintKind::Pull),
            1 => Some(ConstraintKind::Gang),
            2 => Some(ConstraintKind::AsymGang),
            3 => Some(ConstraintKind::Link),
            _ => None,
        };
        b >>= 4;
        imports.extend(kind.map(|k| (to, k)));
    }
    let target = [class_ids::NETWORK, class_ids::STORAGE, class_ids::GPU][(b % 3) as usize];
    register(rt, guid, target, &imports)
}

/// Applies one encoded operation; `fresh` empties the gate before
/// every `create_offcode`. Returns the operation's outcome.
fn apply(rt: &mut Runtime, bits: u64, op: u32, fresh: bool) -> String {
    let guid = u64::from(op / 8 % 5) + 1;
    let now = SimTime::ZERO;
    let create = |rt: &mut Runtime, guid: u64| {
        if fresh {
            rt.gate = Gate::default();
        }
        format!("{:?}", rt.create_offcode(Guid(guid), now))
    };
    let certify = |rt: &mut Runtime| format!("{:?}", rt.certify_deployment(Guid(guid), now));
    match op % 8 {
        0 => format!("{:?}", random_set(rt, bits, guid)),
        1 => certify(rt),
        2 => create(rt, guid),
        3 => certify(rt) + &create(rt, guid),
        4 => {
            // Certify a root, deploy a member of its closure, then create
            // the root: the verdict's root still matches, its closure no
            // longer does.
            let c = certify(rt);
            let member = rt.deployment_closure(Guid(guid)).ok().and_then(|order| {
                let members = order.get(1..).filter(|m| !m.is_empty())?;
                Some(members[op as usize / 40 % members.len()])
            });
            let m = member.map_or_else(String::new, |m| create(rt, m.0));
            c + &m + &create(rt, guid)
        }
        5 => format!("{:?}", rt.get_offcode(Guid(guid)).map(|id| rt.teardown(id))),
        6 => {
            // Leaves the verdict standing on the cached side.
            crate::providers::install_extras(rt.executive_mut());
            String::new()
        }
        _ => {
            let target = DeviceId(op / 40 % 4);
            let moved = rt
                .get_offcode(Guid(guid))
                .map(|id| rt.migrate(id, target, now));
            format!("{moved:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_gate_matches_a_fresh_gate(
        bits in any::<u64>(),
        ops in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut cached = runtime();
        let mut fresh = runtime();
        for guid in 1..=5 {
            if bits >> (58 + guid) & 1 == 1 || bits & 3 != 0 {
                random_set(&mut cached, bits, guid).unwrap();
                random_set(&mut fresh, bits, guid).unwrap();
            }
        }
        for &op in &ops {
            let a = apply(&mut cached, bits, op, false);
            let b = apply(&mut fresh, bits, op, true);
            prop_assert_eq!(&a, &b, "op {}", op);
            prop_assert_eq!(cached.metrics_snapshot(), fresh.metrics_snapshot());
        }
    }
}

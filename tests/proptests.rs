//! Property-based tests over the workspace's core data structures and
//! invariants.

use bytes::Bytes;
use proptest::prelude::*;

use hydra::core::call::{Call, Value};
use hydra::hw::cache::{AccessKind, AccessOutcome, Cache, CacheConfig};
use hydra::ilp::model::{Direction, Problem, Sense};
use hydra::ilp::{solve_by_enumeration, solve_ilp, Outcome};
use hydra::link::object::{HofObject, Section, Symbol, SymbolKind};
use hydra::media::codec::{CodecConfig, Decoder, Encoder, GopConfig};
use hydra::media::entropy::{
    decode_block, encode_block, get_varint, put_varint, zz_decode, zz_encode,
};
use hydra::media::frame::RawFrame;
use hydra::media::transform::{dequantize, forward, inverse, quantize};
use hydra::odf::odf::{
    ConstraintKind, DeploymentFile, DeviceClassSpec, Guid, Import, OdfDocument, TrafficSpec,
};
use hydra::odf::wsdl::{InterfaceSpec, OperationSpec, TypeTag};

/// Infixes for the ODF round trip's text fields: none, characters the
/// serializer must escape, and non-ASCII text.
const ODF_DECOR: &[&str] = &["", "&", "<", "\"", "'", ">", "a&b<c\"d", "é", "日本", "Δ-ñ"];

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<u32>().prop_map(Value::U32),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(|v| Value::Bytes(Bytes::from(v))),
        "[a-zA-Z0-9 _-]{0,64}".prop_map(Value::Str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- call marshaling ------------------------------------------------

    #[test]
    fn call_round_trips(
        guid in any::<u64>(),
        op in "[a-z_]{1,24}",
        ret in any::<u64>(),
        args in proptest::collection::vec(value_strategy(), 0..8),
    ) {
        let mut call = Call::new(Guid(guid), op).with_return_id(ret);
        call.args = args;
        let wire = call.encode();
        prop_assert_eq!(wire.len(), call.wire_size());
        let decoded = Call::decode(wire).expect("round trip");
        prop_assert_eq!(decoded, call);
    }

    #[test]
    fn call_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Call::decode(Bytes::from(raw));
    }

    // ---- varints / zigzag ----------------------------------------------

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = bytes::BytesMut::new();
        put_varint(&mut buf, v);
        let mut raw = buf.freeze();
        prop_assert_eq!(get_varint(&mut raw).expect("valid varint"), v);
        prop_assert!(raw.is_empty());
    }

    #[test]
    fn zigzag_round_trips(v in any::<i64>()) {
        prop_assert_eq!(zz_decode(zz_encode(v)), v);
    }

    // ---- transform / entropy --------------------------------------------

    #[test]
    fn transform_pair_is_identity(vals in proptest::collection::vec(-255i32..=255, 64)) {
        let mut block = [0i32; 64];
        block.copy_from_slice(&vals);
        let original = block;
        forward(&mut block);
        inverse(&mut block);
        prop_assert_eq!(block, original);
    }

    #[test]
    fn quantize_error_bounded(
        vals in proptest::collection::vec(-20_000i32..=20_000, 64),
        q in 1u16..=64,
    ) {
        let mut block = [0i32; 64];
        block.copy_from_slice(&vals);
        let original = block;
        quantize(&mut block, q);
        dequantize(&mut block, q);
        for (a, b) in original.iter().zip(&block) {
            prop_assert!((a - b).abs() <= i32::from(q) / 2 + 1);
        }
    }

    #[test]
    fn entropy_block_round_trips(vals in proptest::collection::vec(-1000i32..=1000, 64)) {
        let mut block = [0i32; 64];
        block.copy_from_slice(&vals);
        let mut buf = bytes::BytesMut::new();
        encode_block(&mut buf, &block);
        let mut out = [0i32; 64];
        decode_block(&mut buf.freeze(), &mut out).expect("round trip");
        prop_assert_eq!(out, block);
    }

    #[test]
    fn entropy_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_block(&mut Bytes::from(raw), &mut [0i32; 64]);
    }

    // ---- codec -----------------------------------------------------------

    #[test]
    fn codec_lossless_at_q1(seed in 0u64..1000, n in 1u64..6) {
        let video = hydra::media::frame::SyntheticVideo::new(16, 16);
        let frames: Vec<RawFrame> = (0..n).map(|i| video.frame(seed + i)).collect();
        let stream = Encoder::new(CodecConfig { quantizer: 1, gop: GopConfig::ipp() })
            .encode_sequence(&frames);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for f in &stream {
            out.extend(dec.push(f).expect("valid stream"));
        }
        out.extend(dec.flush());
        out.sort_by_key(|(i, _)| *i);
        let decoded: Vec<RawFrame> = out.into_iter().map(|(_, f)| f).collect();
        prop_assert_eq!(decoded, frames);
    }

    // ---- cache ------------------------------------------------------------

    #[test]
    fn cache_hit_after_fill(addrs in proptest::collection::vec(0u64..1u64 << 20, 1..64)) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 64,
            ways: 4,
        });
        for &a in &addrs {
            cache.access(a, AccessKind::Read);
            // Immediately after an access the line must be present.
            prop_assert_eq!(cache.access(a, AccessKind::Read), AccessOutcome::Hit);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64 * 2);
        prop_assert!(stats.misses <= addrs.len() as u64);
        prop_assert!(cache.resident_lines() <= 16 * 1024 / 64);
    }

    #[test]
    fn cache_miss_count_bounded_by_unique_lines(
        addrs in proptest::collection::vec(0u64..1u64 << 14, 1..256),
    ) {
        // A cache at least as large as the address space never conflicts:
        // misses == unique lines touched.
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
        });
        let mut unique = std::collections::HashSet::new();
        for &a in &addrs {
            cache.access(a, AccessKind::Read);
            unique.insert(a / 64);
        }
        prop_assert_eq!(cache.stats().misses, unique.len() as u64);
    }

    // ---- ODF / XML ---------------------------------------------------------

    #[test]
    fn odf_round_trips(
        guid in 1u64..1u64 << 48,
        name in "[a-zA-Z][a-zA-Z0-9.]{0,32}",
        decor in 0usize..ODF_DECOR.len(),
        n_imports in 0usize..4,
        n_targets in 0usize..3,
        n_interfaces in 0usize..3,
        priority in any::<u8>(),
        class_id in any::<u32>(),
        optional in any::<u8>(),
        footprint in any::<u64>(),
        rate in any::<u64>(),
        burst in 1u64..u64::MAX,
        max_bytes in any::<u64>(),
    ) {
        // Text that needs escaping or is not ASCII, inside the value: the
        // reader trims whitespace and strips quotes at either end.
        let text = |tail: &str| format!("x{}{tail}", ODF_DECOR[decor]);
        let mut odf = OdfDocument::new(text(&name), Guid(guid));
        for i in 0..n_interfaces {
            odf = odf.with_interface(text(&format!("/offcodes/i{i}.wsdl")));
        }
        for i in 0..n_imports {
            odf = odf.with_import(Import {
                file: if (optional >> i) & 1 == 0 {
                    text(&format!("/offcodes/dep{i}.odf"))
                } else {
                    String::new()
                },
                bind_name: text(&format!("dep{i}")),
                guid: Guid(guid + 1 + i as u64),
                constraint: match i % 4 {
                    0 => ConstraintKind::Link,
                    1 => ConstraintKind::Pull,
                    2 => ConstraintKind::Gang,
                    _ => ConstraintKind::AsymGang,
                },
                priority: priority.wrapping_add(i as u8),
            });
        }
        for t in 0..n_targets {
            let has = |bit: usize| (optional >> (t + bit)) & 1 == 1;
            odf = odf.with_target(DeviceClassSpec {
                id: class_id.wrapping_add(t as u32),
                name: text(&format!("class{t}")),
                bus: has(0).then(|| text("pci")),
                mac: has(1).then(|| text("ethernet")),
                vendor: has(2).then(|| text("3COM")),
            });
        }
        if optional & 0x40 != 0 {
            odf = odf.with_footprint(footprint);
        }
        if optional & 0x80 != 0 {
            odf = odf.with_traffic(TrafficSpec { rate_per_sec: rate, burst, max_bytes });
        }
        let re = OdfDocument::parse(&odf.to_xml()).expect("round trip");
        prop_assert_eq!(re, odf);
    }

    #[test]
    fn odf_and_wsdl_parse_never_panic_on_mutated_text(
        guid in any::<u64>(),
        wsdl in any::<bool>(),
        positions in proptest::collection::vec(any::<usize>(), 1..4),
        len in 0usize..12,
        junk in "[<>/=&;#x!?\"' a-c\n-]{0,6}",
    ) {
        let text = if wsdl {
            InterfaceSpec::new("I&<\"é", Guid(guid))
                .with_operation(OperationSpec {
                    name: "send".into(),
                    inputs: vec![("data".into(), TypeTag::Bytes)],
                    output: TypeTag::U32,
                })
                .to_xml()
        } else {
            OdfDocument::new("a&<\"é", Guid(guid))
                .with_interface("/i.wsdl")
                .with_import(Import {
                    file: "/dep.odf".into(),
                    bind_name: "dep".into(),
                    guid: Guid(guid ^ 1),
                    constraint: ConstraintKind::Pull,
                    priority: 255,
                })
                .with_target(DeviceClassSpec::host_cpu())
                .with_footprint(guid)
                .with_traffic(TrafficSpec { rate_per_sec: 1, burst: 2, max_bytes: 3 })
                .to_xml()
        };
        let mut bytes = text.into_bytes();
        // Replace `len` bytes with `junk` at each position.
        for at in positions {
            let at = at % (bytes.len() + 1);
            let end = (at + len).min(bytes.len());
            bytes.splice(at..end, junk.bytes());
        }
        let doc = String::from_utf8_lossy(&bytes);
        // Either a document or a typed error with a message.
        if let Err(e) = OdfDocument::parse(&doc) {
            prop_assert!(!e.to_string().is_empty());
        }
        if let Err(e) = InterfaceSpec::parse(&doc) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Text goes out escaped and comes back exact: through an attribute
    /// (an interface name) and through text (an ODF bind name, fenced
    /// by `x` so that the reader's trim leaves it whole).
    #[test]
    fn xml_text_escaping_round_trips(text in "[ -~]{0,64}") {
        let spec = InterfaceSpec::new(text.clone(), Guid(1));
        let parsed = InterfaceSpec::parse(&spec.to_xml()).expect("writer output parses");
        prop_assert_eq!(parsed.name, text.as_str());
        let fenced = format!("x{text}x");
        let odf = OdfDocument::new(fenced.clone(), Guid(1));
        let parsed = OdfDocument::parse(&odf.to_xml()).expect("writer output parses");
        prop_assert_eq!(parsed.bind_name, fenced);
    }

    #[test]
    fn xml_parse_never_panics(doc in "[ -~]{0,128}") {
        let _ = DeploymentFile::parse(&doc);
        let _ = InterfaceSpec::parse(&doc);
    }

    // ---- HOF objects ---------------------------------------------------------

    #[test]
    fn hof_round_trips(
        name in "[a-z.]{1,24}",
        text_len in 0usize..512,
        data_len in 0usize..256,
        bss in 0u32..4096,
    ) {
        let obj = HofObject::new(name)
            .with_section(Section::text(vec![0xAB; text_len]))
            .with_section(Section::data(vec![0xCD; data_len]))
            .with_section(Section::bss(bss))
            .with_symbol(Symbol {
                name: "entry".into(),
                kind: SymbolKind::Defined { section: 0, offset: 0 },
            });
        let decoded = HofObject::decode(obj.encode()).expect("round trip");
        prop_assert_eq!(decoded, obj);
    }

    #[test]
    fn hof_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = HofObject::decode(Bytes::from(raw));
    }

    // ---- ILP -------------------------------------------------------------------

    #[test]
    fn bnb_matches_enumeration(
        n in 2usize..7,
        seed in any::<u64>(),
    ) {
        let mut rng = hydra::sim::rng::DetRng::new(seed);
        let mut p = Problem::new(if seed.is_multiple_of(2) { Direction::Maximize } else { Direction::Minimize });
        let vars: Vec<_> = (0..n).map(|i| p.add_binary(&format!("x{i}"))).collect();
        p.set_objective(vars.iter().map(|&v| (v, rng.normal(0.0, 3.0))).collect());
        for c in 0..2 + n / 2 {
            let terms: Vec<_> = vars.iter().map(|&v| (v, rng.normal(0.0, 2.0))).collect();
            let sense = if rng.chance(0.5) { Sense::Le } else { Sense::Ge };
            p.add_constraint(&format!("c{c}"), terms, sense, rng.normal(0.0, 2.0));
        }
        let exact = solve_ilp(&p).outcome;
        let brute = solve_by_enumeration(&p);
        match (&exact, &brute) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                prop_assert!((a.objective - b.objective).abs() < 1e-6,
                    "bnb {} vs brute {}", a.objective, b.objective);
                prop_assert!(p.check_feasible(&a.values, 1e-6).is_ok());
            }
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            other => prop_assert!(false, "mismatch: {other:?}"),
        }
    }
}

//! Pins the bits of the paper's TiVoPC workload that the fast cache and
//! codec kernels produce.
//!
//! One FNV-1a digest folds every [`EncodedFrame`] of the client's looping
//! stream (`ClientConfig::paper` geometry) and the final host-L2
//! [`CacheStats`] of the three client and four server scenarios (3 s
//! simulated, seed 7). The digest was recorded with the nested-`Vec`
//! cache and the division-based `quantize`, before either was replaced,
//! so any change to a stream byte, an LRU victim or a write-back count
//! moves it.

use hydra::hw::cache::CacheStats;
use hydra::media::codec::{EncodedFrame, FrameKind};
use hydra::sim::time::SimDuration;
use hydra::tivo::{
    run_client, run_server, stream_frames, ClientConfig, ClientKind, ServerConfig, ServerKind,
};

const SEED: u64 = 7;
const DURATION: SimDuration = SimDuration::from_secs(3);

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn frame(&mut self, f: &EncodedFrame) {
        let kind = match f.kind {
            FrameKind::I => 0,
            FrameKind::P => 1,
            FrameKind::B => 2,
        };
        for v in [
            kind,
            f.display_index,
            u64::from(f.width),
            u64::from(f.height),
            u64::from(f.quantizer),
            u64::from(f.coded_blocks),
            u64::from(f.nonzero_coeffs),
            f.data.len() as u64,
        ] {
            self.word(v);
        }
        self.bytes(&f.data);
    }

    fn stats(&mut self, s: CacheStats) {
        for v in [s.hits, s.misses, s.write_backs, s.evictions] {
            self.word(v);
        }
    }
}

#[test]
fn stream_and_l2_counters_are_pinned() {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let frames = stream_frames(&ClientConfig::paper(ClientKind::UserSpace, SEED));
    assert_eq!(frames.len(), 50);
    for f in &frames {
        d.frame(f);
    }
    for kind in ClientKind::all() {
        let mut cfg = ClientConfig::paper(kind, SEED);
        cfg.duration = DURATION;
        let run = run_client(cfg);
        assert!(
            run.l2.accesses() > 0,
            "{kind:?}: the host L2 saw no traffic"
        );
        d.stats(run.l2);
    }
    for kind in ServerKind::all() {
        let mut cfg = ServerConfig::paper(kind, SEED);
        cfg.duration = DURATION;
        let run = run_server(cfg);
        assert!(
            run.l2.accesses() > 0,
            "{kind:?}: the host L2 saw no traffic"
        );
        d.stats(run.l2);
    }
    assert_eq!(
        d.0, 0xa714_9e3d_dd57_4c30,
        "TiVoPC digest moved: a stream byte or an L2 counter changed"
    );
}

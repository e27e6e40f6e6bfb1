//! Trace-content pins: an FNV-1a fingerprint of every generated program
//! — instructions, block offsets, home-core assignment, request tags and
//! arrivals — for each workload family under each layout, plus one
//! partitioned mix, one interleaved mix and one serve set, at small
//! sizes.
//!
//! The simulator goldens (`tests/golden.rs`) prove the simulated
//! numbers hold; these prove trace generation is byte-identical on its
//! own, so a change to how traces are built or stored can be checked
//! without running a cycle. An intentional trace change must re-pin the
//! affected rows (printed by `cargo test --test trace_pin -- --nocapture`
//! on failure) and say why.

use std::sync::Arc;

use llamcat_sim::prog::{Instr, Program};
use llamcat_trace::mapping::Layout;
use llamcat_trace::mix::{generate_serve_set, MixAssignment, WorkloadMix};
use llamcat_trace::tracegen::TraceGenConfig;
use llamcat_trace::workloads::{Workload, WorkloadSpec};

/// 64-bit FNV-1a over a little-endian byte encoding.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fingerprint(p: &Program) -> u64 {
    let mut h = Fnv::new();
    h.u64(p.num_blocks() as u64);
    for &offset in p.blocks.offsets() {
        h.u32(offset);
    }
    for i in p.blocks.instrs() {
        match *i {
            Instr::Compute { cycles } => {
                h.u8(0);
                h.u32(cycles);
            }
            Instr::Load { addr, bytes } => {
                h.u8(1);
                h.u64(addr);
                h.u32(bytes);
            }
            Instr::Store { addr, bytes } => {
                h.u8(2);
                h.u64(addr);
                h.u32(bytes);
            }
            Instr::Barrier => h.u8(3),
        }
    }
    for &core in &p.assignment {
        h.u64(core as u64);
    }
    h.u64(p.request_tags.len() as u64);
    for &tag in &p.request_tags {
        h.u32(tag);
    }
    h.u64(p.arrivals.len() as u64);
    for &arrival in &p.arrivals {
        h.u64(arrival);
    }
    h.0
}

/// One small instance of every `WorkloadSpec` family.
fn families() -> [(&'static str, WorkloadSpec); 5] {
    [
        (
            "logit",
            WorkloadSpec::Logit {
                heads: 2,
                group_size: 4,
                head_dim: 128,
            },
        ),
        (
            "attn-out",
            WorkloadSpec::AttnOutput {
                heads: 2,
                group_size: 4,
                head_dim: 128,
            },
        ),
        (
            "prefill",
            WorkloadSpec::PrefillLogit {
                heads: 2,
                group_size: 2,
                head_dim: 128,
                query_tokens: 4,
            },
        ),
        (
            "sharedpfx",
            WorkloadSpec::SharedPrefix {
                heads: 2,
                group_size: 4,
                head_dim: 128,
                prefix_len: 64,
            },
        ),
        (
            "gqa-decode",
            WorkloadSpec::GqaDecode {
                heads: 2,
                group_size: 4,
                head_dim: 128,
            },
        ),
    ]
}

const LAYOUTS: [Layout; 4] = [
    Layout::PairStream,
    Layout::Spatial,
    Layout::RoundRobinGInner,
    Layout::RoundRobinLInner,
];

/// (family, layout, fingerprint) at seq 128, l_tile 32, 16 cores.
const SOLO: [(&str, Layout, u64); 20] = [
    ("logit", Layout::PairStream, 0xd74e2900a073b720),
    ("logit", Layout::Spatial, 0x715568ac429eb020),
    ("logit", Layout::RoundRobinGInner, 0x8f9858a9442d4f50),
    ("logit", Layout::RoundRobinLInner, 0x715568ac429eb020),
    ("attn-out", Layout::PairStream, 0x245a305ceb512650),
    ("attn-out", Layout::Spatial, 0xbe6170088d7c1f50),
    ("attn-out", Layout::RoundRobinGInner, 0xf89d5e165b16a520),
    ("attn-out", Layout::RoundRobinLInner, 0xbe6170088d7c1f50),
    ("prefill", Layout::PairStream, 0x42cee440b9ec450e),
    ("prefill", Layout::Spatial, 0xa58f711259501b8e),
    ("prefill", Layout::RoundRobinGInner, 0x4102cb3be03100ee),
    ("prefill", Layout::RoundRobinLInner, 0xc756b4b251ebd78e),
    ("sharedpfx", Layout::PairStream, 0x390ce1bbc440d860),
    ("sharedpfx", Layout::Spatial, 0xd3142167666bd160),
    ("sharedpfx", Layout::RoundRobinGInner, 0xac877a0049538050),
    ("sharedpfx", Layout::RoundRobinLInner, 0xd3142167666bd160),
    ("gqa-decode", Layout::PairStream, 0x0b0429abf2e41db8),
    ("gqa-decode", Layout::Spatial, 0xda628509d26e06b8),
    ("gqa-decode", Layout::RoundRobinGInner, 0x0318fc0a0a929be8),
    ("gqa-decode", Layout::RoundRobinLInner, 0xda628509d26e06b8),
];

const PARTITIONED_MIX: u64 = 0xfddfc9a563e3b2be;
const INTERLEAVED_MIX: u64 = 0xab0007b25b4a1c7d;
const SERVE_SET: u64 = 0x8e3dcc11accb1616;

#[test]
fn every_workload_family_generates_its_pinned_trace() {
    let cfg = TraceGenConfig::default();
    let mut got = Vec::new();
    for (name, spec) in families() {
        let w = spec.instantiate(128);
        for layout in LAYOUTS {
            let (p, meta) = w.generate(&w.mapping(layout, 32, cfg.num_cores), &cfg);
            assert_eq!(meta.num_blocks, p.num_blocks());
            got.push((name, layout, fingerprint(&p)));
        }
    }
    for row in &got {
        println!("    (\"{}\", Layout::{:?}, {:#018x}),", row.0, row.1, row.2);
    }
    assert_eq!(got, SOLO);
}

/// Three heterogeneous tenants: decode Logit, a shorter prefill chunk
/// and a shared-prefix decode (whose prefix lines skip relocation).
fn tenants() -> [Arc<dyn Workload>; 3] {
    let [logit, _, prefill, shared, _] = families().map(|(_, spec)| spec);
    [
        logit.instantiate(128),
        prefill.instantiate(64),
        shared.instantiate(128),
    ]
}

#[test]
fn mixes_and_serve_sets_compose_their_pinned_traces() {
    let cfg = TraceGenConfig::default();
    let [a, b, c] = tenants();
    let partitioned = WorkloadMix::new(MixAssignment::Partitioned)
        .request(a.clone(), 0)
        .request(b.clone(), 300)
        .request(c.clone(), 0);
    let (p, _) = partitioned.generate(Layout::PairStream, 32, &cfg).unwrap();
    let part = fingerprint(&p);

    let interleaved = WorkloadMix::new(MixAssignment::Interleaved)
        .request(a.clone(), 0)
        .request(b.clone(), 700)
        .request(c.clone(), 50);
    let (p, _) = interleaved.generate(Layout::Spatial, 32, &cfg).unwrap();
    let ilv = fingerprint(&p);

    let (p, _) = generate_serve_set(&[a, b, c], 4, Layout::PairStream, 32, &cfg).unwrap();
    let serve = fingerprint(&p);

    println!("partitioned {part:#018x}, interleaved {ilv:#018x}, serve {serve:#018x}");
    assert_eq!(
        (part, ilv, serve),
        (PARTITIONED_MIX, INTERLEAVED_MIX, SERVE_SET)
    );
}

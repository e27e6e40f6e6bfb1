//! Executable trace representation: thread blocks of vector instructions.
//!
//! The hybrid framework (Section 5 of the paper) drives each simulated
//! vector core with a memory trace: "cycles of each non-memory
//! operations, memory access addresses, R/W". A trace is partitioned
//! into *thread blocks* — the unit the runtime scheduler assigns to
//! instruction windows and migrates between cores.
//!
//! A [`Program`] stores its blocks as one flat [`BlockTable`]: every
//! instruction in a single contiguous array plus a `u32` offset per
//! block. Trace generation appends to that table directly, the
//! simulator's issue path reads it in place (one offset lookup, then a
//! slice), and a scenario's snapshots and forks share it through one
//! `Arc` — the trace exists exactly once.

use serde::{Deserialize, Error, Serialize, Value};

use crate::types::{Addr, Cycle};

/// One vector instruction of a thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Non-memory work occupying the vector unit for `cycles`.
    Compute { cycles: u32 },
    /// Vector load of `bytes` starting at `addr` (split into line
    /// requests by the L1).
    Load { addr: Addr, bytes: u32 },
    /// Vector store of `bytes` at `addr` (posted; write-through).
    Store { addr: Addr, bytes: u32 },
    /// Wait until all outstanding loads of this thread block returned
    /// (reduction barrier before dependent stores).
    Barrier,
}

/// Bytes loaded and bytes stored by `instrs`.
pub fn traffic(instrs: &[Instr]) -> (u64, u64) {
    instrs.iter().fold((0, 0), |(load, store), i| match *i {
        Instr::Load { bytes, .. } => (load + bytes as u64, store),
        Instr::Store { bytes, .. } => (load, store + bytes as u64),
        Instr::Compute { .. } | Instr::Barrier => (load, store),
    })
}

/// One thread block as a standalone value: a short sequence of
/// instructions covering 1–2 output cache lines (Section 6.2.2).
///
/// Programs do not store blocks this way (see [`BlockTable`]); a
/// `Vec<ThreadBlock>` is the convenient input for hand-built programs
/// ([`Program::new`]) and the record of the JSON trace format.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadBlock {
    pub instrs: Vec<Instr>,
}

/// Identifier of a thread block within a [`Program`].
pub type TbId = usize;

/// The thread blocks of a program as one flat instruction table: all
/// instructions in one contiguous array, `start[tb]..start[tb + 1]`
/// delimiting block `tb`. The per-cycle issue path costs one load from
/// the dense offset table, where a `Vec` per block would cost two
/// dependent pointer loads per instruction fetch and one heap
/// allocation per block at generation time.
///
/// Serializes as the nested `[{"instrs": [...]}, ...]` block list, so
/// the JSON trace format is independent of this layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTable {
    instrs: Vec<Instr>,
    /// Block boundaries; `start[0] == 0`, one more entry than blocks.
    start: Vec<u32>,
}

impl Default for BlockTable {
    fn default() -> Self {
        BlockTable::with_capacity(0, 0)
    }
}

impl BlockTable {
    /// An empty table with room for `blocks` blocks of `instrs`
    /// instructions in total.
    pub fn with_capacity(blocks: usize, instrs: usize) -> Self {
        let mut start = Vec::with_capacity(blocks + 1);
        start.push(0);
        BlockTable {
            instrs: Vec::with_capacity(instrs),
            start,
        }
    }

    /// Reserves room for `blocks` more blocks of `instrs` more
    /// instructions in total.
    pub fn reserve(&mut self, blocks: usize, instrs: usize) {
        self.start.reserve(blocks);
        self.instrs.reserve(instrs);
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block `tb`'s instructions.
    #[inline]
    pub fn block(&self, tb: TbId) -> &[Instr] {
        &self.instrs[self.start[tb] as usize..self.start[tb + 1] as usize]
    }

    /// Every block's instructions, in block order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Instr]> + '_ {
        self.start
            .windows(2)
            .map(|w| &self.instrs[w[0] as usize..w[1] as usize])
    }

    /// The whole instruction stream, blocks back to back.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The block boundaries: `offsets()[tb]..offsets()[tb + 1]` is
    /// block `tb`'s range of [`BlockTable::instrs`].
    pub fn offsets(&self) -> &[u32] {
        &self.start
    }

    /// The instructions of blocks `first..`, for in-place rewriting
    /// (block lengths and boundaries cannot change through it).
    pub fn instrs_from_mut(&mut self, first: TbId) -> &mut [Instr] {
        &mut self.instrs[self.start[first] as usize..]
    }

    /// Appends a block whose instructions `build` pushes onto the end
    /// of the stream, and returns the new block. `build` must only
    /// append.
    ///
    /// Panics if the stream outgrows the `u32` offsets.
    pub fn push_with(&mut self, build: impl FnOnce(&mut Vec<Instr>)) -> &[Instr] {
        let first = self.instrs.len();
        build(&mut self.instrs);
        debug_assert!(self.instrs.len() >= first, "block builders only append");
        let end = u32::try_from(self.instrs.len()).expect("instruction table exceeds u32 offsets");
        self.start.push(end);
        &self.instrs[first..]
    }

    /// Appends a copy of `instrs` as a new block.
    pub fn push(&mut self, instrs: &[Instr]) {
        self.push_with(|out| out.extend_from_slice(instrs));
    }
}

impl From<Vec<ThreadBlock>> for BlockTable {
    fn from(blocks: Vec<ThreadBlock>) -> Self {
        let total = blocks.iter().map(|b| b.instrs.len()).sum();
        let mut table = BlockTable::with_capacity(blocks.len(), total);
        for b in &blocks {
            table.push(&b.instrs);
        }
        table
    }
}

impl Serialize for BlockTable {
    fn to_value(&self) -> Value {
        let blocks: Vec<ThreadBlock> = self
            .iter()
            .map(|instrs| ThreadBlock {
                instrs: instrs.to_vec(),
            })
            .collect();
        blocks.to_value()
    }
}

impl Deserialize for BlockTable {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<ThreadBlock>::from_value(v).map(BlockTable::from)
    }
}

/// Issue-path view of a [`Program`], kept for callers written when the
/// simulator built a separate flattened copy of the program. The
/// program's [`BlockTable`] is that layout now, so this is a borrow:
/// building one costs nothing and copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct FlatProgram<'a> {
    pub program: &'a Program,
}

impl<'a> FlatProgram<'a> {
    pub fn new(program: &'a Program) -> Self {
        FlatProgram { program }
    }
}

/// Identifier of a serving request (tenant) within a [`Program`].
///
/// Solo traces are request 0 throughout; multi-tenant mixes tag every
/// thread block with the request that produced it so the simulator can
/// attribute completion and LLC behavior per request.
pub type RequestId = u32;

/// A complete operator trace: thread blocks plus their initial
/// assignment to cores.
///
/// `assignment[i]` is the home core of block `i`; the runtime scheduler
/// may migrate blocks to other cores when their home core falls behind.
///
/// `request_tags[i]` / `arrivals[i]` tag block `i` with the serving
/// request it belongs to and the cycle at which that request arrives
/// (blocks are not schedulable before their arrival). Both vectors are
/// optional: empty means "one request, present from cycle 0" — the
/// solo-trace legacy encoding, byte-compatible with pre-mix programs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Program {
    pub blocks: BlockTable,
    pub assignment: Vec<usize>,
    /// Per-block request id; empty = all blocks belong to request 0.
    #[serde(default)]
    pub request_tags: Vec<RequestId>,
    /// Per-block release cycle; empty = all blocks available at cycle 0.
    #[serde(default)]
    pub arrivals: Vec<Cycle>,
}

impl Program {
    pub fn new(blocks: impl Into<BlockTable>, assignment: Vec<usize>) -> Self {
        Program::with_requests(blocks, assignment, Vec::new(), Vec::new())
    }

    /// A fully tagged multi-tenant program. `request_tags` and
    /// `arrivals` must either match `blocks` in length or be empty
    /// (the solo defaults).
    pub fn with_requests(
        blocks: impl Into<BlockTable>,
        assignment: Vec<usize>,
        request_tags: Vec<RequestId>,
        arrivals: Vec<Cycle>,
    ) -> Self {
        let blocks = blocks.into();
        assert_eq!(blocks.len(), assignment.len());
        assert!(request_tags.is_empty() || request_tags.len() == blocks.len());
        assert!(arrivals.is_empty() || arrivals.len() == blocks.len());
        Program {
            blocks,
            assignment,
            request_tags,
            arrivals,
        }
    }

    /// Round-robin assignment of `blocks` over `num_cores` cores, in
    /// block order (consecutive blocks land on consecutive cores, which
    /// is what keeps GQA-sharing blocks temporally close).
    pub fn round_robin(blocks: impl Into<BlockTable>, num_cores: usize) -> Self {
        let blocks = blocks.into();
        let assignment = (0..blocks.len()).map(|i| i % num_cores).collect();
        Program::new(blocks, assignment)
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block `tb`'s instructions.
    #[inline]
    pub fn block(&self, tb: TbId) -> &[Instr] {
        self.blocks.block(tb)
    }

    /// Request that thread block `tb` belongs to (0 for solo traces).
    #[inline]
    pub fn request_of(&self, tb: TbId) -> RequestId {
        self.request_tags.get(tb).copied().unwrap_or(0)
    }
    /// Cycle at which thread block `tb` becomes schedulable.
    #[inline]
    pub fn arrival_of(&self, tb: TbId) -> Cycle {
        self.arrivals.get(tb).copied().unwrap_or(0)
    }

    /// Number of requests in the trace: `max(tag) + 1`, or 1 for an
    /// untagged (solo) program.
    pub fn num_requests(&self) -> usize {
        self.request_tags
            .iter()
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// Thread blocks belonging to each request, indexed by request id.
    pub fn blocks_per_request(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_requests()];
        if self.request_tags.is_empty() {
            counts[0] = self.num_blocks() as u64;
        } else {
            for &r in &self.request_tags {
                counts[r as usize] += 1;
            }
        }
        counts
    }

    /// Arrival cycle of each request (the minimum arrival over its
    /// blocks; 0 for requests without blocks).
    pub fn request_arrivals(&self) -> Vec<Cycle> {
        let mut arrivals = vec![Cycle::MAX; self.num_requests()];
        for tb in 0..self.num_blocks() {
            let r = self.request_of(tb) as usize;
            arrivals[r] = arrivals[r].min(self.arrival_of(tb));
        }
        for a in arrivals.iter_mut() {
            if *a == Cycle::MAX {
                *a = 0;
            }
        }
        arrivals
    }

    /// Total bytes of load traffic in the program.
    pub fn total_load_bytes(&self) -> u64 {
        traffic(self.blocks.instrs()).0
    }

    /// Total bytes of store traffic in the program.
    pub fn total_store_bytes(&self) -> u64 {
        traffic(self.blocks.instrs()).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accounting() {
        let instrs = [
            Instr::Load {
                addr: 0,
                bytes: 128,
            },
            Instr::Compute { cycles: 4 },
            Instr::Load {
                addr: 128,
                bytes: 128,
            },
            Instr::Barrier,
            Instr::Store {
                addr: 4096,
                bytes: 64,
            },
        ];
        assert_eq!(traffic(&instrs), (256, 64));
    }

    #[test]
    fn table_delimits_blocks_in_one_stream() {
        let load = |addr| Instr::Load { addr, bytes: 64 };
        let p = Program::round_robin(
            vec![
                ThreadBlock {
                    instrs: vec![load(0), Instr::Barrier],
                },
                ThreadBlock::default(),
                ThreadBlock {
                    instrs: vec![load(64)],
                },
            ],
            2,
        );
        assert_eq!(p.blocks.offsets(), &[0, 2, 2, 3]);
        assert_eq!(p.block(0), &[load(0), Instr::Barrier]);
        assert!(p.block(1).is_empty());
        assert_eq!(p.block(2), &[load(64)]);
        assert_eq!(p.blocks.iter().len(), 3);

        let mut table = p.blocks.clone();
        let built = table.push_with(|out| out.push(Instr::Compute { cycles: 3 }));
        assert_eq!(built, &[Instr::Compute { cycles: 3 }]);
        for i in table.instrs_from_mut(2) {
            if let Instr::Load { addr, .. } = i {
                *addr += 1 << 40;
            }
        }
        assert_eq!(table.block(0), p.block(0), "earlier blocks untouched");
        assert_eq!(table.block(2), &[load(64 + (1 << 40))]);
        assert_eq!(table.offsets(), &[0, 2, 2, 3, 4]);
    }

    #[test]
    fn round_robin_assignment() {
        let blocks = vec![ThreadBlock::default(); 5];
        let p = Program::round_robin(blocks, 2);
        assert_eq!(p.assignment, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn untagged_program_is_one_request_from_cycle_zero() {
        let p = Program::round_robin(vec![ThreadBlock::default(); 3], 2);
        assert_eq!(p.num_requests(), 1);
        assert_eq!(p.request_of(2), 0);
        assert_eq!(p.arrival_of(2), 0);
        assert_eq!(p.blocks_per_request(), vec![3]);
        assert_eq!(p.request_arrivals(), vec![0]);
    }

    #[test]
    fn tagged_program_tracks_requests_and_arrivals() {
        let p = Program::with_requests(
            vec![ThreadBlock::default(); 4],
            vec![0, 1, 0, 1],
            vec![0, 1, 1, 0],
            vec![0, 500, 500, 0],
        );
        assert_eq!(p.num_requests(), 2);
        assert_eq!(p.request_of(1), 1);
        assert_eq!(p.arrival_of(2), 500);
        assert_eq!(p.blocks_per_request(), vec![2, 2]);
        assert_eq!(p.request_arrivals(), vec![0, 500]);
    }

    #[test]
    fn tagged_serde_round_trip() {
        let p = Program::with_requests(
            vec![ThreadBlock::default(); 2],
            vec![0, 1],
            vec![0, 1],
            vec![0, 64],
        );
        let s = serde_json::to_string(&p).unwrap();
        let q: Program = serde_json::from_str(&s).unwrap();
        assert_eq!(q.request_tags, p.request_tags);
        assert_eq!(q.arrivals, p.arrivals);
    }

    #[test]
    fn legacy_json_without_tags_parses() {
        let legacy = r#"{"blocks": [{"instrs": []}], "assignment": [0]}"#;
        let p: Program = serde_json::from_str(legacy).unwrap();
        assert_eq!(p.num_requests(), 1);
        assert!(p.request_tags.is_empty());
        assert!(p.arrivals.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let p = Program::round_robin(
            vec![ThreadBlock {
                instrs: vec![
                    Instr::Load {
                        addr: 64,
                        bytes: 64,
                    },
                    Instr::Barrier,
                ],
            }],
            1,
        );
        let s = serde_json::to_string(&p).unwrap();
        let q: Program = serde_json::from_str(&s).unwrap();
        assert_eq!(p.blocks, q.blocks);
        assert_eq!(p.assignment, q.assignment);
    }
}

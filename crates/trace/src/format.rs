//! Trace container with human-readable (JSON) and compact binary
//! persistence.
//!
//! The hybrid framework writes traces to disk so that trace generation
//! (cheap, analytical) and simulation (expensive, cycle-level) can run
//! as separate pipeline stages — the same decoupling the paper's
//! Timeloop → Ramulator2 flow uses.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use llamcat_sim::prog::{Instr, Program};

use crate::tracegen::TraceMeta;
use crate::workload::LogitOp;

/// Magic header of the original (solo, untagged) binary trace format.
const MAGIC_V1: &[u8; 8] = b"LLAMCAT1";
/// Magic header of the request-tagged binary trace format: every block
/// record carries its serving-request id and arrival cycle.
const MAGIC_V2: &[u8; 8] = b"LLAMCAT2";

/// A trace plus the metadata needed to interpret or regenerate it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceFile {
    pub op: LogitOp,
    pub meta: TraceMeta,
    pub program: Program,
}

impl TraceFile {
    /// Serializes to pretty JSON (diffable, greppable).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Writes the compact binary encoding: the v1 layout for untagged
    /// solo traces (no per-block overhead), v2 with per-block
    /// (request, arrival) records for tagged mixes.
    pub fn write_binary<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let tagged = !self.program.request_tags.is_empty() || !self.program.arrivals.is_empty();
        w.write_all(if tagged { MAGIC_V2 } else { MAGIC_V1 })?;
        let header = serde_json::to_vec(&(self.op, self.meta)).expect("header serializes");
        write_u64(w, header.len() as u64)?;
        w.write_all(&header)?;
        write_u64(w, self.program.num_blocks() as u64)?;
        for (tb, (block, &core)) in self
            .program
            .blocks
            .iter()
            .zip(&self.program.assignment)
            .enumerate()
        {
            write_u64(w, core as u64)?;
            if tagged {
                write_u64(w, self.program.request_of(tb) as u64)?;
                write_u64(w, self.program.arrival_of(tb))?;
            }
            write_u64(w, block.len() as u64)?;
            for i in block {
                match i {
                    Instr::Compute { cycles } => {
                        w.write_all(&[0])?;
                        write_u64(w, *cycles as u64)?;
                    }
                    Instr::Load { addr, bytes } => {
                        w.write_all(&[1])?;
                        write_u64(w, *addr)?;
                        write_u64(w, *bytes as u64)?;
                    }
                    Instr::Store { addr, bytes } => {
                        w.write_all(&[2])?;
                        write_u64(w, *addr)?;
                        write_u64(w, *bytes as u64)?;
                    }
                    Instr::Barrier => {
                        w.write_all(&[3])?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads the compact binary encoding: the current request-tagged v2
    /// layout, or the legacy v1 layout (read back as a solo request-0
    /// trace).
    ///
    /// Malformed input is an `InvalidData` (or `UnexpectedEof`) error,
    /// never a panic: counts in the file size nothing up front, so a
    /// hostile count fails at the end of the input instead of
    /// allocating, and out-of-range fields are rejected, not truncated.
    pub fn read_binary<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let tagged = match &magic {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(invalid("bad magic")),
        };
        let header_len = read_u64(r)?;
        let mut header = Vec::new();
        r.by_ref().take(header_len).read_to_end(&mut header)?;
        if header.len() as u64 != header_len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let (op, meta): (LogitOp, TraceMeta) = serde_json::from_slice(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let num_blocks = read_u64(r)?;
        let mut program = Program::default();
        for _ in 0..num_blocks {
            program.assignment.push(read_u64(r)? as usize);
            if tagged {
                let tag =
                    u32::try_from(read_u64(r)?).map_err(|_| invalid("request tag exceeds u32"))?;
                program.request_tags.push(tag);
                program.arrivals.push(read_u64(r)?);
            }
            let n = read_u64(r)?;
            if n > (u32::MAX as usize - program.blocks.instrs().len()) as u64 {
                return Err(invalid("trace exceeds the u32 instruction table"));
            }
            let mut read = Ok(());
            program
                .blocks
                .push_with(|out| read = read_instrs(r, n, out));
            read?;
        }
        Ok(TraceFile { op, meta, program })
    }
}

/// Appends `n` binary-encoded instructions from `r` to `out`.
fn read_instrs<R: Read>(r: &mut R, n: u64, out: &mut Vec<Instr>) -> io::Result<()> {
    for _ in 0..n {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        out.push(match tag[0] {
            0 => Instr::Compute {
                cycles: read_u32(r, "compute cycles")?,
            },
            1 => Instr::Load {
                addr: read_u64(r)?,
                bytes: read_u32(r, "load bytes")?,
            },
            2 => Instr::Store {
                addr: read_u64(r)?,
                bytes: read_u32(r, "store bytes")?,
            },
            3 => Instr::Barrier,
            t => return Err(invalid(&format!("unknown instruction tag {t}"))),
        });
    }
    Ok(())
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// A `u64` field that must fit a `u32` (`what` names it in the error).
fn read_u32<R: Read>(r: &mut R, what: &str) -> io::Result<u32> {
    u32::try_from(read_u64(r)?).map_err(|_| invalid(&format!("{what} exceed u32")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracegen::{generate_default, TraceGenConfig};

    fn sample() -> TraceFile {
        let op = LogitOp {
            heads: 2,
            group_size: 2,
            seq_len: 64,
            head_dim: 128,
        };
        let (program, meta) = generate_default(&op, &TraceGenConfig::default());
        TraceFile { op, meta, program }
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let s = t.to_json();
        let u = TraceFile::from_json(&s).unwrap();
        assert_eq!(t.program.blocks, u.program.blocks);
        assert_eq!(t.meta, u.meta);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let u = TraceFile::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(t.program.blocks, u.program.blocks);
        assert_eq!(t.program.assignment, u.program.assignment);
        assert_eq!(t.op, u.op);
    }

    #[test]
    fn binary_is_denser_than_json() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert!(buf.len() < t.to_json().len());
    }

    /// A request-tagged mix trace (tags, staggered arrivals) through
    /// the container.
    fn tagged_sample() -> TraceFile {
        use crate::mapping::Layout;
        use crate::mix::{MixAssignment, WorkloadMix};
        use crate::workloads::LogitWorkload;
        use std::sync::Arc;

        let op = LogitOp {
            heads: 2,
            group_size: 2,
            seq_len: 64,
            head_dim: 128,
        };
        let mix = WorkloadMix::new(MixAssignment::Interleaved)
            .request(Arc::new(LogitWorkload::new(op)), 0)
            .request(Arc::new(LogitWorkload::new(op)), 700);
        let cfg = TraceGenConfig::default();
        let (program, mix_meta) = mix.generate(Layout::PairStream, 32, &cfg).unwrap();
        let meta = TraceMeta {
            num_blocks: mix_meta.num_blocks,
            total_load_bytes: mix_meta.total_load_bytes,
            total_store_bytes: mix_meta.total_store_bytes,
            max_block_instrs: mix_meta.max_block_instrs,
        };
        TraceFile { op, meta, program }
    }

    #[test]
    fn tagged_json_round_trip() {
        let t = tagged_sample();
        let u = TraceFile::from_json(&t.to_json()).unwrap();
        assert_eq!(u.program.blocks, t.program.blocks);
        assert_eq!(u.program.request_tags, t.program.request_tags);
        assert_eq!(u.program.arrivals, t.program.arrivals);
        assert_eq!(u.program.num_requests(), 2);
    }

    #[test]
    fn tagged_binary_round_trip() {
        let t = tagged_sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LLAMCAT2");
        let u = TraceFile::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(u.program.blocks, t.program.blocks);
        assert_eq!(u.program.assignment, t.program.assignment);
        assert_eq!(u.program.request_tags, t.program.request_tags);
        assert_eq!(u.program.arrivals, t.program.arrivals);
        assert_eq!(u.program.request_arrivals(), vec![0, 700]);
    }

    #[test]
    fn untagged_traces_keep_the_compact_v1_layout() {
        // Solo traces write the legacy v1 layout — no per-block
        // (tag, arrival) overhead — and read back as request 0.
        let t = sample();
        let mut v1 = Vec::new();
        t.write_binary(&mut v1).unwrap();
        assert_eq!(&v1[..8], b"LLAMCAT1");
        let u = TraceFile::read_binary(&mut v1.as_slice()).unwrap();
        assert_eq!(u.program.blocks, t.program.blocks);
        assert!(u.program.request_tags.is_empty());
        assert_eq!(u.program.num_requests(), 1, "v1 traces are solo request 0");
        // The tagged encoding pays exactly 16 extra bytes per block.
        let mut tagged = t.clone();
        tagged.program.request_tags = vec![0; tagged.program.blocks.len()];
        tagged.program.arrivals = vec![0; tagged.program.blocks.len()];
        let mut v2 = Vec::new();
        tagged.write_binary(&mut v2).unwrap();
        assert_eq!(&v2[..8], b"LLAMCAT2");
        assert_eq!(v2.len(), v1.len() + 16 * t.program.blocks.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = b"NOTATRCE".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(TraceFile::read_binary(&mut buf.as_slice()).is_err());
    }

    /// A v1 trace's bytes up to (not including) the block count.
    fn v1_prefix() -> Vec<u8> {
        let t = sample();
        let header = serde_json::to_vec(&(t.op, t.meta)).unwrap();
        let mut buf = MAGIC_V1.to_vec();
        buf.extend_from_slice(&(header.len() as u64).to_le_bytes());
        buf.extend_from_slice(&header);
        buf
    }

    /// `v1_prefix` plus one block on core 0 holding `instr`, preceded
    /// by an instruction count of `count`.
    fn one_block(count: u64, instr: &[u8]) -> Vec<u8> {
        let mut buf = v1_prefix();
        for v in [1, 0, count] {
            buf.extend_from_slice(&u64::to_le_bytes(v));
        }
        buf.extend_from_slice(instr);
        buf
    }

    fn read_err(buf: &[u8]) -> io::ErrorKind {
        TraceFile::read_binary(&mut &buf[..])
            .expect_err("malformed trace must be rejected")
            .kind()
    }

    #[test]
    fn hostile_header_length_is_an_error_not_an_allocation() {
        let mut buf = MAGIC_V1.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(buf.len(), 16);
        assert_eq!(read_err(&buf), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_block_count_is_an_error_not_an_allocation() {
        let mut buf = v1_prefix();
        buf.extend_from_slice(&(1u64 << 60).to_le_bytes());
        assert_eq!(read_err(&buf), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_instruction_count_is_rejected() {
        // More instructions than the u32-offset table can index.
        assert_eq!(
            read_err(&one_block(1 << 60, &[])),
            io::ErrorKind::InvalidData
        );
        // A count the table could hold, but the input does not.
        assert_eq!(
            read_err(&one_block(1 << 20, &[3])),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn out_of_range_fields_are_rejected_not_truncated() {
        let big = (u32::MAX as u64 + 1).to_le_bytes();
        let compute = [&[0u8][..], &big].concat();
        let load = [&[1u8][..], &64u64.to_le_bytes(), &big].concat();
        let store = [&[2u8][..], &64u64.to_le_bytes(), &big].concat();
        for instr in [compute, load, store] {
            assert_eq!(read_err(&one_block(1, &instr)), io::ErrorKind::InvalidData);
        }
        // The largest in-range value still reads back exactly.
        let max_load = [
            &[1u8][..],
            &64u64.to_le_bytes(),
            &u64::from(u32::MAX).to_le_bytes(),
        ]
        .concat();
        let t = TraceFile::read_binary(&mut &one_block(1, &max_load)[..]).unwrap();
        assert_eq!(
            t.program.block(0),
            &[Instr::Load {
                addr: 64,
                bytes: u32::MAX
            }]
        );
    }

    #[test]
    fn unknown_instruction_tag_rejected() {
        assert_eq!(read_err(&one_block(1, &[9])), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_input_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(TraceFile::read_binary(&mut buf.as_slice()).is_err());
    }
}

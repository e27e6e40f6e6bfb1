//! Allocation gate for the *scenario build*: the bytes
//! `Experiment::snapshot_scenario` allocates for Llama3-405b at seq 4096
//! stay within 1.1x the program's instruction table plus a fixed
//! allowance for the `System`'s own components.
//!
//! Trace generation writes every thread block straight into one flat
//! instruction table, and the system and its snapshot share that table
//! instead of copying it, so a scenario holds exactly one copy of its
//! trace. A per-block `Vec`, a second flattened copy or a regrowth
//! that doubles the table would each break the bound: any of them
//! costs at least another table's worth of bytes.
//!
//! Counts are deterministic (bytes requested from the allocator, not
//! resident memory), so the gate is exact on any host. This file holds
//! a single test: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use llamcat::experiment::{Experiment, Model};

struct CountingAlloc;

/// Bytes requested: every allocation's size, plus the growth of every
/// reallocation.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size());
        BYTES.fetch_add(growth as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `System`'s trace-independent components (cache arrays, DRAM
/// banks, queues, the request arena): about 5.3 MB for the Table 5
/// machine, measured by building the same scenario at seq 32.
const SYSTEM_ALLOWANCE: u64 = 6 << 20;

#[test]
fn scenario_build_holds_one_instruction_table() {
    let exp = Experiment::new(Model::Llama3_405b, 4096);
    let program = exp.build_program();
    let table =
        (size_of_val(program.blocks.instrs()) + size_of_val(program.blocks.offsets())) as u64;
    drop(program);

    let before = BYTES.load(Ordering::Relaxed);
    let snapshot = exp.snapshot_scenario().expect("valid scenario");
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    drop(snapshot);

    let bound = table + table / 10 + SYSTEM_ALLOWANCE;
    println!(
        "instruction table {table} B, scenario build allocated {allocated} B, bound {bound} B"
    );
    assert!(
        allocated <= bound,
        "scenario build allocated {allocated} B for a {table} B instruction table \
         (bound {bound} B): the trace is copied or overallocated"
    );
}

//! Cycle-level simulator of the multi-threaded template architecture.
//!
//! The machine executes one worker thread's [`ThreadProgram`] cycle by
//! cycle: PEs issue at most one in-order instruction per cycle, operands
//! are scoreboarded (a compute stalls until its sources are ready), and
//! inter-PE transfers arbitrate for the three interconnect levels —
//! per-direction neighbor links, one grant per row bus per cycle, and one
//! grant per cycle on the shared tree bus. The memory interface streams
//! the training record into the PE data buffers at the platform's
//! words-per-cycle rate, so compute can begin before the record has fully
//! arrived (the prefetch-buffer overlap of paper §5.1).
//!
//! The simulator computes *values* as well as *cycles*: its gradients are
//! checked against the DFG reference interpreter, and its makespans
//! validate the Planner's static performance estimator.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

use cosmic_dfg::OpKind;

use crate::geometry::{Geometry, LinkClass, PeId};
use crate::isa::{AluOp, PeInstr, SendTarget, Src, Tag, ThreadProgram};

/// An error raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    message: String,
}

impl RunError {
    fn new(message: impl Into<String>) -> Self {
        RunError { message: message.into() }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine error: {}", self.message)
    }
}

impl Error for RunError {}

/// The result of simulating one record through one worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Gradient vector, indexed by gradient slot.
    pub gradients: Vec<f64>,
    /// Total cycles until every gradient value was produced.
    pub cycles: u64,
    /// Transfers that used each interconnect level.
    pub neighbor_transfers: u64,
    /// Row-bus transfers.
    pub row_bus_transfers: u64,
    /// Tree-bus transfers.
    pub tree_bus_transfers: u64,
    /// Cycles in which at least one PE stalled waiting for a bus grant.
    pub bus_stall_cycles: u64,
    /// Instructions issued per PE (computes + sends).
    pub pe_issued: Vec<u64>,
}

impl RunOutcome {
    /// Total inter-PE transfers.
    pub fn transfers(&self) -> u64 {
        self.neighbor_transfers + self.row_bus_transfers + self.tree_bus_transfers
    }

    /// Mean fraction of cycles each PE spent issuing — the utilization
    /// the multi-threaded template exists to raise (paper §5).
    pub fn pe_utilization(&self) -> f64 {
        if self.cycles == 0 || self.pe_issued.is_empty() {
            return 0.0;
        }
        let issued: u64 = self.pe_issued.iter().sum();
        issued as f64 / (self.cycles as f64 * self.pe_issued.len() as f64)
    }

    /// PEs that issued at least one instruction.
    pub fn active_pes(&self) -> usize {
        self.pe_issued.iter().filter(|&&n| n > 0).count()
    }
}

/// The cycle-level machine for one worker thread's PE allocation.
#[derive(Debug, Clone)]
pub struct Machine {
    geometry: Geometry,
    /// Off-chip words delivered per cycle to this thread (the thread's
    /// share of the memory interface).
    words_per_cycle: f64,
}

impl Machine {
    /// Creates a machine over a thread's geometry, streaming training data
    /// at `words_per_cycle` (may be fractional when several threads share
    /// the interface, or on P-ASICs whose clock outpaces the memory).
    ///
    /// # Panics
    ///
    /// Panics if `words_per_cycle` is not positive.
    pub fn new(geometry: Geometry, words_per_cycle: f64) -> Self {
        assert!(words_per_cycle > 0.0, "memory bandwidth must be positive");
        Machine { geometry, words_per_cycle }
    }

    /// The machine's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Simulates one gradient computation.
    ///
    /// `record` is the flattened training record; `model` the flattened
    /// model parameters (preloaded into model buffers, as the broadcast
    /// write of the memory interface would).
    ///
    /// This is the **optimized** simulator: instruction streams are
    /// resolved once up front (routes, receiver sets, grant classes),
    /// the per-PE value stores use a cheap multiplicative tag hash, and
    /// stretches of cycles in which no PE can issue are skipped in one
    /// jump to the next value/data ready event. Every outcome field —
    /// `gradients`, `cycles`, `bus_stall_cycles`, transfer counters,
    /// `pe_issued` — and every error is **exactly** what
    /// [`Machine::run_reference`] produces: a skipped cycle is by
    /// definition one where nothing issues and nothing stalls, so no
    /// observable state can differ (the proptests in
    /// `tests/machine_equivalence.rs` hold that line).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the program is structurally invalid, reads
    /// a value that is never produced (deadlock), or exceeds the cycle
    /// safety limit.
    pub fn run(
        &self,
        program: &ThreadProgram,
        record: &[f64],
        model: &[f64],
    ) -> Result<RunOutcome, RunError> {
        self.check_shapes(program, record, model)?;
        let pes = self.geometry.pes();
        let data_ready = self.data_ready(record.len());
        let prepared = self.prepare(program);

        let mut store: Vec<TagMap> = (0..pes).map(|_| TagMap::default()).collect();
        let mut pc = vec![0usize; pes];
        let mut done = prepared.iter().filter(|s| s.is_empty()).count();
        // Row-bus grants are stamped with the cycle that took them, so
        // per-cycle reset is free.
        let mut row_stamp = vec![u64::MAX; self.geometry.rows];
        let mut neighbor_used: Vec<(u32, u32)> = Vec::new();

        let mut outcome = RunOutcome {
            gradients: vec![0.0; program.gradient_sources.len()],
            cycles: 0,
            neighbor_transfers: 0,
            row_bus_transfers: 0,
            tree_bus_transfers: 0,
            bus_stall_cycles: 0,
            pe_issued: vec![0; pes],
        };

        let mut now: u64 = 0;
        while done < pes {
            if now > SAFETY_LIMIT {
                return Err(RunError::new("cycle safety limit exceeded (runaway program)"));
            }
            neighbor_used.clear();
            let mut tree_bus_used = false;
            let mut progressed = false;
            let mut bus_stalled = false;

            for p in 0..pes {
                let stream = &prepared[p];
                if pc[p] >= stream.len() {
                    continue;
                }
                match stream[pc[p]] {
                    Prepared::Compute { op, a, b, tag } => {
                        let ra = self.read(&store[p], &data_ready, record, model, program, a, now);
                        let rb = match op {
                            AluOp::Un(_) => Some(0.0),
                            AluOp::Bin(_) => {
                                self.read(&store[p], &data_ready, record, model, program, b, now)
                            }
                        };
                        let (Some(va), Some(vb)) = (ra, rb) else {
                            continue;
                        };
                        let value = match op {
                            AluOp::Bin(kind) => kind.apply(va, vb),
                            AluOp::Un(func) => cosmic_dfg_apply_unary(func, va),
                        };
                        let ready = now + op.latency();
                        store[p].insert(tag, (value, ready));
                        pc[p] += 1;
                        if pc[p] == stream.len() {
                            done += 1;
                        }
                        outcome.pe_issued[p] += 1;
                        progressed = true;
                    }
                    Prepared::Send { tag, grant, latency, ref receivers } => {
                        let Some(&(value, ready)) = store[p].get(&tag) else {
                            continue; // value not yet produced/arrived
                        };
                        if ready > now {
                            continue;
                        }
                        let granted = match grant {
                            Grant::Local => true,
                            Grant::Neighbor { to } => {
                                let key = (p as u32, to);
                                if neighbor_used.contains(&key) {
                                    false
                                } else {
                                    neighbor_used.push(key);
                                    outcome.neighbor_transfers += 1;
                                    true
                                }
                            }
                            Grant::RowBus { row } => {
                                if row_stamp[row] == now {
                                    false
                                } else {
                                    row_stamp[row] = now;
                                    outcome.row_bus_transfers += 1;
                                    true
                                }
                            }
                            Grant::TreeBus => {
                                if tree_bus_used {
                                    false
                                } else {
                                    tree_bus_used = true;
                                    outcome.tree_bus_transfers += 1;
                                    true
                                }
                            }
                        };
                        if granted {
                            let arrive = now + latency;
                            for &q in receivers {
                                store[q].insert(tag, (value, arrive));
                            }
                            pc[p] += 1;
                            if pc[p] == stream.len() {
                                done += 1;
                            }
                            outcome.pe_issued[p] += 1;
                            progressed = true;
                        } else {
                            bus_stalled = true;
                        }
                    }
                }
            }

            if bus_stalled {
                outcome.bus_stall_cycles += 1;
            }
            if progressed {
                now += 1;
                continue;
            }
            // Nothing issued. A skipped cycle has no issues and (since a
            // denied grant implies another PE's grant, i.e. progress) no
            // stalls, so jumping straight to the next ready event books
            // exactly what the reference books cycle by cycle. The jump
            // clamps to SAFETY_LIMIT + 1 so a runaway program errors at
            // the identical cycle.
            let next_value =
                store.iter().flat_map(|m| m.values()).map(|&(_, r)| r).filter(|&r| r > now).min();
            let next_data = data_ready.get(data_ready.partition_point(|&r| r <= now)).copied();
            let next = match (next_value, next_data) {
                (Some(v), Some(d)) => v.min(d),
                (Some(v), None) => v,
                (None, Some(d)) => d,
                (None, None) => {
                    return Err(RunError::new(
                        "deadlock: a PE waits for a value that is never produced",
                    ))
                }
            };
            now = next.min(SAFETY_LIMIT + 1);
        }

        // Collect gradients and the cycle everything was ready.
        let mut finish = now;
        for (slot, &(pe, tag)) in program.gradient_sources.iter().enumerate() {
            let &(value, ready) = store[pe.index()].get(&tag).ok_or_else(|| {
                RunError::new(format!("gradient slot {slot} (tag {tag}) was never produced"))
            })?;
            outcome.gradients[slot] = value;
            finish = finish.max(ready);
        }
        outcome.cycles = finish;
        Ok(outcome)
    }

    /// Shared structural validation for both simulator paths.
    fn check_shapes(
        &self,
        program: &ThreadProgram,
        record: &[f64],
        model: &[f64],
    ) -> Result<(), RunError> {
        program.validate().map_err(RunError::new)?;
        if record.len() != program.data_placement.len() {
            return Err(RunError::new(format!(
                "record has {} words, program expects {}",
                record.len(),
                program.data_placement.len()
            )));
        }
        if model.len() != program.model_placement.len() {
            return Err(RunError::new(format!(
                "model has {} words, program expects {}",
                model.len(),
                program.model_placement.len()
            )));
        }
        Ok(())
    }

    /// data_ready[slot] = cycle the shifter lands the word in its PE
    /// (non-decreasing in the slot index — the stream is sequential).
    fn data_ready(&self, words: usize) -> Vec<u64> {
        (0..words).map(|s| (s as f64 / self.words_per_cycle).floor() as u64).collect()
    }

    /// Resolves every instruction's routing once: link class, transfer
    /// latency, and receiver set are geometry facts, not simulation
    /// state, so the per-cycle loop never recomputes a route or
    /// allocates a receiver list (the reference does both on every
    /// retry of a stalled send).
    fn prepare(&self, program: &ThreadProgram) -> Vec<Vec<Prepared>> {
        let pes = self.geometry.pes();
        (0..pes)
            .map(|p| {
                program.instrs[p]
                    .iter()
                    .map(|instr| match *instr {
                        PeInstr::Compute { op, a, b, tag } => Prepared::Compute { op, a, b, tag },
                        PeInstr::Send { tag, dst } => {
                            let my_row = self.geometry.row(PeId(p as u32));
                            let (link, latency, receivers): (LinkClass, u64, Vec<usize>) = match dst
                            {
                                SendTarget::Pe(q) => {
                                    let route = self.geometry.route(PeId(p as u32), q);
                                    (route.link, route.latency, vec![q.index()])
                                }
                                SendTarget::Row(r) => {
                                    let cols = self.geometry.columns;
                                    let rcv = (0..cols)
                                        .map(|c| r as usize * cols + c)
                                        .filter(|&q| q != p)
                                        .collect();
                                    (LinkClass::RowBus(my_row), 2, rcv)
                                }
                                SendTarget::All => {
                                    let route =
                                        self.geometry.route(PeId(0), PeId((pes - 1) as u32));
                                    let lat =
                                        if self.geometry.rows == 1 { 2 } else { route.latency };
                                    (
                                        LinkClass::TreeBus,
                                        lat,
                                        (0..pes).filter(|&q| q != p).collect(),
                                    )
                                }
                            };
                            let grant = match link {
                                LinkClass::Local => Grant::Local,
                                LinkClass::Neighbor => Grant::Neighbor { to: receivers[0] as u32 },
                                LinkClass::RowBus(row) => Grant::RowBus { row },
                                LinkClass::TreeBus => Grant::TreeBus,
                            };
                            Prepared::Send { tag, grant, latency, receivers }
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The pre-optimization per-cycle simulator, kept verbatim as the
    /// equivalence oracle for [`Machine::run`] and as the benchmark
    /// baseline. Semantics are the contract; see `run` for what the
    /// fast path may and may not change (nothing observable).
    ///
    /// # Errors
    ///
    /// Identical to [`Machine::run`].
    pub fn run_reference(
        &self,
        program: &ThreadProgram,
        record: &[f64],
        model: &[f64],
    ) -> Result<RunOutcome, RunError> {
        self.check_shapes(program, record, model)?;

        let pes = self.geometry.pes();

        // Per-PE data/model buffers, addressed by global slot for
        // simplicity (offsets are validated by placement, but values are
        // looked up by slot).
        // data_ready[slot] = cycle the shifter lands the word in its PE.
        let data_ready: Vec<u64> = self.data_ready(record.len());

        // Per-PE local value stores: tag -> (value, ready_cycle).
        let mut store: Vec<HashMap<Tag, (f64, u64)>> = vec![HashMap::new(); pes];
        let mut pc = vec![0usize; pes];

        let mut outcome = RunOutcome {
            gradients: vec![0.0; program.gradient_sources.len()],
            cycles: 0,
            neighbor_transfers: 0,
            row_bus_transfers: 0,
            tree_bus_transfers: 0,
            bus_stall_cycles: 0,
            pe_issued: vec![0; pes],
        };

        let safety_limit: u64 = SAFETY_LIMIT;
        let mut now: u64 = 0;
        loop {
            let all_done = (0..pes).all(|p| pc[p] >= program.instrs[p].len());
            if all_done {
                break;
            }
            if now > safety_limit {
                return Err(RunError::new("cycle safety limit exceeded (runaway program)"));
            }

            // Per-cycle interconnect grants.
            let mut row_bus_used = vec![false; self.geometry.rows];
            let mut tree_bus_used = false;
            // Directed neighbor links: (from, to) used this cycle.
            let mut neighbor_used: HashMap<(u32, u32), ()> = HashMap::new();

            let mut progressed = false;
            let mut bus_stalled = false;

            for p in 0..pes {
                if pc[p] >= program.instrs[p].len() {
                    continue;
                }
                match program.instrs[p][pc[p]] {
                    PeInstr::Compute { op, a, b, tag } => {
                        let ra = self.read(&store[p], &data_ready, record, model, program, a, now);
                        let rb = match op {
                            AluOp::Un(_) => Some(0.0),
                            AluOp::Bin(_) => {
                                self.read(&store[p], &data_ready, record, model, program, b, now)
                            }
                        };
                        if let (Some(va), Some(vb)) = (ra, rb) {
                            let value = match op {
                                AluOp::Bin(kind) => kind.apply(va, vb),
                                AluOp::Un(func) => cosmic_dfg_apply_unary(func, va),
                            };
                            store[p].insert(tag, (value, now + op.latency()));
                            pc[p] += 1;
                            outcome.pe_issued[p] += 1;
                            progressed = true;
                        }
                    }
                    PeInstr::Send { tag, dst } => {
                        let Some(&(value, ready)) = store[p].get(&tag) else {
                            continue; // value not yet produced/arrived
                        };
                        if ready > now {
                            continue;
                        }
                        // Resolve the transaction: resource, latency, and
                        // receiving PEs. Buses are shared media, so a row
                        // or tree transaction delivers everywhere at once.
                        let my_row = self.geometry.row(PeId(p as u32));
                        let (link, latency, receivers): (LinkClass, u64, Vec<usize>) = match dst {
                            SendTarget::Pe(q) => {
                                let route = self.geometry.route(PeId(p as u32), q);
                                (route.link, route.latency, vec![q.index()])
                            }
                            SendTarget::Row(r) => {
                                let cols = self.geometry.columns;
                                let rcv = (0..cols)
                                    .map(|c| r as usize * cols + c)
                                    .filter(|&q| q != p)
                                    .collect();
                                (LinkClass::RowBus(my_row), 2, rcv)
                            }
                            SendTarget::All => {
                                let route = self.geometry.route(PeId(0), PeId((pes - 1) as u32));
                                let lat = if self.geometry.rows == 1 { 2 } else { route.latency };
                                (LinkClass::TreeBus, lat, (0..pes).filter(|&q| q != p).collect())
                            }
                        };
                        let granted = match link {
                            LinkClass::Local => true,
                            LinkClass::Neighbor => {
                                let key = (p as u32, receivers[0] as u32);
                                if neighbor_used.insert(key, ()).is_none() {
                                    outcome.neighbor_transfers += 1;
                                    true
                                } else {
                                    false
                                }
                            }
                            LinkClass::RowBus(row) => {
                                if row_bus_used[row] {
                                    false
                                } else {
                                    row_bus_used[row] = true;
                                    outcome.row_bus_transfers += 1;
                                    true
                                }
                            }
                            LinkClass::TreeBus => {
                                if tree_bus_used {
                                    false
                                } else {
                                    tree_bus_used = true;
                                    outcome.tree_bus_transfers += 1;
                                    true
                                }
                            }
                        };
                        if granted {
                            for q in receivers {
                                store[q].insert(tag, (value, now + latency));
                            }
                            pc[p] += 1;
                            outcome.pe_issued[p] += 1;
                            progressed = true;
                        } else {
                            bus_stalled = true;
                        }
                    }
                }
            }

            if bus_stalled {
                outcome.bus_stall_cycles += 1;
            }

            if !progressed {
                // Nothing issued: legitimate if somebody is waiting on a
                // value that becomes ready in the future (in-flight
                // transfer or ALU latency, or the memory stream).
                let future_value =
                    store.iter().flat_map(HashMap::values).any(|&(_, ready)| ready > now);
                let future_data = data_ready.iter().any(|&r| r > now);
                if !future_value && !future_data && !bus_stalled {
                    return Err(RunError::new(
                        "deadlock: a PE waits for a value that is never produced",
                    ));
                }
            }
            now += 1;
        }

        // Collect gradients and the cycle everything was ready.
        let mut finish = now;
        for (slot, &(pe, tag)) in program.gradient_sources.iter().enumerate() {
            let &(value, ready) = store[pe.index()].get(&tag).ok_or_else(|| {
                RunError::new(format!("gradient slot {slot} (tag {tag}) was never produced"))
            })?;
            outcome.gradients[slot] = value;
            finish = finish.max(ready);
        }
        outcome.cycles = finish;
        Ok(outcome)
    }

    #[allow(clippy::too_many_arguments)]
    fn read<S: BuildHasher>(
        &self,
        store: &HashMap<Tag, (f64, u64), S>,
        data_ready: &[u64],
        record: &[f64],
        model: &[f64],
        program: &ThreadProgram,
        src: Src,
        now: u64,
    ) -> Option<f64> {
        match src {
            Src::Imm(v) => Some(v),
            Src::Model(slot) => {
                debug_assert!(program.model_placement.len() > slot as usize);
                Some(model[slot as usize])
            }
            Src::Data(slot) => {
                if data_ready[slot as usize] <= now {
                    Some(record[slot as usize])
                } else {
                    None
                }
            }
            Src::Tag(tag) => match store.get(&tag) {
                Some(&(v, ready)) if ready <= now => Some(v),
                _ => None,
            },
        }
    }
}

/// Cycle ceiling shared by both simulator paths: a program that is
/// still running past this is declared runaway.
const SAFETY_LIMIT: u64 = 10_000_000;

/// One instruction with its routing resolved ahead of time.
#[derive(Debug, Clone)]
enum Prepared {
    /// An ALU operation (verbatim from the program).
    Compute { op: AluOp, a: Src, b: Src, tag: Tag },
    /// A send with its grant class, latency, and receiver set fixed.
    Send { tag: Tag, grant: Grant, latency: u64, receivers: Vec<usize> },
}

/// The arbitration resource a prepared send competes for.
#[derive(Debug, Clone, Copy)]
enum Grant {
    /// No shared medium; always granted.
    Local,
    /// The directed neighbor link toward PE `to`.
    Neighbor { to: u32 },
    /// One grant per row bus per cycle.
    RowBus { row: usize },
    /// One grant per cycle on the shared tree bus.
    TreeBus,
}

/// Per-PE value store keyed by the compiler's dense `u32` tags: a full
/// SipHash per lookup is pure overhead, so the map uses a one-multiply
/// mixer instead. (Purely an internal speedup — iteration order is
/// never observed.)
type TagMap = HashMap<Tag, (f64, u64), BuildTagHasher>;

#[derive(Debug, Clone, Copy, Default)]
struct BuildTagHasher;

impl BuildHasher for BuildTagHasher {
    type Hasher = TagHasher;

    fn build_hasher(&self) -> TagHasher {
        TagHasher(0)
    }
}

/// Multiplicative mixer for `u32` keys (the only key type stored).
#[derive(Debug, Clone, Copy)]
struct TagHasher(u64);

impl Hasher for TagHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 =
            (u64::from(n).wrapping_add(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        self.0 ^= self.0 >> 33;
    }
}

fn cosmic_dfg_apply_unary(func: cosmic_dsl::UnaryFn, x: f64) -> f64 {
    use cosmic_dsl::UnaryFn;
    match func {
        UnaryFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        UnaryFn::Gaussian => (-(x * x)).exp(),
        UnaryFn::Log => x.ln(),
        UnaryFn::Sqrt => x.sqrt(),
        UnaryFn::Exp => x.exp(),
        UnaryFn::Abs => x.abs(),
    }
}

/// Convenience: a single-PE program that multiplies data slot 0 by model
/// slot 0 (used by examples and smoke tests).
pub fn demo_program() -> ThreadProgram {
    use crate::isa::{MemDirection, MemScheduleEntry, Placement};
    let geometry = Geometry::new(1, 1);
    ThreadProgram {
        geometry,
        instrs: vec![vec![PeInstr::Compute {
            op: AluOp::Bin(OpKind::Mul),
            a: Src::Data(0),
            b: Src::Model(0),
            tag: 2,
        }]],
        data_placement: vec![Placement { pe: PeId(0), offset: 0 }],
        model_placement: vec![Placement { pe: PeId(0), offset: 0 }],
        gradient_sources: vec![(PeId(0), 2)],
        mem_schedule: vec![MemScheduleEntry {
            base_pe: 0,
            dir: MemDirection::Read,
            broadcast: false,
            size: 1,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MemDirection, MemScheduleEntry, Placement};

    fn entry() -> MemScheduleEntry {
        MemScheduleEntry { base_pe: 0, dir: MemDirection::Read, broadcast: false, size: 1 }
    }

    #[test]
    fn demo_program_computes_product() {
        let m = Machine::new(Geometry::new(1, 1), 16.0);
        let out = m.run(&demo_program(), &[3.0], &[4.0]).unwrap();
        assert_eq!(out.gradients, vec![12.0]);
        assert!(out.cycles >= 1);
        assert_eq!(out.transfers(), 0);
    }

    /// Two PEs in a row: pe0 multiplies and sends over the neighbor link,
    /// pe1 adds 1.
    fn two_pe_program() -> ThreadProgram {
        let geometry = Geometry::new(1, 2);
        ThreadProgram {
            geometry,
            instrs: vec![
                vec![
                    PeInstr::Compute {
                        op: AluOp::Bin(OpKind::Mul),
                        a: Src::Data(0),
                        b: Src::Model(0),
                        tag: 2,
                    },
                    PeInstr::Send { tag: 2, dst: SendTarget::Pe(PeId(1)) },
                ],
                vec![PeInstr::Compute {
                    op: AluOp::Bin(OpKind::Add),
                    a: Src::Tag(2),
                    b: Src::Imm(1.0),
                    tag: 3,
                }],
            ],
            data_placement: vec![Placement { pe: PeId(0), offset: 0 }],
            model_placement: vec![Placement { pe: PeId(0), offset: 0 }],
            gradient_sources: vec![(PeId(1), 3)],
            mem_schedule: vec![entry()],
        }
    }

    #[test]
    fn neighbor_transfer_adds_latency() {
        let m = Machine::new(Geometry::new(1, 2), 16.0);
        let out = m.run(&two_pe_program(), &[2.0], &[5.0]).unwrap();
        assert_eq!(out.gradients, vec![11.0]);
        assert_eq!(out.neighbor_transfers, 1);
        // mul issues cycle 0 (ready 1), send cycle 1 (arrives 2), add
        // issues cycle 2, ready cycle 3.
        assert_eq!(out.cycles, 3);
    }

    #[test]
    fn tree_transfer_costs_more_than_row() {
        let make = |rows: usize, dst: PeId| {
            let geometry = Geometry::new(rows, 2);
            let mut instrs = vec![Vec::new(); geometry.pes()];
            instrs[0] = vec![
                PeInstr::Compute {
                    op: AluOp::Bin(OpKind::Mul),
                    a: Src::Data(0),
                    b: Src::Model(0),
                    tag: 2,
                },
                PeInstr::Send { tag: 2, dst: SendTarget::Pe(dst) },
            ];
            instrs[dst.index()].push(PeInstr::Compute {
                op: AluOp::Bin(OpKind::Add),
                a: Src::Tag(2),
                b: Src::Imm(0.0),
                tag: 3,
            });
            ThreadProgram {
                geometry,
                instrs,
                data_placement: vec![Placement { pe: PeId(0), offset: 0 }],
                model_placement: vec![Placement { pe: PeId(0), offset: 0 }],
                gradient_sources: vec![(dst, 3)],
                mem_schedule: vec![entry()],
            }
        };
        let same_row = make(8, PeId(1));
        let cross_row = make(8, PeId(14)); // row 7
        let m = Machine::new(Geometry::new(8, 2), 16.0);
        let a = m.run(&same_row, &[1.0], &[1.0]).unwrap();
        let b = m.run(&cross_row, &[1.0], &[1.0]).unwrap();
        assert!(b.cycles > a.cycles, "tree route must be slower: {} vs {}", b.cycles, a.cycles);
        assert_eq!(b.tree_bus_transfers, 1);
    }

    #[test]
    fn row_bus_arbitration_serializes_transfers() {
        // pe0 and pe1 both send to pe3 over the row bus in the same cycle;
        // one must stall.
        let geometry = Geometry::new(1, 4);
        let mk_send = |tag| PeInstr::Send { tag, dst: SendTarget::Pe(PeId(3)) };
        let program = ThreadProgram {
            geometry,
            instrs: vec![
                vec![
                    PeInstr::Compute {
                        op: AluOp::Bin(OpKind::Add),
                        a: Src::Imm(1.0),
                        b: Src::Imm(1.0),
                        tag: 2,
                    },
                    mk_send(2),
                ],
                vec![
                    PeInstr::Compute {
                        op: AluOp::Bin(OpKind::Add),
                        a: Src::Imm(2.0),
                        b: Src::Imm(2.0),
                        tag: 3,
                    },
                    mk_send(3),
                ],
                vec![],
                vec![PeInstr::Compute {
                    op: AluOp::Bin(OpKind::Add),
                    a: Src::Tag(2),
                    b: Src::Tag(3),
                    tag: 4,
                }],
            ],
            data_placement: vec![],
            model_placement: vec![],
            gradient_sources: vec![(PeId(3), 4)],
            mem_schedule: vec![],
        };
        let m = Machine::new(geometry, 16.0);
        let out = m.run(&program, &[], &[]).unwrap();
        assert_eq!(out.gradients, vec![6.0]);
        assert_eq!(out.row_bus_transfers, 2);
        assert!(out.bus_stall_cycles >= 1, "second sender must stall at least one cycle");
    }

    #[test]
    fn slow_memory_delays_start() {
        // With 1 word per cycle, data slot 3 arrives at cycle 3.
        let geometry = Geometry::new(1, 1);
        let program = ThreadProgram {
            geometry,
            instrs: vec![vec![PeInstr::Compute {
                op: AluOp::Bin(OpKind::Add),
                a: Src::Data(3),
                b: Src::Imm(0.0),
                tag: 9,
            }]],
            data_placement: vec![Placement { pe: PeId(0), offset: 0 }; 4],
            model_placement: vec![],
            gradient_sources: vec![(PeId(0), 9)],
            mem_schedule: vec![entry()],
        };
        let fast = Machine::new(geometry, 16.0).run(&program, &[0.0, 0.0, 0.0, 7.0], &[]).unwrap();
        let slow = Machine::new(geometry, 1.0).run(&program, &[0.0, 0.0, 0.0, 7.0], &[]).unwrap();
        assert_eq!(fast.gradients, vec![7.0]);
        assert!(slow.cycles > fast.cycles);
    }

    #[test]
    fn deadlock_is_detected() {
        // pe0 waits for a tag nobody produces.
        let geometry = Geometry::new(1, 1);
        let program = ThreadProgram {
            geometry,
            instrs: vec![vec![PeInstr::Compute {
                op: AluOp::Bin(OpKind::Add),
                a: Src::Tag(99),
                b: Src::Imm(0.0),
                tag: 100,
            }]],
            data_placement: vec![],
            model_placement: vec![],
            gradient_sources: vec![(PeId(0), 100)],
            mem_schedule: vec![],
        };
        let err = Machine::new(geometry, 16.0).run(&program, &[], &[]).unwrap_err();
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn wrong_record_length_is_an_error() {
        let m = Machine::new(Geometry::new(1, 1), 16.0);
        assert!(m.run(&demo_program(), &[], &[1.0]).is_err());
    }

    #[test]
    fn div_latency_is_longer() {
        let geometry = Geometry::new(1, 1);
        let mk = |op| ThreadProgram {
            geometry,
            instrs: vec![vec![PeInstr::Compute {
                op: AluOp::Bin(op),
                a: Src::Imm(8.0),
                b: Src::Imm(2.0),
                tag: 5,
            }]],
            data_placement: vec![],
            model_placement: vec![],
            gradient_sources: vec![(PeId(0), 5)],
            mem_schedule: vec![],
        };
        let m = Machine::new(geometry, 16.0);
        let add = m.run(&mk(OpKind::Add), &[], &[]).unwrap();
        let div = m.run(&mk(OpKind::Div), &[], &[]).unwrap();
        assert_eq!(div.gradients, vec![4.0]);
        assert!(div.cycles > add.cycles);
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;
    use crate::geometry::Geometry;

    #[test]
    fn utilization_reflects_issued_work() {
        let m = Machine::new(Geometry::new(1, 1), 16.0);
        let out = m.run(&demo_program(), &[3.0], &[4.0]).unwrap();
        assert_eq!(out.active_pes(), 1);
        assert_eq!(out.pe_issued, vec![1]);
        assert!(out.pe_utilization() > 0.0 && out.pe_utilization() <= 1.0);
    }

    #[test]
    fn idle_pes_lower_utilization() {
        // One working PE among four idle ones.
        let geometry = Geometry::new(1, 4);
        let mut program = demo_program();
        program.geometry = geometry;
        program.instrs = vec![program.instrs[0].clone(), vec![], vec![], vec![]];
        let out = Machine::new(geometry, 16.0).run(&program, &[2.0], &[2.0]).unwrap();
        assert_eq!(out.active_pes(), 1);
        assert!(out.pe_utilization() < 0.5);
    }
}

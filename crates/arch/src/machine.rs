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
//!
//! [`Machine::run`] is [`Machine::load`], then [`Loaded::run`]. Loading
//! resolves the program once: every value a PE reads or produces gets a
//! slot in that PE's own store, numbered densely per PE, and every send
//! its grant class, its latency and the slots it delivers to. A [`Loaded`]
//! holds no record and no model, so it runs any number of them. The run is
//! event-driven: a PE is visited only on a cycle when its head instruction
//! may issue. A PE whose operand is not ready sleeps until the cycle it
//! will be, which is known from the memory stream or from the producer's
//! issue. An operand not yet produced wakes its PE when it is delivered,
//! and so does every later delivery to that slot, because a broadcast can
//! overwrite a value with a new ready time. A send denied a grant stays
//! awake. The PEs awake on a cycle are visited in ascending order, which
//! is the grant arbitration order, and a cycle on which no PE is awake is
//! jumped over. [`Machine::run_reference`] visits every unfinished PE on
//! every cycle, and the two agree on every outcome field and every error.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

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

    fn runaway() -> Self {
        RunError::new("cycle safety limit exceeded (runaway program)")
    }

    fn deadlock() -> Self {
        RunError::new("deadlock: a PE waits for a value that is never produced")
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

    /// Simulates one gradient computation: [`Machine::load`], then
    /// [`Loaded::run`].
    ///
    /// `record` is the flattened training record; `model` the flattened
    /// model parameters (preloaded into model buffers, as the broadcast
    /// write of the memory interface would).
    ///
    /// This is the **event-driven** simulator described in the module
    /// doc: each cycle it visits only the PEs whose head instruction may
    /// issue, in ascending PE order, reading operands from dense per-PE
    /// slots, and it jumps over cycles on which no PE is awake. Every
    /// outcome field (`gradients`, `cycles`, `bus_stall_cycles`, the
    /// transfer counters, `pe_issued`) and every error, deadlock and
    /// runaway included, is **exactly** what [`Machine::run_reference`]
    /// produces. A PE left asleep on a cycle is one whose visit would have
    /// changed nothing: it neither issues nor asks for a grant. The tests
    /// in `tests/machine_equivalence.rs` hold that line on compiled
    /// workloads and on random hand-built programs.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the program is compiled for another
    /// geometry or is structurally invalid, reads a value that is never
    /// produced (deadlock), or exceeds the cycle safety limit.
    pub fn run(
        &self,
        program: &ThreadProgram,
        record: &[f64],
        model: &[f64],
    ) -> Result<RunOutcome, RunError> {
        self.load(program)?.run(record, model)
    }

    /// Loads `program` once for any number of runs: checks that it is
    /// compiled for this machine's geometry, then resolves it in one pass
    /// (see `resolve`) that also makes [`ThreadProgram::validate`]'s
    /// checks, so the first error is the one `validate` reports. The
    /// result holds no record or model; [`Loaded::run`] takes both.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the program is compiled for another
    /// geometry, fails [`ThreadProgram::validate`], or is too large for
    /// the loaded form's 30-bit indices.
    pub fn load(&self, program: &ThreadProgram) -> Result<Loaded, RunError> {
        self.check_geometry(program)?;
        program.validate_layout().map_err(RunError::new)?;
        // Compiled tags are DFG node ids, dense already: they index the tag
        // table directly. Far-flung hand-built tags would size it by the
        // largest, so such a program is renumbered by rank instead.
        let loaded = match self.resolve(program, 4 * program.instr_count() + 4096, |t| t as usize) {
            Err(Stop::FarTag) => {
                let ranked = ranked_tags(program);
                self.resolve(program, ranked.len(), |tag| ranked.partition_point(|&t| t < tag))
            }
            loaded => loaded,
        };
        loaded.map_err(|stop| match stop {
            Stop::FarTag | Stop::TooLarge => RunError::new("program too large to load"),
            Stop::Invalid(error) => error,
        })
    }

    /// Shared structural validation for both simulator paths.
    fn check_shapes(
        &self,
        program: &ThreadProgram,
        record: &[f64],
        model: &[f64],
    ) -> Result<(), RunError> {
        self.check_geometry(program)?;
        program.validate().map_err(RunError::new)?;
        let places = [program.data_placement.len(), program.model_placement.len()];
        check_lengths([record.len(), model.len()], places)
    }

    /// The program is compiled for this machine's geometry.
    fn check_geometry(&self, program: &ThreadProgram) -> Result<(), RunError> {
        if program.geometry == self.geometry {
            return Ok(());
        }
        Err(RunError::new(format!(
            "program is compiled for {}, the machine is {}",
            program.geometry, self.geometry
        )))
    }

    /// data_ready[slot] = cycle the shifter lands the word in its PE
    /// (non-decreasing in the slot index — the stream is sequential). The
    /// quotient is never negative, so `as` floors it, without libm's call.
    fn data_ready(&self, words: usize) -> Vec<u64> {
        (0..words).map(|s| (s as f64 / self.words_per_cycle) as u64).collect()
    }

    /// The grant class and latency of a send from `p`: geometry facts,
    /// not simulation state.
    fn route(&self, p: usize, dst: SendTarget) -> (Ref, u64) {
        let pes = self.geometry.pes();
        let (link, latency) = match dst {
            SendTarget::Pe(q) => {
                let route = self.geometry.route(PeId(p as u32), q);
                (route.link, route.latency)
            }
            SendTarget::Row(_) => (LinkClass::RowBus(self.geometry.row(PeId(p as u32))), 2),
            SendTarget::All => {
                let route = self.geometry.route(PeId(0), PeId((pes - 1) as u32));
                let latency = if self.geometry.rows == 1 { 2 } else { route.latency };
                (LinkClass::TreeBus, latency)
            }
        };
        let grant = match (link, dst) {
            (LinkClass::Neighbor, SendTarget::Pe(q)) => {
                Ref::new(Ref::LINK, 2 * p + usize::from(q.index() > p))
            }
            (LinkClass::RowBus(row), _) => Ref::new(Ref::ROW, row),
            (LinkClass::TreeBus, _) => Ref::new(Ref::TREE, 0),
            (LinkClass::Local | LinkClass::Neighbor, _) => Ref::new(Ref::LOCAL, 0),
        };
        (grant, latency)
    }

    /// Resolves the program in one pass, checking each instruction as
    /// `validate` does: every operand to a slot of its PE's store, a
    /// record word, a model word or an immediate, and every send to its
    /// grant class, latency and receiver slots. Stops at an invalid
    /// instruction or a tag whose `index` is past `bound`.
    ///
    /// A PE's slots are the tags it reads (as an operand, to send, or as
    /// a gradient) or produces, numbered PE after PE through one table
    /// indexed by tag and stamped with the PE being numbered, so it grows
    /// to the largest tag, not to PEs × tags. Each row heads the list of
    /// its tag's slots, and a send delivers only to the slots it reaches:
    /// a PE that neither reads nor produces a tag has none, and its value
    /// changes nothing there. (`Loaded::run_counted` logs such writes near
    /// the cycle limit, where they decide between deadlock and runaway.)
    fn resolve(
        &self,
        program: &ThreadProgram,
        bound: usize,
        index: impl Fn(Tag) -> usize,
    ) -> Result<Loaded, Stop> {
        let pes = self.geometry.pes();
        let count = program.instr_count();
        let words = program.data_placement.len();
        let model_words = program.model_placement.len();
        // The gradient sources PE by PE (a counting sort): PE p's are
        // `by_pe[first[p]..first[p + 1]]`.
        let mut first = vec![0; pes + 1];
        for &(pe, _) in &program.gradient_sources {
            first[pe.index() + 1] += 1;
        }
        for p in 0..pes {
            first[p + 1] += first[p];
        }
        let mut by_pe = vec![0; program.gradient_sources.len()];
        let mut next = first.clone();
        for (g, &(pe, _)) in program.gradient_sources.iter().enumerate() {
            by_pe[next[pe.index()]] = g;
            next[pe.index()] += 1;
        }

        let mut table = Vec::new();
        // Slot s belongs to PE holders[s].0; holders[s].1 is the slot
        // numbered before it for the same tag (a list per tag).
        let mut holders: Vec<(u32, u32)> = Vec::with_capacity(count);
        let mut ops = Vec::with_capacity(count);
        let mut starts = Vec::with_capacity(pes + 1);
        let mut imms = Vec::new();
        let mut sends = Vec::new();
        let mut gradients = vec![(0, 0); program.gradient_sources.len()];
        let mut max_latency = 0;
        starts.push(0);
        for (p, stream) in program.instrs.iter().enumerate() {
            let pe = p as u32;
            let mut slot = |tag: Tag| {
                let t = index(tag);
                if t >= table.len() {
                    if t >= bound {
                        return Err(Stop::FarTag);
                    }
                    table.resize(t + 1, (NO_SLOT, NO_SLOT));
                }
                let (stamp, slot) = &mut table[t];
                if *stamp != pe {
                    holders.push((pe, *slot));
                    (*stamp, *slot) = (pe, (holders.len() - 1) as u32);
                }
                Ok(*slot)
            };
            for instr in stream {
                program.validate_instr(p, instr).map_err(|e| Stop::Invalid(RunError::new(e)))?;
                ops.push(match *instr {
                    PeInstr::Compute { op, a, b, tag } => {
                        let a = operand(a, &mut imms, &mut slot)?;
                        // A unary op's second operand repeats its first;
                        // its value is never read.
                        let b = match op {
                            AluOp::Bin(_) => operand(b, &mut imms, &mut slot)?,
                            AluOp::Un(_) => a,
                        };
                        max_latency = max_latency.max(op.latency());
                        Op::Compute { op, a, b, dst: slot(tag)? }
                    }
                    PeInstr::Send { tag, dst } => {
                        let src = slot(tag)?;
                        let (grant, latency) = self.route(p, dst);
                        max_latency = max_latency.max(latency);
                        sends.push((pe, index(tag) as u32, dst));
                        let send = (sends.len() - 1) as u32;
                        // A latency is at most 2 · (64 + 1) cycles.
                        Op::Send { src, grant, latency: latency as u16, send }
                    }
                });
            }
            for &g in &by_pe[first[p]..first[p + 1]] {
                let tag = program.gradient_sources[g].1;
                gradients[g] = (tag, slot(tag)?);
            }
            starts.push(ops.len() as u32);
        }

        let mut fanout = Vec::with_capacity(sends.len() + 1);
        let mut deliveries = Vec::new();
        fanout.push(0);
        for &(from, t, dst) in &sends {
            let mut s = table[t as usize].1;
            while s != NO_SLOT {
                let (q, before) = holders[s as usize];
                if delivers(self.geometry, from, dst, q) {
                    deliveries.push((q, s));
                }
                s = before;
            }
            fanout.push(deliveries.len() as u32);
        }
        // Past these counts an index would not fit its field.
        let counts =
            [ops.len(), holders.len(), imms.len(), words, model_words, 2 * pes, deliveries.len()];
        if counts.into_iter().any(|n| n > Ref::LIMIT) {
            return Err(Stop::TooLarge);
        }
        Ok(Loaded {
            geometry: self.geometry,
            ops,
            starts,
            imms,
            sends,
            fanout,
            deliveries,
            slots: holders.len(),
            gradients,
            data_ready: self.data_ready(words),
            model_words,
            max_latency,
        })
    }

    /// The pre-optimization per-cycle simulator, kept verbatim as the
    /// equivalence oracle for [`Machine::run`]: it visits every
    /// unfinished PE on every cycle. Semantics are the contract; see
    /// `run` for what the fast path may and may not change (nothing
    /// observable).
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
    fn read(
        &self,
        store: &HashMap<Tag, (f64, u64)>,
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

/// The ready cycle of a slot no value has reached, and the wake-up cycle
/// of a PE with none booked.
const NEVER: u64 = u64::MAX;

/// A watch on no slot; in `Machine::resolve`, also a tag no PE has
/// numbered yet and the end of a reader list.
const NO_SLOT: u32 = u32::MAX;

/// The record and model lengths against the word counts the program
/// places.
fn check_lengths(lengths: [usize; 2], places: [usize; 2]) -> Result<(), RunError> {
    for ((what, got), want) in ["record", "model"].into_iter().zip(lengths).zip(places) {
        if got != want {
            return Err(RunError::new(format!("{what} has {got} words, program expects {want}")));
        }
    }
    Ok(())
}

/// Whether a send from `p` to `dst` delivers to `q`. Buses are shared
/// media, so a row or tree transaction delivers everywhere at once.
fn delivers(geometry: Geometry, p: u32, dst: SendTarget, q: u32) -> bool {
    q != p
        && match dst {
            SendTarget::Pe(to) => to.0 == q,
            SendTarget::Row(r) => q as usize / geometry.columns == r as usize,
            SendTarget::All => true,
        }
}

/// A [`ThreadProgram`] resolved for one [`Machine`] by
/// [`Machine::load`]. It holds no record and no model, so one `Loaded`
/// runs any number of them.
#[derive(Debug, Clone)]
pub struct Loaded {
    geometry: Geometry,
    /// Every PE's instructions, PE after PE: PE p's are
    /// `ops[starts[p]..starts[p + 1]]`.
    ops: Vec<Op>,
    starts: Vec<u32>,
    /// What an `IMM` operand indexes.
    imms: Vec<f64>,
    /// Every send as written: (sending PE, tag index, target), in program
    /// order.
    sends: Vec<(u32, u32, SendTarget)>,
    /// Send k's deliveries are `deliveries[fanout[k]..fanout[k + 1]]`.
    fanout: Vec<u32>,
    /// (receiving PE, its slot) for every receiver with a slot for the tag.
    deliveries: Vec<(u32, u32)>,
    /// Slots across all PEs.
    slots: usize,
    /// The tag and slot of each gradient source.
    gradients: Vec<(Tag, u32)>,
    /// The cycle each record word lands (see `Machine::data_ready`).
    data_ready: Vec<u64>,
    /// Model words the program places.
    model_words: usize,
    /// The longest latency of any instruction.
    max_latency: u64,
}

impl Loaded {
    /// Simulates one gradient computation on the loaded program, exactly
    /// as [`Machine::run`] does. Model words are read where they lie, not
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if `record` or `model` does not have the
    /// length the program places, if the program reads a value that is
    /// never produced (deadlock), or if it exceeds the cycle safety limit.
    pub fn run(&self, record: &[f64], model: &[f64]) -> Result<RunOutcome, RunError> {
        self.run_counted(record, model).map(|(outcome, _)| outcome)
    }

    /// [`Loaded::run`], also returning its PE visits: how many times a
    /// PE's head instruction was examined on some cycle. The reference
    /// makes one visit per unfinished PE per cycle.
    fn run_counted(&self, record: &[f64], model: &[f64]) -> Result<(RunOutcome, u64), RunError> {
        check_lengths([record.len(), model.len()], [self.data_ready.len(), self.model_words])?;
        let Loaded {
            geometry,
            ops,
            starts,
            imms,
            sends,
            fanout,
            deliveries,
            slots,
            gradients,
            data_ready,
            max_latency,
            ..
        } = self;
        let pes = geometry.pes();

        // Slot -> (value, ready cycle); NEVER = no value has arrived.
        let mut store = vec![(0.0, NEVER); *slots];
        // The slots each PE's head instruction reads (NO_SLOT = none).
        let mut watch = vec![[NO_SLOT; 2]; pes];
        let mut pc = starts[..pes].to_vec();
        let mut calendar = Calendar::new(pes);
        let mut done = 0;
        for p in 0..pes {
            if starts[p] == starts[p + 1] {
                done += 1;
            } else {
                calendar.book(p, 0, 0);
            }
        }
        // Grants are stamped with the cycle that took them, so the
        // per-cycle reset is free. Neighbor links are directed: link
        // 2p is p's link to p - 1, link 2p + 1 its link to p + 1.
        let mut link_stamp = vec![NEVER; 2 * pes];
        let mut row_stamp = vec![NEVER; geometry.rows];
        let mut tree_stamp = NEVER;
        let mut due: Vec<u32> = Vec::new();
        let mut visits = 0u64;
        // Every store write from the cycle after `late_from` on, deliveries
        // to PEs without a slot for the tag included: ((NO_SLOT, slot) or
        // (PE, tag index), ready cycle). Only a write this late can be
        // ready past the safety limit (see the deadlock arm).
        let late_from = SAFETY_LIMIT.saturating_sub(*max_latency);
        let mut late_writes: Vec<((u32, u32), u64)> = Vec::new();

        let mut outcome = RunOutcome {
            gradients: vec![0.0; gradients.len()],
            cycles: 0,
            neighbor_transfers: 0,
            row_bus_transfers: 0,
            tree_bus_transfers: 0,
            bus_stall_cycles: 0,
            pe_issued: vec![0; pes],
        };

        // When the head instruction `op` can issue, given what the store
        // holds now; records the slots it reads in `watch`.
        let ready_at = |op: &Op, store: &[(f64, u64)], watch: &mut [u32; 2]| -> u64 {
            let operand = |src: Ref, slot: &mut u32| match src.kind() {
                Ref::SLOT => {
                    *slot = src.index() as u32;
                    store[src.index()].1
                }
                Ref::DATA => {
                    *slot = NO_SLOT;
                    data_ready[src.index()]
                }
                _ => {
                    *slot = NO_SLOT;
                    0
                }
            };
            match *op {
                Op::Compute { a, b, .. } => {
                    let [wa, wb] = watch;
                    operand(a, wa).max(operand(b, wb))
                }
                Op::Send { src, .. } => {
                    *watch = [src, NO_SLOT];
                    store[src as usize].1
                }
            }
        };
        let value = |src: Ref, store: &[(f64, u64)]| match src.kind() {
            Ref::SLOT => store[src.index()].0,
            Ref::DATA => record[src.index()],
            Ref::MODEL => model[src.index()],
            _ => imms[src.index()],
        };

        let mut now: u64 = 0;
        while done < pes {
            if now > SAFETY_LIMIT {
                return Err(RunError::runaway());
            }
            let mut bus_stalled = false;
            calendar.take_due(now, &mut due);
            for &q in &due {
                let q = q as usize;
                if !calendar.visit(q, now) {
                    continue; // a wake-up that a delivery moved earlier
                }
                visits += 1;
                let op = &ops[pc[q] as usize];
                let at = ready_at(op, &store, &mut watch[q]);
                if at > now {
                    calendar.book(q, at, now);
                    continue;
                }
                match *op {
                    Op::Compute { op, a, b, dst } => {
                        let va = value(a, &store);
                        let result = match op {
                            AluOp::Bin(kind) => kind.apply(va, value(b, &store)),
                            AluOp::Un(func) => cosmic_dfg_apply_unary(func, va),
                        };
                        let ready = now + op.latency();
                        store[dst as usize] = (result, ready);
                        if now > late_from {
                            late_writes.push(((NO_SLOT, dst), ready));
                        }
                    }
                    Op::Send { src, grant, latency, send } => {
                        let send = send as usize;
                        let granted = match grant.kind() {
                            Ref::LINK => {
                                let free = link_stamp[grant.index()] != now;
                                if free {
                                    link_stamp[grant.index()] = now;
                                    outcome.neighbor_transfers += 1;
                                }
                                free
                            }
                            Ref::ROW => {
                                let free = row_stamp[grant.index()] != now;
                                if free {
                                    row_stamp[grant.index()] = now;
                                    outcome.row_bus_transfers += 1;
                                }
                                free
                            }
                            Ref::TREE => {
                                let free = tree_stamp != now;
                                if free {
                                    tree_stamp = now;
                                    outcome.tree_bus_transfers += 1;
                                }
                                free
                            }
                            _ => true,
                        };
                        if !granted {
                            bus_stalled = true;
                            calendar.book(q, now + 1, now);
                            continue;
                        }
                        let arrive = now + u64::from(latency);
                        let sent = (store[src as usize].0, arrive);
                        let delivered =
                            &deliveries[fanout[send] as usize..fanout[send + 1] as usize];
                        for &(r, slot) in delivered {
                            store[slot as usize] = sent;
                            if watch[r as usize].contains(&slot) {
                                calendar.book(r as usize, arrive, now);
                            }
                        }
                        if now > late_from {
                            let (p, t, dst) = sends[send];
                            for r in (0..pes as u32).filter(|&r| delivers(*geometry, p, dst, r)) {
                                let slot = delivered.iter().find(|&&(q, _)| q == r);
                                let key = slot.map_or((r, t), |&(_, s)| (NO_SLOT, s));
                                late_writes.push((key, arrive));
                            }
                        }
                    }
                }
                outcome.pe_issued[q] += 1;
                pc[q] += 1;
                if pc[q] == starts[q + 1] {
                    done += 1;
                    watch[q] = [NO_SLOT; 2];
                } else {
                    let at = ready_at(&ops[pc[q] as usize], &store, &mut watch[q]);
                    calendar.book(q, at.max(now + 1), now);
                }
            }
            if bus_stalled {
                outcome.bus_stall_cycles += 1;
            }
            if done == pes {
                now += 1;
                break;
            }
            match calendar.next_after(now) {
                // The cycles in between are ones on which the reference
                // visits every PE and none issues or stalls. The jump
                // clamps to SAFETY_LIMIT + 1 so a runaway program errors
                // at the identical cycle.
                Some(next) => now = next.min(SAFETY_LIMIT + 1),
                // No PE will ever wake: each unfinished one waits for a
                // value nobody is left to send. The reference steps on
                // while any stored value or record word is still due,
                // so it reports a runaway iff one is due past the limit.
                // A write before `late_from` is ready by the limit, and
                // the log holds the last write of every later one.
                None => {
                    let last: HashMap<(u32, u32), u64> = late_writes.into_iter().collect();
                    let last_data = data_ready.last().copied().unwrap_or(0);
                    return Err(
                        if last_data > SAFETY_LIMIT || last.values().any(|&r| r > SAFETY_LIMIT) {
                            RunError::runaway()
                        } else {
                            RunError::deadlock()
                        },
                    );
                }
            }
        }

        // Collect gradients and the cycle everything was ready.
        let mut finish = now;
        for (slot, &(tag, s)) in gradients.iter().enumerate() {
            let (value, ready) = store[s as usize];
            if ready == NEVER {
                return Err(RunError::new(format!(
                    "gradient slot {slot} (tag {tag}) was never produced"
                )));
            }
            outcome.gradients[slot] = value;
            finish = finish.max(ready);
        }
        outcome.cycles = finish;
        Ok((outcome, visits))
    }
}

/// One instruction with its operands and its route resolved.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// An ALU operation into slot `dst` of its own PE.
    Compute { op: AluOp, a: Ref, b: Ref, dst: u32 },
    /// Send number `send` (an index of `Loaded::sends`) of slot `src`,
    /// competing for `grant` and landing `latency` cycles later.
    Send { src: u32, grant: Ref, latency: u16, send: u32 },
}

// Ops are written once per load and read once per issue: keep them small.
const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A kind in the top two bits and an index below: a compute operand, or
/// the arbitration resource a send competes for.
#[derive(Debug, Clone, Copy)]
struct Ref(u32);

impl Ref {
    /// Operand kinds: a slot of the PE's own store, a record word (ready
    /// once the memory stream lands it), a model word, an immediate.
    const SLOT: u32 = 0;
    const DATA: u32 = 1;
    const MODEL: u32 = 2;
    const IMM: u32 = 3;
    /// Grant kinds: no shared medium (always granted), one directed
    /// neighbor link (see `link_stamp`), one row bus, the tree bus.
    const LOCAL: u32 = 0;
    const LINK: u32 = 1;
    const ROW: u32 = 2;
    const TREE: u32 = 3;
    /// Indices are below this.
    const LIMIT: usize = 1 << 30;

    fn new(kind: u32, index: usize) -> Ref {
        Ref(kind << 30 | index as u32)
    }

    fn kind(self) -> u32 {
        self.0 >> 30
    }

    fn index(self) -> usize {
        (self.0 as usize) & (Ref::LIMIT - 1)
    }
}

/// Why `Machine::resolve` stopped.
enum Stop {
    /// A tag past the table's bound: resolve again, by rank.
    FarTag,
    /// A count past its field.
    TooLarge,
    /// An instruction `validate` rejects.
    Invalid(RunError),
}

/// An operand's `Ref`: a slot numbered by `slot`, or an immediate kept
/// in `imms`. Always inlined: left to the compiler it is not, and that
/// costs ≈ 12 % of a load.
#[inline(always)]
fn operand(
    src: Src,
    imms: &mut Vec<f64>,
    slot: impl FnOnce(Tag) -> Result<u32, Stop>,
) -> Result<Ref, Stop> {
    Ok(match src {
        Src::Imm(v) => {
            imms.push(v);
            Ref::new(Ref::IMM, imms.len() - 1)
        }
        Src::Model(s) => Ref::new(Ref::MODEL, s as usize),
        Src::Data(s) => Ref::new(Ref::DATA, s as usize),
        Src::Tag(t) => Ref::new(Ref::SLOT, slot(t)? as usize),
    })
}

/// Every tag `program` names, ascending, each once: a tag's rank is its
/// index in the ranked tag table.
fn ranked_tags(program: &ThreadProgram) -> Vec<Tag> {
    let mut ranked: Vec<Tag> = program.gradient_sources.iter().map(|&(_, tag)| tag).collect();
    for instr in program.instrs.iter().flatten() {
        match *instr {
            PeInstr::Compute { a, b, tag, .. } => {
                ranked.push(tag);
                for src in [a, b] {
                    if let Src::Tag(t) = src {
                        ranked.push(t);
                    }
                }
            }
            PeInstr::Send { tag, .. } => ranked.push(tag),
        }
    }
    ranked.sort_unstable();
    ranked.dedup();
    ranked
}

/// The cycles on which sleeping PEs wake: one PE bitset per cycle for
/// the next [`Calendar::RING`] cycles, and a heap for wake-ups beyond.
/// A PE has at most one live wake-up, `wake[p]`. Moving it earlier
/// leaves the old entry behind, and `visit` skips such stale entries.
#[derive(Debug)]
struct Calendar {
    /// Words per bitset.
    words: usize,
    /// Bitset of cycle `t` at `ring[(t % RING) * words..][..words]`.
    ring: Vec<u64>,
    /// Bit `b` set: bitset `b` has a PE in it.
    occupied: u64,
    /// Wake-ups `RING` or more cycles ahead of the cycle that booked them.
    later: BinaryHeap<Reverse<(u64, u32)>>,
    /// Each PE's live wake-up cycle, `NEVER` if it has none.
    wake: Vec<u64>,
    /// PEs with a live wake-up.
    booked: usize,
}

impl Calendar {
    const RING: u64 = 64;

    fn new(pes: usize) -> Self {
        let words = pes.div_ceil(64);
        Calendar {
            words,
            ring: vec![0; Self::RING as usize * words],
            occupied: 0,
            later: BinaryHeap::new(),
            wake: vec![NEVER; pes],
            booked: 0,
        }
    }

    /// Wakes PE `p` on cycle `at` (`now` or later), unless it already
    /// wakes no later than that.
    fn book(&mut self, p: usize, at: u64, now: u64) {
        if at >= self.wake[p] {
            return;
        }
        if self.wake[p] == NEVER {
            self.booked += 1;
        }
        self.wake[p] = at;
        if at - now < Self::RING {
            let bucket = (at % Self::RING) as usize;
            self.ring[bucket * self.words + p / 64] |= 1 << (p % 64);
            self.occupied |= 1 << bucket;
        } else {
            self.later.push(Reverse((at, p as u32)));
        }
    }

    /// Replaces `due` with the PEs booked for `now`, in ascending order
    /// (stale entries included), and empties the cycle's bitset.
    fn take_due(&mut self, now: u64, due: &mut Vec<u32>) {
        let bucket = (now % Self::RING) as usize;
        let bits = &mut self.ring[bucket * self.words..][..self.words];
        while let Some(&Reverse((at, p))) = self.later.peek() {
            if at > now {
                break;
            }
            self.later.pop();
            bits[p as usize / 64] |= 1 << (p % 64);
        }
        due.clear();
        for (w, word) in bits.iter_mut().enumerate() {
            let mut word = std::mem::take(word);
            while word != 0 {
                due.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        self.occupied &= !(1 << bucket);
    }

    /// Starts PE `p`'s visit on cycle `now` and clears its wake-up, or
    /// returns false if `now` is not its live wake-up (a stale entry).
    fn visit(&mut self, p: usize, now: u64) -> bool {
        if self.wake[p] != now {
            return false;
        }
        self.wake[p] = NEVER;
        self.booked -= 1;
        true
    }

    /// The first cycle after `now` with a wake-up booked, or `None` if no
    /// PE has a live one.
    fn next_after(&self, now: u64) -> Option<u64> {
        if self.booked == 0 {
            return None;
        }
        let ahead = self.occupied.rotate_right(((now + 1) % Self::RING) as u32);
        let ring = (ahead != 0).then(|| now + 1 + u64::from(ahead.trailing_zeros()));
        let later = self.later.peek().map(|&Reverse((at, _))| at);
        ring.into_iter().chain(later).min()
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

#[cfg(test)]
mod event_tests {
    use super::*;
    use crate::isa::Placement;
    use cosmic_dsl::UnaryFn;

    /// Reads the instruction listing format of `crates/arch/testdata`,
    /// which `tests/machine_equivalence.rs` writes from the compiler.
    fn parse_listing(text: &str) -> ThreadProgram {
        const BIN: [OpKind; 8] = [
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Gt,
            OpKind::Lt,
            OpKind::Ge,
            OpKind::Le,
        ];
        const UN: [UnaryFn; 6] = [
            UnaryFn::Sigmoid,
            UnaryFn::Gaussian,
            UnaryFn::Log,
            UnaryFn::Sqrt,
            UnaryFn::Exp,
            UnaryFn::Abs,
        ];
        let num = |s: &str| s.parse::<u32>().unwrap();
        let src = |s: &str| match s.split_at(1) {
            ("d", n) => Src::Data(num(n)),
            ("m", n) => Src::Model(num(n)),
            ("t", n) => Src::Tag(num(n)),
            ("#", v) => Src::Imm(v.parse().unwrap()),
            _ => panic!("bad operand {s}"),
        };
        let mut program = ThreadProgram {
            geometry: Geometry::new(1, 1),
            instrs: Vec::new(),
            data_placement: Vec::new(),
            model_placement: Vec::new(),
            gradient_sources: Vec::new(),
            mem_schedule: Vec::new(),
        };
        let slot = Placement { pe: PeId(0), offset: 0 };
        for line in text.lines().filter(|line| !line.starts_with("# ")) {
            let words: Vec<&str> = line.split_whitespace().collect();
            let instr = match words[..] {
                ["geometry", rows, cols] => {
                    program.geometry = Geometry::new(num(rows) as usize, num(cols) as usize);
                    continue;
                }
                ["data", n] => {
                    program.data_placement = vec![slot; num(n) as usize];
                    continue;
                }
                ["model", n] => {
                    program.model_placement = vec![slot; num(n) as usize];
                    continue;
                }
                ["gradient", pe, tag] => {
                    program.gradient_sources.push((PeId(num(pe)), num(tag)));
                    continue;
                }
                ["pe", _] => {
                    program.instrs.push(Vec::new());
                    continue;
                }
                ["send", tag, "pe", q] => {
                    PeInstr::Send { tag: num(tag), dst: SendTarget::Pe(PeId(num(q))) }
                }
                ["send", tag, "row", r] => {
                    PeInstr::Send { tag: num(tag), dst: SendTarget::Row(num(r)) }
                }
                ["send", tag, "all"] => PeInstr::Send { tag: num(tag), dst: SendTarget::All },
                [op, a, b, tag] => {
                    let bin = BIN.into_iter().find(|k| k.to_string() == op).map(AluOp::Bin);
                    let un = UN.into_iter().find(|f| f.to_string() == op).map(AluOp::Un);
                    let op = bin.or(un).unwrap_or_else(|| panic!("bad op {op}"));
                    PeInstr::Compute { op, a: src(a), b: src(b), tag: num(tag) }
                }
                _ => panic!("bad line {line}"),
            };
            program.instrs.last_mut().expect("a pe line first").push(instr);
        }
        program
    }

    /// The saving pinned: PE visits on the svm program (n = 64, 2×8)
    /// that `tests/machine_equivalence.rs`'s random-stimulus proptest
    /// runs, at both of its bandwidths. Visits depend on timing only,
    /// never on the record or model values. The program has 441
    /// instructions; the machine that visited every unfinished PE on
    /// every cycle made 3262 and 5246 visits.
    #[test]
    fn visits_on_the_svm_program_are_pinned() {
        let program = parse_listing(include_str!("../testdata/svm_n64_2x8.txt"));
        let record = vec![0.5; program.data_placement.len()];
        let model = vec![0.25; program.model_placement.len()];
        for (words_per_cycle, pinned) in [(16.0, 453), (0.5, 458)] {
            let machine = Machine::new(program.geometry, words_per_cycle);
            let (outcome, visits) =
                machine.load(&program).unwrap().run_counted(&record, &model).unwrap();
            assert_eq!(outcome, machine.run_reference(&program, &record, &model).unwrap());
            eprintln!(
                "VISITS wpc {words_per_cycle} visits {visits} cycles {} instrs {}",
                outcome.cycles,
                program.instr_count()
            );
            assert_eq!(visits, pinned, "visits at {words_per_cycle} words/cycle");
        }
    }

    /// A program that is stuck from cycle 0 on, except that PE 0 reads
    /// record word 1, which lands three cycles before the safety limit,
    /// and sends it to PE 1, which never reads it. Whether that value is
    /// ready by the limit decides between deadlock and runaway.
    fn late_sender(geometry: Geometry) -> ThreadProgram {
        let add =
            |a, tag| PeInstr::Compute { op: AluOp::Bin(OpKind::Add), a, b: Src::Imm(0.0), tag };
        let slot = Placement { pe: PeId(0), offset: 0 };
        ThreadProgram {
            geometry,
            instrs: vec![
                vec![add(Src::Data(1), 1), PeInstr::Send { tag: 1, dst: SendTarget::Pe(PeId(1)) }],
                vec![add(Src::Tag(2), 3)],
            ],
            data_placement: vec![slot; 2],
            model_placement: Vec::new(),
            gradient_sources: vec![(PeId(1), 3)],
            mem_schedule: Vec::new(),
        }
    }

    #[test]
    fn a_late_unread_delivery_decides_runaway_or_deadlock() {
        let words_per_cycle = 1.0 / (SAFETY_LIMIT as f64 - 2.5);
        // Over the tree bus (2 rows: 4 cycles) the value lands after the
        // limit, so the reference steps past it; over a neighbor link (1
        // cycle) it lands first and the reference finds the deadlock.
        for (geometry, want) in [
            (Geometry::new(2, 1), RunError::runaway()),
            (Geometry::new(1, 2), RunError::deadlock()),
        ] {
            let machine = Machine::new(geometry, words_per_cycle);
            assert_eq!(machine.data_ready(2)[1], SAFETY_LIMIT - 3);
            let program = late_sender(geometry);
            let fast = machine.run(&program, &[1.0, 2.0], &[]).unwrap_err();
            assert_eq!(fast, want, "{geometry}");
            assert_eq!(fast, machine.run_reference(&program, &[1.0, 2.0], &[]).unwrap_err());
        }
    }

    /// Tags far past the instruction count are numbered by rank: the
    /// direct table stops at the first one, and the program loads again
    /// ranked, running exactly as it does with small tags.
    #[test]
    fn far_flung_tags_load_by_rank() {
        let program = |[a, b, c]: [Tag; 3]| {
            let op = |kind, a, b, tag| PeInstr::Compute { op: AluOp::Bin(kind), a, b, tag };
            let slot = Placement { pe: PeId(0), offset: 0 };
            ThreadProgram {
                geometry: Geometry::new(1, 2),
                instrs: vec![
                    vec![
                        op(OpKind::Add, Src::Data(0), Src::Imm(1.0), a),
                        op(OpKind::Mul, Src::Tag(a), Src::Data(1), b),
                        PeInstr::Send { tag: b, dst: SendTarget::Pe(PeId(1)) },
                    ],
                    vec![op(OpKind::Mul, Src::Tag(b), Src::Model(0), c)],
                ],
                data_placement: vec![slot; 2],
                model_placement: vec![slot],
                gradient_sources: vec![(PeId(1), c), (PeId(0), a)],
                mem_schedule: Vec::new(),
            }
        };
        let machine = Machine::new(Geometry::new(1, 2), 1.0);
        let (record, model) = ([2.0, 3.0], [0.5]);
        let small = machine.run(&program([1, 2, 3]), &record, &model).unwrap();
        assert_eq!(small.gradients, vec![4.5, 3.0]);
        let far = program([5, 3_000_000_000, u32::MAX]);
        assert_eq!(machine.run(&far, &record, &model).unwrap(), small);
        assert_eq!(machine.run_reference(&far, &record, &model).unwrap(), small);
    }

    /// `load` makes `validate`'s checks inside its pass, so its first
    /// error must be the one `validate` reports: each program here has
    /// two faults, and in some a far-flung tag sends the load to its
    /// ranked pass before the pass reaches a fault.
    #[test]
    fn load_reports_the_first_error_validate_reports() {
        let far = 3_000_000_000;
        let add =
            |a, tag| PeInstr::Compute { op: AluOp::Bin(OpKind::Add), a, b: Src::Imm(1.0), tag };
        let send = |dst| PeInstr::Send { tag: 1, dst };
        let faulty: [(usize, PeInstr, usize, PeInstr); 5] = [
            (0, add(Src::Data(7), 1), 1, send(SendTarget::Pe(PeId(1)))),
            (0, add(Src::Tag(far), 9), 1, add(Src::Model(4), 2)),
            (0, add(Src::Data(0), far), 0, send(SendTarget::Row(3))),
            (1, send(SendTarget::Pe(PeId(5))), 0, add(Src::Data(8), far)),
            (1, add(Src::Tag(far), far), 1, send(SendTarget::Row(2))),
        ];
        let machine = Machine::new(Geometry::new(1, 2), 1.0);
        for (i, (p, first, q, second)) in faulty.into_iter().enumerate() {
            let mut program = late_sender(Geometry::new(1, 2));
            program.model_placement = vec![Placement { pe: PeId(0), offset: 0 }];
            program.instrs[p].insert(0, first);
            program.instrs[q].push(second);
            let want = program.validate().unwrap_err();
            let got = machine.load(&program).unwrap_err();
            assert_eq!(got.to_string(), format!("machine error: {want}"), "program {i}");
            let (record, model) = ([1.0, 2.0], [3.0]);
            assert_eq!(got, machine.run(&program, &record, &model).unwrap_err());
            assert_eq!(got, machine.run_reference(&program, &record, &model).unwrap_err());
        }
        let mut program = late_sender(Geometry::new(1, 2));
        program.gradient_sources.push((PeId(2), 1));
        program.instrs[0].push(add(Src::Data(9), 1));
        let want = program.validate().unwrap_err();
        assert!(want.contains("gradient source"), "{want}");
        assert_eq!(
            machine.load(&program).unwrap_err().to_string(),
            format!("machine error: {want}")
        );
    }

    #[test]
    fn out_of_range_operand_slots_are_errors_on_both_paths() {
        let machine = Machine::new(Geometry::new(1, 1), 16.0);
        for bad in [Src::Data(5), Src::Model(7)] {
            let mut program = demo_program();
            program.instrs[0][0] =
                PeInstr::Compute { op: AluOp::Bin(OpKind::Mul), a: bad, b: Src::Model(0), tag: 2 };
            let fast = machine.run(&program, &[3.0], &[4.0]).unwrap_err();
            assert!(fast.to_string().contains("out-of-range"), "{fast}");
            assert_eq!(fast, machine.run_reference(&program, &[3.0], &[4.0]).unwrap_err());
        }
    }
}

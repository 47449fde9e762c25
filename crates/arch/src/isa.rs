//! The compiled-program representation executed by the template
//! architecture.
//!
//! The CoSMIC compiler statically maps every DFG operation to a PE and
//! converts the schedule into per-PE instruction streams (on FPGAs these
//! become state machines; on P-ASICs, microcode — paper §4.5). The types
//! here are that microcode.

use cosmic_dfg::OpKind;
use cosmic_dsl::UnaryFn;

use crate::geometry::{Geometry, PeId};

/// Identifies a value flowing through the accelerator — the id of the DFG
/// node that produces it. Tags are how transfers are matched to consumers.
pub type Tag = u32;

/// An instruction operand source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// The PE's data buffer: a slot of the streamed training record.
    Data(u32),
    /// The PE's model buffer: a slot of the (preloaded) model parameters.
    Model(u32),
    /// An immediate constant baked into the control logic.
    Imm(f64),
    /// A value produced earlier — in this PE's interim buffer, or received
    /// over a link into it.
    Tag(Tag),
}

/// The ALU/LUT operation of a compute instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// A binary ALU operation (DSP path).
    Bin(OpKind),
    /// A unary non-linear operation (look-up-table path).
    Un(UnaryFn),
}

impl AluOp {
    /// Result latency in cycles.
    pub(crate) fn latency(self) -> u64 {
        match self {
            AluOp::Bin(k) => u64::from(k.latency()),
            AluOp::Un(_) => 2,
        }
    }

    /// Whether the op needs the PE's non-linear unit.
    pub(crate) fn is_nonlinear(self) -> bool {
        match self {
            AluOp::Bin(k) => k.is_nonlinear(),
            AluOp::Un(_) => true,
        }
    }
}

/// One statically scheduled PE instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeInstr {
    /// Execute an ALU/LUT operation and store the result in the interim
    /// buffer under `tag`.
    Compute {
        /// Operation.
        op: AluOp,
        /// First operand.
        a: Src,
        /// Second operand (ignored by unary ops).
        b: Src,
        /// Identity of the produced value.
        tag: Tag,
    },
    /// Transmit a locally available value over the interconnect. The
    /// row bus and the tree bus are shared media, so one transaction can
    /// deliver to every PE of a row (or of the whole thread) at once —
    /// the same property the hardware's Broadcast bit exploits.
    Send {
        /// Which value.
        tag: Tag,
        /// Destination(s).
        dst: SendTarget,
    },
}

/// Where a `Send` delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTarget {
    /// One PE (adjacent PEs use the neighbor link; others the buses).
    Pe(PeId),
    /// Every PE in the producer's row, over that row's shared bus: the
    /// row named must be the producer's own ([`ThreadProgram::validate`]).
    Row(u32),
    /// Every PE of the thread, over the tree bus.
    All,
}

/// Direction of a memory-schedule transfer (the RD/WR bit of paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemDirection {
    /// Memory → PE buffers.
    Read,
    /// PE buffers → memory.
    Write,
}

/// One entry of the programmable memory interface's schedule queue
/// (paper Figure 5: Base PE Index, RD/WR, Broadcast, Size). The physical
/// target PE is `base_pe + thread's PE offset` at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemScheduleEntry {
    /// Base PE index within the thread.
    pub base_pe: u32,
    /// Read or write.
    pub dir: MemDirection,
    /// Whether the transfer is broadcast to all worker threads (used for
    /// model parameters).
    pub broadcast: bool,
    /// Words transferred.
    pub size: u32,
}

/// Where a data or model slot lives: which PE and at which buffer offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Owning PE (within the thread's allocation).
    pub pe: PeId,
    /// Offset within that PE's buffer.
    pub offset: u32,
}

/// A fully compiled single-thread accelerator program. All worker threads
/// execute the same program over different data sub-partitions (MIMD with
/// a shared schedule, paper §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProgram {
    /// The thread's PE allocation shape.
    pub geometry: Geometry,
    /// Instruction stream per PE (indexed by `PeId`).
    pub instrs: Vec<Vec<PeInstr>>,
    /// Training-record slot → placement.
    pub data_placement: Vec<Placement>,
    /// Model slot → placement.
    pub model_placement: Vec<Placement>,
    /// Gradient slot → (PE, producing tag).
    pub gradient_sources: Vec<(PeId, Tag)>,
    /// The memory interface schedule for one record.
    pub mem_schedule: Vec<MemScheduleEntry>,
}

impl ThreadProgram {
    /// Total instructions across all PEs.
    pub fn instr_count(&self) -> usize {
        self.instrs.iter().map(Vec::len).sum()
    }

    /// Number of `Send` instructions — inter-PE transfers per record.
    pub fn transfer_count(&self) -> usize {
        self.instrs.iter().flatten().filter(|i| matches!(i, PeInstr::Send { .. })).count()
    }

    /// Number of compute instructions.
    pub fn compute_count(&self) -> usize {
        self.instr_count() - self.transfer_count()
    }

    /// Which PEs execute at least one non-linear operation and therefore
    /// need the LUT unit instantiated (paper §5.1).
    pub fn nonlinear_pes(&self) -> Vec<bool> {
        self.instrs
            .iter()
            .map(|stream| {
                stream.iter().any(|i| matches!(i, PeInstr::Compute { op, .. } if op.is_nonlinear()))
            })
            .collect()
    }

    /// Basic structural validation: instruction streams match the
    /// geometry, placements are in range, every data and model operand
    /// names a placed slot, every send and gradient source names an
    /// existing PE, and every row broadcast names its sender's row.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_layout()?;
        for (pe, stream) in self.instrs.iter().enumerate() {
            for instr in stream {
                self.validate_instr(pe, instr)?;
            }
        }
        Ok(())
    }

    /// The checks of [`ThreadProgram::validate`] that read no
    /// instruction, in its order: they come first.
    pub(crate) fn validate_layout(&self) -> Result<(), String> {
        if self.instrs.len() != self.geometry.pes() {
            return Err(format!(
                "{} instruction streams for {} PEs",
                self.instrs.len(),
                self.geometry.pes()
            ));
        }
        let in_range = |pe: PeId| pe.index() < self.geometry.pes();
        for p in self.data_placement.iter().chain(&self.model_placement) {
            if !in_range(p.pe) {
                return Err(format!("placement on out-of-range {}", p.pe));
            }
        }
        for (pe, _) in &self.gradient_sources {
            if !in_range(*pe) {
                return Err(format!("gradient source on out-of-range {pe}"));
            }
        }
        Ok(())
    }

    /// The checks of [`ThreadProgram::validate`] on `instr`, the next
    /// instruction of PE `pe`.
    pub(crate) fn validate_instr(&self, pe: usize, instr: &PeInstr) -> Result<(), String> {
        match *instr {
            PeInstr::Compute { a, b, .. } => {
                for src in [a, b] {
                    match src {
                        Src::Data(s) if s as usize >= self.data_placement.len() => {
                            return Err(format!("pe{pe} reads out-of-range data slot {s}"));
                        }
                        Src::Model(s) if s as usize >= self.model_placement.len() => {
                            return Err(format!("pe{pe} reads out-of-range model slot {s}"));
                        }
                        _ => {}
                    }
                }
            }
            PeInstr::Send { dst: SendTarget::Pe(p), .. } => {
                if p.index() >= self.geometry.pes() {
                    return Err(format!("pe{pe} sends to out-of-range {p}"));
                }
                if p.index() == pe {
                    return Err(format!("pe{pe} sends to itself"));
                }
            }
            PeInstr::Send { dst: SendTarget::Row(r), .. } => {
                // A row broadcast goes out on the sender's row bus, which
                // reaches no other row.
                let own = self.geometry.row(PeId(pe as u32));
                if r as usize != own {
                    return Err(format!("pe{pe} broadcasts to row {r}, not its own row {own}"));
                }
            }
            PeInstr::Send { dst: SendTarget::All, .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_program() -> ThreadProgram {
        let geometry = Geometry::new(1, 2);
        ThreadProgram {
            geometry,
            instrs: vec![
                vec![
                    PeInstr::Compute {
                        op: AluOp::Bin(OpKind::Mul),
                        a: Src::Data(0),
                        b: Src::Model(0),
                        tag: 10,
                    },
                    PeInstr::Send { tag: 10, dst: SendTarget::Pe(PeId(1)) },
                ],
                vec![PeInstr::Compute {
                    op: AluOp::Bin(OpKind::Add),
                    a: Src::Tag(10),
                    b: Src::Imm(1.0),
                    tag: 11,
                }],
            ],
            data_placement: vec![Placement { pe: PeId(0), offset: 0 }],
            model_placement: vec![Placement { pe: PeId(0), offset: 0 }],
            gradient_sources: vec![(PeId(1), 11)],
            mem_schedule: vec![MemScheduleEntry {
                base_pe: 0,
                dir: MemDirection::Read,
                broadcast: false,
                size: 1,
            }],
        }
    }

    #[test]
    fn counts() {
        let p = trivial_program();
        assert_eq!(p.instr_count(), 3);
        assert_eq!(p.transfer_count(), 1);
        assert_eq!(p.compute_count(), 2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn nonlinear_detection_per_pe() {
        let mut p = trivial_program();
        assert_eq!(p.nonlinear_pes(), vec![false, false]);
        p.instrs[1].push(PeInstr::Compute {
            op: AluOp::Un(UnaryFn::Sigmoid),
            a: Src::Tag(11),
            b: Src::Imm(0.0),
            tag: 12,
        });
        assert_eq!(p.nonlinear_pes(), vec![false, true]);
    }

    #[test]
    fn validation_rejects_self_send() {
        let mut p = trivial_program();
        p.instrs[0].push(PeInstr::Send { tag: 10, dst: SendTarget::Pe(PeId(0)) });
        assert!(p.validate().unwrap_err().contains("sends to itself"));
    }

    #[test]
    fn validation_rejects_out_of_range_operand_slots() {
        let mut p = trivial_program();
        p.instrs[1][0] = PeInstr::Compute {
            op: AluOp::Bin(OpKind::Add),
            a: Src::Data(1),
            b: Src::Imm(1.0),
            tag: 11,
        };
        assert!(p.validate().unwrap_err().contains("out-of-range data slot 1"));
        p.instrs[1][0] = PeInstr::Compute {
            op: AluOp::Bin(OpKind::Add),
            a: Src::Imm(1.0),
            b: Src::Model(3),
            tag: 11,
        };
        assert!(p.validate().unwrap_err().contains("out-of-range model slot 3"));
    }

    #[test]
    fn validation_rejects_a_broadcast_into_another_row() {
        let mut p = trivial_program();
        p.geometry = Geometry::new(2, 1);
        p.instrs[0].push(PeInstr::Send { tag: 10, dst: SendTarget::Row(0) });
        assert!(p.validate().is_ok());
        p.instrs[1].push(PeInstr::Send { tag: 11, dst: SendTarget::Row(0) });
        assert_eq!(p.validate().unwrap_err(), "pe1 broadcasts to row 0, not its own row 1");
    }

    #[test]
    fn validation_rejects_wrong_stream_count() {
        let mut p = trivial_program();
        p.instrs.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn alu_latencies() {
        assert_eq!(AluOp::Bin(OpKind::Add).latency(), 1);
        assert_eq!(AluOp::Bin(OpKind::Div).latency(), 4);
        assert_eq!(AluOp::Un(UnaryFn::Sigmoid).latency(), 2);
        assert!(AluOp::Un(UnaryFn::Exp).is_nonlinear());
        assert!(!AluOp::Bin(OpKind::Mul).is_nonlinear());
    }
}

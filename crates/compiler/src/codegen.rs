//! Code generation: from map + schedule to an executable
//! [`ThreadProgram`].
//!
//! The per-PE instruction streams are ordered by the static schedule's
//! issue times, so the in-order machine reproduces the scheduler's
//! overlap. Values that cross PEs travel via explicit `Send` instructions
//! placed right after their producing compute; leaf values (streamed data,
//! resident model parameters) that have remote consumers are first lifted
//! into the interim buffer by a copy operation — the register read the
//! bus drive would perform in hardware.

use std::collections::{HashMap, HashSet};

use cosmic_arch::{
    AluOp, Geometry, MemDirection, MemScheduleEntry, PeId, PeInstr, Placement, SendTarget, Src,
    ThreadProgram,
};
use cosmic_dfg::{Dfg, Node, NodeId, OpKind};

use crate::mapping::{comm_kinds, CommKind, MapResult};
use crate::schedule::{Schedule, ScheduleEstimate};

/// The product of compilation: an executable program plus the static
/// estimate the Planner used.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledThread {
    /// The program, runnable on `cosmic_arch::Machine` and renderable by
    /// `cosmic_arch::rtl`.
    pub program: ThreadProgram,
    /// The schedule's performance estimate.
    pub estimate: ScheduleEstimate,
}

/// Generates the thread program.
pub fn generate(
    dfg: &Dfg,
    map: &MapResult,
    schedule: &Schedule,
    geometry: Geometry,
) -> CompiledThread {
    let pes = geometry.pes();
    // (sort key, sequence, instruction) per PE; sequence keeps producer
    // computes ahead of their sends at equal times.
    let mut items: Vec<Vec<(u64, u8, u32, PeInstr)>> = vec![Vec::new(); pes];

    // One outbound transaction per producer with remote consumers: the
    // row and tree buses broadcast, so destinations collapse into a
    // single Send (paper's Broadcast bit).
    let kinds = comm_kinds(dfg, map, geometry);

    // Leaves with remote consumers (or serving as gradient outputs) must
    // be lifted into the tag space with a copy.
    let mut lifted: HashSet<u32> = HashSet::new();
    let lift =
        |node_id: u32, items: &mut Vec<Vec<(u64, u8, u32, PeInstr)>>, lifted: &mut HashSet<u32>| {
            if !lifted.insert(node_id) {
                return;
            }
            let id = NodeId(node_id);
            let src = match dfg.node(id) {
                Node::Data { slot } => Src::Data(slot),
                Node::Model { slot } => Src::Model(slot),
                Node::Const { value } => Src::Imm(value),
                _ => return, // computes already produce their tag
            };
            let pe = map.pe_of_node[id.index()];
            let t = schedule.finish[id.index()];
            items[pe.index()].push((
                t,
                0,
                node_id,
                PeInstr::Compute {
                    op: AluOp::Bin(OpKind::Add),
                    a: src,
                    b: Src::Imm(0.0),
                    tag: node_id,
                },
            ));
        };

    // Compute instructions.
    for (i, node) in dfg.nodes().iter().enumerate() {
        let (op, a_id, b_id) = match *node {
            Node::Op { kind, a, b } => (AluOp::Bin(kind), a, Some(b)),
            Node::Unary { func, a } => (AluOp::Un(func), a, None),
            _ => continue,
        };
        let my_pe = map.pe_of_node[i];
        let resolve = |op_id: NodeId| -> Src {
            match dfg.node(op_id) {
                Node::Const { value } => Src::Imm(value),
                Node::Data { slot } if map.pe_of_node[op_id.index()] == my_pe => Src::Data(slot),
                Node::Model { slot } if map.pe_of_node[op_id.index()] == my_pe => Src::Model(slot),
                _ => Src::Tag(op_id.0),
            }
        };
        let a = resolve(a_id);
        let b = b_id.map(resolve).unwrap_or(Src::Imm(0.0));
        items[my_pe.index()].push((
            schedule.start[i],
            0,
            i as u32,
            PeInstr::Compute { op, a, b, tag: i as u32 },
        ));
    }

    // Sends (and leaf lifts they require).
    for (i, kind) in kinds.iter().enumerate() {
        let target = match *kind {
            CommKind::None => continue,
            CommKind::Neighbor(dst) => SendTarget::Pe(dst),
            CommKind::RowBroadcast => SendTarget::Row(geometry.row(map.pe_of_node[i]) as u32),
            CommKind::AllBroadcast => SendTarget::All,
        };
        let tag = i as u32;
        let id = NodeId(tag);
        if !matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. }) {
            lift(tag, &mut items, &mut lifted);
        }
        let src_pe = map.pe_of_node[i];
        items[src_pe.index()].push((
            schedule.finish[i],
            1,
            tag,
            PeInstr::Send { tag, dst: target },
        ));
    }

    // Gradient sources must exist in the tag store.
    let mut gradient_sources = Vec::with_capacity(dfg.gradient_len());
    for g in dfg.gradient_outputs() {
        if !matches!(dfg.node(*g), Node::Op { .. } | Node::Unary { .. }) {
            lift(g.0, &mut items, &mut lifted);
        }
        gradient_sources.push((map.pe_of_node[g.index()], g.0));
    }

    // Order each PE's stream by schedule time.
    let instrs: Vec<Vec<PeInstr>> = items
        .into_iter()
        .map(|mut v| {
            v.sort_unstable_by_key(|&(t, seq, id, _)| (t, seq, id));
            v.into_iter().map(|(_, _, _, instr)| instr).collect()
        })
        .collect();

    // Buffer placements: offsets assigned per PE in slot order.
    let data_placement = placements(&map.data_slot_pe);
    let model_placement = placements(&map.model_slot_pe);

    let mem_schedule = build_mem_schedule(dfg, map, geometry);

    let program = ThreadProgram {
        geometry,
        instrs,
        data_placement,
        model_placement,
        gradient_sources,
        mem_schedule,
    };
    CompiledThread { program, estimate: schedule.estimate }
}

fn placements(slot_pes: &[PeId]) -> Vec<Placement> {
    let mut next_offset: HashMap<u32, u32> = HashMap::new();
    slot_pes
        .iter()
        .map(|&pe| {
            let offset = next_offset.entry(pe.0).or_insert(0);
            let p = Placement { pe, offset: *offset };
            *offset += 1;
            p
        })
        .collect()
}

/// Builds the memory-interface schedule for one record: a broadcast model
/// load (once per mini-batch in steady state), the data stream grouped
/// into per-row bursts, and the gradient write-back.
fn build_mem_schedule(dfg: &Dfg, map: &MapResult, geometry: Geometry) -> Vec<MemScheduleEntry> {
    let mut entries = Vec::new();
    if dfg.model_len() > 0 {
        entries.push(MemScheduleEntry {
            base_pe: 0,
            dir: MemDirection::Read,
            broadcast: true,
            size: dfg.model_len() as u32,
        });
    }
    // Group consecutive data slots streaming to the same row.
    let mut run_start = 0usize;
    for s in 1..=map.data_slot_pe.len() {
        let new_row = s == map.data_slot_pe.len()
            || geometry.row(map.data_slot_pe[s]) != geometry.row(map.data_slot_pe[run_start]);
        if new_row {
            let row = geometry.row(map.data_slot_pe[run_start]);
            entries.push(MemScheduleEntry {
                base_pe: (row * geometry.columns) as u32,
                dir: MemDirection::Read,
                broadcast: false,
                size: (s - run_start) as u32,
            });
            run_start = s;
        }
    }
    if dfg.gradient_len() > 0 {
        entries.push(MemScheduleEntry {
            base_pe: 0,
            dir: MemDirection::Write,
            broadcast: false,
            size: dfg.gradient_len() as u32,
        });
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingStrategy;
    use crate::{compile, CompileOptions};
    use cosmic_arch::Machine;
    use cosmic_dfg::{interp, lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn dfg_for(name: &str, env: &DimEnv) -> Dfg {
        let p = parse(&programs::by_name(name, 64).unwrap()).unwrap();
        lower(&p, env).unwrap()
    }

    fn env() -> DimEnv {
        DimEnv::new().with("n", 12).with("h", 5).with("o", 3).with("k", 6)
    }

    /// The decisive correctness test: the compiled program, executed on
    /// the cycle-level machine, must compute exactly the gradients the
    /// reference interpreter computes — for every algorithm family, both
    /// mapping strategies, and several geometries.
    #[test]
    fn machine_matches_interpreter_for_all_families() {
        for name in ["linreg", "logreg", "svm", "backprop", "cf"] {
            let dfg = dfg_for(name, &env());
            let record: Vec<f64> =
                (0..dfg.data_len()).map(|i| ((i % 5) as f64 - 2.0) / 3.0).collect();
            let model: Vec<f64> =
                (0..dfg.model_len()).map(|i| ((i % 7) as f64 - 3.0) / 5.0).collect();
            let expected = interp::evaluate(&dfg, &record, &model);

            for strategy in [MappingStrategy::DataFirst, MappingStrategy::OpFirst] {
                for geometry in [Geometry::new(1, 4), Geometry::new(2, 4), Geometry::new(3, 2)] {
                    let opts = CompileOptions { strategy, ..CompileOptions::default() };
                    let compiled = compile(&dfg, geometry, &opts);
                    let machine = Machine::new(geometry, geometry.columns as f64);
                    let out = machine
                        .run(&compiled.program, &record, &model)
                        .unwrap_or_else(|e| panic!("{name}/{strategy:?}/{geometry}: {e}"));
                    for (slot, (got, want)) in out.gradients.iter().zip(&expected).enumerate() {
                        assert!(
                            (got - want).abs() < 1e-9,
                            "{name}/{strategy:?}/{geometry} grad[{slot}]: {got} != {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimator_tracks_machine_cycles() {
        // The static estimate and the cycle-level machine must agree
        // within a factor of two (the estimate is the Planner's stand-in
        // for simulation).
        for name in ["linreg", "svm", "backprop"] {
            let dfg = dfg_for(name, &env());
            let geometry = Geometry::new(2, 4);
            let compiled = compile(&dfg, geometry, &CompileOptions::default());
            let record: Vec<f64> = (0..dfg.data_len()).map(|i| (i as f64) / 10.0).collect();
            let model: Vec<f64> = (0..dfg.model_len()).map(|i| (i as f64) / 20.0).collect();
            let out = Machine::new(geometry, 4.0).run(&compiled.program, &record, &model).unwrap();
            let est = compiled.estimate.latency_cycles;
            let act = out.cycles;
            let ratio = est.max(act) as f64 / est.min(act).max(1) as f64;
            assert!(ratio <= 2.0, "{name}: estimate {est} vs machine {act} (ratio {ratio:.2})");
        }
    }

    #[test]
    fn programs_validate_structurally() {
        let dfg = dfg_for("backprop", &env());
        let compiled = compile(&dfg, Geometry::new(2, 8), &CompileOptions::default());
        assert!(compiled.program.validate().is_ok());
        assert_eq!(compiled.program.gradient_sources.len(), dfg.gradient_len());
        assert_eq!(compiled.program.data_placement.len(), dfg.data_len());
        assert_eq!(compiled.program.model_placement.len(), dfg.model_len());
    }

    #[test]
    fn mem_schedule_has_broadcast_model_and_writeback() {
        let dfg = dfg_for("linreg", &env());
        let compiled = compile(&dfg, Geometry::new(2, 4), &CompileOptions::default());
        let sched = &compiled.program.mem_schedule;
        assert!(matches!(
            sched[0],
            MemScheduleEntry { broadcast: true, dir: MemDirection::Read, .. }
        ));
        let last = sched.last().unwrap();
        assert_eq!(last.dir, MemDirection::Write);
        assert_eq!(last.size as usize, dfg.gradient_len());
        // Streamed words cover the record exactly.
        let streamed: u32 = sched
            .iter()
            .filter(|e| !e.broadcast && e.dir == MemDirection::Read)
            .map(|e| e.size)
            .sum();
        assert_eq!(streamed as usize, dfg.data_len());
    }

    #[test]
    fn buffer_offsets_are_dense_per_pe() {
        let dfg = dfg_for("svm", &env());
        let geometry = Geometry::new(2, 4);
        let compiled = compile(&dfg, geometry, &CompileOptions::default());
        let mut seen: HashMap<u32, Vec<u32>> = HashMap::new();
        for p in &compiled.program.data_placement {
            seen.entry(p.pe.0).or_default().push(p.offset);
        }
        for (pe, mut offsets) in seen {
            offsets.sort_unstable();
            for (expect, got) in offsets.iter().enumerate() {
                assert_eq!(*got as usize, expect, "pe{pe} offsets must be dense");
            }
        }
    }

    #[test]
    fn data_first_generates_fewer_sends() {
        let dfg = dfg_for("linreg", &DimEnv::new().with("n", 64));
        let g = Geometry::new(4, 8);
        let mk = |s| {
            compile(&dfg, g, &CompileOptions { strategy: s, ..CompileOptions::default() })
                .program
                .transfer_count()
        };
        let cosmic = mk(MappingStrategy::DataFirst);
        let tabla = mk(MappingStrategy::OpFirst);
        assert!(cosmic < tabla, "{cosmic} vs {tabla}");
    }

    #[test]
    fn gradient_produced_by_leaf_is_lifted() {
        // g[i] = w[i]: gradient sources are model leaves.
        let p = parse(
            "model w[n]; gradient g[n]; iterator i[0:n];
             g[i] = w[i];",
        )
        .unwrap();
        let dfg = lower(&p, &DimEnv::new().with("n", 4)).unwrap();
        let geometry = Geometry::new(1, 2);
        let compiled = compile(&dfg, geometry, &CompileOptions::default());
        let machine = Machine::new(geometry, 2.0);
        let out = machine.run(&compiled.program, &[], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(out.gradients, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn single_pe_has_no_sends() {
        let dfg = dfg_for("logreg", &env());
        let compiled = compile(&dfg, Geometry::new(1, 1), &CompileOptions::default());
        assert_eq!(compiled.program.transfer_count(), 0);
    }
}

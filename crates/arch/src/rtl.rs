//! The Constructor of the circuit layer (paper §4.5): renders a planned
//! and compiled accelerator as structural Verilog.
//!
//! On FPGAs the compiler's static schedule becomes state machines and
//! control units (no instruction fetch/decode — the von Neumann overheads
//! are compiled away); on P-ASICs the same streams become microcode ROMs.
//! This emitter produces the FPGA flavor: one module per PE with its
//! schedule baked into a `case`-based controller, a pipelined row bus per
//! row, a tree-bus spine, and the smart memory interface skeleton.
//!
//! The output is *not* synthesized in this environment (no HDL toolchain);
//! it is structurally complete text whose properties (module count, ROM
//! depths, port widths) are asserted by tests.

use std::fmt::Write as _;

use cosmic_dfg::OpKind;
use cosmic_dsl::UnaryFn;

use crate::isa::{AluOp, PeInstr, SendTarget, Src, ThreadProgram};

/// Emits the top-level Verilog for a compiled single-thread accelerator.
///
/// Multi-threaded deployments instantiate this datapath once and replicate
/// the thread index table entries; the per-PE schedules are shared across
/// threads (paper §5.2).
pub fn emit_accelerator(program: &ThreadProgram, name: &str) -> String {
    let mut v = String::new();
    let rows = program.geometry.rows;
    let cols = program.geometry.columns;
    let _ = writeln!(v, "// Generated by the CoSMIC Constructor (circuit layer).");
    let _ = writeln!(v, "// Geometry: {rows} rows x {cols} columns; word width 32 bits.");
    let _ = writeln!(v, "`timescale 1ns / 1ps\n");

    emit_top(&mut v, program, name);
    for (pe, stream) in program.instrs.iter().enumerate() {
        emit_pe(&mut v, pe, stream);
    }
    emit_row_bus(&mut v, cols);
    emit_tree_bus(&mut v, rows);
    emit_memory_interface(&mut v, program);
    v
}

fn emit_top(v: &mut String, program: &ThreadProgram, name: &str) {
    let rows = program.geometry.rows;
    let cols = program.geometry.columns;
    let _ = writeln!(v, "module {name} (");
    let _ = writeln!(v, "  input  wire        clk,");
    let _ = writeln!(v, "  input  wire        rst_n,");
    let _ = writeln!(v, "  input  wire [{}:0] mem_rdata,", cols * 32 - 1);
    let _ = writeln!(v, "  input  wire        mem_rvalid,");
    let _ = writeln!(v, "  output wire [31:0] mem_araddr,");
    let _ = writeln!(v, "  output wire        done");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  // Row buses ({rows}) and the tree-bus spine.");
    for r in 0..rows {
        let _ = writeln!(v, "  wire [31:0] row_bus_{r}; wire row_bus_{r}_valid;");
    }
    let _ = writeln!(v, "  wire [31:0] tree_bus; wire tree_bus_valid;");
    let _ = writeln!(v, "  wire [{}:0] pe_done;", program.geometry.pes() - 1);
    for pe in 0..program.geometry.pes() {
        let r = pe / cols;
        let _ = writeln!(
            v,
            "  pe_{pe} u_pe_{pe} (.clk(clk), .rst_n(rst_n), .row_bus(row_bus_{r}), \
             .row_bus_valid(row_bus_{r}_valid), .tree_bus(tree_bus), \
             .tree_bus_valid(tree_bus_valid), .done(pe_done[{pe}]));"
        );
    }
    let _ = writeln!(v, "  assign done = &pe_done;");
    let _ = writeln!(v, "  assign mem_araddr = 32'd0; // driven by memory_interface");
    let _ = writeln!(v, "endmodule\n");
}

fn emit_pe(v: &mut String, pe: usize, stream: &[PeInstr]) {
    let states = stream.len().max(1);
    let state_bits = usize::BITS - (states.max(2) - 1).leading_zeros();
    let _ = writeln!(v, "module pe_{pe} (");
    let _ = writeln!(v, "  input  wire clk, input wire rst_n,");
    let _ = writeln!(v, "  inout  wire [31:0] row_bus, inout wire row_bus_valid,");
    let _ = writeln!(v, "  inout  wire [31:0] tree_bus, inout wire tree_bus_valid,");
    let _ = writeln!(v, "  output reg done");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  // Separate data / model / interim buffers (paper Figure 6).");
    let _ = writeln!(v, "  reg [31:0] data_buf   [0:255];");
    let _ = writeln!(v, "  reg [31:0] model_buf  [0:255];");
    let _ = writeln!(v, "  reg [31:0] interim_buf[0:255];");
    let _ = writeln!(v, "  reg [{}:0] state;", state_bits.max(1) - 1);
    let _ = writeln!(v, "  // Static schedule compiled into the controller:");
    let _ = writeln!(v, "  always @(posedge clk) begin");
    let _ = writeln!(v, "    if (!rst_n) begin state <= 0; done <= 1'b0; end");
    let _ = writeln!(v, "    else case (state)");
    // One state per instruction, written without `core::fmt`: the text is
    // what `{:?}` of the op and the target would print.
    for (i, instr) in stream.iter().enumerate() {
        v.push_str("      ");
        push_decimal(v, i as u64);
        match *instr {
            PeInstr::Compute { op, a, b, tag } => {
                v.push_str(": begin // compute tag ");
                push_decimal(v, u64::from(tag));
                v.push_str(match op {
                    AluOp::Bin(kind) => match kind {
                        OpKind::Add => " (Bin(Add))",
                        OpKind::Sub => " (Bin(Sub))",
                        OpKind::Mul => " (Bin(Mul))",
                        OpKind::Div => " (Bin(Div))",
                        OpKind::Gt => " (Bin(Gt))",
                        OpKind::Lt => " (Bin(Lt))",
                        OpKind::Ge => " (Bin(Ge))",
                        OpKind::Le => " (Bin(Le))",
                    },
                    AluOp::Un(func) => match func {
                        UnaryFn::Sigmoid => " (Un(Sigmoid))",
                        UnaryFn::Gaussian => " (Un(Gaussian))",
                        UnaryFn::Log => " (Un(Log))",
                        UnaryFn::Sqrt => " (Un(Sqrt))",
                        UnaryFn::Exp => " (Un(Exp))",
                        UnaryFn::Abs => " (Un(Abs))",
                    },
                });
                v.push_str("\n        interim_buf[");
                push_decimal(v, u64::from(tag % 256));
                v.push_str("] <= ");
                write_alu(v, op, a, b);
                v.push_str(";\n");
            }
            PeInstr::Send { tag, dst } => {
                v.push_str(": begin // send tag ");
                push_decimal(v, u64::from(tag));
                v.push_str(" -> ");
                match dst {
                    SendTarget::Pe(p) => {
                        v.push_str("Pe(PeId(");
                        push_decimal(v, u64::from(p.0));
                        v.push_str("))");
                    }
                    SendTarget::Row(r) => {
                        v.push_str("Row(");
                        push_decimal(v, u64::from(r));
                        v.push(')');
                    }
                    SendTarget::All => v.push_str("All"),
                }
                v.push_str("\n        // grant-arbitrated transfer of tag ");
                push_decimal(v, u64::from(tag));
                v.push_str(" toward ");
                match dst {
                    SendTarget::Pe(p) => {
                        v.push_str("pe pe");
                        push_decimal(v, u64::from(p.0));
                    }
                    SendTarget::Row(r) => {
                        v.push_str("row ");
                        push_decimal(v, u64::from(r));
                        v.push_str(" broadcast");
                    }
                    SendTarget::All => v.push_str("all-rows broadcast"),
                }
                v.push_str("\n        /* bus drive */;\n");
            }
        }
        v.push_str("        state <= ");
        push_decimal(v, i as u64 + 1);
        v.push_str(";\n      end\n");
    }
    let _ = writeln!(v, "      default: done <= 1'b1;");
    let _ = writeln!(v, "    endcase");
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "endmodule\n");
}

fn emit_row_bus(v: &mut String, cols: usize) {
    let _ = writeln!(v, "module row_bus #(parameter COLS = {cols}) (");
    let _ = writeln!(v, "  input  wire clk, input wire rst_n,");
    let _ = writeln!(v, "  input  wire [COLS-1:0]    req,");
    let _ = writeln!(v, "  input  wire [COLS*32-1:0] wdata,");
    let _ = writeln!(v, "  output reg  [31:0]        bus,");
    let _ = writeln!(v, "  output reg  [COLS-1:0]    grant");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  // Pipelined shared bus: one grant per cycle, rotating priority.");
    let _ = writeln!(v, "  integer i;");
    let _ = writeln!(v, "  always @(posedge clk) begin");
    let _ = writeln!(v, "    grant <= 'd0;");
    let _ = writeln!(v, "    for (i = 0; i < COLS; i = i + 1)");
    let _ = writeln!(v, "      if (req[i] && grant == 'd0) begin");
    let _ = writeln!(v, "        grant[i] <= 1'b1; bus <= wdata[i*32 +: 32];");
    let _ = writeln!(v, "      end");
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "endmodule\n");
}

fn emit_tree_bus(v: &mut String, rows: usize) {
    let levels = usize::BITS - (rows.max(2) - 1).leading_zeros();
    let _ = writeln!(v, "module tree_bus #(parameter ROWS = {rows}, LEVELS = {levels}) (");
    let _ = writeln!(v, "  input  wire clk, input wire rst_n,");
    let _ = writeln!(v, "  input  wire [ROWS*32-1:0] row_in,");
    let _ = writeln!(v, "  input  wire [1:0]         alu_op, // 0: route, 1: sum, 2: product");
    let _ = writeln!(v, "  output wire [31:0]        root");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "  // Each tree node carries an ALU for sigma/pi reductions (paper 5.1).");
    let _ = writeln!(v, "  genvar l, n;");
    let _ = writeln!(v, "  wire [31:0] level [0:LEVELS][0:ROWS-1];");
    let _ = writeln!(v, "  generate");
    let _ = writeln!(v, "    for (l = 0; l < LEVELS; l = l + 1) begin : tree_level");
    let _ = writeln!(v, "      for (n = 0; n < (ROWS >> (l+1)); n = n + 1) begin : tree_node");
    let _ = writeln!(v, "        tree_alu u_alu (.clk(clk), .op(alu_op),");
    let _ = writeln!(v, "          .a(level[l][2*n]), .b(level[l][2*n+1]), .y(level[l+1][n]));");
    let _ = writeln!(v, "      end");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "  endgenerate");
    let _ = writeln!(v, "  assign root = level[LEVELS][0];");
    let _ = writeln!(v, "endmodule\n");
    let _ = writeln!(v, "module tree_alu (input wire clk, input wire [1:0] op,");
    let _ = writeln!(v, "  input wire [31:0] a, input wire [31:0] b, output reg [31:0] y);");
    let _ = writeln!(v, "  always @(posedge clk)");
    let _ = writeln!(v, "    case (op)");
    let _ = writeln!(v, "      2'd1: y <= a + b;");
    let _ = writeln!(v, "      2'd2: y <= a * b;");
    let _ = writeln!(v, "      default: y <= a;");
    let _ = writeln!(v, "    endcase");
    let _ = writeln!(v, "endmodule\n");
}

fn emit_memory_interface(v: &mut String, program: &ThreadProgram) {
    let entries = program.mem_schedule.len().max(1);
    let _ = writeln!(v, "module memory_interface #(parameter ENTRIES = {entries}) (");
    let _ = writeln!(v, "  input  wire clk, input wire rst_n,");
    let _ = writeln!(v, "  output reg [31:0] araddr, output reg arvalid");
    let _ = writeln!(v, ");");
    let _ =
        writeln!(v, "  // Memory schedule ROM: {{base_pe[9:0], rd(1), broadcast(1), size[19:0]}}");
    let _ = writeln!(v, "  reg [31:0] schedule [0:ENTRIES-1];");
    let _ = writeln!(v, "  initial begin");
    for (i, e) in program.mem_schedule.iter().enumerate() {
        let rd = matches!(e.dir, crate::isa::MemDirection::Read) as u32;
        let word =
            (e.base_pe & 0x3FF) << 22 | rd << 21 | (e.broadcast as u32) << 20 | (e.size & 0xFFFFF);
        let _ = writeln!(v, "    schedule[{i}] = 32'h{word:08X};");
    }
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "  // Thread Index Table: per-thread Mem Addr and PE Offset");
    let _ = writeln!(v, "  // (paper Figure 5) is loaded by the host at configuration time.");
    let _ = writeln!(v, "  reg [31:0] thread_mem_addr [0:63];");
    let _ = writeln!(v, "  reg [9:0]  thread_pe_offset[0:63];");
    let _ = writeln!(v, "  // Shifter + prefetch buffer elided to behavioral stubs.");
    let _ = writeln!(v, "endmodule");
}

/// Appends `n` in decimal.
fn push_decimal(v: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    v.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Renders one operand straight into `v`.
fn write_src(v: &mut String, src: Src) {
    let (buffer, slot) = match src {
        Src::Data(s) => ("data_buf[", s),
        Src::Model(s) => ("model_buf[", s),
        Src::Tag(t) => ("interim_buf[", t),
        Src::Imm(x) => {
            v.push_str("32'h");
            let bits = (x as f32).to_bits();
            v.extend((0..8).rev().map(|nibble| {
                let digit = (bits >> (4 * nibble)) & 0xF;
                char::from(b"0123456789ABCDEF"[digit as usize])
            }));
            // The immediate's decimal rendering stays with `core::fmt`.
            let _ = write!(v, " /* {x} */");
            return;
        }
    };
    v.push_str(buffer);
    push_decimal(v, u64::from(slot % 256));
    v.push(']');
}

/// Renders an ALU expression straight into `v`. A LUT expression is
/// lower-cased whole, its immediates' hex digits included.
fn write_alu(v: &mut String, op: AluOp, a: Src, b: Src) {
    let (open, infix, close) = match op {
        AluOp::Bin(OpKind::Add) => ("", " + ", ""),
        AluOp::Bin(OpKind::Sub) => ("", " - ", ""),
        AluOp::Bin(OpKind::Mul) => ("", " * ", ""),
        AluOp::Bin(OpKind::Div) => ("lut_div(", ", ", ")"),
        AluOp::Bin(OpKind::Gt) => ("(", " > ", ") ? 32'd1 : 32'd0"),
        AluOp::Bin(OpKind::Lt) => ("(", " < ", ") ? 32'd1 : 32'd0"),
        AluOp::Bin(OpKind::Ge) => ("(", " >= ", ") ? 32'd1 : 32'd0"),
        AluOp::Bin(OpKind::Le) => ("(", " <= ", ") ? 32'd1 : 32'd0"),
        AluOp::Un(f) => {
            let from = v.len();
            v.push_str(match f {
                UnaryFn::Sigmoid => "lut_sigmoid(",
                UnaryFn::Gaussian => "lut_gaussian(",
                UnaryFn::Log => "lut_log(",
                UnaryFn::Sqrt => "lut_sqrt(",
                UnaryFn::Exp => "lut_exp(",
                UnaryFn::Abs => "lut_abs(",
            });
            write_src(v, a);
            v.push(')');
            v[from..].make_ascii_lowercase();
            return;
        }
    };
    v.push_str(open);
    write_src(v, a);
    v.push_str(infix);
    write_src(v, b);
    v.push_str(close);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::demo_program;

    #[test]
    fn emits_all_structural_modules() {
        let rtl = emit_accelerator(&demo_program(), "cosmic_accel");
        assert!(rtl.contains("module cosmic_accel"));
        assert!(rtl.contains("module pe_0"));
        assert!(rtl.contains("module row_bus"));
        assert!(rtl.contains("module tree_bus"));
        assert!(rtl.contains("module memory_interface"));
        assert!(rtl.contains("tree_alu"), "tree nodes carry ALUs");
    }

    #[test]
    fn schedule_is_baked_into_controller() {
        let rtl = emit_accelerator(&demo_program(), "a");
        // The single compute becomes state 0 of the PE FSM.
        assert!(rtl.contains("0: begin // compute tag 2"));
        assert!(rtl.contains("data_buf[0] * model_buf[0]"));
        // Done in the default arm.
        assert!(rtl.contains("default: done <= 1'b1;"));
    }

    #[test]
    fn memory_schedule_rom_is_encoded() {
        let rtl = emit_accelerator(&demo_program(), "a");
        assert!(rtl.contains("schedule[0] = 32'h"));
        assert!(rtl.contains("Thread Index Table"));
    }

    /// Every instruction shape's rendering, byte for byte. The `Un` arm
    /// lower-cases its whole expression, immediates' hex included; the
    /// binary arms keep upper-case hex.
    #[test]
    fn every_instruction_shape_renders_exactly() {
        use crate::geometry::PeId;
        let stream = [
            PeInstr::Compute {
                op: AluOp::Un(UnaryFn::Sigmoid),
                a: Src::Imm(1.0),
                b: Src::Imm(0.0),
                tag: 7,
            },
            PeInstr::Compute {
                op: AluOp::Un(UnaryFn::Gaussian),
                a: Src::Imm(f64::NAN),
                b: Src::Tag(1),
                tag: 8,
            },
            PeInstr::Compute {
                op: AluOp::Bin(OpKind::Gt),
                a: Src::Imm(-0.5),
                b: Src::Tag(300),
                tag: 9,
            },
            PeInstr::Compute {
                op: AluOp::Bin(OpKind::Div),
                a: Src::Model(257),
                b: Src::Data(3),
                tag: 265,
            },
            PeInstr::Send { tag: 9, dst: SendTarget::Pe(PeId(1)) },
            PeInstr::Send { tag: 8, dst: SendTarget::Row(2) },
            PeInstr::Send { tag: 7, dst: SendTarget::All },
        ];
        let mut v = String::new();
        emit_pe(&mut v, 3, &stream);
        let body = v.split_once("    else case (state)\n").map_or("", |(_, body)| body);
        assert_eq!(
            body,
            "      0: begin // compute tag 7 (Un(Sigmoid))\n\
             \x20       interim_buf[7] <= lut_sigmoid(32'h3f800000 /* 1 */);\n\
             \x20       state <= 1;\n\
             \x20     end\n\
             \x20     1: begin // compute tag 8 (Un(Gaussian))\n\
             \x20       interim_buf[8] <= lut_gaussian(32'h7fc00000 /* nan */);\n\
             \x20       state <= 2;\n\
             \x20     end\n\
             \x20     2: begin // compute tag 9 (Bin(Gt))\n\
             \x20       interim_buf[9] <= (32'hBF000000 /* -0.5 */ > interim_buf[44]) ? 32'd1 : 32'd0;\n\
             \x20       state <= 3;\n\
             \x20     end\n\
             \x20     3: begin // compute tag 265 (Bin(Div))\n\
             \x20       interim_buf[9] <= lut_div(model_buf[1], data_buf[3]);\n\
             \x20       state <= 4;\n\
             \x20     end\n\
             \x20     4: begin // send tag 9 -> Pe(PeId(1))\n\
             \x20       // grant-arbitrated transfer of tag 9 toward pe pe1\n\
             \x20       /* bus drive */;\n\
             \x20       state <= 5;\n\
             \x20     end\n\
             \x20     5: begin // send tag 8 -> Row(2)\n\
             \x20       // grant-arbitrated transfer of tag 8 toward row 2 broadcast\n\
             \x20       /* bus drive */;\n\
             \x20       state <= 6;\n\
             \x20     end\n\
             \x20     6: begin // send tag 7 -> All\n\
             \x20       // grant-arbitrated transfer of tag 7 toward all-rows broadcast\n\
             \x20       /* bus drive */;\n\
             \x20       state <= 7;\n\
             \x20     end\n\
             \x20     default: done <= 1'b1;\n\
             \x20   endcase\n\
             \x20 end\n\
             endmodule\n\n"
        );
    }

    #[test]
    fn pe_count_matches_geometry() {
        let program = demo_program();
        let rtl = emit_accelerator(&program, "a");
        let count = rtl.matches("module pe_").count();
        assert_eq!(count, program.geometry.pes());
    }
}

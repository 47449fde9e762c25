//! Equivalence tests for the optimized machine: the event-driven
//! `Machine::run` (dense per-PE operand slots, sleeping PEs, jumps over
//! idle cycles) is **indistinguishable** from the per-cycle reference
//! simulator `Machine::run_reference` on every `ThreadProgram` the
//! compiler emits for the evaluation workloads — equal `cycles`,
//! `bus_stall_cycles`, transfer counters, `pe_issued`, and bit-identical
//! gradient values — and on random hand-built programs, errors included.

use cosmic::cosmic_arch::machine::RunOutcome;
use cosmic::cosmic_arch::{machine, Geometry, Machine};
use cosmic::cosmic_compiler::{compile, CompileOptions};
use cosmic::cosmic_dfg::{lower, DimEnv};
use cosmic::cosmic_dsl::{parse, programs};
use proptest::prelude::*;

/// Deterministic pseudo-random vector (no NaNs, mixed magnitudes).
fn stim(len: usize, entropy: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(entropy);
            ((x % 4001) as f64 - 2000.0) / 331.0
        })
        .collect()
}

fn assert_outcomes_identical(fast: &RunOutcome, refr: &RunOutcome, what: &str) {
    assert_eq!(fast.cycles, refr.cycles, "{what}: cycles");
    assert_eq!(fast.bus_stall_cycles, refr.bus_stall_cycles, "{what}: bus_stall_cycles");
    assert_eq!(fast.neighbor_transfers, refr.neighbor_transfers, "{what}: neighbor_transfers");
    assert_eq!(fast.row_bus_transfers, refr.row_bus_transfers, "{what}: row_bus_transfers");
    assert_eq!(fast.tree_bus_transfers, refr.tree_bus_transfers, "{what}: tree_bus_transfers");
    assert_eq!(fast.pe_issued, refr.pe_issued, "{what}: pe_issued");
    let fast_bits: Vec<u64> = fast.gradients.iter().map(|v| v.to_bits()).collect();
    let ref_bits: Vec<u64> = refr.gradients.iter().map(|v| v.to_bits()).collect();
    assert_eq!(fast_bits, ref_bits, "{what}: gradient bits");
}

/// Every (workload, geometry, bandwidth) cell of the evaluation matrix:
/// compile the real DSL program and compare the two simulators on the
/// emitted `ThreadProgram`.
#[test]
fn optimized_machine_matches_reference_on_compiled_workloads() {
    let workloads: Vec<(&str, String, DimEnv, usize, usize)> = vec![
        ("svm", programs::svm(10_000), DimEnv::new().with("n", 256), 257, 256),
        (
            "linear_regression",
            programs::linear_regression(10_000),
            DimEnv::new().with("n", 192),
            193,
            192,
        ),
        (
            "logistic_regression",
            programs::logistic_regression(10_000),
            DimEnv::new().with("n", 128),
            129,
            128,
        ),
        (
            "backpropagation",
            programs::backpropagation(10_000),
            DimEnv::new().with("n", 16).with("h", 16).with("o", 4),
            16 + 4,
            16 * 16 + 16 * 4,
        ),
    ];
    for (name, src, env, _, _) in &workloads {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: parse failed: {e:?}"));
        let dfg = lower(&program, env).unwrap_or_else(|e| panic!("{name}: lower failed: {e:?}"));
        for geometry in [Geometry::new(1, 4), Geometry::new(4, 16), Geometry::new(8, 8)] {
            let compiled = compile(&dfg, geometry, &CompileOptions::default());
            let record = stim(compiled.program.data_placement.len(), 7);
            let model = stim(compiled.program.model_placement.len(), 11);
            for words_per_cycle in [1.0, 16.0] {
                let machine = Machine::new(geometry, words_per_cycle);
                let what = format!(
                    "{name} @ {}x{} wpc={words_per_cycle}",
                    geometry.rows, geometry.columns
                );
                let fast = machine
                    .run(&compiled.program, &record, &model)
                    .unwrap_or_else(|e| panic!("{what}: fast run failed: {e}"));
                let refr = machine
                    .run_reference(&compiled.program, &record, &model)
                    .unwrap_or_else(|e| panic!("{what}: reference run failed: {e}"));
                assert_outcomes_identical(&fast, &refr, &what);
            }
        }
    }
}

/// Error paths agree too: the demo program with a wrong-length record,
/// and a deadlocked program, fail identically on both simulators.
#[test]
fn optimized_machine_matches_reference_on_errors() {
    let machine = Machine::new(Geometry::new(1, 1), 16.0);
    let program = machine::demo_program();
    let fast = machine.run(&program, &[], &[1.0]).unwrap_err();
    let refr = machine.run_reference(&program, &[], &[1.0]).unwrap_err();
    assert_eq!(fast, refr);
}

proptest! {
    /// Random stimulus through the svm workload on a mid-size geometry:
    /// the two simulators agree on every counter and every gradient bit
    /// whatever the record/model contents and memory bandwidth.
    #[test]
    fn optimized_machine_matches_reference_on_random_stimulus(
        entropy in any::<u64>(),
        slow in any::<bool>(),
    ) {
        let program = parse(&programs::svm(10_000)).expect("svm parses");
        let dfg = lower(&program, &DimEnv::new().with("n", 64)).expect("svm lowers");
        let geometry = Geometry::new(2, 8);
        let compiled = compile(&dfg, geometry, &CompileOptions::default());
        let record = stim(compiled.program.data_placement.len(), entropy);
        let model = stim(compiled.program.model_placement.len(), entropy ^ 0x5A5A);
        let machine = Machine::new(geometry, if slow { 0.5 } else { 16.0 });
        let fast = machine.run(&compiled.program, &record, &model).expect("fast run");
        let refr = machine.run_reference(&compiled.program, &record, &model).expect("ref run");
        prop_assert_eq!(&fast, &refr);
        let fast_bits: Vec<u64> = fast.gradients.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = refr.gradients.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fast_bits, ref_bits);
    }
}

/// The differential oracle on programs no compiler would emit: random
/// hand-built `ThreadProgram`s, on geometries up to 4×4, where tags reach
/// a PE twice or are overwritten by a later broadcast, sends race for
/// every interconnect level, and some programs deadlock or report a
/// gradient nobody produces. The event-driven `run` must return exactly
/// what `run_reference` returns, `Ok` or `Err`. (A runaway takes the
/// reference ten million cycles, so `machine.rs`'s unit tests hold that
/// error on two small programs instead.)
mod random_programs {
    use cosmic::cosmic_arch::machine::{RunError, RunOutcome};
    use cosmic::cosmic_arch::{
        AluOp, Geometry, Machine, PeId, PeInstr, Placement, SendTarget, Src, ThreadProgram,
    };
    use cosmic::cosmic_dfg::OpKind;
    use cosmic::cosmic_dsl::UnaryFn;
    use proptest::prelude::*;

    /// SplitMix64: the programs' own generator, one stream per case.
    pub(super) struct Gen(pub(super) u64);

    impl Gen {
        pub(super) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(super) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn percent(&mut self, p: usize) -> bool {
            self.below(100) < p
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

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

    /// One random program with its record, model and memory bandwidth.
    ///
    /// Instructions are generated one at a time onto random PEs, and a
    /// PE reads only tags that earlier instructions produced on it or
    /// sent to it, so generation order is a schedule and the program
    /// finishes — unless a read draws from the whole tag pool, which may
    /// wait for a tag sent later, or never. The pool is small, so tags
    /// are produced twice and broadcasts overwrite values in flight.
    pub(super) fn random_case(g: &mut Gen) -> (ThreadProgram, Vec<f64>, Vec<f64>, f64) {
        let geometry = Geometry::new(1 + g.below(4), 1 + g.below(4));
        let pes = geometry.pes();
        let data_words = g.below(12);
        let model_words = g.below(6);
        let pool = 2 + g.below(10) as u32;
        let stray = g.percent(20);
        let mut known: Vec<Vec<u32>> = vec![Vec::new(); pes];
        let mut instrs: Vec<Vec<PeInstr>> = vec![Vec::new(); pes];
        for _ in 0..g.below(6 * pes + 10) {
            let p = g.below(pes);
            let src = |g: &mut Gen, known: &[u32]| match g.below(if stray { 5 } else { 4 }) {
                0 if data_words > 0 => Src::Data(g.below(data_words) as u32),
                1 if model_words > 0 => Src::Model(g.below(model_words) as u32),
                2 if !known.is_empty() => Src::Tag(g.pick(known)),
                4 => Src::Tag(g.below(pool as usize + 2) as u32),
                _ => Src::Imm((g.below(9) as f64 - 4.0) / 2.0),
            };
            let send = pes > 1 && !known[p].is_empty() && g.percent(40);
            if send {
                let tag = g.pick(&known[p]);
                let dst = match g.below(3) {
                    0 => {
                        let q = (p + 1 + g.below(pes - 1)) % pes;
                        SendTarget::Pe(PeId(q as u32))
                    }
                    1 => SendTarget::Row(geometry.row(PeId(p as u32)) as u32),
                    _ => SendTarget::All,
                };
                let receivers: Vec<usize> = match dst {
                    SendTarget::Pe(q) => vec![q.index()],
                    SendTarget::Row(r) => (0..geometry.columns)
                        .map(|c| r as usize * geometry.columns + c)
                        .filter(|&q| q != p)
                        .collect(),
                    SendTarget::All => (0..pes).filter(|&q| q != p).collect(),
                };
                for q in receivers {
                    known[q].push(tag);
                }
                instrs[p].push(PeInstr::Send { tag, dst });
            } else {
                let op =
                    if g.percent(25) { AluOp::Un(g.pick(&UN)) } else { AluOp::Bin(g.pick(&BIN)) };
                let a = src(g, &known[p]);
                let b = src(g, &known[p]);
                let tag = g.below(pool as usize) as u32;
                known[p].push(tag);
                instrs[p].push(PeInstr::Compute { op, a, b, tag });
            }
        }
        let mut gradient_sources = Vec::new();
        for _ in 0..1 + g.below(4) {
            let p = g.below(pes);
            let tag =
                if known[p].is_empty() || g.percent(5) { pool + 1 } else { g.pick(&known[p]) };
            gradient_sources.push((PeId(p as u32), tag));
        }
        let place = |g: &mut Gen| Placement { pe: PeId(g.below(pes) as u32), offset: 0 };
        let program = ThreadProgram {
            geometry,
            instrs,
            data_placement: (0..data_words).map(|_| place(g)).collect(),
            model_placement: (0..model_words).map(|_| place(g)).collect(),
            gradient_sources,
            mem_schedule: Vec::new(),
        };
        let value = |g: &mut Gen| (g.below(2001) as f64 - 1000.0) / 97.0;
        let record = (0..data_words).map(|_| value(g)).collect();
        let model = (0..model_words).map(|_| value(g)).collect();
        let words_per_cycle = g.pick(&[0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 2.5, 16.0]);
        (program, record, model, words_per_cycle)
    }

    /// Equal outcomes, gradients compared by bits (a random program may
    /// well compute a NaN), or equal errors.
    pub(super) fn assert_same(
        fast: &Result<RunOutcome, RunError>,
        refr: &Result<RunOutcome, RunError>,
        what: &str,
    ) {
        match (fast, refr) {
            (Ok(fast), Ok(refr)) => {
                let bits = |o: &RunOutcome| o.gradients.iter().map(|v| v.to_bits()).collect();
                let (fast_bits, ref_bits): (Vec<u64>, Vec<u64>) = (bits(fast), bits(refr));
                assert_eq!(fast_bits, ref_bits, "{what}: gradient bits");
                let strip = |o: &RunOutcome| RunOutcome { gradients: Vec::new(), ..o.clone() };
                assert_eq!(strip(fast), strip(refr), "{what}");
            }
            _ => assert_eq!(fast, refr, "{what}"),
        }
    }

    proptest! {
        /// Eight random programs a case: `run` and `run_reference`
        /// return the same outcome or the same error on every one.
        #[test]
        fn optimized_machine_matches_reference_on_random_programs(seed in any::<u64>()) {
            let mut g = Gen(seed);
            for i in 0..8 {
                let (program, record, model, words_per_cycle) = random_case(&mut g);
                let machine = Machine::new(program.geometry, words_per_cycle);
                let fast = machine.run(&program, &record, &model);
                let refr = machine.run_reference(&program, &record, &model);
                assert_same(&fast, &refr, &format!("seed {seed} program {i}: {program:?}"));
            }
        }
    }
}

/// The program `cosmic-arch`'s visit-count test runs: svm at n = 64
/// compiled for one 2×8 thread, the program the random-stimulus
/// proptest above compiles, as a text listing under
/// `crates/arch/testdata` (the arch crate cannot call the compiler).
/// Regenerate it after an intentional compiler change with
///
/// ```text
/// BLESS=1 cargo test --test machine_equivalence svm_listing
/// ```
mod svm_listing {
    use std::fmt::Write;
    use std::fs;
    use std::path::PathBuf;

    use cosmic::cosmic_arch::{AluOp, Geometry, PeInstr, SendTarget, Src, ThreadProgram};
    use cosmic::cosmic_compiler::{compile, CompileOptions};
    use cosmic::cosmic_dfg::{lower, DimEnv};
    use cosmic::cosmic_dsl::{parse, programs};

    fn operand(src: Src) -> String {
        match src {
            Src::Data(s) => format!("d{s}"),
            Src::Model(s) => format!("m{s}"),
            Src::Tag(t) => format!("t{t}"),
            Src::Imm(v) => format!("#{v}"),
        }
    }

    /// The listing format `machine.rs`'s tests parse: a header, one
    /// `gradient <pe> <tag>` line per gradient slot, then each PE's
    /// stream after a `pe <index>` line, one instruction a line.
    fn listing(program: &ThreadProgram) -> String {
        let g = program.geometry;
        let mut out = String::from(
            "# svm, n = 64, compiled for one 2x8 thread with CompileOptions::default()\n",
        );
        let _ = writeln!(out, "geometry {} {}", g.rows, g.columns);
        let _ = writeln!(out, "data {}", program.data_placement.len());
        let _ = writeln!(out, "model {}", program.model_placement.len());
        for &(pe, tag) in &program.gradient_sources {
            let _ = writeln!(out, "gradient {} {tag}", pe.index());
        }
        for (p, stream) in program.instrs.iter().enumerate() {
            let _ = writeln!(out, "pe {p}");
            for instr in stream {
                let _ = match *instr {
                    PeInstr::Compute { op, a, b, tag } => {
                        let op = match op {
                            AluOp::Bin(kind) => kind.to_string(),
                            AluOp::Un(func) => func.to_string(),
                        };
                        writeln!(out, "{op} {} {} {tag}", operand(a), operand(b))
                    }
                    PeInstr::Send { tag, dst: SendTarget::Pe(q) } => {
                        writeln!(out, "send {tag} pe {}", q.index())
                    }
                    PeInstr::Send { tag, dst: SendTarget::Row(r) } => {
                        writeln!(out, "send {tag} row {r}")
                    }
                    PeInstr::Send { tag, dst: SendTarget::All } => writeln!(out, "send {tag} all"),
                };
            }
        }
        out
    }

    #[test]
    fn svm_listing_matches_the_compiler() {
        let program = parse(&programs::svm(10_000)).expect("svm parses");
        let dfg = lower(&program, &DimEnv::new().with("n", 64)).expect("svm lowers");
        let compiled = compile(&dfg, Geometry::new(2, 8), &CompileOptions::default());
        let text = listing(&compiled.program);
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/arch/testdata/svm_n64_2x8.txt");
        if std::env::var("BLESS").as_deref() == Ok("1") {
            fs::write(&path, &text).expect("bless the svm listing");
        }
        let want = fs::read_to_string(&path).expect("svm listing checked in (BLESS=1 to write it)");
        assert_eq!(text, want, "the compiled svm program drifted from its listing (BLESS=1)");
    }
}

/// A program compiled for one geometry is an error on a machine of
/// another, on both paths, whatever the PE count: fewer PEs, more PEs,
/// or the same count in another shape.
#[test]
fn a_program_for_another_geometry_is_an_error_on_both_paths() {
    let program = parse(&programs::svm(10_000)).expect("svm parses");
    let dfg = lower(&program, &DimEnv::new().with("n", 16)).expect("svm lowers");
    let compiled = compile(&dfg, Geometry::new(2, 8), &CompileOptions::default());
    let record = stim(compiled.program.data_placement.len(), 3);
    let model = stim(compiled.program.model_placement.len(), 5);
    for geometry in [Geometry::new(1, 4), Geometry::new(4, 8), Geometry::new(4, 4)] {
        let machine = Machine::new(geometry, 16.0);
        let fast = machine.run(&compiled.program, &record, &model).unwrap_err();
        assert!(fast.to_string().contains("compiled for 2x8"), "{geometry}: {fast}");
        assert_eq!(fast, machine.run_reference(&compiled.program, &record, &model).unwrap_err());
        assert_eq!(fast, machine.load(&compiled.program).unwrap_err());
    }
}

/// A row broadcast reaches only its sender's row bus, so a program that
/// broadcasts into another row is an error on both paths and at load,
/// the one `validate` reports, wherever the foreign row lies.
#[test]
fn a_broadcast_into_another_row_is_an_error_on_both_paths() {
    use cosmic::cosmic_arch::{AluOp, PeId, PeInstr, Placement, SendTarget, Src, ThreadProgram};
    use cosmic::cosmic_dfg::OpKind;
    let geometry = Geometry::new(3, 2);
    for (sender, row) in [(0, 1), (0, 2), (3, 0), (5, 1)] {
        let mut instrs = vec![Vec::new(); geometry.pes()];
        let op = AluOp::Bin(OpKind::Add);
        instrs[sender] = vec![
            PeInstr::Compute { op, a: Src::Data(0), b: Src::Imm(1.0), tag: 1 },
            PeInstr::Send { tag: 1, dst: SendTarget::Row(row) },
        ];
        let reader = row as usize * geometry.columns;
        instrs[reader].push(PeInstr::Compute { op, a: Src::Tag(1), b: Src::Imm(2.0), tag: 2 });
        let program = ThreadProgram {
            geometry,
            instrs,
            data_placement: vec![Placement { pe: PeId(sender as u32), offset: 0 }],
            model_placement: Vec::new(),
            gradient_sources: vec![(PeId(reader as u32), 2)],
            mem_schedule: Vec::new(),
        };
        let want = program.validate().unwrap_err();
        assert!(want.contains(&format!("broadcasts to row {row}")), "{want}");
        let machine = Machine::new(geometry, 1.0);
        let fast = machine.run(&program, &[0.5], &[]).unwrap_err();
        assert_eq!(fast.to_string(), format!("machine error: {want}"), "pe{sender} -> row {row}");
        assert_eq!(fast, machine.run_reference(&program, &[0.5], &[]).unwrap_err());
        assert_eq!(fast, machine.load(&program).unwrap_err());
    }
}

/// One `Loaded` serves many runs: loaded once, a program runs eight or
/// more (record, model) pairs, and each run equals `run_reference` on
/// that pair in every outcome field, gradients bit for bit, and equals
/// `Machine::run`, which loads afresh. A run that fails, deadlock
/// included, leaves the `Loaded` fit for the next pair.
mod loaded_reuse {
    use cosmic::cosmic_arch::machine::{Loaded, RunError, RunOutcome};
    use cosmic::cosmic_arch::{Geometry, Machine, ThreadProgram};
    use cosmic::cosmic_compiler::{compile, CompileOptions};
    use cosmic::cosmic_dfg::{lower, DimEnv};
    use cosmic::cosmic_dsl::{parse, programs};
    use proptest::prelude::*;

    use super::random_programs::{assert_same, random_case, Gen};
    use super::stim;

    /// Runs `loaded` on each pair and holds it to the reference and to
    /// a fresh `Machine::run`.
    fn check_pairs(
        machine: &Machine,
        program: &ThreadProgram,
        loaded: &Loaded,
        pairs: &[(Vec<f64>, Vec<f64>)],
        what: &str,
    ) -> usize {
        let mut failed = 0;
        for (i, (record, model)) in pairs.iter().enumerate() {
            let what = format!("{what} pair {i}");
            let reused = loaded.run(record, model);
            assert_same(&reused, &machine.run_reference(program, record, model), &what);
            assert_same(&reused, &machine.run(program, record, model), &what);
            failed += usize::from(reused.is_err());
        }
        failed
    }

    #[test]
    fn one_load_runs_every_pair_like_the_reference_on_compiled_workloads() {
        let workloads = [
            ("svm", programs::svm(10_000), DimEnv::new().with("n", 256)),
            (
                "linear_regression",
                programs::linear_regression(10_000),
                DimEnv::new().with("n", 192),
            ),
            (
                "logistic_regression",
                programs::logistic_regression(10_000),
                DimEnv::new().with("n", 128),
            ),
            (
                "backpropagation",
                programs::backpropagation(10_000),
                DimEnv::new().with("n", 16).with("h", 16).with("o", 4),
            ),
        ];
        for (name, src, env) in &workloads {
            let dfg = lower(&parse(src).expect("parses"), env).expect("lowers");
            for geometry in [Geometry::new(1, 4), Geometry::new(4, 16), Geometry::new(8, 8)] {
                let program = compile(&dfg, geometry, &CompileOptions::default()).program;
                let pairs: Vec<_> = (0..8)
                    .map(|k| {
                        let record = stim(program.data_placement.len(), 7 + 101 * k);
                        (record, stim(program.model_placement.len(), 11 + 37 * k))
                    })
                    .collect();
                for words_per_cycle in [1.0, 16.0] {
                    let machine = Machine::new(geometry, words_per_cycle);
                    let loaded = machine.load(&program).expect("compiled programs load");
                    let what = format!("{name} @ {geometry} wpc={words_per_cycle}");
                    assert_eq!(check_pairs(&machine, &program, &loaded, &pairs, &what), 0);
                }
            }
        }
    }

    /// Eight (record, model) pairs for `program`, then one record a word
    /// too long: values from `g`, so some pairs compute NaNs.
    fn random_pairs(g: &mut Gen, program: &ThreadProgram) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut vector = |len: usize| -> Vec<f64> {
            (0..len).map(|_| (g.below(2001) as f64 - 1000.0) / 97.0).collect()
        };
        let (words, model_words) = (program.data_placement.len(), program.model_placement.len());
        let mut pairs: Vec<_> = (0..8).map(|_| (vector(words), vector(model_words))).collect();
        pairs.push((vector(words + 1), vector(model_words)));
        pairs
    }

    proptest! {
        /// The random hand-built programs above, `Err` included: one
        /// load each, nine pairs through it.
        #[test]
        fn one_load_runs_every_pair_like_the_reference_on_random_programs(seed in any::<u64>()) {
            let mut g = Gen(seed);
            for i in 0..4 {
                let (program, _, _, words_per_cycle) = random_case(&mut g);
                let machine = Machine::new(program.geometry, words_per_cycle);
                let pairs = random_pairs(&mut g, &program);
                let what = format!("seed {seed} program {i}: {program:?}");
                match machine.load(&program) {
                    Ok(loaded) => {
                        let failed = check_pairs(&machine, &program, &loaded, &pairs, &what);
                        prop_assert!(failed >= 1, "{what}: the long record must fail");
                    }
                    Err(e) => {
                        let (record, model) = &pairs[0];
                        let refr: Result<RunOutcome, RunError> =
                            machine.run_reference(&program, record, model);
                        prop_assert_eq!(Err(e), refr);
                    }
                }
            }
        }
    }
}

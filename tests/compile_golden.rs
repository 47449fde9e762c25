//! The compile side's golden: for every Table 1 program, what the
//! Planner chose and every point it estimated, the chosen geometry's
//! list schedule, Algorithm 1's remote edges and the Constructor's RTL,
//! pinned as FNV-1a digests (the stack's own `Fnv1a`). A performance
//! pass over the Planner, the mapper, the scheduler or the RTL emitter
//! must leave every row byte-identical.
//!
//! The eight linear, logistic, SVM and CF programs run at their
//! published dimensions; the two backprop programs (`mnist`,
//! `acoustic`) at an eighth of them, so the test stays a tier-1 test.
//! A mismatch prints the whole table as the code now computes it.

use cosmic::cosmic_arch::{rtl, AcceleratorSpec, Geometry};
use cosmic::cosmic_compiler::schedule::{self, ListScheduler};
use cosmic::cosmic_compiler::{
    codegen, mapping, BusModel, MappingStrategy, Schedule, ScheduleEstimate,
};
use cosmic::cosmic_dfg::{lower, Dfg, DimEnv};
use cosmic::cosmic_dsl::{parse, programs};
use cosmic::cosmic_ml::{suite::DEFAULT_MINIBATCH, Algorithm, BenchmarkId};
use cosmic::cosmic_planner::plan::AcceleratorPerf;
use cosmic::cosmic_planner::{plan, Plan};
use cosmic::cosmic_runtime::collectives::Fnv1a;
use proptest::prelude::*;

/// One program's pinned compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    name: &'static str,
    /// `Plan.best` as (threads, rows per thread, cycles per record).
    best: (usize, usize, u64),
    /// Digest of every `Plan.explored` entry, both thread bounds and
    /// `Plan.best`.
    explored: u64,
    /// Digest of the best geometry's `Schedule::start` and `finish`.
    schedule: u64,
    /// Digest of that schedule's `ScheduleEstimate`.
    estimate: u64,
    remote_edges: usize,
    rtl_len: usize,
    rtl: u64,
}

/// Captured from the compile side as it stood before its first
/// performance pass.
const GOLDEN: [Golden; 10] = [
    Golden {
        name: "mnist",
        best: (48, 1, 6127),
        explored: 0xe8b5d4632c34d2b5,
        schedule: 0x62a16296fa16d7e8,
        estimate: 0xad2b168264ca7179,
        remote_edges: 18950,
        rtl_len: 5938487,
        rtl: 0xb361e189fc59c0b5,
    },
    Golden {
        name: "acoustic",
        best: (48, 1, 4304),
        explored: 0x8089c543d1727919,
        schedule: 0x57e987a0b6ddaa52,
        estimate: 0x45630e1f8b2ad002,
        remote_edges: 13280,
        rtl_len: 3983560,
        rtl: 0x8f93c4a22b2378e4,
    },
    Golden {
        name: "stock",
        best: (32, 1, 23225),
        explored: 0x42a879f97b394c3e,
        schedule: 0xc0c79889d3f8260d,
        estimate: 0xa9c75affd4df83e5,
        remote_edges: 15000,
        rtl_len: 4730836,
        rtl: 0x7875c26899b3efff,
    },
    Golden {
        name: "texture",
        best: (30, 1, 44718),
        explored: 0x87a844be033efee3,
        schedule: 0xe849d0ff08c3e568,
        estimate: 0x182c1984e897f845,
        remote_edges: 30720,
        rtl_len: 9718416,
        rtl: 0x5d20f8bc2667ee6b,
    },
    Golden {
        name: "tumor",
        best: (32, 1, 5809),
        explored: 0x894cebb2c784d6cd,
        schedule: 0x1eff605de4ec7661,
        estimate: 0xd835840f0696dccb,
        remote_edges: 3750,
        rtl_len: 1176963,
        rtl: 0xedb095892622d7bb,
    },
    Golden {
        name: "cancer1",
        best: (32, 1, 17517),
        explored: 0x0106f1e13ceeac67,
        schedule: 0x72429d8f4f364d60,
        estimate: 0x72833ace0b8abab0,
        remote_edges: 11312,
        rtl_len: 3566893,
        rtl: 0xf405c08517e60ca7,
    },
    Golden {
        name: "movielens",
        best: (48, 1, 38),
        explored: 0x8c3d1d2c89399a31,
        schedule: 0xbd9cd94375e01471,
        estimate: 0x6b2592e55ae29b69,
        remote_edges: 57,
        rtl_len: 33561,
        rtl: 0xd08a71aa7fe2724f,
    },
    Golden {
        name: "netflix",
        best: (48, 1, 38),
        explored: 0x8c3d1d2c89399a31,
        schedule: 0xbd9cd94375e01471,
        estimate: 0x6b2592e55ae29b69,
        remote_edges: 57,
        rtl_len: 33559,
        rtl: 0x6f06fa2483270c73,
    },
    Golden {
        name: "face",
        best: (48, 1, 7473),
        explored: 0x1d45348c9dc33827,
        schedule: 0x086da3d759c4c0a7,
        estimate: 0x2029964c80f53f5d,
        remote_edges: 3264,
        rtl_len: 1823420,
        rtl: 0x7abe3163fbe7a7e8,
    },
    Golden {
        name: "cancer2",
        best: (48, 1, 30601),
        explored: 0xa93752c08723ba29,
        schedule: 0xfb18fd71c7168b19,
        estimate: 0x64e9d3e43a230a2c,
        remote_edges: 13368,
        rtl_len: 7537198,
        rtl: 0x24e437beaf7fe0e1,
    },
];

/// The program behind a Table 1 row, at the dimensions this test pins.
fn dfg(id: BenchmarkId) -> Dfg {
    let bench = id.benchmark();
    let algorithm = match bench.algorithm {
        Algorithm::Backprop { .. } => bench.algorithm_scaled(0.125),
        full => full,
    };
    let env = algorithm
        .dim_bindings()
        .into_iter()
        .fold(DimEnv::new(), |env, (name, size)| env.with(name, size));
    lower(&parse(&algorithm.dsl_source(DEFAULT_MINIBATCH)).expect("parses"), &env).expect("lowers")
}

fn write_perf(hash: &mut Fnv1a, perf: &AcceleratorPerf) {
    for word in
        [perf.point.threads as u64, perf.point.rows_per_thread as u64, perf.cycles_per_record]
    {
        hash.write_u64(word);
    }
    hash.write_u64(perf.records_per_sec.to_bits());
    write_estimate(hash, &perf.estimate);
}

fn write_estimate(hash: &mut Fnv1a, e: &ScheduleEstimate) {
    for word in [
        e.latency_cycles,
        e.mem_stream_cycles,
        e.initiation_interval,
        e.neighbor_transfers,
        e.row_bus_transfers,
        e.tree_bus_transfers,
        e.compute_ops,
        e.max_row_bus,
        e.max_pe_instrs,
    ] {
        hash.write_u64(word);
    }
}

fn plan_digest(plan: &Plan) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write_u64(plan.t_max_storage as u64);
    hash.write_u64(plan.t_max as u64);
    hash.write_u64(plan.explored.len() as u64);
    for perf in &plan.explored {
        write_perf(&mut hash, perf);
    }
    write_perf(&mut hash, &plan.best);
    hash.finish()
}

fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write_u64(schedule.start.len() as u64);
    for (&start, &finish) in schedule.start.iter().zip(&schedule.finish) {
        hash.write_u64(start);
        hash.write_u64(finish);
    }
    hash.finish()
}

/// Plans, then maps, schedules, generates and renders the chosen
/// geometry the way `build_suite` does.
fn compile_row(id: BenchmarkId) -> Golden {
    let dfg = dfg(id);
    let spec = AcceleratorSpec::fpga_vu9p();
    let plan = plan(&dfg, &spec, DEFAULT_MINIBATCH);
    let geometry = Geometry::new(plan.best.point.rows_per_thread, spec.columns);
    let map = mapping::map(&dfg, geometry, MappingStrategy::DataFirst);
    let sched = schedule::schedule(&dfg, &map, geometry, geometry.columns as f64);
    let verilog =
        rtl::emit_accelerator(&codegen::generate(&dfg, &map, &sched, geometry).program, id.name());
    let mut estimate = Fnv1a::default();
    write_estimate(&mut estimate, &sched.estimate);
    let mut rtl = Fnv1a::default();
    rtl.write_bytes(verilog.as_bytes());
    Golden {
        name: id.name(),
        best: (
            plan.best.point.threads,
            plan.best.point.rows_per_thread,
            plan.best.cycles_per_record,
        ),
        explored: plan_digest(&plan),
        schedule: schedule_digest(&sched),
        estimate: estimate.finish(),
        remote_edges: map.remote_edges(&dfg),
        rtl_len: verilog.len(),
        rtl: rtl.finish(),
    }
}

#[test]
fn every_table1_compile_matches_its_golden() {
    let rows: Vec<Golden> = BenchmarkId::all().into_iter().map(compile_row).collect();
    if rows[..] != GOLDEN[..] {
        let mut table = String::new();
        for g in &rows {
            table.push_str(&format!(
                "    Golden {{\n        name: {:?},\n        best: {:?},\n        \
                 explored: {:#018x},\n        schedule: {:#018x},\n        \
                 estimate: {:#018x},\n        remote_edges: {},\n        rtl_len: {},\n        \
                 rtl: {:#018x},\n    }},\n",
                g.name,
                g.best,
                g.explored,
                g.schedule,
                g.estimate,
                g.remote_edges,
                g.rtl_len,
                g.rtl
            ));
        }
        panic!("the compile side moved; it now reads:\n{table}");
    }
}

/// One small program per algorithm family, at a seeded size.
fn small_dfg(family: usize, size: usize) -> Dfg {
    let (src, env) = match family {
        0 => (programs::linear_regression(64), DimEnv::new().with("n", size)),
        1 => (programs::logistic_regression(64), DimEnv::new().with("n", size)),
        2 => (programs::svm(64), DimEnv::new().with("n", size)),
        3 => (
            programs::backpropagation(64),
            DimEnv::new().with("n", size).with("h", 2 + size / 4).with("o", 3),
        ),
        _ => (programs::collaborative_filtering(64), DimEnv::new().with("k", size)),
    };
    lower(&parse(&src).expect("parses"), &env).expect("lowers")
}

proptest! {
    /// One scheduler, its priority order computed once, serves any
    /// sequence of mappings of its DFG: each schedule equals the one a
    /// fresh scheduler builds, and on the hierarchical bus the one
    /// `schedule::schedule` builds.
    #[test]
    fn a_shared_priority_schedules_like_a_fresh_one(
        family in 0usize..5,
        size in 2usize..40,
        shapes in prop::collection::vec(1usize..64, 1..5),
        flags in prop::collection::vec(any::<u8>(), 4..5),
        bandwidth in 0.5f64..24.0,
    ) {
        let dfg = small_dfg(family, size);
        let shared = ListScheduler::new(&dfg);
        for (k, &shape) in shapes.iter().enumerate() {
            let geometry = Geometry::new(1 + shape % 6, 1 + shape / 6);
            let bits = flags[k % flags.len()];
            let strategy =
                if bits & 1 == 0 { MappingStrategy::DataFirst } else { MappingStrategy::OpFirst };
            let bus = if bits & 2 == 0 { BusModel::Hierarchical } else { BusModel::FlatShared };
            let map = mapping::map(&dfg, geometry, strategy);
            let got = shared.schedule(&map, geometry, bandwidth, bus);
            prop_assert_eq!(&got, &ListScheduler::new(&dfg).schedule(&map, geometry, bandwidth, bus));
            if bus == BusModel::Hierarchical {
                prop_assert_eq!(&got, &schedule::schedule(&dfg, &map, geometry, bandwidth));
            }
        }
    }
}

//! Static analyses over dataflow graphs.
//!
//! These feed the Planner (storage footprint, parallelism) and the
//! performance estimator (critical path, width profile).

use crate::graph::{Dfg, Node, NodeId};

/// Word size of the fixed-point datapath, in bytes (the template
/// architecture processes 32-bit words, as in TABLA).
pub(crate) const WORD_BYTES: usize = 4;

/// Length of the longest dependence chain through compute nodes, counting
/// each compute node as one level (leaves are level 0).
///
/// This bounds the schedule makespan from below regardless of PE count.
pub fn critical_path(dfg: &Dfg) -> u32 {
    depth_map(dfg).into_iter().max().unwrap_or(0)
}

/// Per-node depth (number of compute nodes on the longest path from any
/// leaf, inclusive). Leaves have depth 0.
pub fn depth_map(dfg: &Dfg) -> Vec<u32> {
    let mut depth = vec![0u32; dfg.len()];
    for (i, node) in dfg.nodes().iter().enumerate() {
        depth[i] = match node {
            Node::Op { a, b, .. } => 1 + depth[a.index()].max(depth[b.index()]),
            Node::Unary { a, .. } => 1 + depth[a.index()],
            _ => 0,
        };
    }
    depth
}

/// Per-node *height*: length of the longest dependence chain from the node
/// down to any gradient output. Used by the scheduler to prioritize
/// operations with the longest remaining chain (paper §6).
pub fn height_map(dfg: &Dfg) -> Vec<u32> {
    let mut height = vec![0u32; dfg.len()];
    // Reverse topological order: consumers have larger ids than producers.
    for i in (0..dfg.len()).rev() {
        let id = NodeId(i as u32);
        let is_compute = matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. });
        let own = u32::from(is_compute);
        for op in dfg.operands(id) {
            let j = op.index();
            height[j] = height[j].max(height[i] + own);
        }
    }
    height
}

/// Number of operations at each ASAP level — the DFG's intrinsic
/// parallelism profile. `profile[d]` is the count of compute nodes whose
/// depth is `d + 1`.
pub(crate) fn width_profile(dfg: &Dfg) -> Vec<usize> {
    let depth = depth_map(dfg);
    let mut profile: Vec<usize> = Vec::new();
    for (i, node) in dfg.nodes().iter().enumerate() {
        if matches!(node, Node::Op { .. } | Node::Unary { .. }) {
            let level = depth[i] as usize - 1;
            if profile.len() <= level {
                profile.resize(level + 1, 0);
            }
            profile[level] += 1;
        }
    }
    profile
}

/// The maximum number of operations executable in one step anywhere in the
/// graph — an upper bound on useful PEs for a single thread.
pub fn max_width(dfg: &Dfg) -> usize {
    width_profile(dfg).into_iter().max().unwrap_or(0)
}

/// Whether the graph uses any non-linear operation, requiring the PE
/// look-up-table unit to be instantiated (paper §5.1: the non-linear unit
/// "is only instantiated in a PE if the Compiler schedules a non-linear
/// operation for that PE").
pub fn uses_nonlinear(dfg: &Dfg) -> bool {
    dfg.nodes().iter().any(|n| match n {
        Node::Unary { .. } => true,
        Node::Op { kind, .. } => kind.is_nonlinear(),
        _ => false,
    })
}

/// Per-thread on-chip storage requirement, in bytes: model parameters,
/// one training record, and live intermediate values.
pub fn storage_bytes(dfg: &Dfg) -> usize {
    let interims =
        dfg.nodes().iter().filter(|n| matches!(n, Node::Op { .. } | Node::Unary { .. })).count();
    // Live intermediates are bounded by the width profile, not the op
    // count; a 2x max-width window is a conservative buffer plan.
    let live_interims = (2 * max_width(dfg)).min(interims.max(1));
    (dfg.model_len() + dfg.data_len() + live_interims + dfg.gradient_len()) * WORD_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DfgBuilder;
    use crate::lower::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn linreg(n: usize) -> Dfg {
        let p = parse(&programs::linear_regression(64)).unwrap();
        lower(&p, &DimEnv::new().with("n", n)).unwrap()
    }

    #[test]
    fn critical_path_of_dot_product() {
        let dfg = linreg(8);
        // mul (1) + 3 reduction levels + sub + gradient mul = 6.
        assert_eq!(critical_path(&dfg), 6);
    }

    #[test]
    fn width_profile_peaks_at_elementwise_level() {
        let dfg = linreg(8);
        let profile = width_profile(&dfg);
        // Level 0: 8 parallel multiplies.
        assert_eq!(profile[0], 8);
        assert_eq!(max_width(&dfg), 8);
        assert_eq!(profile.iter().sum::<usize>(), dfg.op_count());
    }

    #[test]
    fn nonlinear_detection() {
        assert!(!uses_nonlinear(&linreg(4)));
        let p = parse(&programs::logistic_regression(64)).unwrap();
        let dfg = lower(&p, &DimEnv::new().with("n", 4)).unwrap();
        assert!(uses_nonlinear(&dfg));
    }

    #[test]
    fn height_map_is_reverse_of_depth() {
        let dfg = linreg(4);
        let h = height_map(&dfg);
        let cp = critical_path(&dfg);
        // Some leaf on the critical path sees the full height.
        assert_eq!(h.iter().copied().max().unwrap(), cp);
    }

    #[test]
    fn storage_counts_model_and_record() {
        let dfg = linreg(4);
        let bytes = storage_bytes(&dfg);
        assert!(bytes >= (4 + 5 + 4) * WORD_BYTES);
    }

    #[test]
    fn empty_graph_stats() {
        let dfg = DfgBuilder::new().finish(0, 0);
        assert_eq!(critical_path(&dfg), 0);
        assert_eq!(max_width(&dfg), 0);
    }
}

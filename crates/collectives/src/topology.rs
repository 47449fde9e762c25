//! The System Director: node role assignment and failure repair (paper
//! §4.3).
//!
//! Roles are assigned from the system specification (number of nodes,
//! number of groups, accelerator type): every group gets one **Sigma**
//! node that aggregates the group's partial gradients; the remaining
//! nodes are **Deltas** that compute partial gradients and ship them to
//! their group's Sigma. One Sigma additionally acts as the **master**,
//! combining group aggregates and redistributing the updated model.
//! Sigma nodes also compute partial gradients — they carry accelerators
//! like everyone else.
//!
//! When a node fails at run time, [`Topology::fail_node`] repairs the
//! hierarchy in place: a dead Delta is dropped from its group, a dead
//! Sigma triggers re-election of the lowest-id surviving group member
//! (or, for the master, promotion of a surviving group Sigma), and the
//! remaining nodes' role records are rewritten to point at the new
//! aggregator. Collective strategies consume the repaired topology, so
//! a failure also invalidates (and rebuilds) their communication
//! schedules.

use std::error::Error;
use std::fmt;

/// A topology construction or repair failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested group structure cannot be built over the node
    /// count.
    InvalidTopology {
        /// Requested node count.
        nodes: usize,
        /// Requested group count.
        groups: usize,
    },
    /// A node id outside the role table was named.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The role-table size.
        nodes: usize,
    },
    /// The topology has no master Sigma (it was never assigned, or every
    /// candidate has failed).
    NoMaster,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidTopology { nodes, groups } => {
                write!(f, "cannot split {nodes} node(s) into {groups} group(s)")
            }
            TopologyError::NodeOutOfRange { node, nodes } => {
                write!(f, "fail_node({node}) out of range for {nodes} node(s)")
            }
            TopologyError::NoMaster => write!(f, "topology has no master Sigma"),
        }
    }
}

impl Error for TopologyError {}

/// A node's role in the scale-out system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Computes partial gradients and sends them to its group Sigma.
    Delta {
        /// The node id of this node's group Sigma.
        sigma: usize,
    },
    /// Aggregates its group's partial gradients and forwards the group
    /// aggregate to the master Sigma (also computes partial gradients).
    GroupSigma {
        /// Group members (excluding the Sigma itself).
        members: Vec<usize>,
        /// The master Sigma's node id.
        master: usize,
    },
    /// The top of the hierarchy: combines group aggregates, applies the
    /// aggregation operator, and broadcasts the updated model.
    MasterSigma {
        /// Its own group's members.
        members: Vec<usize>,
        /// The other groups' Sigma nodes.
        group_sigmas: Vec<usize>,
    },
    /// The node has failed (crashed or been expelled) and holds no
    /// duties. Failed nodes stay in the role table so node ids remain
    /// stable.
    Failed,
}

impl Role {
    /// Whether this node performs aggregation.
    pub(crate) fn is_sigma(&self) -> bool {
        matches!(self, Role::GroupSigma { .. } | Role::MasterSigma { .. })
    }

    /// Whether this node has failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, Role::Failed)
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Delta { sigma } => write!(f, "delta(sigma={sigma})"),
            Role::GroupSigma { members, master } => {
                write!(f, "sigma({} members, master={master})", members.len())
            }
            Role::MasterSigma { members, group_sigmas } => {
                write!(
                    f,
                    "master-sigma({} members, {} groups)",
                    members.len(),
                    group_sigmas.len() + 1
                )
            }
            Role::Failed => write!(f, "failed"),
        }
    }
}

/// A Sigma re-election performed by [`Topology::fail_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// The Sigma that failed.
    pub failed: usize,
    /// The surviving node promoted in its place.
    pub elected: usize,
    /// Whether the failed Sigma was the master.
    pub was_master: bool,
}

/// The cluster topology produced by the System Director.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Role per node, indexed by node id.
    pub roles: Vec<Role>,
    /// Number of live groups.
    pub groups: usize,
    /// Membership epoch: bumped exactly once per *effective* membership
    /// change ([`Topology::fail_node`] on a live node,
    /// [`Topology::rejoin_node`] on a failed one). Consumers key their
    /// communication-schedule caches on this, so joins invalidate them
    /// the same way leaves do. No-op repairs (double-failing a node)
    /// leave it untouched.
    epoch: u64,
}

impl Topology {
    /// Total nodes (live and failed).
    pub fn nodes(&self) -> usize {
        self.roles.len()
    }

    /// The membership epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Nodes that have not failed.
    pub fn live_nodes(&self) -> usize {
        self.roles.iter().filter(|r| !r.is_failed()).count()
    }

    /// Node ids of every live node, ascending.
    pub fn live_node_ids(&self) -> Vec<usize> {
        self.roles.iter().enumerate().filter(|(_, r)| !r.is_failed()).map(|(i, _)| i).collect()
    }

    /// The master Sigma's node id, or `None` if every candidate has
    /// failed.
    pub fn master(&self) -> Option<usize> {
        self.roles.iter().position(|r| matches!(r, Role::MasterSigma { .. }))
    }

    /// Node ids of all Sigma nodes (group Sigmas + master).
    pub fn sigmas(&self) -> Vec<usize> {
        self.roles.iter().enumerate().filter(|(_, r)| r.is_sigma()).map(|(i, _)| i).collect()
    }

    /// Largest group size (Sigma + members) — the fan-in the hot Sigma
    /// ingress port must absorb.
    pub fn max_group_fan_in(&self) -> usize {
        self.roles
            .iter()
            .filter_map(|r| match r {
                Role::GroupSigma { members, .. } | Role::MasterSigma { members, .. } => {
                    Some(members.len())
                }
                Role::Delta { .. } | Role::Failed => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Marks `node` as failed and repairs the aggregation hierarchy.
    ///
    /// - A failed **Delta** is removed from its group; no re-election.
    /// - A failed **group Sigma** is replaced by its lowest-id surviving
    ///   member; that member's peers (and the master's sigma list) are
    ///   rewritten to point at the new Sigma. A group whose Sigma dies
    ///   with no members left simply dissolves.
    /// - A failed **master** promotes the lowest-id surviving member of
    ///   its own group; if the group is empty, the lowest-id surviving
    ///   group Sigma becomes master instead.
    ///
    /// Returns the [`Promotion`] performed, if any. Failing a node twice
    /// is a no-op. Errors with [`TopologyError::NoMaster`] when the
    /// master dies and no surviving node can take over aggregation.
    pub fn fail_node(&mut self, node: usize) -> Result<Option<Promotion>, TopologyError> {
        if node >= self.roles.len() {
            return Err(TopologyError::NodeOutOfRange { node, nodes: self.roles.len() });
        }
        let old = std::mem::replace(&mut self.roles[node], Role::Failed);
        if !matches!(old, Role::Failed) {
            // One bump per effective change, even when the repair itself
            // errors (the last master dying still empties the cluster).
            self.epoch += 1;
        }
        match old {
            Role::Failed => Ok(None),
            Role::Delta { sigma } => {
                if let Role::GroupSigma { members, .. } | Role::MasterSigma { members, .. } =
                    &mut self.roles[sigma]
                {
                    members.retain(|&m| m != node);
                }
                Ok(None)
            }
            Role::GroupSigma { members, master } => {
                match members.iter().copied().min() {
                    Some(elected) => {
                        let rest: Vec<usize> =
                            members.into_iter().filter(|&m| m != elected).collect();
                        for &m in &rest {
                            self.roles[m] = Role::Delta { sigma: elected };
                        }
                        self.roles[elected] = Role::GroupSigma { members: rest, master };
                        if let Role::MasterSigma { group_sigmas, .. } = &mut self.roles[master] {
                            for gs in group_sigmas.iter_mut() {
                                if *gs == node {
                                    *gs = elected;
                                }
                            }
                        }
                        Ok(Some(Promotion { failed: node, elected, was_master: false }))
                    }
                    None => {
                        // The group died with its Sigma: dissolve it.
                        if let Role::MasterSigma { group_sigmas, .. } = &mut self.roles[master] {
                            group_sigmas.retain(|&gs| gs != node);
                        }
                        self.groups = self.groups.saturating_sub(1);
                        Ok(None)
                    }
                }
            }
            Role::MasterSigma { members, group_sigmas } => {
                if let Some(elected) = members.iter().copied().min() {
                    let rest: Vec<usize> = members.into_iter().filter(|&m| m != elected).collect();
                    for &m in &rest {
                        self.roles[m] = Role::Delta { sigma: elected };
                    }
                    for &gs in &group_sigmas {
                        if let Role::GroupSigma { master, .. } = &mut self.roles[gs] {
                            *master = elected;
                        }
                    }
                    self.roles[elected] = Role::MasterSigma { members: rest, group_sigmas };
                    Ok(Some(Promotion { failed: node, elected, was_master: true }))
                } else if let Some(elected) = group_sigmas.iter().copied().min() {
                    // The master's own group is gone: hand the crown to
                    // the lowest-id surviving group Sigma.
                    let rest: Vec<usize> =
                        group_sigmas.into_iter().filter(|&gs| gs != elected).collect();
                    for &gs in &rest {
                        if let Role::GroupSigma { master, .. } = &mut self.roles[gs] {
                            *master = elected;
                        }
                    }
                    let own_members = match &self.roles[elected] {
                        Role::GroupSigma { members, .. } => members.clone(),
                        _ => Vec::new(),
                    };
                    self.roles[elected] =
                        Role::MasterSigma { members: own_members, group_sigmas: rest };
                    self.groups = self.groups.saturating_sub(1);
                    Ok(Some(Promotion { failed: node, elected, was_master: true }))
                } else {
                    Err(TopologyError::NoMaster)
                }
            }
        }
    }

    /// Re-admits a previously failed node as a Delta in the smallest
    /// live group (ties broken toward the lowest-id Sigma), bumping the
    /// membership epoch so collective schedules rebuild on join exactly
    /// as they do on leave.
    ///
    /// The returned value is the Sigma the node was attached to, or
    /// `None` if the node is already live (rejoining twice is a no-op,
    /// mirroring [`Topology::fail_node`]). The node never resumes its
    /// old aggregation duties — re-election already rewired those — it
    /// starts over at the bottom of the hierarchy.
    ///
    /// Errors with [`TopologyError::NodeOutOfRange`] for unknown ids and
    /// [`TopologyError::NoMaster`] when no aggregator survives to adopt
    /// the node.
    pub fn rejoin_node(&mut self, node: usize) -> Result<Option<usize>, TopologyError> {
        if node >= self.roles.len() {
            return Err(TopologyError::NodeOutOfRange { node, nodes: self.roles.len() });
        }
        if !self.roles[node].is_failed() {
            return Ok(None);
        }
        let sigma = self
            .roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                Role::GroupSigma { members, .. } | Role::MasterSigma { members, .. } => {
                    Some((members.len(), i))
                }
                Role::Delta { .. } | Role::Failed => None,
            })
            .min()
            .map(|(_, i)| i)
            .ok_or(TopologyError::NoMaster)?;
        if let Role::GroupSigma { members, .. } | Role::MasterSigma { members, .. } =
            &mut self.roles[sigma]
        {
            // Member lists stay ascending so downstream iteration order
            // (and therefore every schedule) is deterministic.
            let at = members.partition_point(|&m| m < node);
            members.insert(at, node);
        }
        self.roles[node] = Role::Delta { sigma };
        self.epoch += 1;
        Ok(Some(sigma))
    }
}

/// Assigns roles to `nodes` nodes split into `groups` groups of nearly
/// equal size. Node 0 is the master Sigma; the first node of each other
/// group is its group Sigma.
///
/// Errors with [`TopologyError::InvalidTopology`] if `nodes` is zero,
/// `groups` is zero, or `groups > nodes`.
pub fn assign_roles(nodes: usize, groups: usize) -> Result<Topology, TopologyError> {
    if nodes == 0 || groups == 0 || groups > nodes {
        return Err(TopologyError::InvalidTopology { nodes, groups });
    }

    // Nearly equal contiguous groups.
    let base = nodes / groups;
    let extra = nodes % groups;
    let mut bounds = Vec::with_capacity(groups + 1);
    let mut cursor = 0;
    bounds.push(0);
    for g in 0..groups {
        cursor += base + usize::from(g < extra);
        bounds.push(cursor);
    }

    let mut roles: Vec<Role> = vec![Role::Failed; nodes];
    let mut group_sigmas = Vec::new();
    for g in 0..groups {
        let (lo, hi) = (bounds[g], bounds[g + 1]);
        let sigma = lo;
        let members: Vec<usize> = (lo + 1..hi).collect();
        if g == 0 {
            // Filled in after we know the other sigmas.
            roles[sigma] = Role::MasterSigma { members, group_sigmas: Vec::new() };
        } else {
            group_sigmas.push(sigma);
            roles[sigma] = Role::GroupSigma { members, master: 0 };
        }
        for role in &mut roles[lo + 1..hi] {
            *role = Role::Delta { sigma };
        }
    }
    if let Role::MasterSigma { group_sigmas: gs, .. } = &mut roles[0] {
        *gs = group_sigmas;
    }
    Ok(Topology { roles, groups, epoch: 0 })
}

/// The paper's group-count policy: enough groups that no Sigma ingress
/// absorbs more than ~4 concurrent senders (two-level hierarchy keeps
/// aggregation off the critical path); small clusters use one group.
pub fn default_groups(nodes: usize) -> usize {
    if nodes <= 5 {
        1
    } else {
        nodes.div_ceil(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roles(nodes: usize, groups: usize) -> Topology {
        assign_roles(nodes, groups).expect("valid test configuration")
    }

    #[test]
    fn sixteen_nodes_two_groups() {
        let t = roles(16, 2);
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.master(), Some(0));
        assert_eq!(t.sigmas(), vec![0, 8]);
        assert_eq!(t.max_group_fan_in(), 7);
        // Every delta points at its group's sigma.
        for (i, role) in t.roles.iter().enumerate() {
            if let Role::Delta { sigma } = role {
                assert!(if i < 8 { *sigma == 0 } else { *sigma == 8 }, "node {i}");
            }
        }
    }

    #[test]
    fn three_node_one_group() {
        let t = roles(3, 1);
        assert_eq!(t.sigmas(), vec![0]);
        assert_eq!(t.roles[1], Role::Delta { sigma: 0 });
        assert_eq!(t.roles[2], Role::Delta { sigma: 0 });
        assert_eq!(t.max_group_fan_in(), 2);
    }

    #[test]
    fn uneven_groups_differ_by_at_most_one() {
        let t = roles(10, 3);
        let mut sizes: Vec<usize> = t
            .roles
            .iter()
            .filter_map(|r| match r {
                Role::GroupSigma { members, .. } | Role::MasterSigma { members, .. } => {
                    Some(members.len() + 1)
                }
                _ => None,
            })
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3, 4]);
    }

    #[test]
    fn master_knows_other_sigmas() {
        let t = roles(12, 3);
        match &t.roles[0] {
            Role::MasterSigma { group_sigmas, .. } => assert_eq!(group_sigmas, &vec![4, 8]),
            other => panic!("node 0 must be master, got {other}"),
        }
    }

    #[test]
    fn single_node_cluster() {
        let t = roles(1, 1);
        assert_eq!(t.nodes(), 1);
        assert!(t.roles[0].is_sigma());
        assert_eq!(t.max_group_fan_in(), 0);
    }

    #[test]
    fn default_group_policy() {
        assert_eq!(default_groups(3), 1);
        assert_eq!(default_groups(4), 1);
        assert_eq!(default_groups(8), 2);
        assert_eq!(default_groups(16), 4);
    }

    #[test]
    fn degenerate_configurations_are_errors() {
        for (nodes, groups) in [(0, 1), (4, 0), (2, 3), (0, 0)] {
            assert_eq!(
                assign_roles(nodes, groups),
                Err(TopologyError::InvalidTopology { nodes, groups }),
                "nodes={nodes} groups={groups}"
            );
        }
    }

    #[test]
    fn as_many_groups_as_nodes_makes_every_node_a_sigma() {
        let t = roles(6, 6);
        assert_eq!(t.sigmas(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.max_group_fan_in(), 0);
        match &t.roles[0] {
            Role::MasterSigma { members, group_sigmas } => {
                assert!(members.is_empty());
                assert_eq!(group_sigmas, &vec![1, 2, 3, 4, 5]);
            }
            other => panic!("expected master, got {other}"),
        }
    }

    #[test]
    fn exactly_one_master_in_every_configuration() {
        for nodes in 1..=20 {
            for groups in 1..=nodes {
                let t = roles(nodes, groups);
                let masters =
                    t.roles.iter().filter(|r| matches!(r, Role::MasterSigma { .. })).count();
                assert_eq!(masters, 1, "nodes={nodes} groups={groups}");
                assert_eq!(t.sigmas().len(), groups);
                assert_eq!(t.live_nodes(), nodes);
                assert_eq!(t.live_node_ids().len(), nodes);
            }
        }
    }

    #[test]
    fn every_delta_points_at_a_real_sigma_in_its_own_group() {
        for nodes in 1..=20 {
            for groups in 1..=nodes {
                let t = roles(nodes, groups);
                for (i, role) in t.roles.iter().enumerate() {
                    if let Role::Delta { sigma } = role {
                        let sigma_role = &t.roles[*sigma];
                        assert!(sigma_role.is_sigma(), "node {i}: sigma {sigma} is not a sigma");
                        match sigma_role {
                            Role::GroupSigma { members, .. }
                            | Role::MasterSigma { members, .. } => {
                                assert!(
                                    members.contains(&i),
                                    "node {i} missing from sigma {sigma}'s member list"
                                );
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn failing_a_delta_just_removes_it() {
        let mut t = roles(6, 2);
        let promo = t.fail_node(4).expect("in range");
        assert_eq!(promo, None);
        assert!(t.roles[4].is_failed());
        match &t.roles[3] {
            Role::GroupSigma { members, .. } => assert_eq!(members, &vec![5]),
            other => panic!("expected group sigma, got {other}"),
        }
        assert_eq!(t.live_nodes(), 5);
    }

    #[test]
    fn failing_a_group_sigma_reelects_lowest_member() {
        let mut t = roles(9, 3); // groups {0,1,2} {3,4,5} {6,7,8}
        let promo = t.fail_node(3).expect("in range").expect("a member must be promoted");
        assert_eq!(promo, Promotion { failed: 3, elected: 4, was_master: false });
        assert_eq!(t.roles[4], Role::GroupSigma { members: vec![5], master: 0 });
        assert_eq!(t.roles[5], Role::Delta { sigma: 4 });
        match &t.roles[0] {
            Role::MasterSigma { group_sigmas, .. } => assert_eq!(group_sigmas, &vec![4, 6]),
            other => panic!("expected master, got {other}"),
        }
        assert_eq!(t.groups, 3);
    }

    #[test]
    fn failing_the_master_promotes_its_lowest_member() {
        let mut t = roles(6, 2); // groups {0,1,2} {3,4,5}
        let promo = t.fail_node(0).expect("in range").expect("re-election");
        assert_eq!(promo, Promotion { failed: 0, elected: 1, was_master: true });
        assert_eq!(t.master(), Some(1));
        assert_eq!(t.roles[1], Role::MasterSigma { members: vec![2], group_sigmas: vec![3] });
        assert_eq!(t.roles[3], Role::GroupSigma { members: vec![4, 5], master: 1 });
    }

    #[test]
    fn lone_group_dissolves_when_its_sigma_dies() {
        let mut t = roles(4, 2); // groups {0,1} {2,3}
        t.fail_node(3).expect("delta removal");
        let promo = t.fail_node(2).expect("in range");
        assert_eq!(promo, None, "an empty group has nobody to promote");
        assert_eq!(t.groups, 1);
        match &t.roles[0] {
            Role::MasterSigma { group_sigmas, .. } => assert!(group_sigmas.is_empty()),
            other => panic!("expected master, got {other}"),
        }
    }

    #[test]
    fn master_crown_passes_to_group_sigma_when_its_group_is_empty() {
        let mut t = roles(4, 2); // groups {0,1} {2,3}
        t.fail_node(1).expect("delta removal");
        let promo = t.fail_node(0).expect("in range").expect("failover");
        assert_eq!(promo, Promotion { failed: 0, elected: 2, was_master: true });
        assert_eq!(t.master(), Some(2));
        assert_eq!(t.roles[2], Role::MasterSigma { members: vec![3], group_sigmas: vec![] });
        assert_eq!(t.groups, 1);
    }

    #[test]
    fn last_node_failure_reports_no_master() {
        let mut t = roles(1, 1);
        assert_eq!(t.fail_node(0), Err(TopologyError::NoMaster));
        assert_eq!(t.master(), None);
        assert_eq!(t.live_nodes(), 0);
    }

    #[test]
    fn failing_twice_is_idempotent() {
        let mut t = roles(6, 2);
        t.fail_node(5).expect("first failure");
        assert_eq!(t.fail_node(5), Ok(None));
    }

    /// Regression (satellite): double-failing a node must not mutate
    /// epoch state twice — schedule caches keyed on the epoch would
    /// rebuild for a membership change that never happened.
    #[test]
    fn epoch_bumps_once_per_effective_change_only() {
        let mut t = roles(6, 2);
        assert_eq!(t.epoch(), 0);
        t.fail_node(5).expect("first failure");
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.fail_node(5), Ok(None), "second failure is a no-op");
        assert_eq!(t.epoch(), 1, "no-op repair must not bump the epoch");
        t.rejoin_node(5).expect("rejoin");
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.rejoin_node(5), Ok(None), "second rejoin is a no-op");
        assert_eq!(t.epoch(), 2, "no-op rejoin must not bump the epoch");
        assert_eq!(t.fail_node(9), Err(TopologyError::NodeOutOfRange { node: 9, nodes: 6 }),);
        assert_eq!(t.epoch(), 2, "rejected repairs must not bump the epoch");
    }

    #[test]
    fn rejoin_attaches_to_the_smallest_group_lowest_sigma_first() {
        let mut t = roles(9, 3); // groups {0,1,2} {3,4,5} {6,7,8}
        t.fail_node(4).expect("delta removal");
        t.fail_node(7).expect("delta removal");
        // Groups at sigma 3 and 6 both have one member; the tie breaks
        // toward the lowest-id sigma.
        assert_eq!(t.rejoin_node(4), Ok(Some(3)));
        assert_eq!(t.roles[4], Role::Delta { sigma: 3 });
        assert_eq!(t.roles[3], Role::GroupSigma { members: vec![4, 5], master: 0 });
        // Now sigma 6's group is the unique smallest.
        assert_eq!(t.rejoin_node(7), Ok(Some(6)));
        assert_eq!(t.roles[6], Role::GroupSigma { members: vec![7, 8], master: 0 });
        assert_eq!(t.live_nodes(), 9);
    }

    /// Regression pin for the director's reallocations (ISSUE 8): when
    /// several live groups tie for smallest, a rejoin must attach to the
    /// same group on every run and on every freshly-built instance. The
    /// tie-break is "lowest-id Sigma wins", implemented as a `.min()`
    /// over (size, sigma-id) pairs; if that ever became iteration-order
    /// dependent (say, a HashMap crept in), the elastic scaler's
    /// grow/shrink sequences — and every schedule built from them —
    /// would diverge between identically-seeded runs.
    #[test]
    fn rejoin_tie_break_is_deterministic_across_runs() {
        // The same churn sequence replayed on independent instances:
        // every replay must land on byte-identical role tables.
        let churn = |t: &mut Topology| {
            // 12 nodes, 4 equal groups {0..2}{3..5}{6..8}{9..11}.
            for n in [4, 7, 10, 5] {
                t.fail_node(n).expect("delta removal");
            }
            // After the fails the group sizes are 0:2, 3:0, 6:1, 9:1.
            // The second rejoin sees a three-way tie at size one
            // (sigmas 3, 6, 9); ties must fill lowest-sigma-first,
            // deterministically.
            let mut attached = Vec::new();
            for n in [4, 5, 7, 10] {
                attached.push(t.rejoin_node(n).expect("rejoin"));
            }
            attached
        };
        let mut reference = roles(12, 4);
        let expected = churn(&mut reference);
        // Pin the exact attach targets: the empty group at sigma 3,
        // then the three-way tie resolved toward 3 again, then 6, 9.
        assert_eq!(expected, vec![Some(3), Some(3), Some(6), Some(9)]);
        for _ in 0..10 {
            let mut t = roles(12, 4);
            let attached = churn(&mut t);
            assert_eq!(attached, expected);
            assert_eq!(t, reference, "replay diverged from reference");
        }
    }

    #[test]
    fn rejoined_member_lists_stay_ascending() {
        let mut t = roles(5, 1); // master 0, members 1..=4
        t.fail_node(2).expect("delta removal");
        t.fail_node(1).expect("delta removal");
        t.rejoin_node(2).expect("rejoin");
        t.rejoin_node(1).expect("rejoin");
        assert_eq!(
            t.roles[0],
            Role::MasterSigma { members: vec![1, 2, 3, 4], group_sigmas: vec![] },
        );
    }

    #[test]
    fn a_failed_sigma_rejoins_as_a_delta_not_a_sigma() {
        let mut t = roles(6, 2); // groups {0,1,2} {3,4,5}
        t.fail_node(3).expect("re-election");
        assert_eq!(t.sigmas(), vec![0, 4]);
        let sigma = t.rejoin_node(3).expect("rejoin").expect("adopted");
        assert_eq!(sigma, 4, "its old (re-elected) group is the smallest");
        assert_eq!(t.roles[3], Role::Delta { sigma: 4 });
        assert_eq!(t.sigmas(), vec![0, 4], "re-election is not reversed by rejoin");
    }

    #[test]
    fn rejoin_errors_match_fail_node_errors() {
        let mut t = roles(3, 1);
        assert_eq!(t.rejoin_node(7), Err(TopologyError::NodeOutOfRange { node: 7, nodes: 3 }));
        t.fail_node(1).expect("delta");
        t.fail_node(2).expect("delta");
        assert_eq!(t.fail_node(0), Err(TopologyError::NoMaster));
        assert_eq!(t.rejoin_node(1), Err(TopologyError::NoMaster), "nobody left to adopt");
    }

    #[test]
    fn out_of_range_failure_is_an_error() {
        let mut t = roles(3, 1);
        assert_eq!(t.fail_node(7), Err(TopologyError::NodeOutOfRange { node: 7, nodes: 3 }));
    }

    #[test]
    fn display_forms() {
        let t = roles(6, 2);
        assert!(t.roles[0].to_string().contains("master-sigma"));
        assert!(t.roles[3].to_string().contains("sigma("));
        assert!(t.roles[1].to_string().contains("delta"));
        assert_eq!(Role::Failed.to_string(), "failed");
        let err = TopologyError::NodeOutOfRange { node: 7, nodes: 3 };
        assert!(err.to_string().contains("fail_node(7)"));
    }

    /// Cascade: the master and *every* group Sigma fail in one round,
    /// each with an empty group — total dissolution, ending in
    /// [`TopologyError::NoMaster`] only when nobody at all is left.
    #[test]
    fn master_and_every_group_sigma_failing_in_one_round_dissolves_everything() {
        // 3 nodes / 3 groups: every node is a Sigma with no members.
        let mut t = roles(3, 3);
        assert_eq!(t.sigmas(), vec![0, 1, 2]);

        // Group Sigmas die first: their memberless groups dissolve.
        assert_eq!(t.fail_node(1), Ok(None));
        assert_eq!(t.groups, 2);
        assert_eq!(t.fail_node(2), Ok(None));
        assert_eq!(t.groups, 1);
        match &t.roles[0] {
            Role::MasterSigma { members, group_sigmas } => {
                assert!(members.is_empty());
                assert!(group_sigmas.is_empty(), "dissolved groups leave the sigma list");
            }
            other => panic!("expected master, got {other}"),
        }

        // The master is the last node standing: its failure is terminal.
        assert_eq!(t.fail_node(0), Err(TopologyError::NoMaster));
        assert_eq!(t.live_nodes(), 0);
        assert_eq!(t.master(), None);
    }

    /// Cascade: every aggregator in a 9-node cluster dies in the same
    /// round; each group re-elects, so the hierarchy survives with an
    /// entirely new set of Sigmas.
    #[test]
    fn all_sigmas_failing_in_one_round_reelect_a_full_new_hierarchy() {
        let mut t = roles(9, 3); // sigmas 0 (master), 3, 6
        let p0 = t.fail_node(0).expect("in range").expect("master re-election");
        assert_eq!(p0, Promotion { failed: 0, elected: 1, was_master: true });
        let p3 = t.fail_node(3).expect("in range").expect("group re-election");
        assert_eq!(p3, Promotion { failed: 3, elected: 4, was_master: false });
        let p6 = t.fail_node(6).expect("in range").expect("group re-election");
        assert_eq!(p6, Promotion { failed: 6, elected: 7, was_master: false });

        assert_eq!(t.master(), Some(1));
        assert_eq!(t.sigmas(), vec![1, 4, 7]);
        assert_eq!(t.groups, 3);
        assert_eq!(t.live_nodes(), 6);
        // Every new group Sigma points at the new master.
        for gs in [4, 7] {
            match &t.roles[gs] {
                Role::GroupSigma { master, .. } => assert_eq!(*master, 1),
                other => panic!("node {gs} must be a group sigma, got {other}"),
            }
        }
    }

    /// Cascade: after the original master fails and a new master is
    /// elected, the *new* master fails too — the crown must pass again,
    /// and every surviving group Sigma must track the second re-election.
    #[test]
    fn reelection_after_the_new_master_also_fails() {
        let mut t = roles(6, 2); // groups {0,1,2} {3,4,5}; master 0
        let first = t.fail_node(0).expect("in range").expect("first crown-passing");
        assert_eq!(first, Promotion { failed: 0, elected: 1, was_master: true });
        assert_eq!(t.master(), Some(1));

        let second = t.fail_node(1).expect("in range").expect("second crown-passing");
        assert_eq!(second, Promotion { failed: 1, elected: 2, was_master: true });
        assert_eq!(t.master(), Some(2));
        assert_eq!(t.roles[2], Role::MasterSigma { members: vec![], group_sigmas: vec![3] });
        assert_eq!(t.roles[3], Role::GroupSigma { members: vec![4, 5], master: 2 });
        assert_eq!(t.live_nodes(), 4);

        // A third failure exhausts the master's own group; the crown
        // crosses groups to the surviving group Sigma.
        let third = t.fail_node(2).expect("in range").expect("cross-group crown-passing");
        assert_eq!(third, Promotion { failed: 2, elected: 3, was_master: true });
        assert_eq!(t.master(), Some(3));
        assert_eq!(t.roles[3], Role::MasterSigma { members: vec![4, 5], group_sigmas: vec![] });
        assert_eq!(t.groups, 1);
    }
}

//! Per-job topology carve-outs and the physical-node ledger.
//!
//! A carve-out gives each admitted job its own epoch'd [`Topology`]
//! built over the job's *logical* width (`max_nodes` slots). Slots the
//! director has not funded with a physical node are simply failed
//! nodes, so growing a job is [`Topology::rejoin_node`] and shrinking
//! is [`Topology::fail_node`] — the exact membership machinery the
//! single-job runtime already trusts, deterministic tie-breaks and
//! epoch bumps included. Every resize therefore invalidates the job's
//! (epoch, participants) schedule key exactly like a crash or rejoin
//! does, and the shared [`BoundedScheduleCache`] makes the rebuild
//! cheap when any job has used that carve shape before.
//!
//! [`BoundedScheduleCache`]: cosmic_collectives::BoundedScheduleCache

use std::collections::{BTreeMap, BTreeSet};

use cosmic_collectives::{assign_roles, default_groups, Topology};

use crate::error::DirectorError;

/// One job's disjoint slice of the cluster: a topology over the job's
/// logical slots plus the slot → physical-node funding map.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CarveOut {
    job: usize,
    topology: Topology,
    /// `physical[slot]` is the physical node funding that logical slot,
    /// `None` while the slot is unfunded (failed in the topology).
    physical: Vec<Option<usize>>,
}

impl CarveOut {
    /// Builds a carve for `job` at logical width `width`, funding the
    /// first `grant.len()` slots with the given physical nodes. The
    /// remaining slots start failed (top-down, so empty tail groups
    /// dissolve without promotions).
    pub(crate) fn new(job: usize, width: usize, grant: &[usize]) -> Result<Self, DirectorError> {
        if grant.is_empty() || grant.len() > width {
            return Err(DirectorError::LedgerCorrupt {
                detail: format!(
                    "carve for job {job}: grant of {} nodes outside 1..={width}",
                    grant.len()
                ),
            });
        }
        let mut topology = assign_roles(width, default_groups(width))?;
        for slot in (grant.len()..width).rev() {
            topology.fail_node(slot)?;
        }
        let mut physical = vec![None; width];
        for (slot, &node) in grant.iter().enumerate() {
            physical[slot] = Some(node);
        }
        Ok(CarveOut { job, topology, physical })
    }

    /// The carve's topology (live slots = funded slots).
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The job's logical width (total slots).
    pub(crate) fn width(&self) -> usize {
        self.physical.len()
    }

    /// Funded (live) slot count.
    pub(crate) fn live(&self) -> usize {
        self.topology.live_nodes()
    }

    /// Live slot ids, ascending — the participants of every collective
    /// round this carve runs.
    pub(crate) fn live_slots(&self) -> Vec<usize> {
        self.topology.live_node_ids()
    }

    /// The physical nodes currently funding this carve, ascending.
    pub(crate) fn physical_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.physical.iter().flatten().copied().collect();
        nodes.sort_unstable();
        nodes
    }

    /// Funds up to `nodes.len()` unfunded slots (lowest slot first,
    /// each attached through [`Topology::rejoin_node`]'s deterministic
    /// smallest-group tie-break). Returns the physical nodes actually
    /// absorbed; leftovers stay with the caller.
    pub(crate) fn grow(&mut self, nodes: &[usize]) -> Result<Vec<usize>, DirectorError> {
        let mut absorbed = Vec::new();
        for &node in nodes {
            let Some(slot) = self.physical.iter().position(Option::is_none) else {
                break;
            };
            self.topology.rejoin_node(slot)?;
            self.physical[slot] = Some(node);
            absorbed.push(node);
        }
        Ok(absorbed)
    }

    /// Defunds the slots funded by exactly the given physical nodes
    /// (the carve's share of a correlated slab failure), in ascending
    /// slot order. Unlike [`CarveOut::shrink`] this may defund the
    /// master slot — [`Topology::fail_node`]'s re-election machinery
    /// handles it — and may not leave a survivor: the caller must
    /// treat a carve that would lose every live slot as a whole-job
    /// crash instead of calling this.
    pub(crate) fn defund_nodes(&mut self, nodes: &[usize]) -> Result<Vec<usize>, DirectorError> {
        let mut released = Vec::new();
        let slots: Vec<usize> = (0..self.physical.len())
            .filter(|&s| self.physical[s].is_some_and(|n| nodes.contains(&n)))
            .collect();
        for slot in slots {
            if self.live() <= 1 {
                break;
            }
            self.topology.fail_node(slot)?;
            if let Some(node) = self.physical[slot].take() {
                released.push(node);
            }
        }
        Ok(released)
    }

    /// The physical nodes a `shrink(count)` would release, without
    /// mutating — so the director can journal the decision before it
    /// takes effect (write-ahead discipline).
    pub(crate) fn shrink_victims(&self, count: usize) -> Vec<usize> {
        let master = self.topology.master();
        let mut victims: Vec<usize> =
            self.live_slots().into_iter().filter(|&s| Some(s) != master).collect();
        victims.reverse(); // highest first
        victims.truncate(count.min(self.live().saturating_sub(1)));
        victims.iter().filter_map(|&s| self.physical[s]).collect()
    }

    /// Defunds `count` slots (highest live non-master slot first, each
    /// through [`Topology::fail_node`]) and returns the released
    /// physical nodes. At least one slot always survives.
    pub(crate) fn shrink(&mut self, count: usize) -> Result<Vec<usize>, DirectorError> {
        let mut released = Vec::new();
        let master = self.topology.master();
        let mut victims: Vec<usize> =
            self.live_slots().into_iter().filter(|&s| Some(s) != master).collect();
        victims.reverse(); // highest first
        for slot in victims.into_iter().take(count) {
            if self.live() <= 1 {
                break;
            }
            self.topology.fail_node(slot)?;
            if let Some(node) = self.physical[slot].take() {
                released.push(node);
            }
        }
        Ok(released)
    }
}

/// The cluster-wide physical-node ledger: which nodes are free, which
/// belong to which job. Grants are disjoint by construction and the
/// conservation invariant is auditable at any time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterLedger {
    nodes: usize,
    free: BTreeSet<usize>,
    granted: BTreeMap<usize, BTreeSet<usize>>,
    /// Nodes taken out of service by slab failures, pending repair.
    out: BTreeSet<usize>,
}

impl ClusterLedger {
    /// A ledger over physical nodes `0..nodes`, all free.
    pub(crate) fn new(nodes: usize) -> Self {
        ClusterLedger {
            nodes,
            free: (0..nodes).collect(),
            granted: BTreeMap::new(),
            out: BTreeSet::new(),
        }
    }

    /// Currently unallocated node count.
    pub(crate) fn free_count(&self) -> usize {
        self.free.len()
    }

    /// The nodes `grant(job, count)` would return, without taking
    /// them — so the director can journal the grant decision before
    /// it takes effect (write-ahead discipline).
    pub(crate) fn peek_grant(&self, count: usize) -> Vec<usize> {
        self.free.iter().take(count).copied().collect()
    }

    /// Grants the `count` lowest free nodes to `job` (possibly fewer if
    /// the cluster is tight). Returns the granted ids, ascending.
    pub(crate) fn grant(&mut self, job: usize, count: usize) -> Vec<usize> {
        let take: Vec<usize> = self.free.iter().take(count).copied().collect();
        for &n in &take {
            self.free.remove(&n);
        }
        self.granted.entry(job).or_default().extend(take.iter().copied());
        take
    }

    /// Returns specific nodes from `job` to the free pool.
    pub(crate) fn release(&mut self, job: usize, nodes: &[usize]) -> Result<(), DirectorError> {
        let owned = self.granted.entry(job).or_default();
        for &n in nodes {
            if !owned.remove(&n) {
                return Err(DirectorError::LedgerCorrupt {
                    detail: format!("job {job} released node {n} it does not hold"),
                });
            }
            self.free.insert(n);
        }
        Ok(())
    }

    /// Releases everything `job` holds (job completion).
    pub(crate) fn release_all(&mut self, job: usize) -> usize {
        let owned = self.granted.remove(&job).unwrap_or_default();
        let count = owned.len();
        self.free.extend(owned);
        count
    }

    /// Takes currently-free nodes out of service (a slab failure).
    /// Granted nodes must have been released by their owners first;
    /// a node that is neither free nor already out is a typed error,
    /// because losing track of it would break conservation.
    pub(crate) fn retire(&mut self, nodes: &[usize]) -> Result<(), DirectorError> {
        for &n in nodes {
            if self.free.remove(&n) {
                self.out.insert(n);
            } else if !self.out.contains(&n) {
                return Err(DirectorError::LedgerCorrupt {
                    detail: format!("cannot retire node {n}: neither free nor out of service"),
                });
            }
        }
        Ok(())
    }

    /// Returns repaired nodes to the free pool, skipping nodes that
    /// are not out of service (an overlapping slab's earlier repair
    /// may already have returned shared nodes — restoring them twice
    /// would free someone's grant). Returns how many were restored.
    pub(crate) fn restore(&mut self, nodes: &[usize]) -> usize {
        let mut restored = 0;
        for &n in nodes {
            if self.out.remove(&n) {
                self.free.insert(n);
                restored += 1;
            }
        }
        restored
    }

    /// Checks node conservation: grants pairwise disjoint, disjoint
    /// from the free pool and the out-of-service set, and every node
    /// accounted for exactly once.
    pub(crate) fn audit(&self) -> Result<(), DirectorError> {
        let mut seen: BTreeSet<usize> = self.free.clone();
        for &n in &self.out {
            if !seen.insert(n) {
                return Err(DirectorError::LedgerCorrupt {
                    detail: format!("node {n} is both free and out of service"),
                });
            }
        }
        for (&job, owned) in &self.granted {
            for &n in owned {
                if n >= self.nodes {
                    return Err(DirectorError::LedgerCorrupt {
                        detail: format!("job {job} holds out-of-range node {n}"),
                    });
                }
                if !seen.insert(n) {
                    return Err(DirectorError::LedgerCorrupt {
                        detail: format!("node {n} is held twice (job {job} overlaps)"),
                    });
                }
            }
        }
        if seen.len() != self.nodes {
            return Err(DirectorError::LedgerCorrupt {
                detail: format!("{} of {} nodes accounted for", seen.len(), self.nodes),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_funds_grant_and_fails_the_rest() {
        let c = CarveOut::new(7, 12, &[100, 101, 102, 103]).unwrap();
        assert_eq!(c.width(), 12);
        assert_eq!(c.live(), 4);
        assert_eq!(c.live_slots(), vec![0, 1, 2, 3]);
        assert_eq!(c.physical_nodes(), vec![100, 101, 102, 103]);
    }

    #[test]
    fn grow_and_shrink_round_trip() {
        let mut c = CarveOut::new(0, 8, &[10, 11]).unwrap();
        let epoch0 = c.topology().epoch();
        let absorbed = c.grow(&[12, 13, 14]).unwrap();
        assert_eq!(absorbed, vec![12, 13, 14]);
        assert_eq!(c.live(), 5);
        assert!(c.topology().epoch() > epoch0, "grow must bump the epoch");
        let released = c.shrink(2).unwrap();
        assert_eq!(released.len(), 2);
        assert_eq!(c.live(), 3);
        // Re-grow after a shrink reuses the freed slots.
        let absorbed = c.grow(&[20]).unwrap();
        assert_eq!(absorbed, vec![20]);
        assert_eq!(c.live(), 4);
    }

    #[test]
    fn grow_past_width_returns_leftovers_to_caller() {
        let mut c = CarveOut::new(0, 3, &[1, 2]).unwrap();
        let absorbed = c.grow(&[3, 4, 5]).unwrap();
        assert_eq!(absorbed, vec![3]);
        assert_eq!(c.live(), 3);
    }

    #[test]
    fn shrink_never_kills_the_last_slot() {
        let mut c = CarveOut::new(0, 4, &[1, 2]).unwrap();
        let released = c.shrink(10).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(c.live(), 1);
        assert_eq!(c.physical_nodes(), vec![1]);
    }

    #[test]
    fn ledger_conserves_nodes() {
        let mut l = ClusterLedger::new(16);
        l.audit().unwrap();
        let a = l.grant(0, 6);
        let b = l.grant(1, 6);
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 6);
        assert_eq!(l.free_count(), 4);
        l.audit().unwrap();
        l.release(0, &a[..2]).unwrap();
        assert_eq!(l.free_count(), 6);
        l.audit().unwrap();
        assert_eq!(l.release_all(1), 6);
        assert_eq!(l.free_count(), 12);
        l.audit().unwrap();
        // Releasing a node a job does not hold is a typed error.
        assert!(l.release(0, &[15]).is_err());
    }

    #[test]
    fn defund_targets_specific_physical_nodes() {
        let mut c = CarveOut::new(0, 8, &[10, 11, 12, 13, 14]).unwrap();
        let released = c.defund_nodes(&[11, 13, 99]).unwrap();
        assert_eq!(released, vec![11, 13]);
        assert_eq!(c.live(), 3);
        assert_eq!(c.physical_nodes(), vec![10, 12, 14]);
        // Defunding the slot-0 master re-elects instead of erroring.
        let released = c.defund_nodes(&[10]).unwrap();
        assert_eq!(released, vec![10]);
        assert_eq!(c.live(), 2);
        // The last survivor is never defunded.
        let released = c.defund_nodes(&[12, 14]).unwrap();
        assert_eq!(released.len(), 1);
        assert_eq!(c.live(), 1);
    }

    #[test]
    fn retire_and_restore_conserve_nodes() {
        let mut l = ClusterLedger::new(8);
        let grant = l.grant(0, 2);
        assert_eq!(grant, vec![0, 1]);
        l.retire(&[2, 3]).unwrap();
        assert_eq!(l.out.len(), 2);
        assert_eq!(l.free_count(), 4);
        l.audit().unwrap();
        // Retiring an already-out node is idempotent; a granted node
        // is a typed error.
        l.retire(&[2]).unwrap();
        assert!(l.retire(&[0]).is_err());
        assert_eq!(l.restore(&[2, 3]), 2);
        assert_eq!(l.out.len(), 0);
        assert_eq!(l.free_count(), 6);
        l.audit().unwrap();
        // Restoring a node that is not out is skipped, not an error:
        // overlapping slab repairs hand back shared nodes only once.
        assert_eq!(l.restore(&[5]), 0);
    }

    #[test]
    fn tight_cluster_grants_partially() {
        let mut l = ClusterLedger::new(4);
        let a = l.grant(0, 3);
        let b = l.grant(1, 3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 1);
        assert_eq!(l.free_count(), 0);
        l.audit().unwrap();
    }
}

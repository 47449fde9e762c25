//! A bounded, shared communication-schedule cache.
//!
//! The engine's per-run cache (`cosmic-runtime`'s `ScheduleCache`) is
//! keyed on (topology epoch, participants) and holds exactly one entry,
//! so a single job can never grow it. A multi-tenant director is a
//! different animal: hundreds of jobs churn their carve-out epochs
//! concurrently, and a shared cache keyed the same way would (a) grow
//! without limit and (b) collide across jobs, because epochs are
//! *per-topology* counters — job A's epoch 3 and job B's epoch 3
//! describe unrelated clusters.
//!
//! [`BoundedScheduleCache`] fixes both. Entries are keyed on what a
//! schedule is actually a function of — the strategy kind, a structural
//! fingerprint of the role table, the participant set, and the model /
//! chunk word sizes — so two jobs whose carves have the same shape share
//! one entry no matter what their epochs say. And the cache is a strict
//! LRU with a hard capacity bound: inserting past capacity evicts the
//! least-recently-used entry, pinned by a regression test.

use std::sync::Arc;

use crate::hash::Fnv1a;
use crate::schedule::{CommSchedule, ScheduleError};
use crate::strategy::{Collective, CollectiveKind};
use crate::topology::{Role, Topology};

/// Cache key: everything a deterministic [`Collective::schedule`] call
/// depends on. Notably *not* the topology epoch — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    kind: CollectiveKind,
    topology: u64,
    participants: Vec<usize>,
    model_words: usize,
    chunk_words: usize,
}

/// Hit/miss/eviction totals for a [`BoundedScheduleCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a schedule.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

/// An LRU cache of built collective schedules with a hard size bound.
///
/// Schedules are returned as [`Arc`]s, so a hit is a refcount bump and
/// eviction never invalidates a schedule a job is still holding.
#[derive(Debug)]
pub struct BoundedScheduleCache {
    capacity: usize,
    /// Most-recently-used first.
    entries: Vec<(CacheKey, Arc<CommSchedule>)>,
    stats: CacheStats,
}

impl BoundedScheduleCache {
    /// Creates a cache holding at most `capacity` schedules (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedScheduleCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Hit/miss/eviction totals so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns the cached schedule for this (strategy, topology shape,
    /// participants, sizes) tuple, building and inserting it on a miss.
    /// A hit moves the entry to the front; an insert past capacity
    /// evicts the least-recently-used entry.
    pub fn get_or_build(
        &mut self,
        strategy: &dyn Collective,
        topology: &Topology,
        participants: &[usize],
        model_words: usize,
        chunk_words: usize,
    ) -> Result<Arc<CommSchedule>, ScheduleError> {
        let key = CacheKey {
            kind: strategy.kind(),
            topology: topology_fingerprint(topology),
            participants: participants.to_vec(),
            model_words,
            chunk_words,
        };
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.stats.hits += 1;
            let entry = self.entries.remove(pos);
            self.entries.insert(0, entry);
            return Ok(Arc::clone(&self.entries[0].1));
        }
        self.stats.misses += 1;
        let built =
            Arc::new(strategy.schedule(topology, participants, model_words, chunk_words)?);
        self.entries.insert(0, (key, Arc::clone(&built)));
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.stats.evictions += 1;
        }
        Ok(built)
    }
}

/// FNV-1a over the structural content of the role table: role tags,
/// group memberships, and the group count. Two topologies with the same
/// fingerprint produce identical schedules from any deterministic
/// strategy, whatever their epochs, because [`Collective::schedule`]
/// reads only the role structure.
pub fn topology_fingerprint(topology: &Topology) -> u64 {
    let mut h = Fnv1a::default();
    let mut eat = |v: u64| h.write_u64(v);
    eat(topology.groups as u64);
    for role in &topology.roles {
        match role {
            Role::Delta { sigma } => {
                eat(1);
                eat(*sigma as u64);
            }
            Role::GroupSigma { members, master } => {
                eat(2);
                eat(members.len() as u64);
                for &m in members {
                    eat(m as u64);
                }
                eat(*master as u64);
            }
            Role::MasterSigma { members, group_sigmas } => {
                eat(3);
                eat(members.len() as u64);
                for &m in members {
                    eat(m as u64);
                }
                eat(group_sigmas.len() as u64);
                for &g in group_sigmas {
                    eat(g as u64);
                }
            }
            Role::Failed => eat(4),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{FlatStar, TwoLevelTree};
    use crate::topology::{assign_roles, default_groups};

    fn topo(nodes: usize) -> Topology {
        assign_roles(nodes, default_groups(nodes)).unwrap()
    }

    fn parts(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn identical_shapes_share_one_entry_across_instances() {
        let mut cache = BoundedScheduleCache::new(8);
        let a = topo(8);
        let b = topo(8); // a distinct instance, same shape
        let s1 = cache.get_or_build(&TwoLevelTree, &a, &parts(8), 64, 16).unwrap();
        let s2 = cache.get_or_build(&TwoLevelTree, &b, &parts(8), 64, 16).unwrap();
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert!(Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn epoch_changes_without_shape_changes_still_hit() {
        // Fail and rejoin the same node: the epoch moves twice but the
        // role table returns to its original shape, so the schedule is
        // reusable and the cache must recognize that.
        let mut cache = BoundedScheduleCache::new(8);
        let a = topo(6);
        let mut b = a.clone();
        b.fail_node(5).unwrap();
        b.rejoin_node(5).unwrap();
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(topology_fingerprint(&a), topology_fingerprint(&b));
        cache.get_or_build(&FlatStar, &a, &parts(6), 32, 8).unwrap();
        cache.get_or_build(&FlatStar, &b, &parts(6), 32, 8).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn different_shapes_participants_and_kinds_miss() {
        let mut cache = BoundedScheduleCache::new(8);
        let a = topo(8);
        let mut shrunk = a.clone();
        shrunk.fail_node(7).unwrap();
        cache.get_or_build(&FlatStar, &a, &parts(8), 64, 16).unwrap();
        cache.get_or_build(&TwoLevelTree, &a, &parts(8), 64, 16).unwrap();
        cache.get_or_build(&FlatStar, &a, &parts(7), 64, 16).unwrap();
        cache.get_or_build(&FlatStar, &shrunk, &parts(7), 64, 16).unwrap();
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.entries.len(), 4);
    }

    /// The regression test pinning the bound (ISSUE 8 satellite): the
    /// cache never exceeds its capacity, evicts strictly LRU, and
    /// counts every eviction.
    #[test]
    fn capacity_bound_is_pinned_and_eviction_is_lru() {
        let mut cache = BoundedScheduleCache::new(3);
        let t = topo(12);
        // Four distinct participant sets: 3..=6 nodes.
        for n in 3..=6 {
            cache.get_or_build(&FlatStar, &t, &parts(n), 64, 16).unwrap();
            assert!(cache.entries.len() <= cache.capacity);
        }
        assert_eq!(cache.entries.len(), 3);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 4, evictions: 1 });

        // parts(3) was least-recently-used and must be gone: a re-lookup
        // misses (and evicts parts(4), now the LRU).
        cache.get_or_build(&FlatStar, &t, &parts(3), 64, 16).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 5, evictions: 2 });

        // Touch parts(5) (a hit), then insert a fresh key: the eviction
        // must take parts(6), not the freshly-touched parts(5).
        cache.get_or_build(&FlatStar, &t, &parts(5), 64, 16).unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache.get_or_build(&FlatStar, &t, &parts(7), 64, 16).unwrap();
        cache.get_or_build(&FlatStar, &t, &parts(5), 64, 16).unwrap();
        assert_eq!(cache.stats().hits, 2, "recently-touched entry was evicted");
        cache.get_or_build(&FlatStar, &t, &parts(6), 64, 16).unwrap();
        assert_eq!(cache.stats().misses, 7, "LRU entry survived eviction");
        assert_eq!(cache.entries.len(), 3);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut cache = BoundedScheduleCache::new(0);
        assert_eq!(cache.capacity, 1);
        let t = topo(4);
        cache.get_or_build(&FlatStar, &t, &parts(4), 16, 8).unwrap();
        cache.get_or_build(&FlatStar, &t, &parts(3), 16, 8).unwrap();
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn cached_schedule_equals_a_fresh_build() {
        let mut cache = BoundedScheduleCache::new(2);
        let t = topo(9);
        let cached = cache.get_or_build(&TwoLevelTree, &t, &parts(9), 128, 32).unwrap();
        let fresh = TwoLevelTree.schedule(&t, &parts(9), 128, 32).unwrap();
        assert_eq!(*cached, fresh);
    }
}

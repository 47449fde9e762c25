//! What a tenant submits: a DSL program, a dataset, and a resource
//! request.

use std::collections::BTreeSet;

use cosmic_ml::Algorithm;
use cosmic_sim::JobArrival;

use crate::error::DirectorError;

/// One job's submission: the workload (a DSL program via its
/// [`Algorithm`]), the dataset size, and the resource envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Dense job id (arrival order).
    pub id: usize,
    /// Display name, `job-<id>`.
    pub name: String,
    /// The workload; its DSL program is `algorithm.dsl_source(..)`.
    pub algorithm: Algorithm,
    /// Dataset size in records.
    pub records: usize,
    /// Global minibatch per aggregation round.
    pub minibatch: usize,
    /// Requested training epochs.
    pub epochs: usize,
    /// Smallest physical grant the job accepts.
    pub min_nodes: usize,
    /// The job's data-parallel logical width (and largest useful
    /// grant). The *math* of the job is fixed at this width; the
    /// director varies only the physical nodes time-sharing it.
    pub max_nodes: usize,
    /// Fairness weight for weighted-share policies.
    pub weight: f64,
    /// Virtual submission time.
    pub arrival_s: f64,
    /// SLA slack factor: the job's deadline is
    /// `arrival_s + sla_factor × ideal_jct`. `None` means no deadline;
    /// the job is never shed by deadline-aware overload control.
    pub sla_factor: Option<f64>,
}

/// The workload table the arrival plan's `family` index maps onto —
/// one representative of each built-in DSL program family.
pub(crate) fn algorithm_for_family(family: usize) -> Algorithm {
    match family % 5 {
        0 => Algorithm::LinearRegression { features: 16 },
        1 => Algorithm::LogisticRegression { features: 16 },
        2 => Algorithm::Svm { features: 12 },
        3 => Algorithm::Backprop { inputs: 8, hidden: 6, outputs: 2 },
        _ => Algorithm::CollabFilter { users: 24, items: 16, factors: 4 },
    }
}

impl JobSpec {
    /// Builds a spec from one entry of a seeded arrival plan.
    pub fn from_arrival(a: &JobArrival) -> JobSpec {
        JobSpec {
            id: a.id,
            name: format!("job-{:03}", a.id),
            algorithm: algorithm_for_family(a.family),
            records: a.records,
            minibatch: a.minibatch,
            epochs: a.epochs,
            min_nodes: a.min_nodes,
            max_nodes: a.max_nodes,
            weight: a.weight,
            arrival_s: a.arrival_s,
            sla_factor: a.sla_factor,
        }
    }

    /// Admission validation: resource bounds must be sane for the
    /// cluster, the work must be non-empty, and the job's DSL program
    /// must parse. No node is committed to a job that fails here.
    pub fn validate(&self, cluster_nodes: usize) -> Result<(), DirectorError> {
        self.validate_with(cluster_nodes, &mut BTreeSet::new())
    }

    /// [`JobSpec::validate`] that parses only a DSL text not in
    /// `parsed`, the texts already seen to parse, and adds it if it does.
    pub(crate) fn validate_with(
        &self,
        cluster_nodes: usize,
        parsed: &mut BTreeSet<String>,
    ) -> Result<(), DirectorError> {
        let reject = |reason: String| Err(DirectorError::InvalidJob { job: self.id, reason });
        if self.min_nodes == 0 {
            return reject("min_nodes must be at least 1".into());
        }
        if self.max_nodes < self.min_nodes {
            return reject(format!(
                "max_nodes {} below min_nodes {}",
                self.max_nodes, self.min_nodes
            ));
        }
        if self.min_nodes > cluster_nodes {
            return reject(format!(
                "min_nodes {} exceeds the {cluster_nodes}-node cluster",
                self.min_nodes
            ));
        }
        if self.records == 0 || self.minibatch == 0 || self.epochs == 0 {
            return reject("records, minibatch, and epochs must be positive".into());
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return reject(format!("weight {} must be finite and positive", self.weight));
        }
        if let Some(f) = self.sla_factor {
            if !(f.is_finite() && f > 0.0) {
                return reject(format!("sla_factor {f} must be finite and positive"));
            }
        }
        let source = self.algorithm.dsl_source(self.minibatch);
        if !parsed.contains(&source) {
            if let Err(e) = cosmic_dsl::parse(&source) {
                return reject(format!("DSL program failed to parse: {e}"));
            }
            parsed.insert(source);
        }
        Ok(())
    }

    /// Aggregation rounds per epoch (ceiling division).
    pub(crate) fn rounds_per_epoch(&self) -> usize {
        self.records.div_ceil(self.minibatch.max(1))
    }

    /// Total aggregation rounds the job must complete.
    pub(crate) fn total_rounds(&self) -> usize {
        self.epochs * self.rounds_per_epoch()
    }

    /// Bytes a node ships per aggregation round (the dense model).
    pub(crate) fn exchange_bytes(&self) -> usize {
        self.algorithm.model_len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_sim::{ArrivalProfile, JobArrivalPlan};

    #[test]
    fn every_family_in_a_seeded_plan_validates() {
        let plan = JobArrivalPlan::random(3, 40, &ArrivalProfile::default());
        for a in &plan.jobs {
            let spec = JobSpec::from_arrival(a);
            spec.validate(1024).unwrap();
            assert!(spec.total_rounds() >= 1);
            assert!(spec.exchange_bytes() > 0);
        }
    }

    /// Admission remembers each distinct program it has seen parse,
    /// and only those.
    #[test]
    fn validation_remembers_the_programs_that_parse() {
        let plan = JobArrivalPlan::random(3, 40, &ArrivalProfile::default());
        let specs: Vec<JobSpec> = plan.jobs.iter().map(JobSpec::from_arrival).collect();
        let texts: BTreeSet<String> =
            specs.iter().map(|s| s.algorithm.dsl_source(s.minibatch)).collect();
        let mut parsed = BTreeSet::new();
        for spec in &specs {
            spec.validate_with(1024, &mut parsed).unwrap();
        }
        assert_eq!(parsed, texts);
        let mut bad = specs[0].clone();
        bad.min_nodes = 0;
        let mut unseen = BTreeSet::new();
        assert!(bad.validate_with(1024, &mut unseen).is_err());
        assert!(unseen.is_empty(), "a job rejected on its bounds never reaches the parser");
    }

    #[test]
    fn bad_bounds_are_rejected() {
        let a = JobArrivalPlan::random(3, 1, &ArrivalProfile::default()).jobs[0].clone();
        let mut spec = JobSpec::from_arrival(&a);
        spec.min_nodes = 0;
        assert!(spec.validate(16).is_err());
        spec.min_nodes = 9;
        spec.max_nodes = 4;
        assert!(spec.validate(16).is_err());
        spec.min_nodes = 32;
        spec.max_nodes = 64;
        assert!(spec.validate(16).is_err());
        spec.min_nodes = 2;
        spec.weight = f64::NAN;
        assert!(spec.validate(16).is_err());
    }
}

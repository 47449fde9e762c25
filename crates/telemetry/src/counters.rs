//! Canonical counter names, so producers and consumers agree on the
//! `metrics.json` vocabulary without stringly-typed drift.

/// Bytes moved over peer links (ring neighbours, halving-doubling
/// partners — collective level 0).
pub const NET_BYTES_PEER: &str = "net.bytes.peer";
/// Bytes received over level-1 links (group members → their Sigma).
pub const NET_BYTES_LEVEL1: &str = "net.bytes.level1";
/// Bytes received over level-2 links (group Sigmas → the master).
pub const NET_BYTES_LEVEL2: &str = "net.bytes.level2";
/// Bytes sent redistributing the updated model.
pub const NET_BYTES_BROADCAST: &str = "net.bytes.broadcast";
/// Bytes moved over PCIe (partial readback + model write).
pub const PCIE_BYTES: &str = "pcie.bytes";

/// Chunks placed on the wire toward an aggregator.
pub const CHUNKS_SENT: &str = "chunks.sent";
/// Dropped chunks recovered by retransmission.
pub const CHUNKS_RETRIED: &str = "chunks.retried";
/// Peer streams quarantined by Sigma-side validation.
pub const CHUNKS_QUARANTINED: &str = "chunks.quarantined";
/// Duplicate chunk deliveries recognized and dropped.
pub const CHUNKS_DUPLICATED: &str = "chunks.duplicated";

/// Completed aggregation iterations.
pub const TRAINER_ITERATIONS: &str = "trainer.iterations";
/// Per-iteration node exclusions (stragglers, undeliverable, panics).
pub const TRAINER_EXCLUSIONS: &str = "trainer.exclusions";
/// Fail-stop node crashes absorbed.
pub const FAULTS_CRASHES: &str = "faults.crashes";
/// Sigma re-elections performed.
pub const FAILOVER_REELECTIONS: &str = "failover.reelections";
/// Communication-schedule rebuilds after topology changes (crashes or
/// per-round participant churn).
pub const COLLECTIVE_REBUILDS: &str = "collective.rebuilds";

/// Crashes scheduled in a fault plan (planned, not necessarily reached
/// by a short run).
pub const FAULTS_PLANNED_CRASHES: &str = "faults.planned.crash";
/// Straggle events scheduled in a fault plan.
pub const FAULTS_PLANNED_STRAGGLES: &str = "faults.planned.straggle";
/// Chunk-drop events scheduled in a fault plan.
pub const FAULTS_PLANNED_DROPS: &str = "faults.planned.drop_chunk";
/// Chunk-corruption events scheduled in a fault plan.
pub const FAULTS_PLANNED_CORRUPTIONS: &str = "faults.planned.corrupt_chunk";
/// Chunk-duplication events scheduled in a fault plan.
pub const FAULTS_PLANNED_DUPLICATES: &str = "faults.planned.duplicate_chunk";
/// Node-rejoin events scheduled in a fault plan.
pub const FAULTS_PLANNED_REJOINS: &str = "faults.planned.rejoin";
/// Network partitions scheduled in a fault plan.
pub const FAULTS_PLANNED_PARTITIONS: &str = "faults.planned.partition";

/// Nodes the failure detector moved to the suspected level (missed
/// heartbeats pushed φ past the suspicion threshold).
pub const MEMBERSHIP_SUSPICIONS: &str = "membership.suspicions";
/// Suspicions later cleared by a delivery from the suspect — the node
/// was alive all along.
pub const MEMBERSHIP_FALSE_SUSPICIONS: &str = "membership.false_suspicions";
/// Suspected nodes reinstated to healthy after delivering again.
pub const MEMBERSHIP_REINSTATEMENTS: &str = "membership.reinstatements";
/// Expelled nodes re-admitted through the rejoin protocol (includes
/// partition-minority nodes re-admitted at heal).
pub const MEMBERSHIP_REJOINS: &str = "membership.rejoins";
/// Bytes shipped to catching-up nodes: checkpoint snapshots plus
/// replayed aggregated deltas.
pub const MEMBERSHIP_CATCHUP_BYTES: &str = "membership.catchup_bytes";
/// Checksummed model snapshots taken on the checkpoint cadence.
pub const MEMBERSHIP_CHECKPOINTS: &str = "membership.checkpoints";
/// Partition heal-and-merge events absorbed.
pub const MEMBERSHIP_PARTITION_HEALS: &str = "membership.partition_heals";

/// Frames placed on the transport wire (chunk, heartbeat, and control
/// frames alike). The sim backend books nothing here, so existing
/// golden exports are unchanged; on a healthy real-wire run sent and
/// received totals must be equal — the socket-level conservation law.
pub const TRANSPORT_FRAMES_SENT: &str = "transport.frames.sent";
/// Frames decoded intact off the transport wire.
pub const TRANSPORT_FRAMES_RECEIVED: &str = "transport.frames.received";
/// Encoded bytes written to transport sockets.
pub const TRANSPORT_BYTES_SENT: &str = "transport.bytes.sent";
/// Encoded bytes of frames decoded intact off transport sockets.
pub const TRANSPORT_BYTES_RECEIVED: &str = "transport.bytes.received";
/// Heartbeat frames observed by the receive side.
pub const TRANSPORT_HEARTBEATS: &str = "transport.heartbeats";
/// Supervised reconnects: a link was re-established after a connect or
/// stream failure (each one implies a round retransmission).
pub const TRANSPORT_RECONNECTS: &str = "transport.reconnects";
/// Connections the round server accepted and got a first stream from.
/// Links persist across rounds, so a healthy run books one per link
/// ever used and each reconnect adds the one that replaced it.
pub const TRANSPORT_CONNECTIONS: &str = "transport.connections";
/// Links declared dead after the supervisor exhausted its retry
/// budget; each flows into the membership fail/rejoin machinery.
pub const TRANSPORT_LINKS_DEAD: &str = "transport.links.dead";

/// Link-sever events scheduled in a fault plan (wire-level).
pub const FAULTS_PLANNED_SEVERS: &str = "faults.planned.sever_link";
/// Frame-corruption events scheduled in a fault plan (wire-level).
pub const FAULTS_PLANNED_FRAME_CORRUPTIONS: &str = "faults.planned.corrupt_frame";
/// Frame-delay events scheduled in a fault plan (wire-level).
pub const FAULTS_PLANNED_DELAYS: &str = "faults.planned.delay_frames";

/// Logical (dense f64) bytes entering the wire codec at the chunking
/// boundary. Booked only when a lossy repr is active — the dense
/// default books nothing, keeping golden exports byte-identical.
pub const CODEC_BYTES_DENSE: &str = "codec.bytes.dense";
/// Encoded bytes leaving the wire codec (the compressed payload).
pub const CODEC_BYTES_WIRE: &str = "codec.bytes.wire";
/// Values saturated (or NaN-zeroed) by fixed-point quantization.
pub const CODEC_VALUES_CLIPPED: &str = "codec.values.clipped";
/// Coordinates left behind by top-k sparsification.
pub const CODEC_COORDS_DROPPED: &str = "codec.coords.dropped";

/// Compute operations in the compiled dataflow graph.
pub const COMPILE_OPS: &str = "compile.ops";
/// Communication edges cut by the mapping (operands off-PE).
pub const COMPILE_REMOTE_EDGES: &str = "compile.remote_edges";
/// Schedule length (latency) in cycles.
pub const COMPILE_SCHEDULE_CYCLES: &str = "compile.schedule_cycles";
/// Interconnect transfers in the schedule.
pub const COMPILE_TRANSFERS: &str = "compile.transfers";
/// Longest per-PE instruction stream (maximum).
pub const COMPILE_MAX_PE_INSTRS: &str = "compile.max_pe_instrs";
/// Model words declared by the lowered program.
pub const COMPILE_MODEL_WORDS: &str = "compile.model_words";
/// Mean compute operations mapped per PE (maximum over compiles).
pub const COMPILE_OPS_PER_PE: &str = "compile.ops_per_pe";
/// PE-utilization sample: ops / (cycles × PEs) (maximum over compiles).
pub const PE_UTILIZATION: &str = "pe.utilization";

/// Jobs submitted to the multi-tenant director.
pub const DIRECTOR_JOBS_SUBMITTED: &str = "director.jobs.submitted";
/// Jobs admitted onto the cluster (granted an initial carve-out).
pub const DIRECTOR_JOBS_ADMITTED: &str = "director.jobs.admitted";
/// Jobs that ran to completion.
pub const DIRECTOR_JOBS_COMPLETED: &str = "director.jobs.completed";
/// Virtual seconds jobs spent queued before admission (summed).
pub const DIRECTOR_QUEUE_WAIT_S: &str = "director.queue_wait_s";
/// Nodes granted to jobs (admission grants plus elastic grows).
pub const DIRECTOR_GRANTS: &str = "director.grants";
/// Nodes preempted from running jobs by elastic shrinks.
pub const DIRECTOR_PREEMPTIONS: &str = "director.preemptions";
/// Elastic reallocation operations (each grow or shrink of one job).
pub const DIRECTOR_REALLOCATIONS: &str = "director.reallocations";
/// Cross-job schedule-cache hits (a carve reused another's schedule).
pub const DIRECTOR_CACHE_HITS: &str = "director.cache.hits";
/// Cross-job schedule-cache misses (a schedule had to be built).
pub const DIRECTOR_CACHE_MISSES: &str = "director.cache.misses";
/// Cross-job schedule-cache evictions forced by the capacity bound.
pub const DIRECTOR_CACHE_EVICTIONS: &str = "director.cache.evictions";
/// Jobs shed by overload control (queue full or deadline unreachable).
pub const DIRECTOR_JOBS_SHED: &str = "director.jobs.shed";
/// Jobs quarantined after exhausting their checkpoint-replay budget.
pub const DIRECTOR_JOBS_QUARANTINED: &str = "director.jobs.quarantined";
/// Whole-job crashes applied from the director fault plan.
pub const DIRECTOR_JOB_CRASHES: &str = "director.faults.job_crashes";
/// Correlated slab failures applied from the director fault plan.
pub const DIRECTOR_SLAB_FAILURES: &str = "director.faults.slab_failures";
/// Slab repairs that returned nodes to service.
pub const DIRECTOR_SLAB_REPAIRS: &str = "director.faults.slab_repairs";
/// Crashed jobs whose checkpoint replay succeeded at re-admission.
pub const DIRECTOR_RESTARTS: &str = "director.restarts";
/// Failed checkpoint-replay attempts by poison jobs.
pub const DIRECTOR_POISON_RETRIES: &str = "director.poison_retries";
/// Records appended to the decision journal.
pub const DIRECTOR_JOURNAL_RECORDS: &str = "director.journal.records";
/// Completed jobs that met their SLA deadline.
pub const DIRECTOR_DEADLINE_HITS: &str = "director.deadline.hits";
/// Completed jobs that finished past their SLA deadline.
pub const DIRECTOR_DEADLINE_MISSES: &str = "director.deadline.misses";
/// Journal records replayed during director recovery (**diagnostic**:
/// depends on where the director was killed, so it is excluded from
/// exports — a recovered run's metrics must stay byte-identical to an
/// unkilled run's).
pub const DIRECTOR_RECOVERY_REPLAYED: &str = "director.recovery.replayed";
/// Torn tail bytes rolled back during director recovery
/// (**diagnostic**, see [`DIRECTOR_RECOVERY_REPLAYED`]).
pub const DIRECTOR_RECOVERY_TORN_BYTES: &str = "director.recovery.torn_bytes";

/// Peer streams staged into Sigma: one per sender per round, on the
/// thread that delivers it. The name predates that design; the count
/// is what the goldens pin.
pub const POOL_JOBS: &str = "pool.jobs";

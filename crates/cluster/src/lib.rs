//! hera-cluster: a simulated fleet of Cell machines behind one front-end.
//!
//! Each fleet member is the full single-machine simulator (a PPE plus
//! `num_spes` SPEs under a per-machine fault plan); the front-end replays
//! a seeded synthetic request trace onto their run queues through a
//! pluggable [`BalancePolicy`]. Everything happens in fleet-virtual time
//! inside a deterministic discrete-event loop, so a whole experiment —
//! traffic, queueing, machine crashes, checkpoint recovery, and
//! snapshot-based live migration — is a pure function of its
//! [`ClusterConfig`] and renders to a byte-identical report on every
//! platform.
//!
//! The headline property is migration correctness: a job moved between
//! machines mid-flight (checkpoint on the source, virtual transfer
//! charged by snapshot size, adoption on the destination) is proven
//! bit-identical to the run that never moved — result, traps, output,
//! and final heap image — and the proof runs inside the experiment for
//! every migration and every crash recovery.

pub mod policy;
pub mod rebal;
pub mod resil;
pub mod traffic;

mod fleet;
mod scope;

pub use fleet::{
    crash_storm, run_chaos_matrix, run_experiment, run_rebal_matrix, ClusterReport, CrashEvent,
    MatrixReport, MatrixRow, MigrationEvent, PolicyOutcome, RebalStats,
};
pub use policy::{BalancePolicy, JoinShortestQueue, LeastLoaded, MachineView, RoundRobin};
pub use rebal::RebalConfig;
pub use resil::{Breaker, BreakerState, ResilConfig};
pub use scope::ScopeOutcome;
pub use traffic::{generate, ArrivalShape, Request};

/// An experiment that could not run (bad config, or a VM error that is a
/// bug rather than a measured outcome). Every runner checks its config
/// before the first VM run. Divergence proofs that *fail* are reported
/// in the report's `failures` ([`ClusterReport::failures`],
/// [`MatrixReport::failures`]), not here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClusterError {
    /// A `ClusterConfig::migrations` entry the event scheduler would
    /// silently mishandle: the machine index is out of range, or the
    /// per-mille point lies beyond the trace span (the migration would
    /// be scheduled after every arrival and look like a silent no-op).
    InvalidMigration {
        /// Index of the offending entry in `ClusterConfig::migrations`.
        index: usize,
        /// The source machine the entry names.
        machine: usize,
        /// The per-mille point the entry names.
        permille: u32,
        /// Fleet size the entry was validated against.
        machines: usize,
    },
    /// `ClusterConfig::mix` does not hold exactly one weight per
    /// workload class: a shorter mix would index past its end, a longer
    /// one would draw classes the fleet has no profile for.
    InvalidMix {
        /// Weights the mix holds.
        len: usize,
        /// Workload classes the fleet runs.
        classes: usize,
    },
    /// Any other invalid configuration, or a VM-level error that is a
    /// bug rather than a measured outcome.
    Config(String),
}

impl ClusterError {
    /// Catch-all constructor for config/VM errors without a typed shape.
    pub(crate) fn msg(s: impl Into<String>) -> Self {
        ClusterError::Config(s.into())
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidMigration {
                index,
                machine,
                permille,
                machines,
            } => write!(
                f,
                "migrations[{index}] = (machine {machine}, {permille}‰) is invalid for a \
                 {machines}-machine fleet (machine must be < {machines}, permille <= 1000)"
            ),
            ClusterError::InvalidMix { len, classes } => write!(
                f,
                "mix has {len} weights; it needs one per workload class ({classes})"
            ),
            ClusterError::Config(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The hardware shape of one fleet member: how many SPEs it has. All
/// other machine parameters (heap, partition, checkpoint cadence) are
/// fleet-wide, so shape is the single axis of heterogeneity — exactly
/// the axis snapshot adoption can bridge (missing SPEs are treated as
/// dead-at-adopt and drained to the PPE).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineShape {
    /// SPEs on this machine (1..=8).
    pub spe_count: u8,
}

/// Everything that defines one fleet experiment.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterConfig {
    /// Master seed: drives the trace, per-machine fault plans, and
    /// therefore the entire simulation.
    pub seed: u64,
    /// Fleet size.
    pub machines: usize,
    /// Requests in the synthetic trace.
    pub requests: u64,
    /// Guest threads per job.
    pub threads: u32,
    /// Workload scale factor (passed to `Workload::build`).
    pub scale: f64,
    /// SPEs per machine.
    pub num_spes: u8,
    /// Heap size per machine. Fleet machines run small heaps: snapshot
    /// capture walks the whole heap image, so this bounds checkpoint and
    /// migration cost (the defaults hold the cluster workloads with
    /// plenty of slack).
    pub heap_bytes: u32,
    /// Inter-arrival distribution.
    pub arrival: ArrivalShape,
    /// Target fleet utilization (1..=100); sets the mean arrival rate
    /// relative to the measured mean service time.
    pub utilization_pct: u32,
    /// Workload-class mix weights (compress, mpegaudio, mandelbrot).
    pub mix: Vec<u32>,
    /// Transient-fault rates `(mfc_transfer, eib_timeout, ls_corruption)`
    /// in ppm, seeded per machine; `None` runs a fault-free fleet.
    pub fault_rates: Option<(u32, u32, u32)>,
    /// Checkpoint interval in VM cycles (feeds crash recovery and
    /// migration; smaller ⇒ less re-execution, more write stalls).
    pub checkpoint_every: u64,
    /// Front-end dispatch overhead per placement, in cycles.
    pub dispatch_cycles: u64,
    /// Fixed latency of a snapshot transfer between machines.
    pub transfer_latency_cycles: u64,
    /// Snapshot bytes moved per virtual cycle during a transfer.
    pub transfer_bytes_per_cycle: u64,
    /// Downtime of a crashed machine before it rejoins the fleet.
    pub recovery_cycles: u64,
    /// Machine crashes as `(machine, permille)`: the crash fires at that
    /// per-mille point of the trace's arrival span.
    pub crashes: Vec<(usize, u32)>,
    /// Live migrations as `(source machine, permille)`, same timescale.
    pub migrations: Vec<(usize, u32)>,
    /// Stragglers as `(machine, slowdown factor, from VM cycle)`: the
    /// machine's fault plan gains `FaultPlan::with_slowdown`, stretching
    /// its service times deterministically.
    pub slowdowns: Vec<(usize, u32, u64)>,
    /// Per-machine queue-depth cap; arrivals that would exceed it are
    /// shed (reported, never silently dropped). The default is high
    /// enough that healthy experiments never touch it — it exists so
    /// overload degrades into measured shed instead of unbounded queues.
    pub queue_cap: usize,
    /// Request-resilience knobs (deadlines, retries, hedging, breakers,
    /// shedding); `None` — the default — disables the whole stack and
    /// adds zero virtual-cycle cost.
    pub resil: Option<resil::ResilConfig>,
    /// hera-scope request tracing: span trees, causal flow arrows, and
    /// fixed-virtual-interval fleet samplers ([`ScopeOutcome`]). Off by
    /// default; observation only — it charges zero virtual cycles and
    /// leaves every rendered report byte-identical.
    pub scope: bool,
    /// Per-machine hardware shapes. Machines beyond the end of this list
    /// (and the whole fleet when it is empty — the default) use
    /// [`ClusterConfig::num_spes`], so existing configs are untouched.
    pub shapes: Vec<MachineShape>,
    /// Proactive-degradation knobs (breaker-triggered drain, sustained
    /// slowdown drain, periodic rebalancing); `None` — the default —
    /// disables the whole layer and adds zero virtual-cycle cost.
    pub rebal: Option<rebal::RebalConfig>,
}

impl ClusterConfig {
    /// SPE count of machine `m`: its [`MachineShape`] when one is
    /// configured, the fleet-wide `num_spes` otherwise.
    pub fn shape_of(&self, m: usize) -> u8 {
        self.shapes.get(m).map_or(self.num_spes, |s| s.spe_count)
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 42,
            machines: 4,
            requests: 2_000,
            threads: 4,
            scale: 0.05,
            num_spes: 6,
            heap_bytes: 2 << 20,
            arrival: ArrivalShape::Exponential,
            utilization_pct: 70,
            mix: vec![1, 1, 1],
            fault_rates: None,
            checkpoint_every: 150_000,
            dispatch_cycles: 2_000,
            transfer_latency_cycles: 5_000,
            transfer_bytes_per_cycle: 16,
            recovery_cycles: 1_000_000,
            crashes: vec![(1, 350)],
            migrations: vec![(0, 600)],
            slowdowns: vec![],
            queue_cap: 1024,
            resil: None,
            scope: false,
            shapes: vec![],
            rebal: None,
        }
    }
}

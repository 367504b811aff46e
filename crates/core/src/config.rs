//! Full-system configuration (Table 2 of the paper).

use tcc_cache::{CacheConfig, MAX_WAYS};
use tcc_engine::WatchdogConfig;
use tcc_network::{ChaosConfig, NetworkConfig, TransportConfig};
use tcc_trace::TraceConfig;
use tcc_types::{NodeId, ProtocolBugs, ProtocolKind};

/// Configuration of the simulated machine and protocol.
///
/// Defaults reproduce Table 2: single-issue cores with CPI 1.0, a
/// 32-KB/4-way/1-cycle L1 and 512-KB/8-way/16-cycle L2 with 32-byte
/// lines, a 2D grid with 4-cycle links, 100-cycle main memory, and a
/// 10-cycle directory cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of processors (= nodes = directories).
    pub n_procs: usize,
    /// Which protocol machine drives the system: Scalable TCC (the
    /// default), the serialized-commit baseline, or the Tardis
    /// timestamp-ordered backend. Selected per run and validated
    /// against the other knobs by [`SystemConfig::validate`].
    pub protocol: ProtocolKind,
    /// OCC condition 1 (§2.1) on the serialized-commit backend: a
    /// transaction acquires the commit token *before* its body runs, so
    /// no two transactions overlap at all. `false` (the default) is
    /// condition 2 — execution overlaps, commits serialize. Only
    /// [`ProtocolKind::SerializedCommit`] has a token to hold;
    /// [`SystemConfig::validate`] refuses the mode elsewhere.
    pub serial_execution: bool,
    /// Private cache hierarchy of each processor.
    pub cache: CacheConfig,
    /// Interconnect parameters (Figure 8 varies `link_latency`).
    pub network: NetworkConfig,
    /// Directory-cache lookup latency for line-state operations
    /// (loads, marks, commits, write-backs), in cycles.
    pub dir_line_latency: u64,
    /// Capacity of each node's directory cache, in entries. Line-state
    /// operations that miss pay an extra main-memory access to fetch
    /// the directory state. `None` models an unbounded cache (Table 3
    /// shows every application's working set "fits comfortably" in a
    /// 2-MB directory cache, so this is the paper-faithful default).
    pub dir_cache_entries: Option<usize>,
    /// Directory latency for control operations that do not touch line
    /// state (skips, probes, aborts, invalidation acks), in cycles.
    pub dir_ctrl_latency: u64,
    /// Main-memory access latency, in cycles.
    pub mem_latency: u64,
    /// Maximum cycles of useful work a processor executes per simulator
    /// event before rescheduling itself; bounds the timing skew between
    /// execution and concurrently-delivered invalidations.
    pub exec_chunk: u64,
    /// After this many consecutive violations of one transaction, it
    /// re-executes with an *early* TID (acquired at restart), making it
    /// the oldest transaction in the system so it cannot be violated
    /// again (§3.3 forward-progress guarantee).
    pub starvation_threshold: u32,
    /// `true`: an owner answering a `DataRequest` keeps a clean copy
    /// (Table 1 `Flush`). `false`: it drops the line (Fig. 2f
    /// write-back-and-invalidate behaviour).
    pub owner_flush_keeps_line: bool,
    /// Record TAPE-style profiling events (violations with their
    /// locations and costs, starvation events); see
    /// [`crate::ProfileReport`].
    pub profile: bool,
    /// Run the serializability checker alongside the simulation
    /// (used pervasively in tests; costs memory proportional to the
    /// committed read/write sets).
    pub check_serializability: bool,
    /// Protocol tracing and metrics collection (`tcc-trace`).
    /// Observation-only: enabling it never changes cycle counts or
    /// checker verdicts. Disabled by default.
    pub trace: TraceConfig,
    /// Adversarial fault injection on the interconnect (`tcc-chaos`).
    /// `None` (the default) is the benign mesh; `Some` attaches a
    /// seeded [`tcc_network::SeededInjector`] that stretches message
    /// latencies deterministically.
    pub chaos: Option<ChaosConfig>,
    /// How same-cycle events are ordered. `None` is the stable FIFO
    /// baseline; `Some(salt)` permutes same-cycle ordering
    /// deterministically (an extra schedule axis for the chaos
    /// explorer).
    pub tie_break_seed: Option<u64>,
    /// Debug-only mutation knobs that disable individual §3.3
    /// race-elimination rules, used by the chaos mutation self-test to
    /// prove the explorer detects seeded protocol bugs. Always
    /// `ProtocolBugs::default()` (all rules enforced) outside that
    /// suite.
    pub bugs: ProtocolBugs,
    /// Safety limit: the simulation stops with
    /// [`crate::RunError::Stalled`] (a panic via [`crate::Simulator::run`])
    /// if the clock exceeds this, which would indicate a protocol
    /// deadlock or livelock.
    pub max_cycles: u64,
    /// Reliable transport over an unreliable wire. `None` (the
    /// default) keeps the mesh's native exactly-once in-order delivery
    /// and is completely untouched on the message path — byte-identical
    /// to pre-transport behavior. `Some` wraps every remote message in
    /// a sequenced [`tcc_types::Frame`] with dedup, reorder windows,
    /// cumulative acks, and timeout-driven retransmission
    /// ([`tcc_network::Transport`]), and is *required* whenever
    /// `chaos` contains drop/dup/reorder wire faults.
    pub transport: Option<TransportConfig>,
    /// Commit-progress watchdog: sample the global progress signature
    /// every `interval` cycles and declare a structured stall after
    /// `grace` unchanged samples. `None` (the default) detects stalls
    /// only via `max_cycles`/deadlock; the watchdog is observation-only
    /// and never perturbs results.
    pub watchdog: Option<WatchdogConfig>,
    /// Accepted and result-neutral: the simulator has one event loop,
    /// and every run uses it whatever this field says (DESIGN.md §11).
    /// The field stays so configs that set it keep building; the
    /// resume digest ignores it, so a snapshot resumes under either
    /// value.
    pub parallel: Option<ParallelConfig>,
}

/// A requested worker count; accepted and ignored (see
/// [`SystemConfig::parallel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads requested. Any value, zero included, runs the
    /// one event loop.
    pub workers: usize,
}

impl ParallelConfig {
    /// A request for `workers` worker threads.
    #[must_use]
    pub fn with_workers(workers: usize) -> ParallelConfig {
        ParallelConfig { workers }
    }
}

/// A rejected [`SystemConfig`] (or builder input), naming the offending
/// field and how to fix it.
///
/// Produced by [`SystemConfig::validate`] and
/// [`crate::SimulatorBuilder::build`]. Every variant carries the same
/// field + problem + hint shape (exposed uniformly through
/// [`ConfigError::field`], [`ConfigError::problem`], and
/// [`ConfigError::hint`]), and the `Display` rendering includes all
/// three parts, so `?`-propagated errors are actionable as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The value is wrong on its own terms (zero bandwidth, degenerate
    /// geometry, ...), independent of the selected protocol backend.
    Invalid {
        /// Dotted path of the offending field (e.g. `"network.bytes_per_cycle"`).
        field: &'static str,
        /// What is wrong with the current value.
        problem: String,
        /// How to fix it.
        hint: &'static str,
    },
    /// The value is coherent but the selected protocol backend cannot
    /// honor it (e.g. TCC-only `ProtocolBugs` knobs under Tardis).
    /// Refused up front instead of silently no-opping.
    UnsupportedByProtocol {
        /// The backend that cannot honor the setting.
        protocol: ProtocolKind,
        /// Dotted path of the offending field.
        field: &'static str,
        /// Why this backend cannot honor the value.
        problem: String,
        /// How to fix it.
        hint: &'static str,
    },
}

impl ConfigError {
    /// A protocol-independent refusal.
    #[must_use]
    pub fn invalid(
        field: &'static str,
        problem: impl Into<String>,
        hint: &'static str,
    ) -> ConfigError {
        ConfigError::Invalid {
            field,
            problem: problem.into(),
            hint,
        }
    }

    /// A refusal specific to the selected protocol backend.
    #[must_use]
    pub fn unsupported(
        protocol: ProtocolKind,
        field: &'static str,
        problem: impl Into<String>,
        hint: &'static str,
    ) -> ConfigError {
        ConfigError::UnsupportedByProtocol {
            protocol,
            field,
            problem: problem.into(),
            hint,
        }
    }

    /// Dotted path of the offending field.
    #[must_use]
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::Invalid { field, .. }
            | ConfigError::UnsupportedByProtocol { field, .. } => field,
        }
    }

    /// What is wrong with the current value.
    #[must_use]
    pub fn problem(&self) -> &str {
        match self {
            ConfigError::Invalid { problem, .. }
            | ConfigError::UnsupportedByProtocol { problem, .. } => problem,
        }
    }

    /// How to fix it.
    #[must_use]
    pub fn hint(&self) -> &'static str {
        match self {
            ConfigError::Invalid { hint, .. } | ConfigError::UnsupportedByProtocol { hint, .. } => {
                hint
            }
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Invalid {
                field,
                problem,
                hint,
            } => {
                write!(f, "invalid config `{field}`: {problem} (fix: {hint})")
            }
            ConfigError::UnsupportedByProtocol {
                protocol,
                field,
                problem,
                hint,
            } => {
                write!(
                    f,
                    "config `{field}` is unsupported by the {protocol} \
                     protocol: {problem} (fix: {hint})"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl SystemConfig {
    /// A configuration for `n_procs` processors with all other
    /// parameters at their Table 2 defaults.
    #[must_use]
    pub fn with_procs(n_procs: usize) -> SystemConfig {
        SystemConfig {
            n_procs,
            ..SystemConfig::default()
        }
    }

    /// The node hosting the global TID vendor.
    #[must_use]
    pub fn vendor_node(&self) -> NodeId {
        NodeId(0)
    }

    /// Checks the configuration for values the machine cannot run with,
    /// centralizing refusals that used to live as scattered asserts in
    /// the constructors. Called by [`crate::Simulator::builder`]; call
    /// it directly to vet externally-sourced configs (e.g. decoded
    /// chaos scenarios) before spending cycles on construction.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field and a fix
    /// hint for: a zero-processor machine, degenerate interconnect
    /// parameters (zero link bandwidth), a zero execution chunk (the
    /// processor could never advance), a zero cycle limit (every run
    /// would be declared stalled at cycle 0), a zero-entry directory
    /// cache (every operation would miss forever), a line geometry
    /// wider than the 64-bit word masks, a cache level with zero or
    /// more than [`MAX_WAYS`] ways or a capacity that is not a nonzero
    /// whole number of sets, and chaos wire faults
    /// (drop/dup/reorder) configured without the reliable transport
    /// that makes lost messages a schedule rather than a different
    /// machine.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_procs == 0 {
            return Err(ConfigError::invalid(
                "n_procs",
                "a machine needs at least one processor",
                "use SystemConfig::with_procs(n) with n >= 1",
            ));
        }
        if self.network.bytes_per_cycle == 0 {
            return Err(ConfigError::invalid(
                "network.bytes_per_cycle",
                "zero link bandwidth: messages would never cross a link",
                "set bytes_per_cycle >= 1 (Table 2 uses 8)",
            ));
        }
        if self.exec_chunk == 0 {
            return Err(ConfigError::invalid(
                "exec_chunk",
                "a processor executing 0 cycles per event never advances",
                "set exec_chunk >= 1 (default 200)",
            ));
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::invalid(
                "max_cycles",
                "every run would be declared stalled at cycle 0",
                "set a generous cycle budget (the default is u64::MAX / 4)",
            ));
        }
        if self.dir_cache_entries == Some(0) {
            return Err(ConfigError::invalid(
                "dir_cache_entries",
                "a zero-entry directory cache misses on every operation",
                "use None for an unbounded cache, or Some(n) with n >= 1",
            ));
        }
        let words = self.cache.geometry.words_per_line();
        if words == 0 || words > 64 {
            return Err(ConfigError::invalid(
                "cache.geometry",
                format!("{words} words per line; word masks are 64-bit"),
                "choose line_bytes/word_bytes with 1..=64 words per line",
            ));
        }
        let line = u64::from(self.cache.geometry.line_bytes());
        let c = &self.cache;
        for (level, (bytes_field, bytes), (ways_field, ways)) in [
            (
                "L1",
                ("cache.l1_bytes", c.l1_bytes),
                ("cache.l1_ways", c.l1_ways),
            ),
            (
                "L2",
                ("cache.l2_bytes", c.l2_bytes),
                ("cache.l2_ways", c.l2_ways),
            ),
        ] {
            if ways == 0 || ways as usize > MAX_WAYS {
                return Err(ConfigError::invalid(
                    ways_field,
                    format!("{level} has {ways} ways"),
                    "choose 1..=255 ways (set lengths are stored as u8)",
                ));
            }
            let set_bytes = line * u64::from(ways);
            if bytes == 0 || u64::from(bytes) % set_bytes != 0 {
                return Err(ConfigError::invalid(
                    bytes_field,
                    format!(
                        "{bytes} bytes is not a nonzero whole number of \
                         {level} sets ({ways} ways x {line}-byte lines)"
                    ),
                    "make the capacity a nonzero multiple of ways x line_bytes",
                ));
            }
        }
        if let Some(wd) = &self.watchdog {
            if wd.interval == 0 {
                return Err(ConfigError::invalid(
                    "watchdog.interval",
                    "a zero-cycle sampling interval would sample the \
                     progress signature after every event",
                    "set interval >= 1 (default 250_000); small intervals \
                     are valid and only cost sampling overhead",
                ));
            }
        }
        if let Some(chaos) = &self.chaos {
            if chaos.has_wire_faults() && self.transport.is_none() {
                return Err(ConfigError::invalid(
                    "transport",
                    "chaos drop/dup/reorder wire faults without a \
                     retransmission layer lose messages outright — that \
                     is a different machine, not a schedule",
                    "set cfg.transport = Some(TransportConfig::default()) \
                     or drop the wire faults from the chaos config",
                ));
            }
        }
        if self.protocol != ProtocolKind::Tcc && self.profile {
            return Err(ConfigError::unsupported(
                self.protocol,
                "profile",
                "TAPE-style profiling hooks (violation sites, \
                 starvation events) live in the TCC processor",
                "set cfg.profile = false, or select ProtocolKind::Tcc",
            ));
        }
        // Each knob declares the backends it applies to (`tcc_types::bugs`).
        if let Some(&knob) = self.bugs.inapplicable_names(self.protocol).first() {
            return Err(ConfigError::unsupported(
                self.protocol,
                ProtocolBugs::config_path(knob).unwrap_or("bugs"),
                format!(
                    "the `{knob}` mutation disables a race-elimination rule \
                     this backend does not have; running it would silently \
                     test nothing"
                ),
                "clear the knob, or select a backend it applies to",
            ));
        }
        if self.serial_execution && self.protocol != ProtocolKind::SerializedCommit {
            return Err(ConfigError::unsupported(
                self.protocol,
                "serial_execution",
                "serial execution (OCC condition 1) holds the serialized \
                 baseline's commit token across the whole transaction; \
                 this backend has no such token",
                "set cfg.serial_execution = false, or select \
                 ProtocolKind::SerializedCommit",
            ));
        }
        if self.protocol == ProtocolKind::SerializedCommit && self.dir_cache_entries.is_some() {
            return Err(ConfigError::unsupported(
                self.protocol,
                "dir_cache_entries",
                "the serialized baseline keeps flat memory at the home \
                 nodes — there is no directory cache to bound",
                "set cfg.dir_cache_entries = None, or select another protocol",
            ));
        }
        Ok(())
    }

    /// Deterministic digest of the whole configuration: FNV-1a over the
    /// `Debug` rendering (every field, including nested chaos/transport/
    /// watchdog/parallel settings, participates in `Debug`). Snapshots
    /// store this in their container header so a checkpoint can never be
    /// silently resumed under a different machine — the config itself is
    /// *not* serialized, it is reconstructed by the resuming caller and
    /// gated by this digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        tcc_types::hash::fnv1a(format!("{self:?}").as_bytes())
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            n_procs: 32,
            protocol: ProtocolKind::Tcc,
            serial_execution: false,
            cache: CacheConfig::default(),
            network: NetworkConfig::default(),
            dir_line_latency: 10,
            dir_cache_entries: None,
            dir_ctrl_latency: 2,
            mem_latency: 100,
            exec_chunk: 200,
            starvation_threshold: 8,
            owner_flush_keeps_line: true,
            profile: false,
            check_serializability: false,
            trace: TraceConfig::default(),
            chaos: None,
            tie_break_seed: None,
            bugs: ProtocolBugs::default(),
            max_cycles: u64::MAX / 4,
            transport: None,
            watchdog: None,
            parallel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let c = SystemConfig::default();
        assert_eq!(c.n_procs, 32);
        assert_eq!(c.mem_latency, 100);
        assert_eq!(c.dir_line_latency, 10);
        assert_eq!(c.network.link_latency, 4);
        assert_eq!(c.cache.l1_bytes, 32 << 10);
        assert_eq!(c.cache.l2_bytes, 512 << 10);
    }

    #[test]
    fn digest_separates_configs_and_is_stable() {
        let a = SystemConfig::with_procs(4);
        let b = SystemConfig::with_procs(4);
        assert_eq!(a.digest(), b.digest());
        let mut c = SystemConfig::with_procs(4);
        c.mem_latency += 1;
        assert_ne!(a.digest(), c.digest());
        let mut d = SystemConfig::with_procs(4);
        d.tie_break_seed = Some(7);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn zero_watchdog_interval_is_refused() {
        let mut c = SystemConfig::with_procs(2);
        c.watchdog = Some(tcc_engine::WatchdogConfig {
            interval: 0,
            grace: 2,
        });
        let err = c.validate().unwrap_err();
        assert_eq!(err.field(), "watchdog.interval");
        c.watchdog = Some(tcc_engine::WatchdogConfig {
            interval: 1,
            grace: 2,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn protocol_incompatible_knobs_are_refused() {
        // `parallel` is accepted for every backend (it is inert).
        let mut c = SystemConfig::with_procs(4);
        c.protocol = ProtocolKind::Tardis;
        c.parallel = Some(ParallelConfig::with_workers(2));
        c.validate().expect("parallel is backend-agnostic");

        // TCC-only ProtocolBugs knobs must not silently no-op.
        let mut c = SystemConfig::with_procs(4);
        c.protocol = ProtocolKind::SerializedCommit;
        c.bugs.skip_ack_wait = true;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field(), "bugs.skip_ack_wait");
        assert!(matches!(err, ConfigError::UnsupportedByProtocol { .. }));

        // Transport knobs are protocol-agnostic and stay allowed.
        let mut c = SystemConfig::with_procs(4);
        c.protocol = ProtocolKind::Tardis;
        c.bugs.transport_no_dedup = true;
        assert!(c.validate().is_ok());

        // The serialized baseline has no directory cache to bound.
        let mut c = SystemConfig::with_procs(4);
        c.protocol = ProtocolKind::SerializedCommit;
        c.dir_cache_entries = Some(1024);
        assert_eq!(c.validate().unwrap_err().field(), "dir_cache_entries");

        // Profiling hooks live in the TCC processor.
        let mut c = SystemConfig::with_procs(4);
        c.protocol = ProtocolKind::Tardis;
        c.profile = true;
        assert_eq!(c.validate().unwrap_err().field(), "profile");
    }

    #[test]
    fn serial_execution_is_refused_off_the_serialized_backend() {
        for protocol in [ProtocolKind::Tcc, ProtocolKind::Tardis] {
            let c = SystemConfig {
                protocol,
                serial_execution: true,
                ..SystemConfig::with_procs(4)
            };
            let err = c.validate().unwrap_err();
            assert_eq!(err.field(), "serial_execution");
            assert!(
                matches!(err, ConfigError::UnsupportedByProtocol { protocol: p, .. } if p == protocol),
                "{err:?}"
            );
        }
        let c = SystemConfig {
            protocol: ProtocolKind::SerializedCommit,
            serial_execution: true,
            ..SystemConfig::with_procs(4)
        };
        c.validate()
            .expect("condition 1 is a serialized-backend mode");
    }

    #[test]
    fn inconsistent_cache_geometry_is_refused_with_its_field() {
        let refused = |edit: fn(&mut SystemConfig)| {
            let mut c = SystemConfig::with_procs(2);
            edit(&mut c);
            c.validate().unwrap_err().field()
        };
        assert_eq!(refused(|c| c.cache.l1_ways = 0), "cache.l1_ways");
        assert_eq!(refused(|c| c.cache.l2_ways = 256), "cache.l2_ways");
        assert_eq!(refused(|c| c.cache.l1_bytes = 1000), "cache.l1_bytes");
        assert_eq!(refused(|c| c.cache.l2_bytes = 0), "cache.l2_bytes");
        // 255 ways of 32-byte lines, one set: the largest associativity.
        let mut c = SystemConfig::with_procs(2);
        c.cache.l2_ways = 255;
        c.cache.l2_bytes = 255 * 32;
        c.validate().expect("255 ways fit the set-length byte");
    }

    #[test]
    fn with_procs_overrides_only_the_count() {
        let c = SystemConfig::with_procs(64);
        assert_eq!(c.n_procs, 64);
        assert_eq!(c.mem_latency, SystemConfig::default().mem_latency);
        assert_eq!(c.vendor_node(), NodeId(0));
    }
}

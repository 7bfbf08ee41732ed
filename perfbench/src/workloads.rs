//! The four workloads: which input, which cluster shape, which runtime.
//! Why each one exists is recorded in `BENCHMARK.json` and README.md.

use cx_core::{BatchTrigger, ClusterConfig, Metarates, MetaratesMix, Protocol, Trace};
use cx_workloads::{TraceBuilder, TraceProfile};

/// Which runtime replays the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The discrete-event simulator (virtual time).
    Des,
    /// In-process loopback TCP; `traced` turns the recording sink and
    /// flush spans on.
    Tcp { traced: bool },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub runtime: Runtime,
    pub servers: u32,
    input: Input,
}

#[derive(Debug, Clone, Copy)]
enum Input {
    /// A trace profile at a fraction of its full op count.
    Trace { profile: &'static str, scale: f64 },
    /// Update-dominated Metarates, one shared directory.
    MetaratesUpdate { ops_per_proc: u32 },
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "des-home2",
        runtime: Runtime::Des,
        servers: 8,
        input: Input::Trace {
            profile: "home2",
            scale: 0.05,
        },
    },
    Workload {
        name: "des-metarates-update",
        runtime: Runtime::Des,
        servers: 32,
        input: Input::MetaratesUpdate { ops_per_proc: 100 },
    },
    // 4 servers, not 8: on two cores, eight server threads measure the
    // scheduler more than the wire plane.
    Workload {
        name: "tcp-home2",
        runtime: Runtime::Tcp { traced: false },
        servers: 4,
        input: Input::Trace {
            profile: "home2",
            scale: 0.02,
        },
    },
    Workload {
        name: "tcp-home2-traced",
        runtime: Runtime::Tcp { traced: true },
        servers: 4,
        input: Input::Trace {
            profile: "home2",
            scale: 0.02,
        },
    },
];

/// Distinct inputs a run cycles through. The virtual-time metrics are the
/// median over them, which keeps a run's figure from hanging on one
/// input's slowest process.
pub const INPUTS_PER_RUN: u64 = 16;

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: spreads (seed, input, stream) into independent seeds.
fn mix(seed: u64, input: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(input.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(stream.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    /// The cluster for input `input` of a run seeded with `seed`.
    pub fn config(&self, seed: u64, input: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.servers, Protocol::Cx);
        cfg.seed = mix(seed, input, 2);
        if let Runtime::Tcp { .. } = self.runtime {
            // The default batch trigger is ~10 virtual seconds, which a
            // wall-clock runtime would serve as a real stall per batch.
            cfg.cx.trigger = BatchTrigger::Timeout {
                period_ns: 5_000_000,
            };
            cfg.cx.hint_mismatch_timeout_ns = 20_000_000;
        }
        cfg
    }

    /// Generate input `input` of a run seeded with `seed`. The same pair
    /// always yields the same trace.
    pub fn generate(&self, cfg: &ClusterConfig, seed: u64, input: u64) -> Trace {
        let trace_seed = mix(seed, input, 1);
        match self.input {
            Input::Trace { profile, scale } => {
                let p = TraceProfile::by_name(profile).expect("built-in trace profile");
                TraceBuilder::new(p).scale(scale).seed(trace_seed).build()
            }
            Input::MetaratesUpdate { ops_per_proc } => {
                let mut m = Metarates::new(MetaratesMix::UpdateDominated, cfg.total_processes())
                    .seed_files(4_000 * cfg.servers)
                    .ops_per_proc(ops_per_proc);
                m.seed = trace_seed;
                m.build()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let w = by_name("des-home2").expect("exists");
        let cfg = w.config(3, 0);
        let a = w.generate(&cfg, 3, 0);
        let b = w.generate(&w.config(3, 0), 3, 0);
        let c = w.generate(&w.config(4, 0), 4, 0);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
        assert_eq!(cfg.seed, w.config(3, 0).seed);
        assert_ne!(cfg.seed, w.config(4, 0).seed);
    }

    #[test]
    fn metarates_seed_reaches_the_generator() {
        let w = by_name("des-metarates-update").expect("exists");
        let a = w.generate(&w.config(1, 0), 1, 0);
        let b = w.generate(&w.config(1, 1), 1, 1);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_ne!(a.ops, b.ops);
    }
}

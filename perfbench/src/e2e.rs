//! The untraced run: end-to-end metrics as a user of the system sees them.
//!
//! A run replays freshly generated inputs back to back for the requested
//! time, each one closed loop (every logical client keeps one op in
//! flight). Input `i` of a run is input `i mod INPUTS_PER_RUN` of its
//! seed, so the first `INPUTS_PER_RUN` replays cover every input and the
//! rest repeat them. Every figure is a median over replays; nothing is a
//! best-of-N.

use crate::replay::{replay, Replay};
use crate::stats::{interpolated_percentile, iqr_share, median, quartiles, ReplayOutcome};
use crate::workloads::{Runtime, Workload, INPUTS_PER_RUN};
use crate::Metric;
use std::time::{Duration, Instant};

/// One end-to-end run's result.
pub struct E2e {
    pub outcomes: Vec<ReplayOutcome>,
    pub metrics: Vec<Metric>,
}

/// The paper's virtual-time figures of one DES replay.
struct Virt {
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

fn virt(r: &Replay) -> Virt {
    Virt {
        ops_per_s: r.stats.throughput(),
        p50_us: interpolated_percentile(&r.stats.latency_hist, 50.0) / 1e3,
        p90_us: interpolated_percentile(&r.stats.latency_hist, 90.0) / 1e3,
        p99_us: interpolated_percentile(&r.stats.latency_hist, 99.0) / 1e3,
    }
}

pub fn run(w: &Workload, seed: u64, seconds: u64) -> E2e {
    let mut outcomes = Vec::new();
    let mut setup_s = Vec::new();
    let mut ops_per_s = Vec::new();
    let mut lat = (Vec::new(), Vec::new());
    let mut virts = Vec::new();

    // One replay of `input`; `None` once a replay failed to return.
    let one = |input: u64, outcomes: &mut Vec<ReplayOutcome>| -> Option<(Replay, f64)> {
        let cfg = w.config(seed, input);
        let t = Instant::now();
        let trace = w.generate(&cfg, seed, input);
        let gen_s = t.elapsed().as_secs_f64();
        match replay(w.runtime, cfg, trace) {
            Ok(r) => {
                outcomes.push(r.outcome);
                Some((r, gen_s))
            }
            Err(o) => {
                outcomes.push(o);
                None
            }
        }
    };

    // The first replay warms caches and the allocator; it is checked but
    // not measured.
    if one(0, &mut outcomes).is_none() {
        return E2e {
            outcomes,
            metrics: Vec::new(),
        };
    }
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while i < INPUTS_PER_RUN || start.elapsed() < budget {
        let input = i % INPUTS_PER_RUN;
        let Some((r, gen_s)) = one(input, &mut outcomes) else {
            break;
        };
        setup_s.push(gen_s + r.marks.pre_issue_s());
        ops_per_s.push(r.stats.ops_total as f64 / r.marks.run_s());
        if let Some(t) = &r.tcp {
            lat.0.push(t.lat_us.0);
            lat.1.push(t.lat_us.1);
        }
        if i < INPUTS_PER_RUN && w.runtime == Runtime::Des {
            virts.push(virt(&r));
        }
        eprintln!(
            "replay {i:>3} input {input}: {} ops in {:.3}s = {:.0} ops/s, setup {:.4}s{}",
            r.stats.ops_total,
            r.marks.run_s(),
            r.stats.ops_total as f64 / r.marks.run_s(),
            gen_s + r.marks.pre_issue_s(),
            match w.runtime {
                Runtime::Des => format!(", digest {}", r.stats.digest()),
                Runtime::Tcp { .. } => String::new(),
            }
        );
        i += 1;
    }
    if ops_per_s.is_empty() {
        return E2e {
            outcomes,
            metrics: Vec::new(),
        };
    }

    // The TCP runtime has no virtual clock: its virtual-time figures are
    // those of the DES replaying the same inputs on the same cluster.
    if let Runtime::Tcp { .. } = w.runtime {
        for input in 0..INPUTS_PER_RUN {
            let cfg = w.config(seed, input);
            let trace = w.generate(&cfg, seed, input);
            match replay(Runtime::Des, cfg, trace) {
                Ok(r) => {
                    outcomes.push(r.outcome);
                    virts.push(virt(&r));
                }
                Err(o) => {
                    outcomes.push(o);
                    return E2e {
                        outcomes,
                        metrics: Vec::new(),
                    };
                }
            }
        }
    }

    let med = |v: &[f64]| median(v).expect("at least one measured replay");
    let virt_of = |f: fn(&Virt) -> f64| med(&virts.iter().map(f).collect::<Vec<_>>());
    let virt_p50 = virt_of(|v| v.p50_us);
    // On the DES the client's clock is the virtual one. The wall-clock
    // tail is p90, not p99: on two shared cores p99 is set by preemption
    // of whichever thread holds a lock, and across ten runs of
    // tcp-home2-traced it spread by half its median.
    let (lat_p50, lat_p90) = match w.runtime {
        Runtime::Des => (virt_p50, virt_of(|v| v.p90_us)),
        Runtime::Tcp { .. } => (med(&lat.0), med(&lat.1)),
    };
    for (name, v) in [("ops_per_s", &ops_per_s), ("setup_s", &setup_s)] {
        if let (Some((q1, q3)), Some(spread)) = (quartiles(v), iqr_share(v)) {
            eprintln!(
                "{name}: {} replays, quartiles {q1:.6} .. {q3:.6}, spread {spread:.4}",
                v.len()
            );
        }
    }
    let metrics = vec![
        Metric::new("ops_per_s", med(&ops_per_s), "1/s"),
        Metric::new("lat_p50_us", lat_p50, "us"),
        Metric::new("lat_p90_us", lat_p90, "us"),
        Metric::new("virt_ops_per_s", virt_of(|v| v.ops_per_s), "1/s"),
        Metric::new("virt_lat_p50_us", virt_p50, "us"),
        Metric::new("virt_lat_p99_us", virt_of(|v| v.p99_us), "us"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", med(&setup_s), "s"),
    ];
    E2e { outcomes, metrics }
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! One module per table/figure of the paper's evaluation.

pub mod chaos;
pub mod commfast;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod query;
mod ranks;
pub mod recover;
pub mod serve;
pub mod soak;
pub mod table3;
pub mod table4;
pub mod telemetry;
pub mod verify;
pub mod wire;
pub mod wire_recover;

use crate::datasets::Scale;

/// One selectable `repro` experiment: its CLI name and a one-line
/// description for `repro --help` / the unknown-subcommand listing.
pub struct ExperimentInfo {
    pub name: &'static str,
    pub desc: &'static str,
}

/// Every experiment the `repro` binary can run, in help order. The
/// binary gates its dispatch on membership here, so a registry entry
/// without a dispatch arm fails loudly instead of silently no-opping.
pub const EXPERIMENTS: &[ExperimentInfo] = &[
    ExperimentInfo {
        name: "table3",
        desc: "per-algorithm runtimes vs the paper's Table 3 systems comparison",
    },
    ExperimentInfo {
        name: "table4",
        desc: "dataset sizes and per-system loading time (Table 4)",
    },
    ExperimentInfo {
        name: "fig3",
        desc: "relative performance, normalized to GraphLab on two machines (Figure 3)",
    },
    ExperimentInfo {
        name: "fig4",
        desc: "PageRank (exact) on the uniform random graph vs TWT (Figure 4)",
    },
    ExperimentInfo {
        name: "fig5",
        desc: "single-machine edge-iteration speed and barrier latency (Figure 5)",
    },
    ExperimentInfo {
        name: "fig6",
        desc: "ghost-node sweep, edge vs vertex partitioning, time breakdown (Figure 6)",
    },
    ExperimentInfo {
        name: "fig7",
        desc: "worker x copier thread-count grid (Figure 7)",
    },
    ExperimentInfo {
        name: "fig8",
        desc: "remote-read bandwidth and bandwidth vs message buffer size (Figure 8)",
    },
    ExperimentInfo {
        name: "chaos",
        desc: "fault-injection sweep: drops, dups, delays, machine loss",
    },
    ExperimentInfo {
        name: "commfast",
        desc: "communication fast-path acceptance: read combining off vs on",
    },
    ExperimentInfo {
        name: "query",
        desc: "declarative query acceptance: optimizer decisions, golden equivalence (--quick)",
    },
    ExperimentInfo {
        name: "recover",
        desc: "checkpoint/restore and automatic job recovery acceptance",
    },
    ExperimentInfo {
        name: "serve",
        desc: "job-server acceptance: lanes, sessions, cancel, deadlines, admission",
    },
    ExperimentInfo {
        name: "soak",
        desc:
            "whole-stack chaos soak: brownout, retry budgets, quarantine, storage faults (--quick)",
    },
    ExperimentInfo {
        name: "telemetry",
        desc: "instrumented PageRank demo: Chrome trace + metrics report",
    },
    ExperimentInfo {
        name: "verify",
        desc: "cross-checks engine results against reference implementations",
    },
    ExperimentInfo {
        name: "wire",
        desc: "multi-process TCP cluster acceptance: pgxd-node ranks vs in-memory (--quick)",
    },
    ExperimentInfo {
        name: "wire-recover",
        desc: "real-wire fault tolerance: socket faults, SIGKILL + collective recovery (--quick)",
    },
];

/// Machine counts swept by the distributed experiments. The paper goes to
/// 32 physical machines; the simulation sweeps fewer since all simulated
/// machines share one host.
pub fn machine_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![2, 4],
        Scale::Full => vec![2, 4, 8],
    }
}

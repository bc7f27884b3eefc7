//! One module per table/figure of the paper's evaluation, plus the
//! instrumented demo, the shape checks and the two multi-process drills.

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
mod ranks;
pub mod table3;
pub mod table4;
pub mod telemetry;
pub mod verify;
pub mod wire;
pub mod wire_recover;

use crate::datasets::Scale;
use crate::report::{emit, results_dir};
use std::path::PathBuf;

/// What the `repro` command line selected, handed to every experiment.
pub struct RunArgs {
    pub scale: Scale,
    /// `-v`: per-run progress on stderr.
    pub verbose: bool,
    /// `--quick`: shrink the sweeps that take it, for CI.
    pub quick: bool,
    /// `--telemetry DIR` operand, if given.
    pub telemetry_dir: Option<PathBuf>,
}

/// One selectable `repro` experiment: its CLI name, a one-line
/// description for `repro --help` / the unknown-subcommand listing, and
/// the function that runs it and emits its tables.
pub struct ExperimentInfo {
    pub name: &'static str,
    pub desc: &'static str,
    pub run: fn(&RunArgs),
}

/// Every experiment the `repro` binary can run, in help order: registry
/// and dispatch are this one table.
pub const EXPERIMENTS: &[ExperimentInfo] = &[
    ExperimentInfo {
        name: "table3",
        desc: "per-algorithm runtimes vs the paper's Table 3 systems comparison",
        run: |a| emit(&table3::run_experiment(a.scale, a.verbose), "table3"),
    },
    ExperimentInfo {
        name: "table4",
        desc: "dataset sizes and per-system loading time (Table 4)",
        run: |a| emit(&[table4::run_experiment(a.scale)], "table4"),
    },
    ExperimentInfo {
        name: "fig3",
        desc: "relative performance, normalized to GraphLab on two machines (Figure 3)",
        run: |a| emit(&fig3::run_experiment(a.scale, a.verbose), "fig3"),
    },
    ExperimentInfo {
        name: "fig4",
        desc: "PageRank (exact) on the uniform random graph vs TWT (Figure 4)",
        run: |a| emit(&fig4::run_experiment(a.scale, a.verbose), "fig4"),
    },
    ExperimentInfo {
        name: "fig5",
        desc: "single-machine edge-iteration speed and barrier latency (Figure 5)",
        run: |a| {
            emit(&[fig5::run_fig5a(a.scale)], "fig5a");
            emit(&[fig5::run_fig5b()], "fig5b");
        },
    },
    ExperimentInfo {
        name: "fig6",
        desc: "ghost-node sweep, edge vs vertex partitioning, time breakdown (Figure 6)",
        run: |a| {
            emit(&[fig6::run_fig6a(a.scale, 4)], "fig6a");
            emit(&[fig6::run_fig6b(a.scale)], "fig6b");
            emit(&[fig6::run_fig6c(a.scale, 2)], "fig6c");
        },
    },
    ExperimentInfo {
        name: "fig7",
        desc: "worker x copier thread-count grid (Figure 7)",
        run: |a| emit(&[fig7::run_experiment(a.scale, 2)], "fig7"),
    },
    ExperimentInfo {
        name: "fig8",
        desc: "remote-read bandwidth and bandwidth vs message buffer size (Figure 8)",
        run: |_| {
            emit(&[fig8::run_fig8a()], "fig8a");
            emit(&[fig8::run_fig8b()], "fig8b");
        },
    },
    ExperimentInfo {
        name: "telemetry",
        desc: "instrumented PageRank demo: Chrome trace + metrics report",
        run: |a| {
            let dir = a
                .telemetry_dir
                .clone()
                .unwrap_or_else(|| results_dir().join("telemetry"));
            emit(&telemetry::run_experiment(a.scale, &dir), "telemetry");
        },
    },
    ExperimentInfo {
        name: "verify",
        desc: "asserts the paper's qualitative result shapes, PASS/FAIL per claim",
        run: |a| {
            let (text, all) = verify::report(&verify::run_checks(a.scale));
            println!("{text}");
            if !all {
                std::process::exit(1);
            }
        },
    },
    ExperimentInfo {
        name: "wire",
        desc: "multi-process TCP cluster acceptance: pgxd-node ranks vs in-memory (--quick)",
        run: |a| emit(&[wire::run_experiment(a.scale, a.quick)], "wire"),
    },
    ExperimentInfo {
        name: "wire-recover",
        desc: "real-wire fault tolerance: socket faults, SIGKILL + collective recovery (--quick)",
        run: |a| {
            emit(
                &[wire_recover::run_experiment(a.scale, a.quick)],
                "wire_recover",
            )
        },
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

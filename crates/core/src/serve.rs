//! The job-server facade: PGX.D as a multi-tenant service.
//!
//! PGX.D is deployed as a *server*: one expensively-loaded graph is
//! shared by many clients, each submitting analytics jobs. This module
//! glues the generic serving layer (`pgxd-sched`) onto the real
//! [`Engine`]:
//!
//! ```
//! use pgxd::serve::{Lane, ServeEngine};
//! use pgxd::BuildEngine;
//! use pgxd_graph::generate;
//!
//! let g = generate::ring(32);
//! let engine = pgxd::Engine::builder().machines(2).engine(&g).unwrap();
//! let server = engine.into_server();
//!
//! let session = server.session("alice");
//! let degrees = session
//!     .submit(Lane::Interactive, 1, |engine, _cancel| {
//!         let d = engine.add_prop("deg", 0i64);
//!         engine.try_run_edge_job(
//!             pgxd::Dir::Out,
//!             &pgxd::JobSpec::new().reduce(d, pgxd::ReduceOp::Sum),
//!             pgxd::tasks::on_edge(move |ctx| {
//!                 ctx.write_nbr(d, pgxd::ReduceOp::Sum, 1i64)
//!             }),
//!         )?;
//!         Ok(engine.gather::<i64>(d))
//!     })
//!     .unwrap();
//! assert_eq!(degrees.join().unwrap(), vec![1i64; 32]);
//!
//! drop(session); // reclaims the session's property columns
//! let engine = server.shutdown();
//! # let _ = engine;
//! ```
//!
//! The [`ServeEngine`] impl below answers the three questions the server
//! asks of an engine: *how big is a job* (admission estimates from the
//! cluster's dimensions), *which columns exist* (session-namespace
//! attribution by diffing live property ids around each job), and *where
//! do serving metrics go* (machine 0's telemetry registry).

use crate::Engine;
use pgxd_runtime::props::PropId;
use pgxd_runtime::telemetry::Telemetry;
use std::sync::Arc;

pub use pgxd_runtime::cancel::{CancelReason, CancelToken};
pub use pgxd_runtime::config::{ServeConfig, StorageFaultPlan};
pub use pgxd_sched::{
    estimate_bytes, JobCtx, JobExec, JobHandle, JobMeta, JobOutcome, JobReport, JobServer, Lane,
    MemProfile, PhaseSpan, RetryBudget, Scheduler, ServeEngine, Session,
};

impl ServeEngine for Engine {
    fn mem_profile(&self) -> MemProfile {
        let cluster = self.cluster();
        let config = cluster.config();
        MemProfile {
            nodes: cluster.num_nodes(),
            machines: cluster.machines().len(),
            ghosts: cluster
                .machines()
                .iter()
                .map(|m| m.graph.num_ghosts())
                .max()
                .unwrap_or(0),
            send_buffers_per_machine: config.send_buffers_per_machine,
            buffer_bytes: config.buffer_bytes,
            live_props: cluster.machines()[0].props.live().len(),
            recovery_enabled: config.recovery.enabled,
        }
    }

    fn live_prop_ids(&self) -> Vec<PropId> {
        // Property ids are assigned cluster-wide, so machine 0's table is
        // authoritative.
        self.cluster().machines()[0]
            .props
            .live()
            .iter()
            .map(|(id, _)| *id)
            .collect()
    }

    fn reclaim_prop(&mut self, id: PropId) {
        self.cluster_mut().drop_prop(id);
    }

    fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.cluster().telemetries()[0])
    }

    fn begin_job(&mut self, ctx: JobCtx, enqueue_ns: u64) {
        self.begin_job_window(ctx, enqueue_ns);
    }

    fn end_job(&mut self, outcome: JobOutcome) -> Option<JobExec> {
        self.end_job_window(outcome)
    }
}

impl Engine {
    /// Consumes the engine and starts a [`JobServer`] over it, configured
    /// from the engine's own `serve` config section (see the
    /// `.queue_depth` / `.memory_budget` / `.lane_weights` / `.brownout` /
    /// `.retry_budget` builder knobs).
    pub fn into_server(self) -> JobServer<Engine> {
        let config = self.cluster().config().serve;
        JobServer::start(self, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildEngine;
    use crate::{Dir, Engine, JobSpec, ReduceOp};
    use pgxd_graph::generate;
    use pgxd_runtime::health::JobError;

    #[test]
    fn engine_profile_reflects_cluster() {
        let g = generate::ring(24);
        let mut e = Engine::builder().machines(3).engine(&g).unwrap();
        let before = e.mem_profile();
        assert_eq!(before.nodes, 24);
        assert_eq!(before.machines, 3);
        let p = e.add_prop("x", 0i64);
        assert_eq!(e.mem_profile().live_props, before.live_props + 1);
        assert!(e.live_prop_ids().contains(&p.id));
        e.reclaim_prop(p.id);
        assert_eq!(e.mem_profile().live_props, before.live_props);
    }

    #[test]
    fn served_job_matches_direct_run() {
        let g = generate::ring(16);
        let mut direct = Engine::builder().machines(2).engine(&g).unwrap();
        let d = direct.add_prop("deg", 0i64);
        direct
            .try_run_edge_job(
                Dir::Out,
                &JobSpec::new().reduce(d, ReduceOp::Sum),
                crate::tasks::on_edge(move |ctx| ctx.write_nbr(d, ReduceOp::Sum, 1i64)),
            )
            .unwrap();
        let expect = direct.gather::<i64>(d);

        let server = Engine::builder()
            .machines(2)
            .engine(&g)
            .unwrap()
            .into_server();
        let session = server.session("t");
        let got = session
            .submit(Lane::Interactive, 1, |engine: &mut Engine, cancel| {
                let d = engine.add_prop("deg", 0i64);
                engine.try_run_edge_job_with(
                    Dir::Out,
                    &JobSpec::new().reduce(d, ReduceOp::Sum),
                    crate::tasks::on_edge(move |ctx| ctx.write_nbr(d, ReduceOp::Sum, 1i64)),
                    cancel,
                )?;
                Ok(engine.gather::<i64>(d))
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(got, expect);
        drop(session);
        server.shutdown();
    }

    #[test]
    fn session_columns_are_reclaimed_on_close() {
        let g = generate::ring(12);
        let server = Engine::builder()
            .machines(2)
            .engine(&g)
            .unwrap()
            .into_server();
        let mut s = server.session("tenant");
        s.submit(Lane::Batch, 1, |engine: &mut Engine, _| {
            let _p = engine.add_prop("scratch", 0.0f64);
            Ok(())
        })
        .unwrap()
        .join()
        .unwrap();
        s.close();
        let engine = server.shutdown();
        assert_eq!(
            engine.live_prop_ids().len(),
            0,
            "closed session's columns must be gone"
        );
    }

    /// A long-lived server must not grow per job: with telemetry off
    /// nothing reads job spans or phase labels, so none are retained.
    #[test]
    fn telemetry_off_server_retains_nothing_per_job() {
        let g = generate::ring(12);
        let server = Engine::builder()
            .machines(2)
            .engine(&g)
            .unwrap()
            .into_server();
        let session = server.session("t");
        for _ in 0..10_000 {
            session
                .submit(Lane::Interactive, 0, |engine: &mut Engine, _| {
                    engine.try_run_node_job(&JobSpec::new(), crate::tasks::on_node(|_| {}))
                })
                .unwrap()
                .join()
                .unwrap();
        }
        drop(session);
        let engine = server.shutdown();
        assert_eq!(engine.cluster().job_spans().len(), 0);
        assert_eq!(engine.cluster().phase_labels().len(), 0);
    }

    #[test]
    fn undersized_budget_denies_before_touching_cluster() {
        let g = generate::ring(12);
        let server = Engine::builder()
            .machines(2)
            .memory_budget(1)
            .engine(&g)
            .unwrap()
            .into_server();
        let session = server.session("t");
        let err = session
            .submit(Lane::Interactive, 2, |_: &mut Engine, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, JobError::AdmissionDenied { .. }));
        drop(session);
        server.shutdown();
    }
}

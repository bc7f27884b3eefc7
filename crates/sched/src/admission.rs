//! Admission control: a conservative per-job memory estimate checked
//! against a configured budget before the job may touch the cluster.
//!
//! The estimate covers the three allocations a job can force:
//!
//! 1. **Property columns** — every column holds 8-byte cells for each
//!    machine's local vertices *plus* its mirror slots, so one column costs
//!    at most `8 × (nodes + machines × ghosts)` bytes cluster-wide. The estimate
//!    charges the job for the columns already live (they stay resident
//!    while it runs) plus the columns it declares it will create.
//! 2. **Send-buffer pool share** — each machine's pool may hand out up to
//!    `send_buffers_per_machine` buffers of `buffer_bytes` each.
//! 3. **Checkpoint overhead** — with recovery enabled, a barrier
//!    checkpoint copies every column once more.
//!
//! The estimate is deliberately pessimistic: rejecting a job is cheap and
//! structured ([`JobError::AdmissionDenied`] carries the estimate), while
//! letting an oversized job OOM a shared server kills every session.
//!
//! [`JobError::AdmissionDenied`]: pgxd_runtime::health::JobError::AdmissionDenied

/// Memory-relevant dimensions of a loaded cluster.
#[derive(Clone, Copy, Debug)]
pub struct MemProfile {
    /// Total vertices across machines.
    pub nodes: usize,
    /// Machines in the cluster.
    pub machines: usize,
    /// The most mirror slots any machine appends to its columns.
    pub ghosts: usize,
    /// Send-buffer quota per machine.
    pub send_buffers_per_machine: usize,
    /// Bytes per send buffer.
    pub buffer_bytes: usize,
    /// Property columns currently live.
    pub live_props: usize,
    /// Whether barrier checkpoints (one extra copy of every column) are
    /// enabled.
    pub recovery_enabled: bool,
}

impl MemProfile {
    /// Cluster-wide bytes of one property column.
    pub fn column_bytes(&self) -> u64 {
        8 * (self.nodes as u64 + self.machines as u64 * self.ghosts as u64)
    }
}

/// Bytes a job that creates `new_props` property columns is charged for
/// under `profile`. See the module docs for the three components.
pub fn estimate_bytes(profile: &MemProfile, new_props: usize) -> u64 {
    let columns = (profile.live_props as u64 + new_props as u64) * profile.column_bytes();
    let buffers = profile.machines as u64
        * profile.send_buffers_per_machine as u64
        * profile.buffer_bytes as u64;
    let checkpoints = if profile.recovery_enabled { columns } else { 0 };
    columns + buffers + checkpoints
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> MemProfile {
        MemProfile {
            nodes: 1000,
            machines: 4,
            ghosts: 50,
            send_buffers_per_machine: 16,
            buffer_bytes: 4096,
            live_props: 0,
            recovery_enabled: false,
        }
    }

    #[test]
    fn column_counts_locals_and_ghosts() {
        // 1000 locals + 4 machines × 50 ghost slots = 1200 cells × 8 B.
        assert_eq!(profile().column_bytes(), 9600);
    }

    #[test]
    fn estimate_scales_with_props() {
        let p = profile();
        let base = estimate_bytes(&p, 0);
        assert_eq!(base, 4 * 16 * 4096, "no columns → buffer share only");
        assert_eq!(estimate_bytes(&p, 2) - base, 2 * p.column_bytes());
    }

    #[test]
    fn live_columns_are_charged() {
        let mut p = profile();
        let fresh = estimate_bytes(&p, 1);
        p.live_props = 3;
        assert_eq!(estimate_bytes(&p, 1) - fresh, 3 * p.column_bytes());
    }

    #[test]
    fn recovery_doubles_column_cost() {
        let mut p = profile();
        let plain = estimate_bytes(&p, 2);
        p.recovery_enabled = true;
        assert_eq!(estimate_bytes(&p, 2) - plain, 2 * p.column_bytes());
    }
}

//! Driving one experiment with `step_tick`/`drained()` and checking what it
//! produced: a digest of the result, job accounting, and the counters the
//! per-layer report prints.

use crate::workloads::{End, Workload};
use perfcloud_cluster::{mean_efficiency, Experiment};
use perfcloud_frameworks::job::JobStatus;
use perfcloud_sim::SimTime;

/// The seed whose result digests are committed below.
pub const DEFAULT_SEED: u64 = 1;

/// Result digests of each mix at [`DEFAULT_SEED`]. A change that alters any
/// job's JCT bits, any antagonist counter, the ingest tallies, the
/// migration count or the teed sample count changes the digest.
const DIGESTS: [(Workload, &[u64]); 3] = [
    (
        Workload::PaperMix,
        &[
            0xa054_09d6_71b7_ac80,
            0xf483_66f6_3803_21aa,
            0x5672_9c74_617f_a4c9,
            0x92a3_8aa2_acc4_64ae,
            0x5bc1_4da6_47b1_1e9e,
            0x93a2_d251_43e4_8b06,
            0xa79d_ecfa_9245_1741,
            0xf250_3bee_5bb1_9d8c,
            0x9a14_176e_3235_ffda,
            0x6ddb_815a_8731_6dba,
        ],
    ),
    (Workload::PipelineDense, &[0x3998_1683_41cd_43fc, 0xc803_a6c1_2ec7_3064]),
    (Workload::Warehouse, &[0x1374_726d_7612_b550, 0x0fdc_e0d9_384f_cb70]),
];

/// The committed digest of mix `mix` at [`DEFAULT_SEED`], if there is one.
pub fn committed_digest(workload: Workload, mix: usize) -> Option<u64> {
    DIGESTS.iter().find(|(w, _)| *w == workload).and_then(|(_, d)| d.get(mix).copied())
}

/// True once the workload's end condition holds.
pub fn finished(workload: Workload, e: &Experiment) -> bool {
    match workload.end() {
        End::Drain(wall) => e.drained() || e.now() >= wall,
        End::Horizon(h) => e.now() >= h,
    }
}

/// Counters read from the experiment's public accessors after a run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub ticks: u64,
    pub vms: u64,
    pub ingest_recorded: f64,
    pub ingest_rejected: f64,
    pub net_sent: f64,
    pub net_delivered: f64,
    pub migrations_started: u64,
    pub teed_samples: f64,
    pub efficiency: f64,
    pub jobs_completed: usize,
}

/// What one run of a workload produced.
#[derive(Debug, Clone)]
pub struct Checked {
    pub digest: u64,
    /// Jobs the run was responsible for.
    pub attempted: u64,
    /// Of those, jobs that did not complete (drained workloads) or that are
    /// neither completed nor running (fixed-horizon workloads).
    pub failed: u64,
    /// Mean JCT of the completed high-priority jobs, simulated seconds.
    pub jct_mean_s: f64,
    pub counts: Counts,
}

/// Checks a finished run and digests its result.
pub fn check(workload: Workload, arrivals: &[SimTime], e: &Experiment) -> Checked {
    let result = e.result();
    let snapshot = e.metrics_snapshot();
    let metric = |name: &str| snapshot.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
    let migrations_started = e.placement().map_or(0, |p| p.migrations_started());
    let teed_samples = metric("telemetry_teed_samples");

    let mut h = Fnv::new();
    h.u64(e.ticks_stepped());
    h.u64(result.outcomes.len() as u64);
    for o in &result.outcomes {
        h.u64(o.jct.to_bits());
    }
    h.u64(result.antagonists.len() as u64);
    for a in &result.antagonists {
        for v in [a.io_ops, a.io_bytes, a.instructions, a.cpu_time] {
            h.u64(v.to_bits());
        }
    }
    let i = &result.ingest;
    for v in [i.baselines, i.recorded, i.stale, i.duplicates, i.regressions] {
        h.u64(v);
    }
    h.u64(migrations_started);
    h.u64(teed_samples as u64);

    let completed = result.outcomes.len() as u64;
    let (attempted, failed) = match workload.end() {
        End::Drain(_) => {
            let jobs = arrivals.len() as u64;
            (jobs, jobs.saturating_sub(completed))
        }
        End::Horizon(_) => {
            let submitted = arrivals.iter().filter(|t| **t <= e.now()).count() as u64;
            let running = e
                .scheduler
                .job_ids()
                .into_iter()
                .filter(|id| e.scheduler.job(*id).is_some_and(|j| j.status == JobStatus::Running))
                .count() as u64;
            (submitted, submitted.saturating_sub(completed + running))
        }
    };
    let jct_mean_s = if result.outcomes.is_empty() {
        0.0
    } else {
        result.outcomes.iter().map(|o| o.jct).sum::<f64>() / result.outcomes.len() as f64
    };
    let counts = Counts {
        ticks: e.ticks_stepped(),
        vms: e.servers.iter().map(|s| s.vm_ids().len() as u64).sum(),
        ingest_recorded: metric("ingest_recorded"),
        ingest_rejected: metric("ingest_rejected"),
        net_sent: metric("net_sent"),
        net_delivered: metric("net_delivered"),
        migrations_started,
        teed_samples,
        efficiency: mean_efficiency(&result.outcomes),
        jobs_completed: result.outcomes.len(),
    };
    Checked { digest: h.0, attempted, failed, jct_mean_s, counts }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

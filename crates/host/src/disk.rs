//! Shared block-device model with queueing-delay accounting.
//!
//! A VM's I/O demand is translated into *device time*: random ops are
//! seek-bound (cost `ops / max_random_iops`), sequential transfers are
//! bandwidth-bound (cost `bytes / max_seq_bps`). Device time within a tick is
//! shared max-min fairly across VMs (equal weights, as a fair-queueing
//! elevator would), after per-VM blkio throttles have already clamped the
//! demand that reaches the queue.
//!
//! The queueing wait charged per completed op grows with *offered*
//! utilization ρ like the M/M/1 factor `ρ/(1-ρ)` (capped), multiplied by the
//! VM's current luck factor — this is what makes the across-VM iowait-ratio
//! deviation a contention signal (see [`crate::jitter`]).

use crate::config::DiskConfig;
use crate::cpu::{allocate_into as waterfill_into, CpuRequest, CpuScratch};

/// One VM's I/O demand reaching the device this tick (post-throttle).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskRequest {
    /// Random-pattern operations wanted.
    pub rand_ops: f64,
    /// Bytes attached to the random ops.
    pub rand_bytes: f64,
    /// Sequential-pattern operations wanted.
    pub seq_ops: f64,
    /// Bytes attached to the sequential ops.
    pub seq_bytes: f64,
    /// The VM's current luck multiplier (see [`crate::jitter`]).
    pub luck: f64,
    /// Effective queue depth of the VM's I/O streams (0 = use the device
    /// config's default).
    pub queue_depth: f64,
}

/// What one VM's I/O achieved this tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskOutcome {
    /// Operations completed.
    pub ops: f64,
    /// Bytes transferred.
    pub bytes: f64,
    /// Queueing wait accrued by the completed ops, seconds.
    pub wait: f64,
}

/// Result of one tick of device arbitration.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskTick {
    /// Per-VM outcomes, index-aligned with the request slice.
    pub outcomes: Vec<DiskOutcome>,
    /// Offered utilization ρ (total demanded device time / tick length).
    /// May exceed 1 under overload.
    pub offered_utilization: f64,
}

/// Device time needed to serve a request in full, seconds. Random ops pay
/// the seek budget plus their (usually negligible) transfer time; sequential
/// transfers pay bandwidth only.
fn device_time(req: &DiskRequest, cfg: &DiskConfig, speed: f64) -> f64 {
    let iops = cfg.max_random_iops * speed;
    let bps = cfg.max_seq_bps * speed;
    req.rand_ops / iops + (req.rand_bytes + req.seq_bytes) / bps
}

/// Reusable working columns of [`allocate_into`]: each request's device
/// time as a water-filling request, the granted device time, and the
/// water-filling's own scratch.
#[derive(Debug, Clone, Default)]
pub struct DiskScratch {
    fill: Vec<CpuRequest>,
    granted: Vec<f64>,
    cpu: CpuScratch,
}

impl DiskScratch {
    /// Empty scratch; the columns grow on first use.
    pub const fn new() -> Self {
        DiskScratch { fill: Vec::new(), granted: Vec::new(), cpu: CpuScratch::new() }
    }
}

/// Arbitrates the device for one tick of `dt` seconds.
pub fn allocate(requests: &[DiskRequest], cfg: &DiskConfig, speed: f64, dt: f64) -> DiskTick {
    let mut outcomes = Vec::new();
    let offered_utilization =
        allocate_into(requests, cfg, speed, dt, &mut DiskScratch::new(), &mut outcomes);
    DiskTick { outcomes, offered_utilization }
}

/// [`allocate`] into a caller-owned output, reusing `scratch`: `outcomes`
/// is overwritten with one outcome per request and the offered utilization
/// is returned, both bit-identical to [`allocate`]'s for the same input.
pub fn allocate_into(
    requests: &[DiskRequest],
    cfg: &DiskConfig,
    speed: f64,
    dt: f64,
    scratch: &mut DiskScratch,
    outcomes: &mut Vec<DiskOutcome>,
) -> f64 {
    assert!(dt > 0.0, "tick length must be positive");
    assert!(speed > 0.0, "speed factor must be positive");
    // Share device time max-min fairly (equal weights).
    let fill = &mut scratch.fill;
    fill.clear();
    fill.extend(requests.iter().map(|r| {
        let w = device_time(r, cfg, speed);
        CpuRequest { demand: w, limit: w, weight: 1.0 }
    }));
    let offered: f64 = fill.iter().map(|f| f.demand).sum::<f64>() / dt;
    waterfill_into(fill, dt, &mut scratch.cpu, &mut scratch.granted);

    // Per-op queueing wait: (queue factor − 1) service times, scaled by luck.
    let rho = offered.min(0.999);
    let queue_factor = (1.0 / (1.0 - rho)).min(cfg.max_queue_factor);
    let base_wait = cfg.base_service_time / speed * (queue_factor - 1.0);

    let service = cfg.base_service_time / speed;
    outcomes.clear();
    outcomes.extend(requests.iter().zip(fill.iter()).zip(&scratch.granted).map(
        |((req, f), &got)| {
            let want = f.demand;
            let frac = if want > 0.0 { (got / want).clamp(0.0, 1.0) } else { 0.0 };
            let wait_per_op = base_wait * req.luck.max(0.0);
            // Closed-loop latency effect: a requester with `queue_depth`
            // outstanding ops completes at most depth/(S + W) per S·depth of
            // demand — queueing delay throttles victims even when fair-share
            // bandwidth is nominally available. Deep-queue workloads (fio)
            // are far less latency-sensitive than buffered guest streams.
            let depth = if req.queue_depth > 0.0 { req.queue_depth } else { cfg.queue_depth };
            let closed_loop = 1.0 / (1.0 + wait_per_op / (service * depth));
            let eff = frac * closed_loop;
            let ops = (req.rand_ops + req.seq_ops) * eff;
            let bytes = (req.rand_bytes + req.seq_bytes) * eff;
            let wait = ops * wait_per_op;
            DiskOutcome { ops, bytes, wait }
        },
    ));
    offered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DiskConfig {
        DiskConfig::default()
    }

    fn rand_req(ops: f64, luck: f64) -> DiskRequest {
        DiskRequest { rand_ops: ops, rand_bytes: ops * 4096.0, luck, ..Default::default() }
    }

    #[test]
    fn idle_device_is_idle() {
        let t = allocate(&[], &cfg(), 1.0, 0.1);
        assert!(t.outcomes.is_empty());
        assert_eq!(t.offered_utilization, 0.0);
    }

    #[test]
    fn undersubscribed_demand_fully_served() {
        // 100 ops in 0.1 s on a 4000-IOPS device = 25% utilization.
        let reqs = [rand_req(100.0, 1.0)];
        let t = allocate(&reqs, &cfg(), 1.0, 0.1);
        // Low utilization: nearly all demand served (small closed-loop loss).
        assert!(t.outcomes[0].ops > 95.0 && t.outcomes[0].ops <= 100.0);
        // 100/4000 IOPS = 0.25 seek time plus a sliver of transfer time.
        assert!((0.25..0.27).contains(&t.offered_utilization));
        // Low utilization => modest wait.
        assert!(t.outcomes[0].wait < 100.0 * cfg().base_service_time);
    }

    #[test]
    fn oversubscribed_split_fairly() {
        // Each wants the whole device.
        let reqs = [rand_req(400.0, 1.0), rand_req(400.0, 1.0)];
        let t = allocate(&reqs, &cfg(), 1.0, 0.1);
        assert!((t.outcomes[0].ops - t.outcomes[1].ops).abs() < 1e-6, "equal split");
        // Fair share is 200 ops each; saturation latency costs some of it.
        assert!(t.outcomes[0].ops < 220.0 && t.outcomes[0].ops > 60.0);
        assert!((2.0..2.2).contains(&t.offered_utilization));
    }

    #[test]
    fn small_demand_is_protected_but_feels_latency() {
        let reqs = [rand_req(10.0, 1.0), rand_req(4000.0, 1.0)];
        let t = allocate(&reqs, &cfg(), 1.0, 0.1);
        // The small request fits inside its fair share of bandwidth, but
        // saturation latency (the closed-loop factor) still slows it — this
        // is precisely why victims suffer even under fair queueing.
        let small = t.outcomes[0].ops;
        assert!(small < 10.0 && small > 2.0, "got {small}");
        // The big one gets most of the rest of the device time.
        let big = t.outcomes[1].ops;
        assert!(big < 4000.0 && big > 100.0, "got {big}");
        assert!(big > 10.0 * small);
    }

    #[test]
    fn wait_grows_with_utilization() {
        let low = allocate(&[rand_req(40.0, 1.0)], &cfg(), 1.0, 0.1);
        let high = allocate(&[rand_req(360.0, 1.0)], &cfg(), 1.0, 0.1);
        let w_low = low.outcomes[0].wait / low.outcomes[0].ops;
        let w_high = high.outcomes[0].wait / high.outcomes[0].ops;
        assert!(
            w_high > 5.0 * w_low,
            "wait/op should blow up near saturation: {w_low} vs {w_high}"
        );
    }

    #[test]
    fn unlucky_vm_waits_more_and_achieves_less() {
        let reqs = [rand_req(100.0, 0.5), rand_req(100.0, 2.0)];
        let t = allocate(&reqs, &cfg(), 1.0, 0.1);
        let lucky = t.outcomes[0];
        let unlucky = t.outcomes[1];
        // Per-op wait scales with luck (4×)…
        let w_lucky = lucky.wait / lucky.ops;
        let w_unlucky = unlucky.wait / unlucky.ops;
        assert!((w_unlucky / w_lucky - 4.0).abs() < 1e-9);
        // …and higher latency means lower closed-loop throughput.
        assert!(unlucky.ops < lucky.ops);
    }

    #[test]
    fn sequential_demand_is_bandwidth_bound() {
        // 40 MB sequential in 0.1 s on a 400 MB/s device = full utilization.
        let req = DiskRequest { seq_ops: 10.0, seq_bytes: 40.0e6, luck: 1.0, ..Default::default() };
        let t = allocate(&[req], &cfg(), 1.0, 0.1);
        assert!((t.offered_utilization - 1.0).abs() < 1e-9);
        // Saturated: full bandwidth granted, latency claws some back.
        assert!(t.outcomes[0].bytes > 10.0e6 && t.outcomes[0].bytes <= 40.0e6);
    }

    #[test]
    fn speed_factor_scales_capacity() {
        let reqs = [rand_req(400.0, 1.0)];
        let nominal = allocate(&reqs, &cfg(), 1.0, 0.1);
        let slow = allocate(&reqs, &cfg(), 0.5, 0.1);
        assert!((slow.offered_utilization - 2.0 * nominal.offered_utilization).abs() < 1e-9);
        assert!(slow.outcomes[0].ops < nominal.outcomes[0].ops);
    }

    #[test]
    fn queue_factor_is_capped() {
        // Monstrous overload: wait/op must stay finite and bounded.
        let t = allocate(&[rand_req(1e9, 1.0)], &cfg(), 1.0, 0.1);
        let wait_per_op = t.outcomes[0].wait / t.outcomes[0].ops;
        let bound = cfg().base_service_time * cfg().max_queue_factor;
        assert!(wait_per_op <= bound + 1e-9);
    }

    #[test]
    fn zero_luck_means_zero_wait() {
        let t = allocate(&[rand_req(100.0, 0.0)], &cfg(), 1.0, 0.1);
        assert_eq!(t.outcomes[0].wait, 0.0);
        assert!(t.outcomes[0].ops > 0.0);
    }
}

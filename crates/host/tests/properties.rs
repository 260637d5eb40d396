//! Property-based tests for the host resource-arbitration models.

mod common;

use common::{mixed_server, DT};
use perfcloud_host::config::{DiskConfig, MemoryConfig};
use perfcloud_host::cpu::{allocate as cpu_allocate, allocate_into as cpu_allocate_into};
use perfcloud_host::cpu::{CpuRequest, CpuScratch};
use perfcloud_host::disk::{allocate as disk_allocate, allocate_into as disk_allocate_into};
use perfcloud_host::disk::{DiskRequest, DiskScratch};
use perfcloud_host::memory::{model as mem_model, model_into as mem_model_into, MemRequest};
use perfcloud_host::throttle::{CpuCap, IoThrottle};
use perfcloud_host::{PhysicalServer, VmCounters};
use proptest::prelude::*;

fn cpu_requests() -> impl Strategy<Value = Vec<CpuRequest>> {
    cpu_requests_of_len(0..12)
}

fn cpu_requests_of_len(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<CpuRequest>> {
    proptest::collection::vec(
        (0.0f64..10.0, 0.0f64..10.0, 0.5f64..8.0).prop_map(|(demand, limit, weight)| CpuRequest {
            demand,
            limit,
            weight,
        }),
        len,
    )
}

fn disk_requests() -> impl Strategy<Value = Vec<DiskRequest>> {
    disk_requests_of_len(0..10)
}

fn disk_requests_of_len(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<DiskRequest>> {
    proptest::collection::vec(
        (0.0f64..5_000.0, 0.0f64..1e8, 0.0f64..100.0, 0.0f64..1e8, 0.1f64..4.0, 1.0f64..512.0)
            .prop_map(|(rand_ops, rand_bytes, seq_ops, seq_bytes, luck, queue_depth)| {
                DiskRequest { rand_ops, rand_bytes, seq_ops, seq_bytes, luck, queue_depth }
            }),
        len,
    )
}

fn mem_requests_of_len(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<MemRequest>> {
    proptest::collection::vec(
        (
            (0.0f64..1e9, 0.0f64..1.0, 0.0f64..0.3),
            (0.0f64..4e9, 0.0f64..1.0, 0.5f64..3.0, 0.0f64..3.0),
        )
            .prop_map(
                |(
                    (instr_demand, activity, refs_per_instr),
                    (working_set, cache_reuse, base_cpi, luck),
                )| {
                    MemRequest {
                        instr_demand,
                        activity,
                        refs_per_instr,
                        working_set,
                        cache_reuse,
                        base_cpi,
                        luck,
                    }
                },
            ),
        len,
    )
}

/// Bit patterns of a slice of floats, so exactness checks see signed
/// zeros and NaN payloads that `==` would hide.
fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

fn counter_bits(c: &VmCounters) -> Vec<u64> {
    bits([
        c.io_serviced,
        c.io_service_bytes,
        c.io_wait_time,
        c.cpu_time,
        c.cycles,
        c.instructions,
        c.llc_references,
        c.llc_misses,
    ])
}

proptest! {
    /// CPU allocation never exceeds capacity, demand, or limit — and is
    /// work-conserving when undersubscribed.
    #[test]
    fn cpu_allocation_feasible(reqs in cpu_requests(), capacity in 0.0f64..50.0) {
        let alloc = cpu_allocate(&reqs, capacity);
        prop_assert_eq!(alloc.len(), reqs.len());
        let total: f64 = alloc.iter().sum();
        prop_assert!(total <= capacity + 1e-6, "total {total} > capacity {capacity}");
        let mut want_total = 0.0;
        for (a, r) in alloc.iter().zip(&reqs) {
            prop_assert!(*a >= -1e-12);
            prop_assert!(*a <= r.demand.min(r.limit) + 1e-6);
            want_total += r.demand.min(r.limit);
        }
        if want_total <= capacity {
            prop_assert!((total - want_total).abs() < 1e-6, "must be work-conserving");
        }
    }

    /// Disk allocation is feasible and per-VM outcomes never exceed demand.
    #[test]
    fn disk_allocation_feasible(reqs in disk_requests(), dt in 0.01f64..1.0) {
        let cfg = DiskConfig::default();
        let tick = disk_allocate(&reqs, &cfg, 1.0, dt);
        prop_assert_eq!(tick.outcomes.len(), reqs.len());
        for (o, r) in tick.outcomes.iter().zip(&reqs) {
            let ops_want = r.rand_ops + r.seq_ops;
            let bytes_want = r.rand_bytes + r.seq_bytes;
            prop_assert!(o.ops <= ops_want + 1e-6);
            prop_assert!(o.bytes <= bytes_want + 1e-3);
            prop_assert!(o.ops >= -1e-12 && o.bytes >= -1e-12 && o.wait >= -1e-12);
        }
        prop_assert!(tick.offered_utilization >= 0.0);
    }

    /// Total device time granted never exceeds the tick.
    #[test]
    fn disk_time_conservation(reqs in disk_requests(), dt in 0.01f64..1.0) {
        let cfg = DiskConfig::default();
        let tick = disk_allocate(&reqs, &cfg, 1.0, dt);
        let mut granted_time = 0.0;
        for (o, r) in tick.outcomes.iter().zip(&reqs) {
            let ops_want = r.rand_ops + r.seq_ops;
            let frac = if ops_want > 0.0 { o.ops / ops_want } else { 0.0 };
            let want_time = r.rand_ops / cfg.max_random_iops
                + (r.rand_bytes + r.seq_bytes) / cfg.max_seq_bps;
            granted_time += frac * want_time;
        }
        prop_assert!(granted_time <= dt + 1e-6, "granted {granted_time} > dt {dt}");
    }

    /// Memory model: miss rates in [0,1], CPI ≥ base CPI (with luck ≥ 0),
    /// and monotone in added streaming pressure.
    #[test]
    fn memory_model_sane(
        n in 1usize..8,
        refs in 0.0f64..0.3,
        ws in 1e3f64..1e9,
        reuse in 0.0f64..1.0,
    ) {
        let cfg = MemoryConfig::default();
        let base = MemRequest {
            instr_demand: 1e8,
            activity: 1.0,
            refs_per_instr: refs,
            working_set: ws,
            cache_reuse: reuse,
            base_cpi: 1.0,
            luck: 1.0,
        };
        let reqs: Vec<MemRequest> = (0..n).map(|_| base).collect();
        let t = mem_model(&reqs, &cfg, 0.1);
        for o in &t.outcomes {
            prop_assert!((0.0..=1.0).contains(&o.miss_rate));
            prop_assert!(o.cpi >= 1.0 - 1e-9);
        }
        // Add a large streaming antagonist: everyone's CPI must not drop.
        let mut with_stream = reqs.clone();
        with_stream.push(MemRequest {
            instr_demand: 1e9,
            activity: 1.0,
            refs_per_instr: 0.25,
            working_set: 2e9,
            cache_reuse: 0.0,
            base_cpi: 1.0,
            luck: 1.0,
        });
        let t2 = mem_model(&with_stream, &cfg, 0.1);
        for (before, after) in t.outcomes.iter().zip(&t2.outcomes) {
            prop_assert!(after.cpi >= before.cpi - 1e-9);
            prop_assert!(after.miss_rate >= before.miss_rate - 1e-9);
        }
    }

    /// Water-filling into a reused scratch is bit-identical to a fresh
    /// call: a long slice first leaves stale columns behind, which the
    /// short slice after it must not see.
    #[test]
    fn cpu_allocate_into_reused_scratch_is_exact(
        long in cpu_requests_of_len(8..24),
        short in cpu_requests_of_len(0..6),
        caps in (0.0f64..50.0, 0.0f64..50.0),
    ) {
        let mut scratch = CpuScratch::new();
        let mut alloc = Vec::new();
        for (reqs, capacity) in [(&long, caps.0), (&short, caps.1), (&long, caps.1)] {
            cpu_allocate_into(reqs, capacity, &mut scratch, &mut alloc);
            prop_assert_eq!(bits(alloc.iter().copied()), bits(cpu_allocate(reqs, capacity)));
        }
    }

    /// Disk arbitration into a reused scratch is bit-identical to a fresh
    /// call, outcomes and offered utilization alike.
    #[test]
    fn disk_allocate_into_reused_scratch_is_exact(
        long in disk_requests_of_len(8..20),
        short in disk_requests_of_len(0..5),
        dt in 0.01f64..1.0,
    ) {
        let cfg = DiskConfig::default();
        let mut scratch = DiskScratch::new();
        let mut outcomes = Vec::new();
        for reqs in [&long, &short, &long] {
            let rho = disk_allocate_into(reqs, &cfg, 1.0, dt, &mut scratch, &mut outcomes);
            let fresh = disk_allocate(reqs, &cfg, 1.0, dt);
            prop_assert_eq!(rho.to_bits(), fresh.offered_utilization.to_bits());
            let flat = |o: &[perfcloud_host::disk::DiskOutcome]| {
                bits(o.iter().flat_map(|o| [o.ops, o.bytes, o.wait]))
            };
            prop_assert_eq!(flat(&outcomes), flat(&fresh.outcomes));
        }
    }

    /// The memory model into a reused output is bit-identical to a fresh
    /// call, including the idle-bus `powf` shortcut (the short slice is
    /// often idle enough to take it).
    #[test]
    fn mem_model_into_reused_output_is_exact(
        long in mem_requests_of_len(8..20),
        short in mem_requests_of_len(0..5),
        dt in 0.01f64..1.0,
    ) {
        let cfg = MemoryConfig::default();
        let mut outcomes = Vec::new();
        for reqs in [&long, &short, &long] {
            let rho = mem_model_into(reqs, &cfg, dt, &mut outcomes);
            let fresh = mem_model(reqs, &cfg, dt);
            prop_assert_eq!(rho.to_bits(), fresh.offered_utilization.to_bits());
            let flat = |o: &[perfcloud_host::memory::MemOutcome]| {
                bits(o.iter().flat_map(|o| [o.cpi, o.miss_rate]))
            };
            prop_assert_eq!(flat(&outcomes), flat(&fresh.outcomes));
        }
    }

    /// Throttle clamp output never exceeds the caps or the demand.
    #[test]
    fn throttle_clamp_feasible(
        ops in 0.0f64..1e6,
        bytes in 0.0f64..1e9,
        iops_cap in proptest::option::of(0.0f64..1e5),
        bps_cap in proptest::option::of(0.0f64..1e8),
        dt in 0.01f64..1.0,
    ) {
        let t = IoThrottle { iops: iops_cap, bps: bps_cap };
        let (o, b) = t.clamp(ops, bytes, dt);
        prop_assert!(o <= ops + 1e-9 && b <= bytes + 1e-9);
        if let Some(cap) = iops_cap {
            prop_assert!(o <= cap * dt + 1e-6);
        }
        if let Some(cap) = bps_cap {
            prop_assert!(b <= cap * dt + 1e-3);
        }
        prop_assert!(o >= 0.0 && b >= 0.0);
    }

    /// CPU cap is always within [0, vcpus].
    #[test]
    fn cpu_cap_bounded(cores in proptest::option::of(-5.0f64..100.0), vcpus in 1u32..64) {
        let c = CpuCap { cores };
        let e = c.effective_cores(vcpus);
        prop_assert!((0.0..=vcpus as f64).contains(&e));
    }
}

/// Every hosted VM's counters, in boot order, as bit patterns.
fn all_counter_bits(server: &PhysicalServer) -> Vec<Vec<u64>> {
    server.snapshots().map(|(_, snap)| counter_bits(&snap.counters)).collect()
}

/// Two servers of different sizes ticked interleaved through the thread's
/// shared tick scratch end bit-identical to each ticked alone on a fresh
/// thread (a fresh scratch): neither server sees the other's columns.
#[test]
fn shared_tick_scratch_is_exact_across_servers() {
    const TICKS: usize = 120;
    let build = || [mixed_server(21, 7, 0), mixed_server(22, 2, 100)];
    let alone: Vec<_> = build()
        .into_iter()
        .map(|mut s| {
            std::thread::spawn(move || {
                for _ in 0..TICKS {
                    s.tick(DT);
                }
                all_counter_bits(&s)
            })
            .join()
            .expect("solo run")
        })
        .collect();
    let mut shared = build();
    for t in 0..TICKS {
        // Alternate which server goes first, so each one follows both a
        // larger and a smaller predecessor.
        if t % 2 == 0 {
            shared.iter_mut().for_each(|s| drop(s.tick(DT)));
        } else {
            shared.iter_mut().rev().for_each(|s| drop(s.tick(DT)));
        }
    }
    for (solo, s) in alone.iter().zip(&shared) {
        assert_eq!(solo, &all_counter_bits(s));
    }
}

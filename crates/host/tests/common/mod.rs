//! A steady guest process and a mixed-load server shared by the host
//! integration tests.

use perfcloud_host::throttle::{CpuCap, IoThrottle};
use perfcloud_host::{
    Achieved, IoPattern, PhysicalServer, Process, ResourceDemand, ServerConfig, ServerId, VmConfig,
    VmId,
};
use perfcloud_sim::{RngFactory, SimDuration};

/// The tick every host test drives servers at.
pub const DT: SimDuration = SimDuration::from_micros(100_000);

/// A process that asks for the same resources every tick and never
/// finishes: `par` cores' worth of instructions at `refs` LLC references
/// each over a `working_set`-byte footprint with `reuse` cache reuse, plus
/// `iops` random 4 KiB reads per second.
#[derive(Clone)]
pub struct Steady {
    pub par: f64,
    pub refs: f64,
    pub working_set: f64,
    pub reuse: f64,
    pub iops: f64,
}

impl Steady {
    /// A compute-bound process with a cache-friendly footprint.
    pub fn cpu(par: f64) -> Self {
        Steady { par, refs: 0.02, working_set: 8e6, reuse: 0.9, iops: 0.0 }
    }

    /// A STREAM-like memory antagonist.
    pub fn stream(par: f64) -> Self {
        Steady { par, refs: 0.25, working_set: 2e9, reuse: 0.0, iops: 0.0 }
    }

    /// A random-read I/O process with a sliver of CPU.
    pub fn io(iops: f64) -> Self {
        Steady { par: 0.1, refs: 0.01, working_set: 1e6, reuse: 0.5, iops }
    }
}

impl Process for Steady {
    fn demand(&self, dt: SimDuration) -> ResourceDemand {
        let dt_s = dt.as_secs_f64();
        ResourceDemand {
            cpu_parallelism: self.par,
            cpu_instructions: self.par * 2.3e9 * dt_s,
            io_ops: self.iops * dt_s,
            io_bytes: self.iops * 4096.0 * dt_s,
            io_pattern: IoPattern::Random,
            io_queue_depth: 8.0,
            mem_refs_per_instr: self.refs,
            working_set: self.working_set,
            cache_reuse: self.reuse,
            base_cpi: 1.0,
        }
    }
    fn advance(&mut self, _achieved: &Achieved, _dt: SimDuration) {}
    fn is_done(&self) -> bool {
        false
    }
    fn progress(&self) -> f64 {
        0.0
    }
    fn label(&self) -> &str {
        "steady"
    }
}

/// A server exercising every branch of the tick: `busy` VMs running a
/// compute process and a disk reader each, a memory antagonist whose CPU
/// demand oversubscribes the cores, a CPU-capped VM, a blkio-throttled
/// reader, an idle VM and a paused VM. VM ids start at `first_vm`.
pub fn mixed_server(seed: u64, busy: u32, first_vm: u32) -> PhysicalServer {
    let mut s =
        PhysicalServer::new(ServerId(0), ServerConfig::default(), RngFactory::new(seed), DT);
    let mut next = first_vm;
    let mut boot = |s: &mut PhysicalServer, cfg: VmConfig| {
        let vm = VmId(next);
        next += 1;
        s.add_vm(vm, cfg);
        vm
    };
    for k in 0..busy {
        let vm = boot(&mut s, VmConfig::high_priority().with_vcpus(4));
        s.spawn(vm, Box::new(Steady::cpu(3.0)));
        s.spawn(vm, Box::new(Steady::io(500.0 + 50.0 * k as f64)));
    }
    let antagonist = boot(&mut s, VmConfig::low_priority().with_vcpus(48));
    s.spawn(antagonist, Box::new(Steady::stream(48.0)));
    let capped = boot(&mut s, VmConfig::low_priority().with_vcpus(8));
    s.spawn(capped, Box::new(Steady::stream(8.0)));
    s.set_cpu_cap(capped, CpuCap { cores: Some(1.5) });
    let throttled = boot(&mut s, VmConfig::low_priority());
    s.spawn(throttled, Box::new(Steady::io(5_000.0)));
    s.set_io_throttle(throttled, IoThrottle { iops: Some(800.0), bps: None });
    boot(&mut s, VmConfig::low_priority());
    let paused = boot(&mut s, VmConfig::low_priority());
    s.spawn(paused, Box::new(Steady::cpu(2.0)));
    s.set_paused(paused, true);
    s
}

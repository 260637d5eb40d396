//! The three benchmark workloads: each turns a seed into an
//! `ExperimentConfig` (job and antagonist schedule included) and builds it
//! single-shard. See `perfbench/README.md` for why each one exists.

use perfcloud_cluster::{
    AntagonistKind, AntagonistPlacement, ClusterSpec, Experiment, ExperimentConfig, Mitigation,
    MixConfig, WorkloadMix,
};
use perfcloud_core::PerfCloudConfig;
use perfcloud_ctrl::{ControlPlaneSpec, LinkSpec};
use perfcloud_place::PlacementConfig;
use perfcloud_sim::{
    FaultKind, FaultRule, FaultScenario, MessageClass, RngFactory, SimDuration, SimTime,
};
use perfcloud_telemetry::RecordingFormat;
use rand::Rng;

/// Flight-recorder ring size per recorder on `pipeline_dense`.
const FLIGHT_CAPACITY: usize = 4096;

/// Upper bound of [`Workload::mixes`]; mix seeds of different run seeds
/// never collide.
const MAX_MIXES: u64 = 16;

/// Simulated wall for the drained workloads; the paper mix drains in
/// roughly 2,500 simulated seconds.
const DRAIN_WALL: SimTime = SimTime::from_secs(7_200);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 15-server, 160-VM large-scale mix under PerfCloud,
    /// run until every job drains.
    PaperMix,
    /// The paper mix under the hybrid throttle+migrate arm with every
    /// pipeline layer switched on and densely exercised.
    PipelineDense,
    /// 1,000 servers (10,666 VMs), mostly idle, for a fixed 120 s.
    Warehouse,
}

/// How a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Until every job has completed; jobs still pending at the wall fail.
    Drain(SimTime),
    /// After a fixed span of simulated time; jobs may still be running.
    Horizon(SimTime),
}

/// A generated experiment configuration plus the arrival times its job
/// accounting checks against.
pub struct Generated {
    pub config: ExperimentConfig,
    /// Submission times of every job in the schedule.
    pub arrivals: Vec<SimTime>,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PaperMix, Workload::PipelineDense, Workload::Warehouse];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::PipelineDense => "pipeline_dense",
            Workload::Warehouse => "warehouse",
        }
    }

    pub fn end(self) -> End {
        match self {
            Workload::PaperMix | Workload::PipelineDense => End::Drain(DRAIN_WALL),
            Workload::Warehouse => End::Horizon(SimTime::from_secs(120)),
        }
    }

    /// Independently seeded mixes in one round of a run. Averaging over
    /// several keeps the figures from depending on one draw of the
    /// schedule.
    pub fn mixes(self) -> usize {
        match self {
            Workload::PaperMix => 10,
            Workload::PipelineDense | Workload::Warehouse => 2,
        }
    }

    /// The experiment seed of mix `mix` in a run seeded `seed`.
    pub fn mix_seed(self, seed: u64, mix: usize) -> u64 {
        seed.wrapping_mul(MAX_MIXES).wrapping_add(mix as u64)
    }

    /// The node-manager sampling interval the workload runs with.
    pub fn sample_interval(self) -> SimDuration {
        match self {
            Workload::PipelineDense => SimDuration::from_secs(1.0),
            _ => PerfCloudConfig::default().sample_interval,
        }
    }

    /// Generates the job and antagonist schedule from `seed`.
    pub fn generate(self, seed: u64) -> Generated {
        let rng = RngFactory::new(seed);
        let mut cluster = ClusterSpec::large_scale(seed);
        let mut mix_config = MixConfig::paper(cluster.servers);
        let mitigation = match self {
            Workload::PaperMix => Mitigation::PerfCloud(PerfCloudConfig::default()),
            Workload::PipelineDense => {
                cluster.spare_servers = 3;
                mix_config.fio_antagonists = 0;
                mix_config.stream_antagonists = 0;
                let pc = PerfCloudConfig {
                    sample_interval: self.sample_interval(),
                    ..PerfCloudConfig::default()
                };
                Mitigation::Hybrid(pc, PlacementConfig::default())
            }
            Workload::Warehouse => {
                cluster.servers = 1_000;
                mix_config = MixConfig::paper(cluster.servers);
                // The paper's per-server arrival rate (one job per 12 s on
                // 15 servers), so enough jobs finish inside the horizon for
                // their mean JCT to be steady across seeds.
                mix_config.mean_arrival_gap *= 15.0 / cluster.servers as f64;
                Mitigation::PerfCloud(PerfCloudConfig::default())
            }
        };
        let mut mix = WorkloadMix::generate(&mix_config, &rng);
        mix.stagger_antagonists(&rng, 120.0);
        match self {
            Workload::PaperMix => spread_antagonists(&rng, &cluster, &mut mix),
            Workload::PipelineDense => mix.antagonists = dense_antagonists(&rng, &cluster, &mix),
            Workload::Warehouse => {}
        }
        let arrivals = mix.jobs.iter().map(|(t, _)| *t).collect();
        let mut config = ExperimentConfig::new(cluster, mitigation);
        config.jobs = mix.jobs;
        config.antagonists = mix.antagonists;
        config.max_sim_time = match self.end() {
            End::Drain(wall) => wall,
            End::Horizon(h) => h,
        };
        if self == Workload::PipelineDense {
            config.control = ControlPlaneSpec {
                managers: 3,
                link: LinkSpec { latency: SimDuration::from_millis(10), ..LinkSpec::default() },
                ..ControlPlaneSpec::default()
            };
            config.faults = Some(
                FaultScenario::named("perfbench-dense")
                    .rule(
                        FaultRule::new("drop-placement", FaultKind::DropMessage)
                            .on_message(MessageClass::Placement)
                            .with_probability(0.2),
                    )
                    .rule(
                        FaultRule::new("drop-sample", FaultKind::DropSample).with_probability(0.1),
                    ),
            );
            config.telemetry.tee = Some(RecordingFormat::Binary);
        }
        Generated { config, arrivals }
    }

    /// Builds a generated configuration the way every run uses it: one
    /// in-run shard, no shard threads, and the flight recorder on where
    /// the workload asks for it.
    pub fn build(self, config: ExperimentConfig) -> Experiment {
        let mut e = Experiment::build(config);
        e.set_shards(1);
        e.set_shard_threads(Some(false));
        if self == Workload::PipelineDense {
            e.enable_observability(FLIGHT_CAPACITY);
        }
        e
    }
}

/// Re-draws the mix's antagonist servers without replacement (a seeded
/// permutation), so every seed contends the same number of servers. Drawn
/// with replacement, two or three antagonists pile onto one server in some
/// seeds, and mean JCT then varies by 18% between seeds.
fn spread_antagonists(rng: &RngFactory, cluster: &ClusterSpec, mix: &mut WorkloadMix) {
    let mut r = rng.stream("perfbench/antagonist-servers");
    let mut servers: Vec<usize> = (0..cluster.servers).collect();
    for i in (1..servers.len()).rev() {
        servers.swap(i, r.gen_range(0..=i));
    }
    for (a, s) in mix.antagonists.iter_mut().zip(servers.iter().cycle()) {
        a.server_idx = *s;
    }
}

/// Four antagonists per populated server, alternating fio and STREAM, each
/// living 200 s, staggered so each quarter of the job-arrival span sees one
/// onset per server at a seeded offset.
fn dense_antagonists(
    rng: &RngFactory,
    cluster: &ClusterSpec,
    mix: &WorkloadMix,
) -> Vec<AntagonistPlacement> {
    let span = mix.jobs.last().map_or(0.0, |(t, _)| t.as_secs_f64());
    let quarter = span / 4.0;
    let mut r = rng.stream("perfbench/dense-antagonists");
    let mut out = Vec::new();
    for server in 0..cluster.servers - cluster.spare_servers {
        for k in 0..4 {
            let kind =
                if (server + k) % 2 == 0 { AntagonistKind::Fio } else { AntagonistKind::Stream };
            let start = quarter * (k as f64 + r.gen::<f64>());
            out.push(
                AntagonistPlacement::pinned(kind, server)
                    .starting_at(SimTime::from_secs_f64(start))
                    .lasting(SimDuration::from_secs(200.0)),
            );
        }
    }
    out
}

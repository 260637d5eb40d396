//! `--trace 1`: per-layer numbers, measured from outside the simulator by
//! timing calls into each crate's public entry points.
//!
//! Every run follows the run's first mix and is checked against the first:
//!
//! 1. untraced runs alternate with runs that time every
//!    `Experiment::step_tick` and classify it as a sampling tick or not
//!    (the `cluster` layer), until `--seconds` have passed;
//! 2. then a layer sampler: at evenly spaced sampling instants it forks the
//!    experiment, warms the fork for at least `WARM_INTERVALS` sampling
//!    intervals and `WARM_TICKS` ticks (the first sampling step after a
//!    fork costs about ten steady ones), then replays one sampling interval
//!    by hand, calling and timing each layer's entry point in `step_tick`'s
//!    order. The fork is discarded.
//!
//! `PlacementRuntime::on_sample` cannot be called from outside (the
//! runtime is only reachable read-only), so its time stays in the
//! sampling-tick remainder.

use crate::drive::{check, finished, Checked};
use crate::report::{median, percentile, ratio, Report};
use crate::workloads::Workload;
use crate::{account, setup_block, timed_run, verify_first, Args};
use perfcloud_cluster::Experiment;
use perfcloud_core::StepReport;
use perfcloud_frameworks::scheduler::NoSpeculation;
use perfcloud_host::FinishedProcess;
use perfcloud_sim::SimDuration;
use perfcloud_telemetry::Sample;
use std::time::{Duration, Instant};

/// A fork runs at least this many sampling intervals, and at least
/// `WARM_TICKS` ticks, before its layers are timed. On `pipeline_dense`
/// (10 ticks per interval) a 3-interval warm-up still left the replayed
/// sampling tick about 10% dearer than the main run's.
const WARM_INTERVALS: u64 = 3;
const WARM_TICKS: u64 = 100;

/// Sampling instants the layer sampler visits per run.
const SAMPLE_POINTS: u64 = 24;

/// The simulator's tick: every workload uses the cluster default.
const TICK: SimDuration = SimDuration::from_millis(100);

/// Seconds spent in each layer during one hand-replayed tick.
#[derive(Default, Clone, Copy)]
struct TickSplit {
    host: f64,
    frameworks: f64,
    ctrl_begin: f64,
    ctrl_tick: f64,
    core: f64,
}

impl TickSplit {
    /// The layers a non-sampling `step_tick` runs.
    fn every_tick(&self) -> f64 {
        self.host + self.frameworks + self.ctrl_tick
    }

    fn total(&self) -> f64 {
        self.every_tick() + self.ctrl_begin + self.core
    }
}

/// `step_tick` wall times, split by tick kind.
#[derive(Default)]
struct TickTimes {
    plain: Vec<f64>,
    sampling: Vec<f64>,
}

impl TickTimes {
    /// Steps `e` once, recording the wall time under the tick's kind.
    fn step(&mut self, e: &mut Experiment, n: u64) -> f64 {
        let t = Instant::now();
        e.step_tick();
        let dt = t.elapsed().as_secs_f64();
        if e.ticks_stepped().is_multiple_of(n) {
            self.sampling.push(dt);
        } else {
            self.plain.push(dt);
        }
        dt
    }
}

/// Hand-replayed ticks of the layer sampler, with the scratch buffers the
/// replay reuses across forks, as `step_tick` reuses its own.
#[derive(Default)]
struct Sampler {
    plain: Vec<TickSplit>,
    sampling: Vec<TickSplit>,
    fork_s: Vec<f64>,
    servers: usize,
    vms: usize,
    finished: Vec<(usize, FinishedProcess)>,
    step: StepReport,
    tee: Vec<Sample>,
}

pub fn run(args: &Args) -> Report {
    let w = args.workload;
    // Ticks per sampling interval.
    let n = (w.sample_interval().as_secs_f64() / TICK.as_secs_f64()).round() as u64;
    let mut report = Report { correct: true, ..Report::default() };
    // The trace follows the run's first mix.
    let seed = w.mix_seed(args.seed, 0);
    let build_s = setup_block(w, seed);

    // Untraced and traced runs alternate until --seconds have passed, so
    // the tracing overhead compares runs made under the same conditions.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut first: Option<Checked> = None;
    let mut ticks = TickTimes::default();
    let (mut untraced_s, mut traced_s, mut runs) = (0.0, 0.0, 0u32);
    loop {
        let (dt, c) = timed_run(w, seed, None);
        untraced_s += dt;
        let first = first.get_or_insert_with(|| {
            verify_first(&mut report, args, 0, &c);
            c.clone()
        });
        account(&mut report, first, &c, "untraced");

        let generated = w.generate(seed);
        let mut e = w.build(generated.config);
        while !finished(w, &e) {
            traced_s += ticks.step(&mut e, n);
        }
        account(&mut report, first, &check(w, &generated.arrivals, &e), "traced");
        runs += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let first = first.expect("at least one run");

    // The layer sampler, at evenly spaced sampling instants. The main
    // run's own ticks are timed alongside (all but the tick right after
    // each fork, whose caches the fork disturbed) for the self-test.
    let stride = (first.counts.ticks / n / SAMPLE_POINTS).max(1);
    let generated = w.generate(seed);
    let mut e = w.build(generated.config);
    let mut sampler = Sampler::default();
    let mut beside = TickTimes::default();
    let mut disturbed = false;
    while !finished(w, &e) {
        if disturbed {
            e.step_tick();
            disturbed = false;
        } else {
            beside.step(&mut e, n);
        }
        let k = e.ticks_stepped();
        if k.is_multiple_of(n) && (k / n) % stride == stride / 2 {
            sampler.sample(&e, n);
            disturbed = true;
        }
    }
    account(&mut report, &first, &check(w, &generated.arrivals, &e), "sampled");
    if report.failed > 0 {
        report.correct = false;
        report.note(format!("error: {} of {} jobs failed", report.failed, report.attempted));
    }

    emit_ticks(&mut report, &mut ticks);
    emit_layers(&mut report, w, &first, &mut beside, &sampler, n);
    let vm_ticks = (first.counts.ticks * first.counts.vms) as f64 * f64::from(runs);
    let (untraced_rate, traced_rate) = (vm_ticks / untraced_s, vm_ticks / traced_s);
    report.metric("cluster.build_ms", build_s * 1e3, "ms");
    report.metric("cluster.fork_ms", median(&mut sampler.fork_s.clone()) * 1e3, "ms");
    report.metric("trace.overhead_share", 1.0 - traced_rate / untraced_rate, "ratio");
    report.note(format!(
        "tracing overhead: traced {traced_rate:.0} vs untraced {untraced_rate:.0} VM-ticks/s \
         ({runs} runs each, alternating)"
    ));
    counts(&mut report, &first);
    report
}

impl Sampler {
    /// Forks `main` (which just finished a sampling tick), warms the fork,
    /// and replays one sampling interval layer by layer. The fork may step
    /// past the workload's end; its timings are all it is for.
    fn sample(&mut self, main: &Experiment, n: u64) {
        let t = Instant::now();
        let mut f = main.fork();
        self.fork_s.push(t.elapsed().as_secs_f64());
        let warm = WARM_TICKS.max(WARM_INTERVALS * n).div_ceil(n) * n;
        let warm_until = main.ticks_stepped() + warm;
        while f.ticks_stepped() < warm_until {
            f.step_tick();
        }
        self.servers = f.servers.len();
        self.vms = f.servers.iter().map(|s| s.vm_ids().len()).sum();

        let mut policy = NoSpeculation;
        let Sampler { finished: finished_buf, step, tee, .. } = self;
        let mut now = f.now();
        for k in 1..=n {
            now += TICK;
            let sampling = k == n;
            let t0 = Instant::now();
            finished_buf.clear();
            for (i, server) in f.servers.iter_mut().enumerate() {
                finished_buf.extend(server.tick(TICK).finished.into_iter().map(|p| (i, p)));
            }
            let t1 = Instant::now();
            f.scheduler.on_tick(now, &mut f.servers, finished_buf, &mut policy);
            let t2 = Instant::now();
            if sampling {
                f.plane.begin_interval(now, &f.cloud);
            }
            let t3 = Instant::now();
            f.plane.tick(now, &mut f.cloud, &mut f.node_managers);
            let t4 = Instant::now();
            if sampling {
                for (i, nm) in f.node_managers.iter_mut().enumerate() {
                    let stalled = f.plane.stalled(i, now);
                    nm.step_synced(now, &mut f.servers[i], stalled, step);
                    if step.restarted {
                        f.plane.clear_stall(i);
                    }
                    while let Some(apps) = nm.take_colocation_notice() {
                        f.plane.send_colocation(now, i, apps);
                    }
                }
            }
            let t5 = Instant::now();
            // Untimed housekeeping step_tick also does, so nothing piles up.
            for nm in &mut f.node_managers {
                tee.clear();
                nm.drain_tee_into(tee);
            }
            f.plane.drain_events();

            let split = TickSplit {
                host: (t1 - t0).as_secs_f64(),
                frameworks: (t2 - t1).as_secs_f64(),
                ctrl_begin: (t3 - t2).as_secs_f64(),
                ctrl_tick: (t4 - t3).as_secs_f64(),
                core: (t5 - t4).as_secs_f64(),
            };
            if sampling {
                self.sampling.push(split);
            } else {
                self.plain.push(split);
            }
        }
    }
}

/// Emits the `cluster` tick metrics of the traced runs.
fn emit_ticks(report: &mut Report, ticks: &mut TickTimes) {
    let us = 1e6;
    let plain_p50 = median(&mut ticks.plain);
    let total: f64 = ticks.plain.iter().chain(&ticks.sampling).sum();
    let excess: f64 = ticks.sampling.iter().map(|t| t - plain_p50).sum();
    report.metric("cluster.tick_us_p50", plain_p50 * us, "us");
    report.metric("cluster.sample_tick_us_p50", median(&mut ticks.sampling) * us, "us");
    report.metric("cluster.sample_tick_us_p90", percentile(&mut ticks.sampling, 0.9) * us, "us");
    report.metric("cluster.sample_ticks", ticks.sampling.len() as f64, "count");
    report.metric("cluster.pipeline_share", ratio(excess, total), "ratio");
}

/// Emits the per-layer sampler metrics, comparing the replayed ticks with
/// the main run's ticks timed `beside` them.
fn emit_layers(
    report: &mut Report,
    w: Workload,
    first: &Checked,
    beside: &mut TickTimes,
    s: &Sampler,
    n: u64,
) {
    let us = 1e6;
    let main_plain_p50 = median(&mut beside.plain);
    let main_sample_p50 = median(&mut beside.sampling);
    // The main run's mean step_tick over the replay's mix of tick kinds
    // (one sampling tick in n).
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let main_mean = (mean(&beside.plain) * (n - 1) as f64 + mean(&beside.sampling)) / n as f64;

    let all: Vec<TickSplit> = s.plain.iter().chain(&s.sampling).copied().collect();
    let replayed = all.len() as f64;
    let sampled = s.sampling.len() as f64;
    let sum = |f: fn(&TickSplit) -> f64, v: &[TickSplit]| v.iter().map(f).sum::<f64>();
    let host = sum(|t| t.host, &all);
    let frameworks = sum(|t| t.frameworks, &all);
    let ctrl = sum(|t| t.ctrl_begin + t.ctrl_tick, &all);
    let core = sum(|t| t.core, &all);
    let share = |x: f64| ratio(ratio(x, replayed), main_mean);
    report.metric("host.tick_us_per_vm", ratio(host, replayed * s.vms as f64) * us, "us");
    report.metric("host.share", share(host), "ratio");
    report.metric("frameworks.on_tick_us", ratio(frameworks, replayed) * us, "us");
    report.metric("frameworks.share", share(frameworks), "ratio");
    report.metric(
        "ctrl.begin_interval_us",
        ratio(sum(|t| t.ctrl_begin, &s.sampling), sampled) * us,
        "us",
    );
    report.metric("ctrl.tick_us", ratio(sum(|t| t.ctrl_tick, &all), replayed) * us, "us");
    report.metric("ctrl.share", share(ctrl), "ratio");
    report.metric(
        "core.step_us_per_server",
        ratio(sum(|t| t.core, &s.sampling), sampled * s.servers as f64) * us,
        "us",
    );
    report.metric("core.share", share(core), "ratio");
    report.metric(
        "sampler.uncovered_share",
        1.0 - share(host) - share(frameworks) - share(ctrl) - share(core),
        "ratio",
    );

    // Self-test: a replayed non-sampling tick must cost about what the
    // main run's median non-sampling step_tick costs. A cold fork, or a
    // layer called twice or not at all, moves the ratio away from 1.
    let mut every: Vec<f64> = s.plain.iter().map(TickSplit::every_tick).collect();
    let replayed_p50 = median(&mut every);
    let coverage = ratio(replayed_p50, main_plain_p50);
    let mut sampling_layers: Vec<f64> = s.sampling.iter().map(TickSplit::total).collect();
    let remainder = main_sample_p50 - median(&mut sampling_layers);
    report.metric("sampler.coverage", coverage, "ratio");
    report.metric("sampler.uncovered_us", (main_plain_p50 - replayed_p50) * us, "us");
    report.metric("sampler.sample_remainder_us", remainder * us, "us");
    let pass = (SELF_TEST_LOW..=SELF_TEST_HIGH).contains(&coverage);
    report.note(format!(
        "sampler self-test {}: replayed non-sampling tick {:.1} us (host+frameworks+ctrl, \
         median of {}) vs the main run's median step_tick {:.1} us (of {}): coverage \
         {coverage:.3}, allowed [{SELF_TEST_LOW}, {SELF_TEST_HIGH}]",
        if pass { "PASS" } else { "FAIL" },
        replayed_p50 * us,
        s.plain.len(),
        main_plain_p50 * us,
        beside.plain.len()
    ));
    if !pass {
        report.correct = false;
    }
    report.note(format!(
        "{}: {} ticks x {} VMs per run, 1 sampling tick in {n}; sampler visited {} instants, \
         replayed {} ticks; sampling-tick remainder {:.1} us holds \
         PlacementRuntime::on_sample and the telemetry tee drain",
        w.name(),
        first.counts.ticks,
        first.counts.vms,
        s.sampling.len(),
        all.len(),
        remainder * us
    ));
}

/// Self-test band for `sampler.coverage`.
const SELF_TEST_LOW: f64 = 0.7;
const SELF_TEST_HIGH: f64 = 1.3;

/// Counters from public accessors, each printed with its base.
fn counts(report: &mut Report, first: &Checked) {
    let c = &first.counts;
    let ingested = c.ingest_recorded + c.ingest_rejected;
    report.note(format!(
        "core: {} recorded, {} rejected of {ingested} ingested samples; ctrl: {} of {} messages \
         delivered; place: {} migrations; telemetry: {} samples teed; frameworks: efficiency \
         {:.4} over {} jobs; host: {} VM-ticks ({} ticks x {} VMs)",
        c.ingest_recorded,
        c.ingest_rejected,
        c.net_delivered,
        c.net_sent,
        c.migrations_started,
        c.teed_samples,
        c.efficiency,
        c.jobs_completed,
        c.ticks * c.vms,
        c.ticks,
        c.vms
    ));
    report.metric("core.ingest_recorded", c.ingest_recorded, "count");
    report.metric("core.ingest_rejected", c.ingest_rejected, "count");
    report.metric("ctrl.net_sent", c.net_sent, "count");
    report.metric("ctrl.net_delivered_ratio", ratio(c.net_delivered, c.net_sent), "ratio");
    report.metric("place.migrations_started", c.migrations_started as f64, "count");
    report.metric("telemetry.teed_samples", c.teed_samples, "count");
    report.metric("frameworks.efficiency", c.efficiency, "ratio");
    report.metric("host.vm_ticks", (c.ticks * c.vms) as f64, "count");
}

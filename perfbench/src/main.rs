//! PerfCloud experiment benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|pipeline_dense|warehouse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! per-layer trace. Either way the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md`.

mod drive;
mod layers;
mod report;
mod workloads;

use drive::{check, committed_digest, finished, Checked, DEFAULT_SEED};
use report::{median, Report};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Least wall time of one set-up block. One set-up of the paper mix takes
/// one to two milliseconds, and on a shared host the time of a single one
/// jumps between a fast and a slow mode that each last a fraction of a
/// second; a block of back-to-back set-ups this long averages over both.
const SETUP_BLOCK: Duration = Duration::from_millis(250);

/// Stepping time between two set-up blocks interleaved with a run. Blocks
/// only between mix runs come every 1.2 s on `paper_mix` but every 5 s on
/// `warehouse`, too few to sample how the host's speed varies over a run.
const SETUP_EVERY: Duration = Duration::from_secs(1);

const USAGE: &str = "usage: perfbench --workload <paper_mix|pipeline_dense|warehouse> \
                     --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => {
                let s =
                    value.parse::<f64>().map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = if args.trace { layers::run(&args) } else { end_to_end(&args) };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

/// Generates and builds the workload back to back until `SETUP_BLOCK` has
/// passed, and returns the block's mean wall time per set-up in seconds.
pub fn setup_block(workload: Workload, seed: u64) -> f64 {
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed() < SETUP_BLOCK {
        let generated = workload.generate(seed);
        drop(std::hint::black_box(workload.build(generated.config)));
        n += 1;
    }
    t.elapsed().as_secs_f64() / n as f64
}

/// One complete, untraced run: build (untimed), step to the end condition
/// (timed), check. Returns the stepping wall time with the check. With
/// `setup`, a set-up block of the same seed follows every `SETUP_EVERY` of
/// stepping, outside the stepping time, and its sample is pushed there.
pub fn timed_run(
    workload: Workload,
    seed: u64,
    mut setup: Option<&mut Vec<f64>>,
) -> (f64, Checked) {
    let generated = workload.generate(seed);
    let mut e = workload.build(generated.config);
    let mut dt = 0.0;
    let mut t = Instant::now();
    while !finished(workload, &e) {
        e.step_tick();
        if let Some(samples) = setup.as_deref_mut() {
            if t.elapsed() >= SETUP_EVERY {
                dt += t.elapsed().as_secs_f64();
                samples.push(setup_block(workload, seed));
                t = Instant::now();
            }
        }
    }
    dt += t.elapsed().as_secs_f64();
    (dt, check(workload, &generated.arrivals, &e))
}

/// Folds a run's check into the report: job accounting, and agreement with
/// the digest of the same mix's first run.
pub fn account(report: &mut Report, first: &Checked, c: &Checked, what: &str) {
    report.attempted += c.attempted;
    report.failed += c.failed;
    if c.digest != first.digest {
        report.correct = false;
        report.note(format!(
            "error: {what} digest {:016x} differs from the first run's {:016x}",
            c.digest, first.digest
        ));
    }
}

/// Checks the first run of mix `mix` against the committed digest when the
/// run uses the default seed.
pub fn verify_first(report: &mut Report, args: &Args, mix: usize, first: &Checked) {
    let what = format!("mix {mix} digest {:016x}", first.digest);
    if args.seed != DEFAULT_SEED {
        report.note(format!(
            "{what} (no committed digest at seed {}; checked for repeatability)",
            args.seed
        ));
        return;
    }
    match committed_digest(args.workload, mix) {
        Some(d) if d == first.digest => report.note(format!("{what} matches the committed digest")),
        Some(d) => {
            report.correct = false;
            report.note(format!("error: {what} differs from the committed {d:016x}"));
        }
        None => {
            report.correct = false;
            report.note(format!("error: {what} has no committed digest"));
        }
    }
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 0`: rounds over the workload's mixes until `--seconds` have
/// passed. Every round times one set-up block of each mix, then runs it to
/// its end. The first round reports the peak RSS of one experiment at a
/// time; later rounds also interleave set-up blocks with the stepping.
fn end_to_end(args: &Args) -> Report {
    let w = args.workload;
    let mut report = Report { correct: true, ..Report::default() };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut setup = Vec::new();
    let mut firsts: Vec<Checked> = Vec::new();
    let mut round_rates = Vec::new();
    let (mut vm_ticks, mut step_s) = (0.0, 0.0);
    let mut peak_rss = 0.0;
    loop {
        let (mut round_ticks, mut round_s) = (0.0, 0.0);
        for mix in 0..w.mixes() {
            let seed = w.mix_seed(args.seed, mix);
            setup.push(setup_block(w, seed));
            let interleave = if round_rates.is_empty() { None } else { Some(&mut setup) };
            let (dt, c) = timed_run(w, seed, interleave);
            round_ticks += (c.counts.ticks * c.counts.vms) as f64;
            round_s += dt;
            if firsts.len() == mix {
                verify_first(&mut report, args, mix, &c);
                firsts.push(c.clone());
            }
            account(&mut report, &firsts[mix], &c, "run");
        }
        if round_rates.is_empty() {
            peak_rss = peak_rss_mb();
        }
        round_rates.push(round_ticks / round_s);
        vm_ticks += round_ticks;
        step_s += round_s;
        if Instant::now() >= deadline {
            break;
        }
    }
    if report.failed > 0 {
        report.correct = false;
        report.note(format!("error: {} of {} jobs failed", report.failed, report.attempted));
    }
    let jobs: usize = firsts.iter().map(|c| c.counts.jobs_completed).sum();
    let jct_sum: f64 = firsts.iter().map(|c| c.jct_mean_s * c.counts.jobs_completed as f64).sum();
    let listed: Vec<String> = round_rates.iter().map(|r| format!("{r:.0}")).collect();
    report.note(format!(
        "{}: seed {}, {} rounds of {} mixes, {jobs} jobs completed per round; VM-ticks/s per \
         round: {}",
        w.name(),
        args.seed,
        round_rates.len(),
        w.mixes(),
        listed.join(" ")
    ));
    let blocks: Vec<String> = setup.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    report.note(format!("set-up blocks, ms per set-up: {}", blocks.join(" ")));
    report.metric("vm_ticks_per_s", vm_ticks / step_s, "1/s");
    report.metric("setup_s", median(&mut setup), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("jct_mean_s", report::ratio(jct_sum, jobs as f64), "s");
    report
}

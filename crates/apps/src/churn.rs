//! Open-system churn workload: Berserker-style fork/exec storms.
//!
//! Every other workload in this crate is closed-loop — a fixed task set
//! runs to completion. Real nodes are open systems: tasks arrive as a
//! Poisson process, live for a random time, and leave, and it is exactly
//! that churn (short-lived tasks, PID reuse, arrival-rate ramps) that
//! stresses a monitor's lifecycle machinery. This module generates the
//! storm:
//!
//! * [`generate_schedule`] — a seeded, fully deterministic arrival
//!   schedule: exponential inter-arrival gaps at a configurable rate
//!   (optionally ramped 1×/2×/4× across thirds of the run), Zipf-
//!   distributed thread counts per task, a configurable fraction of
//!   tasks that live less than one sampling period, and a fraction that
//!   recycle a previously-used pid. The same schedule drives both
//!   backends, so the sim soak and the real storm exercise the same
//!   shape.
//! * [`run_real_churn`] — the real-process backend: spawns actual child
//!   processes (`zerosum __churn-child`) paced by the schedule on the
//!   wall clock and samples them through the live
//!   [`LinuxProc`](zerosum_proc::LinuxProc) source. Inherently
//!   nondeterministic; never run in CI without a fork probe.
//! * [`probe_spawn`] / [`churn_child_main`] — the sandbox probe and the
//!   child-process entry point the CLI dispatches to.
//!
//! The deterministic sim backend that replays the same schedule against
//! `SimProcSource` lives in `zerosum-experiments::churn` (it needs the
//! node simulation, which this crate only depends on for spawning).

use std::time::{Duration, Instant};

/// The storm shape: how processes arrive, how big they are, how long
/// they live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Schedule seed: same seed, same schedule, bit for bit.
    pub seed: u64,
    /// Base task arrival rate, arrivals per (virtual) second.
    pub arrival_rate_hz: f64,
    /// Mean lifetime of a long-lived task, µs (exponentially
    /// distributed on top of one guaranteed sampling period).
    pub mean_lifetime_us: u64,
    /// Fraction of arrivals that live *less* than one sampling period —
    /// the monitor may never see them alive, only their departure.
    pub short_lived_frac: f64,
    /// Zipf exponent for per-task thread counts: mass concentrates on
    /// single-threaded tasks, with a heavy tail of wide ones.
    pub zipf_s: f64,
    /// Largest thread count the Zipf draw can produce.
    pub max_threads: u32,
    /// Total schedule duration, µs.
    pub duration_us: u64,
    /// The monitor sampling period the schedule is calibrated against,
    /// µs ("short-lived" means shorter than this).
    pub period_us: u64,
    /// Fraction of arrivals that recycle a previously-used pid — the
    /// PID-reuse race.
    pub reuse_frac: f64,
    /// Ramp the arrival rate 1×/2×/4× across thirds of the run instead
    /// of holding it constant.
    pub ramp: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 1,
            arrival_rate_hz: 50.0,
            mean_lifetime_us: 120_000,
            short_lived_frac: 0.30,
            zipf_s: 1.3,
            max_threads: 8,
            duration_us: 2_000_000,
            period_us: 50_000,
            reuse_frac: 0.15,
            ramp: false,
        }
    }
}

/// One task arrival in the storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time from schedule start, µs.
    pub at_us: u64,
    /// How long the task lives, µs.
    pub lifetime_us: u64,
    /// Thread count, including the main thread (Zipf-distributed).
    pub threads: u32,
    /// Recycle a previously-used pid instead of taking a fresh one.
    pub reuse: bool,
    /// Lives less than one sampling period.
    pub short: bool,
}

/// A complete seeded arrival schedule, sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    /// The config that produced it.
    pub cfg: ChurnConfig,
    /// Arrivals, ascending by `at_us`.
    pub arrivals: Vec<Arrival>,
}

impl ChurnSchedule {
    /// Empirical arrival rate over the whole schedule, Hz.
    pub fn empirical_rate_hz(&self) -> f64 {
        self.arrivals.len() as f64 / (self.cfg.duration_us as f64 / 1e6)
    }

    /// Arrivals whose `at_us` falls in `[from_us, to_us)`.
    pub fn between(&self, from_us: u64, to_us: u64) -> &[Arrival] {
        let lo = self.arrivals.partition_point(|a| a.at_us < from_us);
        let hi = self.arrivals.partition_point(|a| a.at_us < to_us);
        &self.arrivals[lo..hi]
    }
}

/// xorshift64*-style generator, the same shape the shard differential
/// uses — deliberately not seeded from time or OS entropy so the
/// schedule is a pure function of the config (the nondeterminism audit
/// pins this by rooting [`generate_schedule`]).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform in `[0, 1)` with 53 mantissa bits.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Exponential with the given mean (inverse-CDF transform).
    fn exp(&mut self, mean: f64) -> f64 {
        // 1 - unit() is in (0, 1], so ln() is finite and ≤ 0.
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf inverse-CDF table over `1..=n` with exponent `s`: `cdf[k-1]` is
/// the cumulative probability of drawing ≤ k.
fn zipf_cdf(n: u32, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += (k as f64).powf(-s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// The arrival-rate multiplier at time `t`: 1×/2×/4× across thirds of
/// the run when ramping, 1× throughout otherwise.
pub fn ramp_multiplier(cfg: &ChurnConfig, at_us: u64) -> u64 {
    if !cfg.ramp {
        return 1;
    }
    let third = (cfg.duration_us / 3).max(1);
    match at_us / third {
        0 => 1,
        1 => 2,
        _ => 4,
    }
}

/// Generates the seeded arrival schedule. Pure function of `cfg`:
/// identical configs produce bit-identical schedules, which is what
/// makes the CI sim soak reproducible and lets the real backend replay
/// the exact storm a sim failure was found under.
pub fn generate_schedule(cfg: &ChurnConfig) -> ChurnSchedule {
    let mut rng = Rng::new(cfg.seed);
    let cdf = zipf_cdf(cfg.max_threads.max(1), cfg.zipf_s);
    let mut arrivals = Vec::new();
    let mut t_us = 0u64;
    loop {
        // Thin the gap by the current ramp multiplier: a 4× rate means
        // gaps a quarter as long. The multiplier is evaluated at the
        // *previous* arrival, which is exact enough for thirds-sized
        // plateaus and keeps the draw count per arrival fixed.
        let rate = cfg.arrival_rate_hz * ramp_multiplier(cfg, t_us) as f64;
        let gap_us = (rng.exp(1e6 / rate.max(1e-9)) as u64).max(1);
        t_us = t_us.saturating_add(gap_us);
        if t_us >= cfg.duration_us {
            break;
        }
        let short = rng.unit() < cfg.short_lived_frac;
        let lifetime_us = if short {
            // Strictly inside one sampling period: the task can be born
            // and dead between two consecutive samples.
            cfg.period_us / 8 + rng.next() % (cfg.period_us * 3 / 4).max(1)
        } else {
            // At least one full period, exponential tail on top.
            cfg.period_us + rng.exp(cfg.mean_lifetime_us as f64) as u64
        };
        let u = rng.unit();
        let threads = (cdf.partition_point(|&c| c < u) as u32 + 1).min(cfg.max_threads.max(1));
        let reuse = rng.unit() < cfg.reuse_frac;
        arrivals.push(Arrival {
            at_us: t_us,
            lifetime_us,
            threads,
            reuse,
            short,
        });
    }
    ChurnSchedule {
        cfg: *cfg,
        arrivals,
    }
}

// ---------------------------------------------------------------------
// Real-process backend
// ---------------------------------------------------------------------

/// The storm's process-tree shape on the real backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormVariant {
    /// Flat fork storm: each arrival is one child doing its own work.
    Fork,
    /// Fork+exec storm: each arrival is a child that execs a grandchild
    /// to do the work — two pids per arrival, deeper trees, and the
    /// comm changes under the monitor's feet at exec time.
    ForkExec,
}

/// Outcome of a real-backend storm, for the judge and the CLI report.
#[derive(Debug, Clone, Default)]
pub struct RealChurnOutcome {
    /// Sampling rounds completed.
    pub rounds: u64,
    /// Children spawned.
    pub spawned: u64,
    /// Children reaped (exit observed).
    pub reaped: u64,
    /// Children that exited nonzero or were killed.
    pub failed_children: u64,
    /// Monitor departure accounting (tasks seen vanishing mid-round).
    pub vanished: u64,
    /// Monitor hard read errors.
    pub errors: u64,
    /// Sampling-loop panics caught by the supervisor.
    pub supervisor_restarts: u64,
    /// Peak lifecycle footprint (live LWP tracks + health states)
    /// across all watches, sampled each round.
    pub peak_footprint: usize,
    /// Cumulative departed-track summary at the end.
    pub departed_tracks: u64,
    /// Most `/proc` file handles the source held open after any round.
    pub peak_handles: usize,
    /// Handles still held once every child is gone and a last round has
    /// seen that: the node's two files at most.
    pub handles_at_exit: usize,
    /// Wall-clock duration, µs.
    pub elapsed_us: u64,
    /// Samples per second actually achieved.
    pub samples_per_sec: f64,
}

/// The argument the hidden child subcommand receives, rendered/parsed
/// here so the CLI and the spawner cannot drift.
fn child_args(variant: StormVariant, spin_us: u64, threads: u32) -> Vec<String> {
    let mut v = Vec::new();
    if variant == StormVariant::ForkExec {
        v.push("exec".to_string());
    }
    v.push(spin_us.to_string());
    v.push(threads.to_string());
    v
}

/// Entry point for the hidden `__churn-child` subcommand: spin
/// `threads` OS threads for `spin_us` of wall time, then exit 0. With a
/// leading `exec` argument, spawn one grandchild to do the work instead
/// (the fork+exec variant). Returns the process exit code.
pub fn churn_child_main(args: &[String]) -> i32 {
    let (exec, rest) = match args.split_first() {
        Some((first, rest)) if first == "exec" => (true, rest),
        _ => (false, args),
    };
    let (spin_us, threads) = match (
        rest.first().and_then(|s| s.parse::<u64>().ok()),
        rest.get(1).and_then(|s| s.parse::<u32>().ok()),
    ) {
        (Some(s), Some(t)) => (s, t.max(1)),
        // Malformed internal invocation; the CLI shim prints the usage
        // line (library crates are print-free: the audit's print-in-lib).
        _ => return 2,
    };
    if exec {
        // Re-spawn ourselves without the `exec` marker: one more
        // fork+exec hop, one more short-lived pid in the tree.
        let exe = match std::env::current_exe() {
            Ok(e) => e,
            Err(_) => return 2,
        };
        return match std::process::Command::new(exe)
            .arg("__churn-child")
            .args(child_args(StormVariant::Fork, spin_us, threads))
            .status()
        {
            Ok(st) => st.code().unwrap_or(1),
            Err(_) => 2,
        };
    }
    let spin = |budget: Duration| {
        let start = Instant::now();
        let mut x = 0x9e37_79b9u64;
        while start.elapsed() < budget {
            // Genuine user-mode work so utime accrues.
            for _ in 0..4096 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        }
    };
    let budget = Duration::from_micros(spin_us);
    let workers: Vec<_> = (1..threads)
        .map(|_| std::thread::spawn(move || spin(budget)))
        .collect();
    spin(budget);
    for w in workers {
        let _ = w.join();
    }
    0
}

/// Probes whether the sandbox lets us fork at all: spawns one no-op
/// child and reaps it. `false` means `zerosum churn --backend real`
/// cannot run here (CI surfaces this as a loud SKIP, exit 3).
pub fn probe_spawn() -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(_) => return false,
    };
    std::process::Command::new(exe)
        .arg("__churn-child")
        .args(child_args(StormVariant::Fork, 0, 1))
        .status()
        .map(|st| st.success())
        .unwrap_or(false)
}

/// Runs the real-process storm: replays `cfg`'s schedule on the wall
/// clock, spawning a `__churn-child` per arrival and watching every
/// child through the live [`LinuxProc`](zerosum_proc::LinuxProc)
/// source. The monitor's lifecycle invariants are exercised by genuine
/// kernel-side races: children exit between `list_tasks` and the
/// per-task reads, short-lived children die inside one period, the
/// kernel recycles pids on its own terms.
///
/// Wall-clock paced and therefore nondeterministic — this function must
/// NOT be registered as a nondeterminism-audit root, and CI only runs
/// it behind [`probe_spawn`].
pub fn run_real_churn(
    cfg: &ChurnConfig,
    variant: StormVariant,
) -> std::io::Result<RealChurnOutcome> {
    use zerosum_core::{Monitor, ProcessInfo, ZeroSumConfig};
    let schedule = generate_schedule(cfg);
    let exe = std::env::current_exe()?;
    let mut mon = Monitor::new(ZeroSumConfig {
        period_us: cfg.period_us,
        ..Default::default()
    });
    let src = zerosum_proc::LinuxProc::new();
    let hostname = "churn-real".to_string();
    let mut out = RealChurnOutcome::default();
    let mut children: Vec<std::process::Child> = Vec::new();
    let start = Instant::now();
    let mut next_arrival = 0usize;
    let mut next_sample_us = 0u64;
    loop {
        let now_us = start.elapsed().as_micros() as u64;
        // Spawn everything the schedule owes us by now. Lifetime maps
        // to the child's spin budget; the kernel handles departure.
        while let Some(&a) = schedule
            .arrivals
            .get(next_arrival)
            .filter(|a| a.at_us <= now_us)
        {
            next_arrival += 1;
            let child = std::process::Command::new(&exe)
                .arg("__churn-child")
                .args(child_args(variant, a.lifetime_us, a.threads))
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()?;
            mon.watch_process(ProcessInfo {
                pid: child.id(),
                rank: None,
                hostname: hostname.clone(),
                gpus: vec![],
                cpus_allowed: Default::default(),
            });
            children.push(child);
            out.spawned += 1;
        }
        // Reap exits; the monitor finds out on its own via NotFound.
        children.retain_mut(|c| match c.try_wait() {
            Ok(Some(st)) => {
                out.reaped += 1;
                if !st.success() {
                    out.failed_children += 1;
                }
                false
            }
            Ok(None) => true,
            Err(_) => {
                out.reaped += 1;
                out.failed_children += 1;
                false
            }
        });
        if now_us >= next_sample_us {
            mon.sample(now_us as f64 / 1e6, &src);
            out.rounds += 1;
            next_sample_us = now_us + cfg.period_us;
            let footprint: usize = mon
                .processes()
                .iter()
                .map(|w| w.lwps.len() + w.health.footprint() + w.delta_gate_len())
                .sum();
            out.peak_footprint = out.peak_footprint.max(footprint);
            out.peak_handles = out.peak_handles.max(src.handles_held());
        }
        if now_us >= cfg.duration_us && children.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_micros(
            (cfg.period_us / 8).clamp(500, 10_000),
        ));
    }
    // One more round: the last children may have left since the last.
    mon.sample(start.elapsed().as_secs_f64(), &src);
    out.rounds += 1;
    out.handles_at_exit = src.handles_held();
    out.vanished = mon.stats.vanished;
    out.errors = mon.stats.errors;
    out.supervisor_restarts = mon.supervisor.restarts;
    out.departed_tracks = mon
        .processes()
        .iter()
        .map(|w| w.lwps.departed().tracks)
        .sum();
    out.elapsed_us = start.elapsed().as_micros() as u64;
    out.samples_per_sec = out.rounds as f64 / (out.elapsed_us as f64 / 1e6).max(1e-9);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite 3: same seed, same schedule — bit for bit.
    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = ChurnConfig::default();
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a, b);
        assert!(!a.arrivals.is_empty());
        let other = generate_schedule(&ChurnConfig { seed: 2, ..cfg });
        assert_ne!(a.arrivals, other.arrivals, "seeds must matter");
    }

    /// Satellite 3: the empirical arrival rate tracks the configured
    /// rate. 50 Hz over 20 s gives ~1000 arrivals; the exponential
    /// gap's relative error at n=1000 is ~3%, so ±10% is generous
    /// without being vacuous.
    #[test]
    fn empirical_arrival_rate_matches_configured() {
        let cfg = ChurnConfig {
            duration_us: 20_000_000,
            ..ChurnConfig::default()
        };
        let s = generate_schedule(&cfg);
        let rate = s.empirical_rate_hz();
        assert!(
            (rate / cfg.arrival_rate_hz - 1.0).abs() < 0.10,
            "empirical {rate:.1} Hz vs configured {} Hz",
            cfg.arrival_rate_hz
        );
        // Arrivals are sorted and strictly inside the run.
        assert!(s.arrivals.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(s.arrivals.iter().all(|a| a.at_us < cfg.duration_us));
    }

    /// Satellite 3: the Zipf thread-count draw is in range, skewed
    /// toward 1, and its empirical mean sits near the analytic mean.
    #[test]
    fn zipf_thread_counts_are_skewed_and_bounded() {
        let cfg = ChurnConfig {
            duration_us: 20_000_000,
            ..ChurnConfig::default()
        };
        let s = generate_schedule(&cfg);
        let mut hist = vec![0usize; cfg.max_threads as usize + 1];
        for a in &s.arrivals {
            assert!((1..=cfg.max_threads).contains(&a.threads));
            hist[a.threads as usize] += 1;
        }
        assert!(
            hist[1] > hist[cfg.max_threads as usize] * 3,
            "no Zipf skew: {hist:?}"
        );
        let mean =
            s.arrivals.iter().map(|a| a.threads as f64).sum::<f64>() / s.arrivals.len() as f64;
        // Analytic mean of Zipf(s=1.3, n=8): H(8,0.3)/H(8,1.3) ≈ 2.07.
        let analytic = {
            let h_num: f64 = (1..=8).map(|k| (k as f64).powf(-0.3)).sum();
            let h_den: f64 = (1..=8).map(|k| (k as f64).powf(-1.3)).sum();
            h_num / h_den
        };
        assert!(
            (mean / analytic - 1.0).abs() < 0.10,
            "empirical mean {mean:.2} vs analytic {analytic:.2}"
        );
    }

    /// Short-lived arrivals really fit inside one sampling period and
    /// show up at roughly the configured fraction.
    #[test]
    fn short_lived_fraction_fits_inside_one_period() {
        let cfg = ChurnConfig {
            duration_us: 20_000_000,
            ..ChurnConfig::default()
        };
        let s = generate_schedule(&cfg);
        let short: Vec<_> = s.arrivals.iter().filter(|a| a.short).collect();
        for a in &short {
            assert!(a.lifetime_us < cfg.period_us, "{a:?}");
        }
        for a in s.arrivals.iter().filter(|a| !a.short) {
            assert!(a.lifetime_us >= cfg.period_us, "{a:?}");
        }
        let frac = short.len() as f64 / s.arrivals.len() as f64;
        assert!(
            (frac - cfg.short_lived_frac).abs() < 0.05,
            "short fraction {frac:.2}"
        );
    }

    /// The ramp quadruples the arrival rate in the last third.
    #[test]
    fn ramp_multiplies_rate_across_thirds() {
        let cfg = ChurnConfig {
            duration_us: 30_000_000,
            ramp: true,
            ..ChurnConfig::default()
        };
        let s = generate_schedule(&cfg);
        let third = cfg.duration_us / 3;
        let first = s.between(0, third).len() as f64;
        let last = s.between(2 * third, cfg.duration_us).len() as f64;
        let ratio = last / first.max(1.0);
        assert!(
            (2.8..=5.5).contains(&ratio),
            "last/first third ratio {ratio:.2}, want ~4"
        );
        assert_eq!(ramp_multiplier(&cfg, 0), 1);
        assert_eq!(ramp_multiplier(&cfg, third + 1), 2);
        assert_eq!(ramp_multiplier(&cfg, 2 * third + 1), 4);
        let flat = ChurnConfig { ramp: false, ..cfg };
        assert_eq!(ramp_multiplier(&flat, 2 * third + 1), 1);
    }

    /// `between` slices exactly by half-open window.
    #[test]
    fn between_windows_partition_the_schedule() {
        let s = generate_schedule(&ChurnConfig::default());
        let mut total = 0;
        let step = 100_000;
        let mut from = 0;
        while from < s.cfg.duration_us {
            total += s.between(from, from + step).len();
            from += step;
        }
        assert_eq!(total, s.arrivals.len());
    }

    #[test]
    fn child_args_round_trip_through_child_main_parser() {
        // Bad args fail loudly, good args are accepted (zero spin so
        // the test doesn't burn CPU).
        assert_eq!(churn_child_main(&[]), 2);
        assert_eq!(churn_child_main(&["nope".into()]), 2);
        let args = child_args(StormVariant::Fork, 0, 2);
        assert_eq!(args, vec!["0".to_string(), "2".to_string()]);
        assert_eq!(churn_child_main(&args), 0);
        let args = child_args(StormVariant::ForkExec, 7, 3);
        assert_eq!(
            args,
            vec!["exec".to_string(), "7".to_string(), "3".to_string()]
        );
    }
}

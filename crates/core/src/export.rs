//! Data exportation (§3.6).
//!
//! Every monitored process gets a log containing the human-readable
//! report plus a detailed CSV dump of all periodic data — LWP series
//! (state, faults, swap pages, last CPU, context switches) and HWT
//! series — "allowing for time-series analysis of the periodic data".

use crate::monitor::{Monitor, ProcessWatch};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use zerosum_proc::{Pid, SourceErrorKind};

/// Last line of every completely-written log file. Its absence means the
/// file is torn — which [`atomic_write`] makes impossible short of a
/// filesystem fault, since readers only ever see fully-renamed files.
pub const LOG_END_MARKER: &str = "=== END (complete) ===";

/// First line of a log flushed on the abnormal-exit path: the data is
/// whatever had been collected when the process died, written atomically
/// (the file still ends with [`LOG_END_MARKER`]).
pub const LOG_PARTIAL_MARKER: &str = "=== PARTIAL (abnormal exit) ===";

/// Crash-safe file write: the content lands in a temporary file in the
/// same directory, which is then renamed over the destination. Readers
/// never observe a half-written file, even if the writer dies mid-write
/// — the §3.6 log survives the monitored application's own crash.
pub fn atomic_write(path: &Path, content: &str) -> io::Result<()> {
    atomic_write_parts(path, &[content])
}

/// [`atomic_write`] of `parts` one after another: what is common to
/// many files is written from where it is, not copied into each.
fn atomic_write_parts(path: &Path, parts: &[&str]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "zerosum".into());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = std::fs::File::create(&tmp)?;
    for part in parts {
        file.write_all(part.as_bytes())?;
    }
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Powers of ten a `u64` holds: `POW10[p]` scales a value to `p`
/// decimal places.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Appends `v` in decimal with a point before its last `places` digits,
/// zero-padded so that one digit at least precedes the point: the
/// digits of a value scaled by `10^places`, and with `places == 0`
/// what `{}` prints. `places` is at most 19, so the longest output is
/// 20 digits and the point.
fn push_scaled(out: &mut String, mut v: u64, places: usize) {
    let mut buf = [0u8; 24];
    let mut len = 0;
    let mut digit = |slot: &mut u8| {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
        len += 1;
        v == 0
    };
    let mut slots = buf.iter_mut().rev();
    if places > 0 {
        for slot in slots.by_ref().take(places) {
            digit(slot);
        }
        if let Some(slot) = slots.next() {
            *slot = b'.';
        }
    }
    for slot in slots {
        if digit(slot) {
            break;
        }
    }
    len += usize::from(places > 0);
    let text = buf.len().checked_sub(len).and_then(|at| buf.get(at..));
    if let Some(Ok(text)) = text.map(std::str::from_utf8) {
        out.push_str(text);
    }
}

/// `|x| · 10^places` rounded half-to-even to an integer, when `x` is
/// finite, `|x| < 2^53`, and the result fits a `u64`.
///
/// A finite `f64` is exactly `m · 2^e` with `m < 2^53` an integer. For
/// `e = -s < 0` the scaled value is `m · 10^places / 2^s`: the product
/// is exact in `u128` (`2^53 · 10^19 < 2^117`), the quotient is its
/// bits above `s` and the remainder the bits below, compared exactly
/// with half of `2^s`. No rounding happens before the one the output
/// asks for, so the digits are those of `core::fmt`'s exact printer
/// (which rounds the same exact value to even the same way).
fn fixed_point(x: f64, places: usize) -> Option<u64> {
    const FRACTION_BITS: u32 = 52;
    let bits = x.to_bits();
    let biased = (bits >> FRACTION_BITS) & 0x7ff;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let (m, e) = match biased {
        0x7ff => return None, // NaN, ±inf
        0 => (fraction, -1074),
        _ => (fraction | (1 << FRACTION_BITS), biased as i32 - 1075),
    };
    let product = u128::from(m) * u128::from(*POW10.get(places)?);
    let s = match u32::try_from(-e) {
        Ok(0) => return u64::try_from(product).ok(),
        Ok(s) => s,
        Err(_) => return None, // e > 0: |x| >= 2^53
    };
    if s >= u128::BITS {
        // The product is below 2^117, less than half of 2^s.
        return Some(0);
    }
    let quotient = product >> s;
    let remainder = product & ((1 << s) - 1);
    let half = 1u128 << (s - 1);
    let up = remainder > half || (remainder == half && quotient & 1 == 1);
    u64::try_from(quotient + u128::from(up)).ok()
}

/// Appends exactly what `{:.places$}` prints for `x`. Every finite
/// value below `2^53` that the series hold (times, percentages) takes
/// the integer path; NaN, ±inf, larger magnitudes and more than 19
/// places go to `core::fmt`, chosen from the value itself.
fn push_fixed(out: &mut String, x: f64, places: usize) {
    match fixed_point(x, places) {
        Some(scaled) => {
            if x.is_sign_negative() {
                out.push('-');
            }
            push_scaled(out, scaled, places);
        }
        None => {
            let _ = write!(out, "{x:.places$}");
        }
    }
}

/// Appends `,v` for every cell.
fn push_cells(out: &mut String, cells: &[u64]) {
    for &v in cells {
        out.push(',');
        push_scaled(out, v, 0);
    }
}

const LWP_HEADER: &str =
    "time,tid,type,state,utime,stime,minflt,majflt,nswap,processor,vcsw,nvcsw,wait_ns\n";
const HWT_HEADER: &str = "time,cpu,idle_pct,system_pct,user_pct\n";
const MEMORY_HEADER: &str = "time,total_kib,available_kib,watched_rss_kib\n";
const HEALTH_HEADER: &str =
    "scope,pid,ok,retried,degraded,dropped,quarantine_events,reprobes,backoff_us,\
     not_found,io,malformed,denied,supervisor_restarts\n";
const OVERLOAD_HEADER: &str = "time,event,from_period_us,to_period_us,cost_us,budget_us\n";

/// Typical bytes of one row of each series CSV, for sizing a buffer
/// from its row count (a longer row only costs a regrowth).
const LWP_ROW_BYTES: usize = 64;
const HWT_ROW_BYTES: usize = 40;
const MEMORY_ROW_BYTES: usize = 40;
const HEALTH_ROW_BYTES: usize = 64;

/// Bytes [`push_lwp_csv`] is expected to append for `watch`.
fn lwp_csv_bytes(watch: &ProcessWatch) -> usize {
    let rows: usize = watch.lwps.tracks().map(|t| t.samples.len()).sum();
    LWP_HEADER.len() + rows * LWP_ROW_BYTES
}

/// Bytes [`push_hwt_csv`] is expected to append for `monitor`.
fn hwt_csv_bytes(monitor: &Monitor) -> usize {
    let rows: usize = monitor.hwt.series().map(|(_, s)| s.len()).sum();
    HWT_HEADER.len() + rows * HWT_ROW_BYTES
}

/// Bytes [`push_node_tail`] is expected to append for `monitor`.
fn node_tail_bytes(monitor: &Monitor) -> usize {
    hwt_csv_bytes(monitor)
        + monitor.mem.samples().len() * MEMORY_ROW_BYTES
        + (monitor.processes().len() + monitor.governor.changes.len() + 2) * HEALTH_ROW_BYTES
        + 512 // section titles and headers
}

/// Appends the per-LWP CSV of `watch`: header and one row per sample,
/// tracks in tid order.
fn push_lwp_csv(out: &mut String, watch: &ProcessWatch) {
    out.push_str(LWP_HEADER);
    let mut tracks: Vec<_> = watch.lwps.tracks().collect();
    tracks.sort_by_key(|t| t.tid);
    let mut track_cells = String::new();
    for t in tracks {
        // `,tid,type,` is the same in every row of a track.
        track_cells.clear();
        push_cells(&mut track_cells, &[u64::from(t.tid)]);
        track_cells.push(',');
        track_cells.push_str(&t.kind.label(t.is_openmp).replace(", ", "+"));
        track_cells.push(',');
        for s in t.samples.as_slice() {
            push_fixed(out, s.t_s, 3);
            out.push_str(&track_cells);
            out.push(s.state.code());
            push_cells(
                out,
                &[
                    s.utime,
                    s.stime,
                    s.minflt,
                    s.majflt,
                    s.nswap,
                    u64::from(s.processor),
                    s.vcsw,
                    s.nvcsw,
                ],
            );
            out.push(',');
            if let Some(wait_ns) = s.wait_ns {
                push_scaled(out, wait_ns, 0);
            }
            out.push('\n');
        }
    }
}

/// Appends the per-HWT utilization CSV: header and one row per CPU per
/// interval, CPUs in `/proc/stat` order.
fn push_hwt_csv(out: &mut String, monitor: &Monitor) {
    out.push_str(HWT_HEADER);
    let mut cpu_cell = String::new();
    for (cpu, samples) in monitor.hwt.series() {
        cpu_cell.clear();
        push_cells(&mut cpu_cell, &[u64::from(cpu)]);
        cpu_cell.push(',');
        for s in samples {
            push_fixed(out, s.t_s, 3);
            out.push_str(&cpu_cell);
            push_fixed(out, s.idle_pct, 4);
            out.push(',');
            push_fixed(out, s.system_pct, 4);
            out.push(',');
            push_fixed(out, s.user_pct, 4);
            out.push('\n');
        }
    }
}

/// Appends the node memory CSV.
fn push_memory_csv(out: &mut String, monitor: &Monitor) {
    out.push_str(MEMORY_HEADER);
    for s in monitor.mem.samples() {
        push_fixed(out, s.t_s, 3);
        push_cells(out, &[s.total_kib, s.available_kib, s.watched_rss_kib]);
        out.push('\n');
    }
}

/// Appends the sampling-health CSV: the node row, then one per process.
fn push_health_csv(out: &mut String, monitor: &Monitor) {
    out.push_str(HEALTH_HEADER);
    let row = |out: &mut String,
               scope: &str,
               pid: Pid,
               l: &crate::health::HealthLedger,
               restarts: u64| {
        out.push_str(scope);
        push_cells(
            out,
            &[
                u64::from(pid),
                l.ok,
                l.retried,
                l.degraded,
                l.dropped,
                l.quarantine_events,
                l.reprobes,
                l.backoff_us,
                l.errors_of(SourceErrorKind::NotFound),
                l.errors_of(SourceErrorKind::Io),
                l.errors_of(SourceErrorKind::Malformed),
                l.errors_of(SourceErrorKind::Denied),
                restarts,
            ],
        );
        out.push('\n');
    };
    row(
        out,
        "node",
        0,
        &monitor.node_health,
        monitor.supervisor.restarts,
    );
    for w in monitor.processes() {
        row(out, "process", w.info.pid, &w.health.ledger, 0);
    }
}

/// Appends the overload-control CSV: one row per governor period
/// change, then the watchdog totals.
fn push_overload_csv(out: &mut String, monitor: &Monitor) {
    out.push_str(OVERLOAD_HEADER);
    for c in &monitor.governor.changes {
        push_fixed(out, c.t_s, 3);
        out.push_str(",period_change");
        push_cells(out, &[c.from_us, c.to_us, c.cost_us, c.budget_us]);
        out.push('\n');
    }
    out.push_str(",watchdog");
    push_cells(
        out,
        &[monitor.governor.overruns, monitor.governor.shed_rounds],
    );
    out.push_str(",,\n");
}

/// Appends the node-wide sections of a log — HWT, memory, sampling
/// health and, when the governor acted, overload control: the part
/// that is the same in every process's log of one monitor.
fn push_node_tail(out: &mut String, monitor: &Monitor) {
    out.push_str("=== HWT time series (CSV) ===\n");
    push_hwt_csv(out, monitor);
    out.push_str("=== Memory time series (CSV) ===\n");
    push_memory_csv(out, monitor);
    out.push_str("=== Sampling health (CSV) ===\n");
    push_health_csv(out, monitor);
    if !monitor.governor.changes.is_empty() || monitor.governor.overruns > 0 {
        out.push_str("=== Overload control (CSV) ===\n");
        push_overload_csv(out, monitor);
    }
}

/// Appends what opens one process's log, the §3.6 layout: its report
/// and its LWP section. The node-wide sections follow.
fn push_log_head(out: &mut String, report: &str, watch: &ProcessWatch) {
    out.push_str(report);
    out.push('\n');
    out.push_str("=== LWP time series (CSV) ===\n");
    push_lwp_csv(out, watch);
}

/// The per-LWP CSV dump for one process. Columns follow §3.6: state,
/// minor/major faults, pages swapped, and the CPU the LWP last ran on,
/// plus times and context switches.
pub fn lwp_csv(watch: &ProcessWatch) -> String {
    let mut out = String::with_capacity(lwp_csv_bytes(watch));
    push_lwp_csv(&mut out, watch);
    out
}

/// The per-HWT utilization CSV (Figure 7's data): one row per CPU per
/// interval.
pub fn hwt_csv(monitor: &Monitor) -> String {
    let mut out = String::with_capacity(hwt_csv_bytes(monitor));
    push_hwt_csv(&mut out, monitor);
    out
}

/// The node memory CSV.
pub fn memory_csv(monitor: &Monitor) -> String {
    let rows = monitor.mem.samples().len();
    let mut out = String::with_capacity(MEMORY_HEADER.len() + rows * MEMORY_ROW_BYTES);
    push_memory_csv(&mut out, monitor);
    out
}

/// The sampling-health CSV: one row for the node-level records plus one
/// per process, carrying the [`crate::health::HealthLedger`] tallies the
/// chaos harness reconciles against injected fault logs.
pub fn health_csv(monitor: &Monitor) -> String {
    let mut out = String::new();
    push_health_csv(&mut out, monitor);
    out
}

/// The overload-control CSV: one row per governor period change, so a
/// post-processing script can re-scale the time axis of the other series
/// across sampling-rate changes. The final row carries the watchdog's
/// overrun/shed totals.
pub fn overload_csv(monitor: &Monitor) -> String {
    let mut out = String::new();
    push_overload_csv(&mut out, monitor);
    out
}

/// The full log-file content for one process: report + CSV sections, the
/// §3.6 layout.
pub fn log_content(monitor: &Monitor, pid: Pid, duration_s: f64, report: &str) -> String {
    log_content_with_comm(monitor, pid, duration_s, report, None)
}

/// Like [`log_content`], additionally appending the MPI point-to-point
/// matrix — "the log file also contains the MPI point-to-point data
/// collected between all ranks, which can be post-processed to produce a
/// heatmap" (§3.6).
pub fn log_content_with_comm(
    monitor: &Monitor,
    pid: Pid,
    duration_s: f64,
    report: &str,
    comm: Option<&zerosum_mpi::CommMatrix>,
) -> String {
    let _ = duration_s;
    let Some(watch) = monitor.process(pid) else {
        // An unwatched pid gets its report alone.
        return format!("{report}\n");
    };
    let mut out =
        String::with_capacity(report.len() + lwp_csv_bytes(watch) + node_tail_bytes(monitor) + 64);
    push_log_head(&mut out, report, watch);
    push_node_tail(&mut out, monitor);
    if let Some(m) = comm {
        out.push_str("=== MPI point-to-point (CSV) ===\n");
        out.push_str(&zerosum_mpi::heatmap::to_csv(m));
    }
    out
}

/// Writes every process's log to `dir` as `zerosum.<rank-or-pid>.log`,
/// each under the `PARTIAL` header naming `partial_cause` when there is
/// one. What follows a log's LWP section — the node-wide sections and
/// the END marker — is the same in every file: it is rendered once and
/// written into each from there.
fn write_process_logs(
    monitor: &Monitor,
    dir: &Path,
    partial_cause: Option<&str>,
    mut report_for: impl FnMut(Pid) -> String,
) -> io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut rest = String::with_capacity(node_tail_bytes(monitor) + LOG_END_MARKER.len() + 1);
    push_node_tail(&mut rest, monitor);
    rest.push_str(LOG_END_MARKER);
    rest.push('\n');
    let mut head = String::new();
    let mut paths = Vec::with_capacity(monitor.processes().len());
    for w in monitor.processes() {
        let pid = w.info.pid;
        let tag = w
            .info
            .rank
            .map(|r| format!("{r:05}"))
            .unwrap_or_else(|| pid.to_string());
        let path = dir.join(format!("zerosum.{tag}.log"));
        // As `log_content` resolves it: the first watch of this pid.
        let watch = monitor.process(pid).unwrap_or(w);
        let report = report_for(pid);
        head.clear();
        head.reserve(report.len() + lwp_csv_bytes(watch) + 64);
        if let Some(cause) = partial_cause {
            let _ = write!(head, "{LOG_PARTIAL_MARKER}\ncause: {cause}\n\n");
        }
        push_log_head(&mut head, &report, watch);
        atomic_write_parts(&path, &[&head, &rest])?;
        paths.push(path);
    }
    Ok(paths)
}

/// Writes per-process logs to `dir` as `zerosum.<rank-or-pid>.log`.
/// Returns the written paths.
pub fn write_logs(
    monitor: &Monitor,
    dir: &Path,
    duration_s: f64,
    report_for: impl FnMut(Pid) -> String,
) -> io::Result<Vec<std::path::PathBuf>> {
    let _ = duration_s;
    write_process_logs(monitor, dir, None, report_for)
}

/// The abnormal-exit flush (§3.1): writes whatever has been collected so
/// far for every process, atomically, with a `PARTIAL` header naming the
/// cause. A dying application leaves either no file or a complete one —
/// never a torn log. Returns the written paths.
pub fn write_partial_logs(
    monitor: &Monitor,
    dir: &Path,
    cause: &str,
    report_for: impl FnMut(Pid) -> String,
) -> io::Result<Vec<std::path::PathBuf>> {
    write_process_logs(monitor, dir, Some(cause), report_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZeroSumConfig;
    use crate::monitor::ProcessInfo;
    use crate::report;
    use zerosum_sched::{Behavior, NodeSim, SchedParams, SimProcSource};
    use zerosum_topology::{presets, CpuSet};

    fn monitored() -> (Monitor, Pid) {
        let mut sim = NodeSim::new(presets::laptop_i7_1165g7(), SchedParams::default());
        let pid = sim.spawn_process(
            "app",
            CpuSet::single(0),
            256,
            Behavior::FiniteCompute {
                remaining_us: 5_000_000,
                chunk_us: 10_000,
            },
        );
        let mut mon = Monitor::new(ZeroSumConfig::default());
        mon.watch_process(ProcessInfo {
            pid,
            rank: Some(0),
            hostname: "n".into(),
            gpus: vec![],
            cpus_allowed: Default::default(),
        });
        for i in 1..=3u64 {
            sim.run_for(1_000_000);
            mon.sample(i as f64, &SimProcSource::new(&sim));
        }
        (mon, pid)
    }

    /// The renderers as they were before the row writer: every cell
    /// through `core::fmt`. The product must print what these print.
    mod oracle {
        use super::super::*;

        pub fn lwp_csv(watch: &ProcessWatch) -> String {
            let mut out = String::from(
                "time,tid,type,state,utime,stime,minflt,majflt,nswap,processor,vcsw,nvcsw,wait_ns\n",
            );
            let mut tracks: Vec<_> = watch.lwps.tracks().collect();
            tracks.sort_by_key(|t| t.tid);
            for t in tracks {
                let label = t.kind.label(t.is_openmp).replace(", ", "+");
                for s in &t.samples {
                    writeln!(
                        out,
                        "{:.3},{},{},{},{},{},{},{},{},{},{},{},{}",
                        s.t_s,
                        t.tid,
                        label,
                        s.state.code(),
                        s.utime,
                        s.stime,
                        s.minflt,
                        s.majflt,
                        s.nswap,
                        s.processor,
                        s.vcsw,
                        s.nvcsw,
                        s.wait_ns.map(|w| w.to_string()).unwrap_or_default()
                    )
                    .unwrap();
                }
            }
            out
        }

        pub fn hwt_csv(monitor: &Monitor) -> String {
            let mut out = String::from("time,cpu,idle_pct,system_pct,user_pct\n");
            for (cpu, _) in monitor.hwt.series() {
                if let Some(samples) = monitor.hwt.samples(cpu) {
                    for s in samples {
                        writeln!(
                            out,
                            "{:.3},{},{:.4},{:.4},{:.4}",
                            s.t_s, cpu, s.idle_pct, s.system_pct, s.user_pct
                        )
                        .unwrap();
                    }
                }
            }
            out
        }

        pub fn memory_csv(monitor: &Monitor) -> String {
            let mut out = String::from("time,total_kib,available_kib,watched_rss_kib\n");
            for s in monitor.mem.samples() {
                writeln!(
                    out,
                    "{:.3},{},{},{}",
                    s.t_s, s.total_kib, s.available_kib, s.watched_rss_kib
                )
                .unwrap();
            }
            out
        }

        pub fn health_csv(monitor: &Monitor) -> String {
            let mut out = String::from(
                "scope,pid,ok,retried,degraded,dropped,quarantine_events,reprobes,backoff_us,\
                 not_found,io,malformed,denied,supervisor_restarts\n",
            );
            let row = |out: &mut String,
                       scope: &str,
                       pid: Pid,
                       l: &crate::health::HealthLedger,
                       restarts: u64| {
                writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    scope,
                    pid,
                    l.ok,
                    l.retried,
                    l.degraded,
                    l.dropped,
                    l.quarantine_events,
                    l.reprobes,
                    l.backoff_us,
                    l.errors_of(SourceErrorKind::NotFound),
                    l.errors_of(SourceErrorKind::Io),
                    l.errors_of(SourceErrorKind::Malformed),
                    l.errors_of(SourceErrorKind::Denied),
                    restarts
                )
                .unwrap();
            };
            row(
                &mut out,
                "node",
                0,
                &monitor.node_health,
                monitor.supervisor.restarts,
            );
            for w in monitor.processes() {
                row(&mut out, "process", w.info.pid, &w.health.ledger, 0);
            }
            out
        }

        pub fn overload_csv(monitor: &Monitor) -> String {
            let mut out =
                String::from("time,event,from_period_us,to_period_us,cost_us,budget_us\n");
            for c in &monitor.governor.changes {
                writeln!(
                    out,
                    "{:.3},period_change,{},{},{},{}",
                    c.t_s, c.from_us, c.to_us, c.cost_us, c.budget_us
                )
                .unwrap();
            }
            writeln!(
                out,
                ",watchdog,{},{},,",
                monitor.governor.overruns, monitor.governor.shed_rounds
            )
            .unwrap();
            out
        }

        pub fn log_content_with_comm(
            monitor: &Monitor,
            pid: Pid,
            report: &str,
            comm: Option<&zerosum_mpi::CommMatrix>,
        ) -> String {
            let mut out = String::new();
            out.push_str(report);
            out.push('\n');
            if let Some(watch) = monitor.process(pid) {
                out.push_str("=== LWP time series (CSV) ===\n");
                out.push_str(&lwp_csv(watch));
                out.push_str("=== HWT time series (CSV) ===\n");
                out.push_str(&hwt_csv(monitor));
                out.push_str("=== Memory time series (CSV) ===\n");
                out.push_str(&memory_csv(monitor));
                out.push_str("=== Sampling health (CSV) ===\n");
                out.push_str(&health_csv(monitor));
                if !monitor.governor.changes.is_empty() || monitor.governor.overruns > 0 {
                    out.push_str("=== Overload control (CSV) ===\n");
                    out.push_str(&overload_csv(monitor));
                }
                if let Some(m) = comm {
                    out.push_str("=== MPI point-to-point (CSV) ===\n");
                    out.push_str(&zerosum_mpi::heatmap::to_csv(m));
                }
            }
            out
        }
    }

    /// A source whose kernel lacks `schedstat`: the trait's default
    /// reports it missing, so the round's `wait_ns` cells are empty.
    struct NoSchedstat<'a>(SimProcSource<'a>);

    impl zerosum_proc::ProcSource for NoSchedstat<'_> {
        fn system_stat(&self) -> zerosum_proc::SourceResult<zerosum_proc::SystemStat> {
            self.0.system_stat()
        }
        fn meminfo(&self) -> zerosum_proc::SourceResult<zerosum_proc::MemInfo> {
            self.0.meminfo()
        }
        fn list_tasks(&self, pid: Pid) -> zerosum_proc::SourceResult<Vec<zerosum_proc::Tid>> {
            self.0.list_tasks(pid)
        }
        fn task_stat(
            &self,
            pid: Pid,
            tid: zerosum_proc::Tid,
        ) -> zerosum_proc::SourceResult<zerosum_proc::TaskStat> {
            self.0.task_stat(pid, tid)
        }
        fn task_status(
            &self,
            pid: Pid,
            tid: zerosum_proc::Tid,
        ) -> zerosum_proc::SourceResult<zerosum_proc::TaskStatus> {
            self.0.task_status(pid, tid)
        }
    }

    /// Four ranks of three threads on the Frontier preset, 30 rounds of
    /// 10 ms into rings of 8 (every series wraps), with the first round
    /// (the sample a ring never thins away) read without `schedstat`
    /// (empty `wait_ns`), one overrun (a governor change, then a shed
    /// round) and rank 3 exiting and its pid being recycled (two tracks
    /// of one tid).
    fn frontier_run() -> (Monitor, Vec<Pid>) {
        let busy = |remaining_us| Behavior::FiniteCompute {
            remaining_us,
            chunk_us: 10_000,
        };
        let mut sim = NodeSim::new(
            presets::frontier(),
            SchedParams {
                seed: 7,
                ..SchedParams::default()
            },
        );
        let mut mon = Monitor::new(ZeroSumConfig::default().with_series_capacity(8));
        let mut pids = Vec::new();
        for p in 0..4u32 {
            let mask = CpuSet::from_indices(p * 16..p * 16 + 16);
            let short_lived = p == 3;
            let pid = sim.spawn_process(
                "rank",
                mask.clone(),
                200_000,
                busy(if short_lived { 45_000 } else { 36_000_000_000 }),
            );
            if !short_lived {
                sim.spawn_task(pid, "OpenMP", None, busy(36_000_000_000), false);
                sim.spawn_task(pid, "helper", None, busy(36_000_000_000), false);
            }
            mon.watch_process(ProcessInfo {
                pid,
                rank: Some(p),
                hostname: "frontier".into(),
                gpus: vec![],
                cpus_allowed: mask,
            });
            pids.push(pid);
        }
        let recycled = pids[3];
        let mut respawned = false;
        for round in 1..=30u64 {
            sim.run_for(10_000);
            if !respawned && sim.process_exited(recycled) {
                let mask = CpuSet::from_indices(48u32..64);
                sim.respawn_process_with_pid(recycled, "imposter", mask, 100_000, busy(1 << 40));
                respawned = true;
            }
            let t_s = round as f64 * 0.01;
            if round == 1 {
                mon.sample(t_s, &NoSchedstat(SimProcSource::new(&sim)));
            } else {
                mon.sample(t_s, &SimProcSource::new(&sim));
            }
            mon.note_round_cost(t_s, if round == 9 { 600_000 } else { 50 });
        }
        (mon, pids)
    }

    #[test]
    fn lwp_csv_rows_per_sample() {
        let (mon, pid) = monitored();
        let csv = lwp_csv(mon.process(pid).unwrap());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time,tid,type,state,utime,stime,minflt,majflt,nswap,processor,vcsw,nvcsw,wait_ns"
        );
        assert_eq!(lines.len(), 1 + 3); // header + 3 samples of 1 LWP
        assert!(lines[1].contains(",Main,"));
        assert!(lines[1].ends_with(",0,0") || lines[1].contains(",R,"));
    }

    #[test]
    fn hwt_csv_covers_all_cpus() {
        let (mon, _) = monitored();
        let csv = hwt_csv(&mon);
        // 8 CPUs × 2 delta samples + header.
        assert_eq!(csv.lines().count(), 1 + 8 * 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("2.000,0,"));
    }

    #[test]
    fn memory_csv_has_samples() {
        let (mon, _) = monitored();
        let csv = memory_csv(&mon);
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn comm_matrix_appended_when_provided() {
        let (mon, pid) = monitored();
        let mut m = zerosum_mpi::CommMatrix::new(4);
        m.record(0, 1, 1234);
        let rep = crate::report::render_process_report(&mon, pid, 3.0, None);
        let log = log_content_with_comm(&mon, pid, 3.0, &rep, Some(&m));
        assert!(log.contains("=== MPI point-to-point (CSV) ==="));
        assert!(log.contains("0,1,1234,1"));
        // Without a matrix the section is absent.
        let log = log_content(&mon, pid, 3.0, &rep);
        assert!(!log.contains("MPI point-to-point"));
    }

    #[test]
    fn logs_written_to_disk() {
        let (mon, pid) = monitored();
        let dir = std::env::temp_dir().join(format!("zs-logs-{}", std::process::id()));
        let paths = write_logs(&mon, &dir, 3.0, |p| {
            report::render_process_report(&mon, p, 3.0, None)
        })
        .unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with("zerosum.00000.log"));
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.contains("Duration of execution"));
        assert!(content.contains("=== LWP time series (CSV) ==="));
        assert!(content.contains(&format!("LWP {pid}: Main")));
        assert!(content.ends_with(&format!("{LOG_END_MARKER}\n")));
        // No temp residue left behind by the atomic write.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let dir = std::env::temp_dir().join(format!("zs-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.log");
        atomic_write(&path, "first\n").unwrap();
        atomic_write(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!path.with_file_name("out.log.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_csv_has_node_and_process_rows() {
        let (mon, pid) = monitored();
        let csv = health_csv(&mon);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("scope,pid,ok,retried,degraded,dropped"));
        assert!(lines[1].starts_with("node,0,"));
        assert!(lines[2].starts_with(&format!("process,{pid},3,0,0,0,")));
    }

    #[test]
    fn overload_section_only_when_governor_acted() {
        let (mut mon, pid) = monitored();
        let rep = report::render_process_report(&mon, pid, 3.0, None);
        let log = log_content(&mon, pid, 3.0, &rep);
        assert!(!log.contains("Overload control"), "healthy run is silent");
        mon.note_round_cost(2.0, 600_000);
        let log = log_content(&mon, pid, 3.0, &rep);
        assert!(log.contains("=== Overload control (CSV) ==="));
        assert!(log.contains("2.000,period_change,1000000,2000000,600000,10000"));
        assert!(log.contains(",watchdog,1,"));
    }

    #[test]
    fn partial_logs_are_marked_and_complete() {
        let (mon, _) = monitored();
        let dir = std::env::temp_dir().join(format!("zs-partial-{}", std::process::id()));
        let paths = write_partial_logs(&mon, &dir, "SIGSEGV", |p| {
            report::render_process_report(&mon, p, 3.0, None)
        })
        .unwrap();
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.starts_with(LOG_PARTIAL_MARKER));
        assert!(content.contains("cause: SIGSEGV"));
        assert!(content.contains("=== Sampling health (CSV) ==="));
        assert!(content.ends_with(&format!("{LOG_END_MARKER}\n")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// xorshift64: the differential's value stream.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn push_fixed_prints_what_core_fmt_prints() {
        let mut values: Vec<f64> = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::EPSILON,
            0.5,
            1.5,
            2.5,
            0.05,
            0.15,
            0.25,
            0.35,
            0.999_999_95,
            9.9995,
            99.99995,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            1e15 + 0.5,
            1.8e15,
            1.9e15,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        // Percent-shaped: part * 100 / total, as `HwtTracker` computes.
        for total in [
            1u64, 3, 7, 8, 12, 96, 100, 101, 128, 997, 1000, 1024, 65_521,
        ] {
            for part in (0..=total).step_by((total / 97).max(1) as usize) {
                values.push(part as f64 * 100.0 / total as f64);
            }
        }
        // Time-shaped: k periods.
        for period in [1.0, 0.5, 0.2, 0.1, 0.01, 0.001, 10_000.0 / 1e6] {
            values.extend((0..600u64).map(|k| k as f64 * period));
            values.extend((0..60u64).map(|k| (1 << 20 | k) as f64 * period));
        }
        // Exact ties at every place up to 4: k / 2^j is a finite decimal.
        for j in 1..=10u32 {
            values.extend((0..700u64).map(|k| k as f64 / (1u64 << j) as f64));
        }
        // Random bit patterns, and random values of the series' magnitudes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4_000 {
            values.push(f64::from_bits(next(&mut state)));
            let exponent = 1023 - 40 + next(&mut state) % 94;
            values.push(f64::from_bits(
                exponent << 52 | next(&mut state) & ((1 << 52) - 1),
            ));
        }
        let mut compared = 0u64;
        let mut got = String::new();
        for &v in &values {
            for x in [v, -v] {
                for places in 0..=7usize {
                    got.clear();
                    push_fixed(&mut got, x, places);
                    assert_eq!(
                        got,
                        format!("{x:.places$}"),
                        "{x:?} ({:#x}) places {places}",
                        x.to_bits()
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 300_000, "{compared} comparisons");
        // Beyond the series' own places: to 19 on the integer path, past
        // it through `core::fmt`.
        for &x in values.iter().step_by(37) {
            for places in [8usize, 12, 17, 19, 20, 30] {
                got.clear();
                push_fixed(&mut got, x, places);
                assert_eq!(got, format!("{x:.places$}"), "{x:?} places {places}");
            }
        }
        // The integer cells.
        for v in [0u64, 9, 10, 99, 100, 12_345, u32::MAX as u64, u64::MAX] {
            got.clear();
            push_scaled(&mut got, v, 0);
            assert_eq!(got, v.to_string());
        }
    }

    #[test]
    fn every_csv_and_the_whole_log_equal_the_fmt_oracle() {
        let (mon, pids) = frontier_run();
        // The run holds what it was built to hold.
        let recycled = mon.process(pids[3]).unwrap();
        let twins: Vec<_> = recycled
            .lwps
            .tracks()
            .filter(|t| t.tid == pids[3])
            .collect();
        assert_eq!(twins.len(), 2, "recycled pid: two tracks of one tid");
        assert_eq!(mon.governor.changes.len(), 1);
        assert_eq!(mon.governor.shed_rounds, 1);
        let first = mon.process(pids[0]).unwrap();
        assert!(first.lwps.tracks().all(|t| t.samples.wraps() > 0));
        assert!(first
            .lwps
            .tracks()
            .flat_map(|t| t.samples.iter())
            .any(|s| s.wait_ns.is_none()));
        assert!(lwp_csv(first).lines().any(|l| l.ends_with(',')));

        assert_eq!(hwt_csv(&mon), oracle::hwt_csv(&mon));
        assert_eq!(
            hwt_csv(&mon).lines().count(),
            1 + 128 * mon.hwt.sample_count()
        );
        assert_eq!(memory_csv(&mon), oracle::memory_csv(&mon));
        assert_eq!(health_csv(&mon), oracle::health_csv(&mon));
        assert_eq!(overload_csv(&mon), oracle::overload_csv(&mon));
        let mut comm = zerosum_mpi::CommMatrix::new(4);
        comm.record(0, 1, 1234);
        comm.record(3, 2, 99);
        for w in mon.processes() {
            let pid = w.info.pid;
            assert_eq!(lwp_csv(w), oracle::lwp_csv(w), "pid {pid}");
            let rep = report::render_process_report(&mon, pid, 0.3, None);
            for comm in [None, Some(&comm)] {
                assert_eq!(
                    log_content_with_comm(&mon, pid, 0.3, &rep, comm),
                    oracle::log_content_with_comm(&mon, pid, &rep, comm),
                    "pid {pid}"
                );
            }
        }
        // An unwatched pid gets the report alone.
        assert_eq!(log_content(&mon, 1, 0.3, "report"), "report\n");
    }

    #[test]
    fn written_logs_are_log_content_plus_markers() {
        let (mon, _) = frontier_run();
        let report_for = |pid| report::render_process_report(&mon, pid, 0.3, None);
        let dir = std::env::temp_dir().join(format!("zs-written-{}", std::process::id()));
        let complete = write_logs(&mon, &dir.join("complete"), 0.3, report_for).unwrap();
        let partial =
            write_partial_logs(&mon, &dir.join("partial"), "SIGTERM", report_for).unwrap();
        assert_eq!(complete.len(), 4);
        assert_eq!(partial.len(), 4);
        for ((w, complete), partial) in mon.processes().iter().zip(&complete).zip(&partial) {
            let pid = w.info.pid;
            let expected = format!(
                "{}{LOG_END_MARKER}\n",
                log_content(&mon, pid, 0.3, &report_for(pid))
            );
            assert_eq!(std::fs::read_to_string(complete).unwrap(), expected);
            assert_eq!(
                std::fs::read_to_string(partial).unwrap(),
                format!("{LOG_PARTIAL_MARKER}\ncause: SIGTERM\n\n{expected}")
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

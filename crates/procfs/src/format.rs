//! Generators of `/proc`-style text from the typed records.
//!
//! The simulated node (in `zerosum-sched`) emits *text* in the kernel's
//! formats, and the monitor re-parses it with [`crate::parse`]. Feeding the
//! real parsers keeps the simulation honest: the monitor exercises exactly
//! the code path it uses against a live `/proc`.
//!
//! Every record has two entry points: `format_*` returns a fresh
//! `String`, and `write_*` appends to a caller-owned buffer. The
//! sampling hot path renders thousands of records per second, so the
//! simulator reuses one buffer across reads via the `write_*` forms.

use crate::types::{CpuTimes, MemInfo, SystemStat, TaskStat, TaskStatus};
use std::fmt::Write;

/// Appends `v` in decimal without the `fmt` machinery. The sampling hot
/// path renders hundreds of integers per round; `write!(out, "{v}")`
/// costs a trait dispatch plus padding logic per call, a manual digit
/// loop is several times cheaper and byte-identical (the roundtrip
/// tests pin the output).
fn push_u64(out: &mut String, v: u64) {
    push_u64_padded(out, v, 0);
}

/// Appends `v` right-aligned to `width` with spaces (`{:>width$}`),
/// or unpadded when `width` is 0.
fn push_u64_padded(out: &mut String, mut v: u64, width: usize) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        if let Some(slot) = buf.get_mut(at) {
            *slot = b'0' + (v % 10) as u8;
        }
        v /= 10;
        if v == 0 || at == 0 {
            break;
        }
    }
    let ndigits = buf.len() - at;
    for _ in ndigits..width {
        out.push(' ');
    }
    if let Ok(s) = std::str::from_utf8(buf.get(at..).unwrap_or(&[])) {
        out.push_str(s);
    }
}

/// Appends `v` in decimal (`{}` semantics for `i64`).
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends one `cpu` row of `/proc/stat`. `idx` of `None` renders the
/// aggregate `cpu` row; `Some(n)` renders `cpuN`.
pub fn write_cpu_row(out: &mut String, idx: Option<u32>, t: &CpuTimes) {
    out.push_str("cpu");
    if let Some(n) = idx {
        push_u64(out, u64::from(n));
    }
    for v in [
        t.user, t.nice, t.system, t.idle, t.iowait, t.irq, t.softirq, t.steal,
    ] {
        out.push(' ');
        push_u64(out, v);
    }
    out.push_str(" 0 0\n");
}

/// Appends a [`SystemStat`] in `/proc/stat` format.
pub fn write_system_stat(s: &SystemStat, out: &mut String) {
    write_cpu_row(out, None, &s.total);
    for (idx, t) in &s.cpus {
        write_cpu_row(out, Some(*idx), t);
    }
    let _ = writeln!(out, "ctxt {}", s.ctxt);
    let _ = writeln!(out, "btime 1700000000");
    let _ = writeln!(out, "processes {}", s.processes);
}

/// Renders a [`SystemStat`] in `/proc/stat` format.
pub fn format_system_stat(s: &SystemStat) -> String {
    let mut out = String::new();
    write_system_stat(s, &mut out);
    out
}

/// Appends a [`MemInfo`] in `/proc/meminfo` format.
pub fn write_meminfo(m: &MemInfo, out: &mut String) {
    let row = |out: &mut String, k: &str, v: u64| {
        let _ = writeln!(out, "{k}:{:>12} kB", v);
    };
    row(out, "MemTotal", m.mem_total_kib);
    row(out, "MemFree", m.mem_free_kib);
    row(out, "MemAvailable", m.mem_available_kib);
    row(out, "Buffers", m.buffers_kib);
    row(out, "Cached", m.cached_kib);
    row(out, "SwapTotal", m.swap_total_kib);
    row(out, "SwapFree", m.swap_free_kib);
}

/// Renders a [`MemInfo`] in `/proc/meminfo` format.
pub fn format_meminfo(m: &MemInfo) -> String {
    let mut out = String::new();
    write_meminfo(m, &mut out);
    out
}

/// Appends a [`TaskStat`] as one `/proc/<pid>/task/<tid>/stat` line.
///
/// Fields ZeroSum does not consume are emitted as zeros, at the correct
/// positions, so any conformant parser can read the line. 52 fields per
/// modern kernels; modeled fields are placed by 1-based field number.
pub fn write_task_stat(t: &TaskStat, out: &mut String) {
    push_u64(out, u64::from(t.tid));
    out.push_str(" (");
    out.push_str(&t.comm);
    out.push_str(") ");
    out.push(t.state.code());
    // Zero runs between modeled fields are emitted as precomputed
    // literals (the per-field loop costs ~half the render); the
    // roundtrip and 52-field tests pin the exact byte layout.
    out.push_str(" 0 0 0 0 0 0 "); // fields 4-9
    push_u64(out, t.minflt); // 10
    out.push_str(" 0 "); // 11
    push_u64(out, t.majflt); // 12
    out.push_str(" 0 "); // 13
    push_u64(out, t.utime); // 14
    out.push(' ');
    push_u64(out, t.stime); // 15
    out.push_str(" 0 0 20 "); // 16, 17, priority (18)
    push_i64(out, i64::from(t.nice)); // 19
    out.push(' ');
    push_u64(out, u64::from(t.num_threads)); // 20
    out.push_str(" 0 "); // 21
    push_u64(out, t.starttime); // 22
    out.push_str(" 0 0 0 0 0 0 0 0 0 0 0 0 0 "); // 23-35
    push_u64(out, t.nswap); // 36
    out.push_str(" 0 0 "); // 37, 38
    push_u64(out, u64::from(t.processor)); // 39
    out.push_str(" 0 0 0 0 0 0 0 0 0 0 0 0 0"); // 40-52
}

/// Renders a [`TaskStat`] as one `/proc/<pid>/task/<tid>/stat` line.
pub fn format_task_stat(t: &TaskStat) -> String {
    let mut out = String::new();
    write_task_stat(t, &mut out);
    out
}

/// Appends a [`crate::types::SchedStat`] in schedstat format.
pub fn write_schedstat(s: &crate::types::SchedStat, out: &mut String) {
    push_u64(out, s.run_ns);
    out.push(' ');
    push_u64(out, s.wait_ns);
    out.push(' ');
    push_u64(out, s.timeslices);
    out.push('\n');
}

/// Renders a [`crate::types::SchedStat`] in schedstat format.
pub fn format_schedstat(s: &crate::types::SchedStat) -> String {
    let mut out = String::new();
    write_schedstat(s, &mut out);
    out
}

/// Appends a [`TaskStatus`] in `/proc/<pid>/task/<tid>/status` format.
pub fn write_task_status(s: &TaskStatus, out: &mut String) {
    out.push_str("Name:\t");
    out.push_str(&s.name);
    out.push_str("\nState:\t");
    out.push(s.state.code());
    out.push_str(" (");
    out.push_str(s.state.long_name());
    out.push_str(")\nTgid:\t");
    push_u64(out, u64::from(s.tgid));
    out.push_str("\nPid:\t");
    push_u64(out, u64::from(s.tid));
    out.push_str("\nVmSize:\t");
    push_u64_padded(out, s.vm_size_kib, 8);
    out.push_str(" kB\nVmHWM:\t");
    push_u64_padded(out, s.vm_hwm_kib, 8);
    out.push_str(" kB\nVmRSS:\t");
    push_u64_padded(out, s.vm_rss_kib, 8);
    out.push_str(" kB\n");
    // CpuSet::write_list streams the mask without the intermediate
    // to_list_string allocation.
    out.push_str("Cpus_allowed_list:\t");
    let _ = s.cpus_allowed.write_list(out);
    out.push_str("\nvoluntary_ctxt_switches:\t");
    push_u64(out, s.voluntary_ctxt_switches);
    out.push_str("\nnonvoluntary_ctxt_switches:\t");
    push_u64(out, s.nonvoluntary_ctxt_switches);
    out.push('\n');
}

/// Renders a [`TaskStatus`] in `/proc/<pid>/task/<tid>/status` format.
pub fn format_task_status(s: &TaskStatus) -> String {
    let mut out = String::new();
    write_task_status(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::types::TaskState;
    use zerosum_topology::CpuSet;

    #[test]
    fn manual_integer_rendering_matches_fmt() {
        let mut out = String::new();
        for v in [0u64, 1, 9, 10, 99, 100, 12_345, 4_294_967_295, u64::MAX] {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, format!("{v}"));
            out.clear();
            push_u64_padded(&mut out, v, 8);
            assert_eq!(out, format!("{v:>8}"));
        }
        for v in [0i64, -1, 1, -19, i64::from(i32::MIN), i64::MIN, i64::MAX] {
            out.clear();
            push_i64(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
    }

    #[test]
    fn cpu_rows_print_what_fmt_prints() {
        let t = CpuTimes {
            user: 0,
            nice: 9,
            system: 10,
            idle: u64::MAX,
            iowait: 12_345,
            irq: 1,
            softirq: 99,
            steal: 100,
        };
        for idx in [None, Some(0), Some(127), Some(u32::MAX)] {
            let mut out = String::from("above\n");
            write_cpu_row(&mut out, idx, &t);
            let key = idx.map_or("cpu".to_string(), |n| format!("cpu{n}"));
            let want = format!(
                "above\n{key} {} {} {} {} {} {} {} {} 0 0\n",
                t.user, t.nice, t.system, t.idle, t.iowait, t.irq, t.softirq, t.steal
            );
            assert_eq!(out, want);
        }
    }

    #[test]
    fn system_stat_roundtrip() {
        let s = SystemStat {
            total: CpuTimes {
                user: 100,
                system: 50,
                idle: 850,
                ..Default::default()
            },
            cpus: vec![
                (
                    0,
                    CpuTimes {
                        user: 60,
                        idle: 440,
                        ..Default::default()
                    },
                ),
                (
                    1,
                    CpuTimes {
                        user: 40,
                        idle: 410,
                        ..Default::default()
                    },
                ),
            ],
            ctxt: 12345,
            processes: 42,
        };
        let text = format_system_stat(&s);
        let back = parse::parse_system_stat(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn meminfo_roundtrip() {
        let m = MemInfo {
            mem_total_kib: 527942792,
            mem_free_kib: 4000,
            mem_available_kib: 5000,
            buffers_kib: 10,
            cached_kib: 20,
            swap_total_kib: 0,
            swap_free_kib: 0,
        };
        let back = parse::parse_meminfo(&format_meminfo(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn task_stat_roundtrip() {
        let t = TaskStat {
            tid: 18385,
            comm: "ZeroSum async".into(),
            state: TaskState::Running,
            minflt: 11,
            majflt: 2,
            utime: 264,
            stime: 79,
            nice: 0,
            num_threads: 9,
            processor: 7,
            nswap: 0,
            starttime: 170_043,
        };
        let back = parse::parse_task_stat(&format_task_stat(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn task_stat_line_has_52_fields_and_priority() {
        let t = TaskStat {
            tid: 1,
            comm: "x".into(),
            state: TaskState::Sleeping,
            minflt: 0,
            majflt: 0,
            utime: 0,
            stime: 0,
            nice: -5,
            num_threads: 1,
            processor: 0,
            nswap: 0,
            starttime: 0,
        };
        let line = format_task_stat(&t);
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 52);
        assert_eq!(fields[17], "20", "static priority at field 18");
        assert_eq!(fields[18], "-5", "nice at field 19");
    }

    #[test]
    fn write_forms_append_to_existing_buffers() {
        let mut buf = String::from("prefix\n");
        let ss = crate::types::SchedStat {
            run_ns: 1,
            wait_ns: 2,
            timeslices: 3,
        };
        write_schedstat(&ss, &mut buf);
        assert_eq!(buf, "prefix\n1 2 3\n");
    }

    #[test]
    fn task_status_roundtrip() {
        let s = TaskStatus {
            name: "miniqmc".into(),
            tid: 18592,
            tgid: 18552,
            state: TaskState::Running,
            vm_rss_kib: 120000,
            vm_size_kib: 900000,
            vm_hwm_kib: 130000,
            cpus_allowed: CpuSet::parse_list("1-7").unwrap(),
            voluntary_ctxt_switches: 766,
            nonvoluntary_ctxt_switches: 14,
        };
        let back = parse::parse_task_status(&format_task_status(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parked_state_roundtrips_in_stat_and_status() {
        // `P (parked)`: the kernel prints it for a parked kthread, so
        // both records must take it and give it back.
        let stat = TaskStat {
            tid: 17,
            comm: "cpuhp/1".into(),
            state: TaskState::Parked,
            ..Default::default()
        };
        let line = format_task_stat(&stat);
        assert!(line.starts_with("17 (cpuhp/1) P "));
        assert_eq!(parse::parse_task_stat(&line).unwrap(), stat);
        let status = TaskStatus {
            name: "cpuhp/1".into(),
            tid: 17,
            tgid: 17,
            state: TaskState::Parked,
            ..Default::default()
        };
        let text = format_task_status(&status);
        assert!(text.contains("State:\tP (parked)\n"));
        assert_eq!(parse::parse_task_status(&text).unwrap(), status);
    }
}

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
//! simulator reuses one buffer across reads via the `write_*` forms,
//! and every record is assembled by the one [`Row`] writer.

use crate::row::Row;
use crate::types::{CpuTimes, MemInfo, SystemStat, TaskStat, TaskStatus};

/// Appends one `cpu` row of `/proc/stat`. `idx` of `None` renders the
/// aggregate `cpu` row; `Some(n)` renders `cpuN`.
pub fn write_cpu_row(row: &mut Row, idx: Option<u32>, t: &CpuTimes) {
    row.append("cpu");
    if let Some(n) = idx {
        row.dec(u64::from(n));
    }
    for v in [
        t.user, t.nice, t.system, t.idle, t.iowait, t.irq, t.softirq, t.steal,
    ] {
        row.append(" ");
        row.dec(v);
    }
    row.append(" 0 0\n");
}

/// Appends the lines of `/proc/stat` that follow its `cpu` rows.
pub fn write_system_stat_tail(row: &mut Row, ctxt: u64, processes: u64) {
    row.append("ctxt ");
    row.dec(ctxt);
    row.append("\nbtime 1700000000\nprocesses ");
    row.dec(processes);
    row.append("\n");
}

/// Appends a [`SystemStat`] in `/proc/stat` format.
pub fn write_system_stat(s: &SystemStat, out: &mut String) {
    let mut row = Row::new(out);
    write_cpu_row(&mut row, None, &s.total);
    for (idx, t) in &s.cpus {
        write_cpu_row(&mut row, Some(*idx), t);
    }
    write_system_stat_tail(&mut row, s.ctxt, s.processes);
}

/// Renders a [`SystemStat`] in `/proc/stat` format.
pub fn format_system_stat(s: &SystemStat) -> String {
    let mut out = String::new();
    write_system_stat(s, &mut out);
    out
}

/// Appends a [`MemInfo`] in `/proc/meminfo` format.
pub fn write_meminfo(m: &MemInfo, out: &mut String) {
    let mut row = Row::new(out);
    for (key, v) in [
        ("MemTotal:", m.mem_total_kib),
        ("MemFree:", m.mem_free_kib),
        ("MemAvailable:", m.mem_available_kib),
        ("Buffers:", m.buffers_kib),
        ("Cached:", m.cached_kib),
        ("SwapTotal:", m.swap_total_kib),
        ("SwapFree:", m.swap_free_kib),
    ] {
        row.append(key);
        row.dec_padded(v, 12);
        row.append(" kB\n");
    }
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
    let mut row = Row::new(out);
    row.dec(u64::from(t.tid));
    row.append(" (");
    row.append(&t.comm);
    row.append(") ");
    row.chr(t.state.code());
    // Zero runs between modeled fields are emitted as precomputed
    // literals (the per-field loop costs ~half the render); the
    // roundtrip and 52-field tests pin the exact byte layout.
    row.append(" 0 0 0 0 0 0 "); // fields 4-9
    row.dec(t.minflt); // 10
    row.append(" 0 "); // 11
    row.dec(t.majflt); // 12
    row.append(" 0 "); // 13
    row.dec(t.utime); // 14
    row.append(" ");
    row.dec(t.stime); // 15
    row.append(" 0 0 20 "); // 16, 17, priority (18)
    row.dec_signed(i64::from(t.nice)); // 19
    row.append(" ");
    row.dec(u64::from(t.num_threads)); // 20
    row.append(" 0 "); // 21
    row.dec(t.starttime); // 22
    row.append(" 0 0 0 0 0 0 0 0 0 0 0 0 0 "); // 23-35
    row.dec(t.nswap); // 36
    row.append(" 0 0 "); // 37, 38
    row.dec(u64::from(t.processor)); // 39
    row.append(" 0 0 0 0 0 0 0 0 0 0 0 0 0"); // 40-52
}

/// Renders a [`TaskStat`] as one `/proc/<pid>/task/<tid>/stat` line.
pub fn format_task_stat(t: &TaskStat) -> String {
    let mut out = String::new();
    write_task_stat(t, &mut out);
    out
}

/// Appends a [`crate::types::SchedStat`] in schedstat format.
pub fn write_schedstat(s: &crate::types::SchedStat, out: &mut String) {
    let mut row = Row::new(out);
    row.dec(s.run_ns);
    row.append(" ");
    row.dec(s.wait_ns);
    row.append(" ");
    row.dec(s.timeslices);
    row.append("\n");
}

/// Renders a [`crate::types::SchedStat`] in schedstat format.
pub fn format_schedstat(s: &crate::types::SchedStat) -> String {
    let mut out = String::new();
    write_schedstat(s, &mut out);
    out
}

/// Appends a [`TaskStatus`] in `/proc/<pid>/task/<tid>/status` format.
pub fn write_task_status(s: &TaskStatus, out: &mut String) {
    let mut row = Row::new(out);
    row.append("Name:\t");
    row.append(&s.name);
    row.append("\nState:\t");
    row.chr(s.state.code());
    row.append(" (");
    row.append(s.state.long_name());
    row.append(")\nTgid:\t");
    row.dec(u64::from(s.tgid));
    row.append("\nPid:\t");
    row.dec(u64::from(s.tid));
    row.append("\nVmSize:\t");
    row.dec_padded(s.vm_size_kib, 8);
    row.append(" kB\nVmHWM:\t");
    row.dec_padded(s.vm_hwm_kib, 8);
    row.append(" kB\nVmRSS:\t");
    row.dec_padded(s.vm_rss_kib, 8);
    row.append(" kB\nCpus_allowed_list:\t");
    row.cpu_list(&s.cpus_allowed);
    row.append("\nvoluntary_ctxt_switches:\t");
    row.dec(s.voluntary_ctxt_switches);
    row.append("\nnonvoluntary_ctxt_switches:\t");
    row.dec(s.nonvoluntary_ctxt_switches);
    row.append("\n");
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
            Row::new(&mut out).dec(v);
            assert_eq!(out, format!("{v}"));
            out.clear();
            Row::new(&mut out).dec_padded(v, 8);
            assert_eq!(out, format!("{v:>8}"));
        }
        for v in [0i64, -1, 1, -19, i64::from(i32::MIN), i64::MIN, i64::MAX] {
            out.clear();
            Row::new(&mut out).dec_signed(v);
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
            write_cpu_row(&mut Row::new(&mut out), idx, &t);
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
    fn a_status_longer_than_the_row_buffer_comes_out_whole() {
        // Sparse over 4 096 CPUs: single even CPUs below 2 048, then
        // runs of three in every five.
        let mut list = Vec::new();
        list.extend((0..2048u32).step_by(2).map(|c| c.to_string()));
        list.extend((2048..4096u32).step_by(5).map(|c| format!("{c}-{}", c + 2)));
        let list = list.join(",");
        let s = TaskStatus {
            name: "wide".into(),
            tid: u32::MAX,
            tgid: 4_000_000,
            state: TaskState::Sleeping,
            vm_rss_kib: u64::MAX,
            vm_size_kib: 7,
            vm_hwm_kib: 123_456_789,
            cpus_allowed: CpuSet::parse_list(&list).unwrap(),
            voluntary_ctxt_switches: u64::MAX,
            nonvoluntary_ctxt_switches: 0,
        };
        let mut out = String::from("above\n");
        write_task_status(&s, &mut out);
        let want = format!(
            "above\nName:\t{}\nState:\t{} ({})\nTgid:\t{}\nPid:\t{}\nVmSize:\t{:>8} kB\n\
             VmHWM:\t{:>8} kB\nVmRSS:\t{:>8} kB\nCpus_allowed_list:\t{list}\n\
             voluntary_ctxt_switches:\t{}\nnonvoluntary_ctxt_switches:\t{}\n",
            s.name,
            s.state.code(),
            s.state.long_name(),
            s.tgid,
            s.tid,
            s.vm_size_kib,
            s.vm_hwm_kib,
            s.vm_rss_kib,
            s.voluntary_ctxt_switches,
            s.nonvoluntary_ctxt_switches,
        );
        assert!(list.len() > 8 * crate::row::ROW_BYTES);
        assert_eq!(out, want);
        let back = parse::parse_task_status(out.strip_prefix("above\n").unwrap()).unwrap();
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

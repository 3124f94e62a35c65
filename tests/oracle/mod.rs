//! The `str`-based reference parsers for `stat`, `schedstat`, `status`,
//! `/proc/stat` and `/proc/meminfo`, and the differential that holds
//! the shipped parsers (`zerosum_proc::parse`) equal to them.
//!
//! Test-only by location: `zerosum-proc` includes this file under
//! `#[cfg(test)]` for its fixture and fuzz differentials, and
//! `tests/real_linux.rs` includes it for the live-kernel conformance
//! walk. No library target compiles it, so no product code can call it.
//!
//! The parsers are written for obviousness, not speed: `str::lines`,
//! `split_once`, `str::trim`, `FromStr`, a token vector indexed by the
//! `man 5 proc` field number. They define the semantics —
//! which lines count, which whitespace is trimmed, which value wins
//! when a key repeats, and the exact error text. The shipped parsers
//! read bytes; on bytes that are not UTF-8 (a Latin-1 thread name) the
//! reference is given `String::from_utf8_lossy` of them, which is what
//! the differentials below hold the shipped parsers to.

use zerosum_proc::parse::{self, ParseError};
use zerosum_proc::{CpuTimes, MemInfo, SchedStat, SystemStat, TaskStat, TaskState, TaskStatus};

fn err(what: &'static str, detail: impl Into<String>) -> ParseError {
    ParseError {
        what,
        detail: detail.into(),
    }
}

/// Reference for `parse::parse_system_stat_into`.
pub fn system_stat_into(text: &str, out: &mut SystemStat) -> Result<(), ParseError> {
    out.cpus.clear();
    out.total = CpuTimes::default();
    out.ctxt = 0;
    out.processes = 0;
    let mut saw_total = false;
    for line in text.lines() {
        let mut it = line.split_ascii_whitespace();
        let Some(key) = it.next() else { continue };
        if key == "cpu" {
            out.total = cpu_times(&mut it)?;
            saw_total = true;
        } else if let Some(idx) = key.strip_prefix("cpu") {
            let idx: u32 = idx
                .parse()
                .map_err(|_| err("/proc/stat", format!("bad cpu row {key:?}")))?;
            out.cpus.push((idx, cpu_times(&mut it)?));
        } else if key == "ctxt" {
            out.ctxt = next_u64(&mut it, "/proc/stat ctxt")?;
        } else if key == "processes" {
            out.processes = next_u64(&mut it, "/proc/stat processes")?;
        }
    }
    if !saw_total {
        return Err(err("/proc/stat", "missing aggregate cpu row"));
    }
    out.cpus.sort_by_key(|(i, _)| *i);
    Ok(())
}

fn next_u64<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &'static str,
) -> Result<u64, ParseError> {
    it.next()
        .ok_or_else(|| err(what, "missing field"))?
        .parse()
        .map_err(|_| err(what, "non-numeric field"))
}

fn cpu_times<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<CpuTimes, ParseError> {
    let mut vals = [0u64; 8];
    for (i, v) in vals.iter_mut().enumerate() {
        // Kernels may omit trailing fields (steal etc.); treat as zero.
        match it.next() {
            Some(tok) => {
                *v = tok
                    .parse()
                    .map_err(|_| err("/proc/stat", format!("bad jiffy field {i}")))?
            }
            None if i >= 4 => break,
            None => return Err(err("/proc/stat", "cpu row too short")),
        }
    }
    Ok(CpuTimes {
        user: vals[0],
        nice: vals[1],
        system: vals[2],
        idle: vals[3],
        iowait: vals[4],
        irq: vals[5],
        softirq: vals[6],
        steal: vals[7],
    })
}

/// Reference for `parse::parse_meminfo`.
pub fn meminfo(text: &str) -> Result<MemInfo, ParseError> {
    let mut m = MemInfo::default();
    let mut saw_total = false;
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let value = kib_value(rest.trim());
        match key.trim() {
            "MemTotal" => {
                m.mem_total_kib = value;
                saw_total = true;
            }
            "MemFree" => m.mem_free_kib = value,
            "MemAvailable" => m.mem_available_kib = value,
            "Buffers" => m.buffers_kib = value,
            "Cached" => m.cached_kib = value,
            "SwapTotal" => m.swap_total_kib = value,
            "SwapFree" => m.swap_free_kib = value,
            _ => {}
        }
    }
    if !saw_total {
        return Err(err("/proc/meminfo", "missing MemTotal"));
    }
    Ok(m)
}

/// Reference for `parse::parse_task_stat_view`: `tid (comm) state …`,
/// `comm` ending at the *last* `)`, then the sampled fields by number,
/// ascending — so the first problem in the line is the one reported.
pub fn task_stat(line: &str) -> Result<TaskStat, ParseError> {
    let bad = |detail: String| err("task stat", detail);
    let open = line.find('(').ok_or_else(|| bad("missing '('".into()))?;
    let close = line.rfind(')').ok_or_else(|| bad("missing ')'".into()))?;
    if close < open {
        return Err(bad("mismatched parentheses".into()));
    }
    let tid = line[..open]
        .trim()
        .parse()
        .map_err(|_| bad("bad tid".into()))?;
    // `toks[0]` is field 3 (man 5 proc numbers from 1).
    let toks: Vec<&str> = line[close + 1..].split_ascii_whitespace().collect();
    let field = |n: usize| {
        toks.get(n - 3)
            .copied()
            .ok_or_else(|| bad(format!("missing field {n}")))
    };
    let num = |n: usize| -> Result<u64, ParseError> {
        field(n)?
            .parse()
            .map_err(|_| bad(format!("bad numeric field {n}")))
    };
    let state_ch = field(3)?
        .chars()
        .next()
        .ok_or_else(|| bad("empty state".into()))?;
    let state =
        TaskState::from_code(state_ch).ok_or_else(|| bad(format!("unknown state {state_ch:?}")))?;
    let (minflt, majflt, utime, stime) = (num(10)?, num(12)?, num(14)?, num(15)?);
    let nice = field(19)?.parse().map_err(|_| bad("bad nice".into()))?;
    let (num_threads, starttime, nswap, processor) = (num(20)?, num(22)?, num(36)?, num(39)?);
    Ok(TaskStat {
        tid,
        comm: line[open + 1..close].to_string(),
        state,
        minflt,
        majflt,
        utime,
        stime,
        nice,
        num_threads: num_threads as u32,
        processor: processor as u32,
        nswap,
        starttime,
    })
}

/// Reference for `parse::parse_schedstat`.
pub fn schedstat(text: &str) -> Result<SchedStat, ParseError> {
    let mut it = text.split_ascii_whitespace();
    let mut next = |what: &'static str| -> Result<u64, ParseError> {
        it.next()
            .ok_or_else(|| err("schedstat", format!("missing {what}")))?
            .parse()
            .map_err(|_| err("schedstat", format!("bad {what}")))
    };
    Ok(SchedStat {
        run_ns: next("run_ns")?,
        wait_ns: next("wait_ns")?,
        timeslices: next("timeslices")?,
    })
}

/// Reference for `parse::parse_task_status_into`.
pub fn status_into(text: &str, out: &mut TaskStatus) -> Result<(), ParseError> {
    out.name.clear();
    out.state = TaskState::Sleeping;
    out.vm_rss_kib = 0;
    out.vm_size_kib = 0;
    out.vm_hwm_kib = 0;
    out.cpus_allowed.clear_all();
    out.voluntary_ctxt_switches = 0;
    out.nonvoluntary_ctxt_switches = 0;
    let mut tid = None;
    let mut tgid = None;
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let rest = rest.trim();
        match key.trim() {
            "Name" => {
                out.name.clear();
                out.name.push_str(rest);
            }
            "Pid" => tid = rest.parse().ok(),
            "Tgid" => tgid = rest.parse().ok(),
            "State" => {
                if let Some(c) = rest.chars().next() {
                    out.state = TaskState::from_code(c)
                        .ok_or_else(|| err("task status", format!("unknown state {c:?}")))?;
                }
            }
            "VmRSS" => out.vm_rss_kib = kib_value(rest),
            "VmSize" => out.vm_size_kib = kib_value(rest),
            "VmHWM" => out.vm_hwm_kib = kib_value(rest),
            "Cpus_allowed_list" => {
                out.cpus_allowed
                    .parse_list_into(rest)
                    .map_err(|e| err("task status", format!("bad cpu list: {e}")))?;
            }
            "voluntary_ctxt_switches" => out.voluntary_ctxt_switches = rest.parse().unwrap_or(0),
            "nonvoluntary_ctxt_switches" => {
                out.nonvoluntary_ctxt_switches = rest.parse().unwrap_or(0)
            }
            _ => {}
        }
    }
    out.tid = tid.ok_or_else(|| err("task status", "missing Pid"))?;
    out.tgid = tgid.ok_or_else(|| err("task status", "missing Tgid"))?;
    Ok(())
}

fn kib_value(rest: &str) -> u64 {
    rest.trim_end_matches("kB").trim().parse().unwrap_or(0)
}

/// The one shipped `stat` parser, under each of its public names
/// (borrowed view, the forwarder the benchmark calls, owning, `_into`
/// over a soiled record), against the reference: accept/reject, the
/// exact error, and on accept every field.
pub fn assert_stat_agrees(line: &(impl AsRef<[u8]> + ?Sized)) {
    let line = line.as_ref();
    let shown = line.escape_ascii();
    let want = task_stat(&String::from_utf8_lossy(line));
    let view = parse::parse_task_stat_view(line);
    assert_eq!(
        view.as_ref().map(|v| v.to_owned()).map_err(Clone::clone),
        want,
        "stat parser and oracle disagree on {shown}"
    );
    assert_eq!(parse::parse_task_stat_view_fast(line), view, "{shown}");
    assert_eq!(parse::parse_task_stat(line), want, "owning on {shown}");
    let mut reused = TaskStat {
        comm: "stale-garbage".into(),
        utime: u64::MAX,
        nice: -7,
        ..Default::default()
    };
    let r = parse::parse_task_stat_into(line, &mut reused);
    assert_eq!(r.map(|()| reused), want, "`_into` on {shown}");
}

/// The same differential for `schedstat`.
pub fn assert_schedstat_agrees(text: &(impl AsRef<[u8]> + ?Sized)) {
    let text = text.as_ref();
    assert_eq!(
        parse::parse_schedstat(text),
        schedstat(&String::from_utf8_lossy(text)),
        "schedstat parser and oracle disagree on {}",
        text.escape_ascii()
    );
}

/// Accept/reject, the exact error, and (on accept) every field of the
/// record must agree between the shipped `status` scanner — under both
/// of its public names — and the reference. Each side starts from a
/// soiled record, so a field the scanner forgets to reset shows.
pub fn assert_status_agrees(text: &(impl AsRef<[u8]> + ?Sized)) {
    let text = text.as_ref();
    let shown = text.escape_ascii();
    let soiled = || TaskStatus {
        name: "stale-garbage".into(),
        tid: 77,
        tgid: 77,
        state: TaskState::Zombie,
        vm_rss_kib: u64::MAX,
        vm_size_kib: 9,
        vm_hwm_kib: 9,
        cpus_allowed: zerosum_topology::CpuSet::range(0, 200),
        voluntary_ctxt_switches: 3,
        nonvoluntary_ctxt_switches: 3,
    };
    let (mut reference, mut scanned, mut forwarded) = (soiled(), soiled(), soiled());
    let r = status_into(&String::from_utf8_lossy(text), &mut reference);
    let s = parse::parse_task_status_into(text, &mut scanned);
    let f = parse::parse_task_status_fast(text, &mut forwarded);
    assert_eq!(s, r, "status scanner and oracle disagree on {shown}");
    assert_eq!(f, r, "status forwarder and oracle disagree on {shown}");
    if r.is_ok() {
        assert_eq!(scanned, reference, "status records differ on {shown}");
        assert_eq!(forwarded, reference, "forwarded records differ on {shown}");
    }
}

/// The same differential for `/proc/stat`.
pub fn assert_system_stat_agrees(text: &(impl AsRef<[u8]> + ?Sized)) {
    let text = text.as_ref();
    let shown = text.escape_ascii();
    let soiled = || SystemStat {
        total: CpuTimes {
            user: 7,
            steal: 7,
            ..Default::default()
        },
        cpus: vec![(9, CpuTimes::default()); 3],
        ctxt: 7,
        processes: 7,
    };
    let (mut reference, mut scanned) = (soiled(), soiled());
    let r = system_stat_into(&String::from_utf8_lossy(text), &mut reference);
    let s = parse::parse_system_stat_into(text, &mut scanned);
    assert_eq!(s, r, "/proc/stat scanner and oracle disagree on {shown}");
    if r.is_ok() {
        assert_eq!(scanned, reference, "/proc/stat records differ on {shown}");
    }
}

/// The same differential for `/proc/meminfo`.
pub fn assert_meminfo_agrees(text: &(impl AsRef<[u8]> + ?Sized)) {
    let text = text.as_ref();
    assert_eq!(
        parse::parse_meminfo(text),
        meminfo(&String::from_utf8_lossy(text)),
        "meminfo scanner and oracle disagree on {}",
        text.escape_ascii()
    );
}

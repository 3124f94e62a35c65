// Near-miss twin: destructured and parameter fields on the reviewed
// allowlist, a `&mut String` parameter, and per-round scratch bound
// by a tuple pattern and by a plain `let`.
fn sample_all(mon: &mut Monitor) {
    let Monitor { rss_series, mut watched_rss, .. } = mon;
    rss_series.push(1);
    watched_rss.push(2);
    let (mut spare, _) = (Vec::new(), 0);
    spare.push(3);
    let mut scratch = Vec::new();
    scratch.push(4);
}
fn enlist(processes: &mut Vec<u32>, out: &mut String, pid: u32) {
    processes.push(pid);
    out.push('x');
}

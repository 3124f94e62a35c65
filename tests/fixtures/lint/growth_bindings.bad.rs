// Linted as long-lived monitor state: a name bound by destructuring a
// struct, and a `&mut Vec` parameter, are the fields of those names.
fn sample_all(mon: &mut Monitor) {
    let Monitor { history, mut log, .. } = mon;
    history.push(1);
    log.push(2);
}
fn enlist(watches: &mut Vec<u32>, pid: u32) {
    watches.push(pid);
}

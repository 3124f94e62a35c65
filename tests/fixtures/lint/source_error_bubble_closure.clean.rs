// Near-miss twin: the same lines inside the closure handed to
// `with_retry` — its `?` returns to `with_retry`, which files the error
// in the ledger.
fn read_task(src: &dyn ProcSource, round: &mut Round, pid: u32, tid: u32, arena: &mut ReadArena) {
    let outcome = with_retry(round.ledger, round.backoff_us, || {
        let s = src.task_stat_text(pid, tid, arena)?;
        let free = src.meminfo().map(|m| m.free_kib)?;
        consume(arena.get(s), free);
        Ok(())
    });
    note(outcome);
    let cpus = with_retry(round.ledger, round.backoff_us, || Ok(src.system_stat()?.cpus));
    note(cpus);
}

// Audited as crates/core/src/shard.rs: the round reads `stat` as text;
// a `?` at fn level carries the read's error past the health ledger.
fn read_task(src: &dyn ProcSource, pid: u32, tid: u32, arena: &mut ReadArena) -> SourceResult<()> {
    let s = src.task_stat_text(pid, tid, arena)?;
    consume(arena.get(s));
    Ok(())
}
// So does a `?` ending a chain that hangs off the read, and one in an
// argument of `with_retry` that is not its closure, whatever closures
// the arguments before it hold.
fn read_mem(src: &dyn ProcSource, round: &mut Round) -> SourceResult<()> {
    let free = src.meminfo().map(|m| m.free_kib)?;
    let outcome = with_retry(pick(|r| r.res), src.system_stat()?, round.backoff_us, || Ok(free));
    note(outcome);
    Ok(())
}

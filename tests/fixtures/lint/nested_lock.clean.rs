// Near-miss twin: the same two locks, each guard dropped before the
// next lock is taken.
fn ab(s: &Shared) {
    {
        let a = s.alpha.lock();
        drop(a);
    }
    let b = s.beta.lock();
    drop(b);
}

fn one_statement_each(s: &Shared) {
    s.alpha.lock().push(1);
    s.beta.lock().push(2);
}

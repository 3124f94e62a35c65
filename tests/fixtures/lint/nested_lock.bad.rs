// Audited standalone: one function takes `beta` while a bound `alpha`
// guard is live. No caller takes the pair the other way round — one
// nesting in one order is already the finding.
fn ab(s: &Shared) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    drop((a, b));
}

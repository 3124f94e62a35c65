// Near-miss twin: a thread-local's `.with(` and a slice's `.iter(` in a
// file that never names the type.
fn entry(v: &[f64]) -> f64 {
    ROLES.with(|r| r.len() as f64) + v.iter().sum::<f64>()
}

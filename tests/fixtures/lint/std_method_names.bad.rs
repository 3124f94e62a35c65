// The true edges: this file names `Metrics`, so `.with(` and `.iter(`
// may be its methods.
fn entry(m: Metrics) -> f64 {
    m.with(9, 1.0).iter().sum()
}

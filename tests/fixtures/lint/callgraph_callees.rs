// The callees of the two call-graph precision pairs, audited as
// crates/apps/src/synthetic.rs: a free `spawn`, and a type whose
// methods carry std's names — each ending in a panic site.
pub fn spawn(sim: &mut Sim, n: usize) -> u32 {
    sim.tasks[n].tid
}

pub struct Metrics {
    values: [f64; 4],
}

impl Metrics {
    pub fn with(mut self, at: usize, v: f64) -> Self {
        self.values[at] = v;
        self
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..4).map(move |at| self.values[at])
    }
}

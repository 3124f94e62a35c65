// The true edge: `synthetic::spawn` is the free fn of synthetic.rs.
fn entry(sim: &mut Sim) -> u32 {
    synthetic::spawn(sim, 3)
}

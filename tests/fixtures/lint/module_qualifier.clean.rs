// Near-miss twin: `thread::spawn` names std's module, not synthetic.rs.
fn entry() {
    let worker = thread::spawn(move || idle());
    let _ = worker.join();
}

fn idle() {}

//! Near-miss twin: `self.send(..)` is the type's own method, which
//! queues the frame for the next flush and returns — `NodeAgent::send`
//! under `Collector::pump_frames` has this shape.

struct Agent {
    queue: VecDeque<u64>,
}

impl Agent {
    fn pump(&mut self) {
        self.offer(1);
    }

    fn offer(&mut self, x: u64) {
        self.send(x);
    }

    fn send(&mut self, x: u64) {
        self.queue.push_back(x);
    }
}

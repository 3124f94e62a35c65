//! Fixture: a pump hands its frames to a channel. `self.tx.send(..)` is
//! std's blocking channel op — a full bounded channel parks the pump.

struct Agent {
    tx: SyncSender<u64>,
}

impl Agent {
    fn pump(&mut self) {
        self.offer(1);
    }

    fn offer(&mut self, x: u64) {
        let _ = self.tx.send(x);
    }
}

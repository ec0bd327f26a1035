//! Fixture: an AB/BA lock-order inversion.
//!
//! `reschedule` holds `sched` while `bump_stats` takes `stats`;
//! `report` takes them in the opposite order. The lock-acquisition
//! graph has the cycle Pool::sched -> Pool::stats -> Pool::sched.

use std::sync::Mutex;

pub struct Pool {
    sched: Mutex<u32>,
    stats: Mutex<u32>,
}

impl Pool {
    pub fn reschedule(&self) {
        let _guard = self.sched.lock();
        self.bump_stats();
    }

    fn bump_stats(&self) {
        let _s = self.stats.lock();
    }

    pub fn report(&self) {
        let _s = self.stats.lock();
        let _g = self.sched.lock();
    }
}

/// The runtime crate itself may create threads: `no-ambient-thread`
/// stays silent here.
pub fn start_worker() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}

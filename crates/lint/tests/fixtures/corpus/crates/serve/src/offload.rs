//! Fixture: a private executor beside the runtime crate.
//!
//! `offload` fans out through its own `thread::scope` and `named`
//! builds a thread by hand; `no-ambient-thread` flags both. The test
//! module spawns a thread too — a trap that must stay silent.

pub fn offload(work: Vec<u32>) -> u32 {
    std::thread::scope(|s| {
        let h = s.spawn(|| work.iter().sum::<u32>());
        h.join().unwrap_or(0)
    })
}

pub fn named() {
    let _side = std::thread::Builder::new().name("side".to_string());
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        let h = std::thread::spawn(|| 1);
        assert_eq!(h.join().unwrap(), 1);
    }
}

//! The traced run's span recorder: the benchmark's own clock reads
//! around each call it makes into a layer, plus counts taken at the same
//! call sites. Nothing here reaches inside the program.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time and counts per layer, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    busy: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f` inside a span named `name` and adds its wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Adds `d` to `name`'s busy time.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        *self.busy.entry(name).or_default() += d;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Busy time of `name` in milliseconds (0 when never entered).
    pub fn ms(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// The count `name` (0 when never counted).
    pub fn n(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another recorder's spans and counts into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (k, d) in &other.busy {
            self.add(k, *d);
        }
        for (k, n) in &other.counts {
            self.count(k, *n);
        }
    }
}

/// Wall time no top-level span accounts for: `wall_ms` minus the sum of
/// the `top` spans. Top-level spans are meant to be the calls the driving
/// thread makes one after another, so this is small and never negative:
/// a negative value means two top-level spans overlap (one is nested in
/// another), and a large one means work ran outside every span.
/// `run.py` checks both on every traced repetition.
pub fn unattributed_ms(wall_ms: f64, layers: &Layers, top: &[&str]) -> f64 {
    wall_ms - top.iter().map(|k| layers.ms(k)).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn layers_plus_unattributed_reconcile_with_wall() {
        let mut layers = Layers::default();
        let wall = Instant::now();
        layers.time("a", || spin(Duration::from_millis(4)));
        spin(Duration::from_millis(3)); // no span covers this
        layers.time("b", || spin(Duration::from_millis(2)));
        layers.time("a", || spin(Duration::from_millis(1)));
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let top = ["a", "b"];
        let rest = unattributed_ms(wall_ms, &layers, &top);
        let sum = layers.ms("a") + layers.ms("b") + rest;
        assert!((sum - wall_ms).abs() < 1e-9, "{sum} vs {wall_ms}");
        assert!(layers.ms("a") >= 5.0 && layers.ms("b") >= 2.0);
        assert!(rest >= 3.0, "the uncovered gap must show as unattributed, got {rest}");
    }

    #[test]
    fn nested_top_level_spans_leave_a_negative_remainder() {
        let mut layers = Layers::default();
        let mut inner = Layers::default();
        let wall = Instant::now();
        layers.time("outer", || inner.time("inner", || spin(Duration::from_millis(3))));
        layers.merge(&inner);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        // "inner" ran inside "outer": listing both as top-level counts it twice.
        let rest = unattributed_ms(wall_ms, &layers, &["outer", "inner"]);
        assert!(rest <= -2.5, "double-counted time must show as negative, got {rest}");
    }

    #[test]
    fn merge_adds_busy_time_and_counts() {
        let mut a = Layers::default();
        a.add("x", Duration::from_millis(2));
        a.count("n", 3.0);
        let mut b = Layers::default();
        b.add("x", Duration::from_millis(5));
        b.count("n", 1.0);
        b.count("m", 7.0);
        a.merge(&b);
        assert!((a.ms("x") - 7.0).abs() < 1e-9);
        assert_eq!(a.n("n"), 4.0);
        assert_eq!(a.n("m"), 7.0);
        assert_eq!(a.ms("absent"), 0.0);
    }
}

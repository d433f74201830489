//! Clock-free phase observation for serving layers.
//!
//! The serving layer wants per-stage timings (λ estimation, selection, the noise
//! draw, the sharded count merge, consistency) without this crate ever touching a
//! clock — the workspace `wall-clock` audit lint keeps timing sources out of every
//! mechanism crate, so nothing time-dependent can leak into released bytes.
//!
//! The [`PhaseObserver`] trait squares that circle with opaque tokens: the observer
//! mints `u64` instants via [`PhaseObserver::now`] (the service derives them from
//! its own `Instant`), and the algorithm only threads the tokens back into
//! [`PhaseObserver::phase`] at stage boundaries. `pb-core` never interprets a
//! token, and the no-op observer behind the plain `run*` entry points makes the
//! whole facility free when nobody is watching. Observation is strictly passive:
//! the observer sees stage boundaries *after* the mechanism has committed to its
//! draws, so the released bytes are byte-identical with and without one attached
//! (pinned-seed tested in `pb-service`).

/// Observes the phases of one PrivBasis run, using opaque caller-minted instants.
pub trait PhaseObserver {
    /// Mints an opaque instant token (the service returns microseconds since its
    /// own epoch; the algorithm never interprets the value).
    fn now(&self) -> u64;

    /// Records that phase `name` ran from `started` to `ended` (tokens from
    /// [`PhaseObserver::now`]).
    fn phase(&self, name: &'static str, started: u64, ended: u64);
}

/// The do-nothing observer behind the plain `run*` entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PhaseObserver for NoopObserver {
    fn now(&self) -> u64 {
        0
    }

    fn phase(&self, _name: &'static str, _started: u64, _ended: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A counting observer whose clock ticks once per `now()` call.
    struct Recorder {
        ticks: std::cell::Cell<u64>,
        phases: RefCell<Vec<(&'static str, u64, u64)>>,
    }

    impl PhaseObserver for Recorder {
        fn now(&self) -> u64 {
            let t = self.ticks.get() + 1;
            self.ticks.set(t);
            t
        }

        fn phase(&self, name: &'static str, started: u64, ended: u64) {
            self.phases.borrow_mut().push((name, started, ended));
        }
    }

    #[test]
    fn observed_run_records_phases_without_changing_the_release() {
        use crate::{PrivBasis, QueryContext};
        use pb_dp::Epsilon;
        use pb_fim::TransactionDb;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let db = TransactionDb::from_transactions(vec![
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 1, 2],
            vec![2, 3],
            vec![0, 1],
            vec![1, 2],
        ]);
        let context = QueryContext::new(std::sync::Arc::new(db));
        let pb = PrivBasis::with_defaults();
        let plain = pb
            .run_shared(
                &mut StdRng::seed_from_u64(7),
                &context,
                3,
                Epsilon::Finite(1.0),
            )
            .unwrap();
        let recorder = Recorder {
            ticks: std::cell::Cell::new(0),
            phases: RefCell::new(Vec::new()),
        };
        let observed = pb
            .run_shared_observed(
                &mut StdRng::seed_from_u64(7),
                &context,
                3,
                Epsilon::Finite(1.0),
                &recorder,
            )
            .unwrap();
        // Observation is invisible in released bytes.
        assert_eq!(plain.itemsets, observed.itemsets);
        assert_eq!(plain.lambda, observed.lambda);
        assert_eq!(plain.basis_set, observed.basis_set);
        // …and the phases were seen, in pipeline order, with sane token ordering.
        let phases = recorder.phases.borrow();
        let names: Vec<&str> = phases.iter().map(|(n, _, _)| *n).collect();
        assert!(names.contains(&"lambda"), "{names:?}");
        assert!(names.contains(&"select_items"), "{names:?}");
        for counting in ["noise_draw", "shard_merge", "reconstruct"] {
            assert!(names.contains(&counting), "{names:?}");
        }
        assert!(names.contains(&"consistency"), "{names:?}");
        for (name, started, ended) in phases.iter() {
            assert!(started <= ended, "{name}: {started} > {ended}");
        }
    }
}

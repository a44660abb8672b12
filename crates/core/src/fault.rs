//! Deterministic fail-point registry (feature `fault-injection`).
//!
//! Production code drops [`point`] markers at named sites; with the
//! `fault-injection` feature **off** (the default) every marker compiles
//! to an inlined empty function — zero branches, zero atomics, nothing
//! for the optimizer to keep. With the feature **on**, tests arm sites
//! with a `Schedule` + `FaultAction` and the marked code panics,
//! sleeps, or cancels on exactly the scheduled hits — replayable because
//! schedules are pure functions of `(seed, hit index)`, never of wall
//! clock or a global RNG.
//!
//! Sites wired through the stack (grep for `fault::point` to audit):
//!
//! | site | fires |
//! |---|---|
//! | `greedy.round` | at each greedy round boundary |
//! | `greedy.eval.block` | after each `cancel_check_every` evaluation block |
//! | `engine.build.propagation` | before the X^(k) propagation build |
//! | `engine.build.rows` | before the influence-row build |
//! | `engine.build.index` | before the activation-index build |
//! | `engine.build.balls` | before the ball-membership build |
//! | `engine.build.nn_dmax` | before the NN `d_max` build |
//! | `service.request` | at the top of every `GrainService` selection |
//! | `scheduler.dispatch` | in the worker, before a group is dispatched |
//! | `edge.accept` | as an accepted connection starts being served |
//! | `edge.read` | in the connection reader, before each frame read |
//! | `edge.write` | in the connection writer, before each frame write |
//! | `edge.disconnect` | after a ticket resolves, before its response is written (a `Panic` here simulates disconnect-before-response) |
//!
//! The registry is process-global; tests that arm sites must run
//! serially or target sites the other tests never cross, and should
//! `reset()` in a drop guard so a failing assertion cannot leak an armed
//! panic into the next test.

#[cfg(feature = "fault-injection")]
pub use enabled::{arm, disarm, hits, reset, FaultAction, Schedule};

use crate::cancel::CancelToken;

/// Marks a named fail-point site. No-op (and fully inlined away) unless
/// the `fault-injection` feature is enabled and the site is armed.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn point(_site: &str, _cancel: Option<&CancelToken>) {}

/// Marks a named fail-point site. If the site is armed and its schedule
/// selects this hit, the armed [`FaultAction`] executes here.
#[cfg(feature = "fault-injection")]
pub fn point(site: &str, cancel: Option<&CancelToken>) {
    enabled::hit(site, cancel);
}

#[cfg(feature = "fault-injection")]
mod enabled {
    use super::CancelToken;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::time::{Duration, Instant};

    /// What an armed site does on a scheduled hit.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultAction {
        /// Panic with a message naming the site (exercises isolation).
        Panic,
        /// Sleep for the given duration (widens race windows on demand).
        Delay(Duration),
        /// Trip the site's [`CancelToken`] *deadline* (so `OnDeadline`
        /// policies apply, exactly like a real deadline expiry). No-op at
        /// sites that carry no token.
        Cancel,
    }

    /// Which hits of a site fire. Hit indices are 1-based and counted
    /// per site since the last [`reset`]/[`arm`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Schedule {
        /// Fire on exactly the `n`-th hit.
        Nth(u64),
        /// Fire on every `n`-th hit (n ≥ 1).
        EveryNth(u64),
        /// Fire on ~1-in-`one_in` hits, chosen by a seeded hash of the
        /// hit index — deterministic and replayable for a given seed.
        Seeded { seed: u64, one_in: u64 },
    }

    impl Schedule {
        fn fires(self, hit: u64) -> bool {
            match self {
                Schedule::Nth(n) => hit == n,
                Schedule::EveryNth(n) => n > 0 && hit % n == 0,
                Schedule::Seeded { seed, one_in } => {
                    one_in > 0
                        && splitmix64(seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % one_in == 0
                }
            }
        }
    }

    /// SplitMix64 finalizer: a well-mixed pure function of its input.
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    struct Site {
        schedule: Schedule,
        action: FaultAction,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Site>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Site>> {
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site`: hits matching `schedule` execute `action`. Re-arming
    /// resets the site's hit counter.
    pub fn arm(site: &str, schedule: Schedule, action: FaultAction) {
        lock().insert(
            site.to_string(),
            Site {
                schedule,
                action,
                hits: 0,
            },
        );
    }

    /// Disarms `site` (no-op if it was not armed).
    pub fn disarm(site: &str) {
        lock().remove(site);
    }

    /// Disarms every site and forgets all hit counters.
    pub fn reset() {
        lock().clear();
    }

    /// How many times `site` has been crossed since it was armed.
    pub fn hits(site: &str) -> u64 {
        lock().get(site).map_or(0, |s| s.hits)
    }

    pub(super) fn hit(site: &str, cancel: Option<&CancelToken>) {
        // Decide under the lock, act outside it: a Delay must not stall
        // every other site in the process, and a Panic must not poison
        // the registry for the cleanup that follows.
        let action = {
            let mut sites = lock();
            let Some(entry) = sites.get_mut(site) else {
                return;
            };
            entry.hits += 1;
            let hit = entry.hits;
            entry.schedule.fires(hit).then_some(entry.action)
        };
        match action {
            None => {}
            Some(FaultAction::Panic) => panic!("fault injected at {site}"),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Cancel) => {
                if let Some(token) = cancel {
                    token.set_deadline(Some(Instant::now()));
                }
            }
        }
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Disarms on drop so a failed assertion cannot leak armed faults.
    struct Guard(&'static str);
    impl Drop for Guard {
        fn drop(&mut self) {
            disarm(self.0);
        }
    }

    #[test]
    fn unarmed_sites_are_inert() {
        point("fault.test.unarmed", None);
        assert_eq!(hits("fault.test.unarmed"), 0);
    }

    #[test]
    fn nth_schedule_fires_exactly_once() {
        let _guard = Guard("fault.test.nth");
        arm("fault.test.nth", Schedule::Nth(3), FaultAction::Cancel);
        let token = crate::cancel::CancelToken::new();
        for _ in 0..2 {
            point("fault.test.nth", Some(&token));
        }
        assert!(!token.is_cancelled());
        point("fault.test.nth", Some(&token));
        assert!(token.is_cancelled(), "third hit fires");
        // Deadline-style trip: OnDeadline policies apply.
        assert_eq!(token.cause(), Some(crate::cancel::CancelCause::Deadline));
        assert_eq!(hits("fault.test.nth"), 3);
    }

    #[test]
    fn seeded_schedule_replays_identically() {
        let _guard = Guard("fault.test.seeded");
        let run = || {
            arm(
                "fault.test.seeded",
                Schedule::Seeded {
                    seed: 42,
                    one_in: 4,
                },
                FaultAction::Delay(Duration::ZERO),
            );
            // Record which of 64 hits fired by probing the counter deltas
            // via a Cancel companion token per hit.
            let mut fired = Vec::new();
            for i in 0..64u64 {
                let token = crate::cancel::CancelToken::new();
                disarm("fault.test.seeded.probe");
                arm(
                    "fault.test.seeded.probe",
                    Schedule::Seeded {
                        seed: 42,
                        one_in: 4,
                    },
                    FaultAction::Cancel,
                );
                // Advance the probe site to hit index i+1 deterministically.
                for _ in 0..i {
                    point("fault.test.seeded.probe", None);
                }
                point("fault.test.seeded.probe", Some(&token));
                fired.push(token.is_cancelled());
            }
            fired
        };
        assert_eq!(run(), run(), "same seed, same schedule");
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _guard = Guard("fault.test.panic");
        arm("fault.test.panic", Schedule::Nth(1), FaultAction::Panic);
        let err = std::panic::catch_unwind(|| point("fault.test.panic", None))
            .expect_err("armed panic fires");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fault.test.panic"), "{msg}");
    }
}

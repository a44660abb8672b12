//! Greedy maximization: Algorithm 1 and its CELF lazy variant.
//!
//! For monotone submodular `F`, plain greedy attains `F(S) ≥ (1 − 1/e)
//! F(S*)` (Nemhauser et al.). CELF exploits submodularity further: a
//! candidate's cached gain from an earlier round upper-bounds its current
//! gain, so the top of a max-heap can be accepted as soon as its cached
//! gain is fresh — identical output, far fewer evaluations.
//!
//! Neither algorithm looks at the budget before it stops: a run at budget
//! `b` is the first `b` picks of a run at any larger budget. A complete
//! [`GreedyTrace`] therefore answers every smaller budget, and
//! [`replay`] turns it back into the exact trace a fresh run at that
//! budget would return — evaluation count, cancellation checkpoints and
//! fault sites included — by re-adding the picks instead of re-evaluating
//! candidates.

use crate::cancel::{CancelCause, CancelToken};
use crate::config::GreedyAlgorithm;
use crate::fault;
use crate::objective::MarginalObjective;

/// Outcome of a greedy run.
#[derive(Clone, Debug, PartialEq)]
pub struct GreedyTrace {
    /// Selected seeds in pick order.
    pub selected: Vec<u32>,
    /// `F(S)` after each pick (length = `selected.len()`).
    pub objective_trace: Vec<f64>,
    /// Number of marginal-gain evaluations performed.
    pub evaluations: usize,
    /// `evaluations_at[i]` is the evaluation count a run at budget `i`
    /// reports: the count when pick `i` was committed, and at index 0 the
    /// count before the first pick (CELF seeds its heap first). One entry
    /// per budget this run answers in full — `selected.len() + 1`, or
    /// empty for a CELF run cancelled while seeding.
    pub evaluations_at: Vec<usize>,
    /// `Some(cause)` if the run stopped early at a cooperative
    /// cancellation checkpoint. The picks made so far are byte-for-byte
    /// a prefix of the uncancelled run: checkpoints sit at round
    /// boundaries and between evaluations, never between choosing a
    /// candidate and committing it.
    pub cancelled: Option<CancelCause>,
}

/// Algorithm 1: evaluates every remaining candidate each round.
///
/// Ties break toward the smaller node id, making runs deterministic.
///
/// Polls `cancel` at every round boundary and after every `check_every`
/// marginal-gain evaluations (`usize::MAX` polls rounds only). On a trip
/// the trace is returned as-is (an exact prefix of the uncancelled run)
/// with [`GreedyTrace::cancelled`] set; no pick is ever half-committed.
/// An untripped token changes nothing: the selection, trace, and
/// evaluation count are bit-identical at any `check_every`.
pub fn plain_greedy(
    objective: &mut impl MarginalObjective,
    candidates: &[u32],
    budget: usize,
    cancel: &CancelToken,
    check_every: usize,
) -> GreedyTrace {
    let budget = budget.min(candidates.len());
    let mut ck = Checkpoints::new(Some(cancel), check_every);
    let mut remaining: Vec<u32> = candidates.to_vec();
    remaining.sort_unstable();
    remaining.dedup();
    let mut selected = Vec::with_capacity(budget);
    let mut trace = Vec::with_capacity(budget);
    let mut evaluations_at = Vec::with_capacity(budget + 1);
    evaluations_at.push(0);
    let mut cancelled = None;
    'rounds: for _ in 0..budget {
        if let Some(cause) = ck.round() {
            cancelled = Some(cause);
            break;
        }
        let mut best: Option<(usize, f64)> = None;
        for (pos, &c) in remaining.iter().enumerate() {
            let gain = objective.marginal_gain(c);
            if let Some(cause) = ck.eval() {
                // Abandon the half-scanned round without picking: the
                // committed prefix stays exact.
                cancelled = Some(cause);
                break 'rounds;
            }
            // Tie-break toward the smaller node id (swap_remove below
            // shuffles `remaining`, so position order is not id order).
            let better = match best {
                None => true,
                Some((bpos, bg)) => gain > bg || (gain == bg && c < remaining[bpos]),
            };
            if better {
                best = Some((pos, gain));
            }
        }
        let Some((pos, _)) = best else { break };
        let chosen = remaining.swap_remove(pos);
        objective.add(chosen);
        selected.push(chosen);
        trace.push(objective.value());
        evaluations_at.push(ck.evals);
    }
    GreedyTrace {
        selected,
        objective_trace: trace,
        evaluations: ck.evals,
        evaluations_at,
        cancelled,
    }
}

/// CELF lazy greedy.
///
/// Maintains a max-heap of `(cached_gain, candidate)`; a popped candidate
/// whose cache is stale is re-evaluated and pushed back. Requires `F`
/// submodular for exactness (property-tested against [`plain_greedy`]).
///
/// Polls `cancel` at every acceptance (round) boundary and after every
/// `check_every` evaluations (initial heap seeding and stale
/// re-evaluations both count). Same prefix guarantee as
/// [`plain_greedy`]; an untripped token changes no bit.
pub fn lazy_greedy(
    objective: &mut impl MarginalObjective,
    candidates: &[u32],
    budget: usize,
    cancel: &CancelToken,
    check_every: usize,
) -> GreedyTrace {
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry {
        gain: f64,
        /// Stored negated so equal gains pop the smaller id first.
        neg_id: i64,
        round: usize,
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .total_cmp(&other.gain)
                .then(self.neg_id.cmp(&other.neg_id))
        }
    }

    let budget = budget.min(candidates.len());
    let mut ck = Checkpoints::new(Some(cancel), check_every);
    let mut uniq: Vec<u32> = candidates.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let mut cancelled = None;
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(uniq.len());
    for &c in &uniq {
        heap.push(Entry {
            gain: objective.marginal_gain(c),
            neg_id: -(c as i64),
            round: 0,
        });
        if let Some(cause) = ck.eval() {
            cancelled = Some(cause);
            break;
        }
    }
    let mut selected = Vec::with_capacity(budget);
    let mut trace = Vec::with_capacity(budget);
    let mut evaluations_at = Vec::with_capacity(budget + 1);
    if cancelled.is_none() {
        evaluations_at.push(ck.evals);
    }
    let mut round = 0usize;
    while cancelled.is_none() && selected.len() < budget {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Round boundary: the next pick is decided but not yet
            // committed — the last safe place to stop.
            if let Some(cause) = ck.round() {
                cancelled = Some(cause);
                break;
            }
            let c = (-top.neg_id) as u32;
            objective.add(c);
            selected.push(c);
            trace.push(objective.value());
            evaluations_at.push(ck.evals);
            round += 1;
        } else {
            let c = (-top.neg_id) as u32;
            heap.push(Entry {
                gain: objective.marginal_gain(c),
                neg_id: top.neg_id,
                round,
            });
            if let Some(cause) = ck.eval() {
                cancelled = Some(cause);
                break;
            }
        }
    }
    GreedyTrace {
        selected,
        objective_trace: trace,
        evaluations: ck.evals,
        evaluations_at,
        cancelled,
    }
}

/// Replays the first `budget` picks of `run` into a fresh `objective`
/// instead of re-running greedy, calling `on_pick` after each commit.
///
/// `run` must be a trace of the same objective over the same candidates,
/// and `budget` (already clamped to the candidate count) must not exceed
/// its length unless the run completed and exhausted its candidates.
/// The result is then bit-identical to what [`plain_greedy`] or
/// [`lazy_greedy`] would return at `budget`: picks, objective trace
/// (the same `add`s in the same order), and evaluation count, read from
/// [`GreedyTrace::evaluations_at`]. Only the `add`s run — `O(budget)`
/// commits, no marginal-gain evaluations.
///
/// With `checkpoints = Some((algorithm, cancel, check_every))` the replay
/// also crosses every cancellation checkpoint and fault site the original
/// run crossed before its `budget`-th commit, in the same order and at
/// the same evaluation counts, so a token or armed fault that would have
/// stopped that run stops the replay at the same prefix. `None` crosses
/// nothing (a replay of work that has just run).
pub fn replay<O: MarginalObjective>(
    objective: &mut O,
    run: &GreedyTrace,
    budget: usize,
    checkpoints: Option<(GreedyAlgorithm, &CancelToken, usize)>,
    mut on_pick: impl FnMut(&O),
) -> GreedyTrace {
    debug_assert!(
        run.cancelled.is_none() || budget <= run.selected.len(),
        "a cancelled run answers only its own prefix"
    );
    let at = &run.evaluations_at;
    let picks = budget.min(run.selected.len());
    let plain = matches!(checkpoints, Some((GreedyAlgorithm::Plain, _, _)));
    let mut ck = match checkpoints {
        Some((_, cancel, check_every)) => Checkpoints::new(Some(cancel), check_every),
        None => Checkpoints::new(None, 1),
    };
    let mut out = GreedyTrace {
        selected: Vec::with_capacity(picks),
        objective_trace: Vec::with_capacity(picks),
        evaluations: 0,
        evaluations_at: Vec::with_capacity(picks + 1),
        cancelled: None,
    };
    out.cancelled = 'replay: {
        // CELF seeds its heap before the first round; plain's `at[0]` is 0.
        if let Some(cause) = ck.skip_to(at[0]) {
            break 'replay Some(cause);
        }
        out.evaluations_at.push(at[0]);
        for (&c, &evals) in run.selected[..picks].iter().zip(&at[1..]) {
            // Plain greedy checks at the top of a round, then scans; CELF
            // re-evaluates stale entries, then checks before the commit.
            let stop = if plain {
                ck.round().or_else(|| ck.skip_to(evals))
            } else {
                ck.skip_to(evals).or_else(|| ck.round())
            };
            if stop.is_some() {
                break 'replay stop;
            }
            objective.add(c);
            out.selected.push(c);
            out.objective_trace.push(objective.value());
            out.evaluations_at.push(evals);
            on_pick(&*objective);
        }
        // An exhausted plain run opens one more round and finds nothing.
        if plain && budget > picks {
            break 'replay ck.round();
        }
        None
    };
    out.evaluations = ck.evals;
    out
}

/// The cancellation checkpoints of a greedy run: a `greedy.round` site at
/// each round boundary and a `greedy.eval.block` site after every
/// `every`-th marginal-gain evaluation. Both loops and [`replay`]
/// count through this one type, so a replay crosses exactly the blocks
/// the run it replays crossed.
struct Checkpoints<'a> {
    /// `None` crosses nothing: a replay of work that has just run.
    cancel: Option<&'a CancelToken>,
    every: usize,
    /// The evaluation count of the next block checkpoint.
    next_block: usize,
    /// Marginal-gain evaluations counted so far.
    evals: usize,
}

impl<'a> Checkpoints<'a> {
    fn new(cancel: Option<&'a CancelToken>, every: usize) -> Self {
        let every = every.max(1);
        Self {
            cancel,
            every,
            next_block: every,
            evals: 0,
        }
    }

    /// Counts one evaluation, crossing the block checkpoint it completes.
    #[inline]
    fn eval(&mut self) -> Option<CancelCause> {
        self.evals += 1;
        if self.evals < self.next_block {
            return None;
        }
        self.next_block = self.next_block.saturating_add(self.every);
        let cancel = self.cancel?;
        fault::point("greedy.eval.block", Some(cancel));
        cancel.cause()
    }

    /// Counts evaluations up to `to` without running them, crossing every
    /// block checkpoint `eval` would cross on the way. On a trip the count
    /// stops at the block that tripped.
    fn skip_to(&mut self, to: usize) -> Option<CancelCause> {
        while self.next_block <= to {
            self.evals = self.next_block - 1;
            if let Some(cause) = self.eval() {
                return Some(cause);
            }
        }
        self.evals = to;
        None
    }

    /// Crosses a round boundary.
    fn round(&self) -> Option<CancelCause> {
        let cancel = self.cancel?;
        fault::point("greedy.round", Some(cancel));
        cancel.cause()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted-coverage toy objective: element e has weight w[e]; each
    /// candidate covers a fixed element set. Monotone + submodular.
    struct Cover {
        sets: Vec<Vec<usize>>,
        weights: Vec<f64>,
        covered: Vec<bool>,
        value: f64,
    }
    impl Cover {
        fn new(sets: Vec<Vec<usize>>, weights: Vec<f64>) -> Self {
            let n = weights.len();
            Self {
                sets,
                weights,
                covered: vec![false; n],
                value: 0.0,
            }
        }
    }
    impl MarginalObjective for Cover {
        fn marginal_gain(&mut self, c: u32) -> f64 {
            self.sets[c as usize]
                .iter()
                .filter(|&&e| !self.covered[e])
                .map(|&e| self.weights[e])
                .sum()
        }
        fn add(&mut self, c: u32) {
            for &e in &self.sets[c as usize].clone() {
                if !self.covered[e] {
                    self.covered[e] = true;
                    self.value += self.weights[e];
                }
            }
        }
        fn value(&self) -> f64 {
            self.value
        }
    }

    fn toy() -> Cover {
        Cover::new(
            vec![
                vec![0, 1, 2],    // candidate 0
                vec![2, 3],       // candidate 1
                vec![4],          // candidate 2
                vec![0, 1, 2, 3], // candidate 3 (dominates 0 and 1)
                vec![],           // candidate 4
            ],
            vec![1.0, 1.0, 1.0, 1.0, 5.0],
        )
    }

    #[test]
    fn plain_greedy_picks_heavy_element_first() {
        let mut obj = toy();
        let trace = plain_greedy(
            &mut obj,
            &[0, 1, 2, 3, 4],
            2,
            &CancelToken::new(),
            usize::MAX,
        );
        // Element 4 weighs 5 -> candidate 2 first, then candidate 3 (covers 4).
        assert_eq!(trace.selected, vec![2, 3]);
        assert_eq!(trace.objective_trace, vec![5.0, 9.0]);
    }

    #[test]
    fn lazy_matches_plain_on_toy() {
        let mut a = toy();
        let ta = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
        let mut b = toy();
        let tb = lazy_greedy(&mut b, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
        assert_eq!(ta.selected, tb.selected);
        assert_eq!(ta.objective_trace, tb.objective_trace);
    }

    #[test]
    fn lazy_uses_no_more_evaluations_per_extra_round() {
        let mut a = toy();
        let ta = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 3, &CancelToken::new(), usize::MAX);
        let mut b = toy();
        let tb = lazy_greedy(&mut b, &[0, 1, 2, 3, 4], 3, &CancelToken::new(), usize::MAX);
        assert!(tb.evaluations <= ta.evaluations);
    }

    #[test]
    fn budget_clamped_to_candidates() {
        let mut obj = toy();
        let trace = plain_greedy(&mut obj, &[1, 2], 10, &CancelToken::new(), usize::MAX);
        assert_eq!(trace.selected.len(), 2);
    }

    #[test]
    fn duplicate_candidates_deduped() {
        let mut obj = toy();
        let trace = plain_greedy(&mut obj, &[2, 2, 2], 3, &CancelToken::new(), usize::MAX);
        assert_eq!(trace.selected, vec![2]);
    }

    #[test]
    fn tie_breaks_toward_smaller_id() {
        // Candidates 0 and 1 have identical singleton sets.
        let mut obj = Cover::new(vec![vec![0], vec![0]], vec![1.0]);
        let plain = plain_greedy(&mut obj, &[1, 0], 1, &CancelToken::new(), usize::MAX);
        assert_eq!(plain.selected, vec![0]);
        let mut obj2 = Cover::new(vec![vec![0], vec![0]], vec![1.0]);
        let lazy = lazy_greedy(&mut obj2, &[1, 0], 1, &CancelToken::new(), usize::MAX);
        assert_eq!(lazy.selected, vec![0]);
    }

    #[test]
    fn empty_candidates_yield_empty_selection() {
        let mut obj = toy();
        let trace = lazy_greedy(&mut obj, &[], 3, &CancelToken::new(), usize::MAX);
        assert!(trace.selected.is_empty());
        assert_eq!(trace.evaluations, 0);
    }

    #[test]
    fn untripped_token_changes_no_bit() {
        let token = CancelToken::new();
        for check_every in [1usize, 2, 1024] {
            let mut a = toy();
            let plain = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
            let mut b = toy();
            let ctl = plain_greedy(&mut b, &[0, 1, 2, 3, 4], 4, &token, check_every);
            assert_eq!(plain, ctl, "plain, check_every={check_every}");
            let mut c = toy();
            let lazy = lazy_greedy(&mut c, &[0, 1, 2, 3, 4], 4, &CancelToken::new(), usize::MAX);
            let mut d = toy();
            let lctl = lazy_greedy(&mut d, &[0, 1, 2, 3, 4], 4, &token, check_every);
            assert_eq!(lazy, lctl, "lazy, check_every={check_every}");
        }
    }

    #[test]
    fn pre_tripped_token_selects_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let mut a = toy();
        let plain = plain_greedy(&mut a, &[0, 1, 2, 3, 4], 3, &token, 1);
        assert!(plain.selected.is_empty());
        assert_eq!(plain.cancelled, Some(CancelCause::Caller));
        let mut b = toy();
        let lazy = lazy_greedy(&mut b, &[0, 1, 2, 3, 4], 3, &token, 1);
        assert!(lazy.selected.is_empty());
        assert_eq!(lazy.cancelled, Some(CancelCause::Caller));
    }

    /// A probe objective that trips the token after a fixed number of
    /// marginal-gain evaluations — a deterministic mid-run cancel.
    struct TripAfter<'a> {
        inner: Cover,
        token: &'a CancelToken,
        trip_at: usize,
        evals: usize,
    }
    impl MarginalObjective for TripAfter<'_> {
        fn marginal_gain(&mut self, c: u32) -> f64 {
            self.evals += 1;
            if self.evals == self.trip_at {
                self.token.cancel();
            }
            self.inner.marginal_gain(c)
        }
        fn add(&mut self, c: u32) {
            self.inner.add(c)
        }
        fn value(&self) -> f64 {
            self.inner.value()
        }
    }

    /// A seeded weighted-coverage instance big enough that CELF re-evaluates
    /// stale entries and some candidates tie.
    fn random_cover(seed: u64, candidates: usize, elements: usize) -> Cover {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let sets = (0..candidates)
            .map(|_| (0..next(6)).map(|_| next(elements)).collect())
            .collect();
        let weights = (0..elements).map(|_| (1 + next(4)) as f64).collect();
        Cover::new(sets, weights)
    }

    fn run(
        algorithm: GreedyAlgorithm,
        obj: &mut impl MarginalObjective,
        cands: &[u32],
        budget: usize,
        cancel: &CancelToken,
        check_every: usize,
    ) -> GreedyTrace {
        match algorithm {
            GreedyAlgorithm::Plain => plain_greedy(obj, cands, budget, cancel, check_every),
            GreedyAlgorithm::Lazy => lazy_greedy(obj, cands, budget, cancel, check_every),
        }
    }

    #[test]
    fn evaluations_at_reports_what_each_shorter_budget_would() {
        let cands: Vec<u32> = (0..30).collect();
        for algorithm in [GreedyAlgorithm::Plain, GreedyAlgorithm::Lazy] {
            let full = run(
                algorithm,
                &mut random_cover(3, 30, 40),
                &cands,
                30,
                &CancelToken::new(),
                1024,
            );
            assert_eq!(full.evaluations_at.len(), full.selected.len() + 1);
            for budget in 0..=full.selected.len() {
                let short = run(
                    algorithm,
                    &mut random_cover(3, 30, 40),
                    &cands,
                    budget,
                    &CancelToken::new(),
                    1024,
                );
                assert_eq!(
                    short.evaluations, full.evaluations_at[budget],
                    "{algorithm:?} b={budget}"
                );
                assert_eq!(
                    short.evaluations_at,
                    full.evaluations_at[..=budget],
                    "{algorithm:?} b={budget}"
                );
                assert_eq!(
                    short.selected,
                    full.selected[..budget],
                    "{algorithm:?} b={budget}"
                );
            }
        }
    }

    #[test]
    fn replay_is_bit_identical_to_a_fresh_run_at_every_budget() {
        for seed in 0..6u64 {
            // Duplicates in the pool: the clamp uses the raw length, the
            // run the distinct ids, so over-long budgets exhaust.
            let mut cands: Vec<u32> = (0..24).collect();
            cands.extend([3, 5, 5]);
            for algorithm in [GreedyAlgorithm::Plain, GreedyAlgorithm::Lazy] {
                let source = run(
                    algorithm,
                    &mut random_cover(seed, 24, 30),
                    &cands,
                    cands.len(),
                    &CancelToken::new(),
                    1024,
                );
                for budget in 0..=cands.len() {
                    let fresh = run(
                        algorithm,
                        &mut random_cover(seed, 24, 30),
                        &cands,
                        budget,
                        &CancelToken::new(),
                        1024,
                    );
                    let mut picked = 0;
                    let replay = replay(
                        &mut random_cover(seed, 24, 30),
                        &source,
                        budget,
                        None,
                        |_| picked += 1,
                    );
                    assert_eq!(replay, fresh, "{algorithm:?} seed={seed} b={budget}");
                    assert_eq!(picked, fresh.selected.len());
                }
            }
        }
    }

    /// Trips `token` when the `trip_after`-th seed is added — `add` runs
    /// in a replay as in a run, so both see the trip at the same point.
    struct TripOnAdd<'a> {
        inner: Cover,
        token: &'a CancelToken,
        trip_after: usize,
        adds: usize,
    }
    impl MarginalObjective for TripOnAdd<'_> {
        fn marginal_gain(&mut self, c: u32) -> f64 {
            self.inner.marginal_gain(c)
        }
        fn add(&mut self, c: u32) {
            self.adds += 1;
            if self.adds == self.trip_after {
                self.token.cancel();
            }
            self.inner.add(c)
        }
        fn value(&self) -> f64 {
            self.inner.value()
        }
    }

    #[test]
    fn replay_crosses_the_same_checkpoints_as_the_run() {
        let cands: Vec<u32> = (0..24).collect();
        for algorithm in [GreedyAlgorithm::Plain, GreedyAlgorithm::Lazy] {
            let source = run(
                algorithm,
                &mut random_cover(9, 24, 30),
                &cands,
                24,
                &CancelToken::new(),
                1024,
            );
            for check_every in [1usize, 2, 3, 7, 1024] {
                for trip_after in 0..=source.selected.len() + 1 {
                    for budget in [trip_after.saturating_sub(1), trip_after, 24] {
                        let trip = |token| TripOnAdd {
                            inner: random_cover(9, 24, 30),
                            token,
                            trip_after,
                            adds: 0,
                        };
                        let (a, b) = (CancelToken::new(), CancelToken::new());
                        if trip_after == 0 {
                            a.cancel();
                            b.cancel();
                        }
                        let fresh = run(algorithm, &mut trip(&a), &cands, budget, &a, check_every);
                        let replay = replay(
                            &mut trip(&b),
                            &source,
                            budget,
                            Some((algorithm, &b, check_every)),
                            |_| {},
                        );
                        assert_eq!(
                            replay, fresh,
                            "{algorithm:?} every={check_every} trip={trip_after} b={budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cancelled_runs_are_exact_prefixes_of_the_uncancelled_run() {
        let cands = [0u32, 1, 2, 3, 4];
        for (algo, name) in [(false, "plain"), (true, "lazy")] {
            let mut oracle_obj = toy();
            let oracle = if algo {
                lazy_greedy(&mut oracle_obj, &cands, 4, &CancelToken::new(), usize::MAX)
            } else {
                plain_greedy(&mut oracle_obj, &cands, 4, &CancelToken::new(), usize::MAX)
            };
            for trip_at in 1..=oracle.evaluations {
                let token = CancelToken::new();
                let mut obj = TripAfter {
                    inner: toy(),
                    token: &token,
                    trip_at,
                    evals: 0,
                };
                let got = if algo {
                    lazy_greedy(&mut obj, &cands, 4, &token, 1)
                } else {
                    plain_greedy(&mut obj, &cands, 4, &token, 1)
                };
                assert!(
                    got.selected.len() <= oracle.selected.len(),
                    "{name} trip_at={trip_at}"
                );
                assert_eq!(
                    got.selected,
                    oracle.selected[..got.selected.len()],
                    "{name} trip_at={trip_at}: partial must be an exact prefix"
                );
                assert_eq!(
                    got.objective_trace,
                    oracle.objective_trace[..got.objective_trace.len()],
                    "{name} trip_at={trip_at}"
                );
                assert_eq!(got.cancelled, Some(CancelCause::Caller));
            }
        }
    }
}

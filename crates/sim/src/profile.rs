//! Profile-guided shard assignment: turning one observed run's
//! per-state activity into a better per-state shard placement.
//!
//! Component-balanced sharding ([`ShardedAutomaton::compile`]) only
//! sees the automaton's *structure*: it packs connected components by
//! size so shard state counts come out even. Real workloads are
//! skewed — a handful of patterns carry almost all of the activity
//! while the rest sit idle — and size-balanced packing scatters the
//! hot components across every shard, so every array powers up every
//! cycle and idle-shard skipping has nothing to skip.
//!
//! [`ShardingProfile`] closes the loop. Attached to a profiling run as
//! a [`ShardObserver`], it counts how often each state was active; the
//! profile orders components by that measured heat and packs them
//! greedily — hottest first onto the least-loaded *hot* shards,
//! coldest last onto whatever space remains — so activity concentrates
//! in as few arrays as possible and the cold mass lands in arrays the
//! engine can skip. The derived assignment feeds
//! [`ShardedAutomaton::compile_with_assignment`]; results stay
//! bit-identical to every other sharding, only the visited-word and
//! skipped-cycle counters move. Runs without the observer attached pay
//! nothing for it.
//!
//! ```
//! use cama_core::compiled::ShardedAutomaton;
//! use cama_core::regex;
//! use cama_sim::{Session, ShardedSession, ShardingProfile};
//!
//! let nfa = regex::compile_set(&["ab+c", "xy", "qr"])?;
//! let baseline = ShardedAutomaton::compile(&nfa, 2);
//!
//! // 1. Profile a representative sample on the static sharding.
//! let mut profile = ShardingProfile::new(nfa.len());
//! let mut session = ShardedSession::new(&baseline);
//! session.feed_sharded_with(b"zabbbcabcab", &mut profile);
//! session.finish();
//!
//! // 2. Re-shard along the measured heat and run the real workload.
//! let tuned = ShardedAutomaton::compile_with_assignment(
//!     &nfa,
//!     &profile.assignment(&nfa, 2),
//! );
//! let mut session = ShardedSession::new(&tuned);
//! session.feed(b"zabbbcabcab");
//! session.finish();
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! [`ShardedAutomaton::compile`]: cama_core::compiled::ShardedAutomaton::compile
//! [`ShardedAutomaton::compile_with_assignment`]: cama_core::compiled::ShardedAutomaton::compile_with_assignment

use crate::activity::{ShardCycleSummary, ShardCycleView, ShardObserver};
use cama_core::graph::connected_components;
use cama_core::Nfa;

/// A per-state activity histogram, plus the greedy packer that turns it
/// into a shard assignment.
///
/// As a [`ShardObserver`] it adds one to a state's count for every
/// cycle the state is active, by global state id; DFA-stepped shards
/// report their active sets through the same view, so hybrid and
/// pure-NFA plans of one automaton record the same heat. See the
/// [module docs](self) for the full profile → re-shard loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardingProfile {
    /// Activation counts indexed by global state id.
    state_activity: Vec<u64>,
}

impl ShardingProfile {
    /// An empty profile over `num_states` global states, ready to
    /// observe a profiling run.
    pub fn new(num_states: usize) -> ShardingProfile {
        ShardingProfile {
            state_activity: vec![0; num_states],
        }
    }

    /// Builds a profile from raw per-state activation counts (indexed
    /// by global state id) — e.g. merged over several sessions.
    pub fn from_state_activity(state_activity: Vec<u64>) -> ShardingProfile {
        ShardingProfile { state_activity }
    }

    /// The per-state activation counts the profile was built from.
    pub fn state_activity(&self) -> &[u64] {
        &self.state_activity
    }

    /// Merges another profile's counts into this one (element-wise sum;
    /// the two profiles must describe the same automaton).
    ///
    /// # Panics
    ///
    /// Panics if the state counts differ.
    pub fn merge(&mut self, other: &ShardingProfile) {
        assert_eq!(
            self.state_activity.len(),
            other.state_activity.len(),
            "profile length mismatch"
        );
        for (a, &b) in self.state_activity.iter_mut().zip(&other.state_activity) {
            *a += b;
        }
    }

    /// Turns the measured heat into a determinization policy for
    /// [`compile_hybrid_ruleset`](cama_core::compile::compile_hybrid_ruleset):
    /// components are nominated for DFA conversion hottest-first,
    /// within `memory_budget` bytes of transition tables, each capped
    /// by the per-component `budget`. The profile → hybrid loop
    /// mirrors the profile → re-shard loop in the module docs — run a
    /// representative sample, then recompile with the policy.
    pub fn dfa_policy(
        &self,
        budget: cama_core::compiled::DfaBudget,
        memory_budget: usize,
    ) -> cama_core::compile::DfaPolicy {
        cama_core::compile::DfaPolicy {
            budget,
            memory_budget,
            heat: self.state_activity.clone(),
        }
    }

    /// Derives a per-state shard assignment for `nfa` over at most
    /// `num_shards` shards, for
    /// [`ShardedAutomaton::compile_with_assignment`](cama_core::compiled::ShardedAutomaton::compile_with_assignment).
    ///
    /// Components are never split (every activation edge stays
    /// array-local, exactly like the static packer). Components with
    /// measured activity are segregated from idle ones: the hot set is
    /// packed into the *fewest* shards its state count needs (balanced
    /// by heat within them, hottest first), and the cold tail is
    /// size-balanced across the remaining shards — which the engine can
    /// then skip wholesale. A profile with no recorded activity
    /// degenerates to the static size-balanced packing.
    ///
    /// # Panics
    ///
    /// Panics if the profile's state count differs from `nfa.len()` or
    /// if `num_shards` is zero.
    pub fn assignment(&self, nfa: &Nfa, num_shards: usize) -> Vec<u32> {
        assert_eq!(
            self.state_activity.len(),
            nfa.len(),
            "profile was built for a different automaton"
        );
        assert!(num_shards > 0, "num_shards must be positive");
        let ccs = connected_components(nfa);
        let num_shards = num_shards.clamp(1, ccs.len().max(1));
        // The same per-shard state budget the size-balanced packer
        // achieves; components larger than the budget still get a
        // shard (they cannot be split).
        let capacity = nfa.len().div_ceil(num_shards);

        let heats: Vec<u64> = ccs
            .iter()
            .map(|cc| {
                cc.states
                    .iter()
                    .map(|s| self.state_activity[s.0 as usize])
                    .sum()
            })
            .collect();
        // Hot components sorted hottest first; the cold tail keeps the
        // static decreasing-size packing order.
        let mut hot: Vec<usize> = (0..ccs.len()).filter(|&i| heats[i] > 0).collect();
        hot.sort_by_key(|&i| (std::cmp::Reverse(heats[i]), std::cmp::Reverse(ccs[i].len())));
        let cold: Vec<usize> = (0..ccs.len()).filter(|&i| heats[i] == 0).collect();

        // The fewest shards the hot set fits in at the balanced budget:
        // concentrating activity is what makes the cold shards
        // skippable, so hot shards are a floor, not a balance target.
        let hot_states: usize = hot.iter().map(|&i| ccs[i].len()).sum();
        let hot_shards = hot_states
            .div_ceil(capacity)
            .min(num_shards)
            .max(usize::from(!hot.is_empty()));

        let mut shard_heat = vec![0u64; num_shards];
        let mut shard_size = vec![0usize; num_shards];
        let mut assignment = vec![0u32; nfa.len()];
        let mut place = |i: usize, range: std::ops::Range<usize>, by_heat: bool| {
            let cc = &ccs[i];
            // Least-loaded shard in the range with room; when nothing
            // fits (oversized component, or rounding), least loaded.
            let key = |s: usize| {
                if by_heat {
                    (shard_heat[s], shard_size[s] as u64)
                } else {
                    (shard_size[s] as u64, shard_heat[s])
                }
            };
            let target = range
                .clone()
                .filter(|&s| shard_size[s] + cc.len() <= capacity)
                .min_by_key(|&s| key(s))
                .unwrap_or_else(|| range.clone().min_by_key(|&s| key(s)).unwrap());
            shard_heat[target] += heats[i];
            shard_size[target] += cc.len();
            for s in &cc.states {
                assignment[s.0 as usize] = target as u32;
            }
        };
        for &i in &hot {
            place(i, 0..hot_shards, true);
        }
        // Cold components go to the shards the hot set left free; if
        // the hot set already spans every shard, fall back to all.
        let cold_range = if hot_shards < num_shards {
            hot_shards..num_shards
        } else {
            0..num_shards
        };
        for &i in &cold {
            place(i, cold_range.clone(), false);
        }
        assignment
    }
}

impl ShardObserver for ShardingProfile {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        for local in view.active.iter() {
            self.state_activity[view.global_states[local] as usize] += 1;
        }
    }

    fn on_cycle_end(&mut self, _summary: &ShardCycleSummary) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, ShardedSession, Simulator};
    use cama_core::compiled::ShardedAutomaton;
    use cama_core::regex;

    /// A skewed workload: one hot pattern, many cold ones.
    fn skewed_setup() -> (Nfa, Vec<u8>) {
        let mut patterns = vec!["hot1a".to_string(), "hot2b".to_string()];
        for i in 0..14 {
            patterns.push(format!("coldpattern{i:02}xyzw"));
        }
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let nfa = regex::compile_set(&refs).unwrap();
        let input: Vec<u8> = b"hot1ahot2bhot1xhot2y".repeat(64);
        (nfa, input)
    }

    #[test]
    fn profile_guided_assignment_reduces_visited_words_on_skew() {
        let (nfa, input) = skewed_setup();
        let num_shards = 4;

        // Static, size-balanced baseline.
        let baseline = ShardedAutomaton::compile(&nfa, num_shards);
        let mut profile = ShardingProfile::new(nfa.len());
        let mut session = ShardedSession::new(&baseline);
        session.feed_sharded_with(&input, &mut profile);
        let expected = session.finish();
        let baseline_words = session.stats().words_visited;

        // Re-shard from the measured profile.
        let assignment = profile.assignment(&nfa, num_shards);
        let plan = ShardedAutomaton::compile_with_assignment(&nfa, &assignment);
        let mut tuned = ShardedSession::new(&plan);
        tuned.feed(&input);
        assert_eq!(
            tuned.finish(),
            expected,
            "re-sharding must not change results"
        );
        let tuned_words = tuned.stats().words_visited;

        assert!(
            tuned_words < baseline_words,
            "profile-guided {tuned_words} words >= static {baseline_words}"
        );
    }

    #[test]
    fn assignment_respects_shard_count_and_matches_flat_results() {
        let (nfa, input) = skewed_setup();
        let flat = Simulator::new(&nfa).run(&input);
        let profile = ShardingProfile::from_state_activity(vec![0; nfa.len()]);
        for shards in [1, 2, 3, 8] {
            let assignment = profile.assignment(&nfa, shards);
            assert_eq!(assignment.len(), nfa.len());
            assert!(assignment.iter().all(|&s| (s as usize) < shards));
            let sharded = ShardedAutomaton::compile_with_assignment(&nfa, &assignment);
            let mut session = ShardedSession::new(&sharded);
            session.feed(&input);
            assert_eq!(session.finish(), flat, "{shards} shards");
        }
    }

    #[test]
    fn merged_profiles_sum_activity() {
        let mut a = ShardingProfile::from_state_activity(vec![1, 2, 3]);
        let b = ShardingProfile::from_state_activity(vec![10, 0, 5]);
        a.merge(&b);
        assert_eq!(a.state_activity(), &[11, 2, 8]);
    }

    #[test]
    fn observer_records_per_state_activity() {
        let nfa = regex::compile("ab").unwrap();
        let plan = ShardedAutomaton::compile(&nfa, 1);
        let mut profile = ShardingProfile::new(nfa.len());
        let mut session = ShardedSession::new(&plan);
        session.feed_sharded_with(b"abab", &mut profile);
        session.finish();
        // 'a' fires twice, 'b' completes twice.
        assert_eq!(profile.state_activity(), &[2, 2]);
    }
}

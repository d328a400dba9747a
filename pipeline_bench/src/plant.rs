//! Planted matches: seeded input bytes that are known to make the
//! automaton report at known offsets.
//!
//! A breadth-first search from every all-input start state finds a
//! shortest activation path to each reachable reporting state. Planting
//! writes one byte of each path state's symbol class, in order, into the
//! input. Because an all-input start is enabled on every cycle and a
//! homogeneous NFA's active set is a union of independent activations,
//! the path's reporting state fires on the path's last byte whatever
//! the surrounding bytes are. Every planted end offset must therefore
//! appear in the reports.

use cama_core::{Nfa, StartKind, SteId};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::VecDeque;

/// The activation paths one automaton offers for planting.
#[derive(Clone, Debug)]
pub struct Planter {
    /// `(states along the path, start first; the reporting state last)`.
    paths: Vec<Vec<SteId>>,
}

/// One planted match: the reporting state and the offset (within the
/// buffer planted into) of the byte that fires it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planted {
    /// The reporting state the path ends in.
    pub ste: SteId,
    /// Offset of the path's last byte.
    pub end: usize,
}

impl Planter {
    /// Collects up to `max_paths` shortest paths of at most `max_len`
    /// states, one per reachable reporting state, in state-id order.
    pub fn new(nfa: &Nfa, max_len: usize, max_paths: usize) -> Planter {
        let mut parent: Vec<Option<SteId>> = vec![None; nfa.len()];
        let mut depth: Vec<usize> = vec![usize::MAX; nfa.len()];
        let mut queue = VecDeque::new();
        for (index, ste) in nfa.stes().iter().enumerate() {
            if ste.start == StartKind::AllInput && !ste.class.is_empty() {
                depth[index] = 1;
                queue.push_back(SteId(index as u32));
            }
        }
        while let Some(state) = queue.pop_front() {
            let next_depth = depth[state.index()] + 1;
            if next_depth > max_len {
                continue;
            }
            for &succ in nfa.successors(state) {
                if depth[succ.index()] == usize::MAX && !nfa.ste(succ).class.is_empty() {
                    depth[succ.index()] = next_depth;
                    parent[succ.index()] = Some(state);
                    queue.push_back(succ);
                }
            }
        }
        let mut paths = Vec::new();
        for target in nfa.reporting_states() {
            if paths.len() == max_paths {
                break;
            }
            if depth[target.index()] == usize::MAX {
                continue;
            }
            let mut path = vec![target];
            while let Some(prev) = parent[path.last().expect("non-empty").index()] {
                path.push(prev);
            }
            path.reverse();
            paths.push(path);
        }
        Planter { paths }
    }

    /// Number of distinct paths available.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Plants one seeded path into each `spacing`-byte slot of `buf` at a
    /// seeded position inside the slot, so plants never overlap. Paths
    /// longer than a slot are never chosen. Returns the plants in offset
    /// order.
    pub fn plant(
        &self,
        nfa: &Nfa,
        buf: &mut [u8],
        spacing: usize,
        rng: &mut StdRng,
    ) -> Vec<Planted> {
        let fitting: Vec<&Vec<SteId>> = self.paths.iter().filter(|p| p.len() <= spacing).collect();
        let mut planted = Vec::new();
        if fitting.is_empty() || spacing == 0 {
            return planted;
        }
        let mut slot = 0;
        while slot + spacing <= buf.len() {
            let path = fitting[rng.random_range(0..fitting.len())];
            let start = slot + rng.random_range(0..=spacing - path.len());
            for (offset, &state) in path.iter().enumerate() {
                let class = &nfa.ste(state).class;
                let symbols: Vec<u8> = class.iter().collect();
                buf[start + offset] = symbols[rng.random_range(0..symbols.len())];
            }
            planted.push(Planted {
                ste: *path.last().expect("paths are non-empty"),
                end: start + path.len() - 1,
            });
            slot += spacing;
        }
        planted
    }
}

/// Planted matches missing from `reports` (given as `(offset, ste)`
/// pairs in any order).
pub fn missing(planted: &[Planted], reports: &[(usize, SteId)]) -> Vec<Planted> {
    let mut seen: Vec<(usize, SteId)> = reports.to_vec();
    seen.sort_unstable_by_key(|&(offset, ste)| (offset, ste.0));
    planted
        .iter()
        .copied()
        .filter(|p| {
            seen.binary_search_by_key(&(p.end, p.ste.0), |&(offset, ste)| (offset, ste.0))
                .is_err()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cama_core::regex;
    use cama_sim::Simulator;
    use rand::SeedableRng;

    fn reports_of(nfa: &Nfa, input: &[u8]) -> Vec<(usize, SteId)> {
        Simulator::new(nfa)
            .run(input)
            .reports
            .iter()
            .map(|r| (r.offset, r.ste))
            .collect()
    }

    #[test]
    fn planted_paths_always_report() {
        let nfa = regex::compile_set(&["abc[0-9]+z", "q(x|y)w", "hello"]).unwrap();
        let planter = Planter::new(&nfa, 16, 64);
        assert_eq!(planter.len(), 3, "one path per reporting state");
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input: Vec<u8> = (0..2048).map(|_| rng.random_range(0..=255u8)).collect();
            let planted = planter.plant(&nfa, &mut input, 64, &mut rng);
            assert_eq!(planted.len(), 2048 / 64);
            assert!(planted.windows(2).all(|w| w[0].end < w[1].end));
            assert!(missing(&planted, &reports_of(&nfa, &input)).is_empty());
        }
    }

    #[test]
    fn planting_is_seeded() {
        let nfa = regex::compile_set(&["ab+c", "x[a-f]y"]).unwrap();
        let planter = Planter::new(&nfa, 8, 8);
        let plant = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = vec![b'.'; 512];
            let planted = planter.plant(&nfa, &mut input, 32, &mut rng);
            (input, planted)
        };
        assert_eq!(plant(5), plant(5));
        assert_ne!(plant(5).0, plant(6).0);
    }

    #[test]
    fn missing_plants_are_detected() {
        let nfa = regex::compile("xyz").unwrap();
        let planter = Planter::new(&nfa, 8, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut input = vec![b'.'; 64];
        let planted = planter.plant(&nfa, &mut input, 16, &mut rng);
        assert_eq!(planted.len(), 4);
        // Break the first plant: its report disappears and is flagged.
        input[planted[0].end] = b'.';
        let lost = missing(&planted, &reports_of(&nfa, &input));
        assert_eq!(lost, vec![planted[0]]);
    }

    #[test]
    fn paths_longer_than_the_limit_are_skipped() {
        let nfa = regex::compile_set(&["abcdefgh", "ab"]).unwrap();
        let planter = Planter::new(&nfa, 4, 8);
        assert_eq!(planter.len(), 1);
        assert_eq!(Planter::new(&nfa, 8, 0).len(), 0);
    }
}

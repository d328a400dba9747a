//! The core cycle engine, running on a compiled execution plan.
//!
//! Per cycle (one input symbol), exactly the two steps of Figure 1:
//!
//! 1. **State matching** — the set of STEs whose class contains the
//!    symbol. The compiled plan precomputes a full 256-entry symbol →
//!    match-vector table, so this is one table lookup.
//! 2. **State transition** — `active = matched ∧ enabled`, word-level
//!    (64 states per operation); report active reporting STEs through
//!    the packed report table; the next enable vector is the union of
//!    the active states' CSR successors (plus the always-enabled start
//!    states).
//!
//! The engine state is split the way the hardware splits it: a *static*
//! enable part (`all-input` start states, which never toggle — the
//! hardware wires them on) kept as a mask in the plan, and a *dynamic*
//! part (last cycle's Next Vector) kept per stream. One immutable
//! [`CompiledAutomaton`] can therefore drive any number of concurrent
//! streams — see [`BatchSimulator`](crate::BatchSimulator).
//!
//! This module implements that loop exactly once. A crate-private
//! `Lane` holds one state space's per-stream vectors, and its kernels
//! are the two phases: `match_byte` / `match_pair` build the active
//! vector, `transition` reports and expands successors, and `advance`
//! ends the cycle. The flat sessions ([`ByteSession`],
//! [`StridedSession`](crate::StridedSession)) step one lane over the
//! whole plan; the [`ShardedSession`](crate::ShardedSession) steps one
//! lane per shard. The kernels are generic over a state-id map, so the
//! flat instantiation (the identity map) compiles to a loop with no id
//! translation and no cross-shard staging.

use crate::activity::{CycleView, NullObserver, Observer};
use crate::session::{AutomataEngine, FlowSession, Session, SuspendedFlow};
use cama_core::bitset::BitSet;
use cama_core::compiled::{
    CompiledAutomaton, CrossTarget, ExecutionPlan, PlanBase, Shard, StridedPlan,
};
use cama_core::stride::ReportPhase;
use cama_core::{Nfa, SteId};

pub use crate::result::{Report, RunResult};

/// Zeroes exactly the words the one-bit-per-word `summary` marks dirty,
/// then zeroes the summary — the sparse clear shared by every engine's
/// vector/summary pairs.
pub(crate) fn sparse_clear(words: &mut [u64], summary: &mut [u64]) {
    for (j, any) in summary.iter_mut().enumerate() {
        let mut dirty = *any;
        while dirty != 0 {
            words[j * 64 + dirty.trailing_zeros() as usize] = 0;
            dirty &= dirty - 1;
        }
        *any = 0;
    }
}

/// Popcounts only the words the one-bit-per-word `summary` marks dirty.
fn popcount_dirty(words: &[u64], summary: &[u64]) -> usize {
    let mut count = 0usize;
    for (j, &any) in summary.iter().enumerate() {
        let mut dirty = any;
        while dirty != 0 {
            count += words[j * 64 + dirty.trailing_zeros() as usize].count_ones() as usize;
            dirty &= dirty - 1;
        }
    }
    count
}

/// How a lane's local state ids appear outside the lane: the global id
/// reports carry, and the cross-shard successors phase 2 stages.
pub(crate) trait StateMap {
    /// The global id of local state `local`.
    fn global(&self, local: usize) -> u32;

    /// The successors of `local` living in other lanes.
    fn cross(&self, local: usize) -> &[CrossTarget];
}

/// The flat engines' map: one lane spans the whole plan, so local ids
/// are global ids and no edge leaves the lane.
pub(crate) struct Identity;

impl StateMap for Identity {
    #[inline]
    fn global(&self, local: usize) -> u32 {
        local as u32
    }

    #[inline]
    fn cross(&self, _local: usize) -> &[CrossTarget] {
        &[]
    }
}

impl<P: PlanBase> StateMap for Shard<P> {
    #[inline]
    fn global(&self, local: usize) -> u32 {
        self.global_states()[local]
    }

    #[inline]
    fn cross(&self, local: usize) -> &[CrossTarget] {
        self.cross_successors(local)
    }
}

/// What one lane-cycle contributed to the cycle's totals.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CycleOut {
    pub(crate) num_active: usize,
    pub(crate) reports: usize,
}

/// The report of a strided state: `(code, absolute byte offset)` from
/// its [`ReportPhase`], or `None` when the offset is at or past `limit`
/// (only the final zero-padded flush pair passes a finite limit).
#[inline]
pub(crate) fn pair_report<P: StridedPlan>(
    plan: &P,
    state: usize,
    cycle: usize,
    limit: usize,
) -> Option<(u32, usize)> {
    let (code, phase) = plan.report_pair_unchecked(state);
    let offset = match phase {
        ReportPhase::First => cycle * 2,
        ReportPhase::Second => cycle * 2 + 1,
    };
    (offset < limit).then_some((code, offset))
}

/// One state space's mutable half of a stream: the dynamic (last
/// cycle's Next Vector), next, and active vectors with one-bit-per-word
/// nonzero summaries kept in lockstep, so clears and scans only touch
/// dirty 64-state words. All automaton structure lives in the shared
/// plan.
#[derive(Clone, Debug)]
pub(crate) struct Lane {
    pub(crate) dynamic: BitSet,
    pub(crate) next: BitSet,
    pub(crate) active: BitSet,
    pub(crate) dynamic_any: Vec<u64>,
    pub(crate) next_any: Vec<u64>,
    pub(crate) active_any: Vec<u64>,
    /// Popcount of `dynamic`, maintained at the cycle-end advance so
    /// per-cycle accounting never re-counts the vector.
    pub(crate) num_dynamic: usize,
}

impl Lane {
    pub(crate) fn new(len: usize) -> Lane {
        let summary_words = len.div_ceil(64).div_ceil(64);
        Lane {
            dynamic: BitSet::new(len),
            next: BitSet::new(len),
            active: BitSet::new(len),
            dynamic_any: vec![0; summary_words],
            next_any: vec![0; summary_words],
            active_any: vec![0; summary_words],
            num_dynamic: 0,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.dynamic.clear();
        self.next.clear();
        self.active.clear();
        self.dynamic_any.iter_mut().for_each(|w| *w = 0);
        self.next_any.iter_mut().for_each(|w| *w = 0);
        self.active_any.iter_mut().for_each(|w| *w = 0);
        self.num_dynamic = 0;
    }

    /// `true` when no state is dynamically enabled.
    pub(crate) fn dynamic_is_empty(&self) -> bool {
        self.dynamic_any.iter().all(|&w| w == 0)
    }

    /// Enables `state` in the dynamic vector — how a suspended stream's
    /// sparse dynamic set is restored.
    pub(crate) fn insert_dynamic(&mut self, state: usize) {
        if !self.dynamic.contains(state) {
            self.dynamic.insert(state);
            self.dynamic_any[state / 4096] |= 1u64 << ((state / 64) % 64);
            self.num_dynamic += 1;
        }
    }

    /// Enables `state` in the next vector — the one write the
    /// cross-shard exchange performs per staged activation.
    #[inline]
    pub(crate) fn insert_next(&mut self, state: usize) {
        self.next.as_words_mut()[state / 64] |= 1u64 << (state % 64);
        self.next_any[state / 4096] |= 1u64 << ((state / 64) % 64);
    }

    /// Phase 1 of a byte cycle: `active = match[symbol] & (dynamic ∪
    /// starts)`, visiting only the words the match summary and an
    /// enable-source summary both mark — the software form of CAMA's
    /// selective precharge. `inject_starts` is `true` when all-input
    /// starts are enabled this cycle (always, for byte automata; on
    /// group boundaries for multi-step automata); start-of-data states
    /// join on the first cycle.
    #[inline]
    pub(crate) fn match_byte<P: ExecutionPlan>(
        &mut self,
        plan: &P,
        symbol: u8,
        inject_starts: bool,
        first_cycle: bool,
    ) {
        let match_words = plan.match_vector(symbol).words();
        let match_any = plan.match_any(symbol);

        sparse_clear(self.active.as_words_mut(), &mut self.active_any);
        let active_words = self.active.as_words_mut();
        if inject_starts {
            // Statically enabled starts that match: precompiled rows.
            let start_words = plan.start_match(symbol).words();
            for (j, &any) in plan.start_match_any(symbol).iter().enumerate() {
                let mut dirty = any;
                while dirty != 0 {
                    let w = j * 64 + dirty.trailing_zeros() as usize;
                    dirty &= dirty - 1;
                    active_words[w] |= start_words[w];
                    self.active_any[j] |= 1u64 << (w % 64);
                }
            }
        }
        let dynamic_words = self.dynamic.as_words();
        for (j, &dynamic_any) in self.dynamic_any.iter().enumerate() {
            let mut dirty = match_any[j] & dynamic_any;
            while dirty != 0 {
                let w = j * 64 + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let active = match_words[w] & dynamic_words[w];
                if active != 0 {
                    active_words[w] |= active;
                    self.active_any[j] |= 1u64 << (w % 64);
                }
            }
        }
        if first_cycle {
            let sod_words = plan.start_of_data_mask().as_words();
            for (j, &any) in plan.start_of_data_any().iter().enumerate() {
                let mut dirty = match_any[j] & any;
                while dirty != 0 {
                    let w = j * 64 + dirty.trailing_zeros() as usize;
                    dirty &= dirty - 1;
                    let active = match_words[w] & sod_words[w];
                    if active != 0 {
                        active_words[w] |= active;
                        self.active_any[j] |= 1u64 << (w % 64);
                    }
                }
            }
        }
    }

    /// Phase 1 of a pair cycle: `active = first[a] & second[b] &
    /// (dynamic ∪ all-input starts ∪ start-of-data on the first
    /// cycle)`, visiting only words both halves' summaries *and* an
    /// enable-source summary mark — the 2-stride form of selective
    /// precharge.
    #[inline]
    pub(crate) fn match_pair<P: StridedPlan>(&mut self, plan: &P, a: u8, b: u8, first_cycle: bool) {
        let first_words = plan.first_vector(a).words();
        let first_any = plan.first_any(a);
        let second_words = plan.second_vector(b).words();
        let second_any = plan.second_any(b);

        sparse_clear(self.active.as_words_mut(), &mut self.active_any);
        let active_words = self.active.as_words_mut();
        // Start injection: first_start_match[a] & second[b]
        // (= first[a] & all_input & second[b]).
        let start_words = plan.first_start_match(a).words();
        for (j, &any) in plan.first_start_match_any(a).iter().enumerate() {
            let mut dirty = any & second_any[j];
            while dirty != 0 {
                let w = j * 64 + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let active = start_words[w] & second_words[w];
                if active != 0 {
                    active_words[w] |= active;
                    self.active_any[j] |= 1u64 << (w % 64);
                }
            }
        }
        let dynamic_words = self.dynamic.as_words();
        for (j, &dynamic_any) in self.dynamic_any.iter().enumerate() {
            let mut dirty = first_any[j] & second_any[j] & dynamic_any;
            while dirty != 0 {
                let w = j * 64 + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let active = first_words[w] & second_words[w] & dynamic_words[w];
                if active != 0 {
                    active_words[w] |= active;
                    self.active_any[j] |= 1u64 << (w % 64);
                }
            }
        }
        if first_cycle {
            let sod_words = plan.start_of_data_mask().as_words();
            for (j, &any) in plan.start_of_data_any().iter().enumerate() {
                let mut dirty = first_any[j] & second_any[j] & any;
                while dirty != 0 {
                    let w = j * 64 + dirty.trailing_zeros() as usize;
                    dirty &= dirty - 1;
                    let active = first_words[w] & second_words[w] & sod_words[w];
                    if active != 0 {
                        active_words[w] |= active;
                        self.active_any[j] |= 1u64 << (w % 64);
                    }
                }
            }
        }
    }

    /// The number of distinct 64-state words
    /// [`match_pair`](Self::match_pair) visits for `(a, b)`: one per
    /// word any enable source's filter marks, however many sources
    /// mark it.
    pub(crate) fn pair_words_visited<P: StridedPlan>(
        &self,
        plan: &P,
        a: u8,
        b: u8,
        first_cycle: bool,
    ) -> u64 {
        let (first_any, second_any) = (plan.first_any(a), plan.second_any(b));
        let starts = plan.first_start_match_any(a);
        let sod = plan.start_of_data_any();
        (0..self.dynamic_any.len())
            .map(|j| {
                let enabled = self.dynamic_any[j] | if first_cycle { sod[j] } else { 0 };
                let touched = starts[j] & second_any[j] | first_any[j] & second_any[j] & enabled;
                u64::from(touched.count_ones())
            })
            .sum()
    }

    /// Phase 2: one ordered pass over the active words — popcounts,
    /// the report scan, and the successor expansion while each word is
    /// hot. `report` maps a reporting local state to its `(code,
    /// offset)`, or `None` to suppress it; reports carry `map`'s global
    /// ids. Local successors land in the next vector; cross-lane
    /// successors are staged into `exchange` (packed `shard << 32 |
    /// local`).
    #[inline]
    pub(crate) fn transition<P: PlanBase, M: StateMap>(
        &mut self,
        plan: &P,
        map: &M,
        report: impl Fn(usize) -> Option<(u32, usize)>,
        reports: &mut Vec<Report>,
        exchange: &mut Vec<u64>,
    ) -> CycleOut {
        let report_words = plan.report_mask().as_words();
        let active_words = self.active.as_words();
        let next_words = self.next.as_words_mut();
        let mut out = CycleOut {
            num_active: 0,
            reports: 0,
        };
        for (j, &active_any) in self.active_any.iter().enumerate() {
            let mut dirty = active_any;
            while dirty != 0 {
                let w = j * 64 + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let active = active_words[w];
                out.num_active += active.count_ones() as usize;

                let mut reporting = active & report_words[w];
                while reporting != 0 {
                    let local = w * 64 + reporting.trailing_zeros() as usize;
                    if let Some((code, offset)) = report(local) {
                        reports.push(Report {
                            ste: SteId(map.global(local)),
                            code,
                            offset,
                        });
                        out.reports += 1;
                    }
                    reporting &= reporting - 1;
                }

                let mut remaining = active;
                while remaining != 0 {
                    let local = w * 64 + remaining.trailing_zeros() as usize;
                    for &succ in plan.successors(local) {
                        let succ = succ as usize;
                        next_words[succ / 64] |= 1u64 << (succ % 64);
                        self.next_any[succ / 4096] |= 1u64 << ((succ / 64) % 64);
                    }
                    for t in map.cross(local) {
                        exchange.push(u64::from(t.shard) << 32 | u64::from(t.local));
                    }
                    remaining &= remaining - 1;
                }
            }
        }
        out
    }

    /// Ends the cycle: next becomes dynamic; the old dynamic storage is
    /// sparse-cleared and reused as next cycle's scratch.
    #[inline]
    pub(crate) fn advance(&mut self) {
        std::mem::swap(&mut self.dynamic, &mut self.next);
        std::mem::swap(&mut self.dynamic_any, &mut self.next_any);
        sparse_clear(self.next.as_words_mut(), &mut self.next_any);
        self.num_dynamic = popcount_dirty(self.dynamic.as_words(), &self.dynamic_any);
    }

    /// The flat sessions' cycle epilogue: the activity record, the
    /// observer's view of the cycle, then the [`advance`](Self::advance).
    pub(crate) fn end_flat_cycle(
        &mut self,
        cycle: usize,
        symbol: u8,
        out: CycleOut,
        result: &mut RunResult,
        observer: &mut impl Observer,
    ) {
        result
            .activity
            .record(out.num_active, self.num_dynamic, out.reports);
        observer.on_cycle(&CycleView {
            cycle,
            symbol,
            dynamic_enabled: &self.dynamic,
            active: &self.active,
            reports: out.reports,
        });
        self.advance();
    }

    /// A flat session's suspended dynamic set (sorted state ids).
    pub(crate) fn snapshot(&self) -> Vec<u32> {
        self.dynamic.iter().map(|i| i as u32).collect()
    }

    /// Restores a [`snapshot`](Self::snapshot) into this fresh lane.
    pub(crate) fn restore(&mut self, dynamic: &[u32]) {
        debug_assert!(self.dynamic_is_empty());
        for &state in dynamic {
            self.insert_dynamic(state as usize);
        }
    }
}

/// A streaming session over a symbol-per-cycle execution plan: the
/// [`Session`] implementation shared by the byte engine
/// ([`CompiledAutomaton`], the default) and the encoded engine
/// ([`CompiledEncodedAutomaton`](cama_core::compiled::CompiledEncodedAutomaton),
/// via the [`EncodedSession`](crate::EncodedSession) alias) — one
/// stepping loop, two plan layouts.
///
/// The session owns the dynamic/next/active vectors, the cycle offset,
/// and the report accumulation; the immutable plan is shared, so one
/// plan can drive any number of concurrent sessions. A multi-step
/// session ([`with_chain`](ByteSession::with_chain)) carries its group
/// phase in the cycle offset, so chunks may split a `chain`-long group
/// anywhere.
///
/// # Examples
///
/// ```
/// use cama_core::compiled::CompiledAutomaton;
/// use cama_core::regex;
/// use cama_sim::{ByteSession, Session};
///
/// let nfa = regex::compile("ab")?;
/// let plan = CompiledAutomaton::compile(&nfa);
/// let mut session = ByteSession::new(&plan);
/// session.feed(b"a"); // chunk boundary mid-match
/// session.feed(b"b");
/// assert_eq!(session.finish().report_offsets(), vec![1]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ByteSession<'p, P: ExecutionPlan = CompiledAutomaton> {
    plan: &'p P,
    /// Sub-symbols per original symbol; starts are injected on cycles
    /// that are multiples of this.
    chain: usize,
    lane: Lane,
    cycle: usize,
    result: RunResult,
    fed: usize,
}

impl<'p, P: ExecutionPlan> ByteSession<'p, P> {
    /// Starts a symbol-per-cycle session over a shared plan.
    pub fn new(plan: &'p P) -> Self {
        Self::with_chain(plan, 1)
    }

    /// Starts a multi-step (sub-symbol) session: start states are
    /// injected only on sub-steps that begin a `chain`-long group. The
    /// group phase survives chunk boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is zero.
    pub fn with_chain(plan: &'p P, chain: usize) -> Self {
        assert!(chain > 0, "chain must be positive");
        ByteSession {
            plan,
            chain,
            lane: Lane::new(plan.len()),
            cycle: 0,
            result: RunResult::default(),
            fed: 0,
        }
    }

    /// The shared compiled plan this session executes.
    pub fn plan(&self) -> &'p P {
        self.plan
    }

    /// Sub-symbols per original symbol (1 for byte sessions).
    pub fn chain(&self) -> usize {
        self.chain
    }

    /// Executes one cycle: the shared byte kernels on the whole-plan
    /// lane.
    fn step(&mut self, symbol: u8, inject_starts: bool, observer: &mut impl Observer) {
        let (plan, cycle) = (self.plan, self.cycle);
        self.lane
            .match_byte(plan, symbol, inject_starts, cycle == 0);
        let out = self.lane.transition(
            plan,
            &Identity,
            |state| Some((plan.report_code_unchecked(state), cycle)),
            &mut self.result.reports,
            &mut Vec::new(),
        );
        self.lane
            .end_flat_cycle(cycle, symbol, out, &mut self.result, observer);
        self.cycle += 1;
    }

    fn reset_state(&mut self) {
        self.lane.reset();
        self.cycle = 0;
        self.fed = 0;
    }
}

impl<P: ExecutionPlan> Session for ByteSession<'_, P> {
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl Observer) {
        if self.chain == 1 {
            for &symbol in chunk {
                self.step(symbol, true, observer);
            }
        } else {
            for &symbol in chunk {
                let inject = self.cycle.is_multiple_of(self.chain);
                self.step(symbol, inject, observer);
            }
        }
        self.fed += chunk.len();
    }

    fn finish_with(&mut self, _observer: &mut impl Observer) -> RunResult {
        let result = std::mem::take(&mut self.result);
        self.reset_state();
        result
    }

    fn reset(&mut self) {
        self.reset_state();
        self.result.reports.clear();
        self.result.activity = Default::default();
    }

    fn bytes_fed(&self) -> usize {
        self.fed
    }

    fn pending(&self) -> &RunResult {
        &self.result
    }
}

impl<P: ExecutionPlan> FlowSession for ByteSession<'_, P> {
    fn suspend(&mut self) -> SuspendedFlow {
        let flow = SuspendedFlow {
            cycle: self.cycle,
            fed: self.fed,
            dynamic: self.lane.snapshot(),
            carry: None,
            result: std::mem::take(&mut self.result),
            dfa: Vec::new(),
        };
        self.reset_state();
        flow
    }

    fn resume(&mut self, flow: SuspendedFlow) {
        debug_assert!(flow.carry.is_none(), "byte sessions carry no odd byte");
        debug_assert_eq!(self.cycle, 0);
        self.lane.restore(&flow.dynamic);
        self.cycle = flow.cycle;
        self.fed = flow.fed;
        self.result = flow.result;
    }

    fn is_idle(&self) -> bool {
        self.lane.dynamic_is_empty()
    }

    fn for_each_active_shard(&self, mut f: impl FnMut(usize)) {
        if !self.is_idle() {
            f(0);
        }
    }
}

/// A cycle-by-cycle simulator: compiles an [`Nfa`] into a
/// [`CompiledAutomaton`] and executes streams on it.
///
/// Each `run` is a complete [`ByteSession`] (start, feed, finish), so
/// one-shot and chunked execution share the same stepping loop; use
/// [`start`](AutomataEngine::start) directly to feed a stream
/// incrementally. For running *many* streams over one automaton,
/// compile the plan once and use
/// [`BatchSimulator`](crate::BatchSimulator) instead of constructing a
/// `Simulator` per stream.
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::Simulator;
///
/// let nfa = regex::compile("ab+")?;
/// let mut sim = Simulator::new(&nfa);
/// let result = sim.run(b"zabbz");
/// assert_eq!(result.report_offsets(), vec![2, 3]);
/// // Every run is a fresh session.
/// let again = sim.run(b"ab");
/// assert_eq!(again.report_offsets(), vec![1]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    nfa: &'a Nfa,
    plan: CompiledAutomaton,
}

impl<'a> Simulator<'a> {
    /// Compiles the automaton and prepares a simulator.
    pub fn new(nfa: &'a Nfa) -> Self {
        let plan = CompiledAutomaton::compile(nfa);
        Simulator { nfa, plan }
    }

    /// The automaton being simulated.
    pub fn nfa(&self) -> &'a Nfa {
        self.nfa
    }

    /// The compiled execution plan the simulator runs on.
    pub fn plan(&self) -> &CompiledAutomaton {
        &self.plan
    }

    /// Starts a multi-step (sub-symbol) streaming session; see
    /// [`run_multistep`](Self::run_multistep) for the group semantics
    /// and [`start`](AutomataEngine::start) for the byte-per-cycle
    /// equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is zero.
    pub fn start_multistep(&self, chain: usize) -> ByteSession<'_> {
        ByteSession::with_chain(&self.plan, chain)
    }

    /// Runs over `input` from a fresh state and returns reports plus
    /// activity statistics.
    pub fn run(&mut self, input: &[u8]) -> RunResult {
        self.run_with(input, &mut NullObserver)
    }

    /// [`run`](Self::run) with a per-cycle observer (used by the energy
    /// models).
    pub fn run_with(&mut self, input: &[u8], observer: &mut impl Observer) -> RunResult {
        let mut session = self.start();
        session.feed_with(input, observer);
        session.finish_with(observer)
    }

    /// Runs a sub-symbol (multi-step) automaton: start states are
    /// injected only on sub-steps that begin a `chain`-long group, which
    /// is how a bit-width-transformed automaton consumes one original
    /// symbol per `chain` sub-symbols.
    ///
    /// `input` is the expanded sub-symbol stream (e.g. a nibble stream);
    /// report offsets are sub-step indices (divide by `chain` and floor
    /// to recover original symbol offsets).
    ///
    /// # Panics
    ///
    /// Panics if `chain` is zero.
    pub fn run_multistep(&mut self, input: &[u8], chain: usize) -> RunResult {
        self.run_multistep_with(input, chain, &mut NullObserver)
    }

    /// [`run_multistep`](Self::run_multistep) with an observer.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is zero.
    pub fn run_multistep_with(
        &mut self,
        input: &[u8],
        chain: usize,
        observer: &mut impl Observer,
    ) -> RunResult {
        let mut session = self.start_multistep(chain);
        session.feed_with(input, observer);
        session.finish_with(observer)
    }
}

impl<'a> AutomataEngine for Simulator<'a> {
    type Session<'e>
        = ByteSession<'e>
    where
        Self: 'e;

    fn start(&self) -> ByteSession<'_> {
        ByteSession::new(&self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpSimulator;
    use cama_core::bitwidth::{to_nibble_nfa, to_nibble_stream};
    use cama_core::regex::{self, reference};
    use cama_core::{NfaBuilder, SymbolClass};

    fn offsets(nfa: &Nfa, input: &[u8]) -> Vec<usize> {
        Simulator::new(nfa).run(input).report_offsets()
    }

    #[test]
    fn paper_example_matches_figure_1() {
        let nfa = regex::compile("(a|b)e*cd+").unwrap();
        assert_eq!(offsets(&nfa, b"beecdd"), vec![4, 5]);
        assert_eq!(offsets(&nfa, b"acd"), vec![2]);
        assert!(offsets(&nfa, b"aed").is_empty());
    }

    #[test]
    fn agrees_with_reference_matcher() {
        let patterns = [
            "abc", "a(b|c)d", "x[0-9]+y", "(ab)+", "a?b?c", "[^z]z", "he(llo)*", "a.c",
        ];
        let inputs: Vec<&[u8]> = vec![
            b"abcabc",
            b"abdacdxx",
            b"x123yx9y",
            b"ababab",
            b"cabcbc",
            b"azbz",
            b"hellollo",
            b"abcaxc",
        ];
        for pattern in patterns {
            let ast = regex::parse(pattern).unwrap();
            let nfa = regex::compile(pattern).unwrap();
            for input in &inputs {
                assert_eq!(
                    offsets(&nfa, input),
                    reference::scan_report_offsets(&ast, input),
                    "pattern {pattern} on {:?}",
                    String::from_utf8_lossy(input)
                );
            }
        }
    }

    #[test]
    fn agrees_with_interpreted_engine() {
        for pattern in ["abc", "a(b|c)d", "x[0-9]+y", "(ab)+", "[^z]z", "a.c"] {
            let nfa = regex::compile(pattern).unwrap();
            for input in [&b"abcabc"[..], b"x123yx9y", b"azbz", b"aaa...c"] {
                let compiled = Simulator::new(&nfa).run(input);
                let interpreted = InterpSimulator::new(&nfa).run(input);
                assert_eq!(compiled, interpreted, "pattern {pattern} on {input:?}");
            }
        }
    }

    #[test]
    fn anchored_pattern_only_matches_at_start() {
        use cama_core::regex::{compile_ast, parse, CompileOptions};
        let nfa = compile_ast(
            &parse("ab").unwrap(),
            CompileOptions {
                anchored: true,
                report_code: 0,
            },
        )
        .unwrap();
        assert_eq!(offsets(&nfa, b"abab"), vec![1]);
        assert!(offsets(&nfa, b"zab").is_empty());
    }

    #[test]
    fn report_codes_flow_through() {
        let nfa = regex::compile_set(&["aa", "bb"]).unwrap();
        let result = Simulator::new(&nfa).run(b"aabb");
        let codes: Vec<u32> = result.reports.iter().map(|r| r.code).collect();
        assert_eq!(codes, vec![0, 1]);
    }

    #[test]
    fn activity_counts_are_sane() {
        let nfa = regex::compile("ab").unwrap();
        let result = Simulator::new(&nfa).run(b"abab");
        assert_eq!(result.activity.cycles, 4);
        // 'a' matches at cycles 0 and 2; 'b' at 1 and 3.
        assert_eq!(result.activity.total_active, 4);
        assert_eq!(result.activity.total_reports, 2);
        assert!(result.activity.avg_active() > 0.0);
    }

    #[test]
    fn multistep_nibble_equivalence() {
        for pattern in ["abc", "a[0-9]+z", "(ab|cd)e", "a.{2}b"] {
            let nfa = regex::compile(pattern).unwrap();
            let nibble = to_nibble_nfa(&nfa);
            let inputs: Vec<&[u8]> = vec![b"abcabc", b"a12z9", b"cdeab e", b"axxb"];
            for input in &inputs {
                let base = offsets(&nfa, input);
                let stream = to_nibble_stream(input);
                let raw = Simulator::new(&nibble.nfa).run_multistep(&stream, nibble.chain);
                let mut mapped: Vec<usize> = raw
                    .reports
                    .iter()
                    .map(|r| r.offset / nibble.chain)
                    .collect();
                mapped.dedup();
                assert_eq!(mapped, base, "pattern {pattern} on {input:?}");
            }
        }
    }

    #[test]
    fn multistep_start_gating_prevents_misaligned_matches() {
        // Nibble automaton for "ab": the nibble pair of 'a' must not be
        // recognized when it straddles two bytes. 'a' = 0x61; craft bytes
        // 0x?6 0x1? so the nibble stream contains 6,1 misaligned.
        let nfa = regex::compile("a").unwrap();
        let nibble = to_nibble_nfa(&nfa);
        let input = [0x06u8, 0x10];
        let stream = to_nibble_stream(&input);
        let raw = Simulator::new(&nibble.nfa).run_multistep(&stream, nibble.chain);
        assert!(raw.reports.is_empty());
    }

    #[test]
    fn start_of_data_nibble_alignment() {
        let mut b = NfaBuilder::new();
        let s = b.add_ste(SymbolClass::singleton(b'q'));
        b.set_start(s, cama_core::StartKind::StartOfData);
        b.set_report(s, 0);
        let nfa = b.build().unwrap();
        let nibble = to_nibble_nfa(&nfa);
        let stream = to_nibble_stream(b"qq");
        let raw = Simulator::new(&nibble.nfa).run_multistep(&stream, nibble.chain);
        let mapped: Vec<usize> = raw.reports.iter().map(|r| r.offset / 2).collect();
        assert_eq!(mapped, vec![0]);
    }

    #[test]
    fn reset_between_runs() {
        let nfa = regex::compile("ab").unwrap();
        let mut sim = Simulator::new(&nfa);
        let first = sim.run(b"a");
        assert!(first.reports.is_empty());
        // Without the reset this 'b' would complete the previous 'a'.
        let second = sim.run(b"b");
        assert!(second.reports.is_empty());
    }

    #[test]
    fn empty_input_is_a_noop() {
        let nfa = regex::compile("a").unwrap();
        let result = Simulator::new(&nfa).run(b"");
        assert_eq!(result.activity.cycles, 0);
        assert!(result.reports.is_empty());
    }
}

//! The sharded cycle engine: executing a
//! [`ShardedAutomaton`] one simulated CAM array at a time.
//!
//! The flat engine ([`Simulator`](crate::Simulator)) sweeps one enable
//! vector sized to the whole design every cycle. The hardware does not:
//! states live in many 256×128 CAM sub-arrays, each array resolves its
//! own activations through its local switch, and only cross-array
//! activations ride the global switch. [`ShardedSession`] is the
//! software form of that decomposition:
//!
//! * **per-shard enable vectors** — each shard keeps its own
//!   dynamic/next/active bit sets over its local state space, stepped
//!   by the same phase kernels as the flat engine
//!   ([`engine`](crate::engine)), with reports carrying the shard's
//!   global ids;
//! * **idle-shard skipping** — a shard with nothing enabled (empty
//!   dynamic vector, no start state matching this symbol, no
//!   start-of-data state on cycle 0) is skipped without touching a
//!   single word, the analogue of powering an idle array down;
//! * **one cross-shard exchange per cycle** — activations crossing
//!   shards are staged while shards execute and applied to the target
//!   shards' next vectors in a single pass, making global-switch
//!   traffic an explicit, countable event
//!   ([`ShardStats::cross_activations`]).
//!
//! Results are bit-identical to the flat engine — same reports in the
//! same order, same activity statistics — for every shard count and
//! assignment (asserted differentially in `tests/property.rs`).
//! Per-shard activity is surfaced to
//! [`ShardObserver`]s, which is how the
//! `cama-arch` energy model charges exactly the arrays that powered up.
//!
//! # Examples
//!
//! ```
//! use cama_core::compiled::ShardedAutomaton;
//! use cama_core::regex;
//! use cama_sim::{Session, ShardedSession};
//!
//! let nfa = regex::compile("ab+c")?;
//! let plan = ShardedAutomaton::compile(&nfa, 2);
//! let mut session = ShardedSession::new(&plan);
//! session.feed(b"zabbc");
//! let result = session.finish();
//! assert_eq!(result.reports.len(), 1);
//! assert_eq!(result.reports[0].offset, 4);
//! # Ok::<(), cama_core::Error>(())
//! ```

use crate::activity::{
    CycleView, DfaShardCycleView, NullObserver, Observer, ShardCycleSummary, ShardCycleView,
    ShardObserver,
};
use crate::engine::{pair_report, sparse_clear, CycleOut, Lane};
use crate::result::{Report, RunResult};
use crate::session::{AutomataEngine, FlowSession, Session, SuspendedFlow};
use cama_core::bitset::BitSet;
use cama_core::compiled::{
    CompiledAutomaton, CompiledDfa, CompiledEncodedAutomaton, CompiledEncodedStridedAutomaton,
    CompiledStridedAutomaton, ExecutionPlan, PlanBase, Shard, ShardedAutomaton, StridedPlan,
};
use cama_core::{Nfa, SteId};

/// One shard's mutable half of a stream: the engine's [`Lane`] over the
/// shard's local state space (reached through `Deref`), plus the
/// hybrid fast path's DFA stepping state.
#[derive(Clone, Debug)]
struct ShardLane {
    lane: Lane,
    /// The shard ships a [`CompiledDfa`] and this session's stepping
    /// mode (byte plan, chain 1) can use it. Fixed at construction.
    dfa_capable: bool,
    /// Step this lane through the DFA table this cycle. Starts equal to
    /// `dfa_capable`; resume clears it (NFA fallback) when a restored
    /// dynamic set has no corresponding DFA state.
    is_dfa: bool,
    /// Current DFA state (0 = empty set) when `is_dfa`.
    dfa_state: u32,
}

impl ShardLane {
    fn new(len: usize, dfa_capable: bool) -> ShardLane {
        ShardLane {
            lane: Lane::new(len),
            dfa_capable,
            is_dfa: dfa_capable,
            dfa_state: 0,
        }
    }

    fn reset(&mut self) {
        self.lane.reset();
        self.is_dfa = self.dfa_capable;
        self.dfa_state = 0;
    }
}

impl std::ops::Deref for ShardLane {
    type Target = Lane;

    fn deref(&self) -> &Lane {
        &self.lane
    }
}

impl std::ops::DerefMut for ShardLane {
    fn deref_mut(&mut self) -> &mut Lane {
        &mut self.lane
    }
}

/// The byte-plan idle probe: `true` when the shard can be skipped this
/// cycle without changing results — nothing dynamically enabled, no
/// start state matching this symbol (if starts inject), and no live
/// start-of-data overlap on cycle 0.
#[inline]
fn byte_shard_idle<P: ExecutionPlan>(
    shard: &Shard<P>,
    lane: &ShardLane,
    symbol: u8,
    inject_starts: bool,
    first_cycle: bool,
) -> bool {
    let starts_matter = inject_starts && shard.start_match_possible(symbol);
    // Cycle 0 only: a shard whose start-of-data states share no bit
    // with this symbol's match vector has nothing to fire.
    let sod_matters = first_cycle
        && shard.has_start_of_data()
        && !shard
            .plan()
            .match_vector(symbol)
            .is_disjoint(shard.plan().start_of_data_mask().as_row());
    lane.dynamic_is_empty() && !starts_matter && !sod_matters
}

/// The strided idle probe: starts inject on every pair cycle; the
/// precomputed pair probe answers exactly whether a statically enabled
/// state matches `a` in its first half and `b` in its second, and a
/// cycle-0 start-of-data state must match both halves to fire.
#[inline]
fn pair_shard_idle<P: StridedPlan>(
    shard: &Shard<P>,
    lane: &ShardLane,
    a: u8,
    b: u8,
    first_cycle: bool,
) -> bool {
    let starts_matter = shard.pair_start_possible(a, b);
    let splan = shard.plan();
    let sod_matters = first_cycle && shard.has_start_of_data() && {
        let sod = splan.start_of_data_mask().as_words();
        let first = splan.first_vector(a).words();
        let second = splan.second_vector(b).words();
        sod.iter()
            .enumerate()
            .any(|(w, &m)| m & first[w] & second[w] != 0)
    };
    lane.dynamic_is_empty() && !starts_matter && !sod_matters
}

/// One visited shard-cycle of the hybrid DFA fast path: the whole
/// active-set computation collapses into a single dense-table lookup —
/// `first[row]` on cycle 0 (start-of-data folded in), `next[state,
/// row]` afterwards — followed by O(words) precomputed writes.
///
/// The kernel *writes through* to the lane's active/next bit sets
/// (members and dynamics of the landed DFA state), so everything
/// downstream — idle probes, suspend/resume, `is_idle`, observers, the
/// cycle-end advance — sees exactly the state the NFA kernels would
/// have produced and needs no DFA awareness. Reports use the same
/// staging path (sorted by (offset, global state) at cycle end), so
/// output is bit-identical to NFA stepping by construction.
///
/// DFAs are only attached to zero-cross-edge component shards and only
/// stepped when `chain == 1` (starts inject every cycle — the
/// `all_input` fold baked into the transition table assumes it), which
/// `ShardLane::dfa_capable` guarantees.
fn step_shard_dfa<P: ExecutionPlan>(
    shard: &Shard<P>,
    dfa: &CompiledDfa,
    lane: &mut ShardLane,
    symbol: u8,
    first_cycle: bool,
    cycle: usize,
    staged_reports: &mut Vec<Report>,
) -> CycleOut {
    let row = shard.plan().row_of_symbol(symbol);
    // A suspended-at-cycle-0 flow has no dynamic state, so on the first
    // cycle the lane is necessarily in the empty state and the
    // start-of-data column applies.
    debug_assert!(!first_cycle || lane.dfa_state == 0);
    let state = if first_cycle {
        dfa.first(row)
    } else {
        dfa.next(lane.dfa_state, row)
    };
    lane.dfa_state = state;
    let globals = shard.global_states();

    // Word-level write-through: OR the state's precomputed active and
    // next-enable bitmaps into the lane — O(words) per cycle even for
    // dense active sets.
    let lane = &mut lane.lane;
    sparse_clear(lane.active.as_words_mut(), &mut lane.active_any);
    let (bits, any) = dfa.active_words(state);
    let active_words = lane.active.as_words_mut();
    for (w, &word) in bits.iter().enumerate() {
        active_words[w] |= word;
    }
    for (j, &word) in any.iter().enumerate() {
        lane.active_any[j] |= word;
    }

    let (report_locals, report_codes) = dfa.reports(state);
    for (&local, &code) in report_locals.iter().zip(report_codes) {
        staged_reports.push(Report {
            ste: SteId(globals[local as usize]),
            code,
            offset: cycle,
        });
    }

    let (next_bits, next_any) = dfa.dynamic_words(state);
    let next_words = lane.next.as_words_mut();
    for (w, &word) in next_bits.iter().enumerate() {
        next_words[w] |= word;
    }
    for (j, &word) in next_any.iter().enumerate() {
        lane.next_any[j] |= word;
    }

    CycleOut {
        num_active: dfa.members(state).len(),
        reports: report_locals.len(),
    }
}

/// Cumulative execution counters of a [`ShardedSession`] — the numbers
/// behind the idle-array power argument.
///
/// Stats are monotone across `finish`/`reset` (they describe the
/// session's lifetime, which may span many pooled streams); use
/// [`ShardedSession::take_stats`] to read and clear.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Cycles each shard actually executed.
    pub shard_cycles: Vec<u64>,
    /// Shard-cycles skipped (nothing enabled, or the shard is empty).
    pub skipped_shard_cycles: u64,
    /// Total 64-state words swept by executed shard-cycles — the
    /// sharded counterpart of `cycles × words` for the flat engine.
    pub words_visited: u64,
    /// Activations carried across shards (simulated global-switch
    /// traffic).
    pub cross_activations: u64,
}

impl ShardStats {
    fn new(num_shards: usize) -> ShardStats {
        ShardStats {
            shard_cycles: vec![0; num_shards],
            ..ShardStats::default()
        }
    }

    /// Total executed shard-cycles across all shards.
    pub fn visited_shard_cycles(&self) -> u64 {
        self.shard_cycles.iter().sum()
    }

    /// Accumulates another session's counters into this one. Every
    /// field is a sum, so merging per-thread stats in any order is
    /// lossless: work-stealing and multi-session rollups produce
    /// exactly the counters one sequential session would have.
    ///
    /// A shorter per-shard vector is extended, so merging into a
    /// `ShardStats::default()` accumulator works.
    pub fn merge(&mut self, other: &ShardStats) {
        if self.shard_cycles.len() < other.shard_cycles.len() {
            self.shard_cycles.resize(other.shard_cycles.len(), 0);
        }
        for (mine, theirs) in self.shard_cycles.iter_mut().zip(&other.shard_cycles) {
            *mine += theirs;
        }
        self.skipped_shard_cycles += other.skipped_shard_cycles;
        self.words_visited += other.words_visited;
        self.cross_activations += other.cross_activations;
    }
}

/// A streaming session over a [`ShardedAutomaton`]: the sharded
/// engine's [`Session`] implementation.
///
/// One immutable sharded plan can drive any number of concurrent
/// sessions; the session owns only the per-shard lanes, the staging
/// buffers, and the accumulated result. Multi-step (sub-symbol)
/// execution is supported through `chain`, exactly as in
/// [`ByteSession`](crate::ByteSession). Like the flat session, it is
/// generic over the per-shard plan flavour: byte plans by default, or
/// [`CompiledEncodedAutomaton`] / [`CompiledStridedAutomaton`] /
/// [`CompiledEncodedStridedAutomaton`] shards for encoding-aware,
/// 2-stride, and encoded 2-stride sharded execution.
///
/// # Examples
///
/// ```
/// use cama_core::compiled::ShardedAutomaton;
/// use cama_core::regex;
/// use cama_sim::{Session, ShardedSession};
///
/// let nfa = regex::compile_set(&["ab", "xy"])?;
/// let plan = ShardedAutomaton::compile_per_component(&nfa);
/// let mut session = ShardedSession::new(&plan);
/// session.feed(b"za");
/// session.feed(b"bxy"); // chunk boundary mid-match
/// assert_eq!(session.finish().report_offsets(), vec![2, 4]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ShardedSession<'p, P: PlanBase = CompiledAutomaton> {
    plan: &'p ShardedAutomaton<P>,
    chain: usize,
    skip_idle: bool,
    lanes: Vec<ShardLane>,
    /// Cross-shard activations staged during the per-shard pass,
    /// exchanged once per cycle (packed `shard << 32 | local`).
    exchange: Vec<u64>,
    /// This cycle's reports, sorted by global state before appending so
    /// report order matches the flat engine exactly.
    staged_reports: Vec<Report>,
    cycle: usize,
    /// Strided plans: first byte of a pair whose second byte has not
    /// arrived yet. Always `None` for byte plans.
    carry: Option<u8>,
    result: RunResult,
    fed: usize,
    stats: ShardStats,
    /// Cached scatter scratch for the flat-[`Observer`] compatibility
    /// path ([`Session::feed_with`]); `None` until first used.
    flat_scratch: Option<Box<FlatViewScratch>>,
}

impl<'p, P: PlanBase> ShardedSession<'p, P> {
    /// Starts a symbol-per-cycle session over a shared sharded plan.
    pub fn new(plan: &'p ShardedAutomaton<P>) -> Self {
        Self::with_chain(plan, 1)
    }

    /// Starts a multi-step (sub-symbol) session: start states are
    /// injected only on sub-steps beginning a `chain`-long group.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is zero.
    pub fn with_chain(plan: &'p ShardedAutomaton<P>, chain: usize) -> Self {
        assert!(chain > 0, "chain must be positive");
        ShardedSession {
            plan,
            chain,
            skip_idle: true,
            lanes: plan
                .shards()
                .iter()
                // DFA stepping folds "starts inject every cycle" into
                // the transition table, so only chain-1 sessions may
                // use an attached DFA.
                .map(|s| ShardLane::new(s.len(), s.dfa().is_some() && chain == 1))
                .collect(),
            exchange: Vec::new(),
            staged_reports: Vec::new(),
            cycle: 0,
            carry: None,
            result: RunResult::default(),
            fed: 0,
            stats: ShardStats::new(plan.num_shards()),
            flat_scratch: None,
        }
    }

    /// The shared sharded plan this session executes.
    pub fn plan(&self) -> &'p ShardedAutomaton<P> {
        self.plan
    }

    /// Sub-symbols per original symbol (1 for byte sessions).
    pub fn chain(&self) -> usize {
        self.chain
    }

    /// Enables or disables idle-shard skipping (on by default). With
    /// skipping off every non-empty shard executes every cycle — the
    /// "all arrays always powered" baseline the benchmarks compare
    /// against. Results are identical either way.
    pub fn set_skip_idle(&mut self, on: bool) {
        self.skip_idle = on;
    }

    /// The session's cumulative execution counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Takes the counters, resetting them to zero.
    pub fn take_stats(&mut self) -> ShardStats {
        std::mem::replace(&mut self.stats, ShardStats::new(self.plan.num_shards()))
    }

    /// Executes one cycle over every shard: the flavour's kernels on
    /// each visited shard, then the cross-shard exchange, the lane
    /// advance, the per-cycle report commit (in ascending (offset,
    /// state) order, matching the flat engines' within-cycle order),
    /// and the cycle accounting. `idle` is the flavour's skip probe and
    /// `kernels` steps one visited shard, staging its reports and
    /// cross-shard activations.
    fn step_shards(
        &mut self,
        symbol: u8,
        observer: &mut impl ShardObserver,
        idle: impl Fn(&Shard<P>, &ShardLane) -> bool,
        kernels: impl Fn(&Shard<P>, &mut ShardLane, &mut Vec<Report>, &mut Vec<u64>) -> CycleOut,
    ) {
        let mut num_active = 0usize;
        let mut num_dynamic = 0usize;
        let mut cycle_reports = 0usize;
        let mut visited = 0usize;
        let mut skipped = 0usize;

        let ShardedSession {
            plan,
            skip_idle,
            lanes,
            exchange,
            staged_reports,
            cycle,
            stats,
            ..
        } = self;

        for (si, (shard, lane)) in plan.shards().iter().zip(lanes.iter_mut()).enumerate() {
            // Skipped shards hold no dynamically enabled state, so the
            // cached per-lane counts sum to the flat engine's total.
            num_dynamic += lane.num_dynamic;
            if shard.is_empty() || (*skip_idle && idle(shard, lane)) {
                skipped += 1;
                stats.skipped_shard_cycles += 1;
                continue;
            }
            visited += 1;
            stats.shard_cycles[si] += 1;
            // A DFA-stepped shard searches one transition-table row
            // instead of sweeping its state words — the modeling choice
            // behind the hybrid visited-words win.
            stats.words_visited += if lane.is_dfa {
                1
            } else {
                shard.plan().len().div_ceil(64) as u64
            };

            let out = kernels(shard, lane, staged_reports, exchange);
            num_active += out.num_active;
            cycle_reports += out.reports;

            let shard_view = ShardCycleView {
                cycle: *cycle,
                symbol,
                shard: si,
                global_states: shard.global_states(),
                dynamic_enabled: &lane.dynamic,
                active: &lane.active,
                reports: out.reports,
            };
            match shard.dfa().filter(|_| lane.is_dfa) {
                Some(dfa) => observer.on_dfa_shard_cycle(&DfaShardCycleView {
                    shard_view,
                    dfa_state: lane.dfa_state,
                    dfa_states: dfa.num_states(),
                    alphabet: dfa.alphabet(),
                }),
                None => observer.on_shard_cycle(&shard_view),
            }
        }

        // The once-per-cycle cross-shard exchange: apply staged
        // activations to the target shards' next vectors.
        stats.cross_activations += exchange.len() as u64;
        for &packed in exchange.iter() {
            lanes[(packed >> 32) as usize].insert_next((packed & u64::from(u32::MAX)) as usize);
        }
        exchange.clear();
        for lane in lanes.iter_mut() {
            lane.advance();
        }

        // Emit this cycle's reports in ascending (offset, global state)
        // order — for byte plans all of a cycle's offsets are equal, so
        // this is exactly the flat engine's within-cycle state order.
        staged_reports.sort_unstable_by_key(|r| (r.offset, r.ste));
        self.result.reports.append(staged_reports);
        self.result
            .activity
            .record(num_active, num_dynamic, cycle_reports);
        observer.on_cycle_end(&ShardCycleSummary {
            cycle: *cycle,
            symbol,
            shards_visited: visited,
            shards_skipped: skipped,
            reports: cycle_reports,
        });
        *cycle += 1;
    }
}

impl<'p, P: ShardedExecution> ShardedSession<'p, P> {
    /// Consumes one chunk, delivering per-shard activity to `observer`
    /// — the native observation path of this engine (the [`Session`]
    /// `feed_with` materializes flat [`CycleView`]s for compatibility
    /// instead). Byte plans consume one symbol per cycle; strided plans
    /// consume a symbol pair, carrying a dangling odd byte across
    /// chunk boundaries.
    pub fn feed_sharded_with(&mut self, chunk: &[u8], observer: &mut impl ShardObserver) {
        P::drive(self, chunk, observer);
        self.fed += chunk.len();
    }

    /// Flushes pending partial state (a strided carry byte), observing
    /// flush cycles natively, and returns the accumulated result — the
    /// [`ShardObserver`] counterpart of [`Session::finish_with`].
    pub fn finish_sharded_with(&mut self, observer: &mut impl ShardObserver) -> RunResult {
        P::flush(self, observer);
        let mut result = std::mem::take(&mut self.result);
        P::sort_reports(&mut result.reports);
        self.reset_state();
        result
    }
}

impl<'p, P: ExecutionPlan> ShardedSession<'p, P> {
    /// Executes one byte cycle: DFA-capable lanes take the table
    /// lookup, every other visited shard the shared byte kernels.
    fn step(&mut self, symbol: u8, inject_starts: bool, observer: &mut impl ShardObserver) {
        let (cycle, first_cycle) = (self.cycle, self.cycle == 0);
        self.step_shards(
            symbol,
            observer,
            |shard, lane| byte_shard_idle(shard, lane, symbol, inject_starts, first_cycle),
            |shard, lane, reports, exchange| match shard.dfa().filter(|_| lane.is_dfa) {
                Some(dfa) => step_shard_dfa(shard, dfa, lane, symbol, first_cycle, cycle, reports),
                None => {
                    let splan = shard.plan();
                    lane.match_byte(splan, symbol, inject_starts, first_cycle);
                    lane.transition(
                        splan,
                        shard,
                        |local| Some((splan.report_code_unchecked(local), cycle)),
                        reports,
                        exchange,
                    )
                }
            },
        );
    }
}

impl<'p, P: StridedPlan> ShardedSession<'p, P> {
    /// Executes one *pair* cycle: the strided counterpart of
    /// [`step`](ShardedSession::step). Shards with nothing enabled —
    /// empty dynamic vector, no statically enabled state whose two
    /// halves could both match this pair, no live start-of-data overlap
    /// on cycle 0 — are skipped without touching a word; `limit`
    /// suppresses pad-byte reports exactly like the flat strided
    /// session.
    fn step_pair(&mut self, a: u8, b: u8, limit: usize, observer: &mut impl ShardObserver) {
        let (cycle, first_cycle) = (self.cycle, self.cycle == 0);
        self.step_shards(
            a,
            observer,
            |shard, lane| pair_shard_idle(shard, lane, a, b, first_cycle),
            |shard, lane, reports, exchange| {
                let splan = shard.plan();
                lane.match_pair(splan, a, b, first_cycle);
                lane.transition(
                    splan,
                    shard,
                    |local| pair_report(splan, local, cycle, limit),
                    reports,
                    exchange,
                )
            },
        );
    }
}

/// The flavour-specific driver half of a [`ShardedSession`]: how a
/// concrete plan type maps a chunk of input bytes onto engine cycles.
/// Byte and encoded plans ([`CompiledAutomaton`],
/// [`CompiledEncodedAutomaton`]) consume one symbol per cycle; strided
/// plans ([`CompiledStridedAutomaton`],
/// [`CompiledEncodedStridedAutomaton`]) consume a symbol pair per
/// cycle, carrying a dangling odd byte across chunk boundaries and
/// flushing it (zero-padded, pad reports suppressed) at finish.
///
/// Implemented per concrete plan type — the kernels themselves stay
/// generic over [`ExecutionPlan`] / [`StridedPlan`]; this trait only
/// selects which kernel drives the session, which is what lets one
/// [`ShardedSession`] (and [`StreamPlan`](crate::StreamPlan), and
/// therefore [`BatchSimulator`](crate::BatchSimulator)) accept every
/// plan flavour.
pub trait ShardedExecution: PlanBase + Sized {
    /// Consumes `chunk` through `session`, delivering per-shard
    /// activity to `observer`.
    fn drive<O: ShardObserver>(
        session: &mut ShardedSession<'_, Self>,
        chunk: &[u8],
        observer: &mut O,
    );

    /// Flushes pending partial state at finish (a strided carry byte;
    /// a no-op for byte plans).
    fn flush<O: ShardObserver>(session: &mut ShardedSession<'_, Self>, observer: &mut O) {
        let _ = (session, observer);
    }

    /// End-of-stream report ordering: strided plans re-sort by
    /// (offset, state) because a pair cycle emits two offsets; byte
    /// plans are already in that order.
    fn sort_reports(reports: &mut Vec<Report>) {
        let _ = reports;
    }
}

/// The byte kernel: one symbol per cycle, start injection gated by the
/// multi-step chain.
fn drive_byte<P: ExecutionPlan>(
    session: &mut ShardedSession<'_, P>,
    chunk: &[u8],
    observer: &mut impl ShardObserver,
) {
    if session.chain == 1 {
        for &symbol in chunk {
            session.step(symbol, true, observer);
        }
    } else {
        for &symbol in chunk {
            let inject = session.cycle.is_multiple_of(session.chain);
            session.step(symbol, inject, observer);
        }
    }
}

/// The paired kernel: two symbols per cycle with the carry byte.
fn drive_pairs<P: StridedPlan>(
    session: &mut ShardedSession<'_, P>,
    chunk: &[u8],
    observer: &mut impl ShardObserver,
) {
    assert_eq!(
        session.chain, 1,
        "multi-step chains are a byte-plan concept; strided plans consume pairs"
    );
    let mut chunk = chunk;
    if let Some(a) = session.carry {
        let Some((&b, rest)) = chunk.split_first() else {
            return;
        };
        session.carry = None;
        session.step_pair(a, b, usize::MAX, observer);
        chunk = rest;
    }
    let mut pairs = chunk.chunks_exact(2);
    for pair in pairs.by_ref() {
        session.step_pair(pair[0], pair[1], usize::MAX, observer);
    }
    if let [last] = *pairs.remainder() {
        session.carry = Some(last);
    }
}

/// The paired flush: a pending carry byte becomes a zero-padded final
/// pair whose pad-offset reports are suppressed.
fn flush_pairs<P: StridedPlan>(
    session: &mut ShardedSession<'_, P>,
    observer: &mut impl ShardObserver,
) {
    if let Some(a) = session.carry.take() {
        let limit = session.fed;
        session.step_pair(a, 0, limit, observer);
    }
}

impl ShardedExecution for CompiledAutomaton {
    fn drive<O: ShardObserver>(
        session: &mut ShardedSession<'_, Self>,
        chunk: &[u8],
        observer: &mut O,
    ) {
        drive_byte(session, chunk, observer);
    }
}

impl ShardedExecution for CompiledEncodedAutomaton {
    fn drive<O: ShardObserver>(
        session: &mut ShardedSession<'_, Self>,
        chunk: &[u8],
        observer: &mut O,
    ) {
        drive_byte(session, chunk, observer);
    }
}

impl ShardedExecution for CompiledStridedAutomaton {
    fn drive<O: ShardObserver>(
        session: &mut ShardedSession<'_, Self>,
        chunk: &[u8],
        observer: &mut O,
    ) {
        drive_pairs(session, chunk, observer);
    }

    fn flush<O: ShardObserver>(session: &mut ShardedSession<'_, Self>, observer: &mut O) {
        flush_pairs(session, observer);
    }

    fn sort_reports(reports: &mut Vec<Report>) {
        reports.sort_by_key(|r| (r.offset, r.ste));
    }
}

impl ShardedExecution for CompiledEncodedStridedAutomaton {
    fn drive<O: ShardObserver>(
        session: &mut ShardedSession<'_, Self>,
        chunk: &[u8],
        observer: &mut O,
    ) {
        drive_pairs(session, chunk, observer);
    }

    fn flush<O: ShardObserver>(session: &mut ShardedSession<'_, Self>, observer: &mut O) {
        flush_pairs(session, observer);
    }

    fn sort_reports(reports: &mut Vec<Report>) {
        reports.sort_by_key(|r| (r.offset, r.ste));
    }
}

impl<'p, P: PlanBase> ShardedSession<'p, P> {
    /// Restores power-on state (stats excepted), keeping capacity.
    fn reset_state(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.exchange.clear();
        self.staged_reports.clear();
        self.cycle = 0;
        self.carry = None;
        self.fed = 0;
    }
}

impl<P: ShardedExecution> Session for ShardedSession<'_, P> {
    fn feed_with(&mut self, chunk: &[u8], observer: &mut impl Observer) {
        // The global-sized scatter scratch is cached on the session so
        // per-chunk cost stays O(activity), not O(states) of fresh
        // zeroed allocations.
        let mut scratch = self
            .flat_scratch
            .take()
            .unwrap_or_else(|| Box::new(FlatViewScratch::new(self.plan.len())));
        let mut adapter = GlobalViewAdapter {
            observer,
            scratch: &mut scratch,
        };
        self.feed_sharded_with(chunk, &mut adapter);
        self.flat_scratch = Some(scratch);
    }

    fn feed(&mut self, chunk: &[u8]) {
        // Override the default (which would build a flat-view adapter):
        // the unobserved path never materializes global vectors.
        self.feed_sharded_with(chunk, &mut NullObserver);
    }

    fn finish_with(&mut self, observer: &mut impl Observer) -> RunResult {
        if self.carry.is_some() {
            // A strided carry byte flushes as one final pair cycle;
            // route its activity through the flat-view adapter so the
            // observer sees the flush exactly like fed cycles.
            let mut scratch = self
                .flat_scratch
                .take()
                .unwrap_or_else(|| Box::new(FlatViewScratch::new(self.plan.len())));
            let mut adapter = GlobalViewAdapter {
                observer,
                scratch: &mut scratch,
            };
            P::flush(self, &mut adapter);
            self.flat_scratch = Some(scratch);
        }
        let mut result = std::mem::take(&mut self.result);
        P::sort_reports(&mut result.reports);
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

impl<P: ShardedExecution> FlowSession for ShardedSession<'_, P> {
    fn suspend(&mut self) -> SuspendedFlow {
        let mut dynamic = Vec::new();
        let mut dfa = Vec::new();
        for (si, (shard, lane)) in self.plan.shards().iter().zip(&self.lanes).enumerate() {
            for local in lane.dynamic.iter() {
                dynamic.push(shard.global_states()[local]);
            }
            // Record a resume hint for every live DFA-stepped lane so
            // same-plan resume skips the set-to-state lookup. Idle DFA
            // lanes are implicitly in state 0 and need no hint.
            if lane.is_dfa && !lane.dynamic_is_empty() {
                dfa.push((si as u32, lane.dfa_state));
            }
        }
        let flow = SuspendedFlow {
            cycle: self.cycle,
            fed: self.fed,
            dynamic,
            carry: self.carry.take(),
            result: std::mem::take(&mut self.result),
            dfa,
        };
        self.reset_state();
        flow
    }

    fn resume(&mut self, flow: SuspendedFlow) {
        debug_assert!(self.cycle == 0 && self.is_idle());
        self.cycle = flow.cycle;
        self.fed = flow.fed;
        self.carry = flow.carry;
        self.result = flow.result;
        for &global in &flow.dynamic {
            let (shard, local) = self.plan.placement_of(global as usize);
            self.lanes[shard as usize].insert_dynamic(local as usize);
        }
        let mut locals = Vec::new();
        for (si, (shard, lane)) in self.plan.shards().iter().zip(&mut self.lanes).enumerate() {
            if !lane.dfa_capable {
                continue;
            }
            // Re-derive the DFA state from the restored dynamic set. A
            // hint from the suspending session short-circuits the
            // lookup once validated; a set with no interned state (the
            // flow was translated from another plan, or ran NFA-style
            // before suspension) drops this lane to NFA stepping — the
            // kernels are report-equivalent, only the cost differs.
            locals.clear();
            locals.extend(lane.dynamic.iter().map(|l| l as u32));
            let dfa = shard.dfa().expect("dfa_capable lane has a DFA");
            if locals.is_empty() {
                lane.is_dfa = true;
                lane.dfa_state = 0;
                continue;
            }
            let hinted = flow
                .dfa
                .iter()
                .find(|&&(s, _)| s as usize == si)
                .map(|&(_, state)| state)
                .filter(|&state| dfa.dynamics(state) == locals.as_slice());
            match hinted.or_else(|| dfa.resume_state(&locals)) {
                Some(state) => {
                    lane.is_dfa = true;
                    lane.dfa_state = state;
                }
                None => {
                    lane.is_dfa = false;
                    lane.dfa_state = 0;
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.carry.is_none() && self.lanes.iter().all(|lane| lane.dynamic_is_empty())
    }

    fn for_each_active_shard(&self, mut f: impl FnMut(usize)) {
        for (si, lane) in self.lanes.iter().enumerate() {
            if !lane.dynamic_is_empty() {
                f(si);
            }
        }
    }
}

/// The reusable global-sized scatter vectors behind the flat-observer
/// compatibility path, cached on the session between `feed_with` calls.
#[derive(Clone, Debug)]
struct FlatViewScratch {
    dynamic: BitSet,
    active: BitSet,
    touched_dynamic: Vec<u32>,
    touched_active: Vec<u32>,
}

impl FlatViewScratch {
    fn new(len: usize) -> Self {
        FlatViewScratch {
            dynamic: BitSet::new(len),
            active: BitSet::new(len),
            touched_dynamic: Vec::new(),
            touched_active: Vec::new(),
        }
    }
}

/// Adapts a flat [`Observer`] to the sharded engine by scattering each
/// visited shard's local activity into global-sized vectors and
/// emitting one classic [`CycleView`] per cycle.
struct GlobalViewAdapter<'o, O: Observer> {
    observer: &'o mut O,
    scratch: &'o mut FlatViewScratch,
}

impl<O: Observer> ShardObserver for GlobalViewAdapter<'_, O> {
    fn on_shard_cycle(&mut self, view: &ShardCycleView<'_>) {
        for local in view.dynamic_enabled.iter() {
            let global = view.global_states[local];
            self.scratch.dynamic.insert(global as usize);
            self.scratch.touched_dynamic.push(global);
        }
        for local in view.active.iter() {
            let global = view.global_states[local];
            self.scratch.active.insert(global as usize);
            self.scratch.touched_active.push(global);
        }
    }

    fn on_cycle_end(&mut self, summary: &ShardCycleSummary) {
        self.observer.on_cycle(&CycleView {
            cycle: summary.cycle,
            symbol: summary.symbol,
            dynamic_enabled: &self.scratch.dynamic,
            active: &self.scratch.active,
            reports: summary.reports,
        });
        for &global in &self.scratch.touched_dynamic {
            self.scratch.dynamic.remove(global as usize);
        }
        for &global in &self.scratch.touched_active {
            self.scratch.active.remove(global as usize);
        }
        self.scratch.touched_dynamic.clear();
        self.scratch.touched_active.clear();
    }
}

/// The sharded counterpart of [`Simulator`](crate::Simulator): compiles
/// an [`Nfa`] into a [`ShardedAutomaton`] and executes streams on it,
/// one simulated CAM array per shard.
///
/// # Examples
///
/// ```
/// use cama_core::regex;
/// use cama_sim::ShardedSimulator;
///
/// let nfa = regex::compile_set(&["ab+", "xy"])?;
/// let mut sim = ShardedSimulator::per_component(&nfa);
/// let result = sim.run(b"zabbxy");
/// assert_eq!(result.report_offsets(), vec![2, 3, 5]);
/// # Ok::<(), cama_core::Error>(())
/// ```
#[derive(Debug)]
pub struct ShardedSimulator<'a> {
    nfa: &'a Nfa,
    plan: ShardedAutomaton,
    skip_idle: bool,
}

impl<'a> ShardedSimulator<'a> {
    /// Compiles `nfa` into at most `num_shards` component-balanced
    /// shards and prepares a simulator.
    pub fn new(nfa: &'a Nfa, num_shards: usize) -> Self {
        Self::from_plan(nfa, ShardedAutomaton::compile(nfa, num_shards))
    }

    /// One shard per connected component.
    pub fn per_component(nfa: &'a Nfa) -> Self {
        Self::from_plan(nfa, ShardedAutomaton::compile_per_component(nfa))
    }

    /// An explicit per-state shard assignment (e.g. the architecture
    /// mapper's `partition_of`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != nfa.len()`.
    pub fn with_assignment(nfa: &'a Nfa, assignment: &[u32]) -> Self {
        Self::from_plan(
            nfa,
            ShardedAutomaton::compile_with_assignment(nfa, assignment),
        )
    }

    fn from_plan(nfa: &'a Nfa, plan: ShardedAutomaton) -> Self {
        ShardedSimulator {
            nfa,
            plan,
            skip_idle: true,
        }
    }

    /// Sets whether sessions skip idle shards (on by default); see
    /// [`ShardedSession::set_skip_idle`].
    pub fn skip_idle(mut self, on: bool) -> Self {
        self.skip_idle = on;
        self
    }

    /// The automaton being simulated.
    pub fn nfa(&self) -> &'a Nfa {
        self.nfa
    }

    /// The sharded execution plan.
    pub fn plan(&self) -> &ShardedAutomaton {
        &self.plan
    }

    /// Runs over `input` from a fresh state.
    pub fn run(&mut self, input: &[u8]) -> RunResult {
        let mut session = self.start();
        session.feed(input);
        session.finish()
    }

    /// [`run`](Self::run) with a flat per-cycle observer (compatibility
    /// path; global views are materialized from shard activity).
    pub fn run_with(&mut self, input: &[u8], observer: &mut impl Observer) -> RunResult {
        let mut session = self.start();
        session.feed_with(input, observer);
        session.finish_with(observer)
    }

    /// [`run`](Self::run) with a per-shard observer — the native
    /// observation path (used by the energy models).
    pub fn run_sharded_with(
        &mut self,
        input: &[u8],
        observer: &mut impl ShardObserver,
    ) -> RunResult {
        let mut session = self.start();
        session.feed_sharded_with(input, observer);
        session.finish()
    }

    /// Starts a multi-step (sub-symbol) streaming session; see
    /// [`Simulator::run_multistep`](crate::Simulator::run_multistep)
    /// for the group semantics.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is zero.
    pub fn start_multistep(&self, chain: usize) -> ShardedSession<'_> {
        let mut session = ShardedSession::with_chain(&self.plan, chain);
        session.set_skip_idle(self.skip_idle);
        session
    }
}

impl<'a> AutomataEngine for ShardedSimulator<'a> {
    type Session<'e>
        = ShardedSession<'e>
    where
        Self: 'e;

    fn start(&self) -> ShardedSession<'_> {
        self.start_multistep(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use cama_core::regex;

    #[test]
    fn shard_stats_merge_sums_every_field() {
        let mut a = ShardStats::new(2);
        a.shard_cycles = vec![1, 2];
        a.skipped_shard_cycles = 4;
        a.words_visited = 7;
        a.cross_activations = 5;
        let mut b = ShardStats::new(2);
        b.shard_cycles = vec![100, 200];
        b.skipped_shard_cycles = 40;
        b.words_visited = 70;
        b.cross_activations = 50;
        a.merge(&b);
        assert_eq!(a.shard_cycles, vec![101, 202]);
        assert_eq!(a.skipped_shard_cycles, 44);
        assert_eq!(a.words_visited, 77);
        assert_eq!(a.cross_activations, 55);
        // The argument is untouched.
        assert_eq!(b.shard_cycles, vec![100, 200]);
    }

    #[test]
    fn shard_stats_merge_grows_to_the_wider_operand() {
        let mut narrow = ShardStats::new(1);
        narrow.shard_cycles = vec![5];
        let mut wide = ShardStats::new(3);
        wide.shard_cycles = vec![1, 2, 3];
        narrow.merge(&wide);
        assert_eq!(narrow.shard_cycles, vec![6, 2, 3]);
    }

    #[test]
    fn shard_stats_merge_matches_split_session_rollup() {
        // Feeding one input in two sessions and merging their stats
        // equals feeding it twice in one session (state resets between
        // runs, so the counters are independent and additive).
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y"]).unwrap();
        let input = b"zab bcx12y qabcx9y";
        let sim = ShardedSimulator::new(&nfa, 3);

        let mut once = sim.start();
        once.feed(input);
        once.finish();
        let mut twice = sim.start();
        twice.feed(input);
        twice.finish();
        let mut both = once.take_stats();
        both.merge(twice.stats());

        let mut double = sim.start();
        double.feed(input);
        double.finish();
        double.feed(input);
        double.finish();
        let expect = double.take_stats();

        assert_eq!(both, expect);
    }

    #[test]
    fn sharded_matches_flat_on_multi_component_set() {
        let nfa = regex::compile_set(&["ab+c", "x[0-9]+y", "q"]).unwrap();
        let input = b"zab bcx12y qabcx9y";
        let flat = Simulator::new(&nfa).run(input);
        for shards in [1, 2, 3, usize::MAX] {
            let sharded = ShardedSimulator::new(&nfa, shards).run(input);
            assert_eq!(sharded, flat, "{shards} shards");
        }
    }

    #[test]
    fn split_component_exchanges_cross_activations() {
        // A chain split across two shards forces global-switch traffic.
        let nfa = regex::compile("abcd").unwrap();
        let sim = ShardedSimulator::with_assignment(&nfa, &[0, 0, 1, 1]);
        let flat = Simulator::new(&nfa).run(b"zabcdabcd");
        let mut session = sim.start();
        session.feed(b"zabcdabcd");
        let result = session.finish();
        assert_eq!(result, flat);
        assert!(session.stats().cross_activations > 0);
    }

    #[test]
    fn idle_shards_are_skipped_without_changing_results() {
        let nfa = regex::compile_set(&["abc", "xyz"]).unwrap();
        let input = b"abcabcabc"; // never touches the xyz component
        let sim = ShardedSimulator::per_component(&nfa);
        let mut session = sim.start();
        session.feed(input);
        let skipping = session.finish();
        let stats = session.take_stats();
        assert!(stats.skipped_shard_cycles > 0, "{stats:?}");
        // The xyz shard should never have executed: no start matches.
        assert!(stats.shard_cycles.contains(&0), "{stats:?}");

        let no_skip = ShardedSimulator::per_component(&nfa).skip_idle(false);
        let mut session = no_skip.start();
        session.feed(input);
        assert_eq!(session.finish(), skipping);
        let stats_no_skip = session.take_stats();
        assert!(stats_no_skip.words_visited > stats.words_visited);
        assert_eq!(stats_no_skip.skipped_shard_cycles, 0);
    }

    #[test]
    fn report_order_matches_flat_engine_within_a_cycle() {
        // Two patterns reporting at the same offset; per-component
        // sharding reverses shard visit order relative to state ids
        // unless the engine re-sorts per cycle.
        let nfa = regex::compile_set(&["ab", "zb"]).unwrap();
        let input = b"azbab";
        let flat = Simulator::new(&nfa).run(input);
        let sharded = ShardedSimulator::per_component(&nfa).run(input);
        assert_eq!(sharded.reports, flat.reports);
    }

    #[test]
    fn suspend_resume_is_transparent() {
        let nfa = regex::compile("ab+c").unwrap();
        let plan = ShardedAutomaton::compile(&nfa, 2);
        let mut session = ShardedSession::new(&plan);
        session.feed(b"zab");
        let suspended = session.suspend();
        assert!(session.is_idle());
        // The session can serve another flow in between.
        session.feed(b"abc");
        assert_eq!(session.finish().report_offsets(), vec![2]);
        session.resume(suspended);
        session.feed(b"bc");
        let result = session.finish();
        assert_eq!(result, Simulator::new(&nfa).run(b"zabbc"));
    }

    #[test]
    fn flat_observer_compatibility_views_match() {
        use crate::activity::CycleView;
        struct Capture(Vec<(usize, Vec<usize>, Vec<usize>)>);
        impl Observer for Capture {
            fn on_cycle(&mut self, view: &CycleView<'_>) {
                self.0.push((
                    view.cycle,
                    view.dynamic_enabled.iter().collect(),
                    view.active.iter().collect(),
                ));
            }
        }
        let nfa = regex::compile_set(&["ab+c", "xy"]).unwrap();
        let input = b"abxybbcxy";
        let mut flat_cap = Capture(Vec::new());
        Simulator::new(&nfa).run_with(input, &mut flat_cap);
        let mut sharded_cap = Capture(Vec::new());
        ShardedSimulator::per_component(&nfa).run_with(input, &mut sharded_cap);
        assert_eq!(flat_cap.0, sharded_cap.0);
    }

    #[test]
    fn multistep_chain_gates_starts() {
        use cama_core::bitwidth::{to_nibble_nfa, to_nibble_stream};
        let nfa = regex::compile_set(&["ab", "cd"]).unwrap();
        let nibble = to_nibble_nfa(&nfa);
        let stream = to_nibble_stream(b"abcdab");
        let flat = Simulator::new(&nibble.nfa).run_multistep(&stream, nibble.chain);
        let plan = ShardedAutomaton::compile(&nibble.nfa, 2);
        let mut session = ShardedSession::with_chain(&plan, nibble.chain);
        for chunk in stream.chunks(3) {
            session.feed(chunk);
        }
        assert_eq!(session.finish(), flat);
    }

    #[test]
    fn empty_plan_session_is_a_noop() {
        let nfa = cama_core::NfaBuilder::new().build().unwrap();
        let plan = ShardedAutomaton::compile(&nfa, 4);
        let mut session = ShardedSession::new(&plan);
        session.feed(b"abc");
        let result = session.finish();
        assert!(result.reports.is_empty());
        assert_eq!(result.activity.cycles, 3);
    }
}

//! Cycle-accurate functional simulation of homogeneous NFAs — the
//! reproduction's stand-in for VASim, built on compiled execution plans.
//!
//! Every in-memory automata accelerator in the paper executes the same
//! two-phase loop per input symbol: *state matching* (which STEs accept
//! the symbol) followed by *state transition* (AND with the enable vector,
//! report, and compute the next enable vector). This crate implements that
//! loop exactly, once: one set of phase kernels in [`engine`] steps a
//! per-stream lane of enable vectors, and every session type — byte,
//! encoded, strided, encoded strided, and sharded (one lane per shard) —
//! calls those kernels, so that the architecture models in `cama-arch`
//! can attach energy/activity observers to a single trusted engine.
//!
//! * [`Simulator`] — byte-per-cycle execution of an
//!   [`Nfa`](cama_core::Nfa) (compiles a plan internally);
//! * [`encoded::EncodedSimulator`] — the same loop executing on a
//!   [`CompiledEncodedAutomaton`](cama_core::compiled::CompiledEncodedAutomaton):
//!   every symbol passes through the encoding codebook and matches the
//!   states' actual CAM entry masks (the layout the energy model
//!   charges), bit-identical to the byte engine for exact encodings;
//! * [`Simulator::run_multistep`] — sub-symbol execution for bit-width
//!   transformed automata (Impala's nibble NFAs);
//! * [`session`] — the streaming-session layer: every engine implements
//!   [`AutomataEngine`], whose [`Session`]s accept input in arbitrary
//!   chunks (`feed`) with results identical to one-shot runs;
//! * [`BatchSimulator`] — the multi-stream stream table: open/feed/close
//!   interleaved flows over one shared compiled plan, plus sequential
//!   and threaded whole-batch runs. The threaded run
//!   ([`BatchSimulator::run_parallel`]) is the crate's one parallel
//!   path: each thread claims whole streams off an atomic cursor and
//!   steps them with its own session, so no per-cycle synchronization
//!   exists;
//! * [`sharded`] — [`ShardedSession`], the one sharded stepping loop:
//!   per-array enable vectors, idle-array skipping, and the hybrid
//!   DFA fast path, bit-identical to the flat engine;
//! * [`frame`] — length-prefixed wire framing ([`FrameDecoder`]) for
//!   demuxing interleaved flows out of one buffer;
//! * [`control`] — the serving control plane over the stream table:
//!   admission verdicts, per-flow/per-tenant token-bucket rate limits
//!   with bounded deferral, QoS-aware victim policies
//!   ([`ControlledBatch`]), and a per-tenant usage ledger;
//! * [`interp::InterpSimulator`] — the pre-compilation
//!   structure-at-a-time engine, kept as the semantic baseline;
//! * [`strided::StridedSimulator`] — two-bytes-per-cycle execution of a
//!   [`StridedNfa`](cama_core::stride::StridedNfa) on a factored
//!   pair-match plan, with the byte engine's selective word visitation;
//!   [`strided::EncodedStridedSimulator`] runs the same pair loop on
//!   per-half encoding codebooks, and the sharded engine and stream
//!   table accept both strided plan flavours;
//! * [`profile`] — profile-guided shard assignment: per-state activity
//!   counted by a [`ShardingProfile`] observer attached to a measured
//!   run, packed into a heat-sorted sharding that concentrates hot
//!   states and leaves cold arrays skippable;
//! * [`activity`] — the per-cycle observer interface and summary
//!   statistics the energy models consume;
//! * [`buffers`] — the 128-entry input / 64-entry output buffer
//!   interruption model of §VI.B, fed directly from run results.
//!
//! # Examples
//!
//! ```
//! use cama_core::regex;
//! use cama_sim::Simulator;
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let result = Simulator::new(&nfa).run(b"xbeecddy");
//! let offsets: Vec<usize> = result.reports.iter().map(|r| r.offset).collect();
//! assert_eq!(offsets, vec![5, 6]);
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! Streaming the same input in arbitrary chunks:
//!
//! ```
//! use cama_core::regex;
//! use cama_sim::{AutomataEngine, Session, Simulator};
//!
//! let nfa = regex::compile("(a|b)e*cd+")?;
//! let sim = Simulator::new(&nfa);
//! let mut session = sim.start();
//! for chunk in [&b"xbe"[..], b"e", b"cddy"] {
//!     session.feed(chunk);
//! }
//! assert_eq!(session.finish().report_offsets(), vec![5, 6]);
//! # Ok::<(), cama_core::Error>(())
//! ```
//!
//! Batched serving over a shared plan:
//!
//! ```
//! use cama_core::compiled::CompiledAutomaton;
//! use cama_core::regex;
//! use cama_sim::BatchSimulator;
//!
//! let nfa = regex::compile("ab+")?;
//! let plan = CompiledAutomaton::compile(&nfa);
//! let batch = BatchSimulator::new(&plan);
//! let streams: Vec<&[u8]> = vec![b"zabbz", b"ab"];
//! let per_stream = batch.run_parallel(&streams, 2);
//! assert_eq!(per_stream[0].report_offsets(), vec![2, 3]);
//! # Ok::<(), cama_core::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod activity;
pub mod batch;
pub mod buffers;
pub mod control;
pub mod encoded;
pub mod engine;
pub mod frame;
pub mod interp;
pub mod profile;
pub mod result;
pub mod session;
pub mod sharded;
pub mod strided;

pub use activity::{
    ActivitySummary, CycleView, DfaShardCycleView, Observer, ShardCycleSummary, ShardCycleView,
    ShardObserver,
};
pub use batch::{BatchSimulator, ShardedBatch, StreamPlan, SwapReport, SwapVerdict};
pub use buffers::BufferStats;
pub use control::{
    Admission, ClassLruPolicy, ControlConfig, ControlledBatch, FeedVerdict, FlowSpec, LruPolicy,
    QosClass, QosPolicy, RateLimit, RejectReason, TenantId, TenantUsage, VictimCandidate,
    VictimPolicy,
};
pub use encoded::{EncodedSession, EncodedSimulator};
pub use engine::{ByteSession, Simulator};
pub use frame::{FrameDecoder, FrameError, FrameEvent, StreamId};
pub use interp::{InterpSession, InterpSimulator};
pub use profile::ShardingProfile;
pub use result::{Report, RunResult};
pub use session::{AutomataEngine, FlowSession, Session, SuspendedFlow};
pub use sharded::{ShardStats, ShardedExecution, ShardedSession, ShardedSimulator};
pub use strided::{
    EncodedStridedSession, EncodedStridedSimulator, StridedSession, StridedSimulator,
};

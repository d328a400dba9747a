//! The modeled-hardware column: the paper's CAMA-E (Figs 11–12) and
//! 2-stride CAMA-E (Fig 13) energy of a workload's traffic, through the
//! same entry points the figure binaries use. Modeled values repeat
//! exactly for a given seed; host times of these calls are reported
//! separately and never folded into them.

use crate::record::{host, model, Record};
use crate::stats::Tracer;
use crate::{secs, timed};
use cama_arch::energy::EnergyBreakdown;
use cama_arch::report::{evaluate_strided, evaluate_with_plan, strided_weights, DesignReport};
use cama_arch::DesignKind;
use cama_core::stride::StridedNfa;
use cama_core::Nfa;
use cama_encoding::EncodingPlan;
use std::time::Duration;

/// The encode and stride products one automaton's evaluations share.
pub struct Prepared {
    /// The CAM codebook plan (CAMA-E).
    pub encoding: EncodingPlan,
    /// The 2-stride automaton (2s-CAMA-E).
    pub strided: StridedNfa,
    /// Fig 13's per-strided-state slot weights.
    pub weights: Vec<u32>,
    /// Host time of `EncodingPlan::for_nfa`.
    pub plan_time: Duration,
    /// Host time of `StridedNfa::from_nfa`.
    pub stride_time: Duration,
}

/// Encodes and strides `nfa` (the paper's set-up steps).
pub fn prepare(nfa: &Nfa, tracer: &mut Tracer) -> Prepared {
    let (encoding, plan_time) =
        timed(|| tracer.span("encoding.for_nfa", || EncodingPlan::for_nfa(nfa)));
    let (strided, stride_time) =
        timed(|| tracer.span("stride.from_nfa", || StridedNfa::from_nfa(nfa)));
    let weights = strided_weights(DesignKind::Cama2E, &strided);
    Prepared {
        encoding,
        strided,
        weights,
        plan_time,
        stride_time,
    }
}

/// One CAMA-E and one 2s-CAMA-E evaluation of `input`, with the host
/// time of each call.
pub fn evaluate(
    prepared: &Prepared,
    nfa: &Nfa,
    input: &[u8],
    tracer: &mut Tracer,
) -> [(DesignReport, Duration); 2] {
    let one = timed(|| {
        tracer.span("arch.evaluate_with_plan", || {
            evaluate_with_plan(DesignKind::CamaE, nfa, input, Some(&prepared.encoding))
        })
    });
    let two = timed(|| {
        tracer.span("arch.evaluate_strided", || {
            evaluate_strided(
                DesignKind::Cama2E,
                &prepared.strided,
                prepared.weights.clone(),
                input,
            )
        })
    });
    [one, two]
}

/// Modeled nJ per input byte of a summed breakdown.
pub fn nj_per_byte(energy: &EnergyBreakdown, bytes: usize) -> f64 {
    energy.total().to_nanojoules() / bytes.max(1) as f64
}

/// Records the model columns for a serving workload: every stream is
/// evaluated on both designs and the energies are summed, so the value
/// is the modeled energy per byte of the whole traffic sample. Returns
/// the encode and stride products for further probes.
pub fn record_serving(
    record: &mut Record,
    tracer: &mut Tracer,
    nfa: &Nfa,
    streams: &[Vec<u8>],
) -> Prepared {
    let prepared = prepare(nfa, tracer);
    let mut one = EnergyBreakdown::default();
    let mut two = EnergyBreakdown::default();
    let mut bytes = 0;
    let mut eval_time = Duration::ZERO;
    for stream in streams {
        let [(e, took), (s, _)] = evaluate(&prepared, nfa, stream, tracer);
        one.accumulate(&e.energy);
        two.accumulate(&s.energy);
        bytes += stream.len();
        eval_time += took;
    }
    record.layer(
        "model.eval_ns_per_byte",
        host(eval_time.as_nanos() as f64 / bytes.max(1) as f64, "ns")
            .over(streams.len())
            .per("evaluate_with_plan(CAMA-E) host time per input byte"),
    );
    record.e2e("model_nj_per_byte", model(nj_per_byte(&one, bytes), "nJ/B"));
    record.e2e(
        "model_2s_nj_per_byte",
        model(nj_per_byte(&two, bytes), "nJ/B"),
    );
    split_rows(record, &one, bytes);
    prepare_rows(record, &prepared);
    prepared
}

/// The modeled two-phase split (state match vs state transition) plus
/// the encoder, per input byte: the stand-in for host phase timing,
/// which cannot be measured from outside the kernel.
pub fn split_rows(record: &mut Record, energy: &EnergyBreakdown, bytes: usize) {
    let per_byte = |e: cama_mem::units::Energy| e.value() / bytes.max(1) as f64;
    record.layer(
        "energy.state_match_pj_per_byte",
        model(per_byte(energy.state_match), "pJ/B"),
    );
    record.layer(
        "energy.switch_wire_pj_per_byte",
        model(per_byte(energy.switch_wire), "pJ/B"),
    );
    record.layer(
        "energy.encoder_pj_per_byte",
        model(per_byte(energy.encoder), "pJ/B"),
    );
}

/// Host time of the encode and stride steps.
pub fn prepare_rows(record: &mut Record, prepared: &Prepared) {
    record.layer(
        "encoding.plan_ms",
        host(secs(prepared.plan_time) * 1e3, "ms"),
    );
    record.layer(
        "stride.from_nfa_ms",
        host(secs(prepared.stride_time) * 1e3, "ms"),
    );
    record.layer(
        "stride.states",
        crate::record::count(prepared.strided.len() as f64, "count"),
    );
}

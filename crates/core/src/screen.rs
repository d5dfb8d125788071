//! Heuristic 2 support: the local, one-gate evaluation of a candidate
//! correction ("a single simulation step on the gate driving l and the
//! fan-ins to that gate", §3.2).
//!
//! Given the current value matrix, [`correction_output_row_into`] computes
//! what the corrected gate would output on *every* vector without touching
//! the netlist — the cheap test that, per the paper, "disqualifies the
//! majority of inappropriate corrections". It evaluates over borrowed row
//! slices into a caller-owned [`CorrectionScratch`], so screening
//! allocates nothing per candidate; [`correction_output_row`] is the
//! allocating convenience wrapper.
//!
//! Screening calls it in two places: heuristic 2 for the design-error
//! candidates without a closed-form count (kind changes, inverted, removed
//! or wired-through inputs — stuck-at constants and wire candidates are
//! counted from per-line masks in `pipeline.rs`), and heuristic 3 for the
//! row of every heuristic-2 survivor. It is also the reference the
//! closed forms are tested against.

use incdx_fault::{Correction, CorrectionAction};
use incdx_netlist::{GateId, GateKind, Netlist};
use incdx_sim::{PackedBits, PackedMatrix};

use crate::error::IncdxError;

/// Caller-owned scratch arena for [`correction_output_row_into`]: the
/// output row plus one temporary (inverted-input / inserted-gate
/// intermediate). Reused across candidates; sized lazily to the matrix's
/// word count.
#[derive(Debug, Default, Clone)]
pub struct CorrectionScratch {
    out: Vec<u64>,
    tmp: Vec<u64>,
}

/// Evaluates `kind` over an iterator of borrowed fanin rows into `out`
/// (whole words; tail bits are garbage-in/garbage-out). Returns `false`
/// when the kind needs a fanin and none was supplied, or the kind has no
/// evaluable function (primary input, state element) — callers treat
/// such candidates as inapplicable.
#[must_use]
fn eval_rows_into<'a, I>(kind: GateKind, mut rows: I, out: &mut [u64]) -> bool
where
    I: Iterator<Item = &'a [u64]>,
{
    match kind {
        GateKind::Const0 => out.fill(0),
        GateKind::Const1 => out.fill(!0),
        GateKind::Buf | GateKind::Not => {
            let Some(first) = rows.next() else {
                return false;
            };
            if kind == GateKind::Buf {
                out.copy_from_slice(first);
            } else {
                for (o, &w) in out.iter_mut().zip(first) {
                    *o = !w;
                }
            }
        }
        GateKind::And | GateKind::Nand => {
            let Some(first) = rows.next() else {
                return false;
            };
            out.copy_from_slice(first);
            for r in rows {
                for (o, &w) in out.iter_mut().zip(r) {
                    *o &= w;
                }
            }
            if kind == GateKind::Nand {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Or | GateKind::Nor => {
            let Some(first) = rows.next() else {
                return false;
            };
            out.copy_from_slice(first);
            for r in rows {
                for (o, &w) in out.iter_mut().zip(r) {
                    *o |= w;
                }
            }
            if kind == GateKind::Nor {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let Some(first) = rows.next() else {
                return false;
            };
            out.copy_from_slice(first);
            for r in rows {
                for (o, &w) in out.iter_mut().zip(r) {
                    *o ^= w;
                }
            }
            if kind == GateKind::Xnor {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        // Screened corrections target combinational logic only; a
        // candidate that somehow reaches here is inapplicable, not a
        // crash.
        GateKind::Input | GateKind::Dff => return false,
    }
    true
}

/// Allocation-free core of [`correction_output_row`]: computes the packed
/// output values the target line would take if `correction` were applied,
/// over all vectors of `vals`, into `scratch`. Pure function of the fanin
/// rows — the netlist is not modified.
///
/// Returns the raw output words, borrowed from `scratch`. Tail bits are
/// **not** masked — the row is word-for-word what a full resimulation of
/// the corrected circuit would store for the line, so it can be planted
/// directly into a value matrix; mask only when counting.
///
/// Returns `Ok(None)` when the action is structurally inapplicable (bad
/// port, arity underflow) — such candidates are discarded upstream.
///
/// # Errors
///
/// [`IncdxError::WidthMismatch`] when `vals` has fewer rows than the
/// netlist has gates — some fanin would have no row to read.
pub fn correction_output_row_into<'s>(
    netlist: &Netlist,
    vals: &PackedMatrix,
    correction: &Correction,
    scratch: &'s mut CorrectionScratch,
) -> Result<Option<&'s [u64]>, IncdxError> {
    if vals.rows() < netlist.len() {
        return Err(IncdxError::WidthMismatch {
            expected: netlist.len(),
            got: vals.rows(),
        });
    }
    let wpr = vals.words_per_row();
    let CorrectionScratch { out, tmp } = scratch;
    out.clear();
    out.resize(wpr, 0);
    let line = correction.line();
    let gate = netlist.gate(line);
    let kind = gate.kind();
    let fanins = gate.fanins();
    let row = |f: GateId| vals.row(f.index());
    match correction.action() {
        CorrectionAction::SetConst(v) => {
            if v {
                out.fill(!0);
            }
        }
        CorrectionAction::ChangeKind(new_kind) => {
            let (lo, hi) = new_kind.arity();
            if fanins.len() < lo || fanins.len() > hi {
                return Ok(None);
            }
            if !eval_rows_into(new_kind, fanins.iter().map(|&f| row(f)), out) {
                return Ok(None);
            }
        }
        CorrectionAction::InvertInput { port } => {
            if port >= fanins.len() || !kind.is_logic() {
                return Ok(None);
            }
            tmp.clear();
            tmp.extend(row(fanins[port]).iter().map(|&w| !w));
            let tmp = &*tmp;
            if !eval_rows_into(
                kind,
                fanins
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| if i == port { tmp } else { row(f) }),
                out,
            ) {
                return Ok(None);
            }
        }
        CorrectionAction::RemoveInput { port } => {
            if port >= fanins.len() || fanins.len() <= kind.arity().0 || !kind.is_logic() {
                return Ok(None);
            }
            if !eval_rows_into(
                kind,
                fanins
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != port)
                    .map(|(_, &f)| row(f)),
                out,
            ) {
                return Ok(None);
            }
        }
        CorrectionAction::AddInput { source } => {
            if !kind.is_logic() || source == line || fanins.contains(&source) {
                return Ok(None);
            }
            if !eval_rows_into(
                kind,
                fanins
                    .iter()
                    .map(|&f| row(f))
                    .chain(std::iter::once(row(source))),
                out,
            ) {
                return Ok(None);
            }
        }
        CorrectionAction::ReplaceInput { port, source } => {
            if port >= fanins.len() || !kind.is_logic() || source == line {
                return Ok(None);
            }
            if !eval_rows_into(
                kind,
                fanins
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| if i == port { row(source) } else { row(f) }),
                out,
            ) {
                return Ok(None);
            }
        }
        CorrectionAction::WireThrough { port } => {
            if port >= fanins.len() {
                return Ok(None);
            }
            out.copy_from_slice(row(fanins[port]));
        }
        CorrectionAction::InsertGate {
            kind: new_kind,
            other,
        } => {
            if !kind.is_logic() || other == line {
                return Ok(None);
            }
            tmp.clear();
            tmp.resize(wpr, 0);
            if !eval_rows_into(kind, fanins.iter().map(|&f| row(f)), tmp) {
                return Ok(None);
            }
            let tmp = &*tmp;
            if !eval_rows_into(new_kind, [tmp, row(other)].into_iter(), out) {
                return Ok(None);
            }
        }
    }
    Ok(Some(out))
}

/// Computes the packed output values the target line would take if
/// `correction` were applied, over all vectors of `vals` (the current
/// node's simulation matrix), as a tail-masked [`PackedBits`]. Allocating
/// wrapper around [`correction_output_row_into`].
///
/// Returns `Ok(None)` when the action is structurally inapplicable (bad
/// port, arity underflow) — such candidates are discarded upstream — and
/// [`IncdxError::WidthMismatch`] when `vals` is too narrow for the
/// netlist.
///
/// # Example
///
/// ```
/// use incdx_core::correction_output_row;
/// use incdx_fault::{Correction, CorrectionAction};
/// use incdx_netlist::{parse_bench, GateKind};
/// use incdx_sim::{PackedMatrix, Simulator};
///
/// let n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let mut pi = PackedMatrix::new(2, 4);
/// pi.row_mut(0)[0] = 0b0101;
/// pi.row_mut(1)[0] = 0b0011;
/// let vals = Simulator::new().run(&n, &pi);
/// let y = n.find_by_name("y").unwrap();
/// let c = Correction::new(y, CorrectionAction::ChangeKind(GateKind::Or));
/// let row = correction_output_row(&n, &vals, &c)?.unwrap();
/// assert_eq!(row.words()[0] & 0xF, 0b0111); // OR instead of AND
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn correction_output_row(
    netlist: &Netlist,
    vals: &PackedMatrix,
    correction: &Correction,
) -> Result<Option<PackedBits>, IncdxError> {
    let mut scratch = CorrectionScratch::default();
    let Some(words) = correction_output_row_into(netlist, vals, correction, &mut scratch)? else {
        return Ok(None);
    };
    let mut bits = PackedBits::new(vals.num_vectors());
    bits.words_mut().copy_from_slice(words);
    bits.mask_tail();
    Ok(Some(bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::parse_bench;
    use incdx_sim::Simulator;

    /// Ground truth: actually apply the correction and resimulate.
    fn reference_row(n: &Netlist, pi: &PackedMatrix, c: &Correction) -> Option<PackedBits> {
        let mut m = n.clone();
        c.apply(&mut m).ok()?;
        let mut sim = Simulator::new();
        let vals = sim.run_for_inputs(&m, n.inputs(), pi);
        let mut bits = vals.to_bits(c.line().index());
        bits.mask_tail();
        Some(bits)
    }

    #[test]
    fn local_evaluation_matches_full_resimulation_for_every_action() {
        let n =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nx = AND(a, b)\ny = OR(x, c)\n")
                .unwrap();
        let x = n.find_by_name("x").unwrap();
        let c = n.find_by_name("c").unwrap();
        let mut pi = PackedMatrix::new(3, 8);
        for v in 0..8 {
            for i in 0..3 {
                pi.set(i, v, v >> i & 1 == 1);
            }
        }
        let vals = Simulator::new().run(&n, &pi);
        let actions = [
            CorrectionAction::SetConst(false),
            CorrectionAction::SetConst(true),
            CorrectionAction::ChangeKind(GateKind::Nor),
            CorrectionAction::ChangeKind(GateKind::Xor),
            CorrectionAction::InvertInput { port: 0 },
            CorrectionAction::InvertInput { port: 1 },
            CorrectionAction::RemoveInput { port: 0 },
            CorrectionAction::AddInput { source: c },
            CorrectionAction::ReplaceInput { port: 1, source: c },
            CorrectionAction::WireThrough { port: 1 },
            CorrectionAction::InsertGate {
                kind: GateKind::Or,
                other: c,
            },
        ];
        // One scratch reused across all candidates, as in the hot loop.
        let mut scratch = CorrectionScratch::default();
        for action in actions {
            let corr = Correction::new(x, action);
            let local = correction_output_row(&n, &vals, &corr).unwrap();
            let reference = reference_row(&n, &pi, &corr);
            match (&local, &reference) {
                (Some(l), Some(r)) => assert_eq!(l, r, "{corr}"),
                (None, None) => {}
                (l, r) => panic!("{corr}: local {l:?} vs reference {r:?}"),
            }
            // The borrowed-slice path agrees with the wrapper modulo tail
            // masking.
            let raw = correction_output_row_into(&n, &vals, &corr, &mut scratch).unwrap();
            match (raw, local) {
                (Some(raw), Some(l)) => {
                    let mut bits = PackedBits::new(vals.num_vectors());
                    bits.words_mut().copy_from_slice(raw);
                    bits.mask_tail();
                    assert_eq!(bits, l, "{corr} (scratch path)");
                }
                (None, None) => {}
                (raw, l) => panic!("{corr}: scratch {raw:?} vs wrapper {l:?}"),
            }
        }
    }

    #[test]
    fn inapplicable_actions_return_none() {
        let n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let y = n.find_by_name("y").unwrap();
        let pi = PackedMatrix::new(1, 4);
        let vals = Simulator::new().run(&n, &pi);
        // Removing the only input of a NOT is not possible.
        assert!(correction_output_row(
            &n,
            &vals,
            &Correction::new(y, CorrectionAction::RemoveInput { port: 0 })
        )
        .unwrap()
        .is_none());
        // Bad port.
        assert!(correction_output_row(
            &n,
            &vals,
            &Correction::new(y, CorrectionAction::InvertInput { port: 5 })
        )
        .unwrap()
        .is_none());
        // Kind with incompatible arity.
        assert!(correction_output_row(
            &n,
            &vals,
            &Correction::new(y, CorrectionAction::ChangeKind(GateKind::Xor))
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn narrow_matrix_is_a_width_mismatch_error() {
        let n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let y = n.find_by_name("y").unwrap();
        // One row fewer than the netlist has gates: y's fanins would have
        // no rows to read.
        let narrow = PackedMatrix::new(n.len() - 1, 8);
        let corr = Correction::new(y, CorrectionAction::SetConst(true));
        let mut scratch = CorrectionScratch::default();
        match correction_output_row_into(&n, &narrow, &corr, &mut scratch) {
            Err(IncdxError::WidthMismatch { expected, got }) => {
                assert_eq!(expected, n.len());
                assert_eq!(got, n.len() - 1);
            }
            other => panic!("expected WidthMismatch, got {other:?}"),
        }
        assert!(matches!(
            correction_output_row(&n, &narrow, &corr),
            Err(IncdxError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn add_existing_input_is_rejected_like_apply() {
        let n = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let y = n.find_by_name("y").unwrap();
        let a = n.find_by_name("a").unwrap();
        let pi = PackedMatrix::new(2, 4);
        let vals = Simulator::new().run(&n, &pi);
        let corr = Correction::new(y, CorrectionAction::AddInput { source: a });
        assert!(correction_output_row(&n, &vals, &corr).unwrap().is_none());
        assert!(corr.apply(&mut n.clone()).is_err());
    }
}

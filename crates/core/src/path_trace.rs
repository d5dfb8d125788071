//! Path-trace (Venkataraman and Fuchs, reference \[12\] of the paper): a
//! linear-time line-marking procedure that, starting from an erroneous
//! primary output under an erroneous vector, walks backwards marking the
//! lines that could carry the fault effect. Its key property (reference
//! \[10\]): *at least one line of every valid correction set is marked*.
//!
//! The first diagnosis step of §3.1 runs path-trace over a sample of
//! failing vectors and keeps the lines with the highest mark counts.

use incdx_netlist::{DenseBitSet, GateId, GateKind, Netlist};
use incdx_sim::{PackedMatrix, Response};

/// Runs path-trace for up to `vector_cap` failing vectors and returns a
/// mark count per line (`counts[line] = number of traced failing vectors
/// that marked the line`).
///
/// The marking rule at a gate with a marked output, evaluated under the
/// traced vector:
///
/// * inverter/buffer: trace the fanin;
/// * AND/NAND (OR/NOR): if some fanin carries the controlling value 0 (1),
///   trace *all controlling fanins*; otherwise trace all fanins;
/// * XOR/XNOR: trace all fanins.
///
/// # Example
///
/// ```
/// use incdx_core::path_trace_counts;
/// use incdx_netlist::parse_bench;
/// use incdx_sim::{PackedMatrix, Response, Simulator};
///
/// let good = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let bad = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n")?;
/// let mut pi = PackedMatrix::new(2, 4);
/// pi.row_mut(0)[0] = 0b0101;
/// pi.row_mut(1)[0] = 0b0011;
/// let mut sim = Simulator::new();
/// let spec = Response::capture(&good, &sim.run(&good, &pi));
/// let vals = sim.run(&bad, &pi);
/// let resp = Response::compare(&bad, &vals, &spec);
/// let counts = path_trace_counts(&bad, &vals, &resp, &spec, 16);
/// let y = bad.find_by_name("y").unwrap();
/// assert!(counts[y.index()] > 0, "the erroneous line is always marked");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn path_trace_counts(
    netlist: &Netlist,
    vals: &PackedMatrix,
    response: &Response,
    spec: &Response,
    vector_cap: usize,
) -> Vec<u32> {
    let mut counts = vec![0u32; netlist.len()];
    let mut marked = DenseBitSet::new(netlist.len());
    let mut stack: Vec<GateId> = Vec::new();
    for v in response.failing_vectors().iter_ones().take(vector_cap) {
        marked.clear();
        stack.clear();
        // Seed with every erroneous PO of this vector.
        for (po_idx, &po) in netlist.outputs().iter().enumerate() {
            let got = response.po_values().get(po_idx, v);
            let want = spec.po_values().get(po_idx, v);
            if got != want && marked.insert(po.index()) {
                stack.push(po);
            }
        }
        while let Some(g) = stack.pop() {
            let gate = netlist.gate(g);
            let trace = |l: GateId, marked: &mut DenseBitSet, stack: &mut Vec<GateId>| {
                if marked.insert(l.index()) {
                    stack.push(l);
                }
            };
            match gate.kind() {
                GateKind::Not | GateKind::Buf | GateKind::Dff => {
                    trace(gate.fanins()[0], &mut marked, &mut stack);
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let Some(c) = gate.kind().controlling_value() else {
                        // Unreachable for the and/or family; tracing every
                        // fanin is the conservative fallback (never loses a
                        // mark the paper's guarantee needs).
                        for &f in gate.fanins() {
                            trace(f, &mut marked, &mut stack);
                        }
                        continue;
                    };
                    let any_controlling = gate.fanins().iter().any(|f| vals.get(f.index(), v) == c);
                    for &f in gate.fanins() {
                        if !any_controlling || vals.get(f.index(), v) == c {
                            trace(f, &mut marked, &mut stack);
                        }
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    for &f in gate.fanins() {
                        trace(f, &mut marked, &mut stack);
                    }
                }
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
            }
        }
        for l in marked.iter() {
            counts[l] += 1;
        }
    }
    counts
}

/// The multi-observation batch form of [`path_trace_counts`]: one
/// reverse-topological **bit-parallel** marking pass over the whole traced
/// observation set, instead of one scalar DFS per failing vector.
///
/// Each gate carries a packed mark mask (one bit per traced failing
/// vector). Primary-output seeds are the erroneous bits; at every gate the
/// scalar marking rule is applied word-parallel: for an AND/NAND (OR/NOR)
/// with controlling value `c`, a fanin is marked on the vectors where the
/// gate is marked and either the fanin carries `c` or no fanin does;
/// inverters, buffers and XOR-family gates propagate the gate's mask to
/// every fanin. One reverse-topological pass reaches the fixpoint because
/// marks only ever flow to topologically earlier gates, so each gate's
/// mask is final when the pass reaches it.
///
/// Returns the per-line counts — **bit-identical** to
/// [`path_trace_counts`], which stays as the reference (property-tested
/// in `tests/props.rs`). This is the form the candidate pipeline runs.
pub fn path_trace_counts_batched(
    netlist: &Netlist,
    vals: &PackedMatrix,
    response: &Response,
    spec: &Response,
    vector_cap: usize,
) -> Vec<u32> {
    let n = netlist.len();
    let wpr = vals.words_per_row();
    // Mask of the traced failing vectors: the first `vector_cap` failing
    // vectors ascending, matching the scalar loop's `iter_ones().take()`.
    let mut traced = vec![0u64; wpr];
    for v in response.failing_vectors().iter_ones().take(vector_cap) {
        traced[v / 64] |= 1u64 << (v % 64);
    }
    let mut mark = vec![0u64; n * wpr];
    // Seed every PO with its erroneous traced bits.
    for (po_idx, &po) in netlist.outputs().iter().enumerate() {
        let got = response.po_values().row(po_idx);
        let want = spec.po_values().row(po_idx);
        let row = &mut mark[po.index() * wpr..(po.index() + 1) * wpr];
        for w in 0..wpr {
            row[w] |= (got[w] ^ want[w]) & traced[w];
        }
    }
    let mut scratch = vec![0u64; wpr];
    for &g in netlist.topo_order().iter().rev() {
        let gi = g.index() * wpr;
        if mark[gi..gi + wpr].iter().all(|&w| w == 0) {
            continue;
        }
        let gate = netlist.gate(g);
        match gate.kind() {
            GateKind::Not | GateKind::Buf | GateKind::Dff => {
                let f = gate.fanins()[0].index() * wpr;
                for w in 0..wpr {
                    mark[f + w] |= mark[gi + w];
                }
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // `c` is Some for the whole and/or family; the scalar
                // fallback (trace everything) is kept for parity.
                let fanin_ctrl = |f: GateId, c: bool, w: usize| {
                    let row = vals.row(f.index());
                    if c {
                        row[w]
                    } else {
                        !row[w]
                    }
                };
                match gate.kind().controlling_value() {
                    Some(c) => {
                        // any_ctrl[w]: vectors where some fanin carries the
                        // controlling value.
                        scratch.iter_mut().for_each(|w| *w = 0);
                        for &f in gate.fanins() {
                            for (w, s) in scratch.iter_mut().enumerate() {
                                *s |= fanin_ctrl(f, c, w);
                            }
                        }
                        for &f in gate.fanins() {
                            let fi = f.index() * wpr;
                            for w in 0..wpr {
                                mark[fi + w] |= mark[gi + w] & (fanin_ctrl(f, c, w) | !scratch[w]);
                            }
                        }
                    }
                    None => {
                        for &f in gate.fanins() {
                            let fi = f.index() * wpr;
                            for w in 0..wpr {
                                mark[fi + w] |= mark[gi + w];
                            }
                        }
                    }
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                for &f in gate.fanins() {
                    let fi = f.index() * wpr;
                    for w in 0..wpr {
                        mark[fi + w] |= mark[gi + w];
                    }
                }
            }
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
        }
    }
    (0..n)
        .map(|l| {
            mark[l * wpr..(l + 1) * wpr]
                .iter()
                .map(|w| w.count_ones())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_fault::{inject_design_errors, inject_stuck_at_faults, InjectionConfig};
    use incdx_gen::generate;
    use incdx_sim::Simulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        golden: &Netlist,
        corrupted: &Netlist,
        vectors: usize,
        seed: u64,
    ) -> (PackedMatrix, Response, Response, PackedMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = PackedMatrix::random(golden.inputs().len(), vectors, &mut rng);
        let mut sim = Simulator::new();
        let spec = Response::capture(golden, &sim.run(golden, &pi));
        let vals = sim.run_for_inputs(corrupted, golden.inputs(), &pi);
        let resp = Response::compare(corrupted, &vals, &spec);
        (pi, spec, resp, vals)
    }

    #[test]
    fn marks_at_least_one_injected_stuck_at_site_per_vector() {
        // The published guarantee: every traced failing vector marks at
        // least one line of every valid correction set — in particular of
        // the actually-injected fault set.
        let golden = generate("c880a").unwrap();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = InjectionConfig {
                count: 2,
                require_individually_observable: false,
                check_vectors: 512,
                max_attempts: 100,
            };
            let inj = inject_stuck_at_faults(&golden, &cfg, &mut rng).unwrap();
            // Diagnosis direction: rectify the *golden* netlist toward the
            // faulty device, so trace on the golden values against the
            // device's responses.
            let mut rng2 = StdRng::seed_from_u64(seed + 1000);
            let pi = PackedMatrix::random(golden.inputs().len(), 512, &mut rng2);
            let mut sim = Simulator::new();
            let device = Response::capture(
                &inj.corrupted,
                &sim.run_for_inputs(&inj.corrupted, golden.inputs(), &pi),
            );
            let vals = sim.run(&golden, &pi);
            let resp = Response::compare(&golden, &vals, &device);
            if resp.num_failing() == 0 {
                continue; // not excited on these vectors
            }
            let counts = path_trace_counts(&golden, &vals, &resp, &device, 64);
            let hit = inj.injected.iter().any(|f| counts[f.line().index()] > 0);
            assert!(hit, "seed {seed}: no injected site marked");
        }
    }

    #[test]
    fn marks_at_least_one_injected_error_site() {
        let golden = generate("c432a").unwrap();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inj = inject_design_errors(&golden, &InjectionConfig::default(), &mut rng).unwrap();
            let (_pi, spec, resp, vals) = setup(&golden, &inj.corrupted, 512, seed + 77);
            assert!(resp.num_failing() > 0, "injector guarantees observability");
            let counts = path_trace_counts(&inj.corrupted, &vals, &resp, &spec, 64);
            let hit = inj.injected.iter().any(|e| counts[e.line().index()] > 0);
            assert!(hit, "seed {seed}: no injected site marked");
        }
    }

    #[test]
    fn marks_are_bounded_by_traced_vectors() {
        let golden = generate("c17").unwrap();
        let mut corrupted = golden.clone();
        let line = corrupted.find_by_name("16").unwrap();
        incdx_fault::StuckAt::new(line, true)
            .apply(&mut corrupted)
            .unwrap();
        let (_pi, spec, resp, vals) = setup(&golden, &corrupted, 32, 3);
        let cap = 4;
        let counts = path_trace_counts(&corrupted, &vals, &resp, &spec, cap);
        assert!(counts.iter().all(|&c| c as usize <= cap));
        assert!(counts.iter().any(|&c| c > 0));
    }

    #[test]
    fn batched_counts_are_bit_identical_to_scalar_counts() {
        // The multi-observation batch pass must be an exact re-expression
        // of the per-vector DFS — same counts for every line, every cap.
        for (circuit, seed) in [("c432a", 1u64), ("c880a", 2)] {
            let golden = generate(circuit).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let inj = inject_design_errors(&golden, &InjectionConfig::default(), &mut rng).unwrap();
            let (_pi, spec, resp, vals) = setup(&golden, &inj.corrupted, 256, seed + 7);
            assert!(resp.num_failing() > 0);
            for cap in [1usize, 3, 32, usize::MAX] {
                let scalar = path_trace_counts(&inj.corrupted, &vals, &resp, &spec, cap);
                let batched = path_trace_counts_batched(&inj.corrupted, &vals, &resp, &spec, cap);
                assert_eq!(scalar, batched, "{circuit} cap {cap}");
            }
        }
    }

    #[test]
    fn no_failing_vectors_means_no_marks() {
        let golden = generate("c17").unwrap();
        let (_pi, spec, resp, vals) = setup(&golden, &golden, 32, 4);
        let counts = path_trace_counts(&golden, &vals, &resp, &spec, 8);
        assert!(counts.iter().all(|&c| c == 0));
    }
}

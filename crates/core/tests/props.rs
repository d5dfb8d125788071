//! Property tests of the engine's screening primitives and small
//! end-to-end invariants on random circuits.

use incdx_core::{
    correction_output_row, default_ladder, path_trace_counts, path_trace_counts_batched, Rectifier,
    RectifyConfig, TraversalKind,
};
use incdx_fault::{enumerate_corrections, CorrectionModel, StuckAt};
use incdx_gen::{random_dag, RandomDagConfig};
use incdx_netlist::{GateId, Netlist};
use incdx_sim::{PackedMatrix, Response, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dag(seed: u64) -> Netlist {
    random_dag(
        &RandomDagConfig {
            inputs: 6,
            gates: 40,
            outputs: 4,
            max_fanin: 3,
            xor_fraction: 0.1,
            window: 16,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The local heuristic-2 evaluator agrees with apply-and-resimulate
    /// for every enumerable correction on random circuits.
    #[test]
    fn screening_evaluator_matches_full_resimulation(seed in 0u64..200, pick in 0usize..1000) {
        let n = dag(seed);
        let line = GateId::from_index(pick % n.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = PackedMatrix::random(n.inputs().len(), 96, &mut rng);
        let mut sim = Simulator::new();
        let vals = sim.run(&n, &pi);
        let sources: Vec<GateId> = n.ids().step_by(7).collect();
        for model in [CorrectionModel::StuckAt, CorrectionModel::DesignErrors] {
            for c in enumerate_corrections(&n, line, model, &sources) {
                let local = correction_output_row(&n, &vals, &c).expect("full-width matrix");
                let mut m = n.clone();
                let reference = match c.apply(&mut m) {
                    Ok(()) => {
                        let mv = sim.run_for_inputs(&m, n.inputs(), &pi);
                        let mut bits = mv.to_bits(c.line().index());
                        bits.mask_tail();
                        Some(bits)
                    }
                    Err(_) => None,
                };
                match (&local, &reference) {
                    (Some(l), Some(r)) => prop_assert_eq!(l, r, "{}", c),
                    (None, None) => {}
                    // The local evaluator may be *more* conservative than
                    // apply (it has no cycle information for wire adds),
                    // but never the other way around.
                    (None, Some(_)) => {}
                    (Some(_), None) => {
                        // apply failed (cycle) where local evaluation
                        // succeeded — permitted: the engine only feeds
                        // cycle-safe sources.
                    }
                }
            }
        }
    }

    /// Path-trace marks at least one line of every *single-fault* valid
    /// correction set — the reference [10] guarantee, checked against the
    /// injected site.
    #[test]
    fn path_trace_guarantee_single_fault(seed in 0u64..200, pick in 0usize..1000, v in prop::bool::ANY) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        let vals = sim.run(&golden, &pi);
        let resp = Response::compare(&golden, &vals, &device);
        if resp.num_failing() == 0 {
            return Ok(());
        }
        let counts = path_trace_counts(&golden, &vals, &resp, &device, 32);
        prop_assert!(counts[line.index()] > 0, "injected site must be marked");
        // Stronger: it is marked on EVERY traced failing vector for a
        // single fault.
        let traced = resp.failing_vectors().count_ones().min(32) as u32;
        prop_assert_eq!(counts[line.index()], traced);
        // The batched pass the pipeline runs is an exact re-expression
        // of this per-vector reference, for every cap.
        for cap in [1usize, 3, 32, 64, usize::MAX] {
            prop_assert_eq!(
                path_trace_counts(&golden, &vals, &resp, &device, cap),
                path_trace_counts_batched(&golden, &vals, &resp, &device, cap),
                "cap {}",
                cap
            );
        }
    }

    /// Exhaustive single-fault diagnosis returns only verified tuples and
    /// always includes the injected fault.
    #[test]
    fn exhaustive_single_fault_is_sound_and_complete(seed in 0u64..60, pick in 0usize..1000, v in prop::bool::ANY) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(()); // fault not excited
            }
        }
        let result = Rectifier::new(
            golden.clone(),
            pi.clone(),
            device.clone(),
            RectifyConfig::stuck_at_exhaustive(1),
        )
        .expect("well-formed inputs")
        .run();
        prop_assert!(!result.solutions.is_empty());
        let mut saw_injected = false;
        for s in &result.solutions {
            let tuple = s.stuck_at_tuple().expect("stuck-at mode");
            prop_assert_eq!(tuple.len(), 1);
            if tuple[0] == fault {
                saw_injected = true;
            }
            // Soundness: the tuple explains the device.
            let mut modeled = golden.clone();
            tuple[0].apply(&mut modeled).expect("applies");
            let vals = sim.run_for_inputs(&modeled, golden.inputs(), &pi);
            prop_assert!(Response::compare(&modeled, &vals, &device).matches());
        }
        prop_assert!(saw_injected, "completeness: injected fault among answers");
    }

    /// Parallel screening is bit-identical to serial: the same problem
    /// solved with `jobs = 1` and `jobs = 4` yields the same solutions
    /// and the same deterministic counters. (Wall-clock timers and
    /// worker telemetry are excluded — they are the only permitted
    /// divergence.)
    #[test]
    fn parallel_screening_matches_serial(seed in 0u64..40, pick in 0usize..1000, v in prop::bool::ANY) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A11);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(()); // fault not excited
            }
        }
        let run = |jobs: usize| {
            let mut config = RectifyConfig::dedc(2);
            config.jobs = jobs;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let serial = run(1);
        let parallel = run(4);
        prop_assert_eq!(&serial.solutions, &parallel.solutions);
        let (s, p) = (&serial.stats, &parallel.stats);
        prop_assert_eq!(s.nodes, p.nodes);
        prop_assert_eq!(s.rounds, p.rounds);
        prop_assert_eq!(s.corrections_screened, p.corrections_screened);
        prop_assert_eq!(s.corrections_qualified, p.corrections_qualified);
        prop_assert_eq!(s.corrections_rejected_h2, p.corrections_rejected_h2);
        prop_assert_eq!(s.corrections_rejected_h3, p.corrections_rejected_h3);
        prop_assert_eq!(s.lines_rejected_h1, p.lines_rejected_h1);
        prop_assert_eq!(s.words_simulated, p.words_simulated);
        prop_assert_eq!(s.deepest_ladder_level, p.deepest_ladder_level);
        prop_assert_eq!(s.truncated, p.truncated);
    }

    /// The event-driven incremental engine (matrix reuse + change-bounded
    /// cone propagation) is bit-identical to from-scratch resimulation:
    /// same solutions and same screening counters, whether screening runs
    /// serially or across all cores — only the simulation-effort counters
    /// (`words_simulated`, `events_propagated`, `words_skipped`) may
    /// differ between the two engines, and the incremental engine never
    /// simulates more words than the full one.
    #[test]
    fn incremental_engine_matches_from_scratch(seed in 0u64..40, pick in 0usize..1000, v in prop::bool::ANY) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1AC5);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(()); // fault not excited
            }
        }
        let run = |incremental: bool, jobs: usize| {
            let mut config = RectifyConfig::dedc(2);
            config.incremental = incremental;
            config.jobs = jobs;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let full = run(false, 1);
        let inc = run(true, 1);
        let inc_par = run(true, 0);
        prop_assert_eq!(&full.solutions, &inc.solutions);
        prop_assert_eq!(&full.solutions, &inc_par.solutions);
        for other in [&inc.stats, &inc_par.stats] {
            let f = &full.stats;
            prop_assert_eq!(f.nodes, other.nodes);
            prop_assert_eq!(f.rounds, other.rounds);
            prop_assert_eq!(f.corrections_screened, other.corrections_screened);
            prop_assert_eq!(f.corrections_qualified, other.corrections_qualified);
            prop_assert_eq!(f.corrections_rejected_h2, other.corrections_rejected_h2);
            prop_assert_eq!(f.corrections_rejected_h3, other.corrections_rejected_h3);
            prop_assert_eq!(f.lines_rejected_h1, other.lines_rejected_h1);
            prop_assert_eq!(f.expansions_skipped, other.expansions_skipped);
            prop_assert_eq!(f.deepest_ladder_level, other.deepest_ladder_level);
            prop_assert_eq!(f.truncated, other.truncated);
        }
        // The two incremental runs meter identical simulation effort
        // regardless of worker count…
        prop_assert_eq!(inc.stats.words_simulated, inc_par.stats.words_simulated);
        prop_assert_eq!(inc.stats.events_propagated, inc_par.stats.events_propagated);
        prop_assert_eq!(inc.stats.words_skipped, inc_par.stats.words_skipped);
        // …and never exceed the from-scratch engine's word count.
        prop_assert!(
            inc.stats.words_simulated <= full.stats.words_simulated,
            "incremental {} > full {}",
            inc.stats.words_simulated,
            full.stats.words_simulated
        );
    }

    /// The sparse kernel's engine-level equivalence contract: with wide
    /// vector matrices (several summary blocks per row) the sparse and
    /// dense engines return identical solutions, walk identical trees,
    /// and screen identical candidate sets — in both evaluation
    /// backends. Only the sparse work counters may differ.
    #[test]
    fn sparse_engine_matches_dense(
        seed in 0u64..30,
        pick in 0usize..1000,
        v in prop::bool::ANY,
        incremental in prop::bool::ANY,
    ) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5BA5);
        // 640 vectors = 10 words = 3 summary blocks per row.
        let pi = PackedMatrix::random(golden.inputs().len(), 640, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(()); // fault not excited
            }
        }
        let run = |sparse: bool| {
            let mut config = RectifyConfig::dedc(2);
            config.incremental = incremental;
            config.sparse = sparse;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let dense = run(false);
        let sparse = run(true);
        prop_assert_eq!(&dense.solutions, &sparse.solutions);
        let d = &dense.stats;
        let s = &sparse.stats;
        prop_assert_eq!(d.nodes, s.nodes);
        prop_assert_eq!(d.rounds, s.rounds);
        prop_assert_eq!(d.corrections_screened, s.corrections_screened);
        prop_assert_eq!(d.corrections_qualified, s.corrections_qualified);
        prop_assert_eq!(d.corrections_rejected_h2, s.corrections_rejected_h2);
        prop_assert_eq!(d.corrections_rejected_h3, s.corrections_rejected_h3);
        prop_assert_eq!(d.lines_rejected_h1, s.lines_rejected_h1);
        prop_assert_eq!(d.truncated, s.truncated);
        // A dense run never touches the sparse machinery.
        prop_assert_eq!(d.blocks_skipped, 0);
        prop_assert_eq!(d.sparse_rows, 0);
        prop_assert_eq!(d.dense_fallbacks, 0);
        // A sparse run on a multi-fault search either skipped blocks or
        // accounted an explicit dense fallback — never silently neither.
        prop_assert!(
            s.blocks_skipped > 0 || s.dense_fallbacks > 0 || s.sparse_rows > 0,
            "sparse mode must meter its decisions"
        );
    }

    /// The speculative dispatcher never perturbs the search: a
    /// dispatched run (`dispatch = true` with several workers) finds the
    /// same solutions and walks the same tree as the plain serial
    /// engine, under every traversal policy. Schedule-dependent effort
    /// counters (`words_simulated`, cache hits) are the only permitted
    /// divergence, and the run must carry dispatcher telemetry whose
    /// hit/miss ledger covers every speculable expansion.
    #[test]
    fn dispatched_search_matches_serial(
        seed in 0u64..24,
        pick in 0usize..1000,
        v in prop::bool::ANY,
        t in 0usize..4,
        jobs in 2usize..5,
    ) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15B);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(()); // fault not excited
            }
        }
        let run = |dispatch: bool, jobs: usize| {
            let mut config = RectifyConfig::dedc(2);
            config.traversal = TraversalKind::ALL[t];
            config.dispatch = dispatch;
            config.jobs = jobs;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let serial = run(false, 1);
        let dispatched = run(true, jobs);
        prop_assert_eq!(&serial.solutions, &dispatched.solutions);
        prop_assert_eq!(serial.verdict, dispatched.verdict);
        let (s, d) = (&serial.stats, &dispatched.stats);
        prop_assert_eq!(s.nodes, d.nodes);
        prop_assert_eq!(s.rounds, d.rounds);
        prop_assert_eq!(s.expansions_skipped, d.expansions_skipped);
        prop_assert_eq!(s.corrections_screened, d.corrections_screened);
        prop_assert_eq!(s.corrections_qualified, d.corrections_qualified);
        prop_assert_eq!(s.corrections_rejected_h2, d.corrections_rejected_h2);
        prop_assert_eq!(s.corrections_rejected_h3, d.corrections_rejected_h3);
        prop_assert_eq!(s.lines_rejected_h1, d.lines_rejected_h1);
        prop_assert_eq!(s.deepest_ladder_level, d.deepest_ladder_level);
        prop_assert_eq!(s.truncated, d.truncated);
        prop_assert!(s.dispatch.is_none(), "serial runs carry no dispatcher telemetry");
        let tel = d.dispatch.as_ref().expect("dispatched run records telemetry");
        prop_assert!(tel.workers >= 1);
        // Every non-root expansion consults the speculation cache
        // exactly once: hit or miss, never unaccounted. The root node
        // and dead-leaf re-visits are not speculable.
        prop_assert!(
            tel.speculative_hits + tel.speculative_misses <= d.nodes as u64,
            "hit/miss ledger ({} + {}) exceeds evaluated nodes ({})",
            tel.speculative_hits,
            tel.speculative_misses,
            d.nodes
        );
        // Executed work is conserved: everything a worker finished was
        // either consumed as a hit or retired as wasted speculation.
        prop_assert!(
            tel.tasks_executed >= tel.speculative_hits,
            "hits ({}) cannot exceed executed speculations ({})",
            tel.speculative_hits,
            tel.tasks_executed
        );
    }

    /// `dispatch = true` with `jobs = 1` never arms the dispatcher: the
    /// run is the legacy serial path, bit-identical counters included,
    /// and records no dispatcher telemetry.
    #[test]
    fn dispatch_flag_with_one_job_stays_serial(seed in 0u64..20, pick in 0usize..1000, v in prop::bool::ANY) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0D1);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(());
            }
        }
        let run = |dispatch: bool| {
            let mut config = RectifyConfig::dedc(2);
            config.dispatch = dispatch;
            config.jobs = 1;
            Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                .expect("well-formed inputs")
                .run()
        };
        let plain = run(false);
        let flagged = run(true);
        prop_assert_eq!(&plain.solutions, &flagged.solutions);
        let (p, f) = (&plain.stats, &flagged.stats);
        prop_assert_eq!(p.nodes, f.nodes);
        prop_assert_eq!(p.rounds, f.rounds);
        prop_assert_eq!(p.corrections_screened, f.corrections_screened);
        prop_assert_eq!(p.words_simulated, f.words_simulated);
        prop_assert!(f.dispatch.is_none(), "one job never arms the dispatcher");
    }

    /// `run_cone_events` leaves the value matrix bit-identical to a plain
    /// `run_cone` after an arbitrary single-line disturbance on a random
    /// circuit.
    #[test]
    fn event_driven_cone_resim_matches_plain(seed in 0u64..200, pick in 0usize..1000, flip in 0u64..u64::MAX) {
        let n = dag(seed);
        let stem = GateId::from_index(pick % n.len());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let pi = PackedMatrix::random(n.inputs().len(), 96, &mut rng);
        let mut sim = Simulator::new();
        let base = sim.run(&n, &pi);
        let cone = n.fanout_cone_sorted(stem);

        let mut plain = base.clone();
        plain.row_mut(stem.index())[0] ^= flip;
        sim.run_cone(&n, &mut plain, &cone);

        let mut events = base.clone();
        events.row_mut(stem.index())[0] ^= flip;
        let mut esim = Simulator::new();
        esim.run_cone_events(&n, &mut events, &cone);

        for id in n.ids() {
            prop_assert_eq!(
                plain.row(id.index()),
                events.row(id.index()),
                "row {} diverged",
                id.index()
            );
        }
    }

    /// The parameter ladder's monotonicity means any candidate admitted at
    /// level i is admitted at level i+1 (same node, looser screens).
    #[test]
    fn relaxing_the_ladder_never_shrinks_the_candidate_set(seed in 0u64..40, pick in 0usize..1000, v in prop::bool::ANY) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(());
            }
        }
        let mut config = RectifyConfig::dedc(1);
        config.model = CorrectionModel::StuckAt;
        config.max_candidates_per_node = usize::MAX;
        config.max_candidate_lines = usize::MAX;
        config.theorem_floor = false;
        let ladder = default_ladder();
        let mut prev: Option<Vec<incdx_fault::Correction>> = None;
        for level in &ladder {
            let mut rect = Rectifier::new(golden.clone(), pi.clone(), device.clone(), config.clone())
                .expect("well-formed inputs");
            let mut now: Vec<incdx_fault::Correction> = rect
                .rank_candidates(&[], level)
                .into_iter()
                .map(|rc| rc.correction)
                .collect();
            now.sort();
            if let Some(prev) = &prev {
                for c in prev {
                    prop_assert!(now.contains(c), "{c} lost when relaxing");
                }
            }
            prev = Some(now);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hierarchical mode reports exactly the flat solution set in
    /// exhaustive mode — across every traversal strategy. The
    /// abstraction changes node counts, never answers.
    #[test]
    fn hierarchical_search_matches_flat_across_traversals(
        seed in 0u64..24,
        pick in 0usize..1000,
        v in prop::bool::ANY,
    ) {
        let golden = dag(seed);
        let line = GateId::from_index(pick % golden.len());
        let fault = StuckAt::new(line, v);
        let mut device_nl = golden.clone();
        if fault.apply(&mut device_nl).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA857);
        let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
        let mut sim = Simulator::new();
        let device = Response::capture(&device_nl, &sim.run_for_inputs(&device_nl, golden.inputs(), &pi));
        {
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(()); // fault not excited
            }
        }
        let fingerprint = |r: &incdx_core::RectifyResult| {
            let mut v: Vec<Vec<incdx_fault::Correction>> = r
                .solutions
                .iter()
                .map(|s| {
                    let mut c = s.corrections.clone();
                    c.sort();
                    c
                })
                .collect();
            v.sort();
            v
        };
        for t in TraversalKind::ALL {
            let run = |hierarchical: bool| {
                let mut config = RectifyConfig::stuck_at_exhaustive(1);
                config.traversal = t;
                config.hierarchical = hierarchical;
                Rectifier::new(golden.clone(), pi.clone(), device.clone(), config)
                    .expect("well-formed inputs")
                    .run()
            };
            let flat = run(false);
            let hier = run(true);
            prop_assert_eq!(fingerprint(&flat), fingerprint(&hier), "traversal {}", t.as_str());
            prop_assert_eq!(flat.verdict, hier.verdict);
        }
    }
}

/// Stats counters accumulate across rounds and respect the screening
/// invariant `screened == rejected_h2 + rejected_h3 + qualified` — a
/// multi-error run so the decision tree goes through several rounds
/// (each adding its own per-node deltas to the shared counters).
#[test]
fn stats_counters_accumulate_across_rounds() {
    let golden = dag(7);
    // Two stuck-at faults so the tree must expand past the root.
    let a = GateId::from_index(11 % golden.len());
    let b = GateId::from_index(29 % golden.len());
    let mut device_nl = golden.clone();
    StuckAt::new(a, false)
        .apply(&mut device_nl)
        .expect("apply a");
    StuckAt::new(b, true)
        .apply(&mut device_nl)
        .expect("apply b");
    let mut rng = StdRng::seed_from_u64(7);
    let pi = PackedMatrix::random(golden.inputs().len(), 128, &mut rng);
    let mut sim = Simulator::new();
    let device = Response::capture(
        &device_nl,
        &sim.run_for_inputs(&device_nl, golden.inputs(), &pi),
    );
    {
        let vals = sim.run(&golden, &pi);
        assert!(
            !Response::compare(&golden, &vals, &device).matches(),
            "faults must be excited for the test to exercise rounds"
        );
    }
    let result = Rectifier::new(golden.clone(), pi, device, RectifyConfig::dedc(2))
        .expect("well-formed inputs")
        .run();
    let s = &result.stats;
    assert!(s.rounds >= 1, "at least one round ran");
    assert!(s.nodes >= s.rounds, "every round evaluates ≥ 1 node");
    assert!(s.corrections_screened > 0);
    assert_eq!(
        s.corrections_screened,
        s.corrections_rejected_h2 + s.corrections_rejected_h3 + s.corrections_qualified,
        "every screened correction is rejected by h2, rejected by h3, or qualified"
    );
    assert!(s.words_simulated > 0, "simulation work is metered");
    assert!(
        s.evaluate_time >= s.screen_time,
        "screening is part of evaluation"
    );
    assert!(
        s.diagnosis_time >= s.path_trace_time,
        "path-trace is a component of diagnosis"
    );
}

//! Pins the stuck-at injections the benchmark diagnoses.
//!
//! `perfbench` injects stuck-at faults into the area-optimised cores with
//! `inject_stuck_at_faults` and diagnoses the faulty device's responses.
//! The injector applies each fault with `StuckAt::apply`, which ties the
//! line in place, so a change to how a tie edits the netlist could move
//! the benchmark's inputs. For the cores of `pinned_cores.rs` and a few
//! fixed seeds this pins the injected tuple and an FNV-1a hash of the
//! device's primary-output rows, so such a change fails here instead.

use incdx_fault::{inject_stuck_at_faults, InjectionConfig};
use incdx_opt::{optimize_for_area, OptConfig};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn benchmark_stuck_at_injections_are_pinned() {
    let opt = OptConfig {
        redundancy_rounds: 2,
        backtrack_limit: 500,
        prefilter_vectors: 256,
    };
    let inject = InjectionConfig {
        count: 2,
        require_individually_observable: false,
        check_vectors: 1024,
        max_attempts: 100,
    };
    let mut sim = Simulator::new();
    let mut got = Vec::new();
    for name in ["c499a", "c880a", "c1908a"] {
        let core = incdx_gen::generate(name).expect("suite circuit");
        let core = optimize_for_area(&core, &opt).netlist;
        for seed in [7u64, 11, 2002] {
            let mut rng = StdRng::seed_from_u64(seed);
            let injection = inject_stuck_at_faults(&core, &inject, &mut rng).expect("injects");
            let faults: Vec<(u32, bool)> = injection
                .injected
                .iter()
                .map(|f| (f.line().0, f.value()))
                .collect();
            let pi = PackedMatrix::random(core.inputs().len(), 1024, &mut rng);
            let device = &injection.corrupted;
            let rows = Response::capture(device, &sim.run_for_inputs(device, core.inputs(), &pi));
            let po = rows.po_values();
            let hash =
                fnv1a((0..po.rows()).flat_map(|r| po.row(r).iter().flat_map(|w| w.to_le_bytes())));
            got.push((name, seed, faults, hash));
        }
    }
    #[rustfmt::skip]
    let want = vec![
        ("c499a", 7, vec![(137, true), (76, false)], 0x140b_5724_82d7_5cf6),
        ("c499a", 11, vec![(40, true), (35, false)], 0x7044_fd70_169d_ed36),
        ("c499a", 2002, vec![(131, true), (103, true)], 0x5c6c_6880_75d7_55b0),
        ("c880a", 7, vec![(112, false), (77, false)], 0xf29f_7a63_e303_cb83),
        ("c880a", 11, vec![(82, false), (5, true)], 0x07c3_361e_f933_3fff),
        ("c880a", 2002, vec![(45, true), (119, false)], 0x36b1_ef76_0561_9765),
        ("c1908a", 7, vec![(6, false), (111, true)], 0xbb76_f844_85ef_29ec),
        ("c1908a", 11, vec![(151, false), (91, false)], 0x090a_c293_5744_0eb7),
        ("c1908a", 2002, vec![(75, true), (78, false)], 0x6a1e_310c_e38f_3677),
    ];
    assert_eq!(got, want);
}

//! Property tests of the static analyses against brute-force recomputation
//! and bit-parallel simulation on random DAGs.

use incdx_analysis::{observable_changes, Constants, PoReach, Ternary};
use incdx_gen::{random_dag, RandomDagConfig};
use incdx_netlist::Netlist;
use incdx_sim::{PackedMatrix, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dag(seed: u64) -> Netlist {
    random_dag(
        &RandomDagConfig {
            inputs: 6,
            gates: 48,
            outputs: 5,
            max_fanin: 3,
            xor_fraction: 0.15,
            window: 16,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Constant propagation is sound: a line proven Const0/Const1 holds
    /// that value on every simulated vector.
    #[test]
    fn proven_constants_hold_under_simulation(seed in 0u64..300) {
        let n = dag(seed);
        let consts = Constants::compute(&n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
        let pi = PackedMatrix::random(n.inputs().len(), 128, &mut rng);
        let vals = Simulator::new().run(&n, &pi);
        for id in n.ids() {
            if let Some(v) = consts.value(id).constant() {
                let mut bits = vals.to_bits(id.index());
                bits.mask_tail();
                let want = if v { bits.num_vectors() } else { 0 };
                let ones: u32 = bits.words().iter().map(|w| w.count_ones()).sum();
                prop_assert_eq!(ones as usize, want, "line {} pinned to {}", id, v);
            }
            // Acyclic netlists never leave a line unreached.
            prop_assert!(consts.value(id) != Ternary::Unreached);
        }
    }

    /// PO reachability agrees with the netlist's own fanout-cone walk,
    /// and observable_changes is a sound refinement of it.
    #[test]
    fn reach_matches_fanout_cones(seed in 0u64..300) {
        let n = dag(seed);
        let r = PoReach::compute(&n);
        let consts = Constants::compute(&n);
        for id in n.ids() {
            let cone = n.fanout_cone_sorted(id);
            let in_cone = |g: incdx_netlist::GateId| g == id || cone.contains(&g);
            for (po, &driver) in n.outputs().iter().enumerate() {
                prop_assert_eq!(r.reach(id).contains(po), in_cone(driver));
            }
            let obs = observable_changes(&n, &consts, id, &cone);
            prop_assert!(r.reach(id).contains_all(&obs), "obs ⊆ reach at {}", id);
        }
    }
}

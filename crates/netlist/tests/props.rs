//! Property tests of the netlist kernel's structural invariants, driven
//! by a self-contained random circuit strategy.

use incdx_netlist::{
    expand_xor_to_nand, parse_bench, write_bench, Abstraction, DenseBitSet, Gate, GateId, GateKind,
    Netlist, NetlistError,
};
use incdx_sim::{PackedMatrix, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a valid random combinational netlist description
/// (kind + fanin indices strictly below the gate's own index).
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..60).prop_flat_map(|(inputs, gates)| {
        let kinds = prop::sample::select(vec![
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ]);
        let gate = (kinds, prop::collection::vec(0usize..1000, 1..4));
        prop::collection::vec(gate, gates).prop_map(move |descs| {
            let mut b = Netlist::builder();
            let mut signals: Vec<GateId> =
                (0..inputs).map(|i| b.add_input(format!("i{i}"))).collect();
            for (kind, picks) in descs {
                let nf = match kind {
                    GateKind::Not | GateKind::Buf => 1,
                    GateKind::Xor | GateKind::Xnor => 2.max(picks.len().min(3)),
                    _ => picks.len().clamp(1, 3),
                };
                let fanins: Vec<GateId> = (0..nf)
                    .map(|k| signals[picks[k % picks.len()] % signals.len()])
                    .collect();
                signals.push(b.add_gate(kind, fanins));
            }
            let last = *signals.last().expect("at least one signal");
            b.add_output(last);
            // A second output midway adds realistic multi-output shape.
            b.add_output(signals[signals.len() / 2]);
            b.build().expect("constructed netlists are valid")
        })
    })
}

/// Every structural answer a netlist gives, for comparing two netlists
/// (or one netlist before and after) query by query.
#[derive(Debug, PartialEq)]
struct Answers {
    gates: Vec<Gate>,
    names: Vec<Option<String>>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    fanouts: Vec<Vec<GateId>>,
    topo: Vec<GateId>,
    topo_pos: Vec<usize>,
    levels: Vec<u32>,
    acyclic: bool,
}

fn answers(n: &Netlist) -> Answers {
    Answers {
        gates: n.ids().map(|id| n.gate(id).clone()).collect(),
        names: n.ids().map(|id| n.name(id).map(str::to_string)).collect(),
        inputs: n.inputs().to_vec(),
        outputs: n.outputs().to_vec(),
        fanouts: n.ids().map(|id| n.fanouts(id).to_vec()).collect(),
        topo: n.topo_order().to_vec(),
        topo_pos: n.ids().map(|id| n.topo_position(id)).collect(),
        levels: n.ids().map(|id| n.level(id)).collect(),
        acyclic: n.is_acyclic(),
    }
}

/// The structural answers that do not depend on which topological order
/// a netlist holds: everything in [`Answers`] but the order itself.
#[derive(Debug, PartialEq)]
struct Structure {
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    fanouts: Vec<Vec<GateId>>,
    levels: Vec<u32>,
    max_level: u32,
    acyclic: bool,
}

fn structure(n: &Netlist) -> Structure {
    Structure {
        gates: n.ids().map(|id| n.gate(id).clone()).collect(),
        inputs: n.inputs().to_vec(),
        outputs: n.outputs().to_vec(),
        fanouts: n.ids().map(|id| n.fanouts(id).to_vec()).collect(),
        levels: n.ids().map(|id| n.level(id)).collect(),
        max_level: n.max_level(),
        acyclic: n.is_acyclic(),
    }
}

/// Checks that `n.topo_order()` is a permutation of the gates in which
/// every fanin precedes its reader (a DFF's fanin edge is sequential and
/// exempt), and that `topo_position` inverts it.
fn check_topo_order(n: &Netlist) -> Result<(), TestCaseError> {
    let topo = n.topo_order();
    prop_assert_eq!(topo.len(), n.len());
    for (pos, &id) in topo.iter().enumerate() {
        prop_assert_eq!(n.topo_position(id), pos, "topo_position inverts topo_order");
    }
    for (id, g) in n.iter() {
        if g.kind() == GateKind::Dff {
            continue;
        }
        for &f in g.fanins() {
            prop_assert!(
                n.topo_position(f) < n.topo_position(id),
                "fanin {} must precede {}",
                f,
                id
            );
        }
    }
    Ok(())
}

/// A netlist rebuilt from `n`'s parts: the fresh order, fanouts and levels.
fn rebuilt(n: &Netlist) -> Netlist {
    let parts: Vec<Gate> = n.ids().map(|id| n.gate(id).clone()).collect();
    let names = n.ids().map(|id| n.name(id).map(str::to_string)).collect();
    Netlist::from_parts_unchecked(parts, names, n.outputs().to_vec())
}

/// Kinds an edit may write (no DFFs: the random netlists have none).
const EDIT_KINDS: [GateKind; 11] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
    GateKind::Const0,
    GateKind::Const1,
    GateKind::Input,
];

fn eval_scalar(n: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let mut vals = vec![false; n.len()];
    for (i, &pi) in n.inputs().iter().enumerate() {
        vals[pi.index()] = inputs[i];
    }
    for &id in n.topo_order() {
        let g = n.gate(id);
        if g.kind() == GateKind::Input {
            continue;
        }
        let f: Vec<bool> = g.fanins().iter().map(|&x| vals[x.index()]).collect();
        vals[id.index()] = g.kind().eval(&f);
    }
    n.outputs().iter().map(|&o| vals[o.index()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topo_order_is_a_valid_schedule(n in arb_netlist()) {
        let topo = n.topo_order();
        prop_assert_eq!(topo.len(), n.len());
        for (id, g) in n.iter() {
            for &f in g.fanins() {
                prop_assert!(n.topo_position(f) < n.topo_position(id));
            }
        }
    }

    #[test]
    fn fanouts_mirror_fanins(n in arb_netlist()) {
        for (id, g) in n.iter() {
            for &f in g.fanins() {
                prop_assert!(n.fanouts(f).contains(&id));
            }
        }
        for id in n.ids() {
            for &reader in n.fanouts(id) {
                prop_assert!(n.gate(reader).fanins().contains(&id));
            }
        }
    }

    #[test]
    fn cones_are_reachability_closures(n in arb_netlist()) {
        for id in n.ids().step_by(7) {
            let cone = n.fanout_cone(id);
            // Every member (except the stem) has a fanin inside the cone.
            for m in cone.iter() {
                let mid = GateId::from_index(m);
                if mid == id {
                    continue;
                }
                prop_assert!(
                    n.gate(mid).fanins().iter().any(|f| cone.contains(f.index())),
                    "cone member {mid} unreachable from {id}"
                );
            }
            // Nothing outside the cone reads only-cone paths: spot-check
            // closure — every fanout of a cone member is in the cone.
            for m in cone.iter() {
                for &r in n.fanouts(GateId::from_index(m)) {
                    prop_assert!(cone.contains(r.index()));
                }
            }
        }
    }

    #[test]
    fn levels_bound_fanins(n in arb_netlist()) {
        for (id, g) in n.iter() {
            for &f in g.fanins() {
                prop_assert!(n.level(f) < n.level(id));
            }
        }
        prop_assert!(n.max_level() as usize <= n.len());
    }

    #[test]
    fn bench_roundtrip_preserves_structure(n in arb_netlist()) {
        let text = write_bench(&n);
        let m = parse_bench(&text).expect("own output parses");
        prop_assert_eq!(m.len(), n.len());
        prop_assert_eq!(m.inputs().len(), n.inputs().len());
        prop_assert_eq!(m.outputs().len(), n.outputs().len());
        prop_assert_eq!(m.max_level(), n.max_level());
        // Function preserved on a few vectors.
        for pattern in [0u64, !0, 0xAAAA_AAAA_5555_5555] {
            let iv: Vec<bool> = (0..n.inputs().len()).map(|i| pattern >> (i % 64) & 1 == 1).collect();
            prop_assert_eq!(eval_scalar(&n, &iv), eval_scalar(&m, &iv));
        }
    }

    #[test]
    fn xor_expansion_is_functionally_equivalent(n in arb_netlist()) {
        let m = expand_xor_to_nand(&n).expect("expansion succeeds");
        prop_assert!(m.iter().all(|(_, g)| !matches!(g.kind(), GateKind::Xor | GateKind::Xnor)));
        for pattern in [0u64, !0, 0x1234_5678_9ABC_DEF0, 0xF0F0_F0F0_0F0F_0F0F] {
            let iv: Vec<bool> = (0..n.inputs().len()).map(|i| pattern >> (i % 64) & 1 == 1).collect();
            prop_assert_eq!(eval_scalar(&n, &iv), eval_scalar(&m, &iv));
        }
    }

    /// Random `replace_gate`, `append_gate`, `tie` and `set_name`
    /// sequences on a clone. A rejected edit changes nothing;
    /// `replace_gate` reports a cycle exactly when a new fanin lies in the
    /// gate's fanout cone. After every step the clone has the structure,
    /// levels and simulated rows of a netlist rebuilt from its parts, and
    /// holds a valid topological order. `replace_gate` and `append_gate`
    /// give the rebuild's fresh order, so after them (until the next
    /// `tie`) every answer is the rebuild's. `tie` keeps the order it
    /// found. Ties land on any gate (XOR gates, stems, gates with
    /// duplicate fanins), on the source's primary inputs and outputs, and
    /// on already tied lines. The source, which shares storage with the
    /// clone, answers as before.
    #[test]
    fn replace_gate_never_corrupts_on_error(
        n in arb_netlist(),
        edits in prop::collection::vec(
            (0usize..5, 0usize..1000, 0usize..EDIT_KINDS.len(), prop::collection::vec(0usize..1000, 1..4)),
            1..12,
        ),
        seed in 0u64..1_000,
    ) {
        let source = answers(&n);
        let mut m = n.clone();
        let mut fresh_order = true;
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for (step, (op, target, kind, picks)) in edits.into_iter().enumerate() {
            let len = m.len();
            let before = answers(&m);
            let t = GateId::from_index(target % len);
            let kind = EDIT_KINDS[kind];
            let nf = match kind {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Xor | GateKind::Xnor => picks.len().max(2),
                GateKind::Const0 | GateKind::Const1 | GateKind::Input => 0,
                _ => picks.len(),
            };
            let mut fanins: Vec<GateId> = (0..nf)
                .map(|k| GateId::from_index(picks[k % picks.len()] % len))
                .collect();
            let accepted = match op {
                0 | 1 => {
                    let kind = if op == 1 {
                        // Grow the gate's own fanin list by one: an arity
                        // error for fixed-arity kinds, a cycle when the
                        // new fanin reads the gate.
                        fanins = m.gate(t).fanins().to_vec();
                        fanins.push(GateId::from_index(picks[0] % len));
                        m.gate(t).kind()
                    } else {
                        kind
                    };
                    let (lo, hi) = kind.arity();
                    let cone = m.fanout_cone(t);
                    let cyclic = fanins.iter().any(|f| cone.contains(f.index()));
                    match m.replace_gate(t, kind, fanins.clone()) {
                        Ok(()) => {
                            prop_assert!(!cyclic && (lo..=hi).contains(&fanins.len()));
                            true
                        }
                        Err(NetlistError::BadArity { .. }) => {
                            prop_assert!(!(lo..=hi).contains(&fanins.len()));
                            false
                        }
                        Err(NetlistError::CombinationalCycle { gate }) => {
                            prop_assert!(cyclic && gate == t);
                            false
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                2 => {
                    let id = m.append_gate(kind, fanins);
                    prop_assert_eq!(id, Ok(GateId::from_index(len)));
                    true
                }
                3 => {
                    m.set_name(t, Some(format!("e{step}")));
                    true
                }
                _ => {
                    let sites = match picks[0] % 3 {
                        0 => n.inputs(),
                        1 => n.outputs(),
                        _ => &[t][..],
                    };
                    let site = sites[target % sites.len()];
                    let value = picks[0] % 2 == 0;
                    let order = m.topo_order().to_vec();
                    let cone = m.tie(site, value).expect("in range");
                    let want = if value { GateKind::Const1 } else { GateKind::Const0 };
                    prop_assert_eq!(m.gate(site).kind(), want);
                    prop_assert!(m.gate(site).fanins().is_empty());
                    prop_assert_eq!(m.topo_order(), &order[..], "a tie keeps the order");
                    prop_assert_eq!(cone, m.fanout_cone_sorted(site));
                    true
                }
            };
            if !accepted {
                prop_assert_eq!(answers(&m), before);
            } else if op == 4 {
                fresh_order = false;
            } else if op < 3 {
                fresh_order = true;
            }
            let rebuilt = rebuilt(&m);
            if fresh_order {
                prop_assert_eq!(answers(&m), answers(&rebuilt));
            }
            prop_assert_eq!(structure(&m), structure(&rebuilt));
            check_topo_order(&m)?;
            let pi = PackedMatrix::random(m.inputs().len(), 100, &mut rng);
            prop_assert!(sim.run(&m, &pi) == sim.run(&rebuilt, &pi), "simulated rows");
            prop_assert!(m.is_acyclic());
        }
        prop_assert_eq!(answers(&n), source);
    }

    /// A tie on a netlist that is not acyclic takes the full rebuild: a
    /// tie that breaks the only cycle leaves an acyclic netlist in the
    /// fresh order, and one beside the cycle leaves it cyclic. Either way
    /// every answer is the rebuild's.
    #[test]
    fn tie_on_a_cyclic_netlist_rebuilds(value in prop::bool::ANY, on_cycle in prop::bool::ANY) {
        // a, b inputs; g2 = AND(a, g3), g3 = OR(g2, b): a 2-cycle; g4 = NOT(b).
        let gates = vec![
            Gate::new(GateKind::Input, vec![]),
            Gate::new(GateKind::Input, vec![]),
            Gate::new(GateKind::And, vec![GateId(0), GateId(3)]),
            Gate::new(GateKind::Or, vec![GateId(2), GateId(1)]),
            Gate::new(GateKind::Not, vec![GateId(1)]),
        ];
        let mut m = Netlist::from_parts_unchecked(gates, Vec::new(), vec![GateId(3), GateId(4)]);
        prop_assert!(!m.is_acyclic());
        let site = if on_cycle { GateId(2) } else { GateId(4) };
        let cone = m.tie(site, value).expect("in range");
        prop_assert_eq!(m.is_acyclic(), on_cycle);
        prop_assert_eq!(answers(&m), answers(&rebuilt(&m)));
        prop_assert_eq!(cone, m.fanout_cone_sorted(site));
    }

    /// The abstraction equivalence contract on arbitrary circuits: the
    /// abstract netlist's value at every abstract gate equals the
    /// concrete netlist's value at that gate's stem, for every sampled
    /// input assignment, and the map always validates.
    #[test]
    fn abstraction_preserves_stem_values(n in arb_netlist(), patterns in prop::collection::vec(prop::collection::vec(prop::bool::ANY, 2..6), 1..8)) {
        let abs = Abstraction::build(&n);
        prop_assert!(abs.map().validate());
        prop_assert_eq!(abs.netlist().inputs().len(), n.inputs().len());
        prop_assert_eq!(abs.netlist().outputs().len(), n.outputs().len());
        for pattern in &patterns {
            let mut inputs = pattern.clone();
            inputs.resize(n.inputs().len(), false);
            let assign = |nl: &Netlist| -> Vec<bool> {
                let mut vals = vec![false; nl.len()];
                for (i, &pi) in nl.inputs().iter().enumerate() {
                    vals[pi.index()] = inputs[i];
                }
                for &id in nl.topo_order() {
                    let g = nl.gate(id);
                    if g.kind() == GateKind::Input {
                        continue;
                    }
                    let f: Vec<bool> = g.fanins().iter().map(|&x| vals[x.index()]).collect();
                    vals[id.index()] = g.kind().eval(&f);
                }
                vals
            };
            let cv = assign(&n);
            let av = assign(abs.netlist());
            for a in abs.netlist().ids() {
                let stem = abs.map().concrete_of(a);
                prop_assert_eq!(av[a.index()], cv[stem.index()]);
            }
        }
    }

    #[test]
    fn dense_bitset_behaves_like_hashset(ops in prop::collection::vec((0usize..200, prop::bool::ANY), 0..100)) {
        let mut set = DenseBitSet::new(200);
        let mut model = std::collections::HashSet::new();
        for (idx, insert) in ops {
            if insert {
                prop_assert_eq!(set.insert(idx), model.insert(idx));
            } else {
                prop_assert_eq!(set.remove(idx), model.remove(&idx));
            }
        }
        prop_assert_eq!(set.len(), model.len());
        let mut got: Vec<usize> = set.iter().collect();
        let mut want: Vec<usize> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

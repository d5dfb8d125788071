//! Pins the area-optimised cores the benchmark diagnoses.
//!
//! `perfbench` runs `optimize_for_area` with the settings below on these
//! suite circuits before it injects faults, so any change to the
//! optimiser's output (or to the netlist order its passes walk) changes
//! the benchmark's circuits. The gate count and an FNV-1a hash of the
//! `.bench` text make such a change fail here instead of moving the
//! benchmark silently.

use incdx_netlist::write_bench;
use incdx_opt::{optimize_for_area, OptConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn benchmark_cores_are_pinned() {
    let config = OptConfig {
        redundancy_rounds: 2,
        backtrack_limit: 500,
        prefilter_vectors: 256,
    };
    let mut got = Vec::new();
    for name in ["c499a", "c880a", "c1908a"] {
        let core = incdx_gen::generate(name).expect("suite circuit");
        assert!(core.is_combinational(), "{name} needs no scan conversion");
        let opt = optimize_for_area(&core, &config).netlist;
        got.push((name, opt.len(), fnv1a(write_bench(&opt).as_bytes())));
    }
    let want = [
        ("c499a", 172, 0x5fe4_31e3_ef44_4985),
        ("c880a", 146, 0xdb46_1b38_8da8_512c),
        ("c1908a", 234, 0xc081_2356_9e6f_c37d),
    ];
    assert_eq!(got, want);
}

//! Minimal flag parsing shared by the experiment binaries (no external
//! dependency; flags are `--name value`).

use std::time::Duration;

use incdx_core::{ChaosConfig, RectifyLimits, TraversalKind};

/// Common experiment parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Master seed; every trial derives its own seed from it.
    pub seed: u64,
    /// Trials per (circuit, fault-count) cell.
    pub trials: usize,
    /// Test vectors per run.
    pub vectors: usize,
    /// Circuits to run (suite names); empty = the binary's default list.
    pub circuits: Vec<String>,
    /// Per-run wall-clock limit.
    pub time_limit: Duration,
    /// Worker threads (0 = all cores).
    pub jobs: usize,
    /// Arm the speculative node dispatcher (`--dispatch`): `--jobs`
    /// workers evaluate predicted tree expansions concurrently while
    /// the serial master loop keeps the search deterministic
    /// (`--no-dispatch` reverts to per-node parallel screening).
    pub dispatch: bool,
    /// Emit a one-line `RectifyReport` JSON record per engine run
    /// (`--no-json` disables; see EXPERIMENTS.md for the schema).
    pub json: bool,
    /// Use the event-driven incremental resimulation engine
    /// (`--no-incremental` reverts to full cone resimulation and disables
    /// the node-matrix cache; results are bit-identical either way).
    pub incremental: bool,
    /// Use the hierarchical sparse simulation kernel (`--no-sparse`
    /// reverts to the dense per-row kernels; results are bit-identical
    /// either way — only the sparse work counters and wall time move).
    pub sparse: bool,
    /// Two-level hierarchical diagnosis (`--hierarchical`): diagnose the
    /// cone-collapsed abstract netlist first, then resume on the
    /// concrete netlist restricted to the implicated regions (`--flat`
    /// reverts to single-level search; exhaustive solution sets are
    /// identical either way).
    pub hierarchical: bool,
    /// Decision-tree traversal strategy (`--traversal
    /// bfs|dfs|naive-bfs|best-first`; `bfs` is the paper's round-robin
    /// default).
    pub traversal: TraversalKind,
    /// Run the engine invariant audit (`--audit`): sampled from-scratch
    /// replays of incremental node preparations plus end-of-run solution
    /// verification, reported as the `audit` object of the JSON records.
    pub audit: bool,
    /// Per-engine-run wall-clock deadline in milliseconds
    /// (`--deadline-ms N`). Unlike `--time-limit` (the legacy per-level
    /// budget), this drives [`RectifyLimits::deadline`]: the run stops at
    /// a clean plan boundary with a typed verdict, ranked partial
    /// solutions, and a resumable checkpoint.
    pub deadline_ms: Option<u64>,
    /// Total decision-tree node budget per engine run (`--max-nodes N`),
    /// driving [`RectifyLimits::max_total_nodes`].
    pub max_nodes: Option<u64>,
    /// Deterministic chaos fault injection (`--chaos SEED,RATE`), parsed
    /// by [`ChaosConfig::parse`]. Arms worker panics, cached-matrix bit
    /// flips, and spurious width errors; the resilience layer must
    /// recover to the chaos-off solution set.
    pub chaos: Option<ChaosConfig>,
    /// Write the first captured engine checkpoint (an early-stopped run)
    /// to this path as one line of JSON (`--checkpoint PATH`).
    pub checkpoint: Option<String>,
    /// Resume a single checkpointed run from this path (`--resume PATH`)
    /// instead of sweeping the full experiment grid.
    pub resume: Option<String>,
}

impl Default for Args {
    /// The paper's setup scaled to a few seconds per cell: 10 trials,
    /// 1024 vectors, 30 s per-run limit.
    fn default() -> Self {
        Args {
            seed: 2002,
            trials: 10,
            vectors: 1024,
            circuits: Vec::new(),
            time_limit: Duration::from_secs(30),
            jobs: 0,
            dispatch: false,
            json: true,
            incremental: true,
            sparse: true,
            hierarchical: false,
            traversal: TraversalKind::default(),
            audit: false,
            deadline_ms: None,
            max_nodes: None,
            chaos: None,
            checkpoint: None,
            resume: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args`, exiting with usage text on `--help` or a
    /// malformed flag.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| die(&format!("missing value for {name}")))
            };
            match flag.as_str() {
                "--seed" => args.seed = parse_num(&value("--seed")),
                "--trials" => args.trials = parse_num(&value("--trials")) as usize,
                "--vectors" => args.vectors = parse_num(&value("--vectors")) as usize,
                "--jobs" => args.jobs = parse_num(&value("--jobs")) as usize,
                "--dispatch" => args.dispatch = true,
                "--no-dispatch" => args.dispatch = false,
                "--json" => args.json = true,
                "--no-json" => args.json = false,
                "--incremental" => args.incremental = true,
                "--no-incremental" => args.incremental = false,
                "--sparse" => args.sparse = true,
                "--no-sparse" => args.sparse = false,
                "--hierarchical" => args.hierarchical = true,
                "--flat" => args.hierarchical = false,
                "--audit" => args.audit = true,
                "--deadline-ms" => args.deadline_ms = Some(parse_num(&value("--deadline-ms"))),
                "--max-nodes" => args.max_nodes = Some(parse_num(&value("--max-nodes"))),
                "--chaos" => {
                    let v = value("--chaos");
                    args.chaos =
                        Some(ChaosConfig::parse(&v).unwrap_or_else(|e| die(&format!("{e}"))));
                }
                "--checkpoint" => args.checkpoint = Some(value("--checkpoint")),
                "--resume" => args.resume = Some(value("--resume")),
                "--traversal" => {
                    let v = value("--traversal");
                    args.traversal = v.parse().unwrap_or_else(|e| die(&format!("{e}")));
                }
                "--time-limit" => {
                    args.time_limit = Duration::from_secs(parse_num(&value("--time-limit")))
                }
                "--circuits" => {
                    args.circuits = value("--circuits")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect()
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --seed N --trials N --vectors N --circuits a,b,c \
                         --time-limit SECONDS --jobs N --dispatch|--no-dispatch \
                         --json|--no-json \
                         --incremental|--no-incremental --sparse|--no-sparse \
                         --hierarchical|--flat --audit \
                         --traversal bfs|dfs|naive-bfs|best-first \
                         --deadline-ms N --max-nodes N --chaos SEED,RATE \
                         --checkpoint PATH --resume PATH"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown flag `{other}` (try --help)")),
            }
        }
        args
    }
}

impl Args {
    /// The [`RectifyLimits`] implied by `--deadline-ms` / `--max-nodes`
    /// (unset flags leave the corresponding limit disarmed).
    pub fn limits(&self) -> RectifyLimits {
        RectifyLimits {
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_total_nodes: self.max_nodes,
            ..RectifyLimits::default()
        }
    }

    /// Derives the RNG seed of one experiment trial. Every binary routes
    /// through here (instead of hand-rolled XOR formulas) so trial
    /// streams are decorrelated across experiments, circuits, fault
    /// counts, trials and re-injection attempts, while staying fully
    /// reproducible from `--seed`.
    pub fn trial_seed(
        &self,
        experiment: &str,
        circuit: &str,
        k: usize,
        trial: usize,
        attempt: u64,
    ) -> u64 {
        let mut h = mix(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        for part in [
            hash_label(experiment),
            hash_label(circuit),
            k as u64,
            trial as u64,
            attempt,
        ] {
            h = mix(h ^ part);
        }
        h
    }
}

/// FNV-1a over a label, for folding strings into [`Args::trial_seed`].
pub fn hash_label(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// SplitMix64 finalizer: diffuses every input bit over the whole word, so
/// small field values (trial 0/1/2…) produce unrelated seeds.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn parse_num(s: &str) -> u64 {
    s.parse()
        .unwrap_or_else(|_| die(&format!("`{s}` is not a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let a = Args::parse_from(
            [
                "--seed",
                "7",
                "--trials",
                "3",
                "--circuits",
                "c17,c432a",
                "--time-limit",
                "5",
            ]
            .map(String::from),
        );
        assert_eq!(a.seed, 7);
        assert_eq!(a.trials, 3);
        assert_eq!(a.circuits, vec!["c17", "c432a"]);
        assert_eq!(a.time_limit, Duration::from_secs(5));
    }

    #[test]
    fn defaults_match_paper_scale() {
        let a = Args::default();
        assert_eq!(a.trials, 10);
        assert_eq!(a.vectors, 1024);
        assert!(a.json);
    }

    #[test]
    fn json_flag_round_trips() {
        assert!(!Args::parse_from(["--no-json".to_string()]).json);
        assert!(Args::parse_from(["--json".to_string()]).json);
    }

    #[test]
    fn incremental_flag_round_trips() {
        assert!(Args::default().incremental, "incremental is the default");
        assert!(!Args::parse_from(["--no-incremental".to_string()]).incremental);
        assert!(Args::parse_from(["--incremental".to_string()]).incremental);
    }

    #[test]
    fn sparse_flag_round_trips() {
        assert!(Args::default().sparse, "sparse is the default");
        assert!(!Args::parse_from(["--no-sparse".to_string()]).sparse);
        assert!(Args::parse_from(["--sparse".to_string()]).sparse);
    }

    #[test]
    fn hierarchical_flag_round_trips() {
        assert!(!Args::default().hierarchical, "flat search is the default");
        assert!(Args::parse_from(["--hierarchical".to_string()]).hierarchical);
        assert!(
            !Args::parse_from(["--hierarchical".to_string(), "--flat".to_string()]).hierarchical
        );
    }

    #[test]
    fn dispatch_flag_round_trips() {
        assert!(!Args::default().dispatch, "dispatch is opt-in");
        assert!(Args::parse_from(["--dispatch".to_string()]).dispatch);
        assert!(
            !Args::parse_from(["--dispatch".to_string(), "--no-dispatch".to_string()]).dispatch
        );
    }

    #[test]
    fn audit_flag_is_opt_in() {
        assert!(!Args::default().audit, "audit is off by default");
        assert!(Args::parse_from(["--audit".to_string()]).audit);
    }

    #[test]
    fn traversal_flag_parses_every_strategy() {
        assert_eq!(Args::default().traversal, TraversalKind::RoundRobinBfs);
        for kind in TraversalKind::ALL {
            let a = Args::parse_from(["--traversal".to_string(), kind.as_str().to_string()]);
            assert_eq!(a.traversal, kind);
        }
        let a = Args::parse_from(["--traversal".to_string(), "rounds".to_string()]);
        assert_eq!(a.traversal, TraversalKind::RoundRobinBfs);
    }

    #[test]
    fn resilience_flags_parse_and_map_to_limits() {
        let a = Args::parse_from(
            [
                "--deadline-ms",
                "50",
                "--max-nodes",
                "200",
                "--chaos",
                "7,0.05",
                "--checkpoint",
                "/tmp/ckpt.json",
                "--resume",
                "/tmp/old.json",
            ]
            .map(String::from),
        );
        assert_eq!(a.deadline_ms, Some(50));
        assert_eq!(a.max_nodes, Some(200));
        let chaos = a.chaos.expect("chaos parsed");
        assert_eq!(chaos.seed, 7);
        assert!((chaos.rate - 0.05).abs() < 1e-12);
        assert_eq!(a.checkpoint.as_deref(), Some("/tmp/ckpt.json"));
        assert_eq!(a.resume.as_deref(), Some("/tmp/old.json"));
        let limits = a.limits();
        assert_eq!(limits.deadline, Some(Duration::from_millis(50)));
        assert_eq!(limits.max_total_nodes, Some(200));
        assert_eq!(limits.max_words, None);
        assert_eq!(limits.max_retained_bytes, None);
    }

    #[test]
    fn default_limits_are_disarmed() {
        let limits = Args::default().limits();
        assert_eq!(limits, RectifyLimits::default());
    }

    #[test]
    fn trial_seeds_are_deterministic_and_distinct() {
        let a = Args::default();
        let s = a.trial_seed("table1", "c432a", 2, 5, 0);
        assert_eq!(s, a.trial_seed("table1", "c432a", 2, 5, 0));
        // Any single field change moves the seed.
        assert_ne!(s, a.trial_seed("table2", "c432a", 2, 5, 0));
        assert_ne!(s, a.trial_seed("table1", "c880a", 2, 5, 0));
        assert_ne!(s, a.trial_seed("table1", "c432a", 3, 5, 0));
        assert_ne!(s, a.trial_seed("table1", "c432a", 2, 6, 0));
        assert_ne!(s, a.trial_seed("table1", "c432a", 2, 5, 1));
        let mut b = a.clone();
        b.seed = 1;
        assert_ne!(s, b.trial_seed("table1", "c432a", 2, 5, 0));
    }
}

//! The daemon's job model: deterministic workload specs, job states,
//! and solution-set fingerprints.
//!
//! A job is described entirely by its [`JobSpec`] — circuit source,
//! fault model, injection seed, vector count, optional budgets. The
//! daemon never spools netlists or matrices: the spec (plus the
//! engine's own checkpoint) is enough to regenerate the workload
//! bit-identically after a crash, and the regenerated base netlist's
//! [`netlist_fingerprint`] is checked
//! against the one recorded at admission, so a torn or mixed-up spool
//! record is detected instead of silently diagnosing the wrong circuit.

use incdx_core::json::Json;
use incdx_core::{json_fields, netlist_fingerprint, RectifyConfig, Solution};
use incdx_fault::{
    inject_design_errors, inject_stuck_at_faults, CorrectionAction, InjectionConfig,
};
use incdx_netlist::{parse_bench, scan_convert, Netlist};
use incdx_sim::{PackedMatrix, Response, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Where the golden circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A named suite circuit (`c432a`, `s641a`, …), generated on the
    /// daemon side.
    Suite(String),
    /// An explicit netlist in `.bench` text, carried in the submit
    /// request (scan-converted server-side if sequential).
    Bench(String),
}

/// The fault model a job diagnoses under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Design-error diagnosis and correction: the corrupted design is
    /// rectified against the golden responses; the search stops at the
    /// first verified correction tuple.
    Dedc,
    /// Stuck-at diagnosis: all minimal equivalent fault tuples are
    /// enumerated (exhaustive search).
    StuckAt,
}

impl Model {
    /// Stable lowercase tag used on the wire and in the spool.
    pub fn tag(&self) -> &'static str {
        match self {
            Model::Dedc => "dedc",
            Model::StuckAt => "stuck-at",
        }
    }
}

/// A deterministic workload description: everything needed to rebuild
/// the diagnosis session from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Golden circuit source.
    pub source: Source,
    /// Fault model.
    pub model: Model,
    /// Number of faults/errors to inject.
    pub k: usize,
    /// Test-vector count.
    pub vectors: usize,
    /// Injection + vector seed (same seed → same workload).
    pub seed: u64,
    /// Optional job-wide node budget; exhausting it ends the job with
    /// a `budget-exhausted` verdict rather than requeueing it.
    pub max_nodes: Option<u64>,
    /// Optional job-wide wall-clock deadline, measured from admission.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// Parses the `"job"` object of a submit request (or a spool
    /// record).
    ///
    /// # Errors
    ///
    /// A description of the first missing or out-of-domain field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let source = match (v.get_opt("circuit"), v.get_opt("netlist")) {
            (Some(c), None) => Source::Suite(c.as_str()?.to_string()),
            (None, Some(n)) => Source::Bench(n.as_str()?.to_string()),
            (Some(_), Some(_)) => {
                return Err("give either `circuit` or `netlist`, not both".to_string())
            }
            (None, None) => return Err("missing field `circuit` (or `netlist`)".to_string()),
        };
        let model = match v.get("model")?.as_str()? {
            "dedc" => Model::Dedc,
            "stuck-at" => Model::StuckAt,
            other => return Err(format!("unknown model `{other}`")),
        };
        let k = v.get("k")?.as_usize()?;
        if k == 0 || k > 8 {
            return Err(format!("k = {k} out of range (1..=8)"));
        }
        let vectors = v.get("vectors")?.as_usize()?;
        if vectors == 0 || vectors > 1 << 16 {
            return Err(format!("vectors = {vectors} out of range (1..=65536)"));
        }
        let seed = v.get("seed")?.as_u64()?;
        let (max_nodes, deadline_ms) = match v.get_opt("limits") {
            Some(l) => (
                l.get_opt("max_nodes").map(Json::as_u64).transpose()?,
                l.get_opt("deadline_ms").map(Json::as_u64).transpose()?,
            ),
            None => (None, None),
        };
        Ok(JobSpec {
            source,
            model,
            k,
            vectors,
            seed,
            max_nodes,
            deadline_ms,
        })
    }

    /// Renders the spec back to its wire/spool JSON object.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The spec as a JSON value, for embedding in larger documents.
    /// `limits` appears only when at least one limit is set.
    pub fn to_json_value(&self) -> Json {
        let source = match &self.source {
            Source::Suite(name) => ("circuit", name.into()),
            Source::Bench(text) => ("netlist", text.into()),
        };
        let fields = json_fields! {
            "model": self.model.tag(), "k": self.k, "vectors": self.vectors, "seed": self.seed,
        };
        let limits = (self.max_nodes.is_some() || self.deadline_ms.is_some()).then(|| {
            let set = [
                ("max_nodes", self.max_nodes),
                ("deadline_ms", self.deadline_ms),
            ];
            let set = set
                .into_iter()
                .filter_map(|(key, v)| Some((key, v?.into())));
            ("limits", Json::obj(set))
        });
        Json::obj([source].into_iter().chain(fields).chain(limits))
    }

    /// Key under which the interned-artifact layer shares this
    /// workload. Same key → bit-identical base netlist, vectors, and
    /// reference response.
    pub fn intern_key(&self) -> String {
        let src = match &self.source {
            Source::Suite(name) => format!("suite:{name}"),
            Source::Bench(text) => format!("bench:{:016x}", fnv64(text.as_bytes())),
        };
        format!(
            "{src}/{}/k{}/v{}/s{}",
            self.model.tag(),
            self.k,
            self.vectors,
            self.seed
        )
    }

    /// The engine configuration for this spec, before the scheduler
    /// overlays its per-slice limits.
    pub fn rectify_config(&self) -> RectifyConfig {
        match self.model {
            Model::Dedc => RectifyConfig::dedc(self.k),
            Model::StuckAt => RectifyConfig::stuck_at_exhaustive(self.k),
        }
    }
}

/// A fully constructed diagnosis workload: what `Rectifier::new` needs,
/// interned once per [`JobSpec::intern_key`] and shared read-only
/// across jobs and time slices.
#[derive(Debug)]
pub struct Workload {
    /// The netlist the engine diagnoses (the corrupted design for DEDC,
    /// the golden circuit for stuck-at).
    pub base: Netlist,
    /// Primary-input vectors.
    pub pi: PackedMatrix,
    /// Reference response (golden spec for DEDC, faulty device
    /// responses for stuck-at).
    pub resp: Response,
    /// Structural fingerprint of `base` — the spool-recovery guard.
    pub fingerprint: u64,
}

/// Outcome of [`build_workload`].
#[derive(Debug)]
pub enum BuiltWorkload {
    /// The workload is ready to diagnose (boxed: a `Workload` is large
    /// relative to the empty variant).
    Ready(Box<Workload>),
    /// Injection could not produce failing behaviour on this
    /// (circuit, seed, vectors) triple — a legitimate terminal outcome,
    /// reported as a zero-solution `exact` verdict, not an error.
    NoFailingBehaviour,
}

/// Builds the diagnosis workload for `spec` from scratch: generate or
/// parse the golden circuit, inject `k` faults/errors with the spec's
/// seed, simulate the reference responses. Deterministic — a crash and
/// rebuild yields a bit-identical workload, which is what makes the
/// spool's spec-plus-checkpoint persistence sufficient.
///
/// # Errors
///
/// A description of why the spec cannot be materialized (unknown
/// circuit, unparsable netlist, engine-rejected shapes).
pub fn build_workload(spec: &JobSpec) -> Result<BuiltWorkload, String> {
    let golden = match &spec.source {
        Source::Suite(name) => incdx_gen::generate(name).map_err(|e| e.to_string())?,
        Source::Bench(text) => parse_bench(text).map_err(|e| e.to_string())?,
    };
    let golden = if golden.is_combinational() {
        golden
    } else {
        scan_convert(&golden).map_err(|e| e.to_string())?.0
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut sim = Simulator::new();
    match spec.model {
        Model::Dedc => {
            let injection = match inject_design_errors(
                &golden,
                &InjectionConfig {
                    count: spec.k,
                    require_individually_observable: true,
                    check_vectors: spec.vectors,
                    max_attempts: 300,
                },
                &mut rng,
            ) {
                Ok(injection) => injection,
                Err(_) => return Ok(BuiltWorkload::NoFailingBehaviour),
            };
            let mut vec_rng = StdRng::seed_from_u64(spec.seed ^ 0x0DED_C000);
            let pi = PackedMatrix::random(golden.inputs().len(), spec.vectors, &mut vec_rng);
            let resp = Response::capture(&golden, &sim.run(&golden, &pi));
            let fingerprint = netlist_fingerprint(&injection.corrupted);
            Ok(BuiltWorkload::Ready(Box::new(Workload {
                base: injection.corrupted,
                pi,
                resp,
                fingerprint,
            })))
        }
        Model::StuckAt => {
            let injection = match inject_stuck_at_faults(
                &golden,
                &InjectionConfig {
                    count: spec.k,
                    require_individually_observable: false,
                    check_vectors: spec.vectors,
                    max_attempts: 100,
                },
                &mut rng,
            ) {
                Ok(injection) => injection,
                Err(_) => return Ok(BuiltWorkload::NoFailingBehaviour),
            };
            let mut vec_rng = StdRng::seed_from_u64(spec.seed ^ 0x00D1_A600);
            let pi = PackedMatrix::random(golden.inputs().len(), spec.vectors, &mut vec_rng);
            let device = Response::capture(
                &injection.corrupted,
                &sim.run_for_inputs(&injection.corrupted, golden.inputs(), &pi),
            );
            if device.po_values().rows() != golden.outputs().len() {
                return Ok(BuiltWorkload::NoFailingBehaviour);
            }
            let vals = sim.run(&golden, &pi);
            if Response::compare(&golden, &vals, &device).matches() {
                return Ok(BuiltWorkload::NoFailingBehaviour);
            }
            let fingerprint = netlist_fingerprint(&golden);
            Ok(BuiltWorkload::Ready(Box::new(Workload {
                base: golden,
                pi,
                resp: device,
                fingerprint,
            })))
        }
    }
}

/// Order-independent fingerprint of a solution set, used to assert that
/// a crash-interrupted, resumed job reached exactly the solutions an
/// uninterrupted run finds. Each solution's corrections are serialized
/// canonically (sorted), the solution strings are sorted, and the whole
/// list is FNV-hashed.
pub fn solution_fingerprint(solutions: &[Solution]) -> u64 {
    let mut keys: Vec<String> = solutions
        .iter()
        .map(|s| {
            let mut parts: Vec<String> = s.corrections.iter().map(correction_key).collect();
            parts.sort();
            parts.join("+")
        })
        .collect();
    keys.sort();
    fnv64(keys.join("|").as_bytes())
}

fn correction_key(c: &incdx_fault::Correction) -> String {
    let line = c.line().index();
    match c.action() {
        CorrectionAction::SetConst(v) => format!("{line}:const:{v}"),
        CorrectionAction::ChangeKind(kind) => format!("{line}:kind:{}", kind.token()),
        CorrectionAction::InvertInput { port } => format!("{line}:inv:{port}"),
        CorrectionAction::RemoveInput { port } => format!("{line}:rm:{port}"),
        CorrectionAction::AddInput { source } => format!("{line}:add:{}", source.index()),
        CorrectionAction::ReplaceInput { port, source } => {
            format!("{line}:rep:{port}:{}", source.index())
        }
        CorrectionAction::WireThrough { port } => format!("{line}:wire:{port}"),
        CorrectionAction::InsertGate { kind, other } => {
            format!("{line}:ins:{}:{}", kind.token(), other.index())
        }
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Terminal summary of a finished job: enough for `status` responses,
/// the verdict event, and the crash-recovery determinism assertion —
/// without spooling whole correction tuples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobOutcome {
    /// Stable verdict tag (`exact`, `partial`, `budget-exhausted`,
    /// `deadline-exceeded`, `cancelled`, `degraded`, or the serve-only
    /// `no-failing` / `error`).
    pub verdict: String,
    /// Solutions reported.
    pub solutions: usize,
    /// Distinct corrected/diagnosed lines over all solutions.
    pub sites: usize,
    /// Order-independent [`solution_fingerprint`] of the solution set.
    pub solutions_fp: u64,
    /// Human-readable context (error text for failed jobs).
    pub detail: String,
}

impl JobOutcome {
    /// The outcome's fields as they appear in spool records and
    /// `status` replies.
    pub fn fields(&self) -> [(&'static str, Json); 5] {
        json_fields! {
            "verdict": &self.verdict, "solutions": self.solutions, "sites": self.sites,
            "solutions_fp": self.solutions_fp, "detail": &self.detail,
        }
    }
}

/// Lifecycle states of a daemon job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for its first slice.
    Queued,
    /// A worker is running a slice right now.
    Running,
    /// Between slices, back in the fair-share ring.
    Waiting,
    /// Recovered from the spool after a daemon crash; waiting to be
    /// requeued (immediately under auto-resume, or on a `resume`
    /// request).
    Interrupted,
    /// Terminal: the search finished (see the job's verdict for how).
    Done,
    /// Terminal: cancelled by a client.
    Cancelled,
    /// Terminal: the job's slice panicked or its workload could not be
    /// built; the daemon isolated the failure and kept serving.
    Failed,
}

impl JobState {
    /// Stable lowercase tag used on the wire and in the spool.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Waiting => "waiting",
            JobState::Interrupted => "interrupted",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parses a spool-record state tag.
    ///
    /// # Errors
    ///
    /// On an unknown tag.
    pub fn from_tag(tag: &str) -> Result<JobState, String> {
        Ok(match tag {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "waiting" => JobState::Waiting,
            "interrupted" => JobState::Interrupted,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            other => return Err(format!("unknown job state `{other}`")),
        })
    }

    /// Is this a terminal state (no further scheduling)?
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_core::json;

    fn spec() -> JobSpec {
        JobSpec {
            source: Source::Suite("c432a".to_string()),
            model: Model::Dedc,
            k: 1,
            vectors: 64,
            seed: 5,
            max_nodes: Some(10_000),
            deadline_ms: None,
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let s = spec();
        let back = JobSpec::from_json(&json::parse(&s.to_json()).unwrap()).unwrap();
        assert_eq!(back, s);
        let bench = JobSpec {
            source: Source::Bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".to_string()),
            model: Model::StuckAt,
            max_nodes: None,
            deadline_ms: Some(2_000),
            ..spec()
        };
        let back = JobSpec::from_json(&json::parse(&bench.to_json()).unwrap()).unwrap();
        assert_eq!(back, bench);
    }

    #[test]
    fn spec_rejects_bad_fields() {
        for bad in [
            "{\"model\":\"dedc\",\"k\":1,\"vectors\":64,\"seed\":1}",
            "{\"circuit\":\"c432a\",\"netlist\":\"x\",\"model\":\"dedc\",\"k\":1,\"vectors\":64,\"seed\":1}",
            "{\"circuit\":\"c432a\",\"model\":\"nope\",\"k\":1,\"vectors\":64,\"seed\":1}",
            "{\"circuit\":\"c432a\",\"model\":\"dedc\",\"k\":0,\"vectors\":64,\"seed\":1}",
            "{\"circuit\":\"c432a\",\"model\":\"dedc\",\"k\":1,\"vectors\":0,\"seed\":1}",
            "{\"circuit\":\"c432a\",\"model\":\"dedc\",\"k\":1,\"vectors\":64}",
        ] {
            let v = json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn workload_construction_is_deterministic() {
        let s = spec();
        let a = match build_workload(&s).unwrap() {
            BuiltWorkload::Ready(w) => w,
            BuiltWorkload::NoFailingBehaviour => panic!("c432a/k1 must inject"),
        };
        let b = match build_workload(&s).unwrap() {
            BuiltWorkload::Ready(w) => w,
            BuiltWorkload::NoFailingBehaviour => panic!("c432a/k1 must inject"),
        };
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.base.len(), b.base.len());
        // A different seed yields a different corrupted design (with
        // overwhelming probability).
        let mut other = s.clone();
        other.seed = 6;
        assert_ne!(s.intern_key(), other.intern_key());
        if let BuiltWorkload::Ready(c) = build_workload(&other).unwrap() {
            assert_ne!(a.fingerprint, c.fingerprint);
        }
    }

    #[test]
    fn unknown_circuit_is_an_error_not_a_panic() {
        let mut s = spec();
        s.source = Source::Suite("c9999z".to_string());
        assert!(build_workload(&s).is_err());
        s.source = Source::Bench("y = AND(".to_string());
        assert!(build_workload(&s).is_err());
    }

    #[test]
    fn solution_fingerprint_is_order_independent() {
        use incdx_fault::Correction;
        use incdx_netlist::GateId;
        let c1 = Correction::new(GateId(3), CorrectionAction::SetConst(true));
        let c2 = Correction::new(GateId(7), CorrectionAction::InvertInput { port: 1 });
        let a = vec![
            Solution {
                corrections: vec![c1, c2],
            },
            Solution {
                corrections: vec![c2],
            },
        ];
        let b = vec![
            Solution {
                corrections: vec![c2],
            },
            Solution {
                corrections: vec![c2, c1],
            },
        ];
        assert_eq!(solution_fingerprint(&a), solution_fingerprint(&b));
        let c = vec![Solution {
            corrections: vec![c1],
        }];
        assert_ne!(solution_fingerprint(&a), solution_fingerprint(&c));
    }

    #[test]
    fn state_tags_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Waiting,
            JobState::Interrupted,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert_eq!(JobState::from_tag(s.tag()).unwrap(), s);
        }
        assert!(JobState::from_tag("nope").is_err());
        assert!(JobState::Done.terminal());
        assert!(!JobState::Interrupted.terminal());
    }
}

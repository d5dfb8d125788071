//! Versioned JSON checkpoints for interrupted runs.
//!
//! When a supervised [`Rectifier`](crate::Rectifier) run stops on a
//! deadline, budget, or cancellation, the engine serializes the live
//! search state — the decision-tree frontier (every node with its
//! candidate cursor), the visited-tuple set, the solutions accepted so
//! far, and the round plan position — into a [`Checkpoint`].
//! [`Rectifier::resume`](crate::Rectifier::resume) rehydrates that
//! state and continues the search; because every evaluator backend is a
//! pure function of the base circuit and the applied corrections, a
//! resumed run reaches a solution set bit-identical to an uninterrupted
//! one. Dispatched runs (`RectifyConfig::dispatch`) change nothing
//! here: speculative worker results are a stateless cache over the
//! tree and are never captured, so a checkpoint taken mid-dispatch is
//! indistinguishable from a serial one.
//!
//! The format is a single line of JSON written and read through the
//! workspace codec ([`crate::json`]). Candidate scores are `f64`s
//! serialized as their IEEE-754 **bit patterns** (`u64`) so round-trips
//! are exact. The full schema is documented in `EXPERIMENTS.md`.
//!
//! The checkpoint pins the session it belongs to: a structural
//! fingerprint of the base netlist ([`netlist_fingerprint`]), the gate
//! and vector counts, and the schema [`CHECKPOINT_VERSION`]. Resume
//! refuses a checkpoint whose pins disagree with the session.

use std::io::Write as _;
use std::path::Path;

use incdx_fault::{Correction, CorrectionAction};
use incdx_netlist::{GateId, GateKind, Netlist};

use crate::error::IncdxError;
use crate::json::Json;
use crate::json_obj;
use crate::tree::RankedCorrection;

/// Schema version written by [`Checkpoint::to_json`] and required by
/// [`Checkpoint::from_json`]. Version 2 added the hierarchical
/// [`Checkpoint::phase`] field; version-1 documents are no longer
/// accepted (they cannot say which phase to resume into).
pub const CHECKPOINT_VERSION: u32 = 2;

/// One serialized decision-tree node: the tuple it represents, its
/// surviving candidate list, the expansion cursor, and the failing
/// count observed at evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointNode {
    /// Corrections on the path from the root, in application order.
    pub corrections: Vec<Correction>,
    /// Screened candidates, best rank first.
    pub candidates: Vec<RankedCorrection>,
    /// Index of the next untried candidate.
    pub next: usize,
    /// Failing vectors when the node was evaluated.
    pub failing: usize,
}

/// A serializable snapshot of an interrupted search (see the module
/// docs). Produced by the engine on deadline/budget/cancel stops;
/// consumed by [`Rectifier::resume`](crate::Rectifier::resume).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Harness-assigned run label (e.g. `table2/c432a/k3/t0`); empty
    /// when the engine captured the checkpoint outside a bench run.
    pub label: String,
    /// Harness-assigned trial seed, so a driver can regenerate the
    /// injected faults and vectors; 0 when not applicable.
    pub trial_seed: u64,
    /// Vector count of the run (pin: resume requires a matching set).
    pub vectors: usize,
    /// Gate count of the base netlist (pin).
    pub base_gates: usize,
    /// Structural fingerprint of the base netlist (pin; see
    /// [`netlist_fingerprint`]).
    pub base_hash: u64,
    /// Parameter-ladder level the search was on.
    pub level: usize,
    /// Hierarchical phase the interrupted search was in: 0 = flat (the
    /// only value non-hierarchical runs write), 1 = abstract diagnosis,
    /// 2 = concrete diagnosis restricted to the implicated regions,
    /// 3 = the final unrestricted concrete pass. Resume routes a
    /// nonzero phase back into the hierarchical orchestrator.
    pub phase: u32,
    /// Traversal iterations consumed at this level.
    pub iterations: usize,
    /// The round plan being drained when the run stopped (node
    /// indices).
    pub plan: Vec<usize>,
    /// Position of the first *unprocessed* plan entry.
    pub plan_pos: usize,
    /// The decision tree, in creation order (index = node id).
    pub nodes: Vec<CheckpointNode>,
    /// Canonical (sorted) correction tuples already evaluated.
    pub visited: Vec<Vec<Correction>>,
    /// Solutions accepted before the stop, in discovery order.
    pub solutions: Vec<Vec<Correction>>,
}

impl Checkpoint {
    /// Renders the checkpoint as a single line of JSON.
    pub fn to_json(&self) -> String {
        json_obj! {
            "checkpoint": "incdx", "version": self.version, "label": &self.label,
            "trial_seed": self.trial_seed, "vectors": self.vectors,
            "base": json_obj! { "gates": self.base_gates, "hash": self.base_hash },
            "search": json_obj! {
                "level": self.level, "phase": self.phase, "iterations": self.iterations,
                "plan": Json::arr(self.plan.iter().copied()), "plan_pos": self.plan_pos,
            },
            "nodes": Json::arr(self.nodes.iter().map(node_json)),
            "visited": tuples_json(&self.visited),
            "solutions": tuples_json(&self.solutions),
        }
        .to_string()
    }

    /// Parses a checkpoint produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`IncdxError::Checkpoint`] on malformed JSON, an unknown schema
    /// version, or any field outside its domain.
    pub fn from_json(text: &str) -> Result<Checkpoint, IncdxError> {
        parse_checkpoint(text).map_err(|reason| IncdxError::Checkpoint { reason })
    }
}

/// Atomically persists a checkpoint to `path` with
/// [`atomic_write_line`], so a crash mid-write can never leave a
/// truncated document under the final name — readers observe either
/// the previous complete checkpoint or the new one.
///
/// # Errors
///
/// [`IncdxError::CheckpointIo`] if any filesystem step fails.
pub fn save_checkpoint_file(path: &Path, ckpt: &Checkpoint) -> Result<(), IncdxError> {
    atomic_write_line(path, &ckpt.to_json()).map_err(|e| IncdxError::CheckpointIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Durably replaces `path` with `line` plus a newline: the text goes to
/// a sibling `.tmp` file, which is synced and renamed over `path`, and
/// then the parent directory is synced so the rename itself survives a
/// power loss. A crash at any point leaves either the old file or the
/// new one under `path`, never a torn mix.
///
/// # Errors
///
/// The first filesystem step that fails.
pub fn atomic_write_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Loads a checkpoint previously written by [`save_checkpoint_file`]
/// (or any single-line [`Checkpoint::to_json`] document).
///
/// # Errors
///
/// [`IncdxError::CheckpointIo`] if the file cannot be read, and
/// [`IncdxError::Checkpoint`] if its contents are truncated, garbage,
/// or fail the schema's domain checks — a torn spool file surfaces
/// here as a typed error, never a panic.
pub fn load_checkpoint_file(path: &Path) -> Result<Checkpoint, IncdxError> {
    let text = std::fs::read_to_string(path).map_err(|e| IncdxError::CheckpointIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    Checkpoint::from_json(text.trim_end_matches(['\n', '\r']))
}

/// FNV-1a structural fingerprint of a netlist: gate kinds, fanin
/// wiring, and the primary-output list. Renaming wires does not change
/// the fingerprint; any structural edit does (modulo hash collisions,
/// which resume additionally guards against with the gate count).
pub fn netlist_fingerprint(netlist: &Netlist) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for i in 0..netlist.len() {
        let gate = netlist.gate(GateId::from_index(i));
        mix(gate.kind().token().as_bytes());
        for fi in gate.fanins() {
            mix(&(fi.index() as u64).to_le_bytes());
        }
        mix(&[0xff]);
    }
    mix(&[0xfe]);
    for o in netlist.outputs() {
        mix(&(o.index() as u64).to_le_bytes());
    }
    h
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn node_json(n: &CheckpointNode) -> Json {
    json_obj! {
        "next": n.next, "failing": n.failing,
        "corrections": corrections_json(&n.corrections),
        "candidates": Json::arr(n.candidates.iter().map(ranked_json)),
    }
}

fn tuples_json(tuples: &[Vec<Correction>]) -> Json {
    Json::arr(tuples.iter().map(|t| corrections_json(t)))
}

fn corrections_json(cs: &[Correction]) -> Json {
    Json::arr(cs.iter().map(correction_json))
}

fn correction_json(c: &Correction) -> Json {
    let line = c.line().index();
    match c.action() {
        CorrectionAction::SetConst(v) => json_obj! { "line": line, "t": "set-const", "v": v },
        CorrectionAction::ChangeKind(kind) => {
            json_obj! { "line": line, "t": "change-kind", "k": kind.token() }
        }
        CorrectionAction::InvertInput { port } => {
            json_obj! { "line": line, "t": "invert-input", "p": port }
        }
        CorrectionAction::RemoveInput { port } => {
            json_obj! { "line": line, "t": "remove-input", "p": port }
        }
        CorrectionAction::AddInput { source } => {
            json_obj! { "line": line, "t": "add-input", "s": source.index() }
        }
        CorrectionAction::ReplaceInput { port, source } => {
            json_obj! { "line": line, "t": "replace-input", "p": port, "s": source.index() }
        }
        CorrectionAction::WireThrough { port } => {
            json_obj! { "line": line, "t": "wire-through", "p": port }
        }
        CorrectionAction::InsertGate { kind, other } => {
            json_obj! { "line": line, "t": "insert-gate", "k": kind.token(), "s": other.index() }
        }
    }
}

fn ranked_json(rc: &RankedCorrection) -> Json {
    // Scores as IEEE-754 bit patterns for an exact round-trip.
    json_obj! {
        "c": correction_json(&rc.correction), "rank": rc.rank.to_bits(),
        "h1": rc.h1_score.to_bits(), "h2": rc.h2_fraction.to_bits(), "h3": rc.h3_score.to_bits(),
    }
}

// ---------------------------------------------------------------------
// Parsing: built on the workspace's shared minimal JSON reader
// (`crate::json`). Result-based throughout — the engine crate never
// panics on malformed input.
// ---------------------------------------------------------------------

fn parse_checkpoint(text: &str) -> Result<Checkpoint, String> {
    let root = crate::json::parse(text)?;
    if root.get("checkpoint")?.as_str()? != "incdx" {
        return Err("not an incdx checkpoint".to_string());
    }
    let version = u32::try_from(root.get("version")?.as_u64()?)
        .map_err(|_| "version out of range".to_string())?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        ));
    }
    let base = root.get("base")?;
    let search = root.get("search")?;
    let plan = search
        .get("plan")?
        .as_arr()?
        .iter()
        .map(Json::as_usize)
        .collect::<Result<Vec<usize>, String>>()?;
    let nodes = root
        .get("nodes")?
        .as_arr()?
        .iter()
        .map(parse_node)
        .collect::<Result<Vec<CheckpointNode>, String>>()?;
    let visited = parse_tuple_list(root.get("visited")?)?;
    let solutions = parse_tuple_list(root.get("solutions")?)?;
    let ckpt = Checkpoint {
        version,
        label: root.get("label")?.as_str()?.to_string(),
        trial_seed: root.get("trial_seed")?.as_u64()?,
        vectors: root.get("vectors")?.as_usize()?,
        base_gates: base.get("gates")?.as_usize()?,
        base_hash: base.get("hash")?.as_u64()?,
        level: search.get("level")?.as_usize()?,
        phase: u32::try_from(search.get("phase")?.as_u64()?)
            .map_err(|_| "phase out of range".to_string())?,
        iterations: search.get("iterations")?.as_usize()?,
        plan,
        plan_pos: search.get("plan_pos")?.as_usize()?,
        nodes,
        visited,
        solutions,
    };
    if ckpt.phase > 3 {
        return Err(format!("unknown hierarchical phase {}", ckpt.phase));
    }
    if ckpt.plan_pos > ckpt.plan.len() {
        return Err("plan_pos past the end of the plan".to_string());
    }
    if let Some(&bad) = ckpt.plan.iter().find(|&&idx| idx >= ckpt.nodes.len()) {
        return Err(format!("plan references missing node {bad}"));
    }
    for n in &ckpt.nodes {
        if n.next > n.candidates.len() {
            return Err("node cursor past its candidate list".to_string());
        }
    }
    Ok(ckpt)
}

fn parse_tuple_list(v: &Json) -> Result<Vec<Vec<Correction>>, String> {
    v.as_arr()?
        .iter()
        .map(|tuple| tuple.as_arr()?.iter().map(parse_correction).collect())
        .collect()
}

fn parse_node(v: &Json) -> Result<CheckpointNode, String> {
    Ok(CheckpointNode {
        corrections: v
            .get("corrections")?
            .as_arr()?
            .iter()
            .map(parse_correction)
            .collect::<Result<Vec<Correction>, String>>()?,
        candidates: v
            .get("candidates")?
            .as_arr()?
            .iter()
            .map(parse_ranked)
            .collect::<Result<Vec<RankedCorrection>, String>>()?,
        next: v.get("next")?.as_usize()?,
        failing: v.get("failing")?.as_usize()?,
    })
}

fn parse_gate_id(v: &Json) -> Result<GateId, String> {
    let idx = v.as_u64()?;
    if idx > u64::from(u32::MAX) {
        return Err(format!("gate id {idx} out of range"));
    }
    Ok(GateId::from_index(idx as usize))
}

fn parse_gate_kind(v: &Json) -> Result<GateKind, String> {
    let token = v.as_str()?;
    GateKind::from_token(token).ok_or_else(|| format!("unknown gate kind `{token}`"))
}

fn parse_correction(v: &Json) -> Result<Correction, String> {
    let line = parse_gate_id(v.get("line")?)?;
    let action = match v.get("t")?.as_str()? {
        "set-const" => CorrectionAction::SetConst(v.get("v")?.as_bool()?),
        "change-kind" => CorrectionAction::ChangeKind(parse_gate_kind(v.get("k")?)?),
        "invert-input" => CorrectionAction::InvertInput {
            port: v.get("p")?.as_usize()?,
        },
        "remove-input" => CorrectionAction::RemoveInput {
            port: v.get("p")?.as_usize()?,
        },
        "add-input" => CorrectionAction::AddInput {
            source: parse_gate_id(v.get("s")?)?,
        },
        "replace-input" => CorrectionAction::ReplaceInput {
            port: v.get("p")?.as_usize()?,
            source: parse_gate_id(v.get("s")?)?,
        },
        "wire-through" => CorrectionAction::WireThrough {
            port: v.get("p")?.as_usize()?,
        },
        "insert-gate" => CorrectionAction::InsertGate {
            kind: parse_gate_kind(v.get("k")?)?,
            other: parse_gate_id(v.get("s")?)?,
        },
        other => return Err(format!("unknown correction tag `{other}`")),
    };
    Ok(Correction::new(line, action))
}

fn parse_ranked(v: &Json) -> Result<RankedCorrection, String> {
    Ok(RankedCorrection {
        correction: parse_correction(v.get("c")?)?,
        rank: f64::from_bits(v.get("rank")?.as_u64()?),
        h1_score: f64::from_bits(v.get("h1")?.as_u64()?),
        h2_fraction: f64::from_bits(v.get("h2")?.as_u64()?),
        h3_score: f64::from_bits(v.get("h3")?.as_u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::parse_bench;

    fn sample() -> Checkpoint {
        let c1 = Correction::new(GateId(3), CorrectionAction::SetConst(true));
        let c2 = Correction::new(
            GateId(7),
            CorrectionAction::InsertGate {
                kind: GateKind::Nand,
                other: GateId(1),
            },
        );
        let c3 = Correction::new(
            GateId(2),
            CorrectionAction::ReplaceInput {
                port: 1,
                source: GateId(0),
            },
        );
        let rc = |c: Correction, rank: f64| RankedCorrection {
            correction: c,
            rank,
            h1_score: 0.31, // deliberately not exactly representable sums
            h2_fraction: 2.0 / 3.0,
            h3_score: 0.1 + 0.2,
        };
        Checkpoint {
            version: CHECKPOINT_VERSION,
            label: "table2/c432a/k3/t0".to_string(),
            trial_seed: 0xdead_beef,
            vectors: 1024,
            base_gates: 196,
            base_hash: 0x1234_5678_9abc_def0,
            level: 2,
            phase: 2,
            iterations: 5,
            plan: vec![0, 1],
            plan_pos: 1,
            nodes: vec![
                CheckpointNode {
                    corrections: vec![],
                    candidates: vec![rc(c1, 0.9), rc(c2, 0.5)],
                    next: 1,
                    failing: 12,
                },
                CheckpointNode {
                    corrections: vec![c1],
                    candidates: vec![rc(c3, f64::NAN)],
                    next: 0,
                    failing: 4,
                },
            ],
            visited: vec![vec![], vec![c1]],
            solutions: vec![vec![c1, c2]],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let ckpt = sample();
        let json = ckpt.to_json();
        assert!(!json.contains('\n'));
        let back = Checkpoint::from_json(&json).unwrap();
        // NaN != NaN, so compare everything else structurally and the
        // scores by bit pattern.
        assert_eq!(back.label, ckpt.label);
        assert_eq!(back.trial_seed, ckpt.trial_seed);
        assert_eq!(back.vectors, ckpt.vectors);
        assert_eq!(back.base_gates, ckpt.base_gates);
        assert_eq!(back.base_hash, ckpt.base_hash);
        assert_eq!(back.level, ckpt.level);
        assert_eq!(back.phase, ckpt.phase);
        assert_eq!(back.plan, ckpt.plan);
        assert_eq!(back.plan_pos, ckpt.plan_pos);
        assert_eq!(back.visited, ckpt.visited);
        assert_eq!(back.solutions, ckpt.solutions);
        assert_eq!(back.nodes.len(), ckpt.nodes.len());
        for (a, b) in back.nodes.iter().zip(&ckpt.nodes) {
            assert_eq!(a.corrections, b.corrections);
            assert_eq!(a.next, b.next);
            assert_eq!(a.failing, b.failing);
            for (x, y) in a.candidates.iter().zip(&b.candidates) {
                assert_eq!(x.correction, y.correction);
                assert_eq!(x.rank.to_bits(), y.rank.to_bits(), "bit-exact scores");
                assert_eq!(x.h1_score.to_bits(), y.h1_score.to_bits());
                assert_eq!(x.h2_fraction.to_bits(), y.h2_fraction.to_bits());
                assert_eq!(x.h3_score.to_bits(), y.h3_score.to_bits());
            }
        }
    }

    #[test]
    fn every_correction_action_round_trips() {
        let actions = [
            CorrectionAction::SetConst(false),
            CorrectionAction::ChangeKind(GateKind::Xnor),
            CorrectionAction::InvertInput { port: 2 },
            CorrectionAction::RemoveInput { port: 0 },
            CorrectionAction::AddInput { source: GateId(9) },
            CorrectionAction::ReplaceInput {
                port: 1,
                source: GateId(4),
            },
            CorrectionAction::WireThrough { port: 1 },
            CorrectionAction::InsertGate {
                kind: GateKind::Xor,
                other: GateId(5),
            },
        ];
        for action in actions {
            let c = Correction::new(GateId(11), action);
            let s = correction_json(&c).to_string();
            let parsed = crate::json::parse(&s).unwrap();
            assert_eq!(parse_correction(&parsed).unwrap(), c, "{s}");
        }
    }

    #[test]
    fn rejects_malformed_and_mismatched_inputs() {
        assert!(Checkpoint::from_json("not json").is_err());
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("{\"checkpoint\":\"other\"}").is_err());
        // Unknown version.
        let mut ckpt = sample();
        ckpt.version = 99;
        let json = ckpt.to_json();
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        // Truncated document.
        let json = sample().to_json();
        assert!(Checkpoint::from_json(&json[..json.len() - 2]).is_err());
        // Out-of-bounds plan reference.
        let mut ckpt = sample();
        ckpt.plan = vec![7];
        assert!(Checkpoint::from_json(&ckpt.to_json()).is_err());
        // Cursor past the candidate list.
        let mut ckpt = sample();
        ckpt.nodes[0].next = 5;
        assert!(Checkpoint::from_json(&ckpt.to_json()).is_err());
        // Unknown hierarchical phase.
        let mut ckpt = sample();
        ckpt.phase = 4;
        assert!(Checkpoint::from_json(&ckpt.to_json()).is_err());
        // A float score is rejected: scores travel as bit patterns.
        let json = sample()
            .to_json()
            .replacen("\"rank\":", "\"rank\":0.5,\"x\":", 1);
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
    }

    #[test]
    fn file_roundtrip_is_atomic_and_typed() {
        let dir = std::env::temp_dir().join(format!(
            "incdx-ckpt-test-{}-{:x}",
            std::process::id(),
            netlist_fingerprint(&parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap())
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = sample();
        save_checkpoint_file(&path, &ckpt).unwrap();
        // The temp file must not survive a successful save.
        assert!(!dir.join("run.ckpt.tmp").exists());
        let back = load_checkpoint_file(&path).unwrap();
        assert_eq!(back.label, ckpt.label);
        assert_eq!(back.base_hash, ckpt.base_hash);

        // A truncated document is a typed checkpoint error.
        let full = std::fs::read_to_string(&path).unwrap();
        let torn = dir.join("torn.ckpt");
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        match load_checkpoint_file(&torn) {
            Err(IncdxError::Checkpoint { .. }) => {}
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        // Garbage bytes likewise.
        std::fs::write(&torn, "}}{{ not json").unwrap();
        assert!(matches!(
            load_checkpoint_file(&torn),
            Err(IncdxError::Checkpoint { .. })
        ));
        // A missing file is an I/O error carrying the path.
        match load_checkpoint_file(&dir.join("absent.ckpt")) {
            Err(IncdxError::CheckpointIo { path, .. }) => {
                assert!(path.contains("absent.ckpt"), "{path}");
            }
            other => panic!("expected CheckpointIo error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_line_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("incdx-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        atomic_write_line(&path, "first").unwrap();
        atomic_write_line(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!dir.join("record.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn label_escaping_survives() {
        let mut ckpt = sample();
        ckpt.label = "odd \"label\"\\with\nescapes".to_string();
        let back = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back.label, ckpt.label);
    }

    #[test]
    fn fingerprint_tracks_structure_not_names() {
        let a = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let renamed = parse_bench("INPUT(p)\nINPUT(q)\nOUTPUT(z)\nz = AND(p, q)\n").unwrap();
        let edited = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n").unwrap();
        assert_eq!(netlist_fingerprint(&a), netlist_fingerprint(&renamed));
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&edited));
    }
}

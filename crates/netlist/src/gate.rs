use std::fmt;
use std::sync::Arc;

/// Identifier of a gate and, equivalently, of the *line* (net) it drives.
///
/// The paper's "lines" are the suspect locations of diagnosis; in this
/// workspace a line is identified with the gate (or primary input) driving
/// it. Ids are dense indices into [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from an index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("gate index exceeds u32::MAX"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The gate alphabet of the paper (§2) plus the support kinds needed by the
/// substrates (constants for the optimizer, DFFs for full-scan circuits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Constant logic 0 (no fanins).
    Const0,
    /// Constant logic 1 (no fanins).
    Const1,
    /// Non-inverting buffer (one fanin).
    Buf,
    /// Inverter (one fanin).
    Not,
    /// AND of one or more fanins.
    And,
    /// NAND of one or more fanins.
    Nand,
    /// OR of one or more fanins.
    Or,
    /// NOR of one or more fanins.
    Nor,
    /// XOR of two or more fanins (odd parity).
    Xor,
    /// XNOR of two or more fanins (even parity).
    Xnor,
    /// D flip-flop (one fanin); only meaningful before full-scan conversion.
    Dff,
}

impl GateKind {
    /// All kinds a *combinational logic* gate can take, i.e. the candidate
    /// set for the "gate type replacement" design error.
    pub const LOGIC_KINDS: [GateKind; 6] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Returns the valid fanin-count range `(min, max)` for this kind.
    /// `max == usize::MAX` means unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, 1),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => (1, usize::MAX),
            GateKind::Xor | GateKind::Xnor => (2, usize::MAX),
        }
    }

    /// Is this a combinational logic gate (excludes inputs, constants, DFFs)?
    pub fn is_logic(self) -> bool {
        !matches!(
            self,
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff
        )
    }

    /// The *controlling value* of a fanin of this gate, per §2 of the paper:
    /// 0 for AND/NAND, 1 for OR/NOR; inverters and buffers are always
    /// controlled (`Some` of an arbitrary marker is wrong there, so they are
    /// reported as `None` and handled explicitly by path-trace).
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Does the gate invert the value of the controlled/identity function
    /// (NAND, NOR, NOT, XNOR)?
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// The kind computing the complement function with the same fanins, if
    /// it exists in the alphabet (AND↔NAND, OR↔NOR, BUF↔NOT, XOR↔XNOR).
    pub fn complement(self) -> Option<GateKind> {
        Some(match self {
            GateKind::And => GateKind::Nand,
            GateKind::Nand => GateKind::And,
            GateKind::Or => GateKind::Nor,
            GateKind::Nor => GateKind::Or,
            GateKind::Buf => GateKind::Not,
            GateKind::Not => GateKind::Buf,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Const0 => GateKind::Const1,
            GateKind::Const1 => GateKind::Const0,
            _ => return None,
        })
    }

    /// Evaluates the gate over boolean fanin values.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the fanin count violates [`Self::arity`],
    /// or if called on [`GateKind::Input`] / [`GateKind::Dff`], which have no
    /// combinational function.
    pub fn eval(self, fanins: &[bool]) -> bool {
        debug_assert!(
            fanins.len() >= self.arity().0 && fanins.len() <= self.arity().1,
            "bad fanin count {} for {:?}",
            fanins.len(),
            self
        );
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => fanins[0],
            GateKind::Not => !fanins[0],
            GateKind::And => fanins.iter().all(|&v| v),
            GateKind::Nand => !fanins.iter().all(|&v| v),
            GateKind::Or => fanins.iter().any(|&v| v),
            GateKind::Nor => !fanins.iter().any(|&v| v),
            GateKind::Xor => fanins.iter().fold(false, |a, &v| a ^ v),
            GateKind::Xnor => !fanins.iter().fold(false, |a, &v| a ^ v),
            GateKind::Input | GateKind::Dff => {
                panic!("{self:?} has no combinational function")
            }
        }
    }

    /// The canonical lowercase token used by the `.bench` format.
    pub fn token(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Dff => "DFF",
        }
    }

    /// Parses a canonical [`GateKind::token`] back to its kind
    /// (case-insensitive). The inverse of [`GateKind::token`]; used by
    /// checkpoint deserialization.
    pub fn from_token(token: &str) -> Option<GateKind> {
        let t = token.to_ascii_uppercase();
        Some(match t.as_str() {
            "INPUT" => GateKind::Input,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            "BUF" => GateKind::Buf,
            "NOT" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "DFF" => GateKind::Dff,
            _ => return None,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One gate of a [`crate::Netlist`]: a kind plus the ids of its fanin lines.
///
/// The fanin list is shared, never edited in place: cloning a gate (and so
/// a netlist) bumps a reference count instead of copying the list, and an
/// edit swaps in a new list for the one gate it rewrites.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Gate {
    kind: GateKind,
    fanins: Arc<[GateId]>,
}

impl Gate {
    /// Creates a gate. Arity is validated by [`crate::NetlistBuilder::build`],
    /// not here, so intermediate states are representable.
    pub fn new(kind: GateKind, fanins: Vec<GateId>) -> Self {
        Gate {
            kind,
            fanins: fanins.into(),
        }
    }

    /// The gate's kind.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's fanin line ids, in port order.
    #[inline]
    pub fn fanins(&self) -> &[GateId] {
        &self.fanins
    }

    pub(crate) fn set_kind(&mut self, kind: GateKind) {
        self.kind = kind;
    }

    pub(crate) fn set_fanins(&mut self, fanins: Vec<GateId>) {
        self.fanins = fanins.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_truth_tables() {
        use GateKind::*;
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(And.eval(&[a, b]), a & b);
            assert_eq!(Nand.eval(&[a, b]), !(a & b));
            assert_eq!(Or.eval(&[a, b]), a | b);
            assert_eq!(Nor.eval(&[a, b]), !(a | b));
            assert_eq!(Xor.eval(&[a, b]), a ^ b);
            assert_eq!(Xnor.eval(&[a, b]), !(a ^ b));
        }
        assert!(!Not.eval(&[true]));
        assert!(Buf.eval(&[true]));
        assert!(!Const0.eval(&[]));
        assert!(Const1.eval(&[]));
    }

    #[test]
    fn eval_three_input_parity() {
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true, false]));
        assert!(!GateKind::Xnor.eval(&[true, false, false]));
    }

    #[test]
    fn complement_is_involutive() {
        for kind in GateKind::LOGIC_KINDS {
            let c = kind.complement().expect("logic kinds have complements");
            assert_eq!(c.complement(), Some(kind));
            // Complement semantics: same inputs, inverted output.
            assert_eq!(c.eval(&[true, false]), !kind.eval(&[true, false]));
        }
        assert_eq!(GateKind::Input.complement(), None);
        assert_eq!(GateKind::Dff.complement(), None);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
    }

    #[test]
    fn gate_id_display_and_index_roundtrip() {
        let id = GateId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    #[should_panic(expected = "no combinational function")]
    fn eval_input_panics() {
        GateKind::Input.eval(&[]);
    }

    #[test]
    fn token_round_trips_through_from_token() {
        let all = [
            GateKind::Input,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Dff,
        ];
        for kind in all {
            assert_eq!(GateKind::from_token(kind.token()), Some(kind));
            assert_eq!(
                GateKind::from_token(&kind.token().to_ascii_lowercase()),
                Some(kind)
            );
        }
        assert_eq!(GateKind::from_token("MUX"), None);
    }
}

use std::fmt;

use incdx_netlist::{GateId, Netlist, NetlistError};

/// A single stuck-at fault on a line (the paper's fault model for
/// diagnosis: "either a stuck-at-0 or a stuck-at-1 fault model is used").
///
/// Lines are gate outputs (stems); see DESIGN.md for the branch-vs-stem
/// modelling note.
///
/// # Example
///
/// ```
/// use incdx_fault::StuckAt;
/// use incdx_netlist::GateId;
///
/// let f = StuckAt::new(GateId(7), true);
/// assert_eq!(f.to_string(), "n7 stuck-at-1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StuckAt {
    line: GateId,
    value: bool,
}

impl StuckAt {
    /// A fault forcing `line` to `value`.
    pub fn new(line: GateId, value: bool) -> Self {
        StuckAt { line, value }
    }

    /// The faulty line.
    pub fn line(&self) -> GateId {
        self.line
    }

    /// The stuck value.
    pub fn value(&self) -> bool {
        self.value
    }

    /// The opposite-polarity fault on the same line.
    pub fn complement(&self) -> StuckAt {
        StuckAt::new(self.line, !self.value)
    }

    /// Applies the fault to a netlist by tying the driving gate to a
    /// constant in place ([`Netlist::tie`]). The line keeps its id and
    /// downstream readers are untouched; the netlist keeps its
    /// topological order, and only the line's fanout cone is re-levelled.
    ///
    /// # Errors
    ///
    /// Returns an error if the line id is out of range.
    pub fn apply(&self, netlist: &mut Netlist) -> Result<(), NetlistError> {
        netlist.tie(self.line, self.value).map(drop)
    }
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stuck-at-{}", self.line, self.value as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdx_netlist::{parse_bench, GateKind};

    #[test]
    fn apply_rewrites_to_constant() {
        let mut n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let y = n.find_by_name("y").unwrap();
        StuckAt::new(y, true).apply(&mut n).unwrap();
        assert_eq!(n.gate(y).kind(), GateKind::Const1);
        assert!(n.gate(y).fanins().is_empty());
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn apply_out_of_range_errors() {
        let mut n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        assert!(StuckAt::new(GateId(99), false).apply(&mut n).is_err());
    }

    #[test]
    fn ordering_is_line_major() {
        let mut faults = vec![
            StuckAt::new(GateId(3), true),
            StuckAt::new(GateId(1), true),
            StuckAt::new(GateId(1), false),
        ];
        faults.sort();
        assert_eq!(
            faults,
            vec![
                StuckAt::new(GateId(1), false),
                StuckAt::new(GateId(1), true),
                StuckAt::new(GateId(3), true),
            ]
        );
    }

    #[test]
    fn complement_flips_polarity() {
        let f = StuckAt::new(GateId(2), false);
        assert_eq!(f.complement(), StuckAt::new(GateId(2), true));
        assert_eq!(f.complement().complement(), f);
    }
}

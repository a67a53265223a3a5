//! Coding modes and representative-tuple policies.

use core::fmt;

/// How the tuples of a block are coded.
///
/// The paper's §5.2 measures "each of the three techniques"; these are the
/// three points on that spectrum that the text defines:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodingMode {
    /// No differencing: tuples stored at fixed per-attribute byte widths.
    /// This is the bare §3.1 domain mapping and serves as the in-paper
    /// baseline (it is also the layout of uncoded heap files).
    FieldWise,
    /// Basic AVQ (Definition 2.1 / Fig. 3.3 (b)): each tuple is replaced by
    /// its φ-difference from the block's representative tuple.
    Avq,
    /// AVQ with the Example 3.3 optimization (Fig. 3.3 (c)): tuples before
    /// the representative store `succ − self`, tuples after store
    /// `self − pred`, so every stored difference is an adjacent gap. This is
    /// the headline technique whose stream §3.4 prints.
    #[default]
    AvqChained,
    /// Chained AVQ with *bit*-aligned entries (a DESIGN.md extension): each
    /// difference is stored as `gamma(bitlen + 1) ‖ bitlen` raw bits of its
    /// φ-distance, removing the byte-alignment slack of §3.4's run-length
    /// code at the price of slower, bignum-touching decode.
    AvqChainedBits,
}

impl CodingMode {
    /// All modes, for sweeps and ablations.
    pub const ALL: [CodingMode; 4] = [
        CodingMode::FieldWise,
        CodingMode::Avq,
        CodingMode::AvqChained,
        CodingMode::AvqChainedBits,
    ];

    /// Stable identifier used in headers and experiment output.
    pub fn tag(self) -> u8 {
        match self {
            CodingMode::FieldWise => 0,
            CodingMode::Avq => 1,
            CodingMode::AvqChained => 2,
            CodingMode::AvqChainedBits => 3,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CodingMode::FieldWise),
            1 => Some(CodingMode::Avq),
            2 => Some(CodingMode::AvqChained),
            3 => Some(CodingMode::AvqChainedBits),
            _ => None,
        }
    }

    /// True when every block this mode decodes without error is φ-sorted,
    /// so a reader need not walk its rows to check the order.
    ///
    /// The chained modes store each tuple as a non-negative φ-difference
    /// from its neighbour nearer the representative, and decode rejects a
    /// difference digit outside its radix and a carry (borrow) out of the
    /// leading digit. Each decoded row is therefore its neighbour plus
    /// (after the representative) or minus (before it) a distance that did
    /// not leave the space: the rows ascend by construction, the prefix-sum
    /// argument of difference sequences. Basic AVQ codes every tuple
    /// against the representative, and field-wise stores tuples verbatim,
    /// so a damaged block of either can decode out of order.
    pub fn orders_by_construction(self) -> bool {
        matches!(self, CodingMode::AvqChained | CodingMode::AvqChainedBits)
    }
}

impl fmt::Display for CodingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingMode::FieldWise => write!(f, "field-wise"),
            CodingMode::Avq => write!(f, "AVQ"),
            CodingMode::AvqChained => write!(f, "AVQ-chained"),
            CodingMode::AvqChainedBits => write!(f, "AVQ-chained-bits"),
        }
    }
}

/// Which tuple of a sorted run becomes the block's representative.
///
/// §3.4 argues the *median* minimizes total distortion
/// `Σ|φ(tᵢ) − φ(t̂)|`; the other choices exist for the ablation that tests
/// that claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RepChoice {
    /// The middle tuple (index `⌊u/2⌋`) — the paper's choice.
    #[default]
    Median,
    /// The φ-smallest tuple of the block.
    First,
    /// The φ-largest tuple of the block.
    Last,
}

impl RepChoice {
    /// All policies, for ablations.
    pub const ALL: [RepChoice; 3] = [RepChoice::Median, RepChoice::First, RepChoice::Last];

    /// Index of the representative within a sorted run of length `len`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn index(self, len: usize) -> usize {
        assert!(len > 0, "empty run has no representative");
        match self {
            RepChoice::Median => len / 2,
            RepChoice::First => 0,
            RepChoice::Last => len - 1,
        }
    }
}

impl fmt::Display for RepChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepChoice::Median => write!(f, "median"),
            RepChoice::First => write!(f, "first"),
            RepChoice::Last => write!(f, "last"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for m in CodingMode::ALL {
            assert_eq!(CodingMode::from_tag(m.tag()), Some(m));
        }
        assert_eq!(CodingMode::from_tag(9), None);
    }

    #[test]
    fn only_chained_modes_order_by_construction() {
        let ordered: Vec<CodingMode> = CodingMode::ALL
            .into_iter()
            .filter(|m| m.orders_by_construction())
            .collect();
        assert_eq!(
            ordered,
            [CodingMode::AvqChained, CodingMode::AvqChainedBits]
        );
    }

    #[test]
    fn rep_index() {
        assert_eq!(RepChoice::Median.index(5), 2);
        assert_eq!(RepChoice::Median.index(4), 2);
        assert_eq!(RepChoice::Median.index(1), 0);
        assert_eq!(RepChoice::First.index(5), 0);
        assert_eq!(RepChoice::Last.index(5), 4);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn rep_index_empty_panics() {
        RepChoice::Median.index(0);
    }

    #[test]
    fn default_is_paper_configuration() {
        assert_eq!(CodingMode::default(), CodingMode::AvqChained);
        assert_eq!(RepChoice::default(), RepChoice::Median);
    }
}

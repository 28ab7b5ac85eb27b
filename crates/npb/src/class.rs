//! NPB problem classes.
//!
//! Classes grow roughly 4× in work per step: S (sample) and W
//! (workstation) for testing, A/B/C for benchmarking, D for capability
//! runs. (The multi-zone E/F classes the paper introduces live in
//! `columbia-npbmz`.)

/// An NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NpbClass {
    /// Sample size — seconds on one CPU; used by the test suite's real
    /// runs.
    S,
    /// Workstation size.
    W,
    /// Class A.
    A,
    /// Class B — the size Fig. 6 and Fig. 8 report.
    B,
    /// Class C.
    C,
    /// Class D.
    D,
}

impl NpbClass {
    /// All classes, smallest first.
    pub const ALL: [NpbClass; 6] = [
        NpbClass::S,
        NpbClass::W,
        NpbClass::A,
        NpbClass::B,
        NpbClass::C,
        NpbClass::D,
    ];

    /// One-letter name.
    pub fn name(self) -> &'static str {
        match self {
            NpbClass::S => "S",
            NpbClass::W => "W",
            NpbClass::A => "A",
            NpbClass::B => "B",
            NpbClass::C => "C",
            NpbClass::D => "D",
        }
    }
}

impl std::fmt::Display for NpbClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_smallest_first() {
        assert!(NpbClass::S < NpbClass::A);
        assert!(NpbClass::B < NpbClass::D);
    }

    #[test]
    fn names() {
        assert_eq!(NpbClass::B.to_string(), "B");
        assert_eq!(NpbClass::ALL.len(), 6);
    }
}

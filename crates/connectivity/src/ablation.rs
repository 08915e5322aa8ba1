//! Feature ablations: the one list of run-time features a case can switch
//! off.
//!
//! Every feature is on by default. A case carries an [`Ablations`] set
//! naming the features it disables; each is a one-code-path ablation whose
//! guarantee (what stays bit-identical, what is allowed to move) is the
//! variant's doc line. Adding an ablation is adding a variant here: the
//! config bit and the `repro` flag both derive from this list.

use overset_solver::{select_isa, Isa};

macro_rules! ablations {
    ($($(#[doc = $doc:literal])+ $variant:ident = $flag:expr;)+) => {
        /// A run-time feature that can be switched off.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Ablation {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Ablation {
            /// Every ablation, in declaration order.
            pub const ALL: &'static [Ablation] = &[$(Ablation::$variant,)+];

            /// The `repro` flag that disables the feature. `None`: the
            /// feature is switched off through the config only.
            pub fn flag(self) -> Option<&'static str> {
                match self {
                    $(Ablation::$variant => $flag,)+
                }
            }
        }
    };
}

ablations! {
    /// The nth-level-restart donor cache (Barszcz): each fringe point's
    /// search starts at last step's donor. Disabled, every step searches
    /// from scratch (`repro ablate-restart`): more walk steps, more time.
    Restart = None;
    /// DCF3D-style inverse maps: O(1) walk seeds for cold donor searches,
    /// occupancy-pruned candidate routing, masked hole cutting. Answers are
    /// bit-identical either way; disabled, only the search work (and so the
    /// virtual time) moves.
    InverseMap = Some("--no-inverse-map");
    /// One connectivity arena and one set of halo / line-solve pools per
    /// rank for the whole run. Disabled, every step starts from cold
    /// buffers: same code path, states and virtual times bit-identical,
    /// only host allocation counts change.
    Arena = Some("--no-arena");
    /// Advance an inverse map's pose under a small rigid motion instead of
    /// rebuilding its lattice. Disabled, every motion event rebuilds:
    /// answers are bit-identical, the virtual time moves.
    IncrementalInvmap = Some("--no-incremental-invmap");
    /// Run the lane-batched kernels on the host's AVX2 units. Disabled (or
    /// without AVX2), the same batched code runs through the portable
    /// scalar lanes: states, walk outcomes and virtual times bit-identical,
    /// only host wall-clock changes.
    Simd = Some("--no-simd");
}

impl Ablation {
    /// The ablation a `repro` flag selects.
    pub fn from_flag(flag: &str) -> Option<Ablation> {
        Self::ALL.iter().copied().find(|a| a.flag() == Some(flag))
    }
}

/// The set of features a case disables. Empty by default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ablations(u8);

impl Ablations {
    /// Disable a feature.
    pub fn insert(&mut self, a: Ablation) {
        self.0 |= 1 << a as u8;
    }

    /// Re-enable a feature.
    pub fn remove(&mut self, a: Ablation) {
        self.0 &= !(1 << a as u8);
    }

    /// Is the feature disabled?
    pub fn contains(self, a: Ablation) -> bool {
        self.0 & (1 << a as u8) != 0
    }

    /// The lane ISA this set selects: the host's best unless
    /// [`Ablation::Simd`] is disabled.
    pub fn isa(self) -> Isa {
        select_isa(!self.contains(Ablation::Simd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_are_empty_by_default_and_toggle_one_feature_at_a_time() {
        let mut s = Ablations::default();
        for &a in Ablation::ALL {
            assert!(!s.contains(a));
        }
        s.insert(Ablation::Arena);
        s.insert(Ablation::Simd);
        for &a in Ablation::ALL {
            assert_eq!(s.contains(a), matches!(a, Ablation::Arena | Ablation::Simd));
        }
        assert_eq!(s.isa(), Isa::Scalar);
        s.remove(Ablation::Simd);
        s.remove(Ablation::Arena);
        assert_eq!(s, Ablations::default());
        assert_eq!(s.isa(), select_isa(true));
    }
}

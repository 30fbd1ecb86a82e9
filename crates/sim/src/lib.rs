//! Random simulation and signal-correlation discovery.
//!
//! Implements Section III of the DATE 2003 paper: word-parallel random logic
//! simulation over an [`Aig`](csat_netlist::Aig) and the equivalence-class
//! refinement of Algorithm III.1, extended (as the paper describes) to the
//! correlations `s_i = s_j`, `s_i ≠ s_j`, `s = 0`, and `s = 1`.
//!
//! The paper simulates 32 random patterns per machine word; this
//! implementation batches [`SimulationOptions::words`] 64-bit words per
//! signal per round (default 4 ⇒ 256 patterns) through the reusable
//! [`SimEngine`], optionally sharding the words across threads (`parallel`
//! cargo feature). Refinement stops once a configurable number of
//! consecutive rounds (paper: four) fails to split any class.
//!
//! # Example
//!
//! ```
//! use csat_netlist::Aig;
//! use csat_sim::{find_correlations, SimulationOptions};
//!
//! let mut aig = Aig::new();
//! let a = aig.input();
//! let b = aig.input();
//! let x = aig.and(a, b);
//! let z = aig.and(!a, !b);
//! aig.set_output("x", x);
//! aig.set_output("z", z);
//! let result = find_correlations(&aig, &SimulationOptions::default());
//! assert!(result.rounds >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod correlate;
mod engine;
mod parallel;

pub use correlate::{
    find_correlations, find_correlations_observed, Correlation, CorrelationResult, EquivClass,
    Relation, SimulationOptions,
};
pub use engine::{fingerprint, normalized_eq, polarity_mask, SimEngine, SimStats};
pub use parallel::{fill_random_words, random_input_words, seeded_rng, simulate_words};

//! # webpop — the synthetic Alexa top-1M population
//!
//! Replaces the live top-1M site list of the paper's two scan campaigns
//! (Jul. 2016 and Jan. 2017) with a deterministic generator calibrated to
//! every aggregate the paper publishes:
//!
//! * Table IV server-family counts (plus the 223/345-name long tail),
//! * Tables V–VII SETTINGS marginals (cell-for-cell),
//! * the §V-D flow-control reaction counts,
//! * the §V-E priority populations (including the 38/46/1,147-site split
//!   between first-frame, last-frame and both orderings),
//! * the §V-F push sites (6, then 15),
//! * the Figure 4/5 per-family HPACK behavior mixtures.
//!
//! Generation is lazy and deterministic: `Population::site(i)` depends
//! only on `(campaign seed, i)`, so a million-site campaign needs no
//! site list in memory and replays identically.
//!
//! ```
//! use webpop::{ExperimentSpec, Population};
//!
//! let population = Population::new(ExperimentSpec::first(), 0.01);
//! let site = population.site(0);
//! let report = h2scope::H2Scope::new().survey(&site.target());
//! assert!(report.negotiation.h2());
//! ```

#![warn(missing_docs)]

pub mod marginals;
pub mod population;
pub mod spec;

pub use marginals::Family;
pub use population::{Population, SiteSample};
pub use spec::{ExperimentSpec, ReactionCounts};

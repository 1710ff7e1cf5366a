//! # gossip-analysis
//!
//! Descriptive statistics, histograms and report tables for the
//! epidemic-aggregation experiments.
//!
//! The paper's evaluation reports *averages over 50 independent runs*, ranges
//! over nodes (Figure 4's error bars) and per-cycle reduction factors plotted
//! against theoretical constants. This crate is the small, dependency-free
//! numerical toolbox the experiment runners and the examples use to produce
//! those numbers and to render them as aligned text tables and CSV files;
//! the engines and the telemetry layer accumulate with [`OnlineStats`] and
//! [`Histogram`].
//!
//! ## Example
//!
//! ```
//! use gossip_analysis::{Summary, Table};
//!
//! let runs = [0.368, 0.371, 0.361, 0.377, 0.365];
//! let summary = Summary::from_slice(&runs);
//! assert!((summary.mean - 0.3684).abs() < 1e-3);
//!
//! let mut table = Table::new(vec!["selector", "measured", "paper"]);
//! table.add_row(vec![
//!     "getPair_rand".to_string(),
//!     format!("{:.3}", summary.mean),
//!     "0.368".to_string(),
//! ]);
//! assert!(table.to_string().contains("getPair_rand"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod histogram;
mod online;
mod report;
mod stats;

pub use histogram::Histogram;
pub use online::OnlineStats;
pub use report::Table;
pub use stats::Summary;

//! # gossip-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation, plus ablations.
//!
//! Each bench target is an ordinary binary; running
//! `cargo bench -p gossip-bench` executes all of them and prints the same
//! rows/series the paper reports, next to the theoretical predictions. The
//! mapping from paper artefact to bench target lives in the workspace
//! `DESIGN.md`; each target prints its measured-vs-paper numbers to stdout
//! (tee the output into a file to archive a run). None of them measures host
//! time — that is the job of the ledger in `benchmark/`.
//!
//! ## Scaling knobs
//!
//! The defaults are chosen so that the whole suite finishes in a few minutes
//! on a laptop. The paper-scale settings can be restored through environment
//! variables (all optional):
//!
//! | variable | meaning | default | paper value |
//! |---|---|---|---|
//! | `GOSSIP_BENCH_RUNS` | independent runs per point (Figure 3a, tables) | 20 | 50 |
//! | `GOSSIP_FIG3B_RUNS` | independent runs per curve (Figure 3b) | 5 | 50 |
//! | `GOSSIP_FIG3B_NODES` | network size for Figure 3b | 100000 | 100000 |
//! | `GOSSIP_FIG4_NODES` | base network size for Figure 4 | 20000 | 100000 |
//! | `GOSSIP_FIG4_CYCLES` | simulated cycles for Figure 4 | 600 | 1000 |
//! | `GOSSIP_OVERLAY_NODES` | network size for the overlay sweep | 100000 | 100000–1000000 |
//! | `GOSSIP_OVERLAY_CYCLES` | cycles per overlay-sweep point | 20 | 20 |
//! | `GOSSIP_OVERLAY_SHARDS` | shard count for the overlay sweep | 4 | — |
//! | `GOSSIP_OVERLAY_CSV` | write the sweep table to this CSV path | unset | — |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Reads a `usize` configuration value from the environment, falling back to
/// `default` when the variable is unset or unparsable.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` configuration value from the environment, falling back to
/// `default` when the variable is unset or unparsable.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints a standard experiment header so the bench output is self-describing
/// when tee'd into `bench_output.txt`.
pub fn print_header(experiment: &str, paper_artifact: &str, description: &str) {
    println!();
    println!("==============================================================================");
    println!("{experiment} — reproduces {paper_artifact}");
    println!("{description}");
    println!("==============================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back_to_defaults() {
        std::env::remove_var("GOSSIP_BENCH_TEST_VAR");
        assert_eq!(env_usize("GOSSIP_BENCH_TEST_VAR", 7), 7);
        assert_eq!(env_u64("GOSSIP_BENCH_TEST_VAR", 9), 9);
        std::env::set_var("GOSSIP_BENCH_TEST_VAR", "123");
        assert_eq!(env_usize("GOSSIP_BENCH_TEST_VAR", 7), 123);
        assert_eq!(env_u64("GOSSIP_BENCH_TEST_VAR", 9), 123);
        std::env::set_var("GOSSIP_BENCH_TEST_VAR", "not-a-number");
        assert_eq!(env_usize("GOSSIP_BENCH_TEST_VAR", 7), 7);
        std::env::remove_var("GOSSIP_BENCH_TEST_VAR");
    }
}

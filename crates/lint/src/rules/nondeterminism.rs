//! Rule `nondeterminism`: protocol paths must not consult unordered
//! containers, wall clocks or ambient entropy.
//!
//! Every simulator/runtime result in this repo is pinned bit-identical
//! across shard counts and the simulator↔cluster boundary.
//! That only holds while protocol code draws randomness from labelled
//! `SeedSequence` streams, reads time through the
//! injected `Clock`, and never iterates a `HashMap`/`HashSet` (whose order
//! is unspecified). This rule flags, inside the protocol crates
//! ([`super::PROTOCOL_CRATES`]) and outside test code:
//!
//! * `HashMap` / `HashSet` — any mention; keyed lookups that are never
//!   iterated may carry a `lint-allow(nondeterminism)` stating exactly that;
//! * `Instant::now` / `SystemTime::now` — wall clocks (telemetry-only reads
//!   may be allowed with a reason);
//! * `thread_rng` / `from_entropy` / `from_os_rng` — ambient entropy, never
//!   acceptable in a protocol path (allows should cite why the value cannot
//!   reach protocol state).
//!
//! The effects module ([`super::EFFECTS_MODULE`]) is exempt: it is the
//! injection boundary itself.

use super::{Finding, EFFECTS_MODULE, PROTOCOL_CRATES};
use crate::source::{find_token, SourceFile};

/// Rule name as used in diagnostics and `lint-allow`.
pub const NAME: &str = "nondeterminism";

/// Forbidden tokens and the reason each undermines determinism.
const PATTERNS: &[(&str, &str)] = &[
    (
        "HashMap",
        "unordered std collection in a protocol path; iteration order is unspecified — use BTreeMap/Vec, or lint-allow with proof it is never iterated",
    ),
    (
        "HashSet",
        "unordered std collection in a protocol path; iteration order is unspecified — use BTreeSet/Vec, or lint-allow with proof it is never iterated",
    ),
    (
        "Instant::now",
        "wall clock in a protocol path; route time through the injected Clock, or lint-allow citing that only telemetry reads it",
    ),
    (
        "SystemTime::now",
        "wall clock in a protocol path; route time through the injected Clock, or lint-allow citing that only telemetry reads it",
    ),
    (
        "thread_rng",
        "ambient RNG in a protocol path; draw from a labelled SeedSequence stream instead",
    ),
    (
        "from_entropy",
        "OS entropy in a protocol path; seed from a labelled SeedSequence stream instead",
    ),
    (
        "from_os_rng",
        "OS entropy in a protocol path; seed from a labelled SeedSequence stream instead",
    ),
];

/// Runs the rule over one file, appending raw (pre-suppression) findings.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    if !PROTOCOL_CRATES.contains(&file.crate_name.as_str()) || file.rel == EFFECTS_MODULE {
        return;
    }
    for (idx, line) in file.code.iter().enumerate() {
        if file.in_test(idx) {
            continue;
        }
        for (token, why) in PATTERNS {
            if find_token(line, token).is_some() {
                out.push(Finding::new(
                    &file.rel,
                    idx + 1,
                    NAME,
                    format!("`{token}`: {why}"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        out
    }

    #[test]
    fn flags_each_pattern_in_protocol_crates() {
        let src =
            "use std::collections::HashMap;\nlet t = Instant::now();\nlet r = thread_rng();\n";
        let found = run("crates/sim/src/x.rs", src);
        assert_eq!(found.len(), 3);
        assert_eq!(found[0].line, 1);
        assert!(found[1].message.contains("Instant::now"));
    }

    #[test]
    fn ignores_non_protocol_crates_tests_and_effects() {
        let src = "use std::collections::HashMap;\n";
        assert!(run("crates/analysis/src/x.rs", src).is_empty());
        assert!(run("crates/core/src/effects.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n}\n";
        assert!(run("crates/sim/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "// HashMap in prose\nlet s = \"thread_rng\";\n";
        assert!(run("crates/net/src/x.rs", src).is_empty());
    }
}

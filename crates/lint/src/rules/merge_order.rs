//! Rule `merge-order`: concurrent results must merge through a seq-sorted
//! path, never in arrival order.
//!
//! The sharded engine applies each cycle's exchanges in global sequence
//! order on one thread (`crates/sim/src/sharded.rs`), so `crates/sim`
//! currently has no threads or mailboxes and this rule has nothing to check.
//! It stays as the guard for any future parallel executor: code that (a)
//! drains a channel and consumes the batches un-sorted, or (b) folds
//! floating-point statistics together *inside* a spawned worker (where
//! completion order is the scheduler's choice), would silently break the
//! bit-identical runs `tests/determinism.rs` pins. Why order matters at all
//! is shown by the permutation check in `crates/sim/tests/interleavings.rs`:
//! exchanges that share an endpoint do not commute.
//!
//! Two checks, applied to the simulator crate (`crates/sim`) outside tests:
//!
//! 1. **drain-then-sort** — a `try_recv()` / `recv()` drain must be followed
//!    (within [`SORT_WINDOW`] lines) by a `.sort…` call on the drained
//!    buffer before anything iterates it;
//! 2. **no par-side merges** — `.merge(` must not appear lexically inside a
//!    `spawn(`-ed closure; merging belongs to the coordinator, in shard
//!    order.
//!
//! The live runtime (`crates/net`) is exempt: its transport loops are
//! genuinely asynchronous and its determinism story is the lockstep
//! `VirtualCluster`, which routes everything through the same exchange core.

use super::Finding;
use crate::source::SourceFile;

/// Rule name as used in diagnostics and `lint-allow`.
pub const NAME: &str = "merge-order";

/// How many lines after a mailbox drain the restoring sort must appear in.
pub const SORT_WINDOW: usize = 8;

/// Runs the rule over one file, appending raw (pre-suppression) findings.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name != "sim" {
        return;
    }
    check_drain_then_sort(file, out);
    check_no_par_side_merge(file, out);
}

fn check_drain_then_sort(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.code.iter().enumerate() {
        if file.in_test(idx) {
            continue;
        }
        if !(line.contains(".try_recv()") || line.contains(".recv()")) {
            continue;
        }
        let sorted = file.code.iter().skip(idx + 1).take(SORT_WINDOW).any(|l| {
            l.contains(".sort_unstable_by_key(")
                || l.contains(".sort_by_key(")
                || l.contains(".sort(")
        });
        if !sorted {
            out.push(Finding::new(
                &file.rel,
                idx + 1,
                NAME,
                format!(
                    "mailbox drain is not followed by a deterministic sort within {SORT_WINDOW} lines; \
                     merge order must be restored by global sequence number, not arrival order"
                ),
            ));
        }
    }
}

fn check_no_par_side_merge(file: &SourceFile, out: &mut Vec<Finding>) {
    // Mark line spans of spawned closures by balancing braces from each
    // `spawn(` to its close.
    let mut in_spawn = vec![false; file.code.len()];
    for (idx, line) in file.code.iter().enumerate() {
        let Some(pos) = line.find("spawn(") else {
            continue;
        };
        let mut depth = 0i64;
        let mut seen_open = false;
        'outer: for (j, l) in file.code.iter().enumerate().skip(idx) {
            let s = if j == idx { &l[pos..] } else { l.as_str() };
            for ch in s.chars() {
                match ch {
                    '(' | '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    ')' | '}' => {
                        depth -= 1;
                        if seen_open && depth <= 0 {
                            in_spawn[j] = true;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            in_spawn[j] = true;
        }
    }
    for (idx, line) in file.code.iter().enumerate() {
        if file.in_test(idx) || !in_spawn[idx] {
            continue;
        }
        if line.contains(".merge(") {
            out.push(Finding::new(
                &file.rel,
                idx + 1,
                NAME,
                "statistics merged inside a spawned worker: completion order is scheduler-dependent; \
                 return per-shard results and merge coordinator-side in shard order"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/sim/src/x.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        out
    }

    #[test]
    fn unsorted_drain_is_flagged_sorted_drain_is_not() {
        let bad = "while let Ok(b) = rx.try_recv() {\n    buf.extend(b);\n}\nfor x in &buf { use_it(x); }\n";
        let found = run(bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);

        let good = "while let Ok(b) = rx.try_recv() {\n    buf.extend(b);\n}\nbuf.sort_unstable_by_key(|c| c.seq);\n";
        assert!(run(good).is_empty());
    }

    #[test]
    fn merge_inside_spawn_is_flagged() {
        let bad = "scope.spawn(move || {\n    stats.merge(&other);\n});\n";
        let found = run(bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);

        let good = "scope.spawn(move || {\n    work();\n});\nstats.merge(&other);\n";
        assert!(run(good).is_empty());
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let f = SourceFile::parse(
            "crates/net/src/x.rs",
            "while let Ok(b) = rx.try_recv() { handle(b); }\n",
        );
        let mut out = Vec::new();
        check_file(&f, &mut out);
        assert!(out.is_empty());
    }
}

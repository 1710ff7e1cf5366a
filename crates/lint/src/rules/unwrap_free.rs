//! Rule `unwrap`: no `unwrap`/`expect`/`panic!` in non-test library code.
//!
//! Library crates surface failures as typed errors (`SimError`,
//! `TopologyError`, `NetError`, …) so embedders — benches, the fault lab,
//! the live cluster — decide the policy. A panic in a runtime thread would
//! additionally take a live node down mid-cycle. Residual `unwrap`s must carry
//! `// lint-allow(unwrap): <invariant>` citing the invariant that makes
//! them infallible; test modules are exempt (a panic *is* a test failure).

use super::Finding;
use crate::source::SourceFile;

/// Rule name as used in diagnostics and `lint-allow`.
pub const NAME: &str = "unwrap";

/// Forbidden call shapes. `.unwrap()` is matched with its parentheses so
/// `unwrap_or*` variants never fire; `.expect(` excludes `expect_err`.
const PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`unwrap` in library code: return a typed error, or lint-allow citing the invariant that makes this infallible"),
    (".expect(", "`expect` in library code: return a typed error, or lint-allow citing the invariant that makes this infallible"),
    ("panic!", "`panic!` in library code: return a typed error (a panic in a runtime thread takes a live node down)"),
];

/// Runs the rule over one file, appending raw (pre-suppression) findings.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.code.iter().enumerate() {
        if file.in_test(idx) {
            continue;
        }
        for (pattern, why) in PATTERNS {
            let mut rest: &str = line;
            let mut found = false;
            while let Some(pos) = rest.find(pattern) {
                // `.expect(` must not match `.expect_err(`; the paren in the
                // pattern already guarantees that, but keep boundary checks
                // for `panic!` (e.g. `core::panic!` matches, `dont_panic!`
                // must not).
                let before_ok = pattern.starts_with('.') || {
                    let upto = &rest[..pos];
                    !upto
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                };
                if before_ok {
                    found = true;
                    break;
                }
                rest = &rest[pos + pattern.len()..];
            }
            if found {
                out.push(Finding::new(&file.rel, idx + 1, NAME, (*why).to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_panic() {
        let found = run("a.unwrap();\nb.expect(\"msg\");\npanic!(\"boom\");\n");
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn spares_unwrap_or_and_expect_err_and_tests() {
        assert!(run("a.unwrap_or(0);\nb.unwrap_or_else(|| 1);\nc.expect_err(\"e\");\n").is_empty());
        assert!(run("#[cfg(test)]\nmod tests {\n fn t() { a.unwrap(); }\n}\n").is_empty());
        assert!(run("my_panic!(\"not std\");\n").is_empty());
    }
}

//! gossip-lint: the workspace's determinism & concurrency static-analysis
//! suite.
//!
//! Every headline number in this reproduction — the Section 3 convergence
//! factors, the shard-count bit-identity pins, the simulator↔`VirtualCluster`
//! lockstep identity — rests on invariants no compiler checks: protocol code
//! draws randomness only from labelled `SeedSequence` streams, never consults
//! wall clocks or unordered containers, and merges concurrent results in a
//! fixed order. `gossip-lint` enforces those invariants *statically*, before
//! a single cycle runs:
//!
//! ```text
//! cargo run -p gossip-lint -- check                  # all rules, human output
//! cargo run -p gossip-lint -- check --json report.json
//! cargo run -p gossip-lint -- check --check-registry # + SEED_STREAMS.md drift
//! cargo run -p gossip-lint -- write-registry         # regenerate SEED_STREAMS.md
//! cargo run -p gossip-lint -- rules                  # print the catalog
//! ```
//!
//! Violations are suppressed per-line with `// lint-allow(<rule>): <reason>`
//! (trailing, or standalone directly above the offending line). Allows are
//! themselves checked: a reason is mandatory, and an allow whose target no
//! longer violates the rule is reported as `stale-allow` so suppressions
//! cannot outlive their justification. See the rule catalog in [`rules`] and
//! the registry generator in [`registry`].

#![forbid(unsafe_code)]

pub mod json;
pub mod registry;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::seed_streams::StreamCatalog;
use rules::Finding;
use source::SourceFile;

/// The registry file name at the workspace root.
pub const REGISTRY_FILE: &str = "SEED_STREAMS.md";

/// A finding that was suppressed by a `lint-allow` annotation.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The suppressed violation.
    pub finding: Finding,
    /// The annotation's stated justification.
    pub reason: String,
}

/// The outcome of a full `check` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Active findings (violations, stale/malformed allows, registry drift),
    /// sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Violations silenced by a valid `lint-allow`.
    pub suppressed: Vec<Suppressed>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl Report {
    /// True when nothing is wrong: no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The lint engine: a loaded workspace plus the rule catalog.
#[derive(Debug)]
pub struct Engine {
    root: PathBuf,
    files: Vec<SourceFile>,
}

impl Engine {
    /// Loads every `crates/*/src/**/*.rs` under `root`, in sorted order.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error encountered while walking or reading.
    pub fn load(root: &Path) -> io::Result<Engine> {
        let crates_dir = root.join("crates");
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::parse(&rel, &text));
        }
        Ok(Engine {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The workspace root this engine was loaded from.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Runs every rule and resolves `lint-allow` suppressions.
    pub fn check(&self) -> Report {
        let (report, _) = self.check_with_catalog();
        report
    }

    /// [`Engine::check`], also returning the seed-stream catalog (for
    /// registry generation without a second scan).
    pub fn check_with_catalog(&self) -> (Report, StreamCatalog) {
        let mut raw: Vec<Finding> = Vec::new();
        for file in &self.files {
            rules::nondeterminism::check_file(file, &mut raw);
            rules::unwrap_free::check_file(file, &mut raw);
            rules::merge_order::check_file(file, &mut raw);
            rules::observer_effect::check_file(file, &mut raw);
        }
        let catalog = rules::seed_streams::check_workspace(&self.files, &mut raw);
        rules::unsafe_safety::check_workspace(&self.files, &mut raw);

        let mut report = Report {
            files_checked: self.files.len(),
            ..Report::default()
        };

        // Resolve suppressions: an allow matches a finding when the rule name
        // and target line agree. Allows without a reason are malformed;
        // allows that match nothing are stale.
        for file in &self.files {
            for allow in &file.allows {
                if allow.reason.is_empty() {
                    report.findings.push(Finding::new(
                        &file.rel,
                        allow.line,
                        "malformed-allow",
                        format!(
                            "lint-allow({}) has no reason — write \
                             `// lint-allow({}): <why this is sound>`",
                            allow.rule, allow.rule
                        ),
                    ));
                }
            }
        }
        for finding in raw {
            let allow = self.files.iter().find_map(|file| {
                if file.rel != finding.file {
                    return None;
                }
                file.allows
                    .iter()
                    .find(|a| a.rule == finding.rule && a.target_line == finding.line)
            });
            match allow {
                Some(a) if !a.reason.is_empty() => report.suppressed.push(Suppressed {
                    finding,
                    reason: a.reason.clone(),
                }),
                _ => report.findings.push(finding),
            }
        }
        for file in &self.files {
            for allow in &file.allows {
                let used = report.suppressed.iter().any(|s| {
                    s.finding.file == file.rel
                        && s.finding.rule == allow.rule
                        && s.finding.line == allow.target_line
                });
                if !used && !allow.reason.is_empty() {
                    report.findings.push(Finding::new(
                        &file.rel,
                        allow.line,
                        "stale-allow",
                        format!(
                            "lint-allow({}) no longer matches a violation on line {} — \
                             remove it so suppressions cannot outlive their justification",
                            allow.rule, allow.target_line
                        ),
                    ));
                }
            }
        }

        report.findings.sort();
        report.suppressed.sort_by(|a, b| a.finding.cmp(&b.finding));
        (report, catalog)
    }

    /// Renders the current seed-stream registry contents.
    pub fn registry_markdown(&self) -> String {
        let (_, catalog) = self.check_with_catalog();
        registry::render(&catalog)
    }

    /// Compares the generated registry against the committed
    /// [`REGISTRY_FILE`]; returns a finding when they differ.
    pub fn registry_drift(&self, catalog: &StreamCatalog) -> io::Result<Option<Finding>> {
        let expected = registry::render(catalog);
        let path = self.root.join(REGISTRY_FILE);
        let actual = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        if normalize(&actual) == normalize(&expected) {
            Ok(None)
        } else {
            Ok(Some(Finding::new(
                REGISTRY_FILE,
                1,
                "seed-streams",
                "SEED_STREAMS.md is out of date with the sources — regenerate it with \
                 `cargo run -p gossip-lint -- write-registry`"
                    .to_string(),
            )))
        }
    }
}

/// Line-ending/trailing-whitespace-insensitive comparison form.
fn normalize(text: &str) -> String {
    text.replace("\r\n", "\n").trim_end().to_string()
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks up from `start` to the first directory that looks like the
/// workspace root (has `Cargo.toml` and a `crates/` directory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

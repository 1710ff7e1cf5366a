//! Rule `seed-streams`: every `SeedSequence` label is a string literal (or a
//! documented `&str` const), unique to one purpose, and registered.
//!
//! Labelled streams (`rng_for_labeled` / `seed_for_labeled`) are the
//! workspace's entire randomness budget: two call sites sharing a label by
//! accident silently correlate draws that every experiment assumes are
//! independent, and a label built at runtime cannot be audited at all. This
//! module therefore does double duty:
//!
//! * **lint** — flags labels that are not literals/known consts, duplicate
//!   labels defined by *different* consts, the same literal label used from
//!   more than one crate, and inline literals that shadow a const;
//! * **registry** — extracts every label with its definition, purpose and
//!   use sites into the data behind the generated `SEED_STREAMS.md`
//!   ([`crate::registry`]), so each figure's seed streams are auditable.
//!
//! A label's *purpose* comes from the defining const's first doc line, or
//! from a `// stream: <purpose>` comment on (or directly above) the call
//! site. The effects module is exempt — it forwards `label` parameters
//! generically.

use std::collections::BTreeMap;

use super::{Finding, EFFECTS_MODULE};
use crate::source::{find_token, SourceFile};

/// Rule name as used in diagnostics and `lint-allow`.
pub const NAME: &str = "seed-streams";

/// A `const NAME: &str = "label";` definition somewhere in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstDef {
    /// The const identifier.
    pub name: String,
    /// The label string it defines.
    pub label: String,
    /// Defining file (workspace-relative).
    pub file: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// First doc-comment line above the const, if any.
    pub doc: Option<String>,
}

/// One `*_for_labeled(run, <label>)` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseSite {
    /// File of the call (workspace-relative).
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Name of the innermost `fn` around the call, if any: what the
    /// registry shows, so that moving a call within its function leaves
    /// the registry as it is.
    pub function: Option<String>,
    /// Resolved label string.
    pub label: String,
    /// Const the label came through, if the argument was an identifier.
    pub via_const: Option<String>,
    /// Purpose from a `// stream:` comment on or directly above the line.
    pub purpose: Option<String>,
}

/// Everything the rule learned about the workspace's labelled streams.
#[derive(Debug, Default)]
pub struct StreamCatalog {
    /// Label-string consts, keyed by identifier.
    pub consts: BTreeMap<String, ConstDef>,
    /// All resolved call sites, in file/line order.
    pub uses: Vec<UseSite>,
}

impl StreamCatalog {
    /// Groups use sites by label, in label order.
    pub fn by_label(&self) -> BTreeMap<&str, Vec<&UseSite>> {
        let mut map: BTreeMap<&str, Vec<&UseSite>> = BTreeMap::new();
        for site in &self.uses {
            map.entry(site.label.as_str()).or_default().push(site);
        }
        map
    }
}

/// Scans the whole workspace: collects the catalog and appends findings.
pub fn check_workspace(files: &[SourceFile], out: &mut Vec<Finding>) -> StreamCatalog {
    let mut catalog = StreamCatalog::default();
    for file in files {
        collect_consts(file, &mut catalog);
    }
    for file in files {
        if file.rel == EFFECTS_MODULE {
            continue;
        }
        collect_uses(file, &catalog.consts.clone(), &mut catalog, out);
    }
    check_duplicates(&catalog, out);
    catalog
}

fn collect_consts(file: &SourceFile, catalog: &mut StreamCatalog) {
    for (idx, line) in file.code_with_strings.iter().enumerate() {
        if file.in_test(idx) {
            continue;
        }
        let code = line.trim();
        // Shape: [pub] const NAME: &str = "label";
        let Some(pos) = code.find("const ") else {
            continue;
        };
        let rest = &code[pos + "const ".len()..];
        let Some(colon) = rest.find(':') else {
            continue;
        };
        let name = rest[..colon].trim().to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
            continue;
        }
        let after = &rest[colon + 1..];
        if !after.trim_start().starts_with("&str") {
            continue;
        }
        let Some(eq) = after.find('=') else {
            continue;
        };
        let Some(label) = string_literal(&after[eq + 1..]) else {
            continue;
        };
        // Doc comment: collect the contiguous `///` block above the const
        // and keep its first sentence.
        let mut doc_lines: Vec<String> = Vec::new();
        for j in (0..idx).rev() {
            let comment = file.comments[j].trim();
            if let Some(text) = comment.strip_prefix("///") {
                doc_lines.push(text.trim().to_string());
                continue;
            }
            if !comment.is_empty() || !file.code[j].trim().is_empty() {
                break;
            }
        }
        doc_lines.reverse();
        let doc = if doc_lines.is_empty() {
            None
        } else {
            let joined = doc_lines.join(" ");
            Some(match joined.find(". ") {
                Some(p) => joined[..=p].to_string(),
                None => joined,
            })
        };
        catalog.consts.insert(
            name.clone(),
            ConstDef {
                name,
                label,
                file: file.rel.clone(),
                line: idx + 1,
                doc,
            },
        );
    }
}

fn collect_uses(
    file: &SourceFile,
    consts: &BTreeMap<String, ConstDef>,
    catalog: &mut StreamCatalog,
    out: &mut Vec<Finding>,
) {
    for idx in 0..file.code_with_strings.len() {
        if file.in_test(idx) {
            continue;
        }
        for marker in ["rng_for_labeled(", "seed_for_labeled("] {
            // Locate the call in the string-masked view, so the marker
            // appearing inside a string literal (e.g. this lint's own
            // sources) is never mistaken for a call site.
            let Some(pos) = file.code[idx].find(marker) else {
                continue;
            };
            // Skip trait/impl definitions and generic forwarders:
            // `fn seed_for_labeled(&self, run: u64, label: &str)`.
            let before = &file.code[idx][..pos];
            if before.trim_end().ends_with("fn") {
                continue;
            }
            // The label is the second argument; it may sit on a later line.
            let joined: String = file
                .code_with_strings
                .iter()
                .skip(idx)
                .take(3)
                .map(|l| l.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            let call_start = joined.find(marker).map(|p| p + marker.len());
            let Some(arg) = call_start.and_then(|p| second_argument(&joined[p..])) else {
                out.push(Finding::new(
                    &file.rel,
                    idx + 1,
                    NAME,
                    "could not parse the label argument of a labelled-stream call".to_string(),
                ));
                continue;
            };
            let arg = arg.trim();
            let purpose = stream_comment(file, idx);
            let function = enclosing_fn(file, idx, pos);
            if let Some(label) = string_literal(arg) {
                catalog.uses.push(UseSite {
                    file: file.rel.clone(),
                    line: idx + 1,
                    function,
                    label,
                    via_const: None,
                    purpose,
                });
            } else {
                // Identifier (possibly a path): resolve its last segment
                // against the known consts.
                let ident = arg.rsplit("::").next().unwrap_or(arg).trim();
                match consts.get(ident) {
                    Some(def) => catalog.uses.push(UseSite {
                        file: file.rel.clone(),
                        line: idx + 1,
                        function,
                        label: def.label.clone(),
                        via_const: Some(def.name.clone()),
                        purpose,
                    }),
                    None => out.push(Finding::new(
                        &file.rel,
                        idx + 1,
                        NAME,
                        format!(
                            "seed stream label `{ident}` is not a string literal or a known \
                             `const NAME: &str = \"…\";` — labels must be auditable at rest"
                        ),
                    )),
                }
            }
        }
    }
}

fn check_duplicates(catalog: &StreamCatalog, out: &mut Vec<Finding>) {
    // (a) Two different consts defining the same label.
    let mut by_label: BTreeMap<&str, Vec<&ConstDef>> = BTreeMap::new();
    for def in catalog.consts.values() {
        by_label.entry(def.label.as_str()).or_default().push(def);
    }
    for (label, defs) in &by_label {
        if defs.len() > 1 {
            let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            for def in defs {
                out.push(Finding::new(
                    &def.file,
                    def.line,
                    NAME,
                    format!(
                        "label \"{label}\" is defined by multiple consts ({}) — two purposes \
                         sharing one label correlate their random streams",
                        names.join(", ")
                    ),
                ));
            }
        }
    }
    // (b) The same inline literal used from more than one crate, and
    // (c) an inline literal that shadows a const's label.
    for (label, sites) in catalog.by_label() {
        let inline: Vec<&&UseSite> = sites.iter().filter(|s| s.via_const.is_none()).collect();
        if inline.is_empty() {
            continue;
        }
        let mut crates: Vec<&str> = inline
            .iter()
            .filter_map(|s| {
                s.file
                    .strip_prefix("crates/")
                    .and_then(|r| r.split('/').next())
            })
            .collect();
        crates.sort_unstable();
        crates.dedup();
        if crates.len() > 1 {
            for site in &inline {
                out.push(Finding::new(
                    &site.file,
                    site.line,
                    NAME,
                    format!(
                        "inline label \"{label}\" is used from multiple crates ({}) — hoist it \
                         into one documented const so the purposes cannot drift apart",
                        crates.join(", ")
                    ),
                ));
            }
        }
        if let Some(def) = catalog.consts.values().find(|d| d.label == label) {
            for site in &inline {
                out.push(Finding::new(
                    &site.file,
                    site.line,
                    NAME,
                    format!(
                        "inline label \"{label}\" bypasses const `{}` ({}:{}) — use the const",
                        def.name, def.file, def.line
                    ),
                ));
            }
        }
    }
}

/// Extracts a `"…"` literal from the front of `s` (after trimming).
fn string_literal(s: &str) -> Option<String> {
    let s = s.trim();
    let start = s.find('"')?;
    // Only accept when the literal is the first token (`= "x"` or `"x"`).
    if !s[..start].trim().is_empty() && s[..start].trim() != "=" {
        return None;
    }
    let rest = &s[start + 1..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// The second comma-separated argument of a call, paren-aware.
fn second_argument(args: &str) -> Option<&str> {
    let mut depth = 0i32;
    let mut first_comma = None;
    for (i, c) in args.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                if depth == 0 {
                    // Call closed before a second argument appeared.
                    return first_comma.map(|fc: usize| &args[fc + 1..i]);
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                if first_comma.is_some() {
                    // Third argument exists; labelled calls have two.
                    return None;
                }
                first_comma = Some(i);
            }
            _ => {}
        }
    }
    None
}

/// The innermost `fn` whose body holds column `col` of line `idx`, found by
/// matching braces in the masked source from the top of the file. A `;` at
/// bracket depth zero ends a bodyless `fn` declaration.
fn enclosing_fn(file: &SourceFile, idx: usize, col: usize) -> Option<String> {
    let mut open: Vec<Option<String>> = Vec::new();
    let (mut pending, mut depth) = (None, 0i32);
    let before = file.code[..idx].iter().map(String::as_str);
    for line in before.chain([&file.code[idx][..col]]) {
        for (at, c) in line.char_indices() {
            match c {
                '{' => open.push(pending.take()),
                '}' => drop(open.pop()),
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                ';' if depth == 0 => pending = None,
                'f' if find_token(&line[at..], "fn") == Some(0)
                    && !line[..at].ends_with(|p: char| p.is_alphanumeric() || p == '_') =>
                {
                    let name: String = line[at + 2..]
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        pending = Some(name);
                    }
                }
                _ => {}
            }
        }
    }
    open.into_iter().rev().flatten().next()
}

/// A `// stream: <purpose>` comment on the line or the line above.
fn stream_comment(file: &SourceFile, idx: usize) -> Option<String> {
    for j in [Some(idx), idx.checked_sub(1)].into_iter().flatten() {
        let comment = file.comments[j].trim().trim_start_matches('/').trim();
        if let Some(purpose) = comment.strip_prefix("stream:") {
            return Some(purpose.trim().to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(specs: &[(&str, &str)]) -> (StreamCatalog, Vec<Finding>) {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        let mut out = Vec::new();
        let catalog = check_workspace(&files, &mut out);
        (catalog, out)
    }

    #[test]
    fn literal_and_const_labels_are_collected() {
        let (catalog, findings) = run(&[(
            "crates/sim/src/a.rs",
            "/// Shuffle stream.\npub const S: &str = \"shuffle\";\nfn f(q: &Q) {\n  // stream: per-cycle schedule\n  let r = q.rng_for_labeled(0, \"sched\");\n  let s = q.seed_for_labeled(1, S);\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(catalog.uses.len(), 2);
        assert_eq!(catalog.uses[0].label, "sched");
        assert_eq!(
            catalog.uses[0].purpose.as_deref(),
            Some("per-cycle schedule")
        );
        assert_eq!(catalog.uses[1].via_const.as_deref(), Some("S"));
        assert_eq!(catalog.consts["S"].doc.as_deref(), Some("Shuffle stream."));
    }

    #[test]
    fn non_literal_labels_are_flagged() {
        let (_, findings) = run(&[(
            "crates/sim/src/a.rs",
            "fn f(q: &Q, label: &str) {\n  let r = q.rng_for_labeled(0, label);\n}\n",
        )]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("label"));
    }

    #[test]
    fn duplicate_const_labels_are_flagged() {
        let (_, findings) = run(&[
            (
                "crates/sim/src/a.rs",
                "pub const A: &str = \"dup\";\nfn f(q:&Q){ q.rng_for_labeled(0, A); }\n",
            ),
            (
                "crates/net/src/b.rs",
                "pub const B: &str = \"dup\";\nfn g(q:&Q){ q.rng_for_labeled(0, B); }\n",
            ),
        ]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("multiple consts"));
    }

    #[test]
    fn cross_crate_inline_reuse_is_flagged() {
        let (_, findings) = run(&[
            (
                "crates/sim/src/a.rs",
                "fn f(q:&Q){ q.rng_for_labeled(0, \"shared\"); }\n",
            ),
            (
                "crates/net/src/b.rs",
                "fn g(q:&Q){ q.rng_for_labeled(0, \"shared\"); }\n",
            ),
        ]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("multiple crates"));
    }

    #[test]
    fn use_sites_name_their_enclosing_fn() {
        let (catalog, findings) = run(&[(
            "crates/sim/src/a.rs",
            "trait T {\n    fn decl(&self, x: [u8; 4]);\n}\nimpl S {\n    fn outer(&self, q: &Q) {\n        let f = |x: u64| { x };\n        q.rng_for_labeled(0, \"a\");\n        fn inner(q: &Q) { q.rng_for_labeled(1, \"b\"); }\n    }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        let functions: Vec<_> = catalog.uses.iter().map(|u| u.function.as_deref()).collect();
        assert_eq!(functions, [Some("outer"), Some("inner")]);
    }

    #[test]
    fn a_blank_line_above_a_call_leaves_the_registry_unchanged() {
        let source = "/// Shuffle stream.\npub const S: &str = \"shuffle\";\nfn f(q: &Q) {\n  // stream: per-cycle schedule\n  let r = q.rng_for_labeled(0, \"sched\");\n  let s = q.seed_for_labeled(1, S);\n}\n";
        let render = |text: &str| {
            let (catalog, findings) = run(&[("crates/sim/src/a.rs", text)]);
            assert!(findings.is_empty(), "{findings:?}");
            crate::registry::render(&catalog)
        };
        let shifted = source.replace("fn f(q: &Q) {\n", "fn f(q: &Q) {\n\n");
        assert_eq!(render(&shifted), render(source));
        let shifted = format!("\n\n{source}");
        assert_eq!(render(&shifted), render(source));
        assert!(render(source).contains("crates/sim/src/a.rs (f)"));
    }

    #[test]
    fn fn_definitions_are_skipped() {
        let (catalog, findings) = run(&[(
            "crates/core/src/x.rs",
            "pub trait E {\n    fn seed_for_labeled(&self, run: u64, label: &str) -> u64;\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(catalog.uses.is_empty());
    }
}

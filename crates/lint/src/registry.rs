//! Generates `SEED_STREAMS.md` — the auditable registry of every labelled
//! `SeedSequence` stream in the workspace.
//!
//! The registry is derived, never hand-edited: `gossip-lint write-registry`
//! rewrites it and `gossip-lint check --check-registry` fails when the
//! committed file drifts from the sources. Each row records the label, the
//! const it travels through (if any), its purpose (const doc line or
//! `// stream:` call-site comment) and every use site, so an experiment's
//! randomness budget can be audited without running anything. Sites are
//! named by file and enclosing `fn`, never by line, so an edit that only
//! shifts lines leaves the registry as it is.

use std::collections::BTreeMap;

use crate::rules::seed_streams::{StreamCatalog, UseSite};

/// Renders the catalog as the full `SEED_STREAMS.md` contents.
pub fn render(catalog: &StreamCatalog) -> String {
    let mut out = String::new();
    out.push_str("# Seed-stream registry\n\n");
    out.push_str(
        "Generated by `cargo run -p gossip-lint -- write-registry`; checked in CI via\n\
         `cargo run -p gossip-lint -- check --check-registry`. **Do not edit by hand.**\n\n\
         Every deterministic run in this repo draws its randomness from labelled\n\
         `SeedSequence` streams (`rng_for_labeled` / `seed_for_labeled`). A label is a\n\
         stream identity: two call sites sharing a label share draws, so each label\n\
         below must mean exactly one thing. The `seed-streams` lint enforces that\n\
         labels are string literals (or documented consts), unique to one purpose,\n\
         and that this file matches the sources.\n\n",
    );

    let by_label = catalog.by_label();
    out.push_str(&format!(
        "{} labels across {} use sites.\n\n",
        by_label.len(),
        catalog.uses.len()
    ));
    out.push_str("| label | const | purpose | use sites |\n");
    out.push_str("|---|---|---|---|\n");
    for (label, sites) in &by_label {
        let via: Option<&str> = sites.iter().find_map(|s| s.via_const.as_deref());
        let const_cell = match via {
            Some(name) => {
                let def = &catalog.consts[name];
                format!("`{}` ({})", name, def.file)
            }
            None => "—".to_string(),
        };
        let purpose = purpose_of(catalog, label, sites);
        let site_cell = site_names(sites).join(", ");
        out.push_str(&format!(
            "| `{label}` | {const_cell} | {purpose} | {site_cell} |\n"
        ));
    }

    // `*_STREAM` consts that exist but are currently unused still belong in
    // the audit (other string consts — rule names, file names — do not).
    let used: Vec<&str> = catalog
        .uses
        .iter()
        .filter_map(|s| s.via_const.as_deref())
        .collect();
    let unused: BTreeMap<&str, &crate::rules::seed_streams::ConstDef> = catalog
        .consts
        .iter()
        .filter(|(name, _)| name.ends_with("_STREAM") && !used.contains(&name.as_str()))
        .map(|(name, def)| (name.as_str(), def))
        .collect();
    if !unused.is_empty() {
        out.push_str("\n## Declared but currently unreferenced consts\n\n");
        for (name, def) in unused {
            out.push_str(&format!(
                "- `{}` = `\"{}\"` ({}) — {}\n",
                name,
                def.label,
                def.file,
                def.doc.as_deref().unwrap_or("(undocumented)")
            ));
        }
    }
    out
}

/// Each site as `file (fn)`, or the bare file outside any `fn`; several
/// sites in one `fn` collapse into one entry with a count.
fn site_names(sites: &[&UseSite]) -> Vec<String> {
    let mut names: Vec<(String, usize)> = Vec::new();
    for site in sites {
        let name = match &site.function {
            Some(function) => format!("{} ({function})", site.file),
            None => site.file.clone(),
        };
        match names.last_mut() {
            Some((last, count)) if *last == name => *count += 1,
            _ => names.push((name, 1)),
        }
    }
    let counted = |(name, count): (String, usize)| match count {
        1 => name,
        n => format!("{name} ×{n}"),
    };
    names.into_iter().map(counted).collect()
}

/// Best-available purpose text for a label.
fn purpose_of(catalog: &StreamCatalog, label: &str, sites: &[&UseSite]) -> String {
    if let Some(name) = sites.iter().find_map(|s| s.via_const.as_deref()) {
        if let Some(doc) = catalog.consts[name].doc.as_deref() {
            return doc.to_string();
        }
    }
    if let Some(purpose) = sites.iter().find_map(|s| s.purpose.as_deref()) {
        return purpose.to_string();
    }
    let _ = label;
    "(undocumented)".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::seed_streams::check_workspace;
    use crate::source::SourceFile;

    #[test]
    fn renders_labels_with_purposes_and_sites() {
        let files = vec![SourceFile::parse(
            "crates/sim/src/a.rs",
            "/// Per-cycle shuffle.\npub const S: &str = \"shuffle\";\nfn f(q: &Q) {\n  // stream: node value draws\n  let a = q.rng_for_labeled(0, \"values\");\n  let b = q.seed_for_labeled(1, S);\n}\n",
        )];
        let mut findings = Vec::new();
        let catalog = check_workspace(&files, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        let md = render(&catalog);
        assert!(md.contains("| `shuffle` | `S` (crates/sim/src/a.rs) | Per-cycle shuffle. |"));
        assert!(md.contains("| `values` | — | node value draws |"));
        assert!(md.contains("2 labels across 2 use sites."));
    }
}

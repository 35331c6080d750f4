//! The ratcheted baseline: committed per-rule violation counts that may
//! only go down.
//!
//! The baseline records, for every rule, the suppression-directive count
//! and a per-file finding count. `--check` fails when any rule's total
//! (or allow count) rises above the committed value and points at the
//! files that grew; `--update` rewrites the file from the current scan.
//! Per-file granularity is the sweet spot: coarse enough to survive
//! line-number churn from unrelated edits, fine enough that a check
//! failure names the offending file immediately.
//!
//! Serialization is a hand-rolled, deterministic JSON subset (objects,
//! strings, unsigned integers) — the workspace vendors no serde, and the
//! baseline must produce byte-identical files for identical counts. It is
//! read back with `lr-obs`'s std-only JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lr_obs::Value;

use crate::rules::{Finding, RuleId, ALL_RULES};

/// Committed (or freshly computed) counts for one rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleCounts {
    /// `lr-lint: allow(<rule>)` directives in the tree.
    pub allows: usize,
    /// Findings per workspace-relative file path.
    pub files: BTreeMap<String, usize>,
}

impl RuleCounts {
    /// Total findings across files.
    pub fn total(&self) -> usize {
        self.files.values().sum()
    }
}

/// The full baseline: counts per rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Per-rule counts, keyed by canonical rule name.
    pub rules: BTreeMap<String, RuleCounts>,
}

impl Baseline {
    /// Builds a baseline from a scan's findings and allow census.
    pub fn from_scan(findings: &[Finding], allows: &[usize; ALL_RULES.len()]) -> Self {
        let mut rules: BTreeMap<String, RuleCounts> = ALL_RULES
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    r.name().to_string(),
                    RuleCounts {
                        allows: allows[i],
                        files: BTreeMap::new(),
                    },
                )
            })
            .collect();
        for f in findings {
            let entry = rules.entry(f.rule.name().to_string()).or_default();
            *entry.files.entry(f.file.clone()).or_insert(0) += 1;
        }
        Self { rules }
    }

    /// Counts for one rule (empty if absent).
    pub fn rule(&self, rule: RuleId) -> RuleCounts {
        self.rules.get(rule.name()).cloned().unwrap_or_default()
    }

    /// Renders the baseline as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": {\n");
        let n = self.rules.len();
        for (i, (name, counts)) in self.rules.iter().enumerate() {
            let _ = write!(
                out,
                "    {}: {{\n      \"allows\": {},\n      \"total\": {},\n      \"files\": {{",
                quote(name),
                counts.allows,
                counts.total()
            );
            if counts.files.is_empty() {
                out.push_str("}\n");
            } else {
                out.push('\n');
                let m = counts.files.len();
                for (j, (file, count)) in counts.files.iter().enumerate() {
                    let _ = write!(out, "        {}: {}", quote(file), count);
                    out.push_str(if j + 1 < m { ",\n" } else { "\n" });
                }
                out.push_str("      }\n");
            }
            out.push_str("    }");
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a baseline from JSON. The redundant `total` field is
    /// ignored on input (recomputed from `files`).
    pub fn parse(src: &str) -> Result<Self, String> {
        let Value::Obj(root) = lr_obs::trace::parse_json(src)? else {
            return Err("baseline root must be an object".into());
        };
        let rules_val = root.get("rules").ok_or("missing \"rules\" key")?;
        let Value::Obj(rules_obj) = rules_val else {
            return Err("\"rules\" must be an object".into());
        };
        let mut rules = BTreeMap::new();
        for (name, v) in rules_obj {
            let Value::Obj(obj) = v else {
                return Err(format!("rule {name} must be an object"));
            };
            let allows = obj.get("allows").and_then(as_count).unwrap_or(0);
            let mut files = BTreeMap::new();
            if let Some(Value::Obj(files_obj)) = obj.get("files") {
                for (file, count) in files_obj {
                    let count = as_count(count)
                        .ok_or_else(|| format!("count for {file} must be an integer"))?;
                    files.insert(file.clone(), count);
                }
            }
            rules.insert(name.clone(), RuleCounts { allows, files });
        }
        Ok(Self { rules })
    }
}

/// A non-negative whole JSON number as a count.
fn as_count(v: &Value) -> Option<usize> {
    v.as_u64().map(|n| n as usize)
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::scan_source;

    fn scan_to_baseline(path: &str, src: &str) -> Baseline {
        let scan = scan_source(path, src);
        Baseline::from_scan(&scan.findings, &scan.allows)
    }

    #[test]
    fn roundtrip_preserves_counts() {
        let src = "fn f() { let m = HashMap::new(); m.get(&0).unwrap(); }\n// lr-lint: allow(p1)\nfn g() {}";
        let b = scan_to_baseline("crates/core/src/x.rs", src);
        let parsed = Baseline::parse(&b.to_json()).expect("parse back");
        assert_eq!(parsed, b);
        assert_eq!(parsed.rule(RuleId::D2).total(), 1);
        assert_eq!(parsed.rule(RuleId::P1).total(), 1);
        assert_eq!(parsed.rule(RuleId::P1).allows, 1);
    }

    #[test]
    fn json_output_is_deterministic_and_sorted() {
        let src = "fn f() { let a = HashSet::new(); }";
        let b1 = scan_to_baseline("crates/a.rs", src);
        let b2 = scan_to_baseline("crates/a.rs", src);
        assert_eq!(b1.to_json(), b2.to_json());
        let json = b1.to_json();
        // All five rules present, in name order.
        let d1 = json.find("\"D1\"").expect("D1");
        let p1 = json.find("\"P1\"").expect("P1");
        assert!(d1 < p1);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("{\"rules\": 3}").is_err());
        assert!(Baseline::parse("{\"rules\": {}} trailing").is_err());
        assert!(Baseline::parse("{\"version\": 1}").is_err());
    }

    #[test]
    fn empty_baseline_has_all_rules_at_zero() {
        let b = scan_to_baseline("crates/x.rs", "fn clean() {}");
        for rule in ALL_RULES {
            assert_eq!(b.rule(rule).total(), 0, "{rule:?}");
            assert_eq!(b.rule(rule).allows, 0, "{rule:?}");
        }
        let parsed = Baseline::parse(&b.to_json()).expect("parse");
        assert_eq!(parsed, b);
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}

//! The reproduction driver's core: the artifact registry, the argument
//! parse, the shared per-scale context, and the one rule that decides
//! whether a run writes, checks or only prints an artifact.

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use litereconfig::pipeline::RunResult;
use litereconfig::protocols::AdaptiveProtocol;
use lr_device::DeviceKind;
use lr_features::DeepExtractors;
use lr_pool::Pool;

use crate::suite::{ExperimentScale, Suite};
use crate::{ablations, figures, serving, tables};

/// One committed `results_<name>.txt` and the function that renders it.
#[derive(Debug)]
pub(crate) struct Artifact {
    /// The name the driver accepts and the file is named after.
    pub(crate) name: &'static str,
    /// The scale the committed file was rendered at.
    pub(crate) scale: ExperimentScale,
    /// Renders exactly the bytes of the committed file when the context
    /// is at `scale`.
    render: fn(&Ctx) -> Result<String, ReproError>,
}

impl Artifact {
    const fn paper(name: &'static str, render: fn(&Ctx) -> Result<String, ReproError>) -> Self {
        Self {
            name,
            scale: ExperimentScale::Paper,
            render,
        }
    }

    /// The committed file, relative to the repository root.
    fn file(&self) -> String {
        format!("results_{}.txt", self.name)
    }
}

/// Every artifact, in the order the driver runs them. `trace` and `faults`
/// are committed at `small` so CI can afford their identity batteries.
pub(crate) static ARTIFACTS: [Artifact; 13] = [
    Artifact::paper("table1", tables::table1),
    Artifact::paper("table2", tables::table2),
    Artifact::paper("table3", tables::table3),
    Artifact::paper("table4", tables::table4),
    Artifact::paper("figure2", figures::figure2),
    Artifact::paper("figure3", figures::figure3),
    Artifact::paper("figure4", figures::figure4),
    Artifact::paper("figure5", figures::figure5),
    Artifact::paper("pareto", figures::pareto),
    Artifact::paper("ablations", ablations::ablations),
    Artifact::paper("serve_scaling", serving::serve_scaling),
    Artifact {
        name: "trace",
        scale: ExperimentScale::Small,
        render: serving::trace,
    },
    Artifact {
        name: "faults",
        scale: ExperimentScale::Small,
        render: serving::faults,
    },
];

/// Runs every artifact in `args`, with committed files resolved against
/// `root`. Each artifact is written only at its committed scale and never
/// under `--check`, which compares instead; at the other scale it is
/// printed. Each scale's suite is built at most once, on first use. Returns
/// whether every artifact passed its own checks and, under `--check`,
/// matched its committed file.
pub fn run(args: &Args, root: &Path) -> bool {
    let t0 = Instant::now();
    // Feature services free the deep stand-ins' weights with their last
    // handle; this one keeps them for the run, so they are built once
    // rather than again in every cell that extracts a deep feature.
    let _deep = DeepExtractors::shared();
    let pool = Pool::from_env();
    let small = Ctx::new(ExperimentScale::Small, pool);
    let paper = Ctx::new(ExperimentScale::Paper, pool);
    let mut ok = true;
    for &artifact in &args.artifacts {
        let scale = args.scale.unwrap_or(artifact.scale);
        let ctx = match scale {
            ExperimentScale::Small => &small,
            ExperimentScale::Paper => &paper,
        };
        let t = Instant::now();
        let settled = (artifact.render)(ctx)
            .and_then(|text| settle(artifact, action(artifact, scale, args.check), &text, root));
        match settled {
            Ok(passed) => ok &= passed,
            Err(e) => {
                if let ReproError::ChecksFailed { text, .. } = &e {
                    print!("{text}");
                }
                eprintln!("[reproduce] {} FAILED: {e}", artifact.name);
                ok = false;
            }
        }
        eprintln!(
            "[reproduce] {} ({scale:?}) in {:.1}s, {:.1}s total",
            artifact.name,
            t.elapsed().as_secs_f64(),
            t0.elapsed().as_secs_f64()
        );
    }
    ok
}

/// What a run does with a rendered artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Overwrite the committed file.
    Write,
    /// Compare with the committed file byte for byte; write nothing.
    Check,
    /// Print only: the run's scale is not the committed file's.
    Print,
}

/// The write rule: a file is written only at its artifact's committed
/// scale and never under `--check`; at any other scale it is printed.
fn action(artifact: &Artifact, scale: ExperimentScale, check: bool) -> Action {
    if scale != artifact.scale {
        Action::Print
    } else if check {
        Action::Check
    } else {
        Action::Write
    }
}

/// Carries out `action` for a rendered artifact in the directory `root`.
/// Returns whether the run succeeded: a [`Action::Check`] fails when the
/// committed file is missing or differs, and it never writes.
fn settle(
    artifact: &Artifact,
    action: Action,
    text: &str,
    root: &Path,
) -> Result<bool, ReproError> {
    let path = root.join(artifact.file());
    match action {
        Action::Print => {
            print!("{text}");
            Ok(true)
        }
        Action::Write => {
            print!("{text}");
            std::fs::write(&path, text).map_err(|e| ReproError::io(&path, e))?;
            eprintln!("[reproduce] wrote {}", artifact.file());
            Ok(true)
        }
        Action::Check => match std::fs::read_to_string(&path) {
            Ok(committed) if committed == text => {
                eprintln!("[reproduce] {}: reproduced byte for byte", artifact.file());
                Ok(true)
            }
            Ok(committed) => {
                let line = committed
                    .lines()
                    .zip(text.lines())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| committed.lines().count().min(text.lines().count()));
                eprintln!(
                    "[reproduce] CHECK FAILED: {} first differs from the fresh render at line {}",
                    artifact.file(),
                    line + 1
                );
                Ok(false)
            }
            Err(e) => {
                eprintln!(
                    "[reproduce] CHECK FAILED: cannot read {}: {e}",
                    artifact.file()
                );
                Ok(false)
            }
        },
    }
}

/// Why an artifact could not be rendered or settled.
#[derive(Debug)]
pub(crate) enum ReproError {
    /// A file could not be read or written.
    Io {
        /// The file.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Formatting into the artifact buffer failed.
    Format,
    /// The artifact's own acceptance checks failed; `text` is the
    /// rendered artifact, which ends in `checks: FAIL`.
    ChecksFailed {
        /// The artifact's name.
        artifact: &'static str,
        /// The rendered artifact.
        text: String,
    },
}

impl ReproError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> Self {
        ReproError::Io {
            path: path.display().to_string(),
            source,
        }
    }
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::Io { path, source } => write!(f, "{path}: {source}"),
            ReproError::Format => write!(f, "formatting the artifact failed"),
            ReproError::ChecksFailed { artifact, .. } => {
                write!(f, "{artifact}: acceptance checks failed")
            }
        }
    }
}

impl std::error::Error for ReproError {}

impl From<fmt::Error> for ReproError {
    fn from(_: fmt::Error) -> Self {
        ReproError::Format
    }
}

/// Everything the artifacts share at one scale: the worker pool, the
/// [`Suite`] and Table 2's evaluation grid, each built on first use and
/// then reused by every artifact.
pub(crate) struct Ctx {
    /// The scale every artifact rendered with this context runs at.
    pub(crate) scale: ExperimentScale,
    /// The worker pool the artifacts fan their cells out over.
    pub(crate) pool: Pool,
    suite: OnceLock<Suite>,
    table2_grid: OnceLock<Vec<RunResult>>,
}

impl Ctx {
    fn new(scale: ExperimentScale, pool: Pool) -> Self {
        Self {
            scale,
            pool,
            suite: OnceLock::new(),
            table2_grid: OnceLock::new(),
        }
    }

    /// The suite at this context's scale, built on the first call.
    pub(crate) fn suite(&self) -> &Suite {
        self.suite.get_or_init(|| Suite::build(self.scale))
    }

    /// Every run of Table 2, in its row order: scenario, then protocol
    /// of `AdaptiveProtocol::all()`, then the device's paper SLOs. Run on
    /// the first call, all cells in one fan-out.
    pub(crate) fn table2_grid(&self) -> &[RunResult] {
        self.table2_grid.get_or_init(|| tables::table2_grid(self))
    }

    /// Table 2's TX2 no-contention runs, which Figures 3 and 4 break
    /// down: the first scenario of [`Ctx::table2_grid`], every protocol
    /// at the TX2's paper SLOs in order.
    pub(crate) fn tx2_grid(&self) -> &[RunResult] {
        let cells = AdaptiveProtocol::all().len() * DeviceKind::JetsonTx2.paper_slos_ms().len();
        &self.table2_grid()[..cells]
    }
}

/// The driver's arguments: `[small|paper] [--check] [ARTIFACT…]`.
#[derive(Debug, Clone)]
pub struct Args {
    /// The scale to run every artifact at; `None` runs each at its
    /// committed scale.
    scale: Option<ExperimentScale>,
    /// Compare with the committed files instead of writing them.
    check: bool,
    /// The artifacts to run, in order.
    artifacts: Vec<&'static Artifact>,
}

/// An argument the driver does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        write!(
            f,
            "{}\nusage: reproduce [small|paper] [--check] [ARTIFACT...]\nartifacts: {}",
            self.0,
            names.join(" ")
        )
    }
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, UsageError> {
        let mut parsed = Args {
            scale: None,
            check: false,
            artifacts: Vec::new(),
        };
        for arg in args {
            let scale = match arg.as_str() {
                "small" => Some(ExperimentScale::Small),
                "paper" => Some(ExperimentScale::Paper),
                _ => None,
            };
            if let Some(scale) = scale {
                if parsed.scale.replace(scale).is_some() {
                    return Err(UsageError(format!("scale given twice at '{arg}'")));
                }
            } else if arg == "--check" {
                parsed.check = true;
            } else if let Some(a) = ARTIFACTS.iter().find(|a| a.name == arg) {
                parsed.artifacts.push(a);
            } else {
                return Err(UsageError(format!("unknown argument '{arg}'")));
            }
        }
        if parsed.artifacts.is_empty() {
            parsed.artifacts = ARTIFACTS.iter().collect();
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, UsageError> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    fn names(args: &Args) -> Vec<&'static str> {
        args.artifacts.iter().map(|a| a.name).collect()
    }

    #[test]
    fn parse_defaults_to_every_artifact_at_its_committed_scale() {
        let a = args(&[]).unwrap();
        assert_eq!(a.scale, None);
        assert!(!a.check);
        assert_eq!(a.artifacts.len(), ARTIFACTS.len());
    }

    #[test]
    fn parse_reads_scale_flag_and_artifacts_in_any_order() {
        let a = args(&["--check", "table2", "paper", "serve_scaling"]).unwrap();
        assert_eq!(a.scale, Some(ExperimentScale::Paper));
        assert!(a.check);
        assert_eq!(names(&a), vec!["table2", "serve_scaling"]);
        assert_eq!(
            args(&["small"]).unwrap().scale,
            Some(ExperimentScale::Small)
        );
    }

    #[test]
    fn parse_rejects_unknown_values() {
        for bad in [
            &["medium"][..],
            &["--chek"],
            &["table5"],
            &["small", "paper"],
            &["Table2"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_name_round_trips_and_files_are_distinct() {
        let mut files = std::collections::BTreeSet::new();
        for a in &ARTIFACTS {
            assert_eq!(names(&args(&[a.name]).unwrap()), vec![a.name]);
            assert!(files.insert(a.file()));
        }
    }

    #[test]
    fn write_rule_over_every_artifact_scale_and_check_flag() {
        for a in &ARTIFACTS {
            for scale in [ExperimentScale::Small, ExperimentScale::Paper] {
                for check in [false, true] {
                    let expected = match (scale == a.scale, check) {
                        (false, _) => Action::Print,
                        (true, true) => Action::Check,
                        (true, false) => Action::Write,
                    };
                    assert_eq!(
                        action(a, scale, check),
                        expected,
                        "{} {scale:?} {check}",
                        a.name
                    );
                }
            }
            let small = matches!(a.name, "trace" | "faults");
            assert_eq!(a.scale == ExperimentScale::Small, small, "{}", a.name);
        }
    }

    /// Figure 3's "Meets SLO" column and Table 2's mAP cells are read
    /// from the same TX2 no-contention runs, so the two rendered
    /// artifacts agree on every cell: "yes" exactly where Table 2 prints
    /// an mAP rather than "F".
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs 84 small-scale cells: release only")]
    fn figure3_verdicts_match_table2_on_the_shared_grid() {
        let ctx = Ctx::new(ExperimentScale::Small, Pool::from_env());
        let table2 = tables::table2(&ctx).unwrap();
        let figure3 = figures::figure3(&ctx).unwrap();
        let csv = |text: &str| -> Vec<String> {
            let (_, rows) = text.split_once("CSV:\n").expect("a CSV section");
            rows.lines().skip(1).map(str::to_string).collect()
        };

        let mut from_table2 = Vec::new();
        for row in csv(&table2) {
            let Some(cells) = row.strip_prefix("\"TX2, 33.3/50/100\",0%,") else {
                continue;
            };
            let fields: Vec<&str> = cells.split(',').collect();
            let slos = DeviceKind::JetsonTx2.paper_slos_ms();
            for (slo, map) in slos.iter().zip(fields[1].split('/')) {
                from_table2.push((fields[0].to_string(), format!("{slo}"), map != "F"));
            }
        }
        let from_figure3: Vec<(String, String, bool)> = csv(&figure3)
            .iter()
            .filter(|row| !row.is_empty())
            .map(|row| {
                let fields: Vec<&str> = row.split(',').collect();
                let meets = fields[fields.len() - 1] == "yes";
                (fields[0].to_string(), fields[1].to_string(), meets)
            })
            .collect();
        assert_eq!(from_table2.len(), 21);
        assert_eq!(from_figure3, from_table2);
    }

    #[test]
    fn settle_writes_only_on_write_and_check_never_writes() {
        let dir = std::env::temp_dir().join(format!("lr-bench-settle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = ARTIFACTS.iter().find(|a| a.name == "faults").unwrap();
        let path = dir.join(a.file());
        std::fs::write(&path, "committed\n").unwrap();

        // A failing check leaves the committed file alone.
        assert!(!settle(a, Action::Check, "fresh\n", &dir).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "committed\n");
        assert!(settle(a, Action::Check, "committed\n", &dir).unwrap());
        // Printing at the wrong scale leaves it alone too.
        assert!(settle(a, Action::Print, "small-scale\n", &dir).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "committed\n");
        // Only a write replaces it.
        assert!(settle(a, Action::Write, "fresh\n", &dir).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "fresh\n");

        // A check against a missing file fails without creating it.
        std::fs::remove_file(&path).unwrap();
        assert!(!settle(a, Action::Check, "fresh\n", &dir).unwrap());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

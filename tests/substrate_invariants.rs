//! Integration tests over the substrate crates: the invariants the
//! scheduler's correctness silently depends on.

use lr_device::{DeviceKind, DeviceSim, OpUnit};
use lr_features::{FeatureKind, HEAVY_FEATURE_KINDS};
use lr_kernels::branch::{default_catalog, one_stage_catalog};
use lr_kernels::{AdaScaleMs, Branch, DetectorFamily, Mbek, TrackerKind};
use lr_obs::NullSink;
use lr_video::{Video, VideoSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn video(seed: u64, frames: usize) -> Video {
    Video::generate(VideoSpec {
        id: 0,
        seed,
        width: 640.0,
        height: 480.0,
        num_frames: frames,
    })
}

/// The whole experiment stack depends on branch keys being stable across
/// processes (preheating, switching bookkeeping, Figure 4/5 aggregation).
#[test]
fn branch_keys_are_stable_and_unique_across_catalogs() {
    let mut keys: Vec<u64> = default_catalog().iter().map(|b| b.key()).collect();
    keys.extend(one_stage_catalog().iter().map(|b| b.key()));
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    // One-stage catalog branches with the same knobs as frcnn ones share
    // keys on purpose (the key encodes knobs, not family) — but within
    // each catalog keys must be unique, and the canonical frcnn/one-stage
    // overlap is exactly the nprop=100 subset.
    assert!(n - keys.len() <= one_stage_catalog().len());
    // Spot-check a canonical key value so accidental reordering of the
    // key bit layout is caught.
    let b = Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4);
    assert_eq!(
        b.key(),
        Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4).key()
    );
}

/// The detector must degrade monotonically as the GoF ages under
/// tracking: the MBEK's per-frame output quality within a GoF cannot be
/// better at the end than at detection time (statistically).
#[test]
fn tracked_quality_decays_within_gof() {
    let v = video(101, 320);
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
    let mut mbek = Mbek::new(
        DetectorFamily::FasterRcnn,
        Branch::tracked(576, 100, TrackerKind::MedianFlow, 20, 4),
    );
    let mut first_iou = 0.0f32;
    let mut last_iou = 0.0f32;
    let mut n = 0;
    let mut r = lr_kernels::GofResult::default();
    for start in (0..300).step_by(20) {
        mbek.run_gof(
            &v.frames[start..start + 20],
            &mut dev,
            &mut NullSink,
            &mut r,
        )
        .expect("no fault plan");
        let iou_of = |dets: &[lr_kernels::Detection], truth: &lr_video::FrameTruth| -> f32 {
            let mut total = 0.0;
            let mut count = 0;
            for d in dets {
                if let Some(id) = d.gt_id {
                    if let Some(o) = truth.objects.iter().find(|o| o.id == id) {
                        total += d.bbox.iou(&o.bbox);
                        count += 1;
                    }
                }
            }
            if count == 0 {
                return f32::NAN;
            }
            total / count as f32
        };
        let f = iou_of(r.frame(0), &v.frames[start]);
        let l = iou_of(r.frame(19), &v.frames[start + 19]);
        if f.is_finite() && l.is_finite() {
            first_iou += f;
            last_iou += l;
            n += 1;
        }
    }
    assert!(n > 3, "not enough GoFs with tracked objects");
    assert!(
        first_iou / n as f32 > last_iou / n as f32,
        "IoU should decay across the GoF: first {} last {}",
        first_iou / n as f32,
        last_iou / n as f32
    );
}

/// Feature extraction must be independent of extraction order and of the
/// service's cache state.
#[test]
fn feature_extraction_is_cache_oblivious() {
    let v = video(102, 16);
    let mut fresh = litereconfig::FeatureService::new();
    let mut warmed = litereconfig::FeatureService::new();
    // Warm the second service on other frames first.
    for i in 0..10 {
        let _ = warmed.extract_heavy(FeatureKind::HoC, &v, i, None);
    }
    for kind in HEAVY_FEATURE_KINDS {
        if kind == FeatureKind::CPoP {
            continue;
        }
        let a = fresh.extract_heavy(kind, &v, 12, None);
        let b = warmed.extract_heavy(kind, &v, 12, None);
        assert_eq!(a, b, "{kind:?} differs with cache state");
    }
}

/// Charging order must not change totals: N ops of cost c advance the
/// clock by the sum of their returns regardless of interleaving.
#[test]
fn device_charges_are_additive() {
    let mut dev = DeviceSim::new(DeviceKind::AgxXavier, 30.0, 9);
    let mut total = 0.0;
    for i in 0..200 {
        let unit = if i % 3 == 0 { OpUnit::Cpu } else { OpUnit::Gpu };
        total += dev.charge(unit, (i % 7) as f64 + 0.5);
    }
    assert!((dev.now_ms() - total).abs() < 1e-6);
}

/// AdaScale-MS must react to content: on a high-clutter (small-object)
/// video it should spend more frames at high scales than on a sparse one.
#[test]
fn adascale_ms_scales_with_content() {
    // Find videos whose dominant clutter levels differ.
    let mut cluttered_video = None;
    let mut sparse_video = None;
    for seed in 200..260 {
        let v = video(seed, 240);
        let cluttered_frames = v
            .frames
            .iter()
            .filter(|f| f.regime.clutter == lr_video::ClutterLevel::Cluttered)
            .count();
        let frac = cluttered_frames as f32 / v.frames.len() as f32;
        if frac > 0.8 && cluttered_video.is_none() {
            cluttered_video = Some(v);
        } else if frac < 0.2 && sparse_video.is_none() {
            sparse_video = Some(v);
        }
        if cluttered_video.is_some() && sparse_video.is_some() {
            break;
        }
    }
    let (Some(cl), Some(sp)) = (cluttered_video, sparse_video) else {
        // Regime mixes are random; skip quietly if no clean pair showed up.
        return;
    };
    let mean_scale = |v: &Video| {
        let mut ms = AdaScaleMs::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0u64;
        for f in v.frames.iter() {
            let _ = ms.step(f, &mut rng);
            total += ms.current_scale() as u64;
        }
        total as f64 / v.frames.len() as f64
    };
    assert!(
        mean_scale(&cl) > mean_scale(&sp),
        "cluttered content should push AdaScale to higher scales"
    );
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| {
            e.unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                .path()
        })
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace's crates under `crates/`, in path order.
fn crate_dirs() -> Vec<PathBuf> {
    let dir = root().join("crates");
    let mut crates: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| {
            e.unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                .path()
        })
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    assert_eq!(crates.len(), 11, "crates: {crates:?}");
    crates
}

/// The library code of a source file: its lines, numbered from 1, up
/// to its `#[cfg(test)]` module, without comment lines.
fn library_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, l)| l.trim() != "#[cfg(test)]")
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(i, l)| (i + 1, l))
}

/// `unsafe` is confined to lr-nn's AVX2 dispatch module: every library
/// crate forbids it except lr-nn, which denies it so that one module may
/// allow it, and no other source file mentions the lint or writes an
/// `unsafe` block, function or impl.
#[test]
fn unsafe_code_lives_only_in_the_nn_dispatch_module() {
    let dispatch = root().join("crates/nn/src/simd.rs");
    for krate in crate_dirs() {
        let nn = krate.ends_with("nn");
        let lib = std::fs::read_to_string(krate.join("src/lib.rs"))
            .unwrap_or_else(|e| panic!("{}/src/lib.rs: {e}", krate.display()));
        let want = if nn {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(
            lib.lines().any(|l| l.trim() == want),
            "{} lacks {want}",
            krate.display()
        );
        for file in rust_files(&krate.join("src")) {
            let text = std::fs::read_to_string(&file).expect("source file");
            for (n, line) in text.lines().enumerate() {
                let line = line.trim();
                let at = format!("{}:{}", file.display(), n + 1);
                if line.contains("unsafe_code") {
                    let allowed = line == "#![forbid(unsafe_code)]"
                        || (nn && line == "#![deny(unsafe_code)]")
                        || (file == dispatch && line == "#![allow(unsafe_code)]");
                    assert!(allowed, "{at}: unexpected `{line}`");
                }
                let writes_unsafe = ["unsafe {", "unsafe fn", "unsafe impl", "unsafe extern"]
                    .iter()
                    .any(|u| line.contains(u));
                assert!(
                    !writes_unsafe || file == dispatch,
                    "{at}: `unsafe` outside the dispatch module"
                );
            }
        }
    }
}

/// Clippy enforces D1, D2, P1 and O1 (DESIGN.md §9) only in a crate that
/// opts into the workspace lints, so every crate must: lr-bench through
/// its own table, which allows host timing and printing, every other
/// crate by inheriting the workspace table unchanged.
#[test]
fn every_crate_opts_into_the_workspace_lints() {
    for krate in crate_dirs() {
        let manifest = krate.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
        let opts_in = if krate.ends_with("bench") {
            text.contains("\n[lints.clippy]\n")
        } else {
            text.contains("\n[lints]\nworkspace = true\n")
        };
        assert!(
            opts_in,
            "{} does not opt into the workspace lints",
            manifest.display()
        );
    }
}

/// D3 and N1, which Clippy cannot carry: no ambient randomness (every
/// draw flows from a seed) and no `partial_cmp` (float orderings use the
/// NaN-total `total_cmp`), in the library code of every crate, the root
/// package and the examples.
#[test]
fn library_code_has_no_ambient_randomness_or_partial_cmp() {
    const BANNED: [(&str, &str); 4] = [
        ("thread_rng", "D3: seed every random draw"),
        ("from_entropy", "D3: seed every random draw"),
        ("OsRng", "D3: seed every random draw"),
        ("partial_cmp", "N1: compare floats with total_cmp"),
    ];
    let mut dirs: Vec<PathBuf> = crate_dirs().iter().map(|k| k.join("src")).collect();
    dirs.extend([root().join("src"), root().join("examples")]);
    for file in dirs.iter().flat_map(|d| rust_files(d)) {
        let text = std::fs::read_to_string(&file).expect("source file");
        for (n, line) in library_lines(&text) {
            for word in line.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                if let Some((token, why)) = BANNED.iter().find(|(t, _)| *t == word) {
                    panic!("{}:{n}: `{token}` ({why})", file.display());
                }
            }
        }
    }
}

/// Lint expectations in the library code under `crates/`: the four
/// `clippy::expect_used` sites whose panics cannot happen, two in
/// `core/src/predictor.rs` and two in `pool/src/lib.rs`. The number may
/// only fall.
const LINT_EXPECTATIONS: usize = 4;

/// The ratchet on suppressions: library code never `allow`s a rule lint,
/// and its `#[expect(clippy::…)]` attributes (which Clippy rejects once
/// they are unfulfilled) number [`LINT_EXPECTATIONS`].
#[test]
fn lint_expectations_match_the_committed_count() {
    const RULE_LINTS: [&str; 7] = [
        "disallowed_methods",
        "disallowed_types",
        "unwrap_used",
        "expect_used",
        "print_stdout",
        "print_stderr",
        "dbg_macro",
    ];
    let mut expectations = 0;
    for file in crate_dirs().iter().flat_map(|k| rust_files(&k.join("src"))) {
        let text = std::fs::read_to_string(&file).expect("source file");
        // Whitespace dropped, so an attribute rustfmt spreads over
        // several lines reads as one.
        let code: String = library_lines(&text)
            .flat_map(|(_, l)| l.chars())
            .filter(|c| !c.is_whitespace())
            .collect();
        expectations += code.matches("expect(clippy::").count();
        for allowed in code
            .split("allow(")
            .skip(1)
            .filter_map(|a| a.split(')').next())
        {
            if let Some(lint) = RULE_LINTS
                .iter()
                .find(|lint| allowed.contains(&format!("clippy::{lint}")))
            {
                panic!("{}: allows clippy::{lint}", file.display());
            }
        }
    }
    assert_eq!(
        expectations, LINT_EXPECTATIONS,
        "#[expect(clippy::…)] attributes in library code"
    );
}

/// `pub fn`s that no file outside their crate's sources calls yet, as
/// `(crate directory, function, reason)`. An entry that no longer
/// applies fails the scan as well.
const PUB_FN_EXCEPTIONS: [(&str, &str, &str); 2] = [
    (
        "core",
        "cache_stats",
        "the host-time view (ROADMAP item 5) is its first caller",
    ),
    (
        "core",
        "kind",
        "`CacheStats::kind` reads what `cache_stats` returns, and waits with it",
    ),
];

/// How code outside comments and string literals uses a name.
#[derive(Clone, Copy, PartialEq)]
enum Use {
    /// `fn name`: a definition.
    Def,
    /// `name(`, `::name` or `name::<`: a call or a path.
    Path,
    /// `.name(`: a method call, on a receiver of unknown type.
    Method,
}

/// The names a source file's code defines, calls or reaches by path,
/// outside comment lines and string literals, and how. A name that is
/// only a word (a local variable, a field, a type's parameter) is none
/// of these.
fn name_uses(text: &str) -> Vec<(&str, Use)> {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut uses = Vec::new();
    for code in text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.split('"').step_by(2))
    {
        let mut start = None;
        for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
            match (start, is_word(c)) {
                (None, true) => start = Some(i),
                (Some(s), false) => {
                    let (before, after) = (&code[..s], &code[i..]);
                    let how = if before.ends_with("fn ") {
                        Some(Use::Def)
                    } else if after.starts_with('(') && before.ends_with('.') {
                        Some(Use::Method)
                    } else if before.ends_with("::")
                        || after.starts_with('(')
                        || after.starts_with("::<")
                    {
                        Some(Use::Path)
                    } else {
                        None
                    };
                    uses.extend(how.map(|how| (&code[s..i], how)));
                    start = None;
                }
                _ => {}
            }
        }
    }
    uses
}

/// The public surface is what callers use: every `pub fn` in a crate's
/// library code is called or named by path, outside comments and string
/// literals, in a file outside that crate's `src` (another crate's
/// sources, any crate's tests, the root package's `src`, `tests` and
/// `examples`, or hostbench's sources). A method call `.name(` counts
/// only from code that defines no `fn name` of its own. Anything else
/// is `pub(crate)` or private, or waits on [`PUB_FN_EXCEPTIONS`] with
/// its reason.
#[test]
fn every_pub_fn_is_named_outside_its_crate() {
    let crates = crate_dirs();
    let mut dirs: Vec<PathBuf> = crates.iter().map(|k| k.join("src")).collect();
    dirs.extend(
        crates
            .iter()
            .map(|k| k.join("tests"))
            .filter(|d| d.is_dir()),
    );
    dirs.extend(["src", "tests", "examples", "hostbench/benches"].map(|d| root().join(d)));
    let texts: Vec<(PathBuf, String)> = dirs
        .iter()
        .flat_map(|d| rust_files(d))
        .map(|f| {
            let text = std::fs::read_to_string(&f).expect("source file");
            (f, text)
        })
        .collect();
    // A method call counts unless the calling code defines a function of
    // that name itself, which the call may well reach instead. The
    // calling code is a crate's `src` or `tests`, or one of the root's
    // directories.
    let package = |f: &Path| -> PathBuf {
        let rel = f.strip_prefix(root()).expect("file under the root");
        let depth = if rel.starts_with("crates") { 3 } else { 1 };
        rel.components().take(depth).collect()
    };
    let mut own_fns: BTreeMap<PathBuf, BTreeSet<&str>> = BTreeMap::new();
    for (f, text) in &texts {
        let defs = name_uses(text)
            .into_iter()
            .filter(|&(_, how)| how == Use::Def);
        own_fns
            .entry(package(f))
            .or_default()
            .extend(defs.map(|(name, _)| name));
    }
    let mut uncalled = Vec::new();
    let mut excepted = BTreeSet::new();
    for krate in &crates {
        let src = krate.join("src");
        let outside: BTreeSet<&str> = texts
            .iter()
            .filter(|(f, _)| !f.starts_with(&src))
            .flat_map(|(f, text)| {
                let own = &own_fns[&package(f)];
                name_uses(text)
                    .into_iter()
                    .filter(move |&(name, how)| match how {
                        Use::Def => false,
                        Use::Path => true,
                        Use::Method => !own.contains(name),
                    })
                    .map(|(name, _)| name)
            })
            .collect();
        let name = krate
            .file_name()
            .and_then(|n| n.to_str())
            .expect("crate name");
        for (file, text) in texts.iter().filter(|(f, _)| f.starts_with(&src)) {
            for (n, line) in library_lines(text) {
                let line = line.trim_start();
                let Some(rest) = line
                    .strip_prefix("pub fn ")
                    .or_else(|| line.strip_prefix("pub const fn "))
                else {
                    continue;
                };
                let f = rest.split(['(', '<']).next().unwrap_or(rest);
                if outside.contains(f) {
                    continue;
                }
                if PUB_FN_EXCEPTIONS
                    .iter()
                    .any(|&(k, e, _)| (k, e) == (name, f))
                {
                    excepted.insert((name, f));
                } else {
                    uncalled.push(format!("{}:{n}: `{f}`", file.display()));
                }
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "`pub fn`s named nowhere outside their crate (make them pub(crate), \
         or delete them):\n{}",
        uncalled.join("\n")
    );
    let stale: Vec<_> = PUB_FN_EXCEPTIONS
        .iter()
        .filter(|&&(k, f, _)| !excepted.contains(&(k, f)))
        .collect();
    assert!(
        stale.is_empty(),
        "stale PUB_FN_EXCEPTIONS entries: {stale:?}"
    );
}

//! Wall-clock benchmark ledger for the parallel runtime (`lr-pool`).
//!
//! Times the canonical workloads once in serial mode (1 worker) and once
//! in parallel mode, and writes `BENCH_PIPELINE.json` with one entry per
//! workload: `{workload, wall_ms, wall_ms_serial, speedup_vs_serial,
//! threads}` plus the host CPU count. The numbers are honest host
//! measurements — on a single-core CI box the pool speedups hover around
//! 1.0 (the determinism contract guarantees identical *results* either
//! way); the blocked-matmul workload measures the single-core kernel win
//! and is the portable regression signal.
//!
//! Usage: `cargo run --release -p lr-bench --bin walltime [small|paper] [--check]`
//!
//! `--check` compares the fresh measurement against the committed
//! `BENCH_PIPELINE.json` before overwriting it and exits non-zero if any
//! workload's `speedup_vs_serial` fell below 75% of the committed value.

use std::time::Instant;

use litereconfig::pipeline::{run_adaptive, RunConfig};
use litereconfig::trainer::train_scheduler;
use litereconfig::{FeatureService, Policy};
use lr_bench::{scale_from_args, Suite};
use lr_device::DeviceKind;
use lr_kernels::DetectorFamily;
use lr_nn::Matrix;
use lr_serve::{serve_traced, ServeConfig, SloClass, StreamSpec};

const LEDGER: &str = "BENCH_PIPELINE.json";
/// A fresh speedup below this fraction of the committed one is a
/// regression. Ratios of speedups transfer across hosts far better than
/// raw wall-clock, which is why `--check` compares them instead.
const REGRESSION_FACTOR: f64 = 0.75;
/// Workloads whose committed speedup is below this never gate: a ratio
/// near 1.0 (e.g. any pool workload measured on a single-core host) is
/// run-to-run noise, not a win that can regress.
const CHECKABLE_SPEEDUP: f64 = 1.2;

struct Entry {
    workload: &'static str,
    wall_ms: f64,
    wall_ms_serial: f64,
    threads: usize,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.wall_ms_serial / self.wall_ms.max(1e-9)
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn mixed_specs(n: usize, frames: usize) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            let class = match i % 3 {
                0 => SloClass::Gold,
                1 => SloClass::Silver,
                _ => SloClass::Bronze,
            };
            StreamSpec::synthetic(i as u32, class, frames)
        })
        .collect()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let scale = scale_from_args();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Exercise the parallel code path even on a single-core host; the
    // ledger records both the worker count and `host_cpus`, so a reader
    // can tell an oversubscribed measurement from a real one.
    let par_threads = host_cpus.max(2);
    let suite = Suite::build(scale);
    let trained = suite.frcnn.clone();
    let raster_size = suite.svc.raster_size();
    let mut entries: Vec<Entry> = Vec::new();

    // Single-stream adaptive pipeline: no pool inside, so there is no
    // serial-vs-parallel A/B to run — the entry pins the hot-path
    // (blocked matmul + feature caching) wall-clock with speedup pinned
    // at 1.0 so run-to-run noise can never masquerade as a gateable
    // win (or a regression).
    {
        let run = || {
            let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 33.3, 77);
            let mut svc = FeatureService::with_raster_size(raster_size);
            run_adaptive(
                &suite.val_videos,
                trained.clone(),
                Policy::CostBenefit,
                &cfg,
                &mut svc,
            );
        };
        run(); // warm-up: allocator and page-cache effects
        let wall = time_ms(run).min(time_ms(run));
        entries.push(Entry {
            workload: "pipeline_single",
            wall_ms: wall,
            wall_ms_serial: wall,
            threads: 1,
        });
    }

    // Multi-stream serve rounds: the dispatcher steps each round's
    // streams on the pool; `pool_threads` is the explicit knob.
    for (name, n) in [("serve_round_8", 8usize), ("serve_round_32", 32)] {
        let specs = mixed_specs(n, 16);
        let run = |threads: usize| {
            let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();
            cfg.seed = 42;
            cfg.pool_threads = threads;
            let mut svc = FeatureService::with_raster_size(raster_size);
            serve_traced(&specs, trained.clone(), Policy::CostBenefit, &cfg, &mut svc);
        };
        run(1); // warm-up
        let serial = time_ms(|| run(1));
        let wall = time_ms(|| run(par_threads));
        entries.push(Entry {
            workload: name,
            wall_ms: wall,
            wall_ms_serial: serial,
            threads: par_threads,
        });
    }

    // Trainer: per-feature accuracy models fan out on the env-sized pool.
    {
        let run = || {
            train_scheduler(
                &suite.frcnn_dataset,
                DetectorFamily::FasterRcnn,
                &suite.scale.train_config(),
            );
        };
        std::env::set_var(lr_pool::THREADS_ENV, "1");
        run(); // warm-up
        let serial = time_ms(run);
        std::env::set_var(lr_pool::THREADS_ENV, par_threads.to_string());
        let wall = time_ms(run);
        std::env::remove_var(lr_pool::THREADS_ENV);
        entries.push(Entry {
            workload: "trainer_epoch",
            wall_ms: wall,
            wall_ms_serial: serial,
            threads: par_threads,
        });
    }

    // Dense matmul: pool row-partitioning (bit-identical to serial) and
    // the blocked kernel against the textbook loop (the single-core win).
    {
        let reps = 8;
        let a = random_matrix(192, 256, 0xA);
        let b = random_matrix(256, 160, 0xB);
        let pool = lr_pool::Pool::new(par_threads);
        let serial = time_ms(|| {
            for _ in 0..reps {
                std::hint::black_box(a.matmul(&b));
            }
        });
        let wall = time_ms(|| {
            for _ in 0..reps {
                std::hint::black_box(a.matmul_with_pool(&b, &pool));
            }
        });
        entries.push(Entry {
            workload: "matmul_dense_pool",
            wall_ms: wall,
            wall_ms_serial: serial,
            threads: par_threads,
        });

        let naive = time_ms(|| {
            for _ in 0..reps {
                std::hint::black_box(a.matmul_naive(&b));
            }
        });
        let blocked = time_ms(|| {
            for _ in 0..reps {
                std::hint::black_box(a.matmul(&b));
            }
        });
        entries.push(Entry {
            workload: "matmul_blocked_kernel",
            wall_ms: blocked,
            wall_ms_serial: naive,
            threads: 1,
        });
    }

    for e in &entries {
        eprintln!(
            "[walltime] {:<22} serial {:>9.1} ms  measured {:>9.1} ms  speedup {:.2}x  ({} workers)",
            e.workload,
            e.wall_ms_serial,
            e.wall_ms,
            e.speedup(),
            e.threads
        );
    }

    let mut failed = false;
    if check {
        match std::fs::read_to_string(LEDGER) {
            Ok(committed) => {
                for e in &entries {
                    let Some(baseline) = committed_speedup(&committed, e.workload) else {
                        eprintln!(
                            "[walltime] CHECK: {} not in committed ledger, skipping",
                            e.workload
                        );
                        continue;
                    };
                    if baseline < CHECKABLE_SPEEDUP {
                        eprintln!(
                            "[walltime] CHECK: {} committed speedup {baseline:.2}x is noise-level, not gating",
                            e.workload
                        );
                        continue;
                    }
                    if e.speedup() < REGRESSION_FACTOR * baseline {
                        eprintln!(
                            "[walltime] CHECK FAILED: {} speedup {:.2}x < {:.0}% of committed {:.2}x",
                            e.workload,
                            e.speedup(),
                            REGRESSION_FACTOR * 100.0,
                            baseline
                        );
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("[walltime] CHECK FAILED: cannot read committed {LEDGER}: {e}");
                failed = true;
            }
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"wall_ms\": {:.1}, \"wall_ms_serial\": {:.1}, \"speedup_vs_serial\": {:.3}, \"threads\": {}}}{}\n",
            e.workload,
            e.wall_ms,
            e.wall_ms_serial,
            e.speedup(),
            e.threads,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(LEDGER, &json).expect("write BENCH_PIPELINE.json");
    println!("{json}");
    eprintln!("[walltime] wrote {LEDGER}");
    assert!(!failed, "walltime regression check failed");
}

/// He-uniform-ish deterministic matrix for the matmul workloads.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut z = seed;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            (x as f64 / u64::MAX as f64) as f32 - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Pulls `speedup_vs_serial` for one workload out of the committed
/// ledger. The format is our own, so a string scan is all it takes.
fn committed_speedup(json: &str, workload: &str) -> Option<f64> {
    let obj_start = json.find(&format!("\"workload\": \"{workload}\""))?;
    let tail = &json[obj_start..];
    let tail = &tail[..tail.find('}').unwrap_or(tail.len())];
    let field = tail.find("\"speedup_vs_serial\":")?;
    let num = tail[field + "\"speedup_vs_serial\":".len()..]
        .trim_start()
        .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .next()?;
    num.parse().ok()
}

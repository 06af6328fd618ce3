//! Multi-core schedulability sweep under shared-bus bandwidth regulation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmcs-bench --bin multicore -- \
//!     [--cores M] [--sets N] [--seed S] [--period TICKS] \
//!     [--util U] [--gamma G] [--jobs N] [--no-cache] \
//!     [--cross-validate N]
//! ```
//!
//! Sweeps per-core regulation budgets (fractions of the fair share
//! `P / cores`) against all partitioning heuristics on randomly generated
//! workloads: each task set is packed onto the `M`-core regulated
//! platform with contention-aware admission and the schedulability ratio
//! per heuristic is reported. Every schedulable first-fit partition is
//! additionally multi-core cross-validated — per-core adversarial plans
//! on the inflated sets *plus* a coupled replay of all DMA transfers
//! through the shared-bus arbiter, checking observed service times
//! against the analytical inflation bound. `--cross-validate N` sets the
//! adversarial plans per partition (default 2; `0` disables the check).
//!
//! Results go to `target/experiments/multicore.csv` and a perf record
//! (including bus-replay counters) to `BENCH_multicore.json` at the
//! repository root. Any refutation prints a machine-readable line —
//! byte-identical for every `--jobs` value — and makes the binary exit
//! nonzero.

use std::path::PathBuf;

use pmcs_bench::cli::{analysis_defaults, Args, CliError};
use pmcs_bench::report::text_table;
use pmcs_bench::{
    ascii_chart, sweep_multicore, write_csv, MulticoreConfig, PerfPoint, PerfRecord, SweepRow,
};
use pmcs_model::Time;

const USAGE: &str = "usage: multicore [--cores M] [--sets N] [--seed S] [--period TICKS] \
                     [--util U] [--gamma G] [--jobs N] [--no-cache] [--cross-validate N]";

fn main() {
    let mut cores = 4usize;
    let mut sets: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut period: Option<i64> = None;
    let mut util: Option<f64> = None;
    let mut gamma: Option<f64> = None;
    let mut analysis = analysis_defaults();
    let mut plans_flag: Option<usize> = None;
    Args::from_env(USAGE).parse(|arg, args| {
        match arg {
            "--cores" => cores = args.value_with(arg, |v| v.parse().ok().filter(|&m| m >= 1))?,
            "--sets" => sets = Some(args.value(arg)?),
            "--seed" => seed = Some(args.value(arg)?),
            "--period" => {
                period = Some(args.value_with(arg, |v| v.parse().ok().filter(|&t| t > 0))?);
            }
            "--util" => util = Some(args.value(arg)?),
            "--gamma" => gamma = Some(args.value(arg)?),
            "--jobs" => analysis.jobs = args.jobs(arg)?,
            "--no-cache" => analysis.cache = false,
            "--cross-validate" => plans_flag = Some(args.value(arg)?),
            _ => return Err(CliError::unknown(arg)),
        }
        Ok(())
    });
    // Workload defaults (memory intensity in particular) scale with the
    // core count, so the base config is built only after parsing.
    let mut mc = MulticoreConfig::for_cores(cores);
    if let Some(v) = sets {
        mc.sets = v;
    }
    if let Some(v) = seed {
        mc.seed = v;
    }
    if let Some(v) = period {
        mc.period = Time::from_ticks(v);
    }
    if let Some(v) = util {
        mc.util_per_core = v;
    }
    if let Some(v) = gamma {
        mc.gamma = v;
    }
    mc.analysis = analysis;
    if let Some(plans) = plans_flag {
        mc.plans = plans;
    }

    println!(
        "=== Multi-core sweep — {} cores, bus period {}, {} sets/level, seed {}, \
         {} jobs, {} plan(s)/partition ===",
        mc.cores, mc.period, mc.sets, mc.seed, mc.analysis.jobs, mc.plans,
    );
    let out = sweep_multicore(&mc);

    // Reuse the single-core reporting helpers via the shared row shape
    // (x = budget fraction of the fair share).
    let rows: Vec<SweepRow> = out
        .rows
        .iter()
        .map(|r| SweepRow {
            x: r.fraction,
            ratios: r.ratios.clone(),
            failures: vec![r.failures as usize],
            sets: r.sets,
        })
        .collect();
    println!("{}", text_table(&rows, &out.labels, "Q/share"));
    println!("{}", ascii_chart(&rows, &out.labels, "Q/share"));
    let path = PathBuf::from("target/experiments/multicore.csv");
    write_csv(&path, "Q/share", &out.labels, &rows).expect("write csv");
    println!("wrote {} ({:.1}s wall)", path.display(), out.wall_secs);
    let failures: u64 = out.rows.iter().map(|r| r.failures).sum();
    if failures > 0 {
        eprintln!("multicore: {failures} analyses FAILED (counted as unschedulable)");
    }
    if mc.plans > 0 {
        println!(
            "cross-validation: {} plans simulated, {} traces validated, \
             {} bus transfers replayed, {} refutations",
            out.sim.plans_run, out.sim.traces_validated, out.transfers, out.sim.refutations,
        );
    }

    let mut perf = PerfRecord::new("multicore");
    perf.jobs = out.jobs;
    perf.wall_secs = out.wall_secs;
    perf.cache = out.cache;
    for (label, secs) in &out.point_secs {
        perf.points.push(PerfPoint {
            label: format!("multicore:{label}"),
            secs: *secs,
        });
    }
    perf.extra_num("cores", mc.cores as f64);
    perf.extra_num("period_ticks", mc.period.as_ticks() as f64);
    perf.extra_num("sets_per_level", mc.sets as f64);
    perf.extra_num("analysis_failures", failures as f64);
    perf.extra_num("bus_transfers_checked", out.transfers as f64);
    perf.extra_str(
        "cache_enabled",
        if mc.analysis.cache { "yes" } else { "no" },
    );
    perf.extra_solver("solver_total", out.solver);
    perf.extra_sim(&out.sim);
    let path = perf.write().expect("write perf record");
    println!("perf record: {}", path.display());

    pmcs_bench::exit_on_refutations(&out.refutations);
}

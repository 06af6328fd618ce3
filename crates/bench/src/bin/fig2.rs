//! Regenerates one inset of Figure 2 (schedulability-ratio comparison).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmcs-bench --bin fig2 -- <a|b|c|d|e|f|all> \
//!     [--sets N] [--seed S] [--jobs N] [--no-cache] [--audit] \
//!     [--cross-validate N] [--baseline] [--emit-certs]
//! ```
//!
//! `--jobs N` (default all cores) sets the worker count; results are
//! byte-identical for every thread count. `--audit` cross-checks every
//! delay bound against the audited MILP formulation. `--no-cache`
//! disables the window-level delay-bound cache. `--cross-validate N`
//! simulates every analyzed set under `N` adversarial release plans per
//! approach, validates the traces, and checks observed worst responses
//! against the analytical WCRT bounds; any refutation is printed as a
//! machine-readable line (identical for every thread count) and makes
//! the binary exit nonzero. `--baseline` additionally reruns everything
//! single-threaded and uncached to measure the parallel speedup.
//! `--emit-certs` re-certifies every analyzed
//! set *after* the timed sweep — the proposed analysis re-runs with its
//! proof transcript recorded and the bundle is validated by the
//! independent `pmcs-cert` checker; `cert_emitted`/`cert_checked`/
//! `cert_rejected` counters land in `BENCH_fig2.json`, the CSV rows are
//! byte-identical with the flag on or off, and any rejected certificate
//! makes the binary exit nonzero.
//!
//! Results are printed as a table plus an ASCII chart and written to
//! `target/experiments/fig2<inset>.csv`; a machine-readable perf record
//! (including the analysis-failure count) goes to `BENCH_fig2.json` at
//! the repository root.

use std::path::PathBuf;
use std::time::Instant;

use pmcs_analysis::Registry;
use pmcs_bench::cli::{analysis_defaults, Args, CliError};
use pmcs_bench::report::text_table;
use pmcs_bench::{
    ascii_chart, certify_sweep, fig2_inset, sweep_with, write_csv, CertSummary, Fig2Inset,
    PerfPoint, PerfRecord,
};
use pmcs_core::{CacheStats, SolverStats};

const USAGE: &str = "usage: fig2 [a|b|c|d|e|f|all]... [--sets N] [--seed S] [--jobs N] \
                     [--no-cache] [--audit] [--cross-validate N] [--baseline] [--emit-certs]";

fn main() {
    let mut insets: Vec<Fig2Inset> = Vec::new();
    let mut sets_per_point = 100usize;
    let mut seed = 0xDAC2020u64;
    let mut cfg = analysis_defaults();
    let mut baseline = false;
    Args::from_env(USAGE).parse(|arg, args| {
        match arg {
            "--sets" => sets_per_point = args.value(arg)?,
            "--seed" => seed = args.value(arg)?,
            "--jobs" => cfg.jobs = args.jobs(arg)?,
            "--no-cache" => cfg.cache = false,
            "--audit" => cfg.audit = true,
            "--cross-validate" => cfg.cross_validate = args.value(arg)?,
            "--baseline" => baseline = true,
            "--emit-certs" => cfg.emit_certs = true,
            "all" => insets.extend(Fig2Inset::ALL),
            other => match Fig2Inset::parse(other) {
                Some(i) => insets.push(i),
                None if other.starts_with('-') => return Err(CliError::unknown(other)),
                None => {
                    return Err(CliError::Usage(format!(
                        "unknown inset {other:?}; use a..f or 'all'"
                    )))
                }
            },
        }
        Ok(())
    });
    if insets.is_empty() {
        insets.extend(Fig2Inset::ALL);
    }
    let registry = Registry::standard();

    let mut perf = PerfRecord::new("fig2");
    perf.jobs = cfg.jobs;
    let mut cache_stats = CacheStats::default();
    let mut failures = 0usize;
    let mut sim = pmcs_analysis::SimCounters::default();
    let mut refutations: Vec<String> = Vec::new();
    let mut rows_by_inset = Vec::new();
    let mut solver_by_label: Vec<(String, SolverStats)> = Vec::new();
    let started = Instant::now();
    for &inset in &insets {
        let inset_started = Instant::now();
        let points = fig2_inset(inset);
        println!(
            "=== Figure 2({}) — {} [{} sets/point, seed {seed}, {} jobs, cache {}] ===",
            inset.letter(),
            inset.description(),
            sets_per_point,
            cfg.jobs,
            if cfg.cache { "on" } else { "off" },
        );
        let outcome = sweep_with(&points, sets_per_point, seed, &registry, &cfg);
        println!(
            "{}",
            text_table(&outcome.rows, &outcome.labels, inset.x_label())
        );
        println!(
            "{}",
            ascii_chart(&outcome.rows, &outcome.labels, inset.x_label())
        );
        let path = PathBuf::from(format!("target/experiments/fig2{}.csv", inset.letter()));
        write_csv(&path, inset.x_label(), &outcome.labels, &outcome.rows).expect("write csv");
        println!(
            "wrote {} ({:.1}s wall, cache: {})\n",
            path.display(),
            inset_started.elapsed().as_secs_f64(),
            outcome.cache,
        );
        if outcome.total_failures() > 0 {
            eprintln!(
                "fig2{}: {} analyses FAILED (counted as unschedulable in the ratios)",
                inset.letter(),
                outcome.total_failures()
            );
        }
        if cfg.cross_validate > 0 {
            println!(
                "cross-validation: {} plans simulated, {} traces validated, {} refutations",
                outcome.sim.plans_run, outcome.sim.traces_validated, outcome.sim.refutations
            );
        }
        sim.merge(&outcome.sim);
        refutations.extend(
            outcome
                .refutations
                .iter()
                .map(|line| format!("fig2{} {line}", inset.letter())),
        );
        cache_stats.merge(outcome.cache);
        failures += outcome.total_failures();
        for (label, stats) in outcome.labels.iter().zip(&outcome.solver) {
            match solver_by_label.iter_mut().find(|(l, _)| l == label) {
                Some((_, agg)) => agg.merge(*stats),
                None => solver_by_label.push((label.clone(), *stats)),
            }
        }
        for (p, secs) in points.iter().zip(&outcome.point_secs) {
            perf.points.push(PerfPoint {
                label: format!("fig2{}:{}={:.2}", inset.letter(), inset.x_label(), p.x),
                secs: *secs,
            });
        }
        rows_by_inset.push((inset, outcome.rows));
    }
    perf.wall_secs = started.elapsed().as_secs_f64();
    perf.cache = cache_stats;
    perf.extra_num("sets_per_point", sets_per_point as f64);
    perf.extra_num("analysis_failures", failures as f64);
    perf.extra_str("cache_enabled", if cfg.cache { "yes" } else { "no" });
    for (label, stats) in &solver_by_label {
        perf.extra_solver(&format!("solver_{label}"), *stats);
    }
    perf.extra_sim(&sim);

    if baseline {
        // Rerun single-threaded and uncached for the speedup record, and
        // check the determinism contract on the way.
        let base_started = Instant::now();
        let base_cfg = cfg.clone().with_jobs(1).with_cache(false);
        for (inset, rows) in &rows_by_inset {
            let points = fig2_inset(*inset);
            let base = sweep_with(&points, sets_per_point, seed, &registry, &base_cfg);
            assert_eq!(
                &base.rows,
                rows,
                "fig2{}: single-threaded uncached rows diverged",
                inset.letter()
            );
        }
        let baseline_secs = base_started.elapsed().as_secs_f64();
        let speedup = baseline_secs / perf.wall_secs.max(1e-9);
        perf.extra_num("baseline_secs", baseline_secs);
        perf.extra_num("speedup_vs_serial_uncached", speedup);
        println!(
            "baseline (1 job, no cache): {baseline_secs:.1}s → speedup {speedup:.2}× \
             (rows byte-identical)"
        );
    }

    // Certificate pass: outside every timed region and after the CSVs
    // are written, so measured rows are byte-identical with the flag on
    // or off. Each analyzed set is regenerated from the same seeds,
    // re-analyzed with a recorded proof transcript, and the bundle is
    // validated by the independent pmcs-cert checker.
    let mut certs = CertSummary::default();
    if cfg.emit_certs {
        for &inset in &insets {
            let points = fig2_inset(inset);
            let inset_certs = certify_sweep(&points, sets_per_point, seed, cfg.jobs);
            println!(
                "fig2{}: certificates — {} bundle(s) emitted, {} proof(s) accepted, \
                 {} rejection(s) ({:.1}s)",
                inset.letter(),
                inset_certs.emitted,
                inset_certs.checked,
                inset_certs.rejected,
                inset_certs.secs,
            );
            for line in &inset_certs.rejections {
                eprintln!("fig2{} {line}", inset.letter());
            }
            certs.merge(&inset_certs);
        }
    }
    perf.extra_cert(&certs);
    perf.extra_str("certs_enabled", if cfg.emit_certs { "yes" } else { "no" });

    let path = perf.write().expect("write perf record");
    println!("perf record: {}", path.display());

    if !certs.ok() {
        eprintln!(
            "certificate pass REJECTED {} certificate(s)",
            certs.rejected
        );
        std::process::exit(1);
    }
    pmcs_bench::exit_on_refutations(&refutations);
}

//! Ablation study: where does the proposed approach's schedulability gain
//! come from?
//!
//! The paper (Section VIII) notes its formulation doubles as an improved
//! analysis of \[3\] when no task is latency-sensitive. This binary
//! decomposes the gap between the WP baseline and the full proposed
//! approach into:
//!
//! 1. **analysis tightening** — WP closed form → all-NLS MILP/engine
//!    (same protocol, sharper math);
//! 2. **LS support** — all-NLS → greedy LS marking (the protocol change:
//!    rules R3–R5).
//!
//! The three variants run through the `pmcs-analysis` registry: the
//! all-NLS column is the non-standard `wp-milp` analyzer, registered
//! here with one line — exactly the extension path a fifth approach
//! would take. The utilization steps are independent and run on the
//! worker pool (`--jobs N`, default all cores).
//! Each worker analyzes through its own engine stack with a shared
//! delay-bound cache, which pays off doubly here: the all-NLS pass and
//! the greedy pass solve many identical windows. A perf record goes to
//! `BENCH_ablation.json`.
//!
//! With `--cross-validate N`, every analyzed
//! set is simulated under `N` adversarial release plans per column whose
//! name has a simulator policy (`wp`, `proposed`; the all-NLS `wp-milp`
//! column has none and is skipped), checking observed worst responses
//! against the analytical bounds; refutations exit nonzero.
//!
//! With `--emit-certs`, every analyzed set is
//! re-certified after the measured sweep: the proposed analysis re-runs
//! with a recorded proof transcript and the bundle is validated by the
//! independent `pmcs-cert` checker; `cert_*` counters land in the perf
//! record and any rejection exits nonzero.
//!
//! Usage: `cargo run --release -p pmcs-bench --bin ablation -- \
//!     [--sets N] [--jobs N] [--cross-validate N] [--emit-certs]`

use std::time::Instant;

use pmcs_analysis::{
    cross_validate_reports, AnalysisContext, ProposedAnalyzer, Registry, SimCounters, SimScratch,
    WpAnalyzer, WpMilpAnalyzer,
};
use pmcs_bench::cli::{analysis_defaults, Args, CliError};
use pmcs_bench::{
    certify_set, parallel_map, parallel_map_with, CertSummary, PerfPoint, PerfRecord,
};
use pmcs_core::CacheStats;
use pmcs_workload::{adversarial_specs, derive_seed, TaskSetConfig, TaskSetGenerator};

const USAGE: &str = "usage: ablation [--sets N] [--jobs N] [--cross-validate N] [--emit-certs]";

fn main() {
    let mut sets = 50usize;
    let mut cfg = analysis_defaults();
    Args::from_env(USAGE).parse(|arg, args| {
        match arg {
            "--sets" => sets = args.value(arg)?,
            "--jobs" => cfg.jobs = args.jobs(arg)?,
            "--cross-validate" => cfg.cross_validate = args.value(arg)?,
            "--emit-certs" => cfg.emit_certs = true,
            _ => return Err(CliError::unknown(arg)),
        }
        Ok(())
    });
    let steps: Vec<u64> = (2..=9).collect();

    // The three ablation columns, in presentation order; `wp-milp` is the
    // registry's extension point in action (not part of the standard
    // four-approach comparison).
    let mut registry = Registry::new();
    registry.register(Box::new(WpAnalyzer::new()));
    registry.register(Box::new(WpMilpAnalyzer));
    registry.register(Box::new(ProposedAnalyzer));

    let started = Instant::now();
    let (lines, contexts) = parallel_map_with(
        &steps,
        cfg.jobs,
        || (AnalysisContext::new(&cfg), SimScratch::new()),
        |(ctx, scratch), _, &step| {
            let t0 = Instant::now();
            let u = step as f64 * 0.05;
            // Per-step generator stream: independent of worker assignment.
            let mut generator = TaskSetGenerator::new(
                TaskSetConfig {
                    n: 6,
                    utilization: u,
                    gamma: 0.3,
                    beta: 0.4,
                    ..TaskSetConfig::default()
                },
                0xAB1A ^ step,
            );
            let mut sim = SimCounters::default();
            let mut refutations: Vec<String> = Vec::new();
            let (mut closed, mut all_nls, mut greedy) = (0usize, 0usize, 0usize);
            for si in 0..sets {
                let set = generator.generate();
                let analyze = |name: &str| {
                    registry
                        .require(name)
                        .expect("registered above")
                        .analyze_with(&set, ctx)
                        .expect("analysis")
                };
                let reports = [analyze("wp"), analyze("wp-milp"), analyze("proposed")];
                closed += usize::from(reports[0].schedulable());
                all_nls += usize::from(reports[1].schedulable());
                // Identical to the proposed pipeline when all-NLS already
                // passes; the greedy adds LS promotions on top.
                greedy += usize::from(reports[2].schedulable());
                if cfg.cross_validate > 0 {
                    // Columns without a same-named simulator policy (the
                    // all-NLS `wp-milp` bound) cannot be cross-validated
                    // and are skipped.
                    let (counters, refs) = cross_validate_reports(
                        &set,
                        reports.iter().map(Some),
                        |ai| {
                            let seed = derive_seed(0xAB1A ^ step, si as u64, ai as u64);
                            adversarial_specs(cfg.cross_validate, seed)
                        },
                        scratch,
                    )
                    .expect("cross-validation");
                    sim.merge(&counters);
                    refutations.extend(refs.iter().map(|r| format!("U={u:.2} set={si} {r}")));
                }
            }
            let r = |v: usize| v as f64 / sets as f64;
            let line = format!(
                "{u:>5.2} | {:>10.2} {:>12.2} {:>12.2} | {:>+10.2} {:>+10.2}",
                r(closed),
                r(all_nls),
                r(greedy),
                r(all_nls) - r(closed),
                r(greedy) - r(all_nls),
            );
            (u, line, sim, refutations, t0.elapsed().as_secs_f64())
        },
    );

    println!(
        "{:>5} | {:>10} {:>12} {:>12} | {:>10} {:>10}",
        "U", "wp-closed", "all-NLS", "greedy-LS", "Δ analysis", "Δ LS"
    );
    for (_, line, _, _, _) in &lines {
        println!("{line}");
    }
    println!(
        "\nΔ analysis = all-NLS formulation vs WP closed form (same protocol);\n\
         Δ LS       = greedy latency-sensitive marking on top (rules R3-R5)."
    );

    let mut perf = PerfRecord::new("ablation");
    perf.jobs = cfg.jobs;
    perf.wall_secs = started.elapsed().as_secs_f64();
    let mut cache = CacheStats::default();
    for (ctx, _) in contexts {
        cache.merge(ctx.cache_stats());
    }
    perf.cache = cache;
    perf.extra_num("sets_per_step", sets as f64);
    let mut sim = SimCounters::default();
    let mut refutations: Vec<String> = Vec::new();
    for (u, _, step_sim, step_refs, secs) in &lines {
        sim.merge(step_sim);
        refutations.extend(step_refs.iter().cloned());
        perf.points.push(PerfPoint {
            label: format!("U={u:.2}"),
            secs: *secs,
        });
    }
    perf.extra_sim(&sim);

    // Certificate pass: after the measured sweep, regenerate every step's
    // sets from the same per-step generator stream and certify each
    // (proposed column only — the certified pipeline), validating the
    // bundles with the independent pmcs-cert checker.
    let mut certs = CertSummary::default();
    if cfg.emit_certs {
        let step_certs = parallel_map(&steps, cfg.jobs, |_, &step| {
            let u = step as f64 * 0.05;
            let mut generator = TaskSetGenerator::new(
                TaskSetConfig {
                    n: 6,
                    utilization: u,
                    gamma: 0.3,
                    beta: 0.4,
                    ..TaskSetConfig::default()
                },
                0xAB1A ^ step,
            );
            let mut summary = CertSummary::default();
            for si in 0..sets {
                let set = generator.generate();
                summary.merge(&certify_set(&set, &format!("U={u:.2} set={si}")));
            }
            summary
        });
        for s in &step_certs {
            certs.merge(s);
        }
        println!(
            "certificates: {} bundle(s) emitted, {} proof(s) accepted, {} rejection(s) ({:.1}s)",
            certs.emitted, certs.checked, certs.rejected, certs.secs,
        );
        for line in &certs.rejections {
            eprintln!("{line}");
        }
    }
    perf.extra_cert(&certs);
    perf.extra_str("certs_enabled", if cfg.emit_certs { "yes" } else { "no" });

    let path = perf.write().expect("write perf record");
    println!("perf record: {} (cache: {})", path.display(), perf.cache);

    if !certs.ok() {
        eprintln!(
            "certificate pass REJECTED {} certificate(s)",
            certs.rejected
        );
        std::process::exit(1);
    }
    pmcs_bench::exit_on_refutations(&refutations);
}

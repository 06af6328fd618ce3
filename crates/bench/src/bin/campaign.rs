//! Million-plan Monte-Carlo falsification campaign over every
//! registered policy (see [`pmcs_bench::campaign`]).
//!
//! Streams `--plans` adversarial release plans per approach through the
//! workspace-reuse kernel on the single-core workload, `plans/10` per
//! approach per core on a bandwidth-regulated two-core platform, and
//! `plans/20` per approach in measured (EMA execution-time) mode. Every
//! job response folds into a log-scale histogram and is checked live
//! against the analytical WCRT bounds; any exceedance prints a
//! machine-readable refutation and the process exits nonzero.
//!
//! Writes:
//!
//! * `target/experiments/campaign_report.txt` — the deterministic report
//!   (no timings; byte-identical for every `--jobs` value);
//! * `BENCH_campaign.json` — throughput telemetry, including the
//!   fresh-allocation baseline and the workspace-reuse speedup.
//!
//! Usage: `cargo run --release -p pmcs-bench --bin campaign --
//! [--plans N] [--jobs N] [--seed N] [--tasks N] [--util X]
//! [--report FILE]`

use std::process::ExitCode;
use std::time::Instant;

use pmcs_bench::cli::{analysis_defaults, Args, CliError};
use pmcs_bench::{run_campaign, CampaignConfig, PerfPoint, PerfRecord};

const USAGE: &str = "usage: campaign [--plans N] [--jobs N] [--seed N] [--tasks N] [--util X] \
                     [--report FILE]";

fn main() -> ExitCode {
    let mut cfg = CampaignConfig {
        analysis: analysis_defaults(),
        ..CampaignConfig::default()
    };
    let mut report_path = "target/experiments/campaign_report.txt".to_string();
    Args::from_env(USAGE).parse(|arg, args| {
        match arg {
            "--plans" => cfg.plans = args.value(arg)?,
            "--jobs" => cfg.analysis.jobs = args.jobs(arg)?,
            "--seed" => cfg.seed = args.value(arg)?,
            "--tasks" => cfg.tasks = args.value(arg)?,
            "--util" => cfg.util = args.value(arg)?,
            "--report" => report_path = args.value(arg)?,
            _ => return Err(CliError::unknown(arg)),
        }
        Ok(())
    });

    let started = Instant::now();
    println!(
        "campaign: {} plans/approach across {} worker(s), seed {} …",
        cfg.plans, cfg.analysis.jobs, cfg.seed
    );
    let out = match run_campaign(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = out.report_text();
    print!("{report}");
    if let Some(dir) = std::path::Path::new(&report_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("error: cannot write {report_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report: {report_path}");
    println!(
        "throughput: {:.0} streamed sims/s over {} sims ({} warm-workspace reuses); \
         baseline {:.0} traced sims/s over {} sims → speedup {:.2}x",
        out.plans_per_sec(),
        out.sims_run,
        out.ws_reused,
        out.baseline_plans_per_sec(),
        out.baseline_sims,
        out.speedup(),
    );

    let mut perf = PerfRecord::new("campaign");
    perf.jobs = out.jobs;
    perf.wall_secs = started.elapsed().as_secs_f64();
    perf.extra_num("campaign_plans", cfg.plans as f64);
    perf.extra_num("campaign_sims", out.sims_run as f64);
    perf.extra_num("campaign_secs", out.campaign_secs);
    perf.extra_num("campaign_plans_per_sec", out.plans_per_sec());
    perf.extra_num("campaign_ws_reused", out.ws_reused as f64);
    perf.extra_num("baseline_sims", out.baseline_sims as f64);
    perf.extra_num("baseline_secs", out.baseline_secs);
    perf.extra_num("baseline_plans_per_sec", out.baseline_plans_per_sec());
    perf.extra_num("speedup", out.speedup());
    perf.extra_num("refutations", out.refutations.len() as f64);
    for (label, h) in [("single", &out.single), ("bus", &out.bus)] {
        let plans: u64 = h.iter().map(|p| p.plans).sum();
        perf.points.push(PerfPoint {
            label: format!("{label} ({plans} sims)"),
            secs: 0.0,
        });
    }
    match perf.write() {
        Ok(path) => println!("perf record: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write perf record: {e}");
            return ExitCode::FAILURE;
        }
    }

    if out.refutations.is_empty() {
        println!(
            "campaign PASSED: {} sims, 0 bound exceedances",
            out.sims_run
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "campaign REFUTED: {} bound exceedance(s)",
            out.refutations.len()
        );
        ExitCode::FAILURE
    }
}

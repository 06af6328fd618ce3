//! # pmcs-bench
//!
//! Experiment harness regenerating the evaluation of Section VII:
//!
//! * [`experiment`] — schedulability-ratio sweeps over utilization `U`,
//!   memory-intensity `γ` and deadline-tightness `β`, comparing whatever
//!   approaches a [`pmcs_analysis::Registry`] holds (by default the
//!   proposed protocol, the Wasly-Pellizzoni baseline, and the two
//!   non-preemptive variants);
//! * [`figures`] — the concrete configurations of Figure 2 insets (a)–(f)
//!   and the Figure 1 scenario;
//! * [`report`] — CSV output and ASCII line charts for terminal viewing.
//!
//! Binaries:
//!
//! * `fig1` — regenerates the Figure 1 example schedules (WP miss,
//!   NPS meet, plus the proposed protocol rescuing the task);
//! * `fig2 <a..f>` — regenerates one inset of Figure 2;
//! * `runtime_table` — the analysis-runtime measurements reported in
//!   prose in Section VII;
//! * `ablation`, `multicore`, `campaign` — the ablation study, the
//!   multi-core sweep and the falsification campaign.
//!
//! Every binary (these and `pmcs-audit`, `pmcs-serve`) reads its command
//! line through [`cli`]: flags are the only way to configure a run, and
//! `--jobs N` defaults to every core. Each bench binary writes a
//! machine-readable `BENCH_<bin>.json` perf record ([`perf`]); results are
//! byte-identical for every thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod certs;
pub mod cli;
pub mod experiment;
pub mod figures;
pub mod multicore;
pub mod parallel;
pub mod perf;
pub mod report;

pub use campaign::{
    bin_of, run_campaign, CampaignConfig, CampaignOutcome, MeasuredRow, PolicyHist, BINS,
};
pub use certs::{certify_set, certify_sweep, CertSummary};
pub use experiment::{
    evaluate_set, evaluate_set_with_reports, evaluate_set_with_stats, sweep, sweep_with,
    SetOutcome, SweepOutcome, SweepPoint, SweepRow,
};
pub use figures::{fig1_task_set, fig2_inset, Fig2Inset};
pub use multicore::{sweep_multicore, MulticoreConfig, MulticoreOutcome, MulticoreRow};
pub use parallel::{parallel_map, parallel_map_with};
pub use perf::{PerfPoint, PerfRecord};
pub use report::{ascii_chart, csv_string, exit_on_refutations, write_csv};

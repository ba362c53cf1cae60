//! # mscope-bench — paper-figure regeneration and benchmark support
//!
//! One function per evaluation artifact of the paper (Figs. 2, 4, 6, 7,
//! 8a–d, 9, 10, 11). Each returns structured data *and* can print the
//! series the paper plots, so the `figures` binary, the integration tests,
//! and EXPERIMENTS.md all draw from the same code.
//!
//! Scales: the paper runs 8000 users for 7 minutes on physical hardware;
//! [`Scale::Quick`] and [`Scale::Standard`] shrink users and duration while
//! [`mscope_core::scenarios`] re-calibrates the bottleneck triggers so the
//! *shapes* (episode rate, stall duration, who saturates) are preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

pub use figures::{
    fig1, fig10, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, overhead_sweep,
    run_scenario_a, run_scenario_b, sampling_ablation, utilization_ablation, AblationResult,
    Fig7Data, Fig8Data, Fig9Row, OverheadRow, Scale, SeriesTable, UtilizationAblation,
};

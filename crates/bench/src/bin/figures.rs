//! Regenerates every figure of the paper's evaluation.
//!
//! ```text
//! figures [fig2|fig4|fig6|fig7|fig8|fig9|fig10|fig11|all] [--scale quick|standard|paper]
//! ```
//!
//! Figures 2/4/6/7 share one scenario-A run; figure 8 uses one scenario-B
//! run; figure 9 a healthy baseline; figures 10/11 share the on/off sweep.

use mscope_bench::{
    fig1, fig10, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, overhead_sweep,
    run_scenario_a, run_scenario_b, sampling_ablation, utilization_ablation, Scale,
};

fn show(table: &mscope_bench::SeriesTable, chart: bool) {
    if chart {
        print!("{}", table.render_ascii_chart(12, 100));
    } else {
        print!("{}", table.render());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = Scale::Standard;
    let mut chart = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale takes quick|standard|paper"));
            }
            "--chart" => chart = true,
            "--help" | "-h" => {
                println!(
                    "usage: figures [fig1..fig11|ablation|all] \
                     [--scale quick|standard|paper] [--chart]"
                );
                return;
            }
            other if !other.starts_with('-') => which = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let scenario_a = [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation", "all",
    ]
    .contains(&which.as_str());
    let scenario_b = ["fig8", "all"].contains(&which.as_str());
    let sweep_needed = ["fig10", "fig11", "all"].contains(&which.as_str());

    eprintln!(
        "[figures] scale: {scale:?} ({} users, {} s measured)",
        scale.users(),
        scale.measured().as_secs_f64()
    );

    if scenario_a {
        eprintln!("[figures] running scenario A (database commit-log flush)…");
        let ms = run_scenario_a(scale);
        if which == "fig1" || which == "all" {
            print!("{}", fig1(&ms));
            println!();
        }
        if which == "fig3" || which == "all" {
            print!("{}", fig3(&ms));
            println!();
        }
        if which == "fig5" || which == "all" {
            print!("{}", fig5(&ms));
            println!();
        }
        if which == "fig2" || which == "all" {
            let t = fig2(&ms);
            show(&t, chart);
            let peak = t.max_of("max_rt_ms").unwrap_or(f64::NAN);
            println!("peak max_rt_ms = {peak:.1}");
            println!();
        }
        if which == "fig4" || which == "all" {
            show(&fig4(&ms), chart);
            println!();
        }
        if which == "fig6" || which == "all" {
            show(&fig6(&ms), chart);
            println!();
        }
        if which == "fig7" || which == "all" {
            let d = fig7(&ms);
            show(&d.table, chart);
            println!(
                "pearson_r(mysql_disk_util, apache_queue) = {:.3}",
                d.correlation
            );
            println!();
        }
        if which == "ablation" || which == "all" {
            let r = sampling_ablation(&ms);
            println!("# Ablation 1: VSB visibility, 50 ms series vs 1 Hz gauge sampling");
            println!(
                "episodes {}  visible_50ms {}  visible_1s {}  miss_rate_1s {:.0}%",
                r.episodes,
                r.detected_50ms,
                r.detected_1s,
                r.miss_rate_1s() * 100.0
            );
            let u = utilization_ablation(&ms);
            println!("# Ablation 2: can a CPU-utilization alarm see the DB-IO bottleneck?");
            println!(
                "episodes {}  cpu_alarm_visible {}",
                u.episodes, u.cpu_alarm_visible
            );
            println!();
        }
    }

    if scenario_b {
        eprintln!("[figures] running scenario B (dirty-page recycling)…");
        let ms = run_scenario_b(scale);
        let d = fig8(&ms);
        show(&d.pit, chart);
        let peak = d.pit.max_of("max_rt_ms").unwrap_or(f64::NAN);
        println!("peak max_rt_ms = {peak:.1}");
        println!();
        show(&d.queues, chart);
        println!();
        show(&d.cpu, chart);
        println!();
        show(&d.dirty, chart);
        println!("episodes in rendered span: {}", d.episodes_in_span);
        println!();
    }

    if which == "fig9" || which == "all" {
        eprintln!("[figures] running accuracy validation (monitors vs SysViz)…");
        let rows = fig9(scale);
        println!("# Fig 9: queue-length accuracy, event monitors vs SysViz");
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            "tier", "rmse", "pearson_r", "mean_queue"
        );
        for r in &rows {
            println!(
                "{:>10} {:>12.3} {:>12.3} {:>12.2}",
                r.tier, r.rmse, r.correlation, r.mean_queue
            );
        }
        println!();
        // Also print one tier's overlaid series as a sample.
        if let Some(r) = rows.first() {
            show(&r.table, chart);
        }
        println!();
    }

    if sweep_needed {
        eprintln!("[figures] running overhead sweep (monitors on vs off)…");
        let rows = overhead_sweep(scale);
        if which == "fig10" || which == "all" {
            print!("{}", fig10(&rows));
            println!();
        }
        if which == "fig11" || which == "all" {
            print!("{}", fig11(&rows));
            println!();
        }
    }

    if !(scenario_a || scenario_b || sweep_needed || which == "fig9") {
        die(&format!("unknown figure `{which}`"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

//! The artifact table behind `zerosum run-all`: one row per paper
//! table, figure, listing and extension study, plus the compact
//! paper-vs-measured sweep that `run-all` prints when no `--only` picks
//! rows (the EXPERIMENTS.md data source).
//!
//! Rows render to text and hand back the CSVs they want written; the
//! CLI does the printing and the file I/O.

use std::fmt::Write as _;

use crate::figures::{fig5, fig5_ascii, fig67, fig8, Fig8Run};
use crate::tables::{render_rows, run_table, TableConfig, TableRun};
use crate::{cluster_demo, listings, platforms, sweep};
use zerosum_apps::PicConfig;
use zerosum_stats::{quartiles, Summary};

/// CSV files an artifact wants under `results/`: `(file name, contents)`.
pub type Csvs = Vec<(&'static str, String)>;

/// One regenerable artifact.
pub struct Artifact {
    /// What `run-all --only NAME` selects it by.
    pub name: &'static str,
    /// The `--scale` (workload divisor) used when none is given.
    pub default_scale: u32,
    /// Runs the experiment at `(scale, seed)`: its stdout text and CSVs.
    pub render: fn(u32, u64) -> (String, Csvs),
}

const fn row(
    name: &'static str,
    default_scale: u32,
    render: fn(u32, u64) -> (String, Csvs),
) -> Artifact {
    Artifact {
        name,
        default_scale,
        render,
    }
}

/// Every artifact, in the order the full sweep reports them.
pub const ARTIFACTS: [Artifact; 13] = [
    row("listing1", 1, |_, _| (listings::listing1(), vec![])),
    row("table1", 10, |scale, seed| {
        table_text(TableConfig::Table1, scale, seed)
    }),
    row("table2", 10, |scale, seed| {
        table_text(TableConfig::Table2, scale, seed)
    }),
    row("table3", 10, |scale, seed| {
        table_text(TableConfig::Table3, scale, seed)
    }),
    row("listing2", 10, listing2_text),
    row("fig5", 1, fig5_text),
    row("fig6", 10, fig6_text),
    row("fig7", 10, fig7_text),
    row("fig8", 10, fig8_text),
    row("sweep", 10, sweep_text),
    row("platforms", 10, platforms_text),
    row("cluster", 20, cluster_text),
    row("diagrams", 1, diagrams_text),
];

fn listing2_text(scale: u32, seed: u64) -> (String, Csvs) {
    (listings::listing2(scale, seed).report, vec![])
}

fn fig5_text(scale: u32, _seed: u64) -> (String, Csvs) {
    let run = fig5(&pic_config(scale));
    let text = format!(
        "Figure 5: {} ranks, diagonal fraction {:.4}, peak pair bytes {:.3e}\n{}\n",
        run.matrix.size(),
        run.diagonal_fraction,
        run.max_pair_bytes as f64,
        fig5_ascii(&run, 48)
    );
    let csv = zerosum_mpi::heatmap::to_csv(&run.matrix);
    (text, vec![("fig5_heatmap.csv", csv)])
}

/// Figure 6: per-LWP user/system series of the Table 3 run.
fn fig6_text(scale: u32, seed: u64) -> (String, Csvs) {
    let run = fig67(scale, seed);
    let text = format!(
        "Figure 6: {} samples of rank-0 LWP counters\n{}\n",
        run.samples,
        run.lwp_bundle.render_stacked_ascii(72, 12)
    );
    (text, vec![("fig6_lwp_series.csv", run.lwp_csv)])
}

/// Figure 7: per-hardware-thread utilization series of the same run.
fn fig7_text(scale: u32, seed: u64) -> (String, Csvs) {
    let run = fig67(scale, seed);
    let text = format!(
        "Figure 7: core 1 utilization over {} samples\n{}\n",
        run.samples,
        run.hwt_bundle.render_stacked_ascii(72, 12)
    );
    (text, vec![("fig7_hwt_series.csv", run.hwt_csv)])
}

/// Runtime and contention vs `srun -c N` (the Tables 1→2 curve).
fn sweep_text(scale: u32, seed: u64) -> (String, Csvs) {
    let pts = sweep::sweep_cpus_per_task(&[1, 2, 3, 4, 5, 6, 7], scale, seed);
    (sweep::render_sweep(&pts), vec![])
}

/// The same monitored GPU-offload workload on every node model.
fn platforms_text(scale: u32, seed: u64) -> (String, Csvs) {
    let blocks = (200 / scale).max(4);
    (platforms::run_all_platforms(blocks, seed), vec![])
}

/// The allocation-wide view: 4 Frontier nodes, one misconfigured.
fn cluster_text(scale: u32, seed: u64) -> (String, Csvs) {
    let cluster = cluster_demo::run_allocation(scale, seed);
    let mut text = cluster.render_summary();
    if let Some(s) = cluster.straggler() {
        let _ = writeln!(
            text,
            "\nstraggler: {} (mean user {:.1}%)",
            s.hostname, s.mean_user_pct
        );
    }
    (text, vec![])
}

/// Node diagrams in the spirit of the paper's Figures 1–3.
fn diagrams_text(_scale: u32, _seed: u64) -> (String, Csvs) {
    let mut text = String::new();
    for name in ["frontier", "summit", "perlmutter", "aurora", "laptop"] {
        if let Some(topo) = zerosum_topology::presets::by_name(name) {
            let _ = writeln!(text, "{}", zerosum_topology::render_node_diagram(&topo));
        }
    }
    (text, vec![])
}

const TABLES: [TableConfig; 3] = [
    TableConfig::Table1,
    TableConfig::Table2,
    TableConfig::Table3,
];

/// The Figure 5 PIC proxy with its step count divided by `scale`.
fn pic_config(scale: u32) -> PicConfig {
    let mut cfg = PicConfig::figure5();
    cfg.steps = (cfg.steps / scale as usize).max(10);
    cfg
}

/// Tables 1–3: the per-LWP rows, the migration count where the paper
/// reports one, and the configuration findings.
fn table_text(config: TableConfig, scale: u32, seed: u64) -> (String, Csvs) {
    let run = run_table(config, scale, seed);
    let mut text = render_rows(&run);
    if config != TableConfig::Table1 {
        let _ = writeln!(text, "team migrations observed: {}", run.team_migrations);
    }
    text.push('\n');
    text.push_str(&zerosum_core::render_findings(&run.findings));
    (text, vec![])
}

/// Figure 8: 10 runs with and without the monitor, at one and two
/// OpenMP threads per core.
fn fig8_text(scale: u32, seed: u64) -> (String, Csvs) {
    let cases = [
        (
            "one OpenMP thread per core",
            "1tpc",
            fig8(false, 10, scale, seed),
        ),
        (
            "two OpenMP threads per core",
            "2tpc",
            fig8(true, 10, scale, seed + 1),
        ),
    ];
    let mut text = String::new();
    let mut csv = String::from("case,run,baseline_s,with_zerosum_s\n");
    for (title, tag, run) in &cases {
        fig8_case(&mut text, title, run);
        for (i, (b, z)) in run.baseline.iter().zip(&run.with_zerosum).enumerate() {
            let _ = writeln!(csv, "{tag},{i},{b},{z}");
        }
    }
    (text, vec![("fig8_overhead.csv", csv)])
}

fn fig8_case(out: &mut String, title: &str, run: &Fig8Run) {
    let _ = writeln!(out, "== {title} ==");
    for (label, xs) in [
        ("baseline    ", &run.baseline),
        ("with ZeroSum", &run.with_zerosum),
    ] {
        let s = Summary::from_slice(xs);
        let _ = write!(out, "  {label} : {:.4} ± {:.4} s   ", s.mean(), s.stddev());
        if let Some(q) = quartiles(xs) {
            let _ = write!(out, "{q:?}");
        }
        out.push('\n');
    }
    let _ = match &run.ttest {
        Some(t) => writeln!(
            out,
            "  Welch t-test : t={:.3}, df={:.1}, p={:.4}  ({})",
            t.t,
            t.df,
            t.p_value,
            if t.significant(0.05) {
                "SIGNIFICANT"
            } else {
                "not significant"
            }
        ),
        None => writeln!(out, "  Welch t-test : insufficient samples"),
    };
    let _ = writeln!(
        out,
        "  overhead     : {:+.4} s = {:+.3}%",
        run.mean_overhead_s,
        run.overhead_frac * 100.0
    );
}

/// The full evaluation sweep: every artifact family in table order,
/// condensed to the figures EXPERIMENTS.md sets against the paper's.
pub fn evaluation_sweep(scale: u32, seed: u64) -> String {
    let mut out = format!("ZeroSum-rs: full evaluation sweep (scale {scale}, seed {seed})\n\n");
    let _ = writeln!(out, "--- Listing 1 ---");
    out.push_str(&listings::listing1());

    let _ = writeln!(out, "\n--- Tables 1-3 ---");
    // The three table runs are independent simulations; the parallel
    // engine runs them on worker threads and returns them in order.
    let tables: Vec<TableRun> = crate::parallel::run_jobs(
        TABLES
            .into_iter()
            .map(|c| move || run_table(c, scale, seed))
            .collect(),
        0,
    );
    if let [t1, t2, t3] = tables.as_slice() {
        let nv = |r: &TableRun| -> u64 {
            r.rows
                .iter()
                .filter(|x| x.label.contains("OpenMP"))
                .map(|x| x.nvctx)
                .sum()
        };
        let _ = writeln!(
            out,
            "runtime:    T1 {:.2}s  T2 {:.2}s  T3 {:.2}s   (paper: 63.67 / 27.33 / 27.40)",
            t1.duration_s, t2.duration_s, t3.duration_s
        );
        let _ = writeln!(
            out,
            "team nvctx: T1 {}  T2 {}  T3 {}   (paper: ~2e6 total / ~50 / ~210)",
            nv(t1),
            nv(t2),
            nv(t3)
        );
        let _ = writeln!(
            out,
            "migrations: T2 {}  T3 {}   (paper: all threads ≥1 / none)",
            t2.team_migrations, t3.team_migrations
        );
    }

    let _ = writeln!(out, "\n--- Listing 2 ---");
    let l2 = listings::listing2(scale, seed);
    let _ = writeln!(
        out,
        "duration {:.2}s, GCD busy avg {:.1}% (paper: 14.6%), VRAM peak {:.3e} B (paper: 4.84e9)",
        l2.duration_s, l2.gpu_busy_avg, l2.vram_peak
    );

    let _ = writeln!(out, "\n--- Figure 5 ---");
    let f5 = fig5(&pic_config(scale));
    let _ = writeln!(
        out,
        "{} ranks, diagonal fraction {:.4}, peak pair {:.3e} B (paper: diagonal band, ~1.75e10)",
        f5.matrix.size(),
        f5.diagonal_fraction,
        f5.max_pair_bytes as f64
    );

    let _ = writeln!(out, "\n--- Figures 6/7 ---");
    let f67 = fig67(scale, seed);
    let _ = writeln!(
        out,
        "exported {} samples; LWP rows {}, HWT rows {}",
        f67.samples,
        f67.lwp_csv.lines().count() - 1,
        f67.hwt_csv.lines().count() - 1
    );

    let _ = writeln!(out, "\n--- Figure 8 ---");
    for (name, two) in [("1 thread/core", false), ("2 threads/core", true)] {
        let run = fig8(two, 10, scale, seed);
        let b = Summary::from_slice(&run.baseline);
        let z = Summary::from_slice(&run.with_zerosum);
        let p = run.ttest.map(|t| t.p_value).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{name}: baseline {:.3}±{:.3}s, zerosum {:.3}±{:.3}s, p={:.4}, overhead {:+.3}%",
            b.mean(),
            b.stddev(),
            z.mean(),
            z.stddev(),
            p,
            run.overhead_frac * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\n(paper: 1tpc p=0.998 no diff; 2tpc p=0.0006, +0.5% ≈ 0.275s)"
    );

    let _ = writeln!(out, "\n--- Extension: configuration sweep (srun -c N) ---");
    let pts = sweep::sweep_cpus_per_task(&[1, 2, 4, 7], scale, seed);
    out.push_str(&sweep::render_sweep(&pts));

    let _ = writeln!(out, "\n--- Extension: cross-platform sweep ---");
    out.push_str(&platforms::run_all_platforms((200 / scale).max(4), seed));

    let _ = writeln!(
        out,
        "\n--- Extension: allocation summary (one node misconfigured) ---"
    );
    out.push_str(&cluster_demo::run_allocation(scale.max(10), seed).render_summary());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len());
    }

    #[test]
    fn every_row_renders_text_at_scale_400() {
        for a in &ARTIFACTS {
            let (text, csvs) = (a.render)(400, 42);
            assert!(!text.trim().is_empty(), "{} rendered nothing", a.name);
            for (file, body) in csvs {
                assert!(file.ends_with(".csv") && body.lines().count() > 1, "{file}");
            }
        }
    }

    /// FNV-1a 64 over `bytes`, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every row's bytes at scale 50, seed 42: its text, then each CSV's
    /// name and body, hashed. A change to any byte of any artifact
    /// fails here; re-pin a row only for a change its output is meant
    /// to show.
    #[test]
    fn every_row_renders_its_pinned_bytes() {
        const PINNED: [(&str, u64); 13] = [
            ("listing1", 0xbd45e90c5238ace8),
            // Re-pinned on purpose: each table's findings name the busy
            // LWPs they counted, and the monitor-sharing advice names
            // only what a user can do.
            ("table1", 0x6a2a36f360509638),
            ("table2", 0x0839d8a4bfc9e6de),
            ("table3", 0x0d25e21d909fc674),
            ("listing2", 0x267d702df8f487cc),
            ("fig5", 0x92fa8081f89f265e),
            // Re-pinned on purpose: Figures 6/7 are the Table 3 launch,
            // OMPT registration included, so the CSV types rank 0's main
            // thread `Main+OpenMP`, the label Table 3 gives it.
            ("fig6", 0xb5f9337979be0465),
            ("fig7", 0x88968946fa7fa4a6),
            ("fig8", 0x95c08c2276df41c2),
            ("sweep", 0xcc87b1b88259377e),
            ("platforms", 0xba8a4a877bd89aa2),
            ("cluster", 0x5c27fd441b4a0fea),
            ("diagrams", 0xad3cae5bc64b2c27),
        ];
        let got = ARTIFACTS.map(|a| {
            let (text, csvs) = (a.render)(50, 42);
            let mut h = fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes());
            for (name, body) in &csvs {
                h = fnv1a(fnv1a(h, name.as_bytes()), body.as_bytes());
            }
            (a.name, h)
        });
        assert_eq!(got, PINNED);
    }

    /// The sweep's sections come in the order the table holds the rows
    /// they condense.
    #[test]
    fn sweep_visits_the_rows_in_table_order() {
        let order = [
            ("Listing 1", "listing1"),
            ("Tables 1-3", "table1"),
            ("Listing 2", "listing2"),
            ("Figure 5", "fig5"),
            ("Figures 6/7", "fig6"),
            ("Figure 8", "fig8"),
            ("Extension: configuration sweep (srun -c N)", "sweep"),
            ("Extension: cross-platform sweep", "platforms"),
            (
                "Extension: allocation summary (one node misconfigured)",
                "cluster",
            ),
        ];
        let text = evaluation_sweep(400, 42);
        let sections: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("--- ")?.strip_suffix(" ---"))
            .collect();
        assert_eq!(sections, order.map(|(section, _)| section));
        let rows: Vec<&str> = ARTIFACTS
            .iter()
            .map(|a| a.name)
            .filter(|name| order.iter().any(|(_, row)| row == name))
            .collect();
        assert_eq!(rows, order.map(|(_, row)| row));
    }
}

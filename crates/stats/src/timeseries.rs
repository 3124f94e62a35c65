//! Time-series storage for periodic samples.
//!
//! ZeroSum logs every periodic observation as CSV for post-hoc analysis
//! (§3.6); Figures 6 and 7 of the paper are stacked utilization series for
//! LWPs and hardware threads. `TimeSeries` is a compact column of
//! `(t, value)` points with the helpers those figures need: per-interval
//! deltas, stacking, and CSV export.

use std::fmt::Write as _;

/// A named series of `(time, value)` samples, time in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Series label (e.g. `"LWP 18592 user%"`).
    pub name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: &str) -> Self {
        TimeSeries {
            name: name.to_string(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a sample. Times must be non-decreasing.
    pub fn push(&mut self, t: f64, v: f64) {
        debug_assert!(
            self.times.last().map(|&last| t >= last).unwrap_or(true),
            "time went backwards"
        );
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The series of consecutive differences (len − 1 points, timestamped
    /// at the later sample): turns cumulative jiffy counters into
    /// per-interval utilization.
    pub fn deltas(&self) -> TimeSeries {
        let mut out = TimeSeries::new(&format!("Δ{}", self.name));
        for i in 1..self.len() {
            out.push(self.times[i], self.values[i] - self.values[i - 1]);
        }
        out
    }

    /// Downsamples by averaging every `k` consecutive samples
    /// (timestamped at the bucket's last instant).
    pub fn downsample(&self, k: usize) -> TimeSeries {
        let k = k.max(1);
        let mut out = TimeSeries::new(&format!("ds{k}({})", self.name));
        let mut i = 0;
        while i < self.len() {
            let hi = (i + k).min(self.len());
            let mean = self.values[i..hi].iter().sum::<f64>() / (hi - i) as f64;
            out.push(self.times[hi - 1], mean);
            i = hi;
        }
        out
    }

    /// Maximum value, if any samples exist.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }
}

/// A bundle of aligned series (same sampling instants), e.g. the
/// user/system/idle components of one LWP for a stacked chart.
#[derive(Debug, Clone, Default)]
pub struct SeriesBundle {
    /// The member series.
    pub series: Vec<TimeSeries>,
}

impl SeriesBundle {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a series.
    pub fn push(&mut self, s: TimeSeries) {
        self.series.push(s);
    }

    /// Renders the bundle as CSV: `time,<name1>,<name2>,…` — the format
    /// ZeroSum's log files use for post-processing into Figures 6/7.
    ///
    /// All series must share their time column; rows are emitted up to
    /// the shortest series.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        let rows = self.series.iter().map(|s| s.len()).min().unwrap_or(0);
        for i in 0..rows {
            let t = self.series[0].times[i];
            write!(out, "{t:.3}").unwrap();
            for s in &self.series {
                write!(out, ",{:.4}", s.values[i]).unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Renders a stacked ASCII area chart (`height` rows × one column per
    /// sample, columns downsampled to at most `max_width`) — a terminal
    /// rendering of the paper's Figures 6/7. Each series fills with its
    /// own glyph, bottom-up, scaled so the tallest stack reaches the top.
    pub fn render_stacked_ascii(&self, max_width: usize, height: usize) -> String {
        const GLYPHS: &[char] = &['#', ':', '.', '%', '+', '*'];
        let rows = self.series.iter().map(|s| s.len()).min().unwrap_or(0);
        if rows == 0 || height == 0 {
            return String::new();
        }
        // Downsample columns.
        let k = rows.div_ceil(max_width.max(1));
        let cols: Vec<Vec<f64>> = (0..rows)
            .step_by(k)
            .map(|i| {
                let hi = (i + k).min(rows);
                self.series
                    .iter()
                    .map(|s| s.values[i..hi].iter().sum::<f64>() / (hi - i) as f64)
                    .collect()
            })
            .collect();
        let peak = cols
            .iter()
            .map(|c| c.iter().sum::<f64>())
            .fold(1e-12f64, f64::max);
        let mut grid = vec![vec![' '; cols.len()]; height];
        for (x, col) in cols.iter().enumerate() {
            let mut acc = 0.0;
            for (si, &v) in col.iter().enumerate() {
                let lo = (acc / peak * height as f64).round() as usize;
                acc += v;
                let hi = (acc / peak * height as f64).round() as usize;
                let glyph = GLYPHS[si % GLYPHS.len()];
                for y in lo..hi.min(height) {
                    grid[height - 1 - y][x] = glyph;
                }
            }
        }
        let mut out = String::new();
        for row in grid {
            out.push_str(&row.into_iter().collect::<String>());
            out.push('\n');
        }
        // Legend.
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!("{} {}  ", GLYPHS[si % GLYPHS.len()], s.name));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        s.push(2.0, 6.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max(), Some(6.0));
        assert!(!s.is_empty());
    }

    #[test]
    fn deltas_turn_counters_into_rates() {
        let mut s = TimeSeries::new("utime");
        for (t, v) in [(0.0, 0.0), (1.0, 95.0), (2.0, 190.0), (3.0, 287.0)] {
            s.push(t, v);
        }
        let d = s.deltas();
        assert_eq!(d.len(), 3);
        assert_eq!(d.values(), &[95.0, 95.0, 97.0]);
        assert_eq!(d.times(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.max(), None);
        assert_eq!(s.deltas().len(), 0);
    }

    #[test]
    fn downsample_buckets_and_averages() {
        let mut s = TimeSeries::new("x");
        for i in 0..7 {
            s.push(i as f64, i as f64);
        }
        let d = s.downsample(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.values(), &[1.0, 4.0, 6.0]); // last bucket has 1 pt
        assert_eq!(d.times(), &[2.0, 5.0, 6.0]);
        // k=0 is clamped to 1 (identity).
        assert_eq!(s.downsample(0).len(), 7);
    }

    #[test]
    fn bundle_csv_format() {
        let mut a = TimeSeries::new("user");
        let mut b = TimeSeries::new("system");
        a.push(0.0, 90.0);
        a.push(1.0, 92.0);
        b.push(0.0, 8.0);
        b.push(1.0, 6.0);
        let mut bundle = SeriesBundle::new();
        bundle.push(a);
        bundle.push(b);
        let csv = bundle.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,user,system");
        assert_eq!(lines[1], "0.000,90.0000,8.0000");
        assert_eq!(lines[2], "1.000,92.0000,6.0000");
    }

    #[test]
    fn stacked_ascii_fills_proportionally() {
        let mut bundle = SeriesBundle::new();
        for (name, v) in [("user", 75.0), ("system", 25.0)] {
            let mut s = TimeSeries::new(name);
            for t in 0..20 {
                s.push(t as f64, v);
            }
            bundle.push(s);
        }
        let art = bundle.render_stacked_ascii(20, 8);
        let rows: Vec<&str> = art.lines().collect();
        // 8 chart rows + legend.
        assert_eq!(rows.len(), 9);
        // Bottom 6 rows are user (#), top 2 are system (:).
        assert!(rows[7].chars().all(|c| c == '#'));
        assert!(rows[0].chars().all(|c| c == ':'));
        assert!(rows.last().unwrap().contains("# user"));
        // Empty bundle renders empty.
        assert_eq!(SeriesBundle::new().render_stacked_ascii(10, 5), "");
    }
}

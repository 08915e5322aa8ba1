//! Rank×rank communication matrix, per phase, from `send` spans.
//!
//! Each `comm/send` span carries `dst` and `bytes` args and is recorded on
//! the sending rank, so the matrix needs no pairing logic: row = sender,
//! column = `dst`, phase = the phase interval containing the span.

use crate::input::{PhaseIntervals, RankSpans};
use overset_comm::NUM_PHASES;

#[derive(Clone, Debug, Default)]
pub struct CommMatrix {
    pub nranks: usize,
    /// `msgs[phase][src][dst]`.
    pub msgs: Vec<Vec<Vec<u64>>>,
    /// `bytes[phase][src][dst]`.
    pub bytes: Vec<Vec<Vec<u64>>>,
    /// Sends whose `dst` fell outside `0..nranks` (malformed trace).
    pub dropped_sends: u64,
}

impl CommMatrix {
    /// Sum a per-phase cube over phases.
    fn total_of(cube: &[Vec<Vec<u64>>], n: usize) -> Vec<Vec<u64>> {
        let mut t = vec![vec![0u64; n]; n];
        for per_phase in cube {
            for (src, row) in per_phase.iter().enumerate() {
                for (dst, v) in row.iter().enumerate() {
                    t[src][dst] += v;
                }
            }
        }
        t
    }

    pub fn total_msgs(&self) -> Vec<Vec<u64>> {
        Self::total_of(&self.msgs, self.nranks)
    }

    pub fn total_bytes(&self) -> Vec<Vec<u64>> {
        Self::total_of(&self.bytes, self.nranks)
    }

    /// Does phase `p` carry any traffic?
    pub fn phase_active(&self, p: usize) -> bool {
        self.msgs[p].iter().any(|row| row.iter().any(|&v| v > 0))
    }
}

pub fn build(ranks: &[RankSpans]) -> CommMatrix {
    let n = ranks.len();
    let mut m = CommMatrix {
        nranks: n,
        msgs: vec![vec![vec![0; n]; n]; NUM_PHASES],
        bytes: vec![vec![vec![0; n]; n]; NUM_PHASES],
        dropped_sends: 0,
    };
    for (src, r) in ranks.iter().enumerate() {
        let intervals = PhaseIntervals::build(&r.spans);
        for s in &r.spans {
            if s.cat != "comm" || s.name != "send" {
                continue;
            }
            let Some(dst) = s.arg("dst").map(|d| d as usize).filter(|&d| d < n) else {
                m.dropped_sends += 1;
                continue;
            };
            let phase = intervals.phase_at(s.ts);
            m.msgs[phase][src][dst] += 1;
            m.bytes[phase][src][dst] += s.arg("bytes").unwrap_or(0.0) as u64;
        }
    }
    m
}

/// Past this rank count the heatmap is bucketed down to at most this many
/// rows/columns so a 1024-rank matrix stays readable (and the output stays
/// bounded); at or below it the rendering is unchanged, which the golden
/// tests rely on.
const HEATMAP_MAX_CELLS: usize = 64;

/// Render a rank×rank matrix as a deterministic text heatmap: one density
/// glyph per cell, scaled to the matrix maximum, rows = sender. For small
/// matrices (≤ 16 ranks) the numeric values are printed alongside; above
/// `HEATMAP_MAX_CELLS` ranks, cells are summed into rank-range buckets.
pub fn render_heatmap(m: &[Vec<u64>], label: &str) -> String {
    let n = m.len();
    if n > HEATMAP_MAX_CELLS {
        let bucket = n.div_ceil(HEATMAP_MAX_CELLS);
        let nb = n.div_ceil(bucket);
        let mut coarse = vec![vec![0u64; nb]; nb];
        for (src, row) in m.iter().enumerate() {
            for (dst, &v) in row.iter().enumerate() {
                coarse[src / bucket][dst / bucket] += v;
            }
        }
        return render_cells(&coarse, &format!("{label} [{bucket} ranks/cell]"), bucket);
    }
    render_cells(m, label, 1)
}

/// `bucket` is the number of ranks per cell (1 = exact); row labels show the
/// first rank of each bucket.
fn render_cells(m: &[Vec<u64>], label: &str, bucket: usize) -> String {
    const SCALE: &[u8] = b" .:-=+*#%@";
    let n = m.len();
    let max = m.iter().flatten().copied().max().unwrap_or(0);
    let mut out = format!("{label} (rows=src, cols=dst, max={max}):\n");
    for (src, row) in m.iter().enumerate() {
        out.push_str(&format!("  {:>3} |", src * bucket));
        for &v in row {
            let g = if max == 0 || v == 0 {
                b' '
            } else {
                // Nonzero cells always render visibly (index >= 1).
                let idx = 1 + (v as u128 * (SCALE.len() as u128 - 2) / max as u128) as usize;
                SCALE[idx.min(SCALE.len() - 1)]
            };
            out.push(g as char);
        }
        out.push('|');
        if n <= 16 {
            let nums: Vec<String> = row.iter().map(|v| format!("{v:>8}")).collect();
            out.push_str(&format!("  {}", nums.join(" ")));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Span;

    fn send(ts: f64, dst: f64, bytes: f64) -> Span {
        Span {
            cat: "comm".into(),
            name: "send".into(),
            ts,
            dur: 0.0,
            args: vec![("dst".into(), dst), ("bytes".into(), bytes)],
        }
    }

    fn phase(name: &str, ts: f64, dur: f64) -> Span {
        Span { cat: "phase".into(), name: name.into(), ts, dur, args: Vec::new() }
    }

    #[test]
    fn sends_land_in_the_containing_phase_cell() {
        let r0 = RankSpans {
            rank: 0,
            spans: vec![
                phase("flow", 0.0, 1.0),
                phase("connectivity", 1.0, 1.0),
                send(0.5, 1.0, 100.0),
                send(1.5, 1.0, 40.0),
                send(1.6, 7.0, 8.0), // dst out of range: dropped
            ],
        };
        let r1 = RankSpans { rank: 1, spans: vec![] };
        let m = build(&[r0, r1]);
        assert_eq!(m.msgs[0][0][1], 1);
        assert_eq!(m.bytes[0][0][1], 100);
        assert_eq!(m.msgs[1][0][1], 1);
        assert_eq!(m.bytes[1][0][1], 40);
        assert_eq!(m.dropped_sends, 1);
        assert!(m.phase_active(0) && m.phase_active(1) && !m.phase_active(2));
        assert_eq!(m.total_bytes()[0][1], 140);
        let txt = render_heatmap(&m.total_bytes(), "bytes");
        assert!(txt.contains("max=140"));
        assert!(txt.contains("140"));
    }

    #[test]
    fn large_matrices_are_bucketed_small_ones_exact() {
        // 256 ranks -> 4 ranks per cell, 64 rows; diagonal mass survives
        // bucketing as the per-bucket sum.
        let n = 256;
        let mut m = vec![vec![0u64; n]; n];
        for i in 0..n {
            m[i][(i + 1) % n] = 10;
        }
        let txt = render_heatmap(&m, "bytes");
        assert!(txt.contains("[4 ranks/cell]"), "{txt}");
        // 64 bucket rows plus the header line.
        assert_eq!(txt.lines().count(), 65);
        // Bucket sums: of each bucket's 4 sends, 3 stay inside the bucket
        // and 1 crosses into the next, so the coarse maximum is 30.
        assert!(txt.contains("max=30"), "{txt}");

        // At 64 ranks exactly, rendering stays per-rank.
        let small = vec![vec![1u64; 64]; 64];
        let txt = render_heatmap(&small, "bytes");
        assert!(!txt.contains("ranks/cell"));
        assert_eq!(txt.lines().count(), 65);
    }
}

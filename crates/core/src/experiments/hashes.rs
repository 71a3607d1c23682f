//! Table 10: MD5 and SHA-1 phase breakdown.

use crate::experiments::pct;
use crate::Context;
use sslperf_hashes::{Md5, Sha1};
use sslperf_profile::{black_box, measure_min, Align, Table};
use std::fmt;

/// Input size used by the paper for Table 10.
pub const INPUT_LEN: usize = 1024;

/// MD5/SHA-1 Init/Update/Final breakdown over a 1024-byte input.
#[derive(Debug)]
pub struct Table10 {
    /// `(phase, md5 cycles, sha1 cycles)`.
    pub parts: Vec<(&'static str, f64, f64)>,
}

impl Table10 {
    fn total(&self, sha: bool) -> f64 {
        self.parts.iter().map(|(_, m, s)| if sha { *s } else { *m }).sum()
    }

    /// The update phase's share for MD5 (paper: 90.9%).
    #[must_use]
    pub fn md5_update_percent(&self) -> f64 {
        self.parts
            .iter()
            .find(|(n, _, _)| *n == "Update")
            .map_or(0.0, |(_, m, _)| m * 100.0 / self.total(false))
    }
}

impl fmt::Display for Table10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&format!(
            "Table 10. Execution time breakdown for MD5 and SHA-1 ({INPUT_LEN}-byte input)"
        ));
        t.columns(&[
            ("Functionality", Align::Left),
            ("MD5 cycles", Align::Right),
            ("MD5 %", Align::Right),
            ("SHA-1 cycles", Align::Right),
            ("SHA-1 %", Align::Right),
        ]);
        let (tm, ts) = (self.total(false), self.total(true));
        for (name, md5, sha) in &self.parts {
            t.row(&[
                *name,
                &format!("{md5:.0}"),
                &pct(md5 * 100.0 / tm),
                &format!("{sha:.0}"),
                &pct(sha * 100.0 / ts),
            ]);
        }
        t.row(&["Total", &format!("{tm:.0}"), "100", &format!("{ts:.0}"), "100"]);
        writeln!(f, "{t}")?;
        writeln!(f, "Paper anchors: Update 90.9% (MD5) and 92.1% (SHA-1); SHA-1 ≈ 1.6× MD5.")
    }
}

/// Runs the Table 10 experiment, timing Init, Update and Final separately.
#[must_use]
pub fn table10(ctx: &Context) -> Table10 {
    let s = (ctx.iterations() as u32).clamp(2, 10);
    let iters = 500;
    let data = vec![0x6bu8; INPUT_LEN];

    let md5_init = measure_min(s, iters, || {
        black_box(Md5::new());
    });
    let md5_update = measure_min(s, iters, || {
        let mut h = Md5::new();
        h.update(black_box(&data));
        black_box(&h);
    })
    .saturating_sub(md5_init);
    let md5_final = measure_min(s, iters, || {
        let mut h = Md5::new();
        h.update(black_box(&data));
        black_box(h.finalize());
    })
    .saturating_sub(md5_init + md5_update);

    // Table 10 is the paper's software anatomy (Update 92.1 % of SHA-1, SHA-1
    // ≈ 1.6× MD5), so SHA-1 is pinned to the portable kernel: on the SHA
    // unit it outruns MD5 and the table would describe the instruction, not
    // the algorithm. `ablate_sha_unit` (benches/ablations.rs) measures the
    // unit against it.
    let sha_init = measure_min(s, iters, || {
        black_box(Sha1::portable());
    });
    let sha_update = measure_min(s, iters, || {
        let mut h = Sha1::portable();
        h.update(black_box(&data));
        black_box(&h);
    })
    .saturating_sub(sha_init);
    let sha_final = measure_min(s, iters, || {
        let mut h = Sha1::portable();
        h.update(black_box(&data));
        black_box(h.finalize());
    })
    .saturating_sub(sha_init + sha_update);

    Table10 {
        parts: vec![
            ("Init", md5_init.get() as f64, sha_init.get() as f64),
            ("Update", md5_update.get() as f64, sha_update.get() as f64),
            ("Final", md5_final.get() as f64, sha_final.get() as f64),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;

    #[test]
    fn update_dominates_both_hashes() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t10 = table10(ctx());
                let sha_update = t10.parts[1].2;
                let sha_total = t10.total(true);
                t10.md5_update_percent() > 60.0 && sha_update / sha_total > 0.6
            }),
            "the Update phase must dominate both hashes"
        );
    }

    #[test]
    fn sha1_costs_more_than_md5() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t10 = table10(ctx());
                t10.total(true) > t10.total(false)
            }),
            "SHA-1 must cost more than MD5 over a 1 KB input"
        );
    }

    #[test]
    fn renders_all_phases() {
        let _serial = crate::test_ctx::timing_lock();
        let rendered = table10(ctx()).to_string();
        for phase in ["Init", "Update", "Final", "Total"] {
            assert!(rendered.contains(phase), "missing {phase}");
        }
    }
}

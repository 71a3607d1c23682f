//! Table 1 and Figure 2: where an HTTPS transaction's cycles go.

use crate::experiments::{pct, ExperimentError};
use crate::Context;
use sslperf_profile::{Align, PhaseSet, Table};
use sslperf_websim::SecureWebServer;
use std::fmt;

/// The paper's Table 1 percentages (1 KB page, DES-CBC3-SHA, Pentium 4).
pub const PAPER_TABLE1: [(&str, f64); 5] =
    [("libcrypto", 70.83), ("libssl", 0.82), ("httpd", 1.84), ("vmlinux", 17.51), ("other", 9.00)];

/// Result of the Table 1 experiment.
#[derive(Debug)]
pub struct Table1 {
    /// Merged component cycles over all transactions.
    pub components: PhaseSet,
    /// File size used (bytes).
    pub file_size: usize,
    /// Number of transactions run.
    pub transactions: usize,
}

impl Table1 {
    /// Percentage of the transaction spent in SSL processing
    /// (libcrypto + libssl); the paper reports ~71.6%.
    #[must_use]
    pub fn ssl_percent(&self) -> f64 {
        self.components.percent("libcrypto") + self.components.percent("libssl")
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&format!(
            "Table 1. Execution time breakdown in web server ({} B page, {} transactions)",
            self.file_size, self.transactions
        ));
        t.columns(&[
            ("Component", Align::Left),
            ("Measured %", Align::Right),
            ("Paper %", Align::Right),
        ]);
        for (name, paper) in PAPER_TABLE1 {
            t.row(&[name, &pct(self.components.percent(name)), &pct(paper)]);
        }
        t.row(&["SSL total", &pct(self.ssl_percent()), &pct(71.65)]);
        write!(f, "{t}")
    }
}

/// Runs the Table 1 experiment: full-handshake HTTPS transactions serving a
/// 1 KB page, components accounted per `sslperf-websim`.
///
/// # Errors
///
/// Propagates SSL failures from the measured transactions.
pub fn table1(ctx: &Context) -> Result<Table1, ExperimentError> {
    let server = SecureWebServer::new(ctx.server_config(), ctx.suite());
    ctx.server_config().clear_session_cache();
    let file_size = 1024;
    let mut components = PhaseSet::new();
    for i in 0..ctx.iterations() {
        let report = server.run_with_session(file_size, 0x1000 + i as u64, None)?;
        components.merge(&report.components);
    }
    Ok(Table1 { components, file_size, transactions: ctx.iterations() })
}

/// The file sizes of Figure 2 (bytes).
pub const FIG2_SIZES: [usize; 6] = [1024, 2048, 4096, 8192, 16_384, 32_768];

/// One Figure 2 series point: crypto-time split at a file size.
#[derive(Debug)]
pub struct Fig2Point {
    /// Request file size in bytes.
    pub file_size: usize,
    /// Crypto-category split for this size.
    pub categories: PhaseSet,
}

/// Result of the Figure 2 experiment.
#[derive(Debug)]
pub struct Fig2 {
    /// One point per file size.
    pub points: Vec<Fig2Point>,
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Figure 2. Time breakdown in crypto library vs request file size");
        t.columns(&[
            ("Size (KB)", Align::Right),
            ("public %", Align::Right),
            ("private %", Align::Right),
            ("hash %", Align::Right),
            ("other %", Align::Right),
        ]);
        for p in &self.points {
            t.row(&[
                &format!("{}", p.file_size / 1024),
                &pct(p.categories.percent("public")),
                &pct(p.categories.percent("private")),
                &pct(p.categories.percent("hash")),
                &pct(p.categories.percent("other")),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: public ≈ 90% at 1 KB, falling with size; private ≈ 2.4% at\n\
             1 KB, growing with size (Figure 2)."
        )
    }
}

/// Runs the Figure 2 experiment across [`FIG2_SIZES`].
///
/// Each size runs `iterations` transactions and keeps the **median** cycle
/// count per crypto category: a single scheduler preemption during one
/// record's MAC or cipher call would otherwise dominate the sum (Oprofile's
/// sampling has the same robustness property).
///
/// # Errors
///
/// Propagates SSL failures from the measured transactions.
pub fn fig2(ctx: &Context) -> Result<Fig2, ExperimentError> {
    let server = SecureWebServer::new(ctx.server_config(), ctx.suite());
    ctx.server_config().clear_session_cache();
    let mut points = Vec::new();
    for (s, &file_size) in FIG2_SIZES.iter().enumerate() {
        let runs: Vec<PhaseSet> = (0..ctx.iterations().max(3))
            .map(|i| {
                let seed = 0x2000 + (s * 1000 + i) as u64;
                Ok(server.run_with_session(file_size, seed, None)?.crypto_categories)
            })
            .collect::<Result<_, ExperimentError>>()?;
        let mut categories = PhaseSet::new();
        for cat in ["public", "private", "hash", "other"] {
            let mut values: Vec<u64> = runs.iter().map(|r| r.cycles(cat).get()).collect();
            values.sort_unstable();
            categories.add(cat, sslperf_profile::Cycles::new(values[values.len() / 2]));
        }
        points.push(Fig2Point { file_size, categories });
    }
    Ok(Fig2 { points })
}

/// One suite's row in the [`suite_sweep`] extension experiment.
#[derive(Debug)]
pub struct SuiteRow {
    /// The cipher suite.
    pub suite: sslperf_ssl::CipherSuite,
    /// SSL share of the transaction (percent).
    pub ssl_percent: f64,
    /// Public-key share of crypto time (percent).
    pub public_percent: f64,
    /// Private-key (bulk cipher) share of crypto time (percent).
    pub private_percent: f64,
}

/// Extension experiment: the Figure 2 split across every cipher suite.
///
/// The paper's conclusion argues optimizations must target both the RSA
/// handshake and the bulk cipher; this sweep shows how the balance moves
/// with the bulk cipher's speed (RC4 shrinks the private share, 3DES
/// inflates it).
#[derive(Debug)]
pub struct SuiteSweep {
    /// One row per supported suite.
    pub rows: Vec<SuiteRow>,
    /// The file size each transaction served (bytes).
    pub file_size: usize,
}

impl SuiteSweep {
    /// The row for `suite`, if present.
    #[must_use]
    pub fn row(&self, suite: sslperf_ssl::CipherSuite) -> Option<&SuiteRow> {
        self.rows.iter().find(|r| r.suite == suite)
    }
}

impl fmt::Display for SuiteSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&format!(
            "Extension: crypto split by cipher suite ({} B page)",
            self.file_size
        ));
        t.columns(&[
            ("Suite", Align::Left),
            ("SSL %", Align::Right),
            ("public %", Align::Right),
            ("private %", Align::Right),
        ]);
        for row in &self.rows {
            t.row(&[
                row.suite.name(),
                &pct(row.ssl_percent),
                &pct(row.public_percent),
                &pct(row.private_percent),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Runs the suite sweep at an 8 KB page (bulk work visible, handshake
/// still dominant enough to compare).
///
/// # Errors
///
/// Propagates SSL failures from the measured transactions.
pub fn suite_sweep(ctx: &Context) -> Result<SuiteSweep, ExperimentError> {
    let file_size = 8 * 1024;
    let mut rows = Vec::new();
    for suite in sslperf_ssl::CipherSuite::ALL {
        let server = SecureWebServer::new(ctx.server_config(), suite);
        ctx.server_config().clear_session_cache();
        let mut components = PhaseSet::new();
        let mut categories = PhaseSet::new();
        for i in 0..ctx.iterations().max(3) {
            let seed = 0x7000 + i as u64;
            let report = server.run_with_session(file_size, seed, None)?;
            components.merge(&report.components);
            categories.merge(&report.crypto_categories);
        }
        rows.push(SuiteRow {
            suite,
            ssl_percent: components.percent("libcrypto") + components.percent("libssl"),
            public_percent: categories.percent("public"),
            private_percent: categories.percent("private"),
        });
    }
    Ok(SuiteSweep { rows, file_size })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;
    #[test]
    fn suite_sweep_balances_follow_cipher_speed() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let sweep = suite_sweep(ctx()).expect("suite sweep");
                let private = |s| sweep.row(s).expect("row").private_percent;
                // The slow bulk cipher (3DES) must spend a larger crypto
                // share on private-key work than the fast one (RC4).
                private(sslperf_ssl::CipherSuite::RsaDesCbc3Sha)
                    > private(sslperf_ssl::CipherSuite::RsaRc4Md5)
            }),
            "3DES must carry a larger bulk share than RC4"
        );
        assert!(suite_sweep(ctx()).expect("suite sweep").to_string().contains("DES-CBC3-SHA"));
    }

    #[test]
    fn table1_components_present_and_ssl_dominates() {
        let _serial = crate::test_ctx::timing_lock();
        let t1 = table1(ctx()).expect("table1");
        for (name, _) in PAPER_TABLE1 {
            assert!(t1.components.get(name).is_some(), "missing {name}");
        }
        // The floor sits just under the quietest sample: the kernel model is
        // fixed, so noise only adds SSL cycles. The quick context's 512-bit
        // key reads at least 38.3 % with SHA-1 on the CPU's SHA unit (41.1 %
        // on the portable kernel); the paper's 71.6 % needs its 1024-bit key.
        let mut shares = Vec::new();
        assert!(
            crate::test_ctx::eventually(3, || {
                let share = table1(ctx()).expect("table1").ssl_percent();
                shares.push(share);
                share > 37.0
            }),
            "SSL share of each attempt {shares:.1?}%, none above 37.0%"
        );
        let rendered = t1.to_string();
        assert!(rendered.contains("libcrypto"));
        assert!(rendered.contains("Paper %"));
    }

    #[test]
    fn fig2_public_share_declines_with_size() {
        let _serial = crate::test_ctx::timing_lock();
        let f2 = fig2(ctx()).expect("fig2");
        assert_eq!(f2.points.len(), FIG2_SIZES.len());
        assert!(
            crate::test_ctx::eventually(3, || {
                let f2 = fig2(ctx()).expect("fig2");
                let first = f2.points.first().expect("points");
                let last = f2.points.last().expect("points");
                first.categories.percent("public") > last.categories.percent("public")
                    && first.categories.percent("private") < last.categories.percent("private")
            }),
            "public-key share must fall and private share grow as the file grows"
        );
        assert!(f2.to_string().contains("Size (KB)"));
    }
}

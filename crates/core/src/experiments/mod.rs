//! The paper's tables and figures as runnable experiments.
//!
//! Each function takes a [`crate::Context`], performs real
//! measurements on this workspace's substrates, and returns a typed result
//! that renders (via `Display`) as the corresponding paper table, with a
//! column of the paper's published numbers alongside for comparison.
//!
//! Experiments are fallible: anything that can break — key generation,
//! handshakes, cipher construction, socket serving — surfaces as an
//! [`ExperimentError`] instead of a panic. [`ExperimentId`] names every
//! experiment so callers can select a subset, and [`run_all_reports`]
//! produces the whole paper in order.

pub mod arch;
mod baseline;
pub mod handshake;
pub mod hashes;
pub mod netload;
pub mod rsa;
pub mod symmetric;
pub mod webserver;

pub use baseline::BlockingBaseline;

use crate::Context;
use sslperf_bignum::BnError;
use sslperf_ciphers::CipherError;
use sslperf_rsa::RsaError;
use sslperf_ssl::SslError;
use std::fmt;

/// Why an experiment could not produce its table or figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// An SSL handshake or record-layer operation failed.
    Ssl(SslError),
    /// An RSA operation failed.
    Rsa(RsaError),
    /// A symmetric cipher rejected its parameters.
    Cipher(CipherError),
    /// A bignum kernel rejected its operands.
    Bignum(BnError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Ssl(e) => write!(f, "ssl: {e}"),
            ExperimentError::Rsa(e) => write!(f, "rsa: {e}"),
            ExperimentError::Cipher(e) => write!(f, "cipher: {e}"),
            ExperimentError::Bignum(e) => write!(f, "bignum: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<SslError> for ExperimentError {
    fn from(e: SslError) -> Self {
        ExperimentError::Ssl(e)
    }
}

impl From<RsaError> for ExperimentError {
    fn from(e: RsaError) -> Self {
        ExperimentError::Rsa(e)
    }
}

impl From<CipherError> for ExperimentError {
    fn from(e: CipherError) -> Self {
        ExperimentError::Cipher(e)
    }
}

impl From<BnError> for ExperimentError {
    fn from(e: BnError) -> Self {
        ExperimentError::Bignum(e)
    }
}

/// Names one experiment of the paper reproduction.
///
/// The order of [`ExperimentId::ALL`] is the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1: SSL processing share of the web-serving transaction.
    Table1,
    /// Figure 2: crypto cost categories across file sizes.
    Fig2,
    /// Table 2: handshake step timing anatomy.
    Table2,
    /// Table 3: public-key share of the handshake.
    Table3,
    /// Figure 3: key-setup share of encryption vs data size.
    Fig3,
    /// Table 4: symmetric cipher data structures (static).
    Table4,
    /// Table 5: AES block-operation breakdown.
    Table5,
    /// Table 6: DES/3DES block-operation breakdown.
    Table6,
    /// Table 7: RSA decryption step breakdown.
    Table7,
    /// Table 8: RSA word-kernel cost accounting.
    Table8,
    /// Table 9: the `bn_mul_add_words` instruction listing (static).
    Table9,
    /// Table 10: MD5/SHA-1 phase breakdown.
    Table10,
    /// Table 11: CPI, path length and throughput per algorithm.
    Table11,
    /// Table 12: top-ten dynamic instructions per algorithm.
    Table12,
    /// Cipher-suite sweep of the serving experiment.
    SuiteSweep,
    /// Loaded server over real sockets: the event-loop server next to the
    /// blocking baseline, both with a shared session cache.
    LoadedServer,
    /// Crypto-offload ablation: inline RSA vs the event-loop crypto
    /// pool at 1/2/4 workers (§5 "parallel crypto engines").
    CryptoOffload,
    /// Tables 1-3 measured live from the serving layer's metrics registry
    /// instead of the in-process pipeline.
    LiveAnatomy,
    /// Restart survival: stateless-ticket resumption vs the in-memory id
    /// cache across a full shared-nothing fleet restart.
    RestartSurvival,
    /// Protocol anatomy: SSLv3 vs TLS 1.3 handshake step latencies,
    /// measured side by side from one live dual-protocol server.
    ProtocolAnatomy,
}

impl ExperimentId {
    /// Every experiment, in paper order.
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Table1,
        ExperimentId::Fig2,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Fig3,
        ExperimentId::Table4,
        ExperimentId::Table5,
        ExperimentId::Table6,
        ExperimentId::Table7,
        ExperimentId::Table8,
        ExperimentId::Table9,
        ExperimentId::Table10,
        ExperimentId::Table11,
        ExperimentId::Table12,
        ExperimentId::SuiteSweep,
        ExperimentId::LoadedServer,
        ExperimentId::CryptoOffload,
        ExperimentId::LiveAnatomy,
        ExperimentId::RestartSurvival,
        ExperimentId::ProtocolAnatomy,
    ];

    /// The human-readable name ("Table 1", "Figure 3", ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "Table 1",
            ExperimentId::Fig2 => "Figure 2",
            ExperimentId::Table2 => "Table 2",
            ExperimentId::Table3 => "Table 3",
            ExperimentId::Fig3 => "Figure 3",
            ExperimentId::Table4 => "Table 4",
            ExperimentId::Table5 => "Table 5",
            ExperimentId::Table6 => "Table 6",
            ExperimentId::Table7 => "Table 7",
            ExperimentId::Table8 => "Table 8",
            ExperimentId::Table9 => "Table 9",
            ExperimentId::Table10 => "Table 10",
            ExperimentId::Table11 => "Table 11",
            ExperimentId::Table12 => "Table 12",
            ExperimentId::SuiteSweep => "Suite sweep",
            ExperimentId::LoadedServer => "Loaded server",
            ExperimentId::CryptoOffload => "Crypto offload",
            ExperimentId::LiveAnatomy => "Live anatomy",
            ExperimentId::RestartSurvival => "Restart survival",
            ExperimentId::ProtocolAnatomy => "Protocol anatomy",
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One experiment's rendered output.
#[derive(Debug, Clone)]
pub struct Report {
    id: ExperimentId,
    rendered: String,
}

impl Report {
    /// Which experiment produced this report.
    #[must_use]
    pub fn id(&self) -> ExperimentId {
        self.id
    }

    /// The rendered table or figure.
    #[must_use]
    pub fn rendered(&self) -> &str {
        &self.rendered
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// Runs one experiment and renders it.
///
/// # Errors
///
/// Propagates the experiment's [`ExperimentError`].
pub fn run_report(ctx: &Context, id: ExperimentId) -> Result<Report, ExperimentError> {
    let rendered = match id {
        ExperimentId::Table1 => webserver::table1(ctx)?.to_string(),
        ExperimentId::Fig2 => webserver::fig2(ctx)?.to_string(),
        ExperimentId::Table2 => handshake::table2(ctx)?.to_string(),
        ExperimentId::Table3 => handshake::table3(ctx)?.to_string(),
        ExperimentId::Fig3 => symmetric::fig3(ctx)?.to_string(),
        ExperimentId::Table4 => symmetric::table4().to_string(),
        ExperimentId::Table5 => symmetric::table5(ctx)?.to_string(),
        ExperimentId::Table6 => symmetric::table6(ctx)?.to_string(),
        ExperimentId::Table7 => rsa::table7(ctx)?.to_string(),
        ExperimentId::Table8 => rsa::table8(ctx)?.to_string(),
        ExperimentId::Table9 => arch::table9().to_string(),
        ExperimentId::Table10 => hashes::table10(ctx).to_string(),
        ExperimentId::Table11 => arch::table11(ctx)?.to_string(),
        ExperimentId::Table12 => arch::table12(ctx)?.to_string(),
        ExperimentId::SuiteSweep => webserver::suite_sweep(ctx)?.to_string(),
        ExperimentId::LoadedServer => netload::loaded_server(ctx)?.to_string(),
        ExperimentId::CryptoOffload => netload::crypto_offload(ctx)?.to_string(),
        ExperimentId::LiveAnatomy => netload::live_anatomy(ctx)?.to_string(),
        ExperimentId::RestartSurvival => netload::restart_survival(ctx)?.to_string(),
        ExperimentId::ProtocolAnatomy => netload::protocol_anatomy(ctx)?.to_string(),
    };
    Ok(Report { id, rendered })
}

/// Runs every experiment in paper order.
///
/// Expect minutes at [`Context::paper`] settings, seconds at
/// [`Context::quick`].
///
/// # Errors
///
/// Stops at the first experiment that fails.
pub fn run_all_reports(ctx: &Context) -> Result<Vec<(ExperimentId, Report)>, ExperimentError> {
    ExperimentId::ALL.into_iter().map(|id| run_report(ctx, id).map(|report| (id, report))).collect()
}

/// Formats a percentage with one decimal, the paper's style.
pub(crate) fn pct(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats kilocycles with sensible precision.
pub(crate) fn kcycles(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// A full run of every experiment, rendered in paper order.
#[derive(Debug)]
pub struct FullReport {
    sections: Vec<String>,
}

impl FullReport {
    /// The rendered sections in paper order.
    #[must_use]
    pub fn sections(&self) -> &[String] {
        &self.sections
    }
}

impl fmt::Display for FullReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.sections {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Runs every experiment in paper order and renders the sections.
///
/// # Errors
///
/// Stops at the first experiment that fails.
pub fn run_all(ctx: &Context) -> Result<FullReport, ExperimentError> {
    let sections = run_all_reports(ctx)?.into_iter().map(|(_, report)| report.rendered).collect();
    Ok(FullReport { sections })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(90.44), "90.4");
        assert_eq!(kcycles(18941.2), "18941");
        assert_eq!(kcycles(3.44), "3.4");
        assert_eq!(kcycles(0.119), "0.12");
    }

    #[test]
    fn experiment_ids_are_unique_and_named() {
        let mut names: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ExperimentId::ALL.len());
        assert_eq!(ExperimentId::Fig3.to_string(), "Figure 3");
    }

    #[test]
    fn experiment_error_display_routes_sources() {
        let e = ExperimentError::from(sslperf_rsa::RsaError::MessageTooLong);
        assert!(e.to_string().starts_with("rsa: "));
        let e = ExperimentError::from(sslperf_bignum::BnError::EvenModulus);
        assert!(e.to_string().starts_with("bignum: "));
    }
}

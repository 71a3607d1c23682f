//! Tables 2 and 3: the anatomy of the server-side SSL handshake.

use crate::experiments::{kcycles, pct, ExperimentError};
use crate::Context;
use sslperf_profile::{Align, Cycles, PhaseSet, Table};
use sslperf_rng::SslRng;
use sslperf_ssl::{
    ClientEngine, Engine, ServerConfig, ServerEngine, SslClient, SslError, SslServer,
    SERVER_STEP_NAMES,
};
use std::fmt;

/// Human descriptions for each step, condensed from the paper's Table 2.
pub const STEP_DESCRIPTIONS: [&str; 10] = [
    "Initialize states and variables",
    "check version, get client random/session-id, choose cipher",
    "generate server random, send server hello",
    "send server certificate",
    "send server done message, buffer control",
    "rsa-decrypt pre-master, generate master key",
    "read CCS, gen key block, read+verify client finished",
    "send server change cipher spec",
    "calculate server finish hashes, MAC, encrypt, send",
    "internal buffer control, cache session, cleanse",
];

/// One handshake, fully instrumented.
#[derive(Debug)]
pub struct Table2 {
    /// Per-step latency.
    pub steps: PhaseSet,
    /// Per-crypto-function latency, aggregated.
    pub crypto: PhaseSet,
    /// `(step, function, cycles)` in call order.
    pub detail: Vec<(usize, &'static str, Cycles)>,
    /// Number of handshakes accumulated.
    pub runs: usize,
}

impl Table2 {
    /// Total handshake latency.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.steps.total()
    }

    /// Total crypto latency within the handshake.
    #[must_use]
    pub fn crypto_total(&self) -> Cycles {
        self.crypto.total()
    }

    fn crypto_for_step(&self, step: usize) -> Vec<(&'static str, Cycles)> {
        let mut rows: Vec<(&'static str, Cycles)> = Vec::new();
        for (s, name, cycles) in &self.detail {
            if *s == step {
                if let Some(existing) = rows.iter_mut().find(|(n, _)| n == name) {
                    existing.1 += *cycles;
                } else {
                    rows.push((name, *cycles));
                }
            }
        }
        rows
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(&format!(
            "Table 2. Execution time breakdown in SSL handshake (avg over {} handshakes; \
             1000s of cycles)",
            self.runs
        ));
        t.columns(&[
            ("Step", Align::Right),
            ("Functionality", Align::Left),
            ("Latency", Align::Right),
            ("Crypto functions called", Align::Left),
            ("Crypto latency", Align::Right),
        ]);
        let n = self.runs.max(1) as f64;
        for (idx, name) in SERVER_STEP_NAMES.iter().enumerate() {
            let latency = self.steps.cycles(name).get() as f64 / n / 1000.0;
            let crypto = self.crypto_for_step(idx);
            if crypto.is_empty() {
                t.row(&[
                    &idx.to_string(),
                    &(*name).to_owned(),
                    &kcycles(latency),
                    &String::new(),
                    &String::new(),
                ]);
            } else {
                for (row_idx, (func, cycles)) in crypto.iter().enumerate() {
                    let step_col = if row_idx == 0 { idx.to_string() } else { String::new() };
                    let lat_col = if row_idx == 0 { kcycles(latency) } else { String::new() };
                    let name_col = if row_idx == 0 { (*name).to_owned() } else { String::new() };
                    t.row(&[
                        &step_col,
                        &name_col,
                        &lat_col,
                        &(*func).to_owned(),
                        &kcycles(cycles.get() as f64 / n / 1000.0),
                    ]);
                }
            }
        }
        t.row(&[
            "",
            "Total",
            &kcycles(self.total().get() as f64 / n / 1000.0),
            "",
            &kcycles(self.crypto_total().get() as f64 / n / 1000.0),
        ]);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "Paper anchors: total 20540 kcycles; step 5 dominated by\n\
             rsa_private_decryption (18563 kcycles of 18941)."
        )
    }
}

/// Runs `iterations` fully instrumented handshakes and accumulates the
/// per-step and per-function latencies.
///
/// # Errors
///
/// Propagates SSL failures from the measured handshakes.
pub fn table2(ctx: &Context) -> Result<Table2, ExperimentError> {
    ctx.server_config().clear_session_cache();
    let mut steps = PhaseSet::new();
    let mut crypto = PhaseSet::new();
    let mut detail: Vec<(usize, &'static str, Cycles)> = Vec::new();
    for i in 0..ctx.iterations() {
        let client =
            SslClient::new(ctx.suite(), SslRng::from_seed(format!("t2-client-{i}").as_bytes()));
        let (_, server) =
            establish(ctx.server_config(), client, format!("t2-server-{i}").as_bytes())?;
        let server = server.machine();
        for (name, cycles) in server.ledger().steps {
            steps.add(name, cycles);
        }
        crypto.merge(server.crypto());
        for (s, name, cycles) in server.crypto_detail() {
            if let Some(existing) = detail.iter_mut().find(|(ds, dn, _)| ds == s && dn == name) {
                existing.2 += *cycles;
            } else {
                detail.push((*s, name, *cycles));
            }
        }
        // Prevent resumption between iterations: each client offers no
        // session id, so nothing to clear, but keep the cache bounded.
        ctx.server_config().clear_session_cache();
    }
    Ok(Table2 { steps, crypto, detail, runs: ctx.iterations() })
}

/// Drives `client` (fresh or resuming) through a handshake with a new
/// server on `config` seeded with `server_seed`, passing whole flights
/// between the two engines in memory as `ssltest` does: two round trips,
/// the four flights of a full handshake (a resumed one's last is empty).
///
/// # Errors
///
/// Propagates SSL failures from either side, and
/// [`SslError::NotReady`] when the two round trips leave either side
/// unestablished.
pub(crate) fn establish<'a>(
    config: &'a ServerConfig,
    client: SslClient,
    server_seed: &[u8],
) -> Result<(ClientEngine, ServerEngine<'a>), ExperimentError> {
    let mut client = Engine::new(client)?;
    let mut server = Engine::new(SslServer::new(config, SslRng::from_seed(server_seed)))?;
    for _ in 0..2 {
        server.feed_from(&mut client)?;
        client.feed_from(&mut server)?;
    }
    if !(client.is_established() && server.is_established()) {
        return Err(SslError::NotReady("handshake incomplete").into());
    }
    Ok((client, server))
}

/// The paper's Table 3 reference percentages.
pub const PAPER_TABLE3: [(&str, f64); 4] = [
    ("Public key encryption", 90.4),
    ("Private key encryption", 0.1),
    ("Hash functions", 2.8),
    ("Other functions", 1.7),
];

/// Crypto-category summary of the handshake (the paper's Table 3).
#[derive(Debug)]
pub struct Table3 {
    /// Cycles per category: public / private / hash / other.
    pub categories: PhaseSet,
    /// Total handshake cycles (crypto + non-crypto).
    pub total: Cycles,
}

impl Table3 {
    /// Crypto share of the whole handshake (paper: 95.0%).
    #[must_use]
    pub fn crypto_percent(&self) -> f64 {
        self.categories.total().percent_of(self.total)
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new("Table 3. Crypto operations during SSL handshake");
        t.columns(&[
            ("Functionality", Align::Left),
            ("Measured %", Align::Right),
            ("Paper %", Align::Right),
        ]);
        let label = |cat: &str| match cat {
            "public" => "Public key encryption",
            "private" => "Private key encryption",
            "hash" => "Hash functions",
            _ => "Other functions",
        };
        for cat in ["public", "private", "hash", "other"] {
            let measured = self.categories.cycles(cat).percent_of(self.total);
            let paper =
                PAPER_TABLE3.iter().find(|(name, _)| *name == label(cat)).map_or(0.0, |(_, v)| *v);
            t.row(&[label(cat), &pct(measured), &pct(paper)]);
        }
        t.row(&["Total crypto operations", &pct(self.crypto_percent()), &pct(95.0)]);
        write!(f, "{t}")
    }
}

/// Categorizes a crypto function name into the paper's four groups.
#[must_use]
pub fn categorize(function: &str) -> &'static str {
    match function {
        "rsa_private_decryption" | "rsa_public_op" => "public",
        "pri_decryption_and_mac" | "pri_encryption_and_mac" => "private",
        "finish_mac" | "final_finish_mac" | "init_finished_mac" | "gen_master_secret"
        | "gen_key_block" | "mac" => "hash",
        _ => "other",
    }
}

/// Runs the Table 3 experiment (reusing the Table 2 measurement).
///
/// # Errors
///
/// Propagates SSL failures from the measured handshakes.
pub fn table3(ctx: &Context) -> Result<Table3, ExperimentError> {
    let t2 = table2(ctx)?;
    let mut categories = PhaseSet::new();
    for phase in t2.crypto.iter() {
        categories.add(categorize(phase.name()), phase.cycles());
    }
    Ok(Table3 { categories, total: t2.total() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::ctx;

    #[test]
    fn table2_all_steps_timed() {
        let _serial = crate::test_ctx::timing_lock();
        let t2 = table2(ctx()).expect("table2");
        for name in SERVER_STEP_NAMES {
            assert!(t2.steps.get(name).is_some(), "missing step {name}");
        }
        assert!(t2.crypto_total() <= t2.total(), "crypto is a subset of the handshake");
        let rendered = t2.to_string();
        assert!(rendered.contains("get_client_kx"));
        assert!(rendered.contains("rsa_private_decryption"));
    }

    #[test]
    fn table2_rsa_dominates_step5() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t2 = table2(ctx()).expect("table2");
                let rsa = t2.crypto.cycles("rsa_private_decryption");
                let step5 = t2.steps.cycles("get_client_kx");
                rsa.get() > step5.get() / 2
            }),
            "RSA decryption should dominate step 5"
        );
    }

    #[test]
    fn table3_public_key_dominates() {
        let _serial = crate::test_ctx::timing_lock();
        assert!(
            crate::test_ctx::eventually(3, || {
                let t3 = table3(ctx()).expect("table3");
                let public = t3.categories.cycles("public").percent_of(t3.total);
                let private = t3.categories.cycles("private").percent_of(t3.total);
                public > 30.0 && public > private && t3.crypto_percent() > 50.0
            }),
            "public-key work must dominate the handshake"
        );
        assert!(table3(ctx()).expect("table3").to_string().contains("Public key encryption"));
    }

    #[test]
    fn categorize_covers_known_functions() {
        assert_eq!(categorize("rsa_private_decryption"), "public");
        assert_eq!(categorize("pri_encryption_and_mac"), "private");
        assert_eq!(categorize("finish_mac"), "hash");
        assert_eq!(categorize("rand_pseudo_bytes"), "other");
        assert_eq!(categorize("x509_functions"), "other");
    }
}

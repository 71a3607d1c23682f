//! In-memory HTTPS web-server transaction simulator.
//!
//! The paper's web-server numbers (Table 1, Figure 2) come from Apache +
//! `mod_ssl` driven by `curl` clients, profiled system-wide with Oprofile
//! (§3.1). This crate reproduces that setup on one machine with no sockets:
//!
//! * **SSL and crypto cycles are measured**, not modelled — every
//!   transaction drives the real [`sslperf_ssl`] state machines and the
//!   per-component accounting reads their instrumentation.
//! * **HTTP processing is real** — requests are parsed and responses built
//!   ([`http`]), and that work is timed as the `httpd` component.
//! * **Kernel TCP and libc work cannot exist in-process**, so the `vmlinux`
//!   and `other` components use the documented cost model in [`costs`]
//!   (fixed per-connection and per-byte charges typical of 2004-era Linux),
//!   applied to the actual byte counts on the simulated wire.
//!
//! The headline experiment: [`SecureWebServer::run_transaction`] executes
//! one full HTTPS GET (TCP "connect", SSL handshake, request, response,
//! teardown) and returns a [`TransactionReport`] whose component split is
//! the paper's Table 1 row set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod http;
pub mod loadgen;

use costs::CostModel;
use sslperf_profile::{measure, Cycles, PhaseSet, Stopwatch};
use sslperf_rng::SslRng;
use sslperf_ssl::{
    CipherSuite, RecordBuffer, ServerConfig, SslClient, SslError, SslServer, MAX_FRAGMENT,
};

/// Component labels in the paper's Table 1 order.
pub const COMPONENT_NAMES: [&str; 5] = ["libcrypto", "libssl", "httpd", "vmlinux", "other"];

/// The outcome of one simulated HTTPS transaction.
#[derive(Debug, Clone)]
pub struct TransactionReport {
    /// Per-component cycles (libcrypto, libssl, httpd, vmlinux, other).
    pub components: PhaseSet,
    /// Crypto cycles by category: `public`, `private`, `hash`, `other`
    /// (the paper's Figure 2 split).
    pub crypto_categories: PhaseSet,
    /// Bytes that crossed the simulated wire in either direction.
    pub wire_bytes: usize,
    /// Response body size requested.
    pub file_size: usize,
    /// Whether the SSL session was resumed from the cache.
    pub resumed: bool,
}

impl TransactionReport {
    /// Percentage of the transaction spent in SSL processing
    /// (libcrypto + libssl) — the paper's headline ~70% number.
    #[must_use]
    pub fn ssl_percent(&self) -> f64 {
        self.components.percent("libcrypto") + self.components.percent("libssl")
    }
}

/// A simulated secure web server (Apache + mod_ssl stand-in).
#[derive(Debug)]
pub struct SecureWebServer<'a> {
    config: &'a ServerConfig,
    suite: CipherSuite,
    costs: CostModel,
}

impl<'a> SecureWebServer<'a> {
    /// Creates a server using `suite` for every connection.
    #[must_use]
    pub fn new(config: &'a ServerConfig, suite: CipherSuite) -> Self {
        SecureWebServer { config, suite, costs: CostModel::default() }
    }

    /// Replaces the kernel/httpd cost model (for sensitivity studies).
    #[must_use]
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Runs one HTTPS GET transaction for a `file_size`-byte document and
    /// accounts every cycle to a component.
    ///
    /// `seed` determines all randomness (client and server), making runs
    /// reproducible. When `resume_from` carries a previous session, the
    /// client attempts resumption.
    ///
    /// # Errors
    ///
    /// Propagates any SSL failure (none occur for well-formed inputs).
    pub fn run_transaction(
        &self,
        file_size: usize,
        seed: u64,
        resume_from: Option<sslperf_ssl::SslClient>,
    ) -> Result<TransactionReport, SslError> {
        // `resume_from` as a whole client keeps the session handle API
        // simple: we pull the session out of an established client.
        let session = resume_from.and_then(|c| c.session());
        self.run_with_session(file_size, seed, session)
    }

    /// Like [`SecureWebServer::run_transaction`] but resuming an explicit
    /// session handle. Returns the report and the client (whose session can
    /// seed further resumptions).
    ///
    /// # Errors
    ///
    /// Propagates any SSL failure.
    pub fn run_with_session(
        &self,
        file_size: usize,
        seed: u64,
        session: Option<sslperf_ssl::ClientSession>,
    ) -> Result<TransactionReport, SslError> {
        let client_rng = SslRng::from_seed(&[b"client", &seed.to_le_bytes()[..]].concat());
        let server_rng = SslRng::from_seed(&[b"server", &seed.to_le_bytes()[..]].concat());
        let mut client = match session {
            Some(s) => SslClient::resuming(s, client_rng),
            None => SslClient::new(self.suite, client_rng),
        };
        let mut wire_bytes = 0usize;
        let mut ssl_total = Cycles::ZERO;

        // --- TCP connection (cost model only: no kernel in-process). ---
        let mut components = PhaseSet::new();

        // --- SSL handshake: server side measured for real. ---
        let flight1 = client.hello()?;
        wire_bytes += flight1.len();
        let sw = Stopwatch::start();
        let mut server = SslServer::new(self.config, server_rng);
        let flight2 = server.process_client_hello(&flight1)?;
        ssl_total += sw.elapsed();
        wire_bytes += flight2.len();

        let flight3 = client.process_server_flight(&flight2)?;
        wire_bytes += flight3.len();
        let sw = Stopwatch::start();
        let flight4 = server.process_client_flight(&flight3)?;
        ssl_total += sw.elapsed();
        wire_bytes += flight4.len();
        if !flight4.is_empty() {
            client.process_server_finish(&flight4)?;
        }

        // --- HTTP request over the secure channel (zero-copy pipeline:
        // every record is sealed, "transported" and opened inside one
        // buffer). ---
        let path = format!("/doc_{file_size}.bin");
        let mut record = RecordBuffer::new();
        client.seal_into(http::HttpRequest::get(&path).to_bytes().as_slice(), &mut record)?;
        wire_bytes += record.len();

        let sw = Stopwatch::start();
        let request_range = server.open_in_place(&mut record)?;
        ssl_total += sw.elapsed();
        let request_plain = &record.as_slice()[request_range];

        // httpd work: parse the request, build the response (real work,
        // measured).
        let (response_bytes, httpd_cycles) = measure(|| {
            let request = http::HttpRequest::parse(request_plain)?;
            let body = http::synthesize_document(request.path(), file_size);
            Ok::<_, SslError>(http::HttpResponse::ok(body).to_bytes())
        });
        let response_bytes = response_bytes?;
        components.add("httpd", httpd_cycles);

        // Encrypt and "send" the response one fragment at a time — the
        // records a whole-response seal cuts — each opened in place by the
        // (unmeasured) client.
        for fragment in response_bytes.chunks(MAX_FRAGMENT) {
            let sw = Stopwatch::start();
            server.seal_into(fragment, &mut record)?;
            ssl_total += sw.elapsed();
            wire_bytes += record.len();
            client.open_in_place(&mut record)?;
        }

        // --- Component accounting. ---
        // libcrypto: handshake crypto functions + record-layer cipher/MAC.
        let handshake_crypto = server.crypto().total();
        let record_crypto = server.record_crypto().total();
        let libcrypto = handshake_crypto + record_crypto;
        components.add("libcrypto", libcrypto);
        // libssl: everything else inside the SSL calls.
        components.add("libssl", ssl_total.saturating_sub(libcrypto));
        // vmlinux + other: cost model over real byte counts.
        components.add("vmlinux", self.costs.kernel(wire_bytes));
        components.add("other", self.costs.userland_other(wire_bytes));

        let crypto_categories = figure2_categories(server.crypto(), &server.record_crypto());
        Ok(TransactionReport {
            components,
            crypto_categories,
            wire_bytes,
            file_size,
            resumed: server.resumed(),
        })
    }
}

/// The paper's Figure 2 split of a server's crypto cycles — `public`,
/// `private`, `hash`, `other` — from its handshake and record-layer phases.
fn figure2_categories(handshake: &PhaseSet, record: &PhaseSet) -> PhaseSet {
    let mut public = Cycles::ZERO;
    let mut private = Cycles::ZERO;
    let mut hash = Cycles::ZERO;
    let mut other = Cycles::ZERO;
    for phase in handshake.iter() {
        match phase.name() {
            "rsa_private_decryption" => public += phase.cycles(),
            "gen_master_secret" | "gen_key_block" | "final_finish_mac" | "finish_mac"
            | "init_finished_mac" => hash += phase.cycles(),
            // The handshake's own protected records are also record-layer
            // phases below; counting them here too would count them twice.
            "pri_decryption_and_mac" | "pri_encryption_and_mac" => {}
            _ => other += phase.cycles(),
        }
    }
    // Every record phase is filed: a MAC on its own is a hash; the cipher,
    // and a stitched seal's MAC-and-encrypt span (which no timer can
    // split), are private-key encryption, where Table 2 files a
    // MAC-and-encrypt record.
    for phase in record.iter() {
        match phase.name() {
            "mac" => hash += phase.cycles(),
            _ => private += phase.cycles(),
        }
    }
    let mut categories = PhaseSet::new();
    categories.add("public", public);
    categories.add("private", private);
    categories.add("hash", hash);
    categories.add("other", other);
    categories
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_rsa::{LimbWidth, RsaPrivateKey};
    use std::sync::OnceLock;

    fn config() -> &'static ServerConfig {
        static CONFIG: OnceLock<ServerConfig> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let mut rng = SslRng::from_seed(b"websim-test-key");
            let mut key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
            // The shape assertions below (public-key dominance, resumption
            // skipping the RSA cost) restate the paper's 32-bit profile at
            // an already-shrunk 512-bit key; on the u64 serving kernels the
            // RSA share gets small enough that blinding-cache warmth flips
            // the comparisons. Pin the paper-faithful width, as the
            // Table 8/11 experiments do.
            key.set_limb_width(LimbWidth::U32);
            ServerConfig::new(key, "websim.test").expect("config")
        })
    }

    #[test]
    fn transaction_completes_and_accounts_components() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let report = server.run_transaction(1024, 1, None).unwrap();
        for name in COMPONENT_NAMES {
            assert!(report.components.get(name).is_some(), "missing {name}");
        }
        assert!(!report.resumed);
        assert!(report.wire_bytes > 1024, "wire carries at least the document");
        assert_eq!(report.file_size, 1024);
    }

    #[test]
    fn ssl_dominates_transaction() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let report = server.run_transaction(1024, 2, None).unwrap();
        // The paper reports ~70%; with a 512-bit key and modern hardware the
        // exact number differs, but SSL must still dominate.
        assert!(report.ssl_percent() > 40.0, "got {:.1}%", report.ssl_percent());
    }

    #[test]
    fn public_key_dominates_crypto_at_small_files() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let report = server.run_transaction(1024, 3, None).unwrap();
        let public = report.crypto_categories.percent("public");
        let private = report.crypto_categories.percent("private");
        assert!(public > private, "public {public:.1}% vs private {private:.1}%");
    }

    #[test]
    fn private_share_grows_with_file_size() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let small = server.run_transaction(1024, 4, None).unwrap();
        let large = server.run_transaction(32 * 1024, 5, None).unwrap();
        assert!(
            large.crypto_categories.percent("private") > small.crypto_categories.percent("private"),
            "bulk encryption share must grow with the file"
        );
    }

    #[test]
    fn resumed_transaction_skips_rsa() {
        config().clear_session_cache();
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let first = server.run_with_session(1024, 10, None).unwrap();
        assert!(!first.resumed);
        // Pull the session out of a fresh client/server pair through the
        // public API: run a handshake manually.
        let client_rng = SslRng::from_seed(b"resume-client");
        let server_rng = SslRng::from_seed(b"resume-server");
        let mut client = SslClient::new(CipherSuite::RsaDesCbc3Sha, client_rng);
        let mut ssl_server = SslServer::new(config(), server_rng);
        let f1 = client.hello().unwrap();
        let f2 = ssl_server.process_client_hello(&f1).unwrap();
        let f3 = client.process_server_flight(&f2).unwrap();
        let f4 = ssl_server.process_client_flight(&f3).unwrap();
        client.process_server_finish(&f4).unwrap();
        let session = client.session().unwrap();

        let resumed = server.run_with_session(1024, 11, Some(session)).unwrap();
        assert!(resumed.resumed);
        let full_crypto = first.components.cycles("libcrypto");
        let res_crypto = resumed.components.cycles("libcrypto");
        assert!(
            res_crypto.get() < full_crypto.get() / 2,
            "resumption must skip the RSA cost: {res_crypto} vs {full_crypto}"
        );
    }

    /// An AES128-SHA server's record crypto — one stitched phase on a CPU
    /// with AES-NI and the SHA unit, `cipher` and `mac` otherwise — lands
    /// in Figure 2 whole: the categories sum to the record crypto total.
    #[test]
    fn figure2_files_every_record_phase() {
        let mut client =
            SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"fig2-client"));
        let mut server = SslServer::new(config(), SslRng::from_seed(b"fig2-server"));
        let f1 = client.hello().unwrap();
        let f2 = server.process_client_hello(&f1).unwrap();
        let f3 = client.process_server_flight(&f2).unwrap();
        let f4 = server.process_client_flight(&f3).unwrap();
        client.process_server_finish(&f4).unwrap();
        let mut record = RecordBuffer::new();
        server.seal_into(&[0x42; MAX_FRAGMENT], &mut record).unwrap();
        client.open_in_place(&mut record).unwrap();

        let phases = server.record_crypto();
        assert!(phases.total() > Cycles::ZERO);
        let categories = figure2_categories(&PhaseSet::new(), &phases);
        assert_eq!(categories.total(), phases.total(), "{phases:?}");
        assert_eq!(
            categories.cycles("private"),
            phases.cycles("cipher") + phases.cycles("pri_encryption_and_mac")
        );
    }

    #[test]
    fn zero_cost_model_isolates_measured_components() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaRc4Md5)
            .with_costs(crate::costs::CostModel::zero());
        let report = server.run_transaction(1024, 21, None).unwrap();
        assert_eq!(report.components.cycles("vmlinux"), Cycles::ZERO);
        assert_eq!(report.components.cycles("other"), Cycles::ZERO);
        assert!(report.components.cycles("libcrypto") > Cycles::ZERO);
        // With only measured components, SSL takes essentially everything.
        assert!(report.ssl_percent() > 90.0, "got {:.1}%", report.ssl_percent());
    }
}

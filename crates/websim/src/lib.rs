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
//! The headline experiment: [`SecureWebServer::run_with_session`] executes
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
    CipherSuite, Engine, ServerConfig, SslClient, SslError, SslServer, MAX_FRAGMENT,
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
    /// reproducible. When `session` carries a previous session, the client
    /// attempts resumption.
    ///
    /// # Errors
    ///
    /// Propagates any SSL failure (none occur for well-formed inputs).
    pub fn run_with_session(
        &self,
        file_size: usize,
        seed: u64,
        session: Option<sslperf_ssl::ClientSession>,
    ) -> Result<TransactionReport, SslError> {
        let client_rng = SslRng::from_seed(&[b"client", &seed.to_le_bytes()[..]].concat());
        let server_rng = SslRng::from_seed(&[b"server", &seed.to_le_bytes()[..]].concat());
        let mut client = Engine::new(match session {
            Some(s) => SslClient::resuming(s, client_rng),
            None => SslClient::new(self.suite, client_rng),
        })?;
        let mut wire_bytes = 0usize;
        let mut ssl_total = Cycles::ZERO;

        // --- TCP connection (cost model only: no kernel in-process). ---
        let mut components = PhaseSet::new();

        // --- SSL handshake, flight by flight: server side measured for
        // real (the client hello is already pending). ---
        let sw = Stopwatch::start();
        let mut server = Engine::new(SslServer::new(self.config, server_rng))?;
        ssl_total += sw.elapsed();
        // Two round trips: a resumed handshake's last flight is empty.
        for _ in 0..2 {
            let sw = Stopwatch::start();
            wire_bytes += server.feed_from(&mut client)?;
            ssl_total += sw.elapsed();
            wire_bytes += client.feed_from(&mut server)?;
        }
        if !(client.is_established() && server.is_established()) {
            return Err(SslError::NotReady("handshake incomplete"));
        }

        // --- HTTP request over the secure channel (zero-copy pipeline:
        // every record is sealed into one engine's outbox and opened in
        // place in the other's inbox). ---
        let path = format!("/doc_{file_size}.bin");
        client.seal(http::HttpRequest::get(&path).to_bytes().as_slice())?;

        let sw = Stopwatch::start();
        wire_bytes += server.feed_from(&mut client)?;
        let request_range = server.open_next()?.ok_or(SslError::Decode("record body"))?;
        ssl_total += sw.elapsed();
        let request_plain = &server.buffered()[request_range];

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
            server.seal(fragment)?;
            ssl_total += sw.elapsed();
            wire_bytes += client.feed_from(&mut server)?;
            client.open_next()?.ok_or(SslError::Decode("record body"))?;
        }

        let server = server.machine();
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

    /// A full handshake between two engines seeded from `seed`, flight by
    /// flight.
    fn establish(
        suite: CipherSuite,
        seed: &[u8],
    ) -> (Engine<SslClient>, Engine<SslServer<'static>>) {
        let rng = |side: &[u8]| SslRng::from_seed(&[seed, side].concat());
        let mut client = Engine::new(SslClient::new(suite, rng(b"-client"))).unwrap();
        let mut server = Engine::new(SslServer::new(config(), rng(b"-server"))).unwrap();
        for _ in 0..2 {
            server.feed_from(&mut client).unwrap();
            client.feed_from(&mut server).unwrap();
        }
        assert!(client.is_established() && server.is_established());
        (client, server)
    }

    #[test]
    fn transaction_completes_and_accounts_components() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let report = server.run_with_session(1024, 1, None).unwrap();
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
        let report = server.run_with_session(1024, 2, None).unwrap();
        // The paper reports ~70%; with a 512-bit key and modern hardware the
        // exact number differs, but SSL must still dominate.
        assert!(report.ssl_percent() > 40.0, "got {:.1}%", report.ssl_percent());
    }

    #[test]
    fn public_key_dominates_crypto_at_small_files() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let report = server.run_with_session(1024, 3, None).unwrap();
        let public = report.crypto_categories.percent("public");
        let private = report.crypto_categories.percent("private");
        assert!(public > private, "public {public:.1}% vs private {private:.1}%");
    }

    #[test]
    fn private_share_grows_with_file_size() {
        let server = SecureWebServer::new(config(), CipherSuite::RsaDesCbc3Sha);
        let small = server.run_with_session(1024, 4, None).unwrap();
        let large = server.run_with_session(32 * 1024, 5, None).unwrap();
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
        let (client, _) = establish(CipherSuite::RsaDesCbc3Sha, b"resume");
        let session = client.machine().session().unwrap();

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
        let (mut client, mut server) = establish(CipherSuite::RsaAes128Sha, b"fig2");
        server.seal(&[0x42; MAX_FRAGMENT]).unwrap();
        client.feed_from(&mut server).unwrap();
        client.open_next().unwrap().expect("one whole record");

        let phases = server.machine().record_crypto();
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
        let report = server.run_with_session(1024, 21, None).unwrap();
        assert_eq!(report.components.cycles("vmlinux"), Cycles::ZERO);
        assert_eq!(report.components.cycles("other"), Cycles::ZERO);
        assert!(report.components.cycles("libcrypto") > Cycles::ZERO);
        // With only measured components, SSL takes essentially everything.
        assert!(report.ssl_percent() > 90.0, "got {:.1}%", report.ssl_percent());
    }
}

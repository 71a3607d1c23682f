//! The four workloads and the fixed server they all run against.

use crate::metrics::WORKLOADS;
use sslperf_core::net::{EventLoopServer, ServerOptions};
use sslperf_core::rng::SslRng;
use sslperf_core::rsa::RsaPrivateKey;
use sslperf_core::ssl::{
    CipherSuite, ClientConfig, ClientMachine, ClientSession, Protocol, SslClient, TicketKeyring,
};
use sslperf_core::websim::http::{synthesize_document, HttpRequest};
use std::sync::Arc;

/// The paper's key size.
pub const KEY_BITS: usize = 1024;
/// Name on the server's self-signed certificate.
pub const SERVER_NAME: &str = "benchmark.sslperf.test";

/// How a workload's measured transactions handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Full handshake on every connection.
    Never,
    /// Every transaction resumes through the server's session-id cache.
    ById,
    /// Every transaction resumes: by session id on even clients, by
    /// ticket on odd ones (alternating per transaction when there is a
    /// single client).
    ByIdAndTicket,
}

/// Which resumption path one transaction takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Full,
    Id,
    Ticket,
}

/// One traffic mix: what every transaction of a run looks like.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: Protocol,
    pub suite: CipherSuite,
    pub doc_size: usize,
    pub resume: Resume,
}

impl Workload {
    /// Looks a workload up by its declared name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let (protocol, suite, doc_size, resume) = match name {
            "full_rsa1024" => (Protocol::Ssl3, CipherSuite::RsaDesCbc3Sha, 1024, Resume::Never),
            "resumed_1k" => {
                (Protocol::Ssl3, CipherSuite::RsaDesCbc3Sha, 1024, Resume::ByIdAndTicket)
            }
            "bulk_1m_aes" => (Protocol::Ssl3, CipherSuite::RsaAes128Sha, 1 << 20, Resume::ById),
            "tls13_dhe" => (Protocol::Tls13, CipherSuite::RsaDesCbc3Sha, 1024, Resume::Never),
            _ => return None,
        };
        let name = WORKLOADS.iter().find(|w| w.name == name)?.name;
        Some(Workload { name, protocol, suite, doc_size, resume })
    }

    /// The document every transaction fetches.
    pub fn path(&self) -> String {
        format!("/doc_{}.bin", self.doc_size)
    }

    /// The serialized GET request.
    pub fn request(&self) -> Vec<u8> {
        HttpRequest::get(&self.path()).to_bytes()
    }

    /// The body a correct server returns.
    pub fn expected_body(&self) -> Vec<u8> {
        synthesize_document(&self.path(), self.doc_size)
    }

    /// The path transaction `tx` of client `client` (out of `clients`)
    /// takes once the client holds its sessions.
    pub fn path_for(&self, client: usize, clients: usize, tx: u64) -> Path {
        match self.resume {
            Resume::Never => Path::Full,
            Resume::ById => Path::Id,
            Resume::ByIdAndTicket => {
                let odd = if clients == 1 { tx % 2 == 1 } else { client % 2 == 1 };
                if odd {
                    Path::Ticket
                } else {
                    Path::Id
                }
            }
        }
    }

    /// A client machine for one connection. `session` is the session to
    /// resume (`None` handshakes in full); `want_ticket` makes a full
    /// SSLv3 handshake ask for a session ticket.
    pub fn client_machine(
        &self,
        session: Option<ClientSession>,
        want_ticket: bool,
        rng: SslRng,
    ) -> ClientMachine {
        match (self.protocol, session) {
            (Protocol::Ssl3, Some(session)) => ClientMachine::V3(SslClient::resuming(session, rng)),
            (Protocol::Ssl3, None) if want_ticket => {
                ClientMachine::V3(SslClient::new(self.suite, rng).with_tickets())
            }
            _ => ClientMachine::new(ClientConfig::new(self.protocol, self.suite), rng),
        }
    }
}

/// Load-generator threads: the closed loop's C. Two, or one on a
/// single-core host — never more threads or connections than cores.
pub fn client_count() -> usize {
    crate::procfs::nproc().min(2)
}

/// The server key, generated from the run's seed.
pub fn generate_key(seed: u64, round: usize) -> RsaPrivateKey {
    let mut rng = SslRng::from_seed(format!("sslperf-benchmark-key-{seed}-{round}").as_bytes());
    RsaPrivateKey::generate(KEY_BITS, &mut rng).expect("RSA-1024 key generation")
}

/// The ticket keyring every server of a run shares.
pub fn ticket_keyring(seed: u64) -> Arc<TicketKeyring> {
    Arc::new(TicketKeyring::new(format!("sslperf-benchmark-tickets-{seed}").as_bytes()))
}

/// Starts the one server configuration every workload runs against. The
/// constants are the benchmark's, not flags: one shard, two crypto
/// workers, batches of up to four, and the anatomy registry only when the
/// run is traced.
pub fn start_server(key: RsaPrivateKey, seed: u64, traced: bool) -> EventLoopServer {
    let options = ServerOptions::builder()
        .shards(1)
        .crypto_workers(2)
        .batch_max(4)
        .metrics(traced)
        .ticket_keys(Some(ticket_keyring(seed)))
        .build()
        .expect("the benchmark's fixed server options are valid");
    EventLoopServer::start(key, SERVER_NAME, &options).expect("bind a loopback listener")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_is_defined() {
        for decl in &WORKLOADS {
            let w = Workload::by_name(decl.name).expect(decl.name);
            assert_eq!(w.expected_body().len(), w.doc_size);
            assert!(w.request().starts_with(b"GET /doc_"));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn resumption_paths_split_by_client_or_by_transaction() {
        let w = Workload::by_name("resumed_1k").unwrap();
        assert_eq!(w.path_for(0, 2, 5), Path::Id);
        assert_eq!(w.path_for(1, 2, 4), Path::Ticket);
        assert_eq!(w.path_for(0, 1, 4), Path::Id);
        assert_eq!(w.path_for(0, 1, 5), Path::Ticket);
        assert_eq!(Workload::by_name("bulk_1m_aes").unwrap().path_for(1, 2, 3), Path::Id);
        assert_eq!(Workload::by_name("tls13_dhe").unwrap().path_for(1, 2, 3), Path::Full);
    }
}

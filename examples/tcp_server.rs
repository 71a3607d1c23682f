//! The real-socket serving demo: the event-loop SSL web server on a TCP
//! listener with a sharded session cache, driven by concurrent resuming
//! clients.
//!
//! This is the paper's measurement scenario (§3: Apache+mod_ssl under a
//! load driver) on this workspace's substrates. The load generator reports
//! transactions/s plus handshake and transaction latency percentiles; the
//! server reports how often §4.1's session re-negotiation skipped the RSA
//! private-key operation.
//!
//! Run with: `cargo run --release --example tcp_server [--paper]`

use sslperf::prelude::*;
use sslperf::websim::loadgen::{run_socket_load, SocketLoadOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paper = std::env::args().any(|a| a == "--paper");
    let key_bits = if paper { 1024 } else { 512 };

    println!("Generating an RSA-{key_bits} server key…");
    let mut rng = SslRng::from_seed(b"tcp-server-example");
    let key = RsaPrivateKey::generate(key_bits, &mut rng)?;

    let shards = 2;
    let options = ServerOptions::builder().shards(shards).build()?;
    let server = EventLoopServer::start(key, "www.sslperf.test", &options)?;
    println!(
        "Serving on https://{} with {shards} shards ({} session-cache shards)\n",
        server.local_addr(),
        server.session_cache().shard_count()
    );

    for (label, resume) in [("all-full handshakes", false), ("session resumption on", true)] {
        server.session_cache().clear();
        server.session_cache().reset_stats();
        let load = SocketLoadOptions {
            clients: 8,
            transactions_per_client: if paper { 16 } else { 8 },
            warmup_per_client: 1,
            resume,
            file_size: 1024,
            suite: CipherSuite::RsaDesCbc3Sha,
            tickets: false,
        };
        let report = run_socket_load(server.local_addr(), &load)?;
        println!("{label}:");
        println!("{report}");
        println!(
            "  session cache:       {} hits / {} misses\n",
            server.session_cache().hits(),
            server.session_cache().misses()
        );
    }

    let stats = server.stats();
    println!(
        "server totals: {} connections, {} transactions, {} full / {} resumed handshakes, {} errors",
        stats.connections(),
        stats.transactions(),
        stats.full_handshakes(),
        stats.resumed_handshakes(),
        stats.errors()
    );

    // The live anatomy from the same registry: the text a client would get
    // from `GET /metrics` on a server started with `metrics(true)`.
    println!("\n{}", stats.snapshot().render());
    server.shutdown();
    Ok(())
}

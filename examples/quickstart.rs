//! Quickstart: a full SSL v3 session over in-memory buffers.
//!
//! Mirrors the paper's `ssltest` methodology (§3.2): client and server
//! state machines in one process, each in a sans-io `Engine`, exchanging
//! whole flights through memory, then moving application data over the
//! established channel.
//!
//! Run with: `cargo run --release --example quickstart`

use sslperf::prelude::*;
use sslperf::ssl::{Engine, MAX_FRAGMENT};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Server identity: RSA key + self-signed certificate.
    println!("Generating a 1024-bit RSA server key (deterministic seed)…");
    let mut rng = SslRng::from_seed(b"quickstart-server-key");
    let key = RsaPrivateKey::generate(1024, &mut rng)?;
    let config = ServerConfig::new(key, "quickstart.example")?;

    // 2. Handshake, flight by flight (paper Figure 1): each engine takes
    // the other's whole pending flight and answers with the next one.
    let suite = CipherSuite::RsaDesCbc3Sha; // the paper's DES-CBC3-SHA
    let mut client = Engine::new(SslClient::new(suite, SslRng::from_seed(b"client")))?;
    let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(b"server")))?;

    println!("client hello               → {:5} bytes", server.feed_from(&mut client)?);
    println!("hello+cert+done            ← {:5} bytes", client.feed_from(&mut server)?);
    println!("kx+ccs+finished            → {:5} bytes", server.feed_from(&mut client)?);
    println!("ccs+finished               ← {:5} bytes", client.feed_from(&mut server)?);
    assert!(client.is_established() && server.is_established());
    println!("handshake complete with {}\n", server.machine().suite());

    // 3. Bulk data transfer (encrypted, MACed, fragmented), every record
    // sealed into the sender's outbox and opened in place in the
    // receiver's inbox.
    let request = b"GET /index.html HTTP/1.0\r\n\r\n";
    client.seal(request)?;
    server.feed_from(&mut client)?;
    let range = server.open_next()?.ok_or("request record incomplete")?;
    assert_eq!(&server.buffered()[range], request);
    let response = vec![0x42u8; 20_000]; // spans two records
    let mut received = Vec::new();
    for fragment in response.chunks(MAX_FRAGMENT) {
        server.seal(fragment)?;
        client.feed_from(&mut server)?;
        let range = client.open_next()?.ok_or("response record incomplete")?;
        received.extend_from_slice(&client.buffered()[range]);
    }
    assert_eq!(received, response);
    println!(
        "bulk data round-tripped: {} request bytes, {} response bytes\n",
        request.len(),
        response.len()
    );

    // 4. The instrumentation the paper is about: per-step handshake costs.
    println!("Server handshake anatomy (Table 2 shape):");
    for (step, cycles) in server.machine().ledger().steps {
        println!("{step:>18}  {cycles}");
    }
    println!("\nCrypto functions inside the handshake:");
    print!("{}", server.machine().crypto());
    Ok(())
}

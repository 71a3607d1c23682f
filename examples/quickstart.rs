//! Quickstart: a full SSL v3 session over in-memory buffers.
//!
//! Mirrors the paper's `ssltest` methodology (§3.2): client and server
//! state machines in one process, exchanging flights through byte buffers,
//! then moving application data over the established channel.
//!
//! Run with: `cargo run --release --example quickstart`

use sslperf::prelude::*;
use sslperf::ssl::{RecordBuffer, MAX_FRAGMENT};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Server identity: RSA key + self-signed certificate.
    println!("Generating a 1024-bit RSA server key (deterministic seed)…");
    let mut rng = SslRng::from_seed(b"quickstart-server-key");
    let key = RsaPrivateKey::generate(1024, &mut rng)?;
    let config = ServerConfig::new(key, "quickstart.example")?;

    // 2. Handshake, flight by flight (paper Figure 1).
    let suite = CipherSuite::RsaDesCbc3Sha; // the paper's DES-CBC3-SHA
    let mut client = SslClient::new(suite, SslRng::from_seed(b"client"));
    let mut server = SslServer::new(&config, SslRng::from_seed(b"server"));

    let flight1 = client.hello()?;
    println!("client hello               → {:5} bytes", flight1.len());
    let flight2 = server.process_client_hello(&flight1)?;
    println!("hello+cert+done            ← {:5} bytes", flight2.len());
    let flight3 = client.process_server_flight(&flight2)?;
    println!("kx+ccs+finished            → {:5} bytes", flight3.len());
    let flight4 = server.process_client_flight(&flight3)?;
    println!("ccs+finished               ← {:5} bytes", flight4.len());
    client.process_server_finish(&flight4)?;
    assert!(client.is_established() && server.is_established());
    println!("handshake complete with {}\n", server.suite());

    // 3. Bulk data transfer (encrypted, MACed, fragmented), every record
    // sealed and opened in place inside one reusable buffer.
    let mut buf = RecordBuffer::new();
    let request = b"GET /index.html HTTP/1.0\r\n\r\n";
    client.seal_into(request, &mut buf)?;
    let range = server.open_in_place(&mut buf)?;
    assert_eq!(&buf.as_slice()[range], request);
    let response = vec![0x42u8; 20_000]; // spans two records
    let mut received = Vec::new();
    for fragment in response.chunks(MAX_FRAGMENT) {
        server.seal_into(fragment, &mut buf)?;
        let range = client.open_in_place(&mut buf)?;
        received.extend_from_slice(&buf.as_slice()[range]);
    }
    assert_eq!(received, response);
    println!(
        "bulk data round-tripped: {} request bytes, {} response bytes\n",
        request.len(),
        response.len()
    );

    // 4. The instrumentation the paper is about: per-step handshake costs.
    println!("Server handshake anatomy (Table 2 shape):");
    print!("{}", server.steps());
    println!("\nCrypto functions inside the handshake:");
    print!("{}", server.crypto());
    Ok(())
}

//! Reproduces the paper's handshake anatomy: Table 2 (ten server steps)
//! and Table 3 (crypto share), plus the session-resumption comparison the
//! paper calls out in §4.1.
//!
//! Run with: `cargo run --release --example handshake_anatomy [--quick]`

use sslperf::experiments::{handshake, webserver};
use sslperf::prelude::*;
use sslperf::ssl::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "Building experiment context ({})…",
        if quick { "quick: RSA-512" } else { "paper: RSA-1024" }
    );
    let ctx = if quick { Context::quick() } else { Context::paper() };

    let t2 = handshake::table2(&ctx)?;
    println!("\n{t2}");
    let t3 = handshake::table3(&ctx)?;
    println!("\n{t3}");

    // Session resumption: the optimization the paper highlights —
    // re-negotiation with cached keys skips the RSA private operation.
    println!("\nSession resumption (paper §4.1):");
    let server = SecureWebServer::new(ctx.server_config(), ctx.suite());
    ctx.server_config().clear_session_cache();
    let full = server.run_with_session(1024, 7, None).expect("full transaction");

    // Establish a session, then resume it.
    let client = SslClient::new(ctx.suite(), SslRng::from_seed(b"anatomy-client"));
    let mut client = Engine::new(client)?;
    let ssl_server = SslServer::new(ctx.server_config(), SslRng::from_seed(b"anatomy-server"));
    let mut ssl_server = Engine::new(ssl_server)?;
    for _ in 0..2 {
        ssl_server.feed_from(&mut client)?;
        client.feed_from(&mut ssl_server)?;
    }
    let session = client.machine().session().expect("established session");
    let resumed = server.run_with_session(1024, 8, Some(session)).expect("resumed transaction");
    assert!(resumed.resumed);

    let full_crypto = full.components.cycles("libcrypto");
    let res_crypto = resumed.components.cycles("libcrypto");
    println!("  full handshake transaction crypto:    {full_crypto}");
    println!("  resumed handshake transaction crypto: {res_crypto}");
    println!(
        "  resumption saves {:.1}% of crypto cycles (paper: avoids the ~90% RSA share)",
        100.0 * (1.0 - res_crypto.get() as f64 / full_crypto.get() as f64)
    );

    let _ = webserver::PAPER_TABLE1; // (referenced so the module link is obvious)
    Ok(())
}

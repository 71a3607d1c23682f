//! Reproduces the paper's web-server study: Table 1 (component breakdown
//! of an HTTPS transaction) and Figure 2 (crypto-library split vs request
//! file size), on the in-memory Apache+mod_ssl stand-in.
//!
//! Run with: `cargo run --release --example secure_web_server [--quick]`

use sslperf::experiments::webserver;
use sslperf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let ctx = if quick { Context::quick() } else { Context::paper() };

    println!("{}", webserver::table1(&ctx)?);
    println!();
    println!("{}", webserver::fig2(&ctx)?);

    // A qualitative sweep the paper's intro motivates: banking-style (tiny
    // responses, handshake-dominated) vs B2B-style (large transfers,
    // bulk-encryption-dominated) workloads.
    println!("Workload character sweep (DES-CBC3-SHA):");
    let server = SecureWebServer::new(ctx.server_config(), ctx.suite());
    ctx.server_config().clear_session_cache();
    for (label, size) in
        [("banking (1 KB)", 1024), ("portal (16 KB)", 16 * 1024), ("B2B (128 KB)", 128 * 1024)]
    {
        let report = server.run_with_session(size, size as u64, None).expect("transaction");
        println!(
            "  {label:<16} ssl={:5.1}%  public-key share of crypto={:5.1}%  private={:5.1}%",
            report.ssl_percent(),
            report.crypto_categories.percent("public"),
            report.crypto_categories.percent("private"),
        );
    }

    // This example stays in memory, one transaction at a time. The paper's
    // driver methodology — concurrent clients keeping a server loaded, with
    // and without session reuse — needs a socket to load:
    println!("\nFor loaded-server runs: cargo run --release --example tcp_server");
    Ok(())
}

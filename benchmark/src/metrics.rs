//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric
//! and workload each one is expected to move. `BENCHMARK.json` at the
//! repository root is rendered from these tables (a test keeps the file
//! byte-equal), and every run checks what it emits against them.

use std::fmt::Write as _;

/// The one command, as the driver types it from the repository root.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures.
pub const RUN_SECONDS: u64 = 24;

/// One traffic mix.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "full_rsa1024",
        why: "SSLv3 DES-CBC3-SHA, 1 KiB doc, full handshake per connection: the paper's Table 2 regime, \
              rsa/bignum do most of the CPU work and event-loop wake-ups most of the wall time",
    },
    WorkloadDecl {
        name: "resumed_1k",
        why: "same but every measured tx resumes (client 0 by session id, client 1 by ticket): kx is bypassed, \
              so per-connection net + kdf/hash cost dominates; the no-change control for rsa/bignum work",
    },
    WorkloadDecl {
        name: "bulk_1m_aes",
        why: "SSLv3 AES128-SHA, 1 MiB doc, resumed: 64 full records sealed and opened per tx, so \
              ciphers/hashes/record/http do the work and the handshake is noise (Figure 2's large-file end)",
    },
    WorkloadDecl {
        name: "tls13_dhe",
        why: "TLS 1.3-style 1-RTT, ffdhe2048, 1 KiB doc, full handshake: 2048-bit full-width modexp, RSA sign \
              and HKDF-SHA-256, so a Montgomery change tuned for RSA-CRT that hurts DHE shows",
    },
];

/// A metric a user of the system would see.
pub struct EndToEndDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every bound is the contract's widest. The sizing host's speed moves
/// between discrete levels that outlast a run; in a quiet hour ten runs
/// spread by 1 to 6 % of the median on every metric below, in a noisy one
/// `bulk_1m_aes` has read up to 22 %. A bound belongs to a metric, not to
/// a metric on a workload, and has to hold in the noisy hours too;
/// `compare.py` resolves finer differences from the slice spreads.
pub const END_TO_END: [EndToEndDecl; 5] = [
    EndToEndDecl { name: "tx_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEndDecl { name: "cpu_ms_per_tx", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndDecl { name: "goodput_mib_s", unit: "MiB/s", better: "higher", bound: 0.25 },
    EndToEndDecl { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEndDecl { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.25 },
];

/// A metric of a single layer, with the interaction written down before
/// measuring: which end-to-end metric it should move, on which workload.
pub struct LayerDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> LayerDecl {
    LayerDecl { name, unit, better: "lower", moves }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> LayerDecl {
    LayerDecl { name, unit, better: "higher", moves }
}

const RSA_CRT: &str =
    "cpu_ms_per_tx (about a third of it) and, one for one but small, tx_per_s on \
                       full_rsa1024; no move on resumed_1k, bulk_1m_aes";
const DHE: &str =
    "tx_per_s and cpu_ms_per_tx on tls13_dhe (CPU-bound, both peers pay); no move elsewhere";
const BULK: &str = "goodput_mib_s and cpu_ms_per_tx on bulk_1m_aes; no move on the 1 KiB workloads";
const SMALL_TX: &str = "cpu_ms_per_tx on resumed_1k; little elsewhere";
const EVENTLOOP: &str = "tx_per_s on resumed_1k (largest share) and full_rsa1024 while \
                         cpu_ms_per_tx stays flat; little on tls13_dhe, bulk_1m_aes";
const DES3_RECORD: &str = "cpu_ms_per_tx on full_rsa1024, resumed_1k, tls13_dhe (their 1 KiB record is a sixteenth of this: small)";
const NOT_SERVING: &str =
    "nothing on the serving path today (suite not used by a workload); kept as the control";

/// SSLv3 ledger steps reported on `full_rsa1024`, then the TLS 1.3 steps
/// reported on `tls13_dhe` that SSLv3 has no name for.
pub const LEDGER_STEPS: [&str; 14] = [
    "init",
    "get_client_hello",
    "send_server_hello",
    "send_server_cert",
    "send_server_done",
    "get_client_kx",
    "get_finished",
    "send_cipher_spec",
    "send_finished",
    "server_flush",
    "dhe_key_exchange",
    "derive_handshake_keys",
    "send_cert_verify",
    "get_client_finished",
];

pub const PER_LAYER: [LayerDecl; 79] = [
    // Kernel probes: one thread, fixed inputs, median of timed batches.
    lower("bignum.mont_mul_1024_ns", "ns", RSA_CRT),
    lower("bignum.mont_sqr_1024_ns", "ns", RSA_CRT),
    lower("bignum.mod_exp_512_us", "us", RSA_CRT),
    lower("bignum.mod_exp_2048_us", "us", DHE),
    lower("rsa.decrypt_1024_us", "us", RSA_CRT),
    lower("rsa.encrypt_1024_us", "us", "cpu_ms_per_tx on full_rsa1024 through the load generator's share only"),
    lower("rsa.sign_1024_us", "us", DHE),
    lower("rsa.decrypt_batch4_1024_us", "us", RSA_CRT),
    lower("rsa.keygen_1024_ms", "ms", "setup_s on every workload"),
    higher("ciphers.aes128_cbc_enc_mib_s", "MiB/s", BULK),
    higher("ciphers.aes128_cbc_dec_mib_s", "MiB/s", BULK),
    higher("ciphers.des3_cbc_enc_mib_s", "MiB/s", "cpu_ms_per_tx on full_rsa1024, resumed_1k, tls13_dhe (1 KiB of 3DES: small)"),
    higher("ciphers.des3_cbc_dec_mib_s", "MiB/s", "cpu_ms_per_tx on full_rsa1024, resumed_1k, tls13_dhe (1 KiB of 3DES: small)"),
    higher("ciphers.rc4_mib_s", "MiB/s", NOT_SERVING),
    lower("ciphers.aes128_key_setup_ns", "ns", "cpu_ms_per_tx on bulk_1m_aes (once per connection and per ticket: small)"),
    higher("hashes.md5_mib_s", "MiB/s", SMALL_TX),
    higher("hashes.sha1_mib_s", "MiB/s", "goodput_mib_s, cpu_ms_per_tx on bulk_1m_aes; cpu_ms_per_tx on resumed_1k"),
    higher("hashes.sha256_mib_s", "MiB/s", "cpu_ms_per_tx on tls13_dhe (transcript and HKDF: small)"),
    lower("hashes.hmac_sha1_64b_ns", "ns", SMALL_TX),
    lower("hashes.hmac_sha1_16k_us", "us", BULK),
    lower("hashes.hkdf_expand_label_ns", "ns", "cpu_ms_per_tx on tls13_dhe (small)"),
    higher("rng.fill_mib_s", "MiB/s", "cpu_ms_per_tx on every workload (hello randoms, per-connection seeding: small)"),
    lower("ssl.record.seal_16k_aes128sha_us", "us", BULK),
    lower("ssl.record.open_16k_aes128sha_us", "us", BULK),
    lower("ssl.record.seal_16k_des3sha_us", "us", DES3_RECORD),
    lower("ssl.record.open_16k_des3sha_us", "us", DES3_RECORD),
    lower("ssl.record.seal_16k_rc4md5_us", "us", NOT_SERVING),
    lower("ssl.record.seal_64b_aes128sha_ns", "ns", SMALL_TX),
    lower("ssl.kdf.master_and_keyblock_us", "us", SMALL_TX),
    lower("ssl.ticket.seal_us", "us", "cpu_ms_per_tx on resumed_1k warm-up only (tickets are issued on full handshakes)"),
    lower("ssl.ticket.open_us", "us", SMALL_TX),
    lower("ssl.dhe.keygen_us", "us", DHE),
    lower("ssl.dhe.agree_us", "us", DHE),
    lower("net.cache.insert_ns", "ns", "cpu_ms_per_tx on full_rsa1024 (one insert per handshake: small)"),
    lower("net.cache.lookup_hit_ns", "ns", SMALL_TX),
    lower("net.cryptopool.roundtrip_idle_us", "us", "tx_per_s on full_rsa1024 and tls13_dhe"),
    lower("websim.http.synthesize_1m_us", "us", BULK),
    // In-memory traced transaction of the run's workload.
    lower("ssl.engine.tx_us", "us", "cpu_ms_per_tx on the run's workload; loadgen.lat_p50_ms minus this is net.eventloop.residual_ms"),
    lower("ssl.engine.server_feed_us", "us", "cpu_ms_per_tx on the run's workload"),
    lower("ssl.engine.kx_exec_us", "us", "cpu_ms_per_tx, tx_per_s on full_rsa1024 and tls13_dhe; 0 on resumed_1k, bulk_1m_aes"),
    lower("ssl.engine.server_seal_us", "us", BULK),
    lower("ssl.engine.server_open_us", "us", SMALL_TX),
    lower("ssl.engine.client_us", "us", "cpu_ms_per_tx on the run's workload through the load generator's share"),
    lower("ssl.engine.allocs_per_tx", "count", "peak_rss_mib and cpu_ms_per_tx on the run's workload"),
    lower("ssl.engine.unattributed_pct", "%", "nothing; a value above 5 fails the run's decomposition check"),
    lower("websim.http.respond_us", "us", BULK),
    lower("ssl.ledger.init_us", "us", RSA_CRT),
    lower("ssl.ledger.get_client_hello_us", "us", "cpu_ms_per_tx on full_rsa1024, tls13_dhe"),
    lower("ssl.ledger.send_server_hello_us", "us", "cpu_ms_per_tx on full_rsa1024"),
    lower("ssl.ledger.send_server_cert_us", "us", "cpu_ms_per_tx on full_rsa1024"),
    lower("ssl.ledger.send_server_done_us", "us", "cpu_ms_per_tx on full_rsa1024"),
    lower("ssl.ledger.get_client_kx_us", "us", RSA_CRT),
    lower("ssl.ledger.get_finished_us", "us", "cpu_ms_per_tx on full_rsa1024"),
    lower("ssl.ledger.send_cipher_spec_us", "us", "cpu_ms_per_tx on full_rsa1024"),
    lower("ssl.ledger.send_finished_us", "us", "cpu_ms_per_tx on full_rsa1024, tls13_dhe"),
    lower("ssl.ledger.server_flush_us", "us", "cpu_ms_per_tx on full_rsa1024"),
    lower("ssl.ledger.dhe_key_exchange_us", "us", DHE),
    lower("ssl.ledger.derive_handshake_keys_us", "us", "cpu_ms_per_tx on tls13_dhe (small)"),
    lower("ssl.ledger.send_cert_verify_us", "us", DHE),
    lower("ssl.ledger.get_client_finished_us", "us", "cpu_ms_per_tx on tls13_dhe (small)"),
    // Socket runs of the run's workload.
    lower("net.eventloop.residual_ms", "ms", EVENTLOOP),
    lower("net.eventloop.turnaround_p50_us", "us", EVENTLOOP),
    lower("net.server_errors", "count", "failed on the run's workload"),
    lower("net.sys_cpu_ms_per_tx", "ms", "tx_per_s on resumed_1k and full_rsa1024: kernel CPU for sockets, sleeps and wake-ups, which cpu_ms_per_tx leaves out"),
    lower("loadgen.cpu_share", "ratio", "says how much of cpu_ms_per_tx on the run's workload is the generator, not the server"),
    lower("loadgen.lat_p50_ms", "ms", "tx_per_s on the run's workload: client-observed connect to close latency, and with C fixed tx_per_s is C over its mean plus think time"),
    lower("loadgen.lat_p99_ms", "ms", "nothing end to end: the tail of loadgen.lat_p50_ms's distribution, too unsteady on this host to carry a bound"),
    lower("loadgen.hs_p50_ms", "ms", "nothing end to end: connect to Finished verified, the handshake's share of loadgen.lat_p50_ms"),
    lower("loadgen.id_lat_p50_ms", "ms", "loadgen.lat_p50_ms on resumed_1k (the session-id half); 0 on other workloads"),
    lower("loadgen.ticket_lat_p50_ms", "ms", "loadgen.lat_p50_ms on resumed_1k (the ticket half); 0 on other workloads"),
    lower("trace.overhead_pct", "%", "nothing; the cost of watching, traced versus untraced tx_per_s of the same run"),
    lower("net.cryptopool.queue_wait_us", "us", "tx_per_s on full_rsa1024 and tls13_dhe; 0 on resumed_1k, bulk_1m_aes"),
    lower("net.cryptopool.exec_us", "us", "cpu_ms_per_tx on full_rsa1024 and tls13_dhe; 0 on resumed_1k, bulk_1m_aes"),
    higher("net.cryptopool.batch_mean", "count", "cpu_ms_per_tx on full_rsa1024 once C is large enough to batch (C = 2 barely is)"),
    higher("net.cache.hit_ratio", "ratio", "failed on resumed_1k and bulk_1m_aes (a miss is a tx that should have resumed)"),
    higher("ssl.ticket.accept_ratio", "ratio", "failed on resumed_1k (a rejected ticket is a tx that should have resumed)"),
    lower("host.calib_ms", "ms", "nothing; a fixed SHA-1 spin, a drift above 10 % within a run marks the run noisy"),
    lower("host.calib_drift_pct", "%", "nothing; see host.calib_ms"),
    lower("host.wake_us", "us", "nothing a change can claim: how late a sleeping thread wakes, about 10 us or 70 to 80 us by the host's state; tx_per_s on full_rsa1024 (~15 %) and resumed_1k (~8 %) follows it"),
];

fn push_string_list(out: &mut String, key: &str, items: &[&str]) {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    let _ = writeln!(out, "  \"{key}\": [{}],", quoted.join(", "));
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n");
    push_string_list(&mut out, "command", &COMMAND);
    push_string_list(&mut out, "paths", &PATHS);
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The interaction list as a table: which end-to-end metric each layer
/// metric should move, on which workload (`run.sh --describe`).
pub fn render_interactions() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        let _ = writeln!(out, "| `{}` | {} | {} | {} |", m.name, m.unit, m.better, m.moves);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        assert!(
            name_ok("ssl.engine.tx_us") && !name_ok(".x") && !name_ok("a b") && !name_ok("a/b")
        );
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(!m.moves.is_empty(), "{} has no interaction written down", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
    }

    #[test]
    fn counts_and_required_entries_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time takes the largest bound");
        for step in LEDGER_STEPS {
            let name = format!("ssl.ledger.{step}_us");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} undeclared");
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_rendered_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            render_benchmark_json(),
            "regenerate with run.sh --emit-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}

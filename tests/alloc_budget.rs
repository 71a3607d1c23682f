//! Counting-allocator proof of the zero-copy record pipeline's allocation
//! budget: once a connection's [`RecordBuffer`]s are warmed, sealing and
//! opening an application-data record performs **zero** heap allocations on
//! either path, for every cipher suite.
//!
//! Only allocations made *by the measuring thread* are counted (via a
//! const-initialized thread-local flag, so the check itself never
//! allocates): the libtest harness runs its own bookkeeping threads whose
//! incidental allocations would otherwise pollute the window.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with an allocation-event counter scoped to threads
/// that opted in. Frees are not counted: the budget under test is "new heap
/// memory per record".
struct CountingAlloc;

// Per thread, like the flag: libtest runs this file's tests on parallel
// threads, and the crypto-job tests allocate inside their windows — a
// shared counter would leak those into a sibling's zero-allocation window.
thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Counts this thread's allocation events while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    TRACKING.with(|t| t.set(true));
    let result = f();
    TRACKING.with(|t| t.set(false));
    (result, ALLOCATIONS.with(Cell::get) - before)
}

use sslperf::prelude::CipherSuite;
use sslperf::ssl::{ContentType, RecordBuffer, RecordLayer};

fn protected_pair(suite: CipherSuite) -> (RecordLayer, RecordLayer) {
    let key = vec![0x42u8; suite.key_len()];
    let iv = vec![0x17u8; suite.iv_len()];
    let mac = vec![0x33u8; suite.mac_alg().output_len()];
    let mut tx = RecordLayer::new();
    tx.activate_write(suite.new_cipher(&key, &iv).unwrap(), suite.mac_alg(), mac.clone());
    let mut rx = RecordLayer::new();
    rx.activate_read(suite.new_cipher(&key, &iv).unwrap(), suite.mac_alg(), mac);
    (tx, rx)
}

#[test]
fn steady_state_record_processing_allocates_nothing() {
    const WARMUP: usize = 4;
    const MEASURED: u64 = 100;
    let payload = vec![0xa5u8; 1024];

    // --- Record layer, all suites: seal_into + open_in_place. ---
    for suite in CipherSuite::ALL {
        let (mut tx, mut rx) = protected_pair(suite);
        let mut wire = RecordBuffer::with_record_capacity();
        let mut inbound = RecordBuffer::with_record_capacity();

        // Warm the phase-timer label tables and any lazily-sized state.
        for _ in 0..WARMUP {
            tx.seal_into(ContentType::ApplicationData, &payload, &mut wire).unwrap();
            inbound.clear();
            inbound.extend_from_slice(wire.as_slice());
            let (ct, range) = rx.open_in_place(&mut inbound).unwrap();
            assert_eq!(ct, ContentType::ApplicationData);
            assert_eq!(&inbound.as_slice()[range], &payload[..]);
        }

        let ((), delta) = allocations_during(|| {
            for _ in 0..MEASURED {
                tx.seal_into(ContentType::ApplicationData, &payload, &mut wire).unwrap();
                inbound.clear();
                inbound.extend_from_slice(wire.as_slice());
                let (_, range) = rx.open_in_place(&mut inbound).unwrap();
                assert_eq!(range.len(), payload.len());
            }
        });
        assert_eq!(
            delta,
            0,
            "{suite}: {delta} allocations over {MEASURED} records \
             ({} per record) — the steady-state pipeline must not allocate",
            delta as f64 / MEASURED as f64
        );
    }

    // --- End to end: established client and server engines moving every
    // record through `write_to` and `read_from` over an in-memory pipe,
    // the blocking drivers' path. The pipe is drained after every hop, so
    // its warmed capacity holds a sealed record.
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::{Engine, EngineDriven};

    let mut rng = SslRng::from_seed(b"alloc-budget-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");
    let client = SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"ab-c"));
    let mut client = Engine::new(client).expect("client engine");
    let mut server =
        Engine::new(SslServer::new(&config, SslRng::from_seed(b"ab-s"))).expect("server engine");

    // Writes everything `from` queued into the pipe and reads it into `to`.
    fn hop<A: EngineDriven, B: EngineDriven>(
        from: &mut Engine<A>,
        to: &mut Engine<B>,
        pipe: &mut Vec<u8>,
    ) {
        from.write_to(pipe).expect("write_to");
        let mut unread = pipe.as_slice();
        while !unread.is_empty() {
            to.read_from(&mut unread).expect("read_from");
        }
        pipe.clear();
    }
    let mut pipe = Vec::new();
    while !(client.is_established() && server.is_established()) {
        hop(&mut client, &mut server, &mut pipe);
        hop(&mut server, &mut client, &mut pipe);
    }

    let mut exchange = || {
        client.seal(&payload).unwrap();
        hop(&mut client, &mut server, &mut pipe);
        let range = server.open_next().unwrap().expect("complete record");
        assert_eq!(&server.buffered()[range], &payload[..]);
        server.seal(&payload).unwrap();
        hop(&mut server, &mut client, &mut pipe);
        let range = client.open_next().unwrap().expect("complete record");
        assert_eq!(&client.buffered()[range], &payload[..]);
    };
    for _ in 0..WARMUP {
        exchange();
    }
    let ((), delta) = allocations_during(|| {
        for _ in 0..MEASURED {
            exchange();
        }
    });
    assert_eq!(
        delta,
        0,
        "end-to-end: {delta} allocations over {MEASURED} round trips \
         ({} per record) — read_from/write_to must not allocate",
        delta as f64 / (2 * MEASURED) as f64
    );
}

/// The sans-io engine path — the event-loop server's per-record pipeline
/// (`seal` → `take_output` → `feed` → `open_next`) — holds the same
/// zero-allocation budget once its buffers are warmed: feed compaction is
/// a `drain` (memmove), sealing appends into the warmed outbox, and
/// opening is in place.
/// The keyed hash constructions work on the stack: keying an HMAC, MACing
/// and writing the tag allocate nothing (the key block and both pads used
/// to be three `Vec`s per instance); `hkdf::expand` and `expand_label`
/// allocate exactly the key they return.
#[test]
fn hmac_allocates_nothing_and_hkdf_only_its_result() {
    use sslperf::hashes::{hkdf, HashAlg, Hmac};
    let (key, long_key, data) = ([0x0bu8; 20], [0xaau8; 80], [0x42u8; 300]);
    for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
        let mut tag = [0u8; 32];
        let tag = &mut tag[..alg.output_len()];
        for key in [&key[..], &long_key[..]] {
            let ((), allocated) = allocations_during(|| {
                let mut mac = Hmac::new(alg, key);
                mac.update(&data);
                mac.finalize_into(tag);
            });
            assert_eq!(allocated, 0, "HMAC-{alg} with a {}-byte key", key.len());
        }
        assert_eq!(tag[..], Hmac::mac(alg, &long_key, &data)[..]);
    }

    // The HkdfLabel info of Expand-Label(secret, "key", "", 48), spanning
    // two output blocks to cover the chained `T(n-1)` input as well.
    let info = [&[0, 48, 9][..], b"tls13 key", &[0]].concat();
    let (okm, allocated) = allocations_during(|| hkdf::expand(HashAlg::Sha256, &key, &info, 48));
    assert_eq!(allocated, 1, "hkdf::expand allocates its result only");

    let (label_key, allocated) =
        allocations_during(|| sslperf::ssl::tls13::expand_label(&key, "key", b"", 48));
    assert_eq!(allocated, 1, "expand_label allocates its result only");
    assert_eq!(label_key, okm);
}

#[test]
fn engine_steady_state_allocates_nothing() {
    const WARMUP: usize = 4;
    const MEASURED: u64 = 100;
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::Engine;

    let payload = vec![0xa5u8; 1024];
    let mut rng = SslRng::from_seed(b"alloc-budget-engine-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");

    let mut client =
        Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"abe-c")))
            .expect("client engine");
    let mut server =
        Engine::new(SslServer::new(&config, SslRng::from_seed(b"abe-s"))).expect("server engine");

    support::establish(&mut client, &mut server);
    let mut wire = vec![0u8; 8 * 1024];

    let exchange = |client: &mut sslperf::ssl::ClientEngine,
                    server: &mut sslperf::ssl::ServerEngine<'_>,
                    wire: &mut [u8]| {
        client.seal(&payload).expect("client seal");
        let n = client.take_output(wire);
        assert_eq!(server.feed(&wire[..n]).expect("server feed"), n);
        let range = server.open_next().expect("server open").expect("complete record");
        assert_eq!(&server.buffered()[range], &payload[..]);
        server.seal(&payload).expect("server seal");
        let n = server.take_output(wire);
        assert_eq!(client.feed(&wire[..n]).expect("client feed"), n);
        let range = client.open_next().expect("client open").expect("complete record");
        assert_eq!(&client.buffered()[range], &payload[..]);
    };

    for _ in 0..WARMUP {
        exchange(&mut client, &mut server, &mut wire);
    }
    let ((), delta) = allocations_during(|| {
        for _ in 0..MEASURED {
            exchange(&mut client, &mut server, &mut wire);
        }
    });
    assert_eq!(
        delta,
        0,
        "engine path: {delta} allocations over {MEASURED} round trips \
         ({} per record) — the sans-io pipeline must not allocate in steady state",
        delta as f64 / (2 * MEASURED) as f64
    );
}

/// The event loop's write phase — pull a fragment from the response
/// producer, seal it, hand the outbox to the socket every four records —
/// allocates nothing over a whole 1 MiB document once the outbox has grown
/// to its four-record working size. (Building the producer allocates its
/// ~110-byte head; that is per response, outside the window.)
#[test]
fn streamed_document_allocates_nothing() {
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::{Engine, MAX_FRAGMENT};
    use sslperf::websim::http::ResponseStream;
    const SIZE: usize = 1 << 20;

    let mut rng = SslRng::from_seed(b"alloc-budget-engine-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");
    let mut client =
        Engine::new(SslClient::new(CipherSuite::RsaAes128Sha, SslRng::from_seed(b"abs-c")))
            .expect("client engine");
    let mut server =
        Engine::new(SslServer::new(&config, SslRng::from_seed(b"abs-s"))).expect("server engine");
    support::establish(&mut client, &mut server);

    let mut fragment = vec![0u8; MAX_FRAGMENT];
    let mut stream_document = |server: &mut sslperf::ssl::ServerEngine<'_>,
                               mut stream: ResponseStream| {
        let mut sealed = 0;
        loop {
            let n = stream.fill(&mut fragment);
            if n == 0 {
                break;
            }
            server.seal(&fragment[..n]).expect("seal");
            sealed += n;
            if server.pending_output() >= 4 * MAX_FRAGMENT {
                server.consume_output(server.pending_output());
            }
        }
        server.consume_output(server.pending_output());
        sealed
    };

    let path = format!("/doc_{SIZE}.bin");
    stream_document(&mut server, ResponseStream::document(&path, SIZE));
    let stream = ResponseStream::document(&path, SIZE);
    let expected = stream.remaining();
    let (sealed, delta) = allocations_during(|| stream_document(&mut server, stream));
    assert_eq!(sealed, expected, "head and all {SIZE} body bytes were sealed");
    assert_eq!(delta, 0, "streaming a warmed connection's document must not allocate");
}

/// An engine that went through the crypto-offload suspension
/// (`take_crypto_job` → out-of-band `execute` → `complete_crypto`) ends
/// up in the same steady state as an inline one: zero allocations per
/// application-data record once warmed. Suspension must not leave any
/// lazily-growing state behind.
#[test]
fn offloaded_engine_steady_state_allocates_nothing() {
    const WARMUP: usize = 4;
    const MEASURED: u64 = 100;
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::Engine;

    let payload = vec![0xa5u8; 1024];
    let mut rng = SslRng::from_seed(b"alloc-budget-offload-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");

    let mut client =
        Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"abo-c")))
            .expect("client engine");
    let mut server =
        Engine::new(SslServer::new(&config, SslRng::from_seed(b"abo-s"))).expect("server engine");
    server.set_crypto_offload(true);

    // Handshake with the RSA step executed out-of-band, as a shard's
    // crypto pool would.
    let mut wire = vec![0u8; 8 * 1024];
    let mut suspensions = 0;
    while !(client.is_established() && server.is_established()) {
        let n = client.take_output(&mut wire);
        let mut offset = 0;
        while offset < n {
            offset += server.feed(&wire[offset..n]).expect("server feed");
        }
        if let Some(job) = server.take_crypto_job() {
            suspensions += 1;
            server.complete_crypto(job.execute(config.key())).expect("resume");
        }
        let n = server.take_output(&mut wire);
        let mut offset = 0;
        while offset < n {
            offset += client.feed(&wire[offset..n]).expect("client feed");
        }
    }
    assert_eq!(suspensions, 1, "exactly one RSA suspension per full handshake");

    let exchange = |client: &mut sslperf::ssl::ClientEngine,
                    server: &mut sslperf::ssl::ServerEngine<'_>,
                    wire: &mut [u8]| {
        client.seal(&payload).expect("client seal");
        let n = client.take_output(wire);
        assert_eq!(server.feed(&wire[..n]).expect("server feed"), n);
        let range = server.open_next().expect("server open").expect("complete record");
        assert_eq!(&server.buffered()[range], &payload[..]);
        server.seal(&payload).expect("server seal");
        let n = server.take_output(wire);
        assert_eq!(client.feed(&wire[..n]).expect("client feed"), n);
        let range = client.open_next().expect("client open").expect("complete record");
        assert_eq!(&client.buffered()[range], &payload[..]);
    };

    for _ in 0..WARMUP {
        exchange(&mut client, &mut server, &mut wire);
    }
    let ((), delta) = allocations_during(|| {
        for _ in 0..MEASURED {
            exchange(&mut client, &mut server, &mut wire);
        }
    });
    assert_eq!(
        delta,
        0,
        "offloaded engine path: {delta} allocations over {MEASURED} round trips \
         ({} per record) — suspension must not break the steady-state budget",
        delta as f64 / (2 * MEASURED) as f64
    );
}

/// The crypto job cycle itself (`take_crypto_job` → `execute` →
/// `complete_crypto`) allocates, but boundedly: the RSA decryption's
/// bignum temporaries plus the finish of the handshake. Pinning a ceiling
/// keeps an accidental per-job allocation regression (say, a cloned
/// transcript or a re-grown buffer) from hiding inside the pool's noise.
#[test]
fn crypto_job_cycle_allocation_is_bounded() {
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::Engine;

    let mut rng = SslRng::from_seed(b"alloc-budget-job-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");

    // Drives a fresh pair up to the server's RSA suspension and returns
    // both engines plus the pending client flight still to be fed.
    let suspend = |seq: u32| {
        let c_seed = format!("abj-c-{seq}");
        let s_seed = format!("abj-s-{seq}");
        let mut client = Engine::new(SslClient::new(
            CipherSuite::RsaDesCbc3Sha,
            SslRng::from_seed(c_seed.as_bytes()),
        ))
        .expect("client engine");
        let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(s_seed.as_bytes())))
            .expect("server engine");
        server.set_crypto_offload(true);
        let mut wire = vec![0u8; 8 * 1024];
        while !server.crypto_pending() {
            let n = client.take_output(&mut wire);
            let mut offset = 0;
            while offset < n {
                offset += server.feed(&wire[offset..n]).expect("server feed");
            }
            let n = server.take_output(&mut wire);
            let mut offset = 0;
            while offset < n {
                offset += client.feed(&wire[offset..n]).expect("client feed");
            }
        }
        (client, server)
    };

    // Warm allocator pools and lazy statics with a throwaway cycle.
    let (_c, mut server) = suspend(0);
    let job = server.take_crypto_job().expect("job");
    server.complete_crypto(job.execute(config.key())).expect("resume");

    // Measure one take → execute → complete cycle on a fresh suspension.
    let (_c, mut server) = suspend(1);
    let ((), per_job) = allocations_during(|| {
        let job = server.take_crypto_job().expect("job");
        let done = job.execute(config.key());
        server.complete_crypto(done).expect("resume");
    });
    println!("crypto job cycle: {per_job} allocations (512-bit key)");
    assert!(per_job > 0, "an RSA decryption cannot be allocation-free");
    // Measured ~2,800 (bignum temporaries of the blinded CRT decryption
    // plus the Finished exchange); ~3× headroom so only a structural
    // regression — not allocator jitter — trips this.
    const CEILING: u64 = 8_000;
    assert!(
        per_job <= CEILING,
        "crypto job cycle allocated {per_job} times (ceiling {CEILING}) — \
         a per-job allocation regression"
    );
}

/// A TLS 1.3 key exchange's public-key work on the u64 path allocates
/// only what it returns: the comb and the window ladder keep table,
/// accumulators and scratch on the stack, so one `generate` plus one
/// `agree` is the exponent, two results and their encodings — not a window
/// table and a product buffer per Montgomery operation.
#[test]
fn dhe_keygen_and_agree_allocation_is_bounded() {
    use sslperf::bignum::{default_limb_width, LimbWidth};
    use sslperf::prelude::SslRng;
    use sslperf::ssl::dhe::{validate_public, DheKeyPair};

    if default_limb_width() == LimbWidth::U32 {
        // The paper-faithful path allocates per word-kernel pass by design.
        return;
    }
    let mut rng = SslRng::from_seed(b"alloc-budget-dhe");
    // Warm the process: the group's context and comb are built once.
    let peer = DheKeyPair::generate(&mut rng);
    let peer_public = validate_public(peer.public()).expect("valid public value");

    let (shared, allocations) = allocations_during(|| {
        let pair = DheKeyPair::generate(&mut rng);
        pair.agree(&peer_public)
    });
    assert_eq!(shared.len(), 256);
    println!("dhe generate + agree: {allocations} allocations");
    assert!(
        allocations <= 16,
        "dhe generate + agree allocated {allocations} times (ceiling 16) — \
         a per-operation buffer crept back into the u64 exponentiation"
    );
}

/// The batched crypto cycle (`take_crypto_job` ×4 → `execute_batch` →
/// `complete_crypto` ×4) holds the same per-job allocation ceiling as the
/// solo cycle: batching shares one blinding acquisition and one scratch
/// context, so combining jobs must never *add* allocations per job. A
/// regression here (say, per-item context cloning inside the batch) would
/// silently erase the amortization the collector exists to buy.
#[test]
fn batched_crypto_cycle_allocation_is_bounded() {
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::{CryptoJob, Engine};

    const BATCH: usize = 4;

    let mut rng = SslRng::from_seed(b"alloc-budget-batch-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");

    let suspend = |seq: u32| {
        let c_seed = format!("abb-c-{seq}");
        let s_seed = format!("abb-s-{seq}");
        let mut client = Engine::new(SslClient::new(
            CipherSuite::RsaDesCbc3Sha,
            SslRng::from_seed(c_seed.as_bytes()),
        ))
        .expect("client engine");
        let mut server = Engine::new(SslServer::new(&config, SslRng::from_seed(s_seed.as_bytes())))
            .expect("server engine");
        server.set_crypto_offload(true);
        let mut wire = vec![0u8; 8 * 1024];
        while !server.crypto_pending() {
            let n = client.take_output(&mut wire);
            let mut offset = 0;
            while offset < n {
                offset += server.feed(&wire[offset..n]).expect("server feed");
            }
            let n = server.take_output(&mut wire);
            let mut offset = 0;
            while offset < n {
                offset += client.feed(&wire[offset..n]).expect("client feed");
            }
        }
        (client, server)
    };

    // Warm allocator pools, lazy statics, and the key's blinding cache.
    let (_c, mut server) = suspend(0);
    let job = server.take_crypto_job().expect("job");
    server.complete_crypto(job.execute(config.key())).expect("resume");

    // Measure one full batch cycle over fresh suspensions.
    let mut pairs: Vec<_> = (1..=BATCH as u32).map(suspend).collect();
    let ((), total) = allocations_during(|| {
        let jobs: Vec<CryptoJob> =
            pairs.iter_mut().map(|(_, s)| s.take_crypto_job().expect("job")).collect();
        let dones = CryptoJob::execute_batch(jobs, config.key());
        for ((_, server), done) in pairs.iter_mut().zip(dones) {
            server.complete_crypto(done).expect("resume with batched result");
        }
    });
    let per_job = total / BATCH as u64;
    println!("batched crypto cycle: {total} allocations / {BATCH} jobs = {per_job} per job");
    assert!(total > 0, "an RSA batch cannot be allocation-free");
    // The solo cycle's ceiling (see crypto_job_cycle_allocation_is_bounded)
    // applies per job: sharing blinding and scratch must keep the batch at
    // or below the solo budget.
    const PER_JOB_CEILING: u64 = 8_000;
    assert!(
        per_job <= PER_JOB_CEILING,
        "batched crypto cycle allocated {per_job} times per job \
         (ceiling {PER_JOB_CEILING}) — batching must not add per-job allocations"
    );
}

/// The live metrics registry must not break the steady-state budget: an
/// engine exchange that records every open/seal/response into a
/// [`ServerStats`] — exactly what the event-loop server does per record —
/// still allocates nothing. The registry is atomic adds into preallocated
/// histograms; a regression here (say, a label map or a lazily grown
/// bucket) would silently tax every record served.
///
/// [`ServerStats`]: sslperf::net::ServerStats
#[test]
fn metrics_recording_keeps_engine_steady_state_allocation_free() {
    const WARMUP: usize = 4;
    const MEASURED: u64 = 100;
    use sslperf::net::ServerStats;
    use sslperf::prelude::{ServerConfig, SslClient, SslRng, SslServer};
    use sslperf::profile::measure;
    use sslperf::rsa::RsaPrivateKey;
    use sslperf::ssl::Engine;

    let payload = vec![0xa5u8; 1024];
    let mut rng = SslRng::from_seed(b"alloc-budget-metrics-key");
    let key = RsaPrivateKey::generate(512, &mut rng).expect("keygen");
    let config = ServerConfig::new(key, "alloc.test").expect("config");
    let metrics = ServerStats::default();

    let mut client =
        Engine::new(SslClient::new(CipherSuite::RsaDesCbc3Sha, SslRng::from_seed(b"abm-c")))
            .expect("client engine");
    let mut server =
        Engine::new(SslServer::new(&config, SslRng::from_seed(b"abm-s"))).expect("server engine");

    support::establish(&mut client, &mut server);
    let mut wire = vec![0u8; 8 * 1024];
    metrics.note_handshake(&server.machine().ledger());

    // One server-side transaction with the full metrics accounting the
    // event-loop serving path performs: measured open, response timing,
    // measured seal, crypto-cycle deltas from the record layer.
    let exchange = |client: &mut sslperf::ssl::ClientEngine,
                    server: &mut sslperf::ssl::ServerEngine<'_>,
                    wire: &mut [u8],
                    metrics: &ServerStats| {
        client.seal(&payload).expect("client seal");
        let n = client.take_output(wire);
        assert_eq!(server.feed(&wire[..n]).expect("server feed"), n);
        let crypto_before = server.machine().record_crypto_cycles();
        let (range, open_cycles) = measure(|| server.open_next());
        let range = range.expect("server open").expect("complete record");
        let open_crypto = server.machine().record_crypto_cycles() - crypto_before;
        metrics.note_record_open(range.len(), open_cycles, open_crypto);
        let ((), respond_cycles) = measure(|| assert_eq!(range.len(), payload.len()));
        metrics.note_response(respond_cycles);
        let crypto_before = server.machine().record_crypto_cycles();
        let ((), seal_cycles) = measure(|| server.seal(&payload).expect("server seal"));
        let seal_crypto = server.machine().record_crypto_cycles() - crypto_before;
        metrics.note_record_seal(payload.len(), seal_cycles, seal_crypto);
        let n = server.take_output(wire);
        assert_eq!(client.feed(&wire[..n]).expect("client feed"), n);
        let range = client.open_next().expect("client open").expect("complete record");
        assert_eq!(&client.buffered()[range], &payload[..]);
    };

    for _ in 0..WARMUP {
        exchange(&mut client, &mut server, &mut wire, &metrics);
    }
    let ((), delta) = allocations_during(|| {
        for _ in 0..MEASURED {
            exchange(&mut client, &mut server, &mut wire, &metrics);
        }
    });
    assert_eq!(
        delta,
        0,
        "metrics-instrumented engine path: {delta} allocations over {MEASURED} round trips \
         ({} per record) — recording must be atomic adds only",
        delta as f64 / (2 * MEASURED) as f64
    );

    let snap = metrics.snapshot();
    assert_eq!(snap.records_opened, (WARMUP as u64) + MEASURED);
    assert_eq!(snap.records_sealed, (WARMUP as u64) + MEASURED);
    assert_eq!(snap.transactions, (WARMUP as u64) + MEASURED);
    assert_eq!(snap.full_handshake.count(), 1, "the handshake ledger was fed");
}

//! Known-answer tests pinning the cipher, hash, MAC, and KDF primitives to
//! their published vectors: AES to FIPS 197 and, in CBC mode, to NIST
//! SP 800-38A appendix F.2, MD5 to RFC 1321 §A.5, SHA-1 to FIPS 180-1 appendix
//! examples, HMAC-MD5/HMAC-SHA1 to RFC 2202, HKDF-SHA-256 to RFC 5869
//! appendix A, the ffdhe2048 group to RFC 7919 appendix A.1, and the
//! SSLv3 KDF to a fixed golden transcript. Everything above these
//! primitives (transcript hashes, Finished verification, key derivation,
//! the TLS 1.3 key schedule) silently depends on their exact bit-level
//! behaviour; the proptests prove internal consistency, these prove
//! conformance.

use sslperf::bignum::{Bn, LimbWidth, MontCtx};
use sslperf::ciphers::{Aes, AesBackend, BlockCipher, Cbc, CipherError};
use sslperf::hashes::{hkdf, HashAlg, Hmac, Md5, Sha1, Sha256};
use sslperf::prelude::SslRng;
use sslperf::ssl::{dhe, kdf};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Every AES round backend this host can run: the portable tables always,
/// the hardware unit when present.
fn aes_backends() -> Vec<AesBackend> {
    let mut backends = vec![AesBackend::Table];
    if Aes::ni_available() {
        backends.push(AesBackend::Ni);
    }
    backends
}

/// FIPS 197 appendices B and C against *both* round backends: the fused
/// tables and AES-NI must produce bit-identical known answers at every
/// key size. A failure names the backend that drifted.
#[test]
fn fips197_vectors_on_every_backend() {
    // (key, plaintext, ciphertext): appendix C.1/C.2/C.3, then the
    // appendix B worked example with its different key.
    let vectors = [
        (
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        ),
        (
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
    ];
    for backend in aes_backends() {
        for (key, plain, cipher) in &vectors {
            let aes = Aes::with_backend(&unhex(key), backend).expect("backend available");
            let mut block: [u8; 16] = unhex(plain).try_into().expect("16 bytes");
            aes.encrypt_block(&mut block);
            assert_eq!(
                hex(&block),
                *cipher,
                "encrypt drifted: backend {} key {key}",
                backend.name()
            );
            aes.decrypt_block(&mut block);
            assert_eq!(
                hex(&block),
                *plain,
                "decrypt drifted: backend {} key {key}",
                backend.name()
            );
        }
    }
}

/// NIST SP 800-38A F.2.1–F.2.6: CBC-AES128/192/256 encrypt and decrypt of
/// the appendix's four-block message, on both round backends, through
/// [`Cbc`] — the path the record layer and ticket sealing take, so on
/// AES-NI this pins the fused kernel and on the table backend the
/// per-block default. The message goes in as one call, then as a 3 + 1
/// block split, so the chain must also carry across calls.
#[test]
fn sp800_38a_cbc_vectors_on_every_backend() {
    let iv = unhex("000102030405060708090a0b0c0d0e0f");
    let plain = unhex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ));
    // (key, ciphertext): F.2.1/F.2.2, F.2.3/F.2.4, F.2.5/F.2.6.
    let vectors = [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            concat!(
                "7649abac8119b246cee98e9b12e9197d",
                "5086cb9b507219ee95db113a917678b2",
                "73bed6b8e3c1743b7116e69e22229516",
                "3ff1caa1681fac09120eca307586e1a7",
            ),
        ),
        (
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
            concat!(
                "4f021db243bc633d7178183a9fa071e8",
                "b4d9ada9ad7dedf4e5e738763f69145a",
                "571b242012fb7ae07fa9baac3df102e0",
                "08b0e27988598881d920a9e64f5615cd",
            ),
        ),
        (
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            concat!(
                "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
                "9cfc4e967edb808d679f777bc6702c7d",
                "39f23369a9d9bacfa530e26304231461",
                "b2eb05e2c39be9fcda6c19078c6a9d1b",
            ),
        ),
    ];
    for backend in aes_backends() {
        for (key, cipher) in &vectors {
            let cbc = || {
                let aes = Aes::with_backend(&unhex(key), backend).expect("backend available");
                Cbc::new(aes, iv.clone()).expect("one-block iv")
            };
            let name = backend.name();
            for split in [64, 48] {
                let (mut enc, mut dec) = (cbc(), cbc());
                let mut data = plain.clone();
                let (head, tail) = data.split_at_mut(split);
                enc.encrypt(head).expect("whole blocks");
                enc.encrypt(tail).expect("whole blocks");
                assert_eq!(hex(&data), *cipher, "encrypt drifted: {name} key {key} split {split}");
                assert_eq!(hex(enc.iv()), cipher[96..], "encrypt chain: {name} key {key}");
                let (head, tail) = data.split_at_mut(split);
                dec.decrypt(head).expect("whole blocks");
                dec.decrypt(tail).expect("whole blocks");
                assert_eq!(data, plain, "decrypt drifted: {name} key {key} split {split}");
                assert_eq!(hex(dec.iv()), cipher[96..], "decrypt chain: {name} key {key}");
            }
        }
    }
}

/// The forced table fallback works everywhere and reports itself; forcing
/// AES-NI on a CPU without it is a clean typed error, not a crash.
#[test]
fn aes_backend_forcing_behaves() {
    let key = unhex("000102030405060708090a0b0c0d0e0f");
    let table = Aes::with_backend(&key, AesBackend::Table).expect("table is always available");
    assert_eq!(table.backend_name(), "table");
    match Aes::with_backend(&key, AesBackend::Ni) {
        Ok(hw) => {
            assert!(Aes::ni_available());
            assert_eq!(hw.backend_name(), "ni");
        }
        Err(e) => {
            assert!(!Aes::ni_available());
            assert_eq!(e, CipherError::BackendUnavailable);
        }
    }
    // Auto never fails on a valid key, whatever the CPU.
    let auto = Aes::new(&key).expect("auto backend");
    assert!(auto.backend_name() == "ni" || auto.backend_name() == "table");
}

/// RFC 1321 §A.5 — the complete MD5 test suite.
#[test]
fn md5_rfc1321_vectors() {
    let vectors: [(&[u8], &str); 7] = [
        (b"", "d41d8cd98f00b204e9800998ecf8427e"),
        (b"a", "0cc175b9c0f1b6a831c399e269772661"),
        (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
        (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
        (
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];
    for (input, expected) in vectors {
        assert_eq!(hex(&Md5::digest(input)), expected, "MD5({:?})", String::from_utf8_lossy(input));
    }
}

/// Feeds one million 'a's in uneven chunks, to exercise the streaming
/// path's block boundaries (FIPS 180 appendix: the long-message example).
fn million_a(mut update: impl FnMut(&[u8])) {
    let chunk = [b'a'; 997];
    let mut remaining = 1_000_000usize;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        update(&chunk[..take]);
        remaining -= take;
    }
}

/// Whether `new()` picked the hardware SHA unit on this CPU; says why the
/// unit's cases are skipped when it did not.
fn sha_unit_present() -> bool {
    let present = Sha1::new().backend_name() == "ni";
    if !present {
        eprintln!("skipped: SHA-unit cases (this CPU has no `sha` extension)");
    }
    present
}

/// FIPS 180-1 appendix A/B examples, the empty message (a classic
/// regression spot for padding logic) and the million-'a' extreme, once
/// per compression kernel.
#[test]
fn sha1_fips180_vectors_on_every_kernel() {
    let mut kernels: Vec<fn() -> Sha1> = vec![Sha1::portable];
    if sha_unit_present() {
        kernels.push(Sha1::new);
    }
    for init in kernels {
        let name = init().backend_name();
        let digest = |data: &[u8]| {
            let mut h = init();
            h.update(data);
            hex(&h.finalize())
        };
        assert_eq!(digest(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709", "{name}");
        assert_eq!(digest(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d", "{name}");
        assert_eq!(
            digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            "{name}"
        );
        let mut hasher = init();
        million_a(|chunk| hasher.update(chunk));
        assert_eq!(hex(&hasher.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f", "{name}");
    }
    // The one-shot entry point every caller uses.
    assert_eq!(hex(&Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    assert_eq!(hex(&Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

/// FIPS 180-2 appendix B examples, the empty message and the million-'a'
/// extreme for SHA-256, once per compression kernel.
#[test]
fn sha256_fips180_vectors_on_every_kernel() {
    let mut kernels: Vec<fn() -> Sha256> = vec![Sha256::portable];
    if sha_unit_present() {
        kernels.push(Sha256::new);
    }
    for init in kernels {
        let name = init().backend_name();
        let digest = |data: &[u8]| {
            let mut h = init();
            h.update(data);
            hex(&h.finalize())
        };
        assert_eq!(
            digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "{name}"
        );
        assert_eq!(
            digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            "{name}"
        );
        assert_eq!(
            digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            "{name}"
        );
        let mut hasher = init();
        million_a(|chunk| hasher.update(chunk));
        assert_eq!(
            hex(&hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            "{name}"
        );
    }
    assert_eq!(
        hex(&Sha256::digest(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

/// RFC 2202 §2 — all seven HMAC-MD5 test cases.
#[test]
fn hmac_md5_rfc2202_vectors() {
    let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
        (vec![0x0b; 16], b"Hi There".to_vec(), "9294727a3638bb1c13f48ef8158bfc9d"),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "750c783e6ab0b503eaa86e310a5db738",
        ),
        (vec![0xaa; 16], vec![0xdd; 50], "56be34521d144c88dbb8c733f0e8b3f6"),
        ((1..=25).collect::<Vec<u8>>(), vec![0xcd; 50], "697eaf0aca3a3aea3a75164746ffaa79"),
        (vec![0x0c; 16], b"Test With Truncation".to_vec(), "56461ef2342edc00f9bab995690efd4c"),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "6f630fad67cda0ee1fb1f562db3aa53e",
        ),
    ];
    for (i, (key, data, expected)) in cases.iter().enumerate() {
        assert_eq!(hex(&Hmac::mac(HashAlg::Md5, key, data)), *expected, "HMAC-MD5 case {}", i + 1);
    }
}

/// RFC 2202 §3 — all seven HMAC-SHA1 test cases.
#[test]
fn hmac_sha1_rfc2202_vectors() {
    let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
        (vec![0x0b; 20], b"Hi There".to_vec(), "b617318655057264e28bc0b6fb378c8ef146be00"),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        ),
        (vec![0xaa; 20], vec![0xdd; 50], "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
        ((1..=25).collect::<Vec<u8>>(), vec![0xcd; 50], "4c9007f4026250c6bc8414f9bf50c86c2d7235da"),
        (
            vec![0x0c; 20],
            b"Test With Truncation".to_vec(),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        ),
    ];
    for (i, (key, data, expected)) in cases.iter().enumerate() {
        assert_eq!(
            hex(&Hmac::mac(HashAlg::Sha1, key, data)),
            *expected,
            "HMAC-SHA1 case {}",
            i + 1
        );
    }
}

/// The streaming hashers agree with one-shot digests across every chunk
/// split of a known vector — the KAT analogue of the proptest, pinned to
/// a fixed input so a failure names the exact boundary.
#[test]
fn streaming_matches_one_shot_on_vector_input() {
    let data = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    for split in 0..data.len() {
        let mut md5 = Md5::new();
        md5.update(&data[..split]);
        md5.update(&data[split..]);
        assert_eq!(md5.finalize(), Md5::digest(data), "md5 split at {split}");

        let mut sha1 = Sha1::new();
        sha1.update(&data[..split]);
        sha1.update(&data[split..]);
        assert_eq!(sha1.finalize(), Sha1::digest(data), "sha1 split at {split}");
    }
}

/// SSLv3 KDF (the MD5/SHA-1 'A'/'BB'/'CCC' cascade) against a fixed
/// golden transcript. The inputs mimic a real handshake's shapes: 48-byte
/// pre-master, 32-byte randoms. The expected bytes were computed once
/// from this implementation and pinned; any change to the cascade —
/// label generation, hash order, output assembly — trips this.
#[test]
fn sslv3_kdf_golden_transcript() {
    let pre_master: Vec<u8> = (0u8..48).collect();
    let client_random: Vec<u8> = (100u8..132).collect();
    let server_random: Vec<u8> = (200u8..232).collect();

    let master = kdf::master_secret(&pre_master, &client_random, &server_random);
    assert_eq!(master.len(), 48, "master secret is always 48 bytes");
    assert_eq!(
        hex(&master),
        "86176de8232939833297d4f3e580298523abef5af435fc138a364af044baf1b9a02c03f14297a9ca89290cea0161b3a4",
        "SSLv3 master-secret cascade changed"
    );

    // Key block: server_random then client_random (the SSLv3 order swap).
    let block = kdf::key_block(&master, &server_random, &client_random, 104);
    assert_eq!(
        hex(&block),
        "ea4a0b623ba76a96ee12861b16f80ddccb585a97321dca8531ff9a4cd6e75247fa8ac0efeeb05413c967fa52577347a7990b994f4e6e991535589cbd4bff08fd1469eae089e7585d778430f7d8c07dc7f5b52e87eef0f9191c7395b4d6ce3158eaf1ef6f6ea4ea31",
        "SSLv3 key-block expansion changed"
    );

    // The raw derive primitive with asymmetric rand lengths.
    let out = kdf::derive(&pre_master, &client_random[..7], &server_random[..13], 33);
    assert_eq!(
        hex(&out),
        "bb28a5d64bcab9eb11ac52314d2a0be9e941fd6c324bdb2c8669197621a0f193ab",
        "SSLv3 derive primitive changed"
    );
}

/// RFC 5869 appendix A — all three SHA-256 test cases: basic, longer
/// inputs/outputs (multi-block expand), and zero-length salt/info (the
/// default-salt path the TLS 1.3 key schedule leans on).
#[test]
fn hkdf_sha256_rfc5869_vectors() {
    // A.1: basic.
    let ikm = [0x0bu8; 22];
    let salt: Vec<u8> = (0x00..=0x0c).collect();
    let info: Vec<u8> = (0xf0..=0xf9).collect();
    let prk = hkdf::extract(HashAlg::Sha256, &salt, &ikm);
    assert_eq!(hex(&prk), "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
    assert_eq!(
        hex(&hkdf::expand(HashAlg::Sha256, &prk, &info, 42)),
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    );

    // A.2: longer inputs and an 82-byte (multi-block) output.
    let ikm: Vec<u8> = (0x00..=0x4f).collect();
    let salt: Vec<u8> = (0x60..=0xaf).collect();
    let info: Vec<u8> = (0xb0..=0xff).collect();
    let prk = hkdf::extract(HashAlg::Sha256, &salt, &ikm);
    assert_eq!(hex(&prk), "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244");
    assert_eq!(
        hex(&hkdf::expand(HashAlg::Sha256, &prk, &info, 82)),
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
    );

    // A.3: zero-length salt and info.
    let ikm = [0x0bu8; 22];
    let prk = hkdf::extract(HashAlg::Sha256, b"", &ikm);
    assert_eq!(hex(&prk), "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
    assert_eq!(
        hex(&hkdf::expand(HashAlg::Sha256, &prk, b"", 42)),
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    );
}

/// RFC 7919 appendix A.1 — the ffdhe2048 group parameters: a 2048-bit
/// prime with all-ones top and bottom 64 bits, generator 2, and the
/// safe-prime residue p ≡ 23 (mod 24) that makes g generate the q-order
/// subgroup (2 is a quadratic residue because p ≡ 7 mod 8).
#[test]
fn ffdhe2048_rfc7919_group_parameters() {
    let p_hex = dhe::FFDHE2048_P_HEX;
    assert_eq!(p_hex.len(), 512, "2048-bit prime");
    assert!(p_hex.starts_with("FFFFFFFFFFFFFFFF"), "top 64 bits all ones");
    assert!(p_hex.ends_with("FFFFFFFFFFFFFFFF"), "bottom 64 bits all ones");
    assert_eq!(dhe::FFDHE2048_G, 2);
    assert_eq!(dhe::FFDHE2048_LEN * 8, 2048);

    // p mod 24, folded over the big-endian bytes: 256^n ≡ 16 (mod 24)
    // for every n ≥ 1, so only the last byte keeps its own weight.
    let bytes: Vec<u8> = (0..p_hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&p_hex[i..i + 2], 16).expect("hex prime"))
        .collect();
    let fold: u64 = bytes[..bytes.len() - 1].iter().map(|&b| 16 * u64::from(b)).sum::<u64>()
        + u64::from(bytes[bytes.len() - 1]);
    assert_eq!(fold % 24, 23, "safe prime with 2 a quadratic residue");
}

/// The ffdhe2048 exchange recomputed once per limb configuration, pinned
/// to the same golden digests as [`ffdhe2048_exchange_golden_transcript`].
/// The exponents are re-derived exactly as `DheKeyPair::generate` draws
/// them (32 seeded bytes, top bit pinned), then the exponentiations run
/// through an explicit [`MontCtx`] per width — so a u64-kernel bug that
/// skews any 2048-bit exponentiation breaks this test by name, whatever
/// the process default width is.
#[test]
fn ffdhe2048_golden_transcript_per_limb_width() {
    let p = Bn::from_hex(dhe::FFDHE2048_P_HEX).expect("ffdhe2048 prime literal");
    let exponent = |seed: &[u8]| {
        let mut buf = [0u8; 32];
        SslRng::from_seed(seed).fill_bytes(&mut buf);
        buf[0] |= 0x80;
        Bn::from_bytes_be(&buf)
    };
    let xa = exponent(b"ka-ffdhe-a");
    let xb = exponent(b"ka-ffdhe-b");
    for limbs in [LimbWidth::U32, LimbWidth::U64] {
        let ctx = MontCtx::with_limb_width(&p, limbs).expect("odd prime");
        let g = Bn::from_u64(dhe::FFDHE2048_G);
        let pub_a = ctx.mod_exp(&g, &xa).to_bytes_be_padded(dhe::FFDHE2048_LEN);
        let pub_b = ctx.mod_exp(&g, &xb).to_bytes_be_padded(dhe::FFDHE2048_LEN);
        assert_eq!(
            hex(&Sha256::digest(&pub_a)),
            "5bc4f8571607ec1826e780b4be7bede013ee449b68e27c354b1c7dcac02bf53f",
            "public A drifted under {} limbs",
            limbs.name()
        );
        assert_eq!(
            hex(&Sha256::digest(&pub_b)),
            "5b130a9e57651d0a1019582f1bbbd46e462c9c03052348ee9012e16a235c2ead",
            "public B drifted under {} limbs",
            limbs.name()
        );
        let shared_a =
            ctx.mod_exp(&Bn::from_bytes_be(&pub_b), &xa).to_bytes_be_padded(dhe::FFDHE2048_LEN);
        let shared_b =
            ctx.mod_exp(&Bn::from_bytes_be(&pub_a), &xb).to_bytes_be_padded(dhe::FFDHE2048_LEN);
        assert_eq!(shared_a, shared_b, "sides disagree under {} limbs", limbs.name());
        assert_eq!(
            hex(&Sha256::digest(&shared_a)),
            "ec91260fa6385d29252a89153e3a1d938e0c9fd098a83de6564641d17922caac",
            "shared secret drifted under {} limbs",
            limbs.name()
        );
    }
}

/// The ffdhe2048 exchange pinned under fixed seeds: a golden transcript
/// for the public values and the both-ways-equal shared secret. The
/// digests were computed once from this implementation; any change to
/// exponent drawing, the Montgomery kernel, or the 256-byte encoding
/// trips this.
#[test]
fn ffdhe2048_exchange_golden_transcript() {
    let a = dhe::DheKeyPair::generate(&mut SslRng::from_seed(b"ka-ffdhe-a"));
    let b = dhe::DheKeyPair::generate(&mut SslRng::from_seed(b"ka-ffdhe-b"));
    assert_eq!(a.public().len(), dhe::FFDHE2048_LEN);
    assert_eq!(
        hex(&Sha256::digest(a.public())),
        "5bc4f8571607ec1826e780b4be7bede013ee449b68e27c354b1c7dcac02bf53f"
    );
    assert_eq!(
        hex(&Sha256::digest(b.public())),
        "5b130a9e57651d0a1019582f1bbbd46e462c9c03052348ee9012e16a235c2ead"
    );

    let shared_a = a.agree(&dhe::validate_public(b.public()).expect("b public"));
    let shared_b = b.agree(&dhe::validate_public(a.public()).expect("a public"));
    assert_eq!(shared_a, shared_b, "both sides derive the same secret");
    assert_eq!(
        hex(&Sha256::digest(&shared_a)),
        "ec91260fa6385d29252a89153e3a1d938e0c9fd098a83de6564641d17922caac"
    );
}

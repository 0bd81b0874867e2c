//! A from-scratch SHA-256 (FIPS 180-4).
//!
//! Used to digest certificate contents before signing, and on the
//! serving path as the authentication cache's key and the journal's
//! frame check. Implemented here because no cryptography crate is on
//! the approved dependency list; the algorithm is the real one and is
//! validated against the FIPS test vectors in this module's tests.
//!
//! # Backends
//!
//! The block compression has two implementations, chosen once per
//! process: an x86_64 kernel on the SHA extensions (`sha256rnds2`,
//! `sha256msg1/2`), used whenever the CPU reports them at run time, and
//! the portable one below, used everywhere else. Both produce identical
//! digests — the tests compare them on every length up to 1 KiB — so
//! the choice is invisible to callers and to every on-disk format.

use std::sync::OnceLock;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which block-compression implementation a hasher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Plain Rust, any CPU.
    Portable,
    /// The SHA-extension kernel; only ever selected after the run-time
    /// feature check in [`Backend::detected`] passed.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// The fastest backend this CPU supports, probed once per process.
    pub(crate) fn detected() -> Backend {
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse4.1")
                && std::arch::is_x86_feature_detected!("ssse3")
            {
                return Backend::ShaNi;
            }
            Backend::Portable
        })
    }

    /// Folds every 64-byte block of `blocks` into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        match self {
            Backend::Portable => compress_portable(state, blocks),
            // SAFETY: `ShaNi` is only constructed by `Backend::detected`
            // after `is_x86_feature_detected!` confirmed the `sha`,
            // `sse4.1` and `ssse3` features the kernel enables (`sse2`
            // is part of the x86_64 baseline).
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => unsafe { compress_sha_ni(state, blocks) },
        }
    }
}

/// An incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use gridauthz_credential::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256::with_backend(Backend::detected())
    }

    pub(crate) fn with_backend(backend: Backend) -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length_bytes: 0, backend }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            self.backend.compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block in one call, so the kernel's state shuffles
        // are paid once per update rather than once per block.
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            self.backend.compress(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        let buffered = self.buffered;
        self.buffer[buffered] = 0x80;
        if buffered >= 56 {
            // No room for the length in this block: pad it out,
            // compress, and put the length in an all-padding block.
            self.buffer[buffered + 1..].fill(0);
            self.backend.compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        } else {
            self.buffer[buffered + 1..56].fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The block compression on the x86 SHA extensions, after Intel's
/// reference sequence: the state lives in two registers as `ABEF` and
/// `CDGH`, each `sha256rnds2` performs two rounds, and `sha256msg1/2`
/// extend the message schedule four words at a time.
///
/// # Safety
///
/// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
/// features. Memory access needs nothing from the caller: every load
/// and store stays inside `state`, `K` (at most index 63) or one
/// `chunks_exact(64)` block, and every access is an unaligned load or
/// store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Four rounds: add the round constants for rounds 4i..4i+4 to the
    // schedule words `$w`, then two `sha256rnds2` of two rounds each.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_loadu_si128(K.as_ptr().add(4 * $i).cast::<__m128i>());
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }
    // The next four schedule words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let dcba = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        // Rounds 16..64: each group's words replace the oldest four.
        let mut i = 4;
        while i < 16 {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, i);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, i + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, i + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, i + 3);
            i += 4;
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgef);
}

/// One-shot convenience wrapper around [`Sha256`].
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_with(Backend::detected(), data)
}

/// [`sha256`] on a given backend — also how the differential tests and
/// the `sha256` microbenchmark reach each one.
pub(crate) fn sha256_with(backend: Backend, data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_backend(backend);
    h.update(data);
    h.finalize()
}

/// The first 8 digest bytes as a big-endian integer — the "message
/// representative" signed by the toy-RSA module.
pub fn sha256_prefix_u64(data: &[u8]) -> u64 {
    let d = sha256(data);
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every backend this CPU can run: the portable one always, the
    /// kernel when the run-time check selects it.
    fn backends() -> Vec<Backend> {
        let mut all = vec![Backend::Portable];
        if Backend::detected() != Backend::Portable {
            all.push(Backend::detected());
        }
        all
    }

    fn assert_vector(input: &[u8], expected: &str) {
        for backend in backends() {
            assert_eq!(hex(&sha256_with(backend, input)), expected, "{backend:?}");
        }
        // The public entry point runs the detected backend.
        assert_eq!(hex(&sha256(input)), expected);
    }

    // FIPS 180-4 / NIST CAVP test vectors, run on each backend.
    #[test]
    fn empty_vector() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc_vector() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn backends_agree_on_every_length_to_1k() {
        // Covers both padding edges (55/56 and 63/64 bytes mod 64) in
        // every block count up to sixteen.
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for len in 0..=data.len() {
            let portable = sha256_with(Backend::Portable, &data[..len]);
            for backend in backends() {
                assert_eq!(sha256_with(backend, &data[..len]), portable, "{backend:?} len {len}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk_size in [1, 3, 7, 63, 64, 65, 200] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn prefix_u64_is_stable() {
        // e3b0c44298fc1c14 is the first 8 bytes of the empty-string digest.
        assert_eq!(sha256_prefix_u64(b""), 0xe3b0c44298fc1c14);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"policy-a"), sha256(b"policy-b"));
    }

    proptest! {
        /// Splitting the input into arbitrary `update` chunks never
        /// changes the digest, on any backend.
        #[test]
        fn random_chunking_matches_oneshot(
            data in prop::collection::vec(any::<u8>(), 0..700),
            cuts in prop::collection::vec(0usize..700, 0..8),
        ) {
            let oneshot = sha256_with(Backend::Portable, &data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            for backend in backends() {
                let mut h = Sha256::with_backend(backend);
                let mut from = 0;
                for &cut in &cuts {
                    h.update(&data[from..cut]);
                    from = cut;
                }
                h.update(&data[from..]);
                prop_assert_eq!(h.finalize(), oneshot);
            }
        }
    }
}

//! A generation-stamped authentication cache for the GRAM front door.
//!
//! Every `handle_wire_pem` call used to re-parse the PEM armor and
//! re-verify the full certificate chain — RSA signature checks included
//! — even when the same client presented the same credential on every
//! request of a long session. The companion job-management papers
//! (Thompson et al., Keahey et al.) identify exactly this per-request
//! credential verification as the dominant serving cost, and it is
//! perfectly repetitive: the chain bytes are identical from one request
//! to the next.
//!
//! This cache turns repeat-client verification into a digest lookup.
//! The key is the SHA-256 of the PEM text as it appeared on the wire; a
//! hit skips PEM decoding *and* chain verification and pays only that
//! digest, which runs on the CPU's SHA extensions where it has them
//! (about 0.5 µs for a ~650-byte identity chain, against 3.6 µs for the
//! portable code; see `credential::sha256`). Correctness rests on the
//! same two properties as the [`DecisionCache`]:
//!
//! * **Exact keys.** The digest covers the raw PEM bytes, so any
//!   difference in the presented credential — another proxy, another
//!   delegation depth, even re-encoded armor — is a different key. A hit
//!   can only ever return the identity that verifying those exact bytes
//!   produced.
//! * **Generation stamping.** Each entry records the
//!   [`Gatekeeper::generation`](crate::Gatekeeper::generation) of the
//!   published gatekeeper snapshot that verified it. `set_gridmap`,
//!   `revoke_credential` and trust-store mutations bump the generation
//!   before publishing, so every older entry goes stale implicitly —
//!   lookups under the new generation ignore it and fall through to a
//!   full re-verification against the new trust state. The cache holds
//!   no generation counter of its own.
//!
//! Expiry needs one extra check the DecisionCache does not: a chain that
//! verified at time *t* may be expired at *t + Δ* with no administrative
//! action at all. Each entry therefore stores the chain's composite
//! validity window (latest `not_before`, earliest `not_after`), and a
//! lookup outside that window misses. Negative results are never cached:
//! a failed verification stays expensive, which keeps a flood of garbage
//! chains from evicting real clients.
//!
//! [`DecisionCache`]: gridauthz_core::DecisionCache

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gridauthz_clock::SimTime;
use gridauthz_credential::{sha256, Certificate, VerifiedIdentity};

/// Shard count: enough that front-end workers rarely collide on a lock,
/// few enough that a sweep stays cheap.
const SHARDS: usize = 16;

/// Bound on entries per shard (the whole cache holds at most
/// `SHARDS * SHARD_CAPACITY` verified chains).
const SHARD_CAPACITY: usize = 256;

/// One verified chain, pinned to the gatekeeper generation that
/// verified it and to the chain's own validity window.
#[derive(Debug, Clone)]
pub struct AuthEntry {
    generation: u64,
    chain: Vec<Certificate>,
    identity: VerifiedIdentity,
    valid_from: SimTime,
    valid_until: SimTime,
}

impl AuthEntry {
    /// Builds an entry from a freshly verified chain. The validity
    /// window is the intersection of every certificate's: the chain is
    /// only acceptable while *all* of its certificates are in validity.
    #[must_use]
    pub fn new(generation: u64, chain: Vec<Certificate>, identity: VerifiedIdentity) -> AuthEntry {
        let mut valid_from = SimTime::EPOCH;
        let mut valid_until = SimTime::from_micros(u64::MAX);
        for cert in &chain {
            let validity = cert.validity();
            valid_from = valid_from.max(validity.not_before);
            valid_until = valid_until.min(validity.not_after);
        }
        AuthEntry { generation, chain, identity, valid_from, valid_until }
    }

    /// The verified certificate chain, exactly as presented.
    #[must_use]
    pub fn chain(&self) -> &[Certificate] {
        &self.chain
    }

    /// The verified Grid identity.
    #[must_use]
    pub fn identity(&self) -> &VerifiedIdentity {
        &self.identity
    }

    /// The gatekeeper generation this entry was verified under.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn live(&self, generation: u64, now: SimTime) -> bool {
        self.generation == generation && self.valid_from <= now && now <= self.valid_until
    }
}

/// Hit/miss counters observed on an [`AuthCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthCacheStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that fell through to full verification.
    pub misses: u64,
}

impl AuthCacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded digest → verified-chain map.
#[derive(Debug)]
pub struct AuthCache {
    shards: [Mutex<HashMap<[u8; 32], Arc<AuthEntry>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AuthCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> AuthCache {
        AuthCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key for a PEM blob as it appeared on the wire.
    #[must_use]
    pub fn digest(pem_text: &str) -> [u8; 32] {
        sha256(pem_text.as_bytes())
    }

    fn shard(&self, key: &[u8; 32]) -> &Mutex<HashMap<[u8; 32], Arc<AuthEntry>>> {
        &self.shards[usize::from(key[0]) % SHARDS]
    }

    /// Returns the cached verification for `key` if it is still live:
    /// verified under `generation` and within the chain's validity
    /// window at `now`. Stale entries are removed on sight.
    #[must_use]
    pub fn lookup(&self, key: &[u8; 32], generation: u64, now: SimTime) -> Option<Arc<AuthEntry>> {
        let mut shard = self.shard(key).lock();
        match shard.get(key) {
            Some(entry) if entry.live(generation, now) => {
                let entry = Arc::clone(entry);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Some(_) => {
                shard.remove(key);
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly verified chain — the same `Arc` the caller
    /// hands back to its request. When the shard is full, entries that
    /// could no longer hit at `now` — older generations, expired
    /// windows — are dropped first; if every entry is live the shard is
    /// cleared (repeat clients repopulate it in one round trip each).
    pub fn insert(&self, key: [u8; 32], entry: Arc<AuthEntry>, now: SimTime) {
        let mut shard = self.shard(&key).lock();
        if shard.len() >= SHARD_CAPACITY && !shard.contains_key(&key) {
            let generation = entry.generation;
            shard.retain(|_, held| held.live(generation, now));
            if shard.len() >= SHARD_CAPACITY {
                shard.clear();
            }
        }
        shard.insert(key, entry);
    }

    /// Entries currently held, across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> AuthCacheStats {
        AuthCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for AuthCache {
    fn default() -> AuthCache {
        AuthCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_clock::{SimClock, SimDuration};
    use gridauthz_credential::{verify_chain, CertificateAuthority, TrustStore};

    struct Fixture {
        clock: SimClock,
        trust: TrustStore,
        chain: Vec<Certificate>,
        identity: VerifiedIdentity,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let user = ca.issue_identity("/O=Grid/CN=Bo Liu", SimDuration::from_hours(1)).unwrap();
        let identity = verify_chain(user.chain(), &trust, clock.now()).unwrap();
        Fixture { clock, trust, chain: user.chain().to_vec(), identity }
    }

    impl Fixture {
        fn entry(&self, generation: u64) -> Arc<AuthEntry> {
            Arc::new(AuthEntry::new(generation, self.chain.clone(), self.identity.clone()))
        }
    }

    #[test]
    fn hit_returns_the_verified_identity() {
        let f = fixture();
        let cache = AuthCache::new();
        let key = AuthCache::digest("-----BEGIN CERTIFICATE-----\n...");
        assert!(cache.lookup(&key, 0, f.clock.now()).is_none());
        let inserted = f.entry(0);
        cache.insert(key, Arc::clone(&inserted), f.clock.now());
        let entry = cache.lookup(&key, 0, f.clock.now()).expect("fresh entry hits");
        // The cache holds the caller's allocation, not a copy of it.
        assert!(Arc::ptr_eq(&entry, &inserted));
        assert_eq!(entry.identity().subject(), f.identity.subject());
        assert_eq!(entry.chain().len(), f.chain.len());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn generation_mismatch_misses_and_evicts() {
        let f = fixture();
        let cache = AuthCache::new();
        let key = AuthCache::digest("pem");
        cache.insert(key, f.entry(3), f.clock.now());
        assert!(cache.lookup(&key, 3, f.clock.now()).is_some());
        // An administrative bump strands the entry; the stale entry is
        // dropped on first sight.
        assert!(cache.lookup(&key, 4, f.clock.now()).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn expired_chain_misses_even_in_generation() {
        let f = fixture();
        let cache = AuthCache::new();
        let key = AuthCache::digest("pem");
        cache.insert(key, f.entry(0), f.clock.now());
        // Advance past the one-hour credential lifetime: the cached
        // verification must not outlive the chain itself.
        f.clock.advance(SimDuration::from_hours(2));
        assert!(cache.lookup(&key, 0, f.clock.now()).is_none());
        // And the real verifier agrees the chain is now bad.
        assert!(verify_chain(&f.chain, &f.trust, f.clock.now()).is_err());
    }

    #[test]
    fn insert_evicts_stale_before_live() {
        let f = fixture();
        let cache = AuthCache::new();
        // Fill one shard beyond capacity with old-generation entries;
        // the insert that overflows must survive.
        let mut keys = Vec::new();
        for i in 0..=SHARD_CAPACITY {
            let mut key = [0u8; 32];
            key[0] = 0; // one shard
            key[1..9].copy_from_slice(&(i as u64).to_le_bytes());
            if i < SHARD_CAPACITY {
                cache.insert(key, f.entry(0), f.clock.now());
            }
            keys.push(key);
        }
        let last = *keys.last().unwrap();
        cache.insert(last, f.entry(1), f.clock.now());
        assert!(cache.lookup(&last, 1, f.clock.now()).is_some());
        assert!(cache.len() <= SHARD_CAPACITY);
    }

    /// Keys that all land in shard 0.
    fn shard0_key(i: usize) -> [u8; 32] {
        let mut key = [0u8; 32];
        key[1..9].copy_from_slice(&(i as u64).to_le_bytes());
        key
    }

    #[test]
    fn full_shard_prunes_entries_expired_at_now_and_keeps_live_ones() {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let issue = |cn: &str, hours| {
            let user = ca.issue_identity(cn, SimDuration::from_hours(hours)).unwrap();
            let identity = verify_chain(user.chain(), &trust, clock.now()).unwrap();
            Arc::new(AuthEntry::new(0, user.chain().to_vec(), identity))
        };
        let short = issue("/O=Grid/CN=Short", 1);
        let long = issue("/O=Grid/CN=Long", 10);
        // Verified at the start of the day, so its window opens before
        // the short-lived chains close.
        let newcomer = issue("/O=Grid/CN=Newcomer", 10);

        let cache = AuthCache::new();
        for i in 0..SHARD_CAPACITY {
            let entry = if i % 2 == 0 { &short } else { &long };
            cache.insert(shard0_key(i), Arc::clone(entry), clock.now());
        }
        // The short-lived half expires; the long-lived half stays live.
        clock.advance(SimDuration::from_hours(2));
        let now = clock.now();
        cache.insert(shard0_key(SHARD_CAPACITY), newcomer, now);

        // Pruned at `now`, not at the newcomer's `valid_from` (where the
        // expired half would still look live and force a full clear).
        assert_eq!(cache.len(), SHARD_CAPACITY / 2 + 1);
        for i in 0..SHARD_CAPACITY {
            let hit = cache.lookup(&shard0_key(i), 0, now).is_some();
            assert_eq!(hit, i % 2 == 1, "entry {i}");
        }
        assert!(cache.lookup(&shard0_key(SHARD_CAPACITY), 0, now).is_some());
    }
}

//! `nkg-artifact` — content-addressed cache for immutable setup artifacts.
//!
//! The paper's MCI workload is ensembles: many parameterized runs over the
//! *same* geometry and discretization, differing only in inflow waveform,
//! hematocrit and seed. Setup products — GLL quadrature/basis tables,
//! low-energy preconditioner block factorizations, the assembled coarse
//! vertex solve, interpolation tables — are pure functions of
//! (mesh bytes, P, Dirichlet mask, shift λ, interface endpoints), so
//! rebuilding them per run is pure waste. This crate provides the shared
//! substrate:
//!
//! * [`ArtifactKey`] / [`KeyHasher`] — a canonical 128-bit content hash of
//!   the producing configuration (every `f64` enters through its exact bit
//!   pattern, so the key is as bitwise as the artifacts it names);
//! * [`ArtifactCache`] — a thread-safe map from `(kind, key)` to an
//!   `Arc`-shared immutable entry, with build-once deduplication (two
//!   concurrent builders of the same key produce one entry; the loser
//!   waits on a condvar and receives the winner's `Arc`);
//! * an optional on-disk tier reusing `nkg-ckpt`'s CRC'd `NKGC` container
//!   for cross-process reuse — any read failure (missing file, torn write,
//!   CRC mismatch, schema skew) silently falls back to a cold build;
//! * per-kind hit/miss/disk-hit/bytes/build-time counters
//!   ([`KindStats`]), so `bench_serve` can report exactly what the cache
//!   bought.
//!
//! Entries are **immutable**: once `Ready`, a slot is never replaced or
//! mutated, only `Arc`-cloned out. By default there is no eviction — an
//! ensemble's working set is a handful of factorizations, and the cache
//! lives only as long as its owner (drop the `ArtifactCache` to free
//! everything). A serving fleet multiplexing *many distinct
//! discretizations* over one machine can bound the memory tier with
//! [`ArtifactCache::with_capacity_bytes`]: inserts then evict
//! least-recently-used entries (never the one just inserted, nor one
//! whose `Arc` is held elsewhere), per-kind eviction counters tick, and
//! evicted disk-tier kinds are re-served from disk. Under a capacity
//! bound, *scheduling order* decides the hit rate — which is exactly the
//! lever the ensemble scheduler's cache-affinity admission pulls
//! (DESIGN.md §16).
//!
//! The headline contract mirrors the rest of the workspace: a cache-hit
//! artifact is **bitwise identical** to the cold-built one. That holds
//! trivially for memory hits (same object) and is enforced for disk hits
//! by the bit-exact `f64` codec plus golden-hash tests upstream.
//!
//! Consumers thread the cache through existing constructors via an
//! *ambient* reference ([`with_cache`] / [`cached`]) rather than new
//! parameters: setup code runs on the calling thread in this workspace, so
//! a thread-local stack suffices, and code outside any `with_cache` scope
//! (or under [`CacheMode::Off`]) cold-builds exactly as before — the test
//! baseline is unchanged.

#![forbid(unsafe_code)]

use nkg_ckpt::{tag4, SnapshotFile, SnapshotWriter};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Canonical 128-bit content address of a producing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub [u64; 2]);

impl ArtifactKey {
    /// Lower-case hex rendering, stable across runs — used for disk-tier
    /// file names and golden hashes in benches.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// The key's leading 64-bit lane — the **affinity prefix** the
    /// ensemble scheduler groups jobs by. Jobs whose setup flows from the
    /// same configuration words share this prefix for every artifact kind
    /// they request, so co-scheduling equal-prefix jobs maximizes the
    /// cache-warm window (DESIGN.md §16).
    pub fn prefix64(&self) -> u64 {
        self.0[0]
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_B: u64 = 0xD134_2543_DE82_EF95;

/// splitmix64 finalizer: the workspace-standard bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming hasher producing an [`ArtifactKey`]: two independently mixed
/// 64-bit lanes over a word stream. Every absorbed value is length- and
/// order-sensitive; floats enter through their exact IEEE bit pattern.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
    n: u64,
}

impl KeyHasher {
    /// Start a hash in a named domain (e.g. `"precon"`), so identical
    /// payloads under different kinds can never collide.
    pub fn new(domain: &str) -> Self {
        let mut h = Self {
            a: GOLDEN,
            b: LANE_B,
            n: 0,
        };
        h.str(domain);
        h
    }

    fn word(&mut self, w: u64) {
        self.n = self.n.wrapping_add(1);
        self.a = mix(self.a.wrapping_add(GOLDEN) ^ w);
        self.b = mix(self.b ^ w.wrapping_mul(LANE_B).wrapping_add(self.n));
    }

    /// Absorb one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.word(v);
    }

    /// Absorb one `usize` (widened to `u64`).
    pub fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    /// Absorb one boolean.
    pub fn bool(&mut self, v: bool) {
        self.word(v as u64);
    }

    /// Absorb one `f64` through its exact bit pattern (`-0.0` and `0.0`
    /// hash differently, as do NaN payloads — the key is bitwise).
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Absorb a byte string: length word, then 8-byte little-endian words
    /// (zero-padded tail; unambiguous because the length came first).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut pad = [0u8; 8];
            pad[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(pad));
        }
    }

    /// Absorb a UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Absorb a slice of `usize`s (length-prefixed).
    pub fn usizes(&mut self, vs: &[usize]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(v as u64);
        }
    }

    /// Absorb a slice of `f64`s bitwise (length-prefixed).
    pub fn f64s(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(v.to_bits());
        }
    }

    /// Absorb another key (e.g. a space fingerprint feeding a
    /// preconditioner key).
    pub fn key(&mut self, k: ArtifactKey) {
        self.word(k.0[0]);
        self.word(k.0[1]);
    }

    /// Finalize into a key.
    pub fn finish(self) -> ArtifactKey {
        let a = mix(self.a ^ self.n);
        let b = mix(self.b ^ self.n.rotate_left(32) ^ a);
        ArtifactKey([a, b])
    }
}

/// Where (and whether) artifacts are cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Never store anything; every request cold-builds. Counters still
    /// tick, so the cold baseline is measurable. This is the test
    /// baseline mode.
    Off,
    /// In-process memory tier only: `Arc`-shared entries, build-once
    /// deduplication across threads.
    Process,
    /// Memory tier plus a CRC'd on-disk tier for cross-process reuse.
    Disk,
}

/// A value the cache can hold. Implementors are immutable setup products;
/// `encode`/`decode` opt a kind into the on-disk tier (defaulting to
/// memory-only) and must round-trip *bitwise* — use `nkg_ckpt::{Enc,Dec}`,
/// whose `f64` mapping is the exact bit image.
pub trait Artifact: Send + Sync + 'static {
    /// Approximate resident size, for the `bytes` counter.
    fn approx_bytes(&self) -> usize;

    /// Serialize for the disk tier; `None` keeps the kind memory-only.
    fn encode(&self) -> Option<Vec<u8>> {
        None
    }

    /// Deserialize a disk-tier payload; `None` (schema skew, truncation)
    /// falls back to a cold build.
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = bytes;
        None
    }
}

/// Per-kind cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Memory-tier hits (the `Arc` was already resident).
    pub hits: u64,
    /// Cold builds (including every request under [`CacheMode::Off`]).
    pub misses: u64,
    /// Disk-tier hits (decoded from the container instead of built).
    pub disk_hits: u64,
    /// Resident bytes attributed to this kind (counted once per build or
    /// disk load, not per hit).
    pub bytes: u64,
    /// Nanoseconds spent in cold builds, exclusive of the builds of other
    /// artifacts nested inside them: each nanosecond is counted under one
    /// kind, so the sum over kinds is the time spent building.
    pub build_ns: u64,
    /// Entries of this kind evicted by the LRU capacity bound (see
    /// [`ArtifactCache::with_capacity_bytes`]); 0 on unbounded caches.
    pub evictions: u64,
    /// Resident bytes of this kind's entries whose `Arc` is also held
    /// outside the map (by a caller, or inside another resident entry):
    /// the part of the resident total an eviction could not free. A gauge
    /// taken when the counters are read, not a running count.
    pub pinned_bytes: u64,
}

impl KindStats {
    /// Fraction of requests served without a cold build.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.disk_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / total as f64
        }
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, o: &KindStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.disk_hits += o.disk_hits;
        self.bytes += o.bytes;
        self.build_ns += o.build_ns;
        self.evictions += o.evictions;
        self.pinned_bytes += o.pinned_bytes;
    }
}

enum Slot {
    /// Some thread owns the (unlocked) build; waiters park on the condvar.
    Building,
    /// An immutable resident entry. `tick` is the logical time of its last
    /// touch (insert or hit) — the LRU axis when a capacity bound is set.
    Ready {
        val: Arc<dyn Any + Send + Sync>,
        bytes: u64,
        tick: u64,
    },
}

struct Inner {
    map: HashMap<(&'static str, ArtifactKey), Slot>,
    stats: BTreeMap<&'static str, KindStats>,
    /// Logical clock: bumps on every touch, so LRU order is total.
    tick: u64,
    /// Bytes of `Ready` entries currently resident.
    resident: u64,
}

/// Content-addressed, thread-safe cache of immutable setup artifacts.
pub struct ArtifactCache {
    mode: CacheMode,
    dir: Option<PathBuf>,
    /// `None` = unbounded (the default — an ensemble's working set is
    /// normally a handful of factorizations). `Some(b)` = evict
    /// least-recently-used `Ready` entries once resident bytes exceed `b`.
    capacity: Option<u64>,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("mode", &self.mode)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// Removes the `Building` slot (and wakes waiters) if the builder panics,
/// so a poisoned key does not deadlock every later requester.
struct BuildGuard<'a> {
    cache: &'a ArtifactCache,
    id: Option<(&'static str, ArtifactKey)>,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            let mut g = self.cache.inner.lock().unwrap();
            g.map.remove(&id);
            drop(g);
            self.cache.cv.notify_all();
        }
    }
}

impl ArtifactCache {
    /// A cache with no disk tier. [`CacheMode::Disk`] without a directory
    /// behaves as [`CacheMode::Process`]; use [`ArtifactCache::on_disk`]
    /// for the two-tier cache.
    pub fn new(mode: CacheMode) -> Self {
        Self {
            mode,
            dir: None,
            capacity: None,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                stats: BTreeMap::new(),
                tick: 0,
                resident: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// A two-tier cache persisting encodable kinds under `dir` as
    /// `<kind>-<key hex>.nkga` files in `nkg-ckpt`'s CRC'd container.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        let mut c = Self::new(CacheMode::Disk);
        c.dir = Some(dir.into());
        c
    }

    /// Bound the memory tier to roughly `max_bytes` of resident artifacts
    /// (by each artifact's `approx_bytes`). When an insert pushes the
    /// resident total past the bound, least-recently-used `Ready` entries
    /// are dropped (the newest entry itself is never evicted, so a single
    /// oversized artifact still serves its own job). An entry whose `Arc`
    /// is held anywhere else — by a caller, or inside another resident
    /// artifact — is pinned until that holder lets go, so an eviction
    /// always frees the bytes it counts and a key never has two live
    /// values; the bound can therefore be exceeded while holders keep more
    /// than it alive. Entries with a disk tier are re-served from disk
    /// after eviction. This is the capacity pressure that makes scheduling
    /// order matter: see the cache-affinity admission policy in
    /// `nkg-coupling::ensemble`.
    pub fn with_capacity_bytes(mut self, max_bytes: u64) -> Self {
        self.capacity = Some(max_bytes);
        self
    }

    /// The configured mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Bytes of `Ready` entries currently resident in the memory tier.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().unwrap().resident
    }

    /// Disk-tier path for one entry.
    fn disk_path(&self, kind: &str, key: ArtifactKey) -> Option<PathBuf> {
        if self.mode != CacheMode::Disk {
            return None;
        }
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{kind}-{}.nkga", key.hex())))
    }

    /// Fetch the artifact for `(kind, key)`, building it with `build` on a
    /// miss. Exactly one builder runs per key even under concurrent
    /// requests; everyone receives the same `Arc`. Under
    /// [`CacheMode::Off`] the build always runs and nothing is stored —
    /// counters still tick so the cold baseline is measurable.
    ///
    /// Panics if `kind` was previously used with a different concrete
    /// type: a kind names one artifact type, forever.
    pub fn get_or_build<T: Artifact>(
        &self,
        kind: &'static str,
        key: ArtifactKey,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        if self.mode == CacheMode::Off {
            let (v, dt) = timed(build);
            let nbytes = v.approx_bytes() as u64;
            let mut g = self.inner.lock().unwrap();
            let s = g.stats.entry(kind).or_default();
            s.misses += 1;
            s.bytes += nbytes;
            s.build_ns += dt;
            return Arc::new(v);
        }

        let id = (kind, key);
        let mut g = self.inner.lock().unwrap();
        loop {
            g.tick += 1;
            let now = g.tick;
            match g.map.get_mut(&id) {
                Some(Slot::Ready { val, tick, .. }) => {
                    *tick = now;
                    let a = val.clone();
                    g.stats.entry(kind).or_default().hits += 1;
                    drop(g);
                    return a
                        .downcast::<T>()
                        .unwrap_or_else(|_| panic!("artifact kind {kind:?} used with two types"));
                }
                Some(Slot::Building) => {
                    g = self.cv.wait(g).unwrap();
                }
                None => {
                    g.map.insert(id, Slot::Building);
                    break;
                }
            }
        }
        drop(g);

        // Sole builder for this key from here on; the guard cleans up the
        // Building slot if the build panics.
        let mut guard = BuildGuard {
            cache: self,
            id: Some(id),
        };

        let (value, from_disk, build_ns) = match self.try_disk::<T>(kind, key) {
            Some(v) => (v, true, 0u64),
            None => {
                let (v, dt) = timed(build);
                (v, false, dt)
            }
        };
        let nbytes = value.approx_bytes() as u64;
        if !from_disk {
            self.write_disk(kind, key, &value);
        }

        let arc = Arc::new(value);
        let any: Arc<dyn Any + Send + Sync> = arc.clone();
        let mut g = self.inner.lock().unwrap();
        let s = g.stats.entry(kind).or_default();
        if from_disk {
            s.disk_hits += 1;
        } else {
            s.misses += 1;
            s.build_ns += build_ns;
        }
        s.bytes += nbytes;
        g.tick += 1;
        let now = g.tick;
        g.map.insert(
            id,
            Slot::Ready {
                val: any,
                bytes: nbytes,
                tick: now,
            },
        );
        g.resident += nbytes;
        self.evict_to_capacity(&mut g, now);
        guard.id = None;
        drop(g);
        self.cv.notify_all();
        arc
    }

    /// Drop least-recently-used `Ready` entries until the resident total
    /// fits the capacity bound. The entry touched at `keep_tick` (the one
    /// just inserted or hit) is never evicted, and `Building` slots are
    /// untouched — their builder still owns them. An entry whose `Arc` is
    /// also held outside the map is pinned: dropping it would free nothing,
    /// and the next request for its key would build a second live copy.
    fn evict_to_capacity(&self, g: &mut Inner, keep_tick: u64) {
        let Some(cap) = self.capacity else {
            return;
        };
        while g.resident > cap {
            let victim = g
                .map
                .iter()
                .filter_map(|(id, slot)| match slot {
                    Slot::Ready { val, tick, bytes }
                        if *tick != keep_tick && Arc::strong_count(val) == 1 =>
                    {
                        Some((*tick, *id, *bytes))
                    }
                    _ => None,
                })
                .min_by_key(|&(tick, ..)| tick);
            let Some((_, id, bytes)) = victim else {
                return; // only protected and pinned entries (and builders) remain
            };
            g.map.remove(&id);
            g.resident -= bytes;
            g.stats.entry(id.0).or_default().evictions += 1;
        }
    }

    /// Try the disk tier. Any failure — absent file, bad magic, CRC
    /// mismatch, key collision, decode skew — yields `None` and the entry
    /// is rebuilt cold.
    fn try_disk<T: Artifact>(&self, kind: &str, key: ArtifactKey) -> Option<T> {
        let path = self.disk_path(kind, key)?;
        let file = SnapshotFile::read_from(&path).ok()?;
        if file.payload(tag4(b"AKND")).ok()? != kind.as_bytes() {
            return None;
        }
        let mut kb = Vec::with_capacity(16);
        kb.extend_from_slice(&key.0[0].to_le_bytes());
        kb.extend_from_slice(&key.0[1].to_le_bytes());
        if file.payload(tag4(b"AKEY")).ok()? != kb.as_slice() {
            return None;
        }
        T::decode(file.payload(tag4(b"ABDY")).ok()?)
    }

    /// Best-effort disk-tier write: memory-only kinds and I/O failures are
    /// silently skipped (the cache still serves from memory).
    fn write_disk<T: Artifact>(&self, kind: &str, key: ArtifactKey, value: &T) {
        let Some(path) = self.disk_path(kind, key) else {
            return;
        };
        let Some(body) = value.encode() else {
            return;
        };
        if let Some(parent) = path.parent() {
            if std::fs::create_dir_all(parent).is_err() {
                return;
            }
        }
        let mut w = SnapshotWriter::new();
        w.add(tag4(b"AKND"), kind.as_bytes());
        let mut kb = Vec::with_capacity(16);
        kb.extend_from_slice(&key.0[0].to_le_bytes());
        kb.extend_from_slice(&key.0[1].to_le_bytes());
        w.add(tag4(b"AKEY"), &kb);
        w.add(tag4(b"ABDY"), &body);
        let _ = w.write_atomic(&path);
    }

    /// Per-kind counters, sorted by kind name, with
    /// [`KindStats::pinned_bytes`] taken now.
    pub fn stats(&self) -> Vec<(&'static str, KindStats)> {
        let g = self.inner.lock().unwrap();
        let mut stats = g.stats.clone();
        for ((kind, _), slot) in &g.map {
            if let Slot::Ready { val, bytes, .. } = slot {
                if Arc::strong_count(val) > 1 {
                    stats.entry(*kind).or_default().pinned_bytes += bytes;
                }
            }
        }
        stats.into_iter().collect()
    }

    /// Counters summed over all kinds.
    pub fn totals(&self) -> KindStats {
        let mut t = KindStats::default();
        for (_, s) in self.stats() {
            t.merge(&s);
        }
        t
    }

    /// Number of resident entries (memory tier).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<Arc<ArtifactCache>>> = const { RefCell::new(Vec::new()) };
    /// Nanoseconds of cold builds nested in the build running on this
    /// thread, which [`timed`] takes off that build's own count.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Run a cold build and return it with its exclusive nanoseconds: the
/// time of the builds it nests (a `"precon"` build fetching its
/// `"eclass"` children) is subtracted here and counted under their kinds,
/// and this build's whole time is charged to the build it is nested in.
fn timed<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let outer = NESTED_NS.with(|n| n.replace(0));
    let t0 = Instant::now();
    let v = build();
    let total = t0.elapsed().as_nanos() as u64;
    let nested = NESTED_NS.with(|n| n.replace(outer + total));
    (v, total.saturating_sub(nested))
}

/// Run `f` with `cache` installed as this thread's ambient artifact cache.
/// Nests (innermost wins) and unwinds correctly on panic. Setup code in
/// this workspace constructs on the calling thread, so the thread-local
/// scope covers every `cached` call `f` makes directly.
pub fn with_cache<R>(cache: &Arc<ArtifactCache>, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            AMBIENT.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|s| s.borrow_mut().push(cache.clone()));
    let _pop = Pop;
    f()
}

/// The innermost ambient cache installed by [`with_cache`], if any.
pub fn ambient() -> Option<Arc<ArtifactCache>> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// Fetch-or-build through the ambient cache; with no ambient cache
/// installed this is exactly a cold build (zero overhead, zero storage) —
/// the drop-in form setup paths call.
pub fn cached<T: Artifact>(
    kind: &'static str,
    key: ArtifactKey,
    build: impl FnOnce() -> T,
) -> Arc<T> {
    match ambient() {
        Some(c) => c.get_or_build(kind, key, build),
        None => Arc::new(build()),
    }
}

/// Test artifact used below and by downstream crates' tests.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
struct Table {
    xs: Vec<f64>,
}

#[cfg(test)]
impl Artifact for Table {
    fn approx_bytes(&self) -> usize {
        self.xs.len() * 8
    }
    fn encode(&self) -> Option<Vec<u8>> {
        let mut e = nkg_ckpt::Enc::new();
        e.put_slice(&self.xs);
        Some(e.into_bytes())
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = nkg_ckpt::Dec::new(bytes);
        let xs = d.take_vec::<f64>().ok()?;
        d.finish().ok()?;
        Some(Table { xs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn key_of(n: u64) -> ArtifactKey {
        let mut h = KeyHasher::new("test");
        h.u64(n);
        h.finish()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nkg-artifact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn key_hasher_is_deterministic_and_order_sensitive() {
        let mut a = KeyHasher::new("d");
        a.u64(1);
        a.u64(2);
        let mut b = KeyHasher::new("d");
        b.u64(1);
        b.u64(2);
        assert_eq!(a.clone().finish(), b.finish());
        let mut c = KeyHasher::new("d");
        c.u64(2);
        c.u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn key_hasher_separates_domains_and_f64_bits() {
        let mut a = KeyHasher::new("gll");
        a.u64(7);
        let mut b = KeyHasher::new("precon");
        b.u64(7);
        assert_ne!(a.finish(), b.finish());
        // -0.0 and 0.0 are distinct configurations.
        let mut p = KeyHasher::new("d");
        p.f64(0.0);
        let mut q = KeyHasher::new("d");
        q.f64(-0.0);
        assert_ne!(p.finish(), q.finish());
    }

    #[test]
    fn bytes_padding_is_unambiguous() {
        let mut a = KeyHasher::new("d");
        a.bytes(b"abc");
        let mut b = KeyHasher::new("d");
        b.bytes(b"abc\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn process_mode_hits_share_one_arc() {
        let c = ArtifactCache::new(CacheMode::Process);
        let builds = AtomicUsize::new(0);
        let a = c.get_or_build("tab", key_of(1), || {
            builds.fetch_add(1, Ordering::SeqCst);
            Table { xs: vec![1.0, 2.0] }
        });
        let b = c.get_or_build("tab", key_of(1), || {
            builds.fetch_add(1, Ordering::SeqCst);
            Table { xs: vec![9.0] }
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let s = c.totals();
        assert_eq!((s.hits, s.misses, s.bytes), (1, 1, 16));
        assert!(s.build_ns > 0);
        // A different key builds fresh.
        let d = c.get_or_build("tab", key_of(2), || Table { xs: vec![3.0] });
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn off_mode_always_cold_builds_but_counts() {
        let c = ArtifactCache::new(CacheMode::Off);
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let t = c.get_or_build("tab", key_of(1), || {
                builds.fetch_add(1, Ordering::SeqCst);
                Table { xs: vec![1.0] }
            });
            assert_eq!(t.xs, vec![1.0]);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 3);
        let s = c.totals();
        assert_eq!((s.hits, s.misses), (0, 3));
        assert!(c.is_empty());
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_builders_of_same_key_produce_one_entry() {
        let c = Arc::new(ArtifactCache::new(CacheMode::Process));
        let builds = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (c, builds, barrier) = (c.clone(), builds.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    c.get_or_build("tab", key_of(42), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really park.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Table {
                            xs: vec![1.0, 2.0, 3.0],
                        }
                    })
                })
            })
            .collect();
        let arcs: Vec<Arc<Table>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "duplicate factorization");
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
        let s = c.totals();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn panicked_build_releases_the_slot() {
        let c = ArtifactCache::new(CacheMode::Process);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_build("tab", key_of(5), || -> Table { panic!("boom") })
        }));
        assert!(r.is_err());
        // The key is buildable again, not deadlocked.
        let t = c.get_or_build("tab", key_of(5), || Table { xs: vec![4.0] });
        assert_eq!(t.xs, vec![4.0]);
    }

    #[test]
    fn disk_tier_round_trips_bitwise_across_cache_instances() {
        let dir = tmp_dir("disk");
        let xs = vec![0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, -1e300];
        let c1 = ArtifactCache::on_disk(&dir);
        let a = c1.get_or_build("tab", key_of(9), || Table { xs: xs.clone() });
        assert_eq!(c1.totals().misses, 1);

        // A fresh cache (fresh process, conceptually) loads from disk.
        let c2 = ArtifactCache::on_disk(&dir);
        let b: Arc<Table> = c2.get_or_build("tab", key_of(9), || panic!("must not rebuild"));
        let s = c2.totals();
        assert_eq!((s.disk_hits, s.misses), (1, 0));
        assert!(s.hit_rate() > 0.0);
        for (x, y) in a.xs.iter().zip(&b.xs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // Corrupt the file: the cache silently rebuilds.
        let path = dir.join(format!("tab-{}.nkga", key_of(9).hex()));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let c3 = ArtifactCache::on_disk(&dir);
        let r = c3.get_or_build("tab", key_of(9), || Table { xs: vec![7.0] });
        assert_eq!(r.xs, vec![7.0]);
        assert_eq!(c3.totals().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_bound_evicts_lru_but_never_the_newest() {
        // Each Table below is 16 bytes; capacity fits two entries.
        let c = ArtifactCache::new(CacheMode::Process).with_capacity_bytes(32);
        let mk = |v: f64| Table { xs: vec![v, v] };
        c.get_or_build("tab", key_of(1), || mk(1.0));
        c.get_or_build("tab", key_of(2), || mk(2.0));
        assert_eq!(c.resident_bytes(), 32);
        // Touch key 1 so key 2 becomes the LRU victim.
        c.get_or_build("tab", key_of(1), || -> Table { panic!("must hit") });
        c.get_or_build("tab", key_of(3), || mk(3.0));
        assert_eq!(c.resident_bytes(), 32);
        assert_eq!(c.totals().evictions, 1);
        // Key 1 survived (hit), key 2 was evicted (rebuilds).
        c.get_or_build("tab", key_of(1), || -> Table {
            panic!("lru-protected entry lost")
        });
        let rebuilt = std::sync::atomic::AtomicUsize::new(0);
        c.get_or_build("tab", key_of(2), || {
            rebuilt.fetch_add(1, Ordering::SeqCst);
            mk(2.0)
        });
        assert_eq!(rebuilt.load(Ordering::SeqCst), 1);
        // An artifact bigger than the whole bound still serves its build
        // (the newest entry is never evicted by its own insert).
        let big = c.get_or_build("tab", key_of(9), || Table { xs: vec![0.0; 32] });
        assert_eq!(big.xs.len(), 32);
        assert!(c.totals().evictions >= 2, "{:?}", c.totals());
    }

    /// `pinned_bytes` counts the resident entries held outside the map,
    /// per kind, at the moment the counters are read.
    #[test]
    fn pinned_bytes_counts_entries_held_outside_the_map() {
        let c = ArtifactCache::new(CacheMode::Process);
        let held = c.get_or_build("tab", key_of(1), || Table { xs: vec![1.0, 2.0] });
        c.get_or_build("tab", key_of(2), || Table { xs: vec![3.0; 4] });
        c.get_or_build("other", key_of(3), || Table { xs: vec![5.0] });
        let stats = c.stats();
        let of = |kind| stats.iter().find(|(k, _)| *k == kind).unwrap().1;
        assert_eq!(of("tab").pinned_bytes, 16);
        assert_eq!(of("other").pinned_bytes, 0);
        assert_eq!(c.totals().pinned_bytes, 16);
        assert_eq!(c.resident_bytes(), 16 + 32 + 8);
        drop(held);
        assert_eq!(c.totals().pinned_bytes, 0);
    }

    #[test]
    fn evicted_disk_tier_entry_is_reserved_from_disk() {
        let dir = tmp_dir("evict-disk");
        let c = ArtifactCache::on_disk(&dir).with_capacity_bytes(16);
        c.get_or_build("tab", key_of(1), || Table { xs: vec![1.0, 2.0] });
        // Second insert evicts the first from memory; its .nkga remains.
        c.get_or_build("tab", key_of(2), || Table { xs: vec![3.0, 4.0] });
        let back = c.get_or_build("tab", key_of(1), || -> Table {
            panic!("disk tier must serve")
        });
        assert_eq!(back.xs, vec![1.0, 2.0]);
        let t = c.totals();
        assert!(t.disk_hits >= 1, "{t:?}");
        assert!(t.evictions >= 1, "{t:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let c = ArtifactCache::new(CacheMode::Process);
        for i in 0..64 {
            c.get_or_build("tab", key_of(i), || Table { xs: vec![0.0; 64] });
        }
        assert_eq!(c.totals().evictions, 0);
        assert_eq!(c.len(), 64);
        assert_eq!(c.resident_bytes(), 64 * 64 * 8);
    }

    #[test]
    fn prefix64_is_the_leading_lane() {
        let k = key_of(7);
        assert_eq!(k.prefix64(), k.0[0]);
    }

    /// A build nested in another build is timed under its own kind only:
    /// the two counts add up to no more than the outer call took.
    #[test]
    fn nested_build_time_is_counted_once() {
        for mode in [CacheMode::Off, CacheMode::Process] {
            let c = Arc::new(ArtifactCache::new(mode));
            let t0 = Instant::now();
            with_cache(&c, || {
                cached("outer", key_of(1), || {
                    let inner = cached("inner", key_of(2), || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Table { xs: vec![1.0] }
                    });
                    Table {
                        xs: inner.xs.clone(),
                    }
                })
            });
            let wall = t0.elapsed().as_nanos() as u64;
            let ns = |kind| c.stats().iter().find(|s| s.0 == kind).unwrap().1.build_ns;
            let (outer, inner) = (ns("outer"), ns("inner"));
            assert!(inner >= 30_000_000, "{mode:?}: inner {inner} ns");
            assert!(
                outer + inner <= wall,
                "{mode:?}: {outer} + {inner} > {wall} ns"
            );
            assert_eq!(c.totals().build_ns, outer + inner);
        }
    }

    #[test]
    fn ambient_scopes_nest_and_unwind() {
        assert!(ambient().is_none());
        let outer = Arc::new(ArtifactCache::new(CacheMode::Process));
        let inner = Arc::new(ArtifactCache::new(CacheMode::Process));
        with_cache(&outer, || {
            let t = cached("tab", key_of(1), || Table { xs: vec![1.0] });
            assert_eq!(t.xs, vec![1.0]);
            with_cache(&inner, || {
                cached("tab", key_of(1), || Table { xs: vec![2.0] });
            });
            // Inner scope popped; outer still serves its own entry.
            let t2 = cached("tab", key_of(1), || panic!("outer should hit"));
            assert!(Arc::ptr_eq(&t, &t2));
        });
        assert!(ambient().is_none());
        assert_eq!(outer.totals().misses, 1);
        assert_eq!(inner.totals().misses, 1);
        // Without an ambient cache, `cached` is a plain cold build.
        let t = cached("tab", key_of(3), || Table { xs: vec![5.0] });
        assert_eq!(t.xs, vec![5.0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Disk-tier codec round-trips arbitrary f64 bit patterns.
            #[test]
            fn codec_round_trip_is_bitwise(bits in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
                let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
                let t = Table { xs };
                let back = Table::decode(&t.encode().unwrap()).unwrap();
                prop_assert_eq!(t.xs.len(), back.xs.len());
                for (a, b) in t.xs.iter().zip(&back.xs) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }

            /// Under a capacity bound, any sequence of requests, holds and
            /// drops leaves at most one live value per key: a held entry is
            /// never evicted, so a later request for its key hits instead of
            /// building a second copy. Every build is watched through a
            /// `Weak`.
            #[test]
            fn a_key_never_has_two_live_values(
                ops in proptest::collection::vec(0u64..24, 1..80),
                cap_entries in 1u64..4,
            ) {
                // Every Table below is 16 bytes.
                let c = ArtifactCache::new(CacheMode::Process)
                    .with_capacity_bytes(16 * cap_entries);
                let mut held: Vec<Arc<Table>> = Vec::new();
                let mut built: Vec<Vec<std::sync::Weak<Table>>> = vec![Vec::new(); 6];
                for op in ops {
                    let (k, action) = (op % 6, op / 6);
                    if action == 0 && !held.is_empty() {
                        held.remove(0); // drop the oldest hold
                    } else {
                        let mut ran = false;
                        let v = c.get_or_build("tab", key_of(k), || {
                            ran = true;
                            Table { xs: vec![k as f64, 0.0] }
                        });
                        if ran {
                            built[k as usize].push(Arc::downgrade(&v));
                        }
                        if action >= 2 {
                            held.push(v); // hold; otherwise drop at once
                        }
                    }
                    for (key, ws) in built.iter().enumerate() {
                        let live = ws.iter().filter(|w| w.strong_count() > 0).count();
                        prop_assert!(live <= 1, "key {} has {} live values", key, live);
                    }
                }
            }

            /// The streaming hasher never collides identical-prefix streams
            /// that differ in one absorbed word (smoke-level, not crypto).
            #[test]
            fn near_miss_streams_get_distinct_keys(
                ws in proptest::collection::vec(0u64..u64::MAX, 1..16),
                flip in 1u64..u64::MAX,
            ) {
                let mut a = KeyHasher::new("p");
                let mut b = KeyHasher::new("p");
                for (i, &w) in ws.iter().enumerate() {
                    a.u64(w);
                    b.u64(if i == ws.len() - 1 { w ^ flip } else { w });
                }
                prop_assert_ne!(a.finish(), b.finish());
            }
        }
    }
}

//! The durable/volatile two-level store.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use deceit_sim::SimDuration;

/// Sizes a value for disk-latency purposes.
pub trait StoredSize {
    /// Approximate on-disk footprint in bytes.
    fn stored_size(&self) -> usize;
}

impl StoredSize for Vec<u8> {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

impl StoredSize for bytes::Bytes {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

impl StoredSize for String {
    fn stored_size(&self) -> usize {
        self.len()
    }
}

/// Disk timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Fixed cost per synchronous write (seek + rotation).
    pub seek: SimDuration,
    /// Additional cost per kilobyte written.
    pub per_kb: SimDuration,
}

impl DiskConfig {
    /// A late-1980s workstation disk: ~20 ms seek, ~1 ms per KB.
    pub fn workstation() -> Self {
        DiskConfig { seek: SimDuration::from_millis(20), per_kb: SimDuration::from_millis(1) }
    }

    /// A fast dedicated file-server disk.
    pub fn server() -> Self {
        DiskConfig { seek: SimDuration::from_millis(12), per_kb: SimDuration::from_micros(500) }
    }

    /// Cost of one synchronous write of `bytes`.
    pub fn write_cost(&self, bytes: usize) -> SimDuration {
        self.seek + SimDuration::from_micros(self.per_kb.as_micros() * bytes as u64 / 1024)
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::workstation()
    }
}

/// A keyed store with explicit durable/volatile separation.
///
/// Reads always observe the newest write (volatile view). Durability is a
/// separate dimension: [`Disk::put_sync`] is durable on return,
/// [`Disk::put_async`] becomes durable only when flushed. A [`Disk::crash`]
/// reverts the store to its durable contents, losing unflushed writes and
/// resurrecting unflushed deletions — exactly the exposure a write safety
/// level of 0 accepts (§4).
#[derive(Debug, Clone)]
pub struct Disk<K: Ord + Clone, V: Clone + StoredSize> {
    cfg: DiskConfig,
    durable: BTreeMap<K, V>,
    volatile: BTreeMap<K, V>,
    dirty: BTreeSet<K>,
    /// Total synchronous writes performed.
    pub sync_writes: u64,
    /// Total asynchronous writes performed.
    pub async_writes: u64,
    /// Writes lost to crashes (unflushed at crash time).
    pub lost_writes: u64,
}

impl<K: Ord + Clone, V: Clone + StoredSize> Disk<K, V> {
    /// An empty disk with the given timing profile.
    pub fn new(cfg: DiskConfig) -> Self {
        Disk {
            cfg,
            durable: BTreeMap::new(),
            volatile: BTreeMap::new(),
            dirty: BTreeSet::new(),
            sync_writes: 0,
            async_writes: 0,
            lost_writes: 0,
        }
    }

    /// Reads the newest value for `k` (volatile view).
    pub fn get(&self, k: &K) -> Option<&V> {
        self.volatile.get(k)
    }

    /// Whether `k` currently exists (volatile view).
    pub fn contains(&self, k: &K) -> bool {
        self.volatile.contains_key(k)
    }

    /// All current keys (volatile view).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.volatile.keys()
    }

    /// Keys in `[lo, hi]`, in order (volatile view) — lets composite-key
    /// callers enumerate one prefix group in `O(log n + matches)`
    /// instead of scanning every key.
    pub fn keys_in_range(&self, lo: &K, hi: &K) -> impl Iterator<Item = &K> {
        self.volatile.range(lo.clone()..=hi.clone()).map(|(k, _)| k)
    }

    /// Number of live entries (volatile view).
    pub fn len(&self) -> usize {
        self.volatile.len()
    }

    /// Whether the store is empty (volatile view).
    pub fn is_empty(&self) -> bool {
        self.volatile.is_empty()
    }

    /// Write-through: durable when this returns. Returns the disk time
    /// consumed.
    pub fn put_sync(&mut self, k: K, v: V) -> SimDuration {
        let cost = self.cfg.write_cost(v.stored_size());
        self.durable.insert(k.clone(), v.clone());
        self.volatile.insert(k.clone(), v);
        self.dirty.remove(&k);
        self.sync_writes += 1;
        cost
    }

    /// Write-behind: visible immediately, durable only after a flush.
    pub fn put_async(&mut self, k: K, v: V) {
        self.volatile.insert(k.clone(), v);
        self.dirty.insert(k);
        self.async_writes += 1;
    }

    /// Durable removal. Returns the disk time consumed.
    pub fn delete_sync(&mut self, k: &K) -> SimDuration {
        self.durable.remove(k);
        self.volatile.remove(k);
        self.dirty.remove(k);
        self.sync_writes += 1;
        self.cfg.write_cost(0)
    }

    /// Removal visible immediately, durable only after a flush.
    pub fn delete_async(&mut self, k: &K) {
        self.volatile.remove(k);
        self.dirty.insert(k.clone());
        self.async_writes += 1;
    }

    /// Makes one key durable (applying a pending write or deletion).
    /// Returns the disk time consumed, or zero if the key was clean.
    pub fn flush_key(&mut self, k: &K) -> SimDuration {
        if !self.dirty.remove(k) {
            return SimDuration::ZERO;
        }
        match self.volatile.get(k) {
            Some(v) => {
                let cost = self.cfg.write_cost(v.stored_size());
                self.durable.insert(k.clone(), v.clone());
                cost
            }
            None => {
                self.durable.remove(k);
                self.cfg.write_cost(0)
            }
        }
    }

    /// Makes every pending write durable. Returns total disk time.
    pub fn flush_all(&mut self) -> SimDuration {
        let keys: Vec<K> = self.dirty.iter().cloned().collect();
        let mut total = SimDuration::ZERO;
        for k in keys {
            total += self.flush_key(&k);
        }
        total
    }

    /// Keys with unflushed writes or deletions.
    pub fn dirty_keys(&self) -> impl Iterator<Item = &K> {
        self.dirty.iter()
    }

    /// Whether any write is pending.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Simulates a machine crash: the volatile view reverts to durable
    /// state; unflushed writes are lost.
    pub fn crash(&mut self) {
        self.lost_writes += self.dirty.len() as u64;
        self.volatile = self.durable.clone();
        self.dirty.clear();
    }

    /// Total durable bytes (for capacity accounting).
    pub fn durable_bytes(&self) -> usize {
        self.durable.values().map(StoredSize::stored_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk<u32, Vec<u8>> {
        Disk::new(DiskConfig::workstation())
    }

    #[test]
    fn sync_write_survives_crash() {
        let mut d = disk();
        let cost = d.put_sync(1, vec![0u8; 2048]);
        assert!(cost >= SimDuration::from_millis(20), "cost {cost}");
        d.crash();
        assert_eq!(d.get(&1).map(Vec::len), Some(2048));
        assert_eq!(d.lost_writes, 0);
    }

    #[test]
    fn async_write_lost_on_crash_unless_flushed() {
        let mut d = disk();
        d.put_async(1, vec![1]);
        assert!(d.contains(&1), "visible immediately");
        assert!(d.has_dirty());
        d.crash();
        assert!(!d.contains(&1), "lost");
        assert_eq!(d.lost_writes, 1);

        d.put_async(2, vec![2]);
        let cost = d.flush_key(&2);
        assert!(cost > SimDuration::ZERO);
        d.crash();
        assert!(d.contains(&2), "flushed write survives");
    }

    #[test]
    fn async_overwrite_reverts_to_old_value() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.put_async(1, vec![2]);
        assert_eq!(d.get(&1), Some(&vec![2]));
        d.crash();
        assert_eq!(d.get(&1), Some(&vec![1]), "reverts to durable value");
    }

    #[test]
    fn async_delete_resurrects_on_crash() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.delete_async(&1);
        assert!(!d.contains(&1));
        d.crash();
        assert!(d.contains(&1), "unflushed deletion undone by crash");
    }

    #[test]
    fn sync_delete_is_durable() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.delete_sync(&1);
        d.crash();
        assert!(!d.contains(&1));
    }

    #[test]
    fn flush_all_cleans_everything() {
        let mut d = disk();
        for i in 0..10 {
            d.put_async(i, vec![i as u8]);
        }
        assert_eq!(d.dirty_keys().count(), 10);
        let cost = d.flush_all();
        assert!(cost >= SimDuration::from_millis(200), "10 seeks, cost {cost}");
        assert!(!d.has_dirty());
        d.crash();
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn flush_clean_key_is_free() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        assert_eq!(d.flush_key(&1), SimDuration::ZERO);
    }

    #[test]
    fn write_cost_scales_with_size() {
        let cfg = DiskConfig::workstation();
        // 1 MiB ≈ 1044 ms vs 1 KiB ≈ 21 ms: dominated by per-byte cost.
        assert!(cfg.write_cost(1 << 20) > cfg.write_cost(1024) * 40);
    }

    #[test]
    fn durable_bytes_counts_only_flushed() {
        let mut d = disk();
        d.put_sync(1, vec![0; 100]);
        d.put_async(2, vec![0; 900]);
        assert_eq!(d.durable_bytes(), 100);
        d.flush_all();
        assert_eq!(d.durable_bytes(), 1000);
    }

    #[test]
    fn counters_track_operations() {
        let mut d = disk();
        d.put_sync(1, vec![1]);
        d.put_async(2, vec![2]);
        d.delete_async(&1);
        assert_eq!(d.sync_writes, 1);
        assert_eq!(d.async_writes, 2);
    }

    #[test]
    fn crash_reverts_to_the_exact_sync_value() {
        use crate::SegmentData;
        let mut d: Disk<u32, SegmentData> = Disk::new(DiskConfig::workstation());
        let v1 = SegmentData::from_bytes(b"version one");
        d.put_sync(1, v1.clone());
        let mut v2 = d.get(&1).cloned().unwrap();
        v2.write(0, b"VERSION TWO, longer");
        d.put_async(1, v2);
        assert_eq!(&d.get(&1).unwrap().contents()[..], b"VERSION TWO, longer");
        d.crash();
        assert_eq!(d.get(&1), Some(&v1), "reverts to exactly v1");
        assert_eq!(d.durable_bytes(), v1.len());
    }

    #[test]
    fn sync_put_shares_one_buffer_between_durable_and_volatile() {
        use crate::SegmentData;
        let mut d: Disk<u32, SegmentData> = Disk::new(DiskConfig::workstation());
        d.put_sync(1, SegmentData::from_bytes(&[7u8; 4096]));
        let volatile = d.get(&1).unwrap().contents();
        let durable = d.durable[&1].contents();
        assert_eq!(volatile.as_ptr(), durable.as_ptr(), "one allocation, two entries");

        d.put_async(2, SegmentData::from_bytes(&[8u8; 4096]));
        d.flush_key(&2);
        let volatile = d.get(&2).unwrap().contents();
        assert_eq!(volatile.as_ptr(), d.durable[&2].contents().as_ptr(), "flush shares too");
    }
}

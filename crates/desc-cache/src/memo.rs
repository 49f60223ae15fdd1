//! A bounded, single-flight, in-memory memo: the one primitive behind
//! the cell store's hot tier ([`crate::CacheStore`]) and `desc-sim`'s
//! outcome-stream memo.
//!
//! - **Bounded**: ready values are held under a byte budget with
//!   least-recently-used eviction. Recency is a monotonic stamp per
//!   value plus a `stamp -> key` index, so a touch or an eviction is
//!   `O(log n)`. The value just published is never evicted, so a
//!   claimant always finds it until the next publish, whatever the
//!   budget.
//! - **Single flight**: [`Memo::claim`] resolves a demand into a ready
//!   value, a value shared from another caller's flight, or a
//!   [`Lease`] to lead the compute. Concurrent demanders of one key
//!   compute it once: followers wait for the leader's publish, calling
//!   their `poll` before every bounded wait tick so they can unwind
//!   (a cancellation check) without disturbing the leader. A lease
//!   dropped unpublished (a panic or a cancellation) abandons the key
//!   and the first waiter to wake leads instead.
//!
//! One lock guards the map. Nothing panics while it is held and every
//! update leaves the map whole, so a poisoned lock still guards valid
//! state.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a follower waits for the leader between calls to its
/// `poll`. Bounded so a follower with a deadline never oversleeps it
/// by much; a publish wakes followers at once.
const WAIT_TICK: Duration = Duration::from_millis(10);

/// A bounded, single-flight map from `K` to shared `V` (see the module
/// docs).
#[derive(Debug)]
pub struct Memo<K, V> {
    budget: u64,
    state: Mutex<State<K, V>>,
    /// Signalled when a flight settles (published or abandoned).
    settled: Condvar,
}

#[derive(Debug)]
struct State<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Ready keys by last-use stamp, oldest first.
    order: BTreeMap<u64, K>,
    /// Budgeted bytes of the ready values.
    bytes: u64,
    clock: u64,
}

#[derive(Debug)]
enum Slot<V> {
    /// The leader holding the lease stamped `flight` is computing.
    Pending {
        flight: u64,
    },
    Ready {
        value: Arc<V>,
        stamp: u64,
        bytes: u64,
    },
}

/// What [`Memo::claim`] resolved a demand into.
#[derive(Debug)]
pub enum Claim<'m, K: Copy + Eq + Hash, V> {
    /// The value was ready.
    Ready(Arc<V>),
    /// The caller waited on another caller's flight; this is the value
    /// it published.
    Shared(Arc<V>),
    /// The caller leads: compute the value and
    /// [`publish`](Lease::publish) it.
    Lead(Lease<'m, K, V>),
}

/// Leadership of one key's compute. Dropping it unpublished abandons
/// the key, so a waiting follower leads instead of waiting forever.
#[derive(Debug)]
pub struct Lease<'m, K: Copy + Eq + Hash, V> {
    memo: &'m Memo<K, V>,
    key: K,
    flight: u64,
}

impl<K, V> State<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

impl<K: Copy + Eq + Hash, V> State<K, V> {
    /// The ready value under `key`, marked most recently used.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let now = self.tick();
        let Some(Slot::Ready { value, stamp, .. }) = self.slots.get_mut(key) else { return None };
        self.order.remove(stamp);
        *stamp = now;
        self.order.insert(now, *key);
        Some(Arc::clone(value))
    }

    /// Takes `key`'s ready value out of the budget and the order.
    fn forget(&mut self, key: &K) {
        if let Some(Slot::Ready { stamp, bytes, .. }) = self.slots.get(key) {
            self.order.remove(stamp);
            self.bytes -= bytes;
            self.slots.remove(key);
        }
    }
}

impl<K: Copy + Eq + Hash, V> Memo<K, V> {
    /// An empty memo holding at most `budget` bytes of ready values
    /// (plus, always, the newest one). Allocates nothing until used.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            state: Mutex::new(State {
                slots: HashMap::new(),
                order: BTreeMap::new(),
                bytes: 0,
                clock: 0,
            }),
            settled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The ready value under `key`, marked most recently used; `None`
    /// when absent or still being computed. Never waits.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.lock().touch(key)
    }

    /// Resolves a demand for `key`: its ready value, the value another
    /// caller's flight publishes while this one waits, or a lease to
    /// compute it.
    ///
    /// While waiting, `poll` runs before every wait tick with no lock
    /// held; it may unwind to abandon the wait, leaving the flight to
    /// its leader. A caller that claims without waiting never calls
    /// `poll`.
    pub fn claim(&self, key: K, poll: &mut dyn FnMut()) -> Claim<'_, K, V> {
        let mut state = self.lock();
        let mut waited = false;
        loop {
            if let Some(value) = state.touch(&key) {
                return if waited { Claim::Shared(value) } else { Claim::Ready(value) };
            }
            if !state.slots.contains_key(&key) {
                let flight = state.tick();
                state.slots.insert(key, Slot::Pending { flight });
                return Claim::Lead(Lease { memo: self, key, flight });
            }
            drop(state);
            poll();
            waited = true;
            state = self.lock();
            if matches!(state.slots.get(&key), Some(Slot::Pending { .. })) {
                state = self
                    .settled
                    .wait_timeout(state, WAIT_TICK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }

    /// Inserts (or replaces) `key`'s ready value, costing `bytes`,
    /// then evicts least-recently-used values until back under budget,
    /// never the one just inserted. Returns the eviction count.
    ///
    /// A flight pending on `key` settles with this value.
    pub fn insert(&self, key: K, value: Arc<V>, bytes: u64) -> u64 {
        let mut state = self.lock();
        state.forget(&key);
        let stamp = state.tick();
        let settled = state.slots.insert(key, Slot::Ready { value, stamp, bytes }).is_some();
        state.order.insert(stamp, key);
        state.bytes += bytes;
        let mut evicted = 0;
        while state.bytes > self.budget {
            let Some((_, &victim)) = state.order.first_key_value() else { break };
            if victim == key {
                break;
            }
            state.forget(&victim);
            evicted += 1;
        }
        drop(state);
        if settled {
            self.settled.notify_all();
        }
        evicted
    }

    /// Forgets `key`'s ready value, if any; a flight pending on `key`
    /// is left to its leader.
    pub fn remove(&self, key: &K) {
        self.lock().forget(key);
    }
}

impl<K: Copy + Eq + Hash, V> Lease<'_, K, V> {
    /// The key this lease leads.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Publishes the computed value (see [`Memo::insert`]) and wakes
    /// every follower with it. Returns the eviction count.
    pub fn publish(self, value: Arc<V>, bytes: u64) -> u64 {
        // `insert` settles the flight; the drop below then finds no
        // pending slot of this lease to abandon.
        self.memo.insert(self.key, value, bytes)
    }
}

impl<K: Copy + Eq + Hash, V> Drop for Lease<'_, K, V> {
    fn drop(&mut self) {
        let mut state = self.memo.lock();
        let ours =
            |slot: &Slot<V>| matches!(slot, Slot::Pending { flight } if *flight == self.flight);
        if state.slots.get(&self.key).is_some_and(ours) {
            state.slots.remove(&self.key);
            drop(state);
            self.memo.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::time::Instant;

    fn lead<K: Copy + Eq + Hash + std::fmt::Debug, V: std::fmt::Debug>(
        memo: &Memo<K, V>,
        key: K,
    ) -> Lease<'_, K, V> {
        match memo.claim(key, &mut || {}) {
            Claim::Lead(lease) => lease,
            other => panic!("expected to lead, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_claims_compute_once_and_share_the_published_arc() {
        let memo: Memo<u32, u64> = Memo::new(1 << 10);
        let computes = AtomicUsize::new(0);
        let shared = AtomicUsize::new(0);
        let values: Vec<Arc<u64>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| match memo.claim(7, &mut || {}) {
                        Claim::Lead(lease) => {
                            computes.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(50));
                            let value = Arc::new(42);
                            lease.publish(Arc::clone(&value), 8);
                            value
                        }
                        Claim::Shared(value) => {
                            shared.fetch_add(1, Ordering::SeqCst);
                            value
                        }
                        Claim::Ready(value) => value,
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert!(shared.load(Ordering::SeqCst) >= 1, "the 50 ms compute had followers");
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])), "one published Arc");
        match memo.claim(7, &mut || unreachable!("a ready key never waits")) {
            Claim::Ready(v) => assert!(Arc::ptr_eq(&v, &values[0])),
            other => panic!("expected a ready value, got {other:?}"),
        };
    }

    #[test]
    fn an_abandoned_lease_hands_the_key_to_one_waiter() {
        let memo: &Memo<u32, u64> = &Memo::new(1 << 10);
        let (started_tx, started_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let polls = &AtomicUsize::new(0);
        std::thread::scope(|s| {
            let leader = s.spawn(move || {
                let _lease = lead(memo, 1);
                started_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                panic!("the leader unwinds mid-compute");
            });
            started_rx.recv().unwrap();
            let followers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(move || {
                        let poll = &mut || {
                            polls.fetch_add(1, Ordering::SeqCst);
                        };
                        match memo.claim(1, poll) {
                            Claim::Lead(lease) => {
                                lease.publish(Arc::new(5), 8);
                                true
                            }
                            Claim::Shared(v) | Claim::Ready(v) => {
                                assert_eq!(*v, 5);
                                false
                            }
                        }
                    })
                })
                .collect();
            while polls.load(Ordering::SeqCst) < 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            go_tx.send(()).unwrap();
            assert!(leader.join().is_err(), "the leader panicked");
            let led: Vec<bool> = followers.into_iter().map(|f| f.join().unwrap()).collect();
            assert_eq!(led.iter().filter(|&&l| l).count(), 1, "one waiter re-leads: {led:?}");
        });
        assert_eq!(*memo.get(&1).expect("the new leader published"), 5);
    }

    #[test]
    fn a_follower_whose_poll_unwinds_leaves_the_flight_to_its_leader() {
        let memo: Memo<u32, u64> = Memo::new(1 << 10);
        let lease = lead(&memo, 1);
        // A follower with a 20 ms deadline: its poll runs every tick
        // and unwinds once the deadline passes.
        let start = Instant::now();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.claim(1, &mut || assert!(start.elapsed() < Duration::from_millis(20), "cancelled"))
        }));
        assert!(unwound.is_err(), "the follower's deadline passed");
        assert!(memo.get(&1).is_none(), "the flight is still pending");
        lease.publish(Arc::new(9), 8);
        assert_eq!(*memo.get(&1).unwrap(), 9);
        let state = memo.lock();
        assert_eq!((state.slots.len(), state.order.len(), state.bytes), (1, 1, 8));
    }

    #[test]
    fn evicts_least_recently_used_past_the_budget_but_never_the_newest() {
        let memo: Memo<u32, u32> = Memo::new(30);
        for k in 0..3 {
            assert_eq!(memo.insert(k, Arc::new(k), 10), 0);
        }
        assert!(memo.get(&0).is_some(), "0 is now most recent");
        assert_eq!(lead(&memo, 3).publish(Arc::new(3), 10), 1);
        assert!(memo.get(&1).is_none(), "1 was least recently used");
        assert!(memo.get(&0).is_some() && memo.get(&2).is_some());
        // A value over the whole budget stays until the next insert.
        assert_eq!(memo.insert(9, Arc::new(9), 100), 3);
        assert_eq!(memo.get(&9).map(|v| *v), Some(9));
        assert_eq!(memo.insert(10, Arc::new(10), 10), 1);
        assert!(memo.get(&9).is_none(), "evicted by the next insert");
        // Replacing a key re-costs it rather than counting it twice.
        memo.insert(10, Arc::new(11), 20);
        assert_eq!(*memo.get(&10).unwrap(), 11);
        assert_eq!(memo.lock().bytes, 20);
    }

    #[test]
    fn remove_forgets_a_ready_value_but_not_a_pending_flight() {
        let memo: Memo<u32, u32> = Memo::new(1 << 10);
        memo.insert(1, Arc::new(1), 4);
        memo.remove(&1);
        assert!(memo.get(&1).is_none());
        assert_eq!(memo.lock().bytes, 0);
        let lease = lead(&memo, 1);
        memo.remove(&1);
        assert!(matches!(memo.lock().slots.get(&1), Some(Slot::Pending { .. })));
        drop(lease);
        assert!(memo.lock().slots.is_empty(), "an unpublished lease abandons its key");
        lead(&memo, 1).publish(Arc::new(2), 4);
    }
}

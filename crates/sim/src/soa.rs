//! Struct-of-arrays issue-queue storage and word-parallel ready scanning.
//!
//! The legacy issue engine walks a `VecDeque<QEntry>` one entry at a time:
//! every waiting instruction costs a pointer chase, a handful of branchy
//! field reads, and a scan-depth bookkeeping update, every cycle, even
//! though the common outcome is "still waiting". This module stores the
//! same queue as parallel arrays indexed by *age order* plus three `u64`
//! bitmap banks:
//!
//! - `occ` — bit set when the slot holds a live (non-tombstoned) entry;
//! - `unknown` — bit set when the slot's memoized `ready_at` is still the
//!   `0` = unknown sentinel;
//! - `blocked` — bit set when the slot's producer has not issued yet; a
//!   subset of `occ & unknown`.
//!
//! With that layout one 64-slot word of the queue is classified in a few
//! mask operations: `known = occ & !unknown` entries carry an immutable
//! producer-completion timestamp, so "which of these are still waiting?"
//! is a `ready_at[i] > now` compare across the word
//! (`wait_mask`), and the slots that need the slow path — issue, park,
//! memoize — are exactly `(known & !wait) | (unknown & !blocked)`,
//! iterated with `trailing_zeros`. Everything else (the typical majority)
//! is skipped wholesale.
//!
//! Readiness is decided when it can change rather than rediscovered by
//! the scan: the core classifies each entry at dispatch (known-ready, a
//! near producer completion, blocked on a producer that has not issued,
//! or unknown) and again when a blocked entry's producer issues. Blocked
//! entries sit on exact per-thread wait lists that name them by
//! completion-ring slot; the queue's `slot_of` table maps that name to
//! the entry's physical slot, and compaction and front insertion keep the
//! table and the `blocked` bits with the entries they move.
//!
//! Because slot index equals age order and the slow path is shared with
//! the legacy engine, the scan inspects candidates in the *same order* and
//! applies the *same transitions* as the legacy walk — the property the
//! differential suite (`crates/experiments/tests/differential.rs`) checks
//! bit-for-bit.
//!
//! The word kernel is a portable sparse `u64` bit-iterator over `known`.

use crate::core::{MAX_WAYS, RING};
use crate::isa::{Instr, InstrClass};

/// Which issue-queue engine a core runs.
///
/// Both engines are bit-identical by construction and by differential
/// proof. `Simulation::new` always builds `Soa` cores; `Legacy` is kept
/// only as the executable reference the proofs compare against, selected
/// through [`Simulation::set_issue_engine`](crate::Simulation::set_issue_engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IssueEngine {
    /// The original `VecDeque<QEntry>` per-entry scan.
    Legacy,
    /// Struct-of-arrays bitmaps with word-parallel ready masks.
    #[default]
    Soa,
}

/// Dead (tombstoned) slots the *legacy* engine tolerates before its
/// `VecDeque` is compacted. The SoA engine instead compacts only when a
/// push would otherwise grow the arrays: tombstones are invisible to its
/// bitmap walk (a cleared `occ` bit costs nothing to skip), so deferring
/// compaction saves the array moves and the `slot_of` rewrites that go
/// with them. Compaction timing is purely a layout choice, invisible to
/// architectural state, so the engines need not agree on it.
pub(crate) const COMPACT_DEAD: usize = 8;

/// Waiting-entry mask for one word: bit `b` set when `known` holds `b`
/// and `ready_at[b] > now`. `ready_at` must cover the full 64 lanes
/// (slots are padded to whole words); lanes outside `known` may hold
/// stale values and are masked out.
#[inline]
pub(crate) fn wait_mask(known: u64, ready_at: &[u64], now: u64) -> u64 {
    debug_assert!(ready_at.len() >= 64);
    let mut wait = 0u64;
    let mut bits = known;
    while bits != 0 {
        let b = bits.trailing_zeros() as u64;
        bits &= bits - 1;
        wait |= u64::from(ready_at[b as usize] > now) << b;
    }
    wait
}

/// Keep only the lowest `n` set bits of `word` (the scan-depth trim: the
/// issue stage may inspect at most `issue_scan_depth` live entries, oldest
/// first). Rare path — it only runs when a queue transiently holds more
/// live entries than the scan depth (unpark overflow).
pub(crate) fn keep_lowest_set(word: u64, n: usize) -> u64 {
    let mut kept = 0u64;
    let mut bits = word;
    for _ in 0..n {
        if bits == 0 {
            break;
        }
        let low = bits & bits.wrapping_neg();
        kept |= low;
        bits ^= low;
    }
    kept
}

/// An issue queue stored as parallel arrays plus occupancy bitmaps.
///
/// Slot index is age order (older = lower), exactly like the legacy
/// `VecDeque` after its front-drain; `occ` makes tombstones free to skip
/// and `unknown` separates the immutable-timestamp majority from the
/// slots that still need dependence-ring lookups. Arrays are padded to
/// whole 64-slot words so the word kernel can index every lane; `plen`
/// tracks the used prefix.
#[derive(Debug, Clone)]
pub(crate) struct SoaQueue {
    /// Physical slots in use (live + tombstoned).
    plen: usize,
    /// Live-slot bitmap, one bit per physical slot.
    pub(crate) occ: Vec<u64>,
    /// Slots whose `ready_at` is the `0` = unknown sentinel.
    pub(crate) unknown: Vec<u64>,
    /// Memoized earliest-ready cycle per slot (`0` = unknown).
    pub(crate) ready_at: Vec<u64>,
    /// Dispatch sequence number per slot.
    pub(crate) seq: Vec<u64>,
    /// Owning hardware context per slot.
    pub(crate) hw: Vec<u8>,
    /// Instruction payload per slot.
    pub(crate) instr: Vec<Instr>,
    /// Slots asleep on a producer that has not issued yet (its
    /// completion-ring slot reads `PENDING`). Each one is on exactly one
    /// wait list, its producer's, and the producer's issue clears the bit.
    /// Always a subset of `occ & unknown`. A blocked slot is semantically
    /// identical to re-inspecting the entry every cycle: the legacy walk's
    /// inspection of such an entry has no effect beyond vetoing queue
    /// quiescence, which the scan preserves by testing the bits.
    pub(crate) blocked: Vec<u64>,
    /// Physical slot by `(hw, seq % RING)`, kept exact for every live
    /// entry (stale for dead ones): the name wait lists use for an entry
    /// survives the moves of [`Self::compact`] and [`Self::push_front`].
    /// Slots fit in `u16`: every queued entry is in its thread's in-flight
    /// window, so a queue never holds more than `MAX_WAYS * RING` entries.
    slot_of: Vec<u16>,
    /// Live entries (`occ` popcount).
    live: usize,
    pub(crate) capacity: usize,
    pub(crate) per_thread: [u16; MAX_WAYS],
    pub(crate) per_thread_cap: usize,
    /// Same semantics as the legacy `IssueQueue::quiet_until`.
    pub(crate) quiet_until: u64,
}

impl SoaQueue {
    pub(crate) fn new(capacity: usize, per_thread_cap: usize) -> SoaQueue {
        let words = capacity.div_ceil(64).max(1);
        SoaQueue {
            plen: 0,
            occ: vec![0; words],
            unknown: vec![0; words],
            blocked: vec![0; words],
            slot_of: vec![0; MAX_WAYS * RING],
            ready_at: vec![0; words * 64],
            seq: vec![0; words * 64],
            hw: vec![0; words * 64],
            instr: vec![Instr::simple(InstrClass::FixedPoint); words * 64],
            live: 0,
            capacity,
            per_thread: [0; MAX_WAYS],
            per_thread_cap,
            quiet_until: 0,
        }
    }

    #[inline]
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }

    #[inline]
    pub(crate) fn dead(&self) -> usize {
        self.plen - self.live
    }

    #[inline]
    pub(crate) fn full(&self) -> bool {
        self.live >= self.capacity
    }

    #[inline]
    pub(crate) fn thread_share_full(&self, hw: usize) -> bool {
        usize::from(self.per_thread[hw]) >= self.per_thread_cap
    }

    /// Physical slot of the live entry of context `hw` whose sequence
    /// number sits at completion-ring slot `ring`.
    #[inline]
    pub(crate) fn slot_of(&self, hw: usize, ring: usize) -> usize {
        usize::from(self.slot_of[hw * RING + ring])
    }

    /// Point `slot_of` at `slot` for the entry it holds.
    #[inline]
    fn index(&mut self, slot: usize) {
        let key = usize::from(self.hw[slot]) * RING + (self.seq[slot] as usize) % RING;
        self.slot_of[key] = slot as u16;
    }

    /// Make room for one more physical slot: compact the tombstones away
    /// when there are any, otherwise grow every array by one 64-slot word.
    fn make_room(&mut self) {
        if self.dead() > 0 {
            self.compact();
        } else {
            self.grow();
        }
    }

    /// Grow every array by one 64-slot word.
    fn grow(&mut self) {
        self.occ.push(0);
        self.unknown.push(0);
        self.blocked.push(0);
        self.ready_at.resize(self.ready_at.len() + 64, 0);
        self.seq.resize(self.seq.len() + 64, 0);
        self.hw.resize(self.hw.len() + 64, 0);
        self.instr
            .resize(self.instr.len() + 64, Instr::simple(InstrClass::FixedPoint));
    }

    /// Append a dispatched entry (the youngest slot) and return its slot.
    pub(crate) fn push_back(&mut self, hw: u8, seq: u64, ready_at: u64, instr: Instr) -> usize {
        if self.plen == self.occ.len() * 64 {
            self.make_room();
        }
        let slot = self.plen;
        self.ready_at[slot] = ready_at;
        self.seq[slot] = seq;
        self.hw[slot] = hw;
        self.instr[slot] = instr;
        self.index(slot);
        self.occ[slot >> 6] |= 1 << (slot & 63);
        if ready_at == 0 {
            self.unknown[slot >> 6] |= 1 << (slot & 63);
        }
        self.plen += 1;
        self.live += 1;
        self.per_thread[hw as usize] += 1;
        self.quiet_until = 0;
        slot
    }

    /// Re-insert an unparked entry at the front (it is older than anything
    /// dispatched since it left). Rare: only producers that missed past the
    /// park threshold route through here, so the array shift is off the
    /// hot path. Every existing slot moves one up, carrying its bits and
    /// its `slot_of` entry; the new entry is never blocked (it was parked
    /// on a producer that had already issued).
    pub(crate) fn push_front(&mut self, hw: u8, seq: u64, ready_at: u64, instr: Instr) {
        if self.plen == self.occ.len() * 64 {
            self.make_room();
        }
        self.ready_at.copy_within(0..self.plen, 1);
        self.seq.copy_within(0..self.plen, 1);
        self.hw.copy_within(0..self.plen, 1);
        self.instr.copy_within(0..self.plen, 1);
        self.ready_at[0] = ready_at;
        self.seq[0] = seq;
        self.hw[0] = hw;
        self.instr[0] = instr;
        let mut carry_occ = 1u64;
        let mut carry_unk = u64::from(ready_at == 0);
        let mut carry_blk = 0u64;
        for w in 0..self.occ.len() {
            let o = self.occ[w];
            self.occ[w] = (o << 1) | carry_occ;
            carry_occ = o >> 63;
            let u = self.unknown[w];
            self.unknown[w] = (u << 1) | carry_unk;
            carry_unk = u >> 63;
            let k = self.blocked[w];
            self.blocked[w] = (k << 1) | carry_blk;
            carry_blk = k >> 63;
        }
        self.plen += 1;
        self.live += 1;
        self.per_thread[hw as usize] += 1;
        self.quiet_until = 0;
        for w in 0..self.occ.len() {
            let mut bits = self.occ[w];
            while bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.index(s);
            }
        }
    }

    /// Logically remove the entry at `slot` (issue or park).
    #[inline]
    pub(crate) fn tombstone(&mut self, slot: usize, hw: usize) {
        let bit = 1u64 << (slot & 63);
        self.occ[slot >> 6] &= !bit;
        self.unknown[slot >> 6] &= !bit;
        self.blocked[slot >> 6] &= !bit;
        self.live -= 1;
        self.per_thread[hw] -= 1;
    }

    /// Put `slot` to sleep until its producer's issue clears it.
    #[inline]
    pub(crate) fn set_blocked(&mut self, slot: usize) {
        self.blocked[slot >> 6] |= 1 << (slot & 63);
    }

    /// Wake `slot`: its producer issued.
    #[inline]
    pub(crate) fn clear_blocked(&mut self, slot: usize) {
        self.blocked[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Is `slot` asleep on its producer?
    #[inline]
    pub(crate) fn is_blocked(&self, slot: usize) -> bool {
        self.blocked[slot >> 6] & (1 << (slot & 63)) != 0
    }

    /// Memoize `ready_at[slot] = ready_at` (nonzero) and clear the unknown
    /// mark.
    #[inline]
    pub(crate) fn set_ready_at(&mut self, slot: usize, ready_at: u64) {
        debug_assert_ne!(ready_at, 0);
        self.ready_at[slot] = ready_at;
        self.unknown[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Squeeze tombstones out: live entries slide down to a dense prefix,
    /// preserving age order and carrying their `unknown` and `blocked`
    /// bits and their `slot_of` entries. Purely a layout change —
    /// invisible to the architectural state and to the wait lists.
    pub(crate) fn compact(&mut self) {
        let words = self.occ.len();
        let mut dst = 0usize;
        for w in 0..words {
            let mut bits = self.occ[w];
            while bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if s != dst {
                    self.ready_at[dst] = self.ready_at[s];
                    self.seq[dst] = self.seq[s];
                    self.hw[dst] = self.hw[s];
                    self.instr[dst] = self.instr[s];
                    self.index(dst);
                    // `dst` strictly trails every slot still to be read, so
                    // rewriting its bits in place is safe.
                    let bit = 1u64 << (dst & 63);
                    for bank in [&mut self.unknown, &mut self.blocked] {
                        if (bank[s >> 6] >> (s & 63)) & 1 != 0 {
                            bank[dst >> 6] |= bit;
                        } else {
                            bank[dst >> 6] &= !bit;
                        }
                    }
                }
                dst += 1;
            }
        }
        for w in 0..words {
            let lo = w << 6;
            self.occ[w] = if dst >= lo + 64 {
                u64::MAX
            } else if dst > lo {
                (1u64 << (dst - lo)) - 1
            } else {
                0
            };
            self.unknown[w] &= self.occ[w];
            self.blocked[w] &= self.occ[w];
        }
        self.plen = dst;
        debug_assert_eq!(self.live, dst);
    }

    /// Iterate live slots in age order, calling `f(slot)`; returns early
    /// if `f` returns `false`. Diagnostics/invariants only — the issue
    /// scan has its own fused loop.
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(usize) -> bool) {
        for w in 0..self.occ.len() {
            let mut bits = self.occ[w];
            while bits != 0 {
                let s = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !f(s) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_mask_scalar_and_dense_agree() {
        let mut ready = vec![0u64; 64];
        for (i, r) in ready.iter_mut().enumerate() {
            *r = (i as u64 * 7919) % 100;
        }
        let known = 0xDEAD_BEEF_F00D_4242u64;
        for now in [0u64, 10, 50, 99, 1000] {
            let wait = wait_mask(known, &ready, now);
            // Reference: per-lane check.
            let mut reference = 0u64;
            for (b, &r) in ready.iter().enumerate() {
                if known & (1 << b) != 0 && r > now {
                    reference |= 1 << b;
                }
            }
            assert_eq!(wait, reference, "now={now}");
        }
    }

    #[test]
    fn keep_lowest_set_trims_in_age_order() {
        let w = 0b1011_0110u64;
        assert_eq!(keep_lowest_set(w, 0), 0);
        assert_eq!(keep_lowest_set(w, 1), 0b0000_0010);
        assert_eq!(keep_lowest_set(w, 3), 0b0001_0110);
        assert_eq!(keep_lowest_set(w, 99), w);
    }

    #[test]
    fn push_front_shifts_bitmaps_across_words() {
        let mut q = SoaQueue::new(8, 8);
        // Fill past one word so the carry path runs.
        for k in 0..70u64 {
            q.push_back(0, k, 0, Instr::simple(InstrClass::FixedPoint));
        }
        assert_eq!(q.live_len(), 70);
        q.push_front(1, 999, 0, Instr::simple(InstrClass::Load));
        assert_eq!(q.live_len(), 71);
        assert_eq!(q.seq[0], 999);
        assert_eq!(q.hw[0], 1);
        assert_eq!(q.seq[1], 0);
        assert_eq!(q.seq[70], 69);
        // All 71 slots live, bitmaps contiguous.
        assert_eq!(q.occ[0], u64::MAX);
        assert_eq!(q.occ[1], (1u64 << 7) - 1);
    }

    #[test]
    fn compact_preserves_age_order_and_unknown_bits() {
        let mut q = SoaQueue::new(8, 8);
        for k in 0..20u64 {
            let ready = if k % 3 == 0 { 0 } else { k + 100 };
            q.push_back(
                (k % 2) as u8,
                k,
                ready,
                Instr::simple(InstrClass::FixedPoint),
            );
        }
        // Tombstone every fourth entry.
        for s in (0..20).step_by(4) {
            let hw = q.hw[s] as usize;
            q.tombstone(s, hw);
        }
        assert_eq!(q.dead(), 5);
        q.compact();
        assert_eq!(q.dead(), 0);
        assert_eq!(q.live_len(), 15);
        let mut seqs = Vec::new();
        q.for_each_live(|s| {
            seqs.push(q.seq[s]);
            let unk = (q.unknown[s >> 6] >> (s & 63)) & 1;
            assert_eq!(unk == 1, q.ready_at[s] == 0, "slot {s}");
            true
        });
        let expect: Vec<u64> = (0..20).filter(|k| k % 4 != 0).collect();
        assert_eq!(seqs, expect);
    }

    #[test]
    fn compact_and_push_front_carry_blocked_bits_and_slot_of() {
        // Two threads, two words; every third entry asleep on a producer.
        let mut q = SoaQueue::new(8, 8);
        for k in 0..70u64 {
            let ready = if k % 3 == 0 { 0 } else { k + 100 };
            let slot = q.push_back(
                (k % 2) as u8,
                k,
                ready,
                Instr::simple(InstrClass::FixedPoint),
            );
            assert_eq!(slot, k as usize);
            if k % 3 == 0 {
                q.set_blocked(slot);
            }
        }
        for s in (0..70).step_by(4) {
            let hw = q.hw[s] as usize;
            q.tombstone(s, hw);
        }
        let check = |q: &SoaQueue, what: &str| {
            let mut live = 0;
            q.for_each_live(|s| {
                let k = q.seq[s];
                let hw = q.hw[s] as usize;
                assert_eq!(
                    q.slot_of(hw, k as usize % RING),
                    s,
                    "{what}: slot_of of seq {k}"
                );
                assert_eq!(
                    q.is_blocked(s),
                    k < 70 && k.is_multiple_of(3),
                    "{what}: blocked bit of seq {k}"
                );
                let unk = (q.unknown[s >> 6] >> (s & 63)) & 1 == 1;
                assert_eq!(unk, q.ready_at[s] == 0, "{what}: unknown bit of seq {k}");
                live += 1;
                true
            });
            assert_eq!(live, q.live_len(), "{what}");
            for w in 0..q.occ.len() {
                assert_eq!(
                    q.blocked[w] & !q.occ[w],
                    0,
                    "{what}: blocked bit on a dead slot"
                );
            }
        };
        check(&q, "before");
        // The shift carries slot 63's blocked bit into word 1.
        assert!(q.is_blocked(63));
        q.push_front(1, 998, 0, Instr::simple(InstrClass::Load));
        assert!(q.is_blocked(64) && !q.is_blocked(0));
        assert_eq!(q.slot_of(1, 998 % RING), 0);
        check(&q, "after push_front");
        q.compact();
        assert_eq!(q.dead(), 0);
        check(&q, "after compact");
        let mut seqs = Vec::new();
        q.for_each_live(|s| {
            seqs.push(q.seq[s]);
            true
        });
        let expect: Vec<u64> = std::iter::once(998)
            .chain((0..70).filter(|k| k % 4 != 0))
            .collect();
        assert_eq!(seqs, expect);
    }
}

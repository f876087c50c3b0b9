//! Struct-of-arrays issue-queue storage and word-parallel ready scanning.
//!
//! The legacy issue engine walks a `VecDeque<QEntry>` one entry at a time:
//! every waiting instruction costs a pointer chase, a handful of branchy
//! field reads, and a scan-depth bookkeeping update, every cycle, even
//! though the common outcome is "still waiting". This module stores the
//! same queue as parallel arrays indexed by *age order* plus two `u64`
//! bitmap banks:
//!
//! - `occ` — bit set when the slot holds a live (non-tombstoned) entry;
//! - `unknown` — bit set when the slot's memoized `ready_at` is still the
//!   `0` = unknown sentinel (producer not yet issued, or never inspected).
//!
//! With that layout one 64-slot word of the queue is classified in a few
//! mask operations: `known = occ & !unknown` entries carry an immutable
//! producer-completion timestamp, so "which of these are still waiting?"
//! is a `ready_at[i] > now` compare across the word
//! ([`wait_mask`]), and the slots that need the slow path — issue, park,
//! memoize, or a dependence-ring lookup — are exactly
//! `(known & !wait) | unknown`, iterated with `trailing_zeros`. Everything
//! else (the typical majority) is skipped wholesale.
//!
//! Because slot index equals age order and the slow path is shared with
//! the legacy engine, the scan inspects candidates in the *same order* and
//! applies the *same transitions* as the legacy walk — the property the
//! differential suite (`crates/experiments/tests/differential.rs`) checks
//! bit-for-bit.
//!
//! The word kernel is a portable sparse `u64` bit-iterator over `known`.

use crate::isa::{Instr, InstrClass};

/// Which issue-queue engine a core runs.
///
/// Both engines are bit-identical by construction and by differential
/// proof. `Simulation::new` always builds `Soa` cores; `Legacy` is kept
/// only as the executable reference the proofs compare against, selected
/// through `Simulation::set_issue_engine`.
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
/// bitmap walk (a cleared `occ` bit costs nothing to skip), and deferring
/// compaction keeps queue generations — and with them the registered
/// producer-wakeup slots — stable for longer. Compaction timing is purely
/// a layout choice, invisible to architectural state, so the engines need
/// not agree on it.
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
    /// Slots asleep on a producer wakeup: the slow path proved the
    /// producer has not issued yet (its completion-ring slot still reads
    /// `PENDING`) and registered the slot in the owning context's waiter
    /// table, so the scan can skip it wholesale until the producer's issue
    /// event clears the bit. Always a subset of `occ & unknown`. A
    /// blocked slot is semantically identical to re-inspecting the entry
    /// every cycle — the legacy walk's inspection of such an entry has no
    /// effect beyond vetoing queue quiescence, which [`Self::blocked_any`]
    /// preserves.
    pub(crate) blocked: Vec<u64>,
    /// Bumped whenever existing slots move (`push_front`, [`Self::compact`]),
    /// invalidating every waiter registration that names them; the matching
    /// `blocked` bits are cleared in the same breath so the affected
    /// entries simply fall back to per-cycle rescans until re-registered.
    pub(crate) gen: u16,
    /// Live entries (`occ` popcount).
    live: usize,
    pub(crate) capacity: usize,
    pub(crate) per_thread: [u16; crate::core::MAX_WAYS],
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
            gen: 0,
            ready_at: vec![0; words * 64],
            seq: vec![0; words * 64],
            hw: vec![0; words * 64],
            instr: vec![Instr::simple(InstrClass::FixedPoint); words * 64],
            live: 0,
            capacity,
            per_thread: [0; crate::core::MAX_WAYS],
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

    /// Make room for one more physical slot: compact the tombstones away
    /// when there are any (bumping the generation), otherwise grow every
    /// array by one 64-slot word.
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

    /// Append a dispatched entry (the youngest slot).
    pub(crate) fn push_back(&mut self, hw: u8, seq: u64, ready_at: u64, instr: Instr) {
        if self.plen == self.occ.len() * 64 {
            self.make_room();
        }
        let slot = self.plen;
        self.ready_at[slot] = ready_at;
        self.seq[slot] = seq;
        self.hw[slot] = hw;
        self.instr[slot] = instr;
        self.occ[slot >> 6] |= 1 << (slot & 63);
        if ready_at == 0 {
            self.unknown[slot >> 6] |= 1 << (slot & 63);
        }
        self.plen += 1;
        self.live += 1;
        self.per_thread[hw as usize] += 1;
        self.quiet_until = 0;
    }

    /// Re-insert an unparked entry at the front (it is older than anything
    /// dispatched since it left). Rare: only producers that missed past the
    /// park threshold route through here, so the array shift is off the
    /// hot path.
    pub(crate) fn push_front(&mut self, hw: u8, seq: u64, ready_at: u64, instr: Instr) {
        if self.plen == self.occ.len() * 64 {
            self.make_room();
        }
        // Every existing slot moves one up: registered wakeups now name the
        // wrong slots, so invalidate them and let the entries rescan.
        self.gen = self.gen.wrapping_add(1);
        self.blocked.fill(0);
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
        for w in 0..self.occ.len() {
            let o = self.occ[w];
            self.occ[w] = (o << 1) | carry_occ;
            carry_occ = o >> 63;
            let u = self.unknown[w];
            self.unknown[w] = (u << 1) | carry_unk;
            carry_unk = u >> 63;
        }
        self.plen += 1;
        self.live += 1;
        self.per_thread[hw as usize] += 1;
        self.quiet_until = 0;
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

    /// Put `slot` to sleep until its producer's issue event clears it.
    #[inline]
    pub(crate) fn set_blocked(&mut self, slot: usize) {
        self.blocked[slot >> 6] |= 1 << (slot & 63);
    }

    /// Wake `slot` (producer issued, or a spurious ring-collision wake —
    /// either way the next scan re-inspects it).
    #[inline]
    pub(crate) fn clear_blocked(&mut self, slot: usize) {
        self.blocked[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Is `slot` asleep on a producer wakeup?
    #[inline]
    pub(crate) fn is_blocked(&self, slot: usize) -> bool {
        self.blocked[slot >> 6] & (1 << (slot & 63)) != 0
    }

    /// Clear the unknown mark after memoizing `ready_at[slot]`.
    #[inline]
    pub(crate) fn clear_unknown(&mut self, slot: usize) {
        self.unknown[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Squeeze tombstones out: live entries slide down to a dense prefix,
    /// preserving age order. Purely a layout change — invisible to the
    /// architectural state. Slots move, so wakeup registrations are
    /// invalidated (generation bump) and blocked entries fall back to
    /// rescanning.
    pub(crate) fn compact(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        self.blocked.fill(0);
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
                    // `dst` strictly trails every slot still to be read, so
                    // rewriting the unknown bit in place is safe.
                    let unk = (self.unknown[s >> 6] >> (s & 63)) & 1;
                    let bit = 1u64 << (dst & 63);
                    if unk != 0 {
                        self.unknown[dst >> 6] |= bit;
                    } else {
                        self.unknown[dst >> 6] &= !bit;
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
}

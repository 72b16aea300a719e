//! Hierarchical timing wheel for release/deadline/horizon events.
//!
//! The engine's old hot path recomputed "earliest next event" by scanning
//! every task's `next_release` and `deadline` at every scheduling point.
//! This wheel replaces the scan: each pending timer (two per task — one
//! release, one deadline) occupies one slot at one of [`LEVELS`] levels of
//! [`SLOTS`] slots each. Level `l` slots are `64^l` ticks wide (one tick
//! is `1/1024` ms, see [`rtdvs_core::readyq::TICKS_PER_MS`]), so five
//! levels cover ~17 minutes of simulated time; anything beyond goes to a
//! `far` overflow set resolved by exact linear comparison.
//!
//! Placement invariant: a timer sits at the *lowest* level whose current
//! window (the `64^(l+1)`-tick span containing `now`) contains its expiry
//! tick. Advancing `now` across a window boundary *cascades*: the slot the
//! new window enters is drained and its timers re-placed at lower levels.
//! The invariant makes levels disjoint and ordered — every level-0 timer
//! expires before every level-1 timer, and so on — so the earliest timer
//! is always in the first occupied slot of the first non-empty level.
//!
//! Quantization never decides order: slots route timers, but
//! [`TimingWheel::peek_min`] and [`TimingWheel::for_each_due`] compare the
//! exact stored [`Time`]s, so the wheel reproduces the old linear scan
//! bit for bit. All operations are total (no indexing panics): the wheel
//! sits inside the engine's zero-panic-budget scheduling loop.

use rtdvs_core::readyq::tick_of;
use rtdvs_core::time::Time;

/// Number of wheel levels.
pub const LEVELS: usize = 5;
/// Slots per level (and bits per slot word).
pub const SLOTS: usize = 64;

const LEVEL_SHIFT: u32 = 6; // log2(SLOTS)
const NOT_PLACED: u32 = u32::MAX;
const FAR: u32 = u32::MAX - 1;

/// A hierarchical timing wheel over `m` timers (identified by dense ids
/// `0..m`). See the module docs for the invariants.
#[derive(Debug, Clone, Default)]
pub struct TimingWheel {
    /// Timer capacity.
    m: usize,
    /// Words per timer bitmap (`ceil(m / 64)`).
    words: usize,
    /// Current tick (of the engine's `now`).
    now_tick: u64,
    /// Cached minimum pending expiry (meaningful only while `min_valid`;
    /// `None` then means the wheel is empty).
    min_cache: Option<Time>,
    /// Whether `min_cache` reflects the true minimum. Scheduling folds the
    /// new expiry into a valid cache; cancelling a timer at (or below) the
    /// cached minimum invalidates it, and the next peek rescans.
    min_valid: bool,
    /// Exact expiry per timer (valid only while placed).
    expiry: Vec<Time>,
    /// Expiry tick per timer (cached).
    tick: Vec<u64>,
    /// Packed placement per timer: `level * SLOTS + slot`, or
    /// `NOT_PLACED` / `FAR`.
    placed: Vec<u32>,
    /// Per-(level, slot) timer bitmaps, `LEVELS * SLOTS * words`.
    slot_bits: Vec<u64>,
    /// Per-level occupied-slot words.
    occ: [u64; LEVELS],
    /// Timers expiring beyond the wheel horizon.
    far: Vec<u64>,
}

impl TimingWheel {
    /// Creates an empty wheel for `m` timers starting at tick 0.
    #[must_use]
    pub fn new(m: usize) -> TimingWheel {
        let words = m.div_ceil(SLOTS).max(1);
        TimingWheel {
            m,
            words,
            now_tick: 0,
            min_cache: None,
            min_valid: true,
            expiry: vec![Time::ZERO; m],
            tick: vec![0; m],
            placed: vec![NOT_PLACED; m],
            slot_bits: vec![0; LEVELS * SLOTS * words],
            occ: [0; LEVELS],
            far: vec![0; words],
        }
    }

    /// The wheel's current tick.
    #[must_use]
    pub fn now_tick(&self) -> u64 {
        self.now_tick
    }

    /// `true` if timer `k` is pending.
    #[must_use]
    pub fn is_scheduled(&self, k: usize) -> bool {
        self.placed.get(k).is_some_and(|&p| p != NOT_PLACED)
    }

    /// The pending expiry of timer `k`, if any (sanitizer cross-checks).
    #[must_use]
    pub fn scheduled_at(&self, k: usize) -> Option<Time> {
        if self.is_scheduled(k) {
            self.expiry.get(k).copied()
        } else {
            None
        }
    }

    /// The lowest level whose current window contains `etick`, or `None`
    /// for beyond-horizon ticks.
    fn level_for(&self, etick: u64) -> Option<usize> {
        // Level `l` holds `etick` iff no bit at or above `6 * (l + 1)`
        // differs from `now_tick`, so the level is the highest differing
        // bit divided by the per-level shift (branch-free, no loop).
        let diff = etick ^ self.now_tick;
        let msb = 63 - (diff | 1).leading_zeros();
        let l = (msb / LEVEL_SHIFT) as usize;
        (l < LEVELS).then_some(l)
    }

    fn set_slot_bit(&mut self, level: usize, slot: usize, k: usize, on: bool) {
        let (w, m) = (k / SLOTS, 1u64 << (k % SLOTS));
        let idx = (level * SLOTS + slot) * self.words + w;
        if let Some(word) = self.slot_bits.get_mut(idx) {
            if on {
                *word |= m;
            } else {
                *word &= !m;
            }
        }
        let occupied = if on {
            true
        } else {
            let base = (level * SLOTS + slot) * self.words;
            self.slot_bits
                .get(base..base + self.words)
                .is_some_and(|ws| ws.iter().any(|&x| x != 0))
        };
        if let Some(o) = self.occ.get_mut(level) {
            if occupied {
                *o |= 1u64 << slot;
            } else {
                *o &= !(1u64 << slot);
            }
        }
    }

    fn place(&mut self, k: usize, etick: u64) {
        match self.level_for(etick) {
            Some(level) => {
                let slot = ((etick >> (LEVEL_SHIFT * level as u32)) as usize) & (SLOTS - 1);
                if let Some(p) = self.placed.get_mut(k) {
                    *p = (level * SLOTS + slot) as u32;
                }
                self.set_slot_bit(level, slot, k, true);
            }
            None => {
                if let Some(p) = self.placed.get_mut(k) {
                    *p = FAR;
                }
                let (w, m) = (k / SLOTS, 1u64 << (k % SLOTS));
                if let Some(word) = self.far.get_mut(w) {
                    *word |= m;
                }
            }
        }
    }

    /// Schedules (or reschedules) timer `k` to expire at `t`. Expiries at
    /// or before `now` are allowed (they land in the current slot and are
    /// immediately due).
    pub fn schedule(&mut self, k: usize, t: Time) {
        if k >= self.m {
            return;
        }
        self.cancel(k);
        let etick = tick_of(t).max(self.now_tick);
        if let Some(e) = self.expiry.get_mut(k) {
            *e = t;
        }
        if let Some(tk) = self.tick.get_mut(k) {
            *tk = etick;
        }
        self.place(k, etick);
        if self.min_valid {
            self.min_cache = Some(match self.min_cache {
                Some(c) => c.min(t),
                None => t,
            });
        }
    }

    /// Cancels timer `k` (no-op if not pending).
    pub fn cancel(&mut self, k: usize) {
        let p = self.placed.get(k).copied().unwrap_or(NOT_PLACED);
        if p == NOT_PLACED {
            return;
        }
        if self.min_valid {
            // Removing a timer at the cached minimum (ties included) may
            // change the minimum; anything strictly later cannot.
            let e = self.expiry.get(k).copied().unwrap_or(Time::ZERO);
            if self
                .min_cache
                .is_none_or(|c| e.total_cmp(&c) != std::cmp::Ordering::Greater)
            {
                self.min_valid = false;
            }
        }
        if p == FAR {
            let (w, m) = (k / SLOTS, 1u64 << (k % SLOTS));
            if let Some(word) = self.far.get_mut(w) {
                *word &= !m;
            }
        } else {
            let (level, slot) = ((p as usize) / SLOTS, (p as usize) % SLOTS);
            self.set_slot_bit(level, slot, k, false);
        }
        if let Some(pl) = self.placed.get_mut(k) {
            *pl = NOT_PLACED;
        }
    }

    /// Drains one (level, slot) and re-places its timers at lower levels.
    fn drain(&mut self, level: usize, slot: usize) {
        let base = (level * SLOTS + slot) * self.words;
        for w in 0..self.words {
            loop {
                let word = self.slot_bits.get(base + w).copied().unwrap_or(0);
                if word == 0 {
                    break;
                }
                let k = w * SLOTS + word.trailing_zeros() as usize;
                self.set_slot_bit(level, slot, k, false);
                let etick = self.tick.get(k).copied().unwrap_or(0).max(self.now_tick);
                self.place(k, etick);
            }
        }
    }

    /// Advances the wheel to `t`, cascading timers across window
    /// boundaries so the placement invariant holds at the new instant.
    ///
    /// Contract: `t` must not lie strictly beyond a pending expiry's tick
    /// — the engine guarantees this by advancing to the minimum of all
    /// next events ([`TimingWheel::peek_min`] included), processing what
    /// is due, and only then advancing again.
    pub fn advance(&mut self, t: Time) {
        debug_assert!(
            self.peek_min().is_none_or(|mn| tick_of(mn) >= tick_of(t)),
            "wheel advanced past a pending expiry"
        );
        let new_tick = tick_of(t).max(self.now_tick);
        if new_tick == self.now_tick {
            return;
        }
        let old_tick = self.now_tick;
        self.now_tick = new_tick;
        // No slot boundary above level 0 was crossed: nothing can cascade.
        if (old_tick ^ new_tick) >> LEVEL_SHIFT == 0 {
            return;
        }
        // A level needs attention only if `now` crossed one of its slot
        // boundaries. Work top-down so a timer cascading multiple levels
        // is re-placed once per level at most.
        for l in (1..LEVELS).rev() {
            let slot_shift = LEVEL_SHIFT * l as u32;
            if old_tick >> slot_shift == new_tick >> slot_shift {
                continue;
            }
            // Drain every occupied slot in this level whose range start is
            // now at or behind the new tick: their windows have been
            // entered (or passed), so members belong at lower levels now.
            let window_shift = slot_shift + LEVEL_SHIFT;
            let window_base = (new_tick >> window_shift) << window_shift;
            loop {
                let occ = self.occ.get(l).copied().unwrap_or(0);
                if occ == 0 {
                    break;
                }
                let mut drained = false;
                let mut bits = occ;
                while bits != 0 {
                    let slot = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let range_start = window_base + ((slot as u64) << slot_shift);
                    // Slots "behind" the cursor in this window belong to
                    // the *next* window only if their range is entirely
                    // in the past relative to placement — placement keeps
                    // same-window timers only, so range_start ≤ new_tick
                    // means the window has been entered.
                    if range_start <= new_tick {
                        self.drain(l, slot);
                        drained = true;
                    }
                }
                if !drained {
                    break;
                }
            }
        }
    }

    /// The exact minimum pending expiry, or `None` if the wheel is empty.
    ///
    /// O(1) while the cache is warm (the common case: schedules fold into
    /// it and [`TimingWheel::advance`] never moves the minimum); only a
    /// cancel at the minimum forces a rescan.
    #[must_use]
    pub fn peek_min(&mut self) -> Option<Time> {
        if !self.min_valid {
            self.min_cache = self.scan_min();
            self.min_valid = true;
        }
        self.min_cache
    }

    /// `true` if some pending timer expires at or before `now` (with the
    /// engine's `at_or_before` tolerance). One comparison against the
    /// cached minimum when warm.
    #[must_use]
    pub fn has_due(&mut self, now: Time) -> bool {
        self.peek_min().is_some_and(|mn| mn.at_or_before(now))
    }

    /// Full scan for the minimum: first occupied slot of the first
    /// non-empty level (exact within the slot), plus the far set.
    fn scan_min(&self) -> Option<Time> {
        let mut best: Option<Time> = None;
        'levels: for l in 0..LEVELS {
            let occ = self.occ.get(l).copied().unwrap_or(0);
            if occ == 0 {
                continue;
            }
            let slot = occ.trailing_zeros() as usize;
            let base = (l * SLOTS + slot) * self.words;
            for w in 0..self.words {
                let mut word = self.slot_bits.get(base + w).copied().unwrap_or(0);
                while word != 0 {
                    let k = w * SLOTS + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let t = self.expiry.get(k).copied().unwrap_or(Time::ZERO);
                    best = Some(match best {
                        None => t,
                        Some(b) => b.min(t),
                    });
                }
            }
            break 'levels;
        }
        if self.far.iter().any(|&w| w != 0) {
            for w in 0..self.words {
                let mut word = self.far.get(w).copied().unwrap_or(0);
                while word != 0 {
                    let k = w * SLOTS + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let t = self.expiry.get(k).copied().unwrap_or(Time::ZERO);
                    best = Some(match best {
                        None => t,
                        Some(b) => b.min(t),
                    });
                }
            }
        }
        best
    }

    /// Visits every pending timer whose exact expiry is at or before
    /// `now` (the engine's `at_or_before` tolerance), in ascending timer
    /// order, writing them as set bits into `out` (`words` u64s, zeroed
    /// here). `now` must be at or past the last [`TimingWheel::advance`].
    pub fn collect_due(&self, now: Time, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words, 0);
        // Due timers have tick ≤ now_tick + 1 (EPS can cross at most one
        // tick boundary). By the placement invariant they are in a slot
        // whose range starts at or before now_tick + 1; at most two such
        // slots exist at level 0 and one per higher level.
        let limit = self.now_tick.saturating_add(1);
        for l in 0..LEVELS {
            let slot_shift = LEVEL_SHIFT * l as u32;
            let window_shift = slot_shift + LEVEL_SHIFT;
            let window_base = (self.now_tick >> window_shift) << window_shift;
            let mut occ = self.occ.get(l).copied().unwrap_or(0);
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let range_start = window_base + ((slot as u64) << slot_shift);
                if range_start > limit {
                    break;
                }
                let base = (l * SLOTS + slot) * self.words;
                for w in 0..self.words {
                    let mut word = self.slot_bits.get(base + w).copied().unwrap_or(0);
                    while word != 0 {
                        let k = w * SLOTS + word.trailing_zeros() as usize;
                        word &= word - 1;
                        let t = self.expiry.get(k).copied().unwrap_or(Time::ZERO);
                        if t.at_or_before(now) {
                            if let Some(o) = out.get_mut(w) {
                                *o |= 1u64 << (k % SLOTS);
                            }
                        }
                    }
                }
            }
        }
        // Far timers are ≥ the wheel horizon (~17 simulated minutes out)
        // and can never be due.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> Time {
        Time::from_ms(x)
    }

    /// Exhaustively compares the wheel against a naive min/due oracle
    /// while timers are scheduled and time advances.
    #[test]
    fn matches_naive_oracle_under_advance() {
        let m = 8;
        let mut wheel = TimingWheel::new(m);
        let mut naive: Vec<Option<Time>> = vec![None; m];
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut now = Time::ZERO;
        for step in 0..5000 {
            // Schedule or cancel a random timer with a random horizon,
            // spanning several wheel levels (sub-tick to ~4 s).
            let k = (next() % m as u64) as usize;
            if next() % 5 == 0 {
                wheel.cancel(k);
                naive[k] = None;
            } else {
                let span_ms = (next() % 4_000_000) as f64 / 1000.0;
                let t = now + ms(span_ms);
                wheel.schedule(k, t);
                naive[k] = Some(t);
            }
            let wheel_min = wheel.peek_min();
            let naive_min = naive
                .iter()
                .flatten()
                .copied()
                .min_by(|a, b| a.total_cmp(b));
            assert_eq!(
                wheel_min.map(Time::as_ms),
                naive_min.map(Time::as_ms),
                "step {step}: min mismatch"
            );
            // Advance like the engine: to the earliest pending expiry at
            // most (never past one), then process what is due.
            let jump = now + ms((next() % 2_000) as f64 / 100.0);
            now = match naive_min {
                Some(t) => jump.min(t),
                None => jump,
            };
            wheel.advance(now);
            let mut due = Vec::new();
            wheel.collect_due(now, &mut due);
            for k in 0..m {
                let bit = due
                    .get(k / SLOTS)
                    .is_some_and(|w| w & (1u64 << (k % SLOTS)) != 0);
                let expect = naive[k].is_some_and(|t| t.at_or_before(now));
                assert_eq!(bit, expect, "step {step}: due mismatch for timer {k}");
                if expect {
                    wheel.cancel(k);
                    naive[k] = None;
                }
            }
        }
    }

    #[test]
    fn wraps_across_level_boundaries() {
        // A timer exactly at a 64^2-tick boundary must survive the cascade
        // from level 2 to level 0 and be reported due at its exact time.
        let mut wheel = TimingWheel::new(2);
        let boundary_ticks = 64.0 * 64.0; // one full level-1 window
        let t = ms(boundary_ticks / 1024.0);
        wheel.schedule(0, t);
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(t.as_ms()));
        // Step up to just before the boundary, then cross it.
        wheel.advance(t - ms(0.5));
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(t.as_ms()));
        wheel.advance(t);
        let mut due = Vec::new();
        wheel.collect_due(t, &mut due);
        assert_eq!(due.first().copied(), Some(1));
    }

    #[test]
    fn same_instant_batch_is_collected_together() {
        // Thousands of timers on one instant: one collect_due returns the
        // whole batch, in ascending timer order by construction.
        let m = 4096;
        let mut wheel = TimingWheel::new(m);
        let t = ms(7.25);
        for k in 0..m {
            wheel.schedule(k, t);
        }
        wheel.advance(t);
        let mut due = Vec::new();
        wheel.collect_due(t, &mut due);
        let count: u32 = due.iter().map(|w| w.count_ones()).sum();
        assert_eq!(count as usize, m);
        // And nothing is due just before.
        let mut wheel2 = TimingWheel::new(m);
        for k in 0..m {
            wheel2.schedule(k, t);
        }
        wheel2.advance(t - ms(0.01));
        wheel2.collect_due(t - ms(0.01), &mut due);
        assert_eq!(due.iter().map(|w| w.count_ones()).sum::<u32>(), 0);
    }

    #[test]
    fn far_future_timers_overflow_gracefully() {
        let mut wheel = TimingWheel::new(2);
        // ~28 simulated hours: beyond the 5-level horizon.
        wheel.schedule(0, ms(1.0e8));
        wheel.schedule(1, ms(4.0));
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(4.0));
        wheel.cancel(1);
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(1.0e8));
        assert!(wheel.is_scheduled(0));
    }

    #[test]
    fn cancel_and_reschedule() {
        let mut wheel = TimingWheel::new(3);
        wheel.schedule(0, ms(10.0));
        wheel.schedule(1, ms(5.0));
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(5.0));
        wheel.cancel(1);
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(10.0));
        wheel.schedule(0, ms(2.0));
        assert_eq!(wheel.peek_min().map(Time::as_ms), Some(2.0));
        wheel.cancel(0);
        assert_eq!(wheel.peek_min(), None);
    }
}

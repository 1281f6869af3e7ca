//! Bounded admission queue with criticality-aware displacement and
//! fairness-aware batch selection.
//!
//! Admission control is where a safety-oriented server differs most from
//! a throughput-oriented one: when the queue is full, something must
//! give, and *which* request gives must be a stated policy, not a race.
//! The displacement policy is strict criticality order — an arrival may
//! displace a queued request only if that request's tier is strictly
//! lower, and among displaceable requests the lowest tier, most recently
//! queued one is sacrificed.
//!
//! **Batch selection** is where strict tier order stops being enough.
//! Always serving the highest tier first lets a high-tier burst starve
//! best-effort work forever; always serving FIFO lets a low-tier flood
//! push high-tier latency past its deadline. [`FairnessPolicy`] bounds
//! both failure modes:
//!
//! * **Reserved slots** guarantee each tier a slice of every formed
//!   batch (when work of that tier is queued), so a flood of one tier
//!   cannot monopolise dispatch.
//! * **Aging** promotes a waiting entry one effective tier every
//!   `age_step` ticks, so even with zero reserved slots a queued
//!   request's priority eventually rises to the point where it must be
//!   selected — starvation is bounded, not just unlikely.
//!
//! Both mechanisms are pure functions of queue contents and the
//! simulated clock, so selection — like everything else in the server —
//! replays byte-for-byte.

use std::cmp::Reverse;

use crate::request::{Request, Tier};

/// A queued request plus its admission tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Pending {
    /// The request.
    pub request: Request,
    /// Tick at which it was admitted.
    pub queued_at: u64,
}

/// What happened when an arrival hit the queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Queued; capacity remained.
    Accepted,
    /// Queued; the returned lower-tier entry was evicted to make room.
    Displaced(Pending),
    /// Refused; every queued entry has equal or higher criticality.
    Rejected,
}

/// Anti-starvation knobs for batch selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FairnessPolicy {
    /// Ticks of queue wait that promote an entry one effective tier
    /// (`0` disables aging). With aging enabled, a Low entry that has
    /// waited `2 * age_step` ticks competes as High — FIFO order breaks
    /// the tie among equals, so old work eventually wins.
    pub age_step: u64,
    /// Guaranteed batch slots per tier `[low, medium, high]`: each
    /// formed batch first reserves up to this many slots for queued work
    /// of that tier (highest tier first when slots run short), then
    /// fills the rest by aged priority.
    pub reserved: [usize; 3],
}

impl Default for FairnessPolicy {
    fn default() -> Self {
        FairnessPolicy {
            age_step: 64,
            reserved: [1, 1, 2],
        }
    }
}

impl FairnessPolicy {
    /// Strict priority order, no aging, no reserved slots — the
    /// pre-fleet behaviour, kept for comparison runs.
    pub fn strict() -> Self {
        FairnessPolicy {
            age_step: 0,
            reserved: [0, 0, 0],
        }
    }

    /// The tier an entry competes at after waiting `waited` ticks.
    fn effective_level(&self, tier: Tier, waited: u64) -> u64 {
        let base = tier.index() as u64;
        match waited.checked_div(self.age_step) {
            Some(promoted) => base.saturating_add(promoted),
            None => base,
        }
    }
}

/// FIFO queue bounded at `cap`, with tier-ordered displacement.
///
/// Entries are kept in admission order — equivalently, sorted by
/// `(queued_at, id)`, since arrivals are time-ordered — and every
/// operation preserves that invariant, which is what makes "oldest" and
/// "most recently queued" well-defined policies rather than accidents
/// of container layout.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    items: Vec<Pending>,
    cap: usize,
    peak: usize,
}

impl AdmissionQueue {
    /// Creates an empty queue bounded at `cap` entries (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        AdmissionQueue {
            items: Vec::with_capacity(cap),
            cap: cap.max(1),
            peak: 0,
        }
    }

    /// Rebuilds a queue from snapshotted parts, preserving admission
    /// order and the historical peak.
    pub(crate) fn from_parts(items: Vec<Pending>, cap: usize, peak: usize) -> Self {
        AdmissionQueue {
            items,
            cap: cap.max(1),
            peak,
        }
    }

    /// Configured capacity bound.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Queued entries in admission order (front is oldest).
    pub fn items(&self) -> &[Pending] {
        &self.items
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Deepest the queue has ever been.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Offers `request` at tick `now`.
    pub fn offer(&mut self, request: Request, now: u64) -> Admission {
        if self.items.len() < self.cap {
            self.items.push(Pending {
                request,
                queued_at: now,
            });
            self.peak = self.peak.max(self.items.len());
            return Admission::Accepted;
        }
        // Full: find the lowest-tier, most-recently-queued victim that is
        // *strictly* below the incoming tier. Equal tiers never displace
        // each other — that would just trade one miss for another while
        // losing FIFO fairness.
        let victim = self
            .items
            .iter()
            .enumerate()
            .filter(|(_, p)| p.request.tier < request.tier)
            .min_by_key(|(i, p)| (p.request.tier, Reverse(*i)))
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let evicted = self.items.remove(i);
                self.items.push(Pending {
                    request,
                    queued_at: now,
                });
                Admission::Displaced(evicted)
            }
            None => Admission::Rejected,
        }
    }

    /// Removes and returns up to `n` entries from the front (admission
    /// order), ignoring fairness — the raw FIFO drain.
    pub fn take(&mut self, n: usize) -> Vec<Pending> {
        let n = n.min(self.items.len());
        self.items.drain(..n).collect()
    }

    /// Removes and returns up to `n` entries for a dispatch round at
    /// tick `now`, honouring `fairness` (reserved slots first, then aged
    /// priority). The returned entries are in admission order.
    pub fn select(&mut self, n: usize, now: u64, fairness: &FairnessPolicy) -> Vec<Pending> {
        let n = n.min(self.items.len());
        if n == 0 {
            return Vec::new();
        }
        let mut chosen = vec![false; self.items.len()];
        let mut slots = n;
        // Phase 1: reserved slots, highest tier first (when slots run
        // short the safety-relevant guarantee wins), oldest first within
        // a tier.
        for tier in Tier::all().into_iter().rev() {
            let mut quota = fairness.reserved[tier.index()].min(slots);
            for (i, p) in self.items.iter().enumerate() {
                if quota == 0 {
                    break;
                }
                if !chosen[i] && p.request.tier == tier {
                    chosen[i] = true;
                    quota -= 1;
                    slots -= 1;
                }
            }
        }
        // Phase 2: fill by aged priority; FIFO breaks ties.
        if slots > 0 {
            let mut rest: Vec<usize> = (0..self.items.len()).filter(|&i| !chosen[i]).collect();
            rest.sort_by_key(|&i| {
                let p = &self.items[i];
                let waited = now.saturating_sub(p.queued_at);
                (
                    Reverse(fairness.effective_level(p.request.tier, waited)),
                    p.queued_at,
                    p.request.id,
                )
            });
            for &i in rest.iter().take(slots) {
                chosen[i] = true;
            }
        }
        let mut selected = Vec::with_capacity(n);
        let mut kept = Vec::with_capacity(self.items.len() - n);
        for (i, p) in std::mem::take(&mut self.items).into_iter().enumerate() {
            if chosen[i] {
                selected.push(p);
            } else {
                kept.push(p);
            }
        }
        self.items = kept;
        selected
    }

    /// Returns entries a dispatch round could not place (every eligible
    /// member already at batch capacity) to the queue, restoring
    /// admission order. Their original `queued_at` is preserved, so
    /// aging keeps accruing.
    pub fn put_back(&mut self, pending: Vec<Pending>) {
        if pending.is_empty() {
            return;
        }
        self.items.extend(pending);
        self.items.sort_by_key(|p| (p.queued_at, p.request.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, tier: Tier) -> Request {
        Request::new(id, vec![0.0], tier, 1_000)
    }

    #[test]
    fn accepts_until_full_then_rejects_equal_tiers() {
        let mut q = AdmissionQueue::new(2);
        assert_eq!(q.offer(req(0, Tier::Low), 0), Admission::Accepted);
        assert_eq!(q.offer(req(1, Tier::Low), 1), Admission::Accepted);
        assert_eq!(q.offer(req(2, Tier::Low), 2), Admission::Rejected);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn displacement_evicts_lowest_tier_most_recent() {
        let mut q = AdmissionQueue::new(3);
        q.offer(req(0, Tier::Low), 0);
        q.offer(req(1, Tier::Medium), 1);
        q.offer(req(2, Tier::Low), 2);
        // High arrival: two Low entries are displaceable; the most
        // recently queued one (id 2) goes.
        match q.offer(req(3, Tier::High), 3) {
            Admission::Displaced(p) => assert_eq!(p.request.id, 2),
            other => panic!("expected displacement, got {other:?}"),
        }
        // Next High displaces the remaining Low, then the Medium.
        match q.offer(req(4, Tier::High), 4) {
            Admission::Displaced(p) => assert_eq!(p.request.id, 0),
            other => panic!("expected displacement, got {other:?}"),
        }
        match q.offer(req(5, Tier::High), 5) {
            Admission::Displaced(p) => assert_eq!(p.request.id, 1),
            other => panic!("expected displacement, got {other:?}"),
        }
        // All-High queue: nothing left to sacrifice.
        assert_eq!(q.offer(req(6, Tier::High), 6), Admission::Rejected);
        assert!(q.items().iter().all(|p| p.request.tier == Tier::High));
    }

    #[test]
    fn take_preserves_admission_order() {
        let mut q = AdmissionQueue::new(4);
        for i in 0..4 {
            q.offer(req(i, Tier::Medium), i);
        }
        let batch = q.take(3);
        assert_eq!(
            batch.iter().map(|p| p.request.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn strict_selection_is_priority_then_fifo() {
        let mut q = AdmissionQueue::new(8);
        q.offer(req(0, Tier::Low), 0);
        q.offer(req(1, Tier::High), 1);
        q.offer(req(2, Tier::Medium), 2);
        q.offer(req(3, Tier::High), 3);
        let batch = q.select(3, 10, &FairnessPolicy::strict());
        assert_eq!(
            batch.iter().map(|p| p.request.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "strict fairness picks by tier, FIFO within a tier"
        );
        assert_eq!(q.items()[0].request.id, 0);
    }

    #[test]
    fn reserved_slots_guarantee_low_tier_a_slice() {
        let mut q = AdmissionQueue::new(16);
        // Twelve High entries and one Low at the back.
        for i in 0..12 {
            q.offer(req(i, Tier::High), i);
        }
        q.offer(req(12, Tier::Low), 12);
        let fairness = FairnessPolicy {
            age_step: 0,
            reserved: [1, 0, 0],
        };
        let batch = q.select(4, 20, &fairness);
        assert!(
            batch.iter().any(|p| p.request.id == 12),
            "the reserved slot must carry the Low entry despite the High flood"
        );
        assert_eq!(batch.len(), 4);
        // The remaining slots went to the oldest High work.
        assert_eq!(
            batch.iter().map(|p| p.request.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 12]
        );
    }

    #[test]
    fn aging_promotes_waiting_low_tier_work() {
        let mut q = AdmissionQueue::new(8);
        q.offer(req(0, Tier::Low), 0);
        // Fresh High arrivals much later.
        q.offer(req(1, Tier::High), 200);
        q.offer(req(2, Tier::High), 200);
        let fairness = FairnessPolicy {
            age_step: 50,
            reserved: [0, 0, 0],
        };
        // At tick 200 the Low entry has waited 200 ticks = 4 promotions:
        // effective level 4 beats the fresh Highs' 2.
        let batch = q.select(1, 200, &fairness);
        assert_eq!(batch[0].request.id, 0, "aged Low must outrank fresh High");
        // Without aging the fresh High wins.
        let mut q = AdmissionQueue::new(8);
        q.offer(req(0, Tier::Low), 0);
        q.offer(req(1, Tier::High), 200);
        let batch = q.select(1, 200, &FairnessPolicy::strict());
        assert_eq!(batch[0].request.id, 1);
    }

    #[test]
    fn put_back_restores_admission_order() {
        let mut q = AdmissionQueue::new(8);
        for i in 0..4 {
            q.offer(req(i, Tier::Medium), i);
        }
        let mut batch = q.select(3, 10, &FairnessPolicy::default());
        assert_eq!(q.len(), 1);
        // Return two of the three; the queue must interleave them back
        // into (queued_at, id) order.
        batch.remove(0);
        q.put_back(batch);
        assert_eq!(
            q.items().iter().map(|p| p.request.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }
}

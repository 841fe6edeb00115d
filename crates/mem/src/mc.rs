//! FR-FCFS memory controller.
//!
//! First-Ready, First-Come-First-Served (Table I): each cycle the controller
//! issues at most one queued request to its DRAM channel, preferring the
//! oldest *row-hit* request whose bank can take a command, and falling back
//! to the oldest request with a free bank. Completed loads are returned to
//! the caller at their data-completion cycle; stores consume bandwidth but
//! produce no response.
//!
//! The queue is a fixed slab of `capacity` entries threaded into one FIFO
//! per bank, each entry stamped with its arrival number. Bank readiness and
//! the open row depend only on the bank, so the oldest row hit over free
//! banks is the oldest of each free bank's first row hit, and the oldest
//! request over free banks is the oldest of their heads: the pick costs
//! O(banks) and equals the first match of an arrival-order queue scan.
//!
//! The controller also owns the per-application accounting the paper's
//! designated-partition sampling reads: useful bytes transferred (attained
//! bandwidth) and row-buffer hit/miss counts.

use crate::dram::DramChannel;
use crate::req::{AccessKind, MemRequest};
use gpu_types::{AppId, Histogram, LINE_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-application DRAM-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McCounters {
    /// Useful data bytes transferred over the DRAM interface.
    pub dram_bytes: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required activating a row.
    pub row_misses: u64,
}

#[derive(Debug)]
struct InFlight {
    done_at: u64,
    seq: u64,
    req: MemRequest,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.done_at, self.seq) == (other.done_at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.done_at, self.seq).cmp(&(other.done_at, other.seq))
    }
}

/// The null link of the slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// One slab entry: a queued request, linked into its bank's FIFO (or, when
/// vacant, into the free list through `next`).
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    row: u64,
    /// Arrival cycle, recorded so the metrics layer can attribute the full
    /// queue-to-data latency (`done_at - at`) when the request is issued.
    at: u64,
    /// Arrival number: FR-FCFS age order across banks.
    arrival: u64,
    bank: u32,
    prev: u32,
    next: u32,
}

/// One bank's FIFO of slab indices, oldest first.
#[derive(Debug, Clone, Copy)]
struct BankFifo {
    head: u32,
    tail: u32,
    /// The oldest entry whose row the bank has open, if any. The open row
    /// changes only when this controller issues to the bank, which
    /// recomputes it; a push can only supply the first hit.
    hit: u32,
}

impl BankFifo {
    const EMPTY: BankFifo = BankFifo {
        head: NIL,
        tail: NIL,
        hit: NIL,
    };
}

/// An FR-FCFS controller fronting one [`DramChannel`].
///
/// The controller caches bank state it read from the channel (each bank's
/// first row hit and the issue horizon), so every call must pass the same
/// channel, and only this controller may issue to it.
#[derive(Debug)]
pub struct MemoryController {
    /// Queue entries, grown on demand up to `capacity` and then reused.
    slab: Vec<Queued>,
    /// Head of the vacant-entry list.
    free: u32,
    /// Per-bank FIFOs over `slab` (indexed by bank, grown on demand).
    banks: Vec<BankFifo>,
    /// Requests queued across all banks.
    len: usize,
    /// Arrival number of the next pushed request.
    arrivals: u64,
    /// Minimum `bank_busy_until` over the banks with queued requests
    /// (`u64::MAX` when the queue is empty): no request can issue before
    /// it. Bank state changes only on this controller's issues, so it is
    /// exact between them.
    horizon: u64,
    capacity: usize,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    counters: Vec<McCounters>,
    /// When true, per-app request-latency histograms are recorded at issue
    /// time; off by default so the hot path stays within noise.
    metrics: bool,
    latency: Vec<Histogram>,
}

impl MemoryController {
    /// Creates a controller with a request queue of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the slab's 32-bit
    /// links.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "controller queue capacity must be non-zero");
        assert!(
            u32::try_from(capacity).is_ok_and(|c| c < NIL),
            "controller queue capacity must fit the slab's 32-bit links"
        );
        MemoryController {
            slab: Vec::new(),
            free: NIL,
            banks: Vec::new(),
            len: 0,
            arrivals: 0,
            horizon: u64::MAX,
            capacity,
            in_flight: BinaryHeap::new(),
            seq: 0,
            counters: Vec::new(),
            metrics: false,
            latency: Vec::new(),
        }
    }

    /// Enables or disables request-latency recording.  Gated exactly like
    /// `TraceSink::enabled()`: when off (the default), the only cost on
    /// the hot path is one untaken branch per issue.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics = on;
    }

    /// True when another request can be enqueued.
    pub fn can_accept(&self) -> bool {
        self.len < self.capacity
    }

    /// Enqueues a request arriving at cycle `now`. The bank/row decode
    /// happens once here so the per-cycle FR-FCFS pick is division-free.
    ///
    /// # Errors
    ///
    /// Returns the request back when the queue is full.
    pub fn push_with(
        &mut self,
        req: MemRequest,
        dram: &DramChannel,
        now: u64,
    ) -> Result<(), MemRequest> {
        if !self.can_accept() {
            return Err(req);
        }
        let bank = dram.bank_of(req.addr);
        let row = dram.row_of(req.addr);
        if self.banks.len() <= bank {
            self.banks.resize(bank + 1, BankFifo::EMPTY);
        }
        let tail = self.banks[bank].tail;
        let entry = Queued {
            req,
            row,
            at: now,
            arrival: self.arrivals,
            bank: bank as u32,
            prev: tail,
            next: NIL,
        };
        self.arrivals += 1;
        let i = if self.free == NIL {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = entry;
            i
        };
        let fifo = &mut self.banks[bank];
        if tail == NIL {
            fifo.head = i;
        } else {
            self.slab[tail as usize].next = i;
        }
        fifo.tail = i;
        if fifo.hit == NIL && dram.row_open(bank, row) {
            fifo.hit = i;
        }
        self.len += 1;
        self.horizon = self.horizon.min(dram.bank_busy_until(bank));
        Ok(())
    }

    /// Unlinks slab entry `i` from its bank's FIFO onto the free list.
    fn remove(&mut self, i: u32) -> Queued {
        let q = self.slab[i as usize];
        let fifo = &mut self.banks[q.bank as usize];
        if q.prev == NIL {
            fifo.head = q.next;
        } else {
            self.slab[q.prev as usize].next = q.next;
        }
        if q.next == NIL {
            fifo.tail = q.prev;
        } else {
            self.slab[q.next as usize].prev = q.prev;
        }
        self.slab[i as usize].next = self.free;
        self.free = i;
        self.len -= 1;
        q
    }

    /// The oldest entry of `bank`'s FIFO whose row is open, by walking it.
    fn first_hit(&self, bank: usize, dram: &DramChannel) -> u32 {
        let mut i = self.banks[bank].head;
        while i != NIL && !dram.row_open(bank, self.slab[i as usize].row) {
            i = self.slab[i as usize].next;
        }
        i
    }

    fn counters_mut(&mut self, app: AppId) -> &mut McCounters {
        if self.counters.len() <= app.index() {
            self.counters.resize(app.index() + 1, McCounters::default());
        }
        &mut self.counters[app.index()]
    }

    /// FR-FCFS issue: forwards at most one queued request to `dram` —
    /// the oldest row hit over free banks, else the oldest head over free
    /// banks. Returns at once before the cached issue horizon.
    fn issue_one(&mut self, now: u64, dram: &mut DramChannel) {
        if now < self.horizon {
            return;
        }
        // (arrival, slab index) of the oldest row hit and oldest head.
        let mut hit: Option<(u64, u32)> = None;
        let mut head: Option<(u64, u32)> = None;
        for (bank, fifo) in self.banks.iter().enumerate() {
            if fifo.head == NIL || !dram.bank_free_idx(bank, now) {
                continue;
            }
            for (best, i) in [(&mut hit, fifo.hit), (&mut head, fifo.head)] {
                if i != NIL {
                    let arrival = self.slab[i as usize].arrival;
                    if best.is_none_or(|(a, _)| arrival < a) {
                        *best = Some((arrival, i));
                    }
                }
            }
        }
        let (_, i) = hit
            .or(head)
            .expect("a queued bank is free once the issue horizon has passed");
        let q = self.remove(i);
        let bank = q.bank as usize;
        let req = q.req;
        let svc = dram.service_at(bank, q.row, now);
        self.banks[bank].hit = self.first_hit(bank, dram);
        self.horizon = self
            .banks
            .iter()
            .enumerate()
            .filter(|(_, f)| f.head != NIL)
            .map(|(b, _)| dram.bank_busy_until(b))
            .min()
            .unwrap_or(u64::MAX);
        if self.metrics {
            let app = req.app.index();
            if self.latency.len() <= app {
                self.latency.resize(app + 1, Histogram::new());
            }
            self.latency[app].record(svc.done_at.saturating_sub(q.at));
        }
        let c = self.counters_mut(req.app);
        c.dram_bytes += LINE_SIZE;
        if svc.row_hit {
            c.row_hits += 1;
        } else {
            c.row_misses += 1;
        }
        if req.kind == AccessKind::Load {
            self.seq += 1;
            self.in_flight.push(Reverse(InFlight {
                done_at: svc.done_at,
                seq: self.seq,
                req,
            }));
        }
    }

    /// Advances one cycle: possibly issues one request to `dram` (FR-FCFS)
    /// and appends the loads whose data completed at or before `now` to
    /// `done`. This is the allocation-free hot-path form; the caller owns
    /// and reuses the buffer.
    pub fn step_into(&mut self, now: u64, dram: &mut DramChannel, done: &mut Vec<MemRequest>) {
        self.issue_one(now, dram);
        while matches!(self.in_flight.peek(), Some(Reverse(f)) if f.done_at <= now) {
            done.push(self.in_flight.pop().expect("peeked").0.req);
        }
    }

    /// Advances one cycle and returns the completed loads. Allocating
    /// wrapper over [`MemoryController::step_into`], kept for tests and the
    /// reference engine.
    pub fn step(&mut self, now: u64, dram: &mut DramChannel) -> Vec<MemRequest> {
        let mut done = Vec::new();
        self.step_into(now, dram, &mut done);
        done
    }

    /// Earliest cycle at which an issued load's data completes, if any —
    /// the partition's quiescence check reads this to find the next event.
    pub fn next_completion(&self) -> Option<u64> {
        self.in_flight.peek().map(|Reverse(f)| f.done_at)
    }

    /// The earliest cycle `>= from` at which a queued request could issue:
    /// the minimum `busy_until` over the banks the queued requests target,
    /// clamped to `from` (`u64::MAX` when the queue is empty). Banks only
    /// change state when this controller issues to them, so the horizon is
    /// exact between steps — this is the controller's "next event at"
    /// contract for the event engine. O(1): the horizon is cached.
    pub fn next_issue_at(&self, from: u64) -> u64 {
        self.horizon.max(from)
    }

    /// Per-application counters (zero for apps never seen).
    pub fn counters(&self, app: AppId) -> McCounters {
        self.counters.get(app.index()).copied().unwrap_or_default()
    }

    /// Returns and resets the queue-to-data latency histogram accumulated
    /// for `app` since the last take (empty unless metrics recording is
    /// enabled via [`MemoryController::set_metrics_enabled`]).
    pub fn take_latency(&mut self, app: AppId) -> Histogram {
        self.latency
            .get_mut(app.index())
            .map(Histogram::take)
            .unwrap_or_default()
    }

    /// Requests waiting to be issued.
    pub fn queued(&self) -> usize {
        self.len
    }

    /// Loads issued to DRAM whose data has not yet returned.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// True when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.len == 0 && self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqId;
    use gpu_types::addr::INTERLEAVE_BYTES;
    use gpu_types::{Address, CoreId, DramConfig};

    fn dram() -> DramChannel {
        DramChannel::new(
            DramConfig {
                n_banks: 8,
                n_bank_groups: 4,
                row_bytes: 1024,
                t_cl: 12,
                t_rp: 12,
                t_rcd: 12,
                t_ras: 28,
                t_ccd_l: 4,
                t_ccd_s: 2,
                t_rrd: 6,
                burst_cycles: 4,
                page_policy: gpu_types::PagePolicy::Open,
            },
            1,
        )
    }

    fn load(id: u64, chunk: u64) -> MemRequest {
        MemRequest::new(
            ReqId(id),
            AppId::new(0),
            CoreId(0),
            0,
            Address::new(chunk * INTERLEAVE_BYTES),
            AccessKind::Load,
        )
    }

    fn run_until_idle(mc: &mut MemoryController, dram: &mut DramChannel) -> Vec<(u64, MemRequest)> {
        let mut out = Vec::new();
        let mut now = 0;
        while !mc.is_idle() {
            for r in mc.step(now, dram) {
                out.push((now, r));
            }
            now += 1;
            assert!(now < 100_000, "controller failed to drain");
        }
        out
    }

    #[test]
    fn single_load_round_trips() {
        let mut mc = MemoryController::new(8);
        let mut ch = dram();
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        let done = run_until_idle(&mut mc, &mut ch);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.id, ReqId(1));
        let k = mc.counters(AppId::new(0));
        assert_eq!(k.dram_bytes, LINE_SIZE);
        assert_eq!((k.row_hits, k.row_misses), (0, 1));
    }

    #[test]
    fn stores_complete_without_response() {
        let mut mc = MemoryController::new(8);
        let mut ch = dram();
        let mut st = load(1, 0);
        st.kind = AccessKind::Store;
        mc.push_with(st, &ch, 0).unwrap();
        let done = run_until_idle(&mut mc, &mut ch);
        assert!(done.is_empty());
        assert_eq!(mc.counters(AppId::new(0)).dram_bytes, LINE_SIZE);
    }

    #[test]
    fn row_hits_are_prioritized_over_older_conflicts() {
        let mut mc = MemoryController::new(8);
        let mut ch = dram();
        // Open bank 0 row 0 (chunks 0..4 are row 0 of bank 0; with 8 banks
        // and 4 chunks per row, chunk 32 is bank 0 row 1).
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        let mut now = 0;
        let mut done = Vec::new();
        while done.is_empty() {
            done.extend(mc.step(now, &mut ch));
            now += 1;
            assert!(now < 1000, "first load never completed");
        }
        // Enqueue an older row-conflict (bank 0 row 1) and a younger row-hit
        // (bank 0 row 0) on the same, now-free bank.
        mc.push_with(load(2, 32), &ch, now).unwrap();
        mc.push_with(load(3, 1), &ch, now).unwrap();
        let mut order = Vec::new();
        while !mc.is_idle() {
            order.extend(mc.step(now, &mut ch).into_iter().map(|r| r.id));
            now += 1;
            assert!(now < 10_000, "controller failed to drain");
        }
        assert_eq!(
            order,
            vec![ReqId(3), ReqId(2)],
            "row-hit request must be served first"
        );
        let k = mc.counters(AppId::new(0));
        assert_eq!(k.row_hits, 1);
        assert_eq!(k.row_misses, 2);
    }

    #[test]
    fn queue_capacity_backpressures() {
        let mut mc = MemoryController::new(2);
        let ch = dram();
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        mc.push_with(load(2, 1), &ch, 0).unwrap();
        assert!(!mc.can_accept());
        assert!(mc.push_with(load(3, 2), &ch, 0).is_err());
    }

    #[test]
    fn per_app_bandwidth_attribution() {
        let mut mc = MemoryController::new(8);
        let mut ch = dram();
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        let mut r2 = load(2, 100);
        r2.app = AppId::new(1);
        mc.push_with(r2, &ch, 0).unwrap();
        run_until_idle(&mut mc, &mut ch);
        assert_eq!(mc.counters(AppId::new(0)).dram_bytes, LINE_SIZE);
        assert_eq!(mc.counters(AppId::new(1)).dram_bytes, LINE_SIZE);
    }

    #[test]
    fn completions_preserve_data_order_per_bank_stream() {
        let mut mc = MemoryController::new(16);
        let mut ch = dram();
        for i in 0..8 {
            mc.push_with(load(i, i / 2), &ch, 0).unwrap(); // 2 lines per chunk; one row
        }
        let done = run_until_idle(&mut mc, &mut ch);
        assert_eq!(done.len(), 8);
        // Same row, same bank: FR-FCFS serves them oldest-first.
        let ids: Vec<u64> = done.iter().map(|(_, r)| r.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn latency_histogram_gated_and_taken() {
        let mut mc = MemoryController::new(8);
        let mut ch = dram();
        // Disabled (default): nothing recorded.
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        run_until_idle(&mut mc, &mut ch);
        assert!(mc.take_latency(AppId::new(0)).is_empty());
        // Enabled: both loads and stores are attributed, and take() resets.
        mc.set_metrics_enabled(true);
        mc.push_with(load(2, 0), &ch, 0).unwrap();
        let mut st = load(3, 1);
        st.kind = AccessKind::Store;
        mc.push_with(st, &ch, 0).unwrap();
        run_until_idle(&mut mc, &mut ch);
        let h = mc.take_latency(AppId::new(0));
        assert_eq!(h.count(), 2);
        assert!(h.min() > 0, "queue-to-data latency must be positive");
        assert!(mc.take_latency(AppId::new(0)).is_empty());
    }

    /// The queue-scan definition of the issue horizon that the cached
    /// horizon replaces: min `busy_until` over every queued request's bank,
    /// clamped to `from`. Walks every bank FIFO entry by entry.
    fn scan_next_issue_at(mc: &MemoryController, dram: &DramChannel, from: u64) -> u64 {
        let mut next = u64::MAX;
        for fifo in &mc.banks {
            let mut i = fifo.head;
            while i != NIL {
                let q = &mc.slab[i as usize];
                let t = dram.bank_busy_until(q.bank as usize);
                if t <= from {
                    return from;
                }
                next = next.min(t);
                i = q.next;
            }
        }
        next
    }

    #[test]
    fn issue_horizon_matches_queue_scan() {
        let mut rng = gpu_types::SplitMix64::new(0x3C_0001);
        for _ in 0..64 {
            let mut mc = MemoryController::new(1 + rng.next_below(16) as usize);
            let mut ch = dram();
            let mut done = Vec::new();
            let mut now = 0;
            for id in 0..400 {
                // Bursts of pushes fill the queue; idle gaps let it drain.
                for _ in 0..rng.next_below(3) {
                    let _ = mc.push_with(load(id, rng.next_below(256)), &ch, now);
                }
                for from in [now, now + 1, now + 40] {
                    assert_eq!(
                        mc.next_issue_at(from),
                        scan_next_issue_at(&mc, &ch, from),
                        "horizon diverged at cycle {now} (from {from})"
                    );
                }
                mc.step_into(now, &mut ch, &mut done);
                now += 1 + rng.next_below(4);
            }
        }
    }
}

//! Property-based tests over the memory-system substrate.
//!
//! These check conservation and ordering invariants that must hold for *any*
//! request stream — the cycle-level simulator on top silently depends on all
//! of them.
//!
//! Cases are generated with the in-repo [`SplitMix64`] generator (fixed
//! seeds, so failures reproduce exactly) — the build must work fully
//! offline.

use gpu_mem::cache::{Cache, Lookup};
use gpu_mem::dram::DramChannel;
use gpu_mem::mc::{McCounters, MemoryController};
use gpu_mem::req::{AccessKind, MemRequest, ReqId};
use gpu_mem::xbar::Crossbar;
use gpu_types::{Address, AppId, CacheConfig, CoreId, DramConfig, SplitMix64, LINE_SIZE};
use std::collections::HashSet;

const CASES: usize = 128;

fn cache_cfg() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 2048,
        associativity: 4,
        mshr_entries: 8,
        mshr_merge: 4,
        hit_latency: 1,
    }
}

fn dram_cfg() -> DramConfig {
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
    }
}

fn arb_vec(rng: &mut SplitMix64, bound: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    let len = min_len + rng.next_below(max_len - min_len);
    (0..len).map(|_| rng.next_below(bound)).collect()
}

/// Every load either hits, misses (fresh or merged) or stalls, and the
/// number of responses eventually released equals the number of
/// non-stalled misses; hits never have outstanding state.
#[test]
fn cache_conserves_requests() {
    let mut rng = SplitMix64::new(0x3E3_0001);
    for _ in 0..CASES {
        let lines = arb_vec(&mut rng, 64, 1, 200);
        let mut cache = Cache::new(&cache_cfg(), 1);
        let app = AppId::new(0);
        let mut outstanding: Vec<u64> = Vec::new(); // distinct miss lines
        let mut expected_releases = 0usize;
        let mut released = 0usize;
        let mut hits = 0usize;
        let mut fresh = 0usize;
        let mut merged = 0usize;
        for (i, &l) in lines.iter().enumerate() {
            let line = Address::new(l * LINE_SIZE);
            match cache.access_load(app, line, ReqId(i as u64)) {
                Lookup::Hit => hits += 1,
                Lookup::MissToLower => {
                    outstanding.push(l);
                    fresh += 1;
                    expected_releases += 1;
                }
                Lookup::MissMerged => {
                    merged += 1;
                    expected_releases += 1;
                }
                Lookup::Stall => {
                    // Drain one outstanding line to make room, then retry
                    // is legal; here we simply drop the access (a stall is
                    // not an access).
                    if let Some(f) = outstanding.first().copied() {
                        released += cache.fill(Address::new(f * LINE_SIZE)).len();
                        outstanding.remove(0);
                    }
                }
            }
        }
        for l in outstanding {
            released += cache.fill(Address::new(l * LINE_SIZE)).len();
        }
        assert_eq!(released, expected_releases);
        let k = cache.counters(app);
        assert_eq!(k.accesses as usize, hits + expected_releases);
        assert_eq!(
            k.misses as usize, fresh,
            "only fresh misses fetch downstream"
        );
        assert_eq!(k.merged as usize, merged);
        assert!(cache.outstanding_misses() == 0);
    }
}

/// After any fill sequence, the number of distinct resident lines per set
/// never exceeds the associativity (probed indirectly: filling `assoc`
/// fresh lines into one set must evict something).
#[test]
fn cache_respects_capacity() {
    let mut rng = SplitMix64::new(0x3E3_0002);
    for _ in 0..CASES {
        let seed_lines = arb_vec(&mut rng, 256, 1, 100);
        let cfg = cache_cfg();
        let n_sets = cfg.n_sets() as u64;
        let mut cache = Cache::new(&cfg, 1);
        for (i, &l) in seed_lines.iter().enumerate() {
            let line = Address::new(l * LINE_SIZE);
            if cache.access_load(AppId::new(0), line, ReqId(i as u64)) == Lookup::MissToLower {
                cache.fill(line);
            }
        }
        // Count resident lines of set 0 among all possible tags we used.
        let resident = (0u64..256)
            .filter(|l| l % n_sets == 0)
            .filter(|&l| cache.probe(Address::new(l * LINE_SIZE)))
            .count();
        assert!(
            resident <= cfg.associativity,
            "set 0 holds {} lines > associativity {}",
            resident,
            cfg.associativity
        );
    }
}

/// The crossbar neither drops nor duplicates payloads, and every payload
/// arrives at its destination no earlier than `latency` cycles after
/// injection.
#[test]
fn crossbar_conserves_payloads() {
    let mut rng = SplitMix64::new(0x3E3_0003);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(99) as usize;
        let flits: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.next_below(4) as usize, rng.next_below(3) as usize))
            .collect();
        let latency = rng.next_below(8);
        let mut x: Crossbar<usize> = Crossbar::new(4, 3, latency, 1, 4);
        let mut sent: Vec<(usize, u64)> = Vec::new(); // (payload, sent_at)
        let mut received: Vec<(usize, usize, u64)> = Vec::new(); // (payload, port, at)
        let mut pending: Vec<(usize, usize)> = flits.clone();
        let mut now = 0u64;
        let mut payload_counter = 0usize;
        while !pending.is_empty() || x.in_flight() > 0 {
            // Try to inject the next pending flit.
            if let Some(&(input, dest)) = pending.first() {
                if x.push(input, dest, payload_counter, now).is_ok() {
                    sent.push((payload_counter, now));
                    payload_counter += 1;
                    pending.remove(0);
                }
            }
            for (port, p) in x.step(now) {
                received.push((p, port, now));
            }
            now += 1;
            assert!(now < 10_000, "crossbar failed to drain");
        }
        assert_eq!(received.len(), sent.len());
        let ids: HashSet<usize> = received.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(ids.len(), sent.len(), "duplicated payloads");
        for &(p, port, at) in &received {
            let (_, sent_at) = sent[p];
            assert!(at >= sent_at + latency, "payload {} beat the latency", p);
            assert_eq!(port, flits[p].1, "payload {} misrouted", p);
        }
    }
}

/// DRAM service times move forward: each successive service's completion
/// is strictly later than the previous one (shared bus), and a row hit is
/// never slower than the row miss that opened the row, issued at the same
/// relative state.
#[test]
fn dram_completions_progress() {
    let mut rng = SplitMix64::new(0x3E3_0004);
    for _ in 0..CASES {
        let chunks = arb_vec(&mut rng, 512, 1, 100);
        let mut ch = DramChannel::new(dram_cfg(), 1);
        let mut prev_done = 0u64;
        for (now, &c) in chunks.iter().enumerate() {
            let addr = Address::new(c * 256);
            let svc = ch.service(addr, now as u64);
            assert!(svc.done_at > prev_done, "bus must serialize bursts");
            assert!(svc.done_at > now as u64);
            prev_done = svc.done_at;
        }
    }
}

/// The FR-FCFS controller completes every load exactly once, regardless
/// of the address mix.
#[test]
fn controller_conserves_loads() {
    let mut rng = SplitMix64::new(0x3E3_0005);
    for _ in 0..CASES {
        let chunks = arb_vec(&mut rng, 128, 1, 64);
        let mut mc = MemoryController::new(64);
        let mut ch = DramChannel::new(dram_cfg(), 1);
        let mut pending: Vec<MemRequest> = chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                MemRequest::new(
                    ReqId(i as u64),
                    AppId::new((i % 2) as u8),
                    CoreId(0),
                    0,
                    Address::new(c * 256),
                    AccessKind::Load,
                )
            })
            .collect();
        let total = pending.len();
        let mut done: Vec<ReqId> = Vec::new();
        let mut now = 0u64;
        while done.len() < total {
            if let Some(req) = pending.first().copied() {
                if mc.push_with(req, &ch, now).is_ok() {
                    pending.remove(0);
                }
            }
            done.extend(mc.step(now, &mut ch).into_iter().map(|r| r.id));
            now += 1;
            assert!(now < 200_000, "controller failed to drain");
        }
        let unique: HashSet<ReqId> = done.iter().copied().collect();
        assert_eq!(unique.len(), total);
        // Attribution: bytes split across the two apps must sum to the total.
        let b0 = mc.counters(AppId::new(0)).dram_bytes;
        let b1 = mc.counters(AppId::new(1)).dram_bytes;
        assert_eq!(b0 + b1, total as u64 * LINE_SIZE);
    }
}

/// The hot-path arbitration (`step_routed`, which `step_with` wraps) makes
/// exactly the grants of the reference `Crossbar::step`, in the same order,
/// from the same ports, every cycle — at the Volta shapes (80 cores × 16
/// partitions and back), above 128 inputs (multi-word contender masks and
/// round-robin wrap-around), at 1–3 grants per output, with and without
/// wire latency.
#[test]
fn crossbar_arbitration_matches_reference() {
    let mut rng = SplitMix64::new(0x3E3_0006);
    for (n_in, n_out) in [(80, 16), (16, 80), (130, 3)] {
        for grants in 1..=3 {
            for latency in [0, 3] {
                let mut fast: Crossbar<(usize, u64)> =
                    Crossbar::new(n_in, n_out, latency, grants, 4);
                let mut reference: Crossbar<(usize, u64)> =
                    Crossbar::new(n_in, n_out, latency, grants, 4);
                // Per-case injection rate (in quarters) and a hot output
                // taking half the traffic, so outputs see more contenders
                // than they can grant.
                let rate = 1 + rng.next_below(4);
                let hot = rng.next_below(n_out as u64) as usize;
                for now in 0..300u64 {
                    for input in 0..n_in {
                        if rng.next_below(4) >= rate {
                            continue;
                        }
                        let dest = if rng.next_below(2) == 0 {
                            hot
                        } else {
                            rng.next_below(n_out as u64) as usize
                        };
                        let a = fast.push(input, dest, (input, now), now);
                        let b = reference.push(input, dest, (input, now), now);
                        assert_eq!(a.is_ok(), b.is_ok(), "admission diverged at cycle {now}");
                    }
                    let mut got = Vec::new();
                    fast.step_routed(now, |input, out, p| {
                        assert_eq!(input, p.0, "grant reported the wrong source port");
                        got.push((out, p));
                    });
                    assert_eq!(
                        got,
                        reference.step(now),
                        "{n_in}x{n_out} grants={grants} latency={latency}: divergence at cycle {now}"
                    );
                    assert_eq!(fast.in_flight(), reference.in_flight());
                }
            }
        }
    }
}

/// The FR-FCFS algorithm the per-bank controller replaced, kept as its
/// oracle: one arrival-ordered queue, scanned each cycle for the first
/// request whose bank is free and row open, else the first whose bank is
/// free.
struct ScanController {
    /// `(request, bank, row)` in arrival order.
    queue: std::collections::VecDeque<(MemRequest, usize, u64)>,
    capacity: usize,
    /// `(done_at, issue number)` of in-flight loads; `loads` by number.
    in_flight: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    loads: Vec<MemRequest>,
    counters: Vec<McCounters>,
}

impl ScanController {
    fn new(capacity: usize) -> Self {
        ScanController {
            queue: Default::default(),
            capacity,
            in_flight: Default::default(),
            loads: Vec::new(),
            counters: vec![McCounters::default(); 4],
        }
    }

    fn push(&mut self, req: MemRequest, dram: &DramChannel) -> bool {
        let ok = self.queue.len() < self.capacity;
        if ok {
            self.queue
                .push_back((req, dram.bank_of(req.addr), dram.row_of(req.addr)));
        }
        ok
    }

    fn step(&mut self, now: u64, dram: &mut DramChannel) -> Vec<MemRequest> {
        let free = |q: &(MemRequest, usize, u64)| dram.bank_free_idx(q.1, now);
        let pick = self
            .queue
            .iter()
            .position(|q| free(q) && dram.row_open(q.1, q.2))
            .or_else(|| self.queue.iter().position(free));
        if let Some(i) = pick {
            let (req, bank, row) = self.queue.remove(i).expect("picked index");
            let svc = dram.service_at(bank, row, now);
            let c = &mut self.counters[req.app.index()];
            c.dram_bytes += LINE_SIZE;
            if svc.row_hit {
                c.row_hits += 1;
            } else {
                c.row_misses += 1;
            }
            if req.kind == AccessKind::Load {
                self.in_flight
                    .push(std::cmp::Reverse((svc.done_at, self.loads.len())));
                self.loads.push(req);
            }
        }
        let mut done = Vec::new();
        while matches!(self.in_flight.peek(), Some(std::cmp::Reverse((t, _))) if *t <= now) {
            let std::cmp::Reverse((_, n)) = self.in_flight.pop().expect("peeked");
            done.push(self.loads[n]);
        }
        done
    }

    fn next_issue_at(&self, dram: &DramChannel, from: u64) -> u64 {
        self.queue
            .iter()
            .map(|q| dram.bank_busy_until(q.1).max(from))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// The per-bank FR-FCFS controller makes exactly the issues of the
/// arrival-order queue scan, cycle for cycle: over 8 and 16 banks, open and
/// closed pages, queue capacities 1 to 64, and mixed loads and stores from
/// four apps, with random arrival bursts and skipped cycles. Each side
/// drives its own channel, so issue order shows in the channels' full
/// state; completions, counters, queue depth and the issue horizon are
/// compared every cycle.
#[test]
fn controller_matches_queue_scan_reference() {
    let mut rng = SplitMix64::new(0x3E3_0007);
    for n_banks in [8, 16] {
        for page_policy in [gpu_types::PagePolicy::Open, gpu_types::PagePolicy::Closed] {
            for case in 0..24 {
                let capacity = if case == 0 {
                    64
                } else {
                    1 + rng.next_below(64) as usize
                };
                let cfg = DramConfig {
                    n_banks,
                    page_policy,
                    ..dram_cfg()
                };
                let mut mc = MemoryController::new(capacity);
                let mut reference = ScanController::new(capacity);
                let mut ch = DramChannel::new(cfg.clone(), 1);
                let mut ref_ch = DramChannel::new(cfg, 1);
                // Narrow address ranges make row hits and bank conflicts
                // common; wide ones spread requests over every bank.
                let span = [8, 64, 4096][rng.next_below(3) as usize];
                let burst = 1 + rng.next_below(4);
                let mut done = Vec::new();
                let mut now = 0u64;
                let mut id = 0u64;
                for _ in 0..600 {
                    for _ in 0..rng.next_below(burst + 1) {
                        id += 1;
                        let kind = if rng.next_below(3) == 0 {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        let req = MemRequest::new(
                            ReqId(id),
                            AppId::new(rng.next_below(4) as u8),
                            CoreId(0),
                            0,
                            Address::new(rng.next_below(span) * 256),
                            kind,
                        );
                        let ok = mc.push_with(req, &ch, now).is_ok();
                        assert_eq!(ok, reference.push(req, &ref_ch), "admission at {now}");
                    }
                    let ctx = format!("{n_banks} banks {page_policy:?} cap {capacity} cycle {now}");
                    for from in [now, now + 1, now + 40] {
                        assert_eq!(
                            mc.next_issue_at(from),
                            reference.next_issue_at(&ref_ch, from),
                            "{ctx}: issue horizon from {from}"
                        );
                    }
                    done.clear();
                    mc.step_into(now, &mut ch, &mut done);
                    assert_eq!(done, reference.step(now, &mut ref_ch), "{ctx}: completions");
                    assert_eq!(format!("{ch:?}"), format!("{ref_ch:?}"), "{ctx}: issues");
                    assert_eq!(mc.queued(), reference.queue.len(), "{ctx}: queue depth");
                    for a in 0..4u8 {
                        let app = AppId::new(a);
                        assert_eq!(
                            mc.counters(app),
                            reference.counters[app.index()],
                            "{ctx}: counters of app {a}"
                        );
                    }
                    // Mostly consecutive cycles, with occasional skips like
                    // the event engine's.
                    now += if rng.next_below(8) == 0 {
                        2 + rng.next_below(30)
                    } else {
                        1
                    };
                }
            }
        }
    }
}

//! Per-warp execution state.
//!
//! A warp slot is split in two. [`Warp`] is the compact issue state the
//! schedulers read every cycle: ALU latency, outstanding loads against the
//! tolerance, retirement, and a summary ([`Stashed`]) of the instruction
//! waiting in the warp's one-entry stash — enough to decide readiness and
//! the structural gate without touching the instruction itself.
//! [`InstBuffer`] is the bulky half: the instruction stream and the line
//! list of a stashed memory instruction, read only when that instruction
//! actually issues.

use crate::inst::{coalesce_capped, AddrList, Inst, InstStream};

/// The instruction waiting in a warp's stash, summarised for the issue gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stashed {
    /// Nothing stashed: the next issue attempt pulls from the stream.
    Empty,
    /// An ALU instruction occupying the warp for this many cycles.
    Alu(u32),
    /// A load needing this many line transactions (its coalesced,
    /// truncated line count, held in the warp's [`InstBuffer`]).
    Load(u8),
    /// A store needing this many line transactions.
    Store(u8),
}

/// A warp's issue state: everything the scheduler inspects every cycle.
#[derive(Debug, Clone, Copy)]
pub struct Warp {
    /// Earliest cycle the warp may issue again (ALU latency).
    ready_at: u64,
    /// Warp instructions issued (for per-warp diagnostics).
    issued: u64,
    /// Load transactions issued but not yet returned.
    inflight_loads: u32,
    /// Outstanding-load tolerance: once `inflight_loads` reaches this, the
    /// warp stalls until returns bring it back below. Models the dependency
    /// distance of the application's code — small values make it
    /// latency-bound, large values give memory-level parallelism.
    max_outstanding: u32,
    /// The instruction fetched but not yet issued (structural hazard).
    stashed: Stashed,
    /// The stream returned `None`; the warp has retired.
    finished: bool,
}

impl Warp {
    /// Creates a warp with the given outstanding-load tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `max_outstanding` is zero or does not fit in 32 bits.
    pub fn new(max_outstanding: usize) -> Self {
        assert!(
            max_outstanding > 0,
            "a warp must tolerate at least one outstanding load"
        );
        Warp {
            ready_at: 0,
            issued: 0,
            inflight_loads: 0,
            max_outstanding: u32::try_from(max_outstanding)
                .expect("outstanding-load tolerance fits in 32 bits"),
            stashed: Stashed::Empty,
            finished: false,
        }
    }

    /// True when the warp could issue an instruction at `now` (ignoring
    /// structural hazards, which the core checks separately).
    pub fn ready(&self, now: u64) -> bool {
        !self.finished && self.ready_at <= now && self.inflight_loads < self.max_outstanding
    }

    /// True when the warp is alive but blocked on outstanding loads.
    pub fn waiting_mem(&self) -> bool {
        !self.finished && self.inflight_loads >= self.max_outstanding
    }

    /// True when the warp has retired.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The stashed instruction's summary, leaving the stash empty. The
    /// core calls this when the stashed instruction issues.
    pub fn take_stash(&mut self) -> Stashed {
        std::mem::replace(&mut self.stashed, Stashed::Empty)
    }

    /// Records the issue of an ALU instruction taking `cycles`.
    pub fn issue_alu(&mut self, now: u64, cycles: u32) {
        self.issued += 1;
        self.ready_at = now + cycles.max(1) as u64;
    }

    /// Records the issue of a memory instruction that produced
    /// `transactions` in-flight loads (zero for stores and all-hit loads
    /// resolved instantly — though the core still routes hits through the
    /// in-flight path to model hit latency).
    pub fn issue_mem(&mut self, now: u64, transactions: usize) {
        self.issued += 1;
        self.ready_at = now + 1;
        self.inflight_loads +=
            u32::try_from(transactions).expect("at most a warp's width of lines");
    }

    /// One of this warp's load transactions returned.
    ///
    /// # Panics
    ///
    /// Panics if no loads were in flight (a routing bug in the caller).
    pub fn load_returned(&mut self) {
        assert!(
            self.inflight_loads > 0,
            "load return routed to a warp with none in flight"
        );
        self.inflight_loads -= 1;
    }

    /// Warp instructions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Earliest cycle the warp may issue again (ALU/issue latency). The
    /// core's quiescence tracking uses this to compute the next cycle at
    /// which any warp could become schedulable.
    pub fn next_ready_at(&self) -> u64 {
        self.ready_at
    }

    /// Loads currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight_loads as usize
    }
}

/// A warp's instruction stream and the line list of its stashed memory
/// instruction — the half of a warp slot the issue gate never reads.
pub struct InstBuffer {
    stream: Box<dyn InstStream>,
    /// Coalesced lines of the stashed memory instruction, truncated to the
    /// core's per-instruction transaction cap. Meaningful only while the
    /// warp's summary is [`Stashed::Load`] or [`Stashed::Store`].
    lines: AddrList,
    /// `CoreParams::max_txn_per_inst` of the owning core.
    max_txn: usize,
}

impl std::fmt::Debug for InstBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstBuffer")
            .field("lines", &self.lines)
            .field("max_txn", &self.max_txn)
            .finish()
    }
}

impl InstBuffer {
    /// Creates a buffer over `stream` whose memory instructions keep at
    /// most `max_txn` line transactions after coalescing.
    pub fn new(stream: Box<dyn InstStream>, max_txn: usize) -> Self {
        InstBuffer {
            stream,
            lines: AddrList::new(),
            max_txn,
        }
    }

    /// The stashed instruction's summary, first filling an empty stash
    /// from the stream; marks the warp finished when the stream ends (and
    /// returns [`Stashed::Empty`]). Only call when [`Warp::ready`].
    pub fn peek(&mut self, warp: &mut Warp) -> Stashed {
        if warp.stashed == Stashed::Empty {
            match self.stream.next_inst() {
                Some(inst) => self.stash(warp, inst),
                None => warp.finished = true,
            }
        }
        warp.stashed
    }

    /// Takes the stashed instruction, or else the stream's next one; marks
    /// the warp finished when the stream ends. Only call when
    /// [`Warp::ready`]. A stashed memory instruction comes back with its
    /// coalesced line list as its addresses; coalescing that list again
    /// returns it unchanged.
    pub fn fetch(&mut self, warp: &mut Warp) -> Option<Inst> {
        match warp.take_stash() {
            Stashed::Empty => {
                let inst = self.stream.next_inst();
                warp.finished = inst.is_none();
                inst
            }
            Stashed::Alu(cycles) => Some(Inst::Alu { cycles }),
            Stashed::Load(_) => Some(Inst::Load { addrs: self.lines }),
            Stashed::Store(_) => Some(Inst::Store { addrs: self.lines }),
        }
    }

    /// Puts `inst` into the warp's empty stash. A memory instruction is
    /// coalesced here, once: the buffer keeps its line list, truncated to
    /// the transaction cap, and the warp's summary its line count.
    pub fn stash(&mut self, warp: &mut Warp, inst: Inst) {
        debug_assert_eq!(warp.stashed, Stashed::Empty, "double stash");
        warp.stashed = match inst {
            Inst::Alu { cycles } => Stashed::Alu(cycles),
            Inst::Load { addrs } => {
                self.lines = coalesce_capped(&addrs, self.max_txn);
                Stashed::Load(self.lines.len() as u8)
            }
            Inst::Store { addrs } => {
                self.lines = coalesce_capped(&addrs, self.max_txn);
                Stashed::Store(self.lines.len() as u8)
            }
        };
    }

    /// The stashed memory instruction's line list.
    pub fn lines(&self) -> &AddrList {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::Scripted;
    use gpu_types::Address;

    fn warp_with(insts: Vec<Inst>, tol: usize) -> (Warp, InstBuffer) {
        (
            Warp::new(tol),
            InstBuffer::new(Box::new(Scripted::new(insts)), 32),
        )
    }

    #[test]
    fn alu_latency_blocks_reissue() {
        let (mut w, mut b) = warp_with(vec![Inst::Alu { cycles: 3 }], 1);
        assert!(w.ready(0));
        b.fetch(&mut w).unwrap();
        w.issue_alu(0, 3);
        assert!(!w.ready(2));
        assert!(w.ready(3));
    }

    #[test]
    fn outstanding_loads_block_at_tolerance() {
        let mut w = Warp::new(2);
        w.issue_mem(0, 1);
        assert!(w.ready(1), "one outstanding load below tolerance 2");
        w.issue_mem(1, 1);
        assert!(!w.ready(2));
        assert!(w.waiting_mem());
        w.load_returned();
        assert!(w.ready(2));
    }

    #[test]
    fn finished_when_stream_ends() {
        let (mut w, mut b) = warp_with(vec![Inst::alu1()], 1);
        assert!(b.fetch(&mut w).is_some());
        w.issue_alu(0, 1);
        assert!(b.fetch(&mut w).is_none());
        assert!(w.finished());
        assert!(!w.ready(100));
        let (mut w, mut b) = warp_with(vec![], 1);
        assert_eq!(b.peek(&mut w), Stashed::Empty);
        assert!(w.finished(), "peek retires the warp too");
    }

    #[test]
    fn issue_counts() {
        let (mut w, mut b) = warp_with(vec![Inst::alu1(), Inst::load1(0)], 4);
        b.fetch(&mut w).unwrap();
        w.issue_alu(0, 1);
        b.fetch(&mut w).unwrap();
        w.issue_mem(1, 3);
        assert_eq!(w.issued(), 2);
        assert_eq!(w.inflight(), 3);
    }

    #[test]
    fn stash_coalesces_once_and_truncates() {
        // Eight threads over four lines, capped at three transactions.
        let addrs: AddrList = (0..8).map(|i| Address::new((i % 4) * 128 + i)).collect();
        let mut w = Warp::new(1);
        let mut b = InstBuffer::new(
            Box::new(Scripted::new(vec![Inst::Load { addrs }, Inst::store1(5)])),
            3,
        );
        assert_eq!(b.peek(&mut w), Stashed::Load(3));
        let lines: Vec<Address> = (0..3).map(|i| Address::new(i * 128)).collect();
        assert_eq!(&b.lines()[..], &lines[..]);
        assert_eq!(b.peek(&mut w), Stashed::Load(3), "peek leaves the stash");
        // Fetching and re-stashing a coalesced list is idempotent.
        let inst = b.fetch(&mut w).unwrap();
        assert_eq!(w.take_stash(), Stashed::Empty);
        b.stash(&mut w, inst);
        assert_eq!(b.peek(&mut w), Stashed::Load(3));
        assert_eq!(&b.lines()[..], &lines[..]);
        assert_eq!(w.take_stash(), Stashed::Load(3));
        assert_eq!(b.peek(&mut w), Stashed::Store(1));
        assert_eq!(&b.lines()[..], &[Address::new(0)]);
    }

    #[test]
    #[should_panic(expected = "none in flight")]
    fn spurious_return_panics() {
        let mut w = Warp::new(1);
        w.load_returned();
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_tolerance_panics() {
        let _ = Warp::new(0);
    }
}

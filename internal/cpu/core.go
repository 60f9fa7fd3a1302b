// Package cpu implements the trace-driven out-of-order core model of
// Table III: a 192-entry reorder buffer, 4-wide fetch and retire, with
// memory operations occupying ROB entries until their data returns.
// This is the USIMM processor model: non-memory instructions retire at
// full width; long-latency memory operations stall retirement when they
// reach the ROB head, so IPC degrades exactly with memory latency.
package cpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/trace"
)

// Cycles matches dram.Cycles (avoided import to keep cpu free-standing).
type Cycles = int64

// Issuer is the memory-system entry point the core calls for each memory
// operation. It returns the cycle at which the operation's data is ready
// (reads) or the operation is accepted (writes, typically immediately).
type Issuer interface {
	Issue(coreID int, rec trace.Record, now Cycles) Cycles
}

// robEntry is a group of instructions in the reorder buffer. A plain
// entry (rate == 0) is a run that completes at a single cycle —
// non-memory runs are coalesced into weighted entries so the simulator
// does not pay per-instruction cost. A ramp entry (rate > 0) compresses
// a whole staircase of such runs: blocks of rate instructions completing
// at done, done+1, done+2, … (the front block may be partial after
// partial retirement). Ramps are only created by the closed-form
// fill/drain replays, which would otherwise push one ring entry per
// skipped cycle; every consumer treats a ramp exactly as the sequence of
// per-cycle entries it stands for, so the representation is invisible to
// simulated timing.
type robEntry struct {
	count int    // instructions represented
	done  Cycles // completion cycle (plain) / of the front block (ramp)
	rate  int    // 0: plain; >0: block width of the per-cycle staircase
	front int    // ramp only: instructions left in the front block
}

// blocks returns the number of virtual per-cycle entries e stands for.
// Every block behind the front one is exactly rate wide, so the division
// is exact; hot paths avoid even that (see retire).
func (e *robEntry) blocks() int {
	if e.rate == 0 {
		return 1
	}
	return 1 + (e.count-e.front)/e.rate
}

// rampAvail returns how many of a ramp's instructions have completed by
// cycle now (callers ensure e.done <= now): the front block plus every
// full block whose staircase cycle has passed.
func (e *robEntry) rampAvail(now Cycles) int {
	a := int64(e.front) + int64(e.rate)*(now-e.done)
	if a >= int64(e.count) {
		return e.count
	}
	return int(a)
}

// coreSlabRecords is the record slab size: one NextBatch refill per 256
// accesses replaces 256 interface dispatches (and, for synthetic
// streams, 256 per-record sampling calls) on the fetch path.
const coreSlabRecords = 256

// Core is one simulated core consuming a trace stream.
type Core struct {
	id    int
	cfg   config.Core
	batch trace.BatchStream
	issue Issuer

	// slab is the reusable record buffer fetch consumes by index;
	// slabPos/slabLen delimit the unconsumed records of the last refill.
	slab    []trace.Record
	slabPos int
	slabLen int

	rob      []robEntry
	head     int
	tail     int
	robCount int // virtual entries (a ramp counts once per block)
	robSlots int // physical ring slots occupied (<= robCount)
	robInstr int // instructions occupying the ROB

	gapLeft  int          // non-memory instructions awaiting fetch
	pending  trace.Record // memory op awaiting fetch
	havePend bool

	// fill/drain regime-length memoization: NextWork(now) computes
	// fillCycles/drainCycles for the core's current state, and the very
	// next Tick's replay asks the same question at the same reference
	// cycle with the state untouched in between. The memo keys on the
	// reference cycle and is dropped at the end of every Tick (the only
	// place core state mutates), so it is correctness-neutral.
	fillRef  Cycles
	fillVal  Cycles
	fillOK   bool
	drainRef Cycles
	drainVal Cycles
	drainOK  bool

	lastTick Cycles // cycle of the previous Tick (-1 before the first)

	retired     int64
	budget      int64
	finishCycle Cycles
	done        bool

	// Stats
	MemOps  int64
	regimes RegimeStats
}

// RegimeStats instruments the event-kernel batching: how many skipped
// cycles each closed-form regime replayed, how many were replayed by
// the per-cycle fallback loop (zero under the NextWork contract — the
// grid tests assert it), and how many Tick invocations the core saw.
// Purely host-side instrumentation: a cycle-stepped run reports only
// Ticks, so determinism checks must ignore these counters.
type RegimeStats struct {
	ComputeCycles int64 // replayed by advanceComputeStretch
	FillCycles    int64 // replayed by advanceFill
	DrainCycles   int64 // replayed by advanceDrain
	StallCycles   int64 // skipped as no-ops behind a blocked full-ROB head
	SteppedCycles int64 // replayed one cycle at a time (fallback)
	Ticks         int64 // Tick invocations
}

// Add accumulates o into s (used to sum per-core stats into a run total).
func (s *RegimeStats) Add(o RegimeStats) {
	s.ComputeCycles += o.ComputeCycles
	s.FillCycles += o.FillCycles
	s.DrainCycles += o.DrainCycles
	s.StallCycles += o.StallCycles
	s.SteppedCycles += o.SteppedCycles
	s.Ticks += o.Ticks
}

// BatchedCycles returns the cycles replayed or skipped in closed form.
func (s RegimeStats) BatchedCycles() int64 {
	return s.ComputeCycles + s.FillCycles + s.DrainCycles + s.StallCycles
}

// Mix formats the share of core-cycles each regime advanced, as the
// CLIs print it: "regime mix of N core-cycles: compute …%, …".
func (s RegimeStats) Mix() string {
	total := s.BatchedCycles() + s.SteppedCycles + s.Ticks
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	return fmt.Sprintf("regime mix of %d core-cycles: compute %.1f%%, fill %.1f%%, drain %.1f%%, stall %.1f%%, ticked %.1f%%, stepped %.1f%%",
		total, pct(s.ComputeCycles), pct(s.FillCycles), pct(s.DrainCycles), pct(s.StallCycles), pct(s.Ticks), pct(s.SteppedCycles))
}

// Regimes returns the core's batching instrumentation.
func (c *Core) Regimes() RegimeStats { return c.regimes }

// NewCore returns a core with the given instruction budget. Streams
// that implement trace.BatchStream are consumed through slab refills;
// any other Stream is adapted per-record via trace.Batched.
func NewCore(id int, cfg config.Core, stream trace.Stream, issue Issuer, budget int64) *Core {
	return &Core{
		id:       id,
		cfg:      cfg,
		batch:    trace.Batched(stream),
		slab:     make([]trace.Record, coreSlabRecords),
		issue:    issue,
		rob:      make([]robEntry, cfg.ROBSize+1),
		budget:   budget,
		lastTick: -1,
	}
}

// loadRecord copies the next trace record from the slab straight into
// c.pending (one Record copy per access, not two), refilling the slab
// when it runs dry. A BatchStream may legitimately return short batches
// (e.g. at memoized-chunk boundaries) but never zero for a non-empty
// slab.
func (c *Core) loadRecord() {
	if c.slabPos >= c.slabLen {
		n := c.batch.NextBatch(c.slab)
		if n <= 0 {
			panic("cpu: BatchStream.NextBatch returned no records for a non-empty slab")
		}
		c.slabPos, c.slabLen = 0, n
	}
	c.pending = c.slab[c.slabPos]
	c.slabPos++
	c.gapLeft = c.pending.Gap
	c.havePend = true
}

// Done reports whether the core has retired its instruction budget.
func (c *Core) Done() bool { return c.done }

// Retired returns the number of retired instructions.
func (c *Core) Retired() int64 { return c.retired }

// FinishCycle returns the cycle at which the budget was reached (valid
// once Done). Cores keep running after finishing (rate mode), but IPC is
// measured at the budget point.
func (c *Core) FinishCycle() Cycles { return c.finishCycle }

// IPC returns retired-instructions-per-cycle measured at the budget point.
func (c *Core) IPC() float64 {
	if c.finishCycle == 0 {
		return 0
	}
	return float64(c.budget) / float64(c.finishCycle)
}

func (c *Core) push(e robEntry) {
	c.rob[c.tail] = e
	if c.tail++; c.tail == len(c.rob) {
		c.tail = 0
	}
	c.robCount++
	c.robSlots++
	c.robInstr += e.count
}

// pushRamp appends a ramp of count instructions in blocks of rate
// completing at done, done+1, …. robCount grows by the virtual entry
// count, so every capacity and regime-length formula sees exactly the
// occupancy the equivalent per-cycle pushes would have produced (which
// also guarantees the ring itself can never overflow: physical slots
// used are always <= robCount, and robCount is capped by the same
// formulas as before).
func (c *Core) pushRamp(count int, done Cycles, rate int) {
	c.rob[c.tail] = robEntry{count: count, done: done, rate: rate, front: rate}
	if c.tail++; c.tail == len(c.rob) {
		c.tail = 0
	}
	c.robCount += count / rate // always a whole number of blocks at creation
	c.robSlots++
	c.robInstr += count
}

// Tick advances the core to cycle now. If cycles were skipped since the
// previous Tick (the event-driven kernel jumps straight between NextWork
// deadlines), their effect is replayed first — NextWork only ever
// advertises a deadline beyond now+1 when every skipped cycle is
// provably core-local, so the replay is exact. Then the core retires
// from the ROB head and fetches new instructions (issuing memory
// operations to the memory system) for cycle now itself.
//
// Regime map — every closed-form regime, its invariant, and the test
// that pins it:
//
//	ROB-full stall      skipped cycles are no-ops (head incomplete,
//	                    fetch blocked)            — TestEventTickedCoreMatchesCycleTicked
//	compute stretch     advanceComputeStretch     — TestComputeStretchIsBatched
//	fill toward full    advanceFill               — TestFillTowardFullMatchesCycleOracle, TestFillRegimeScheduleIsPinned
//	post-release drain  advanceDrain              — TestDrainAfterReleaseMatchesCycleOracle, TestDrainRegimeScheduleIsPinned
//
// TestGridRegimesNeverStepPerCycle asserts the fallback loop below the
// closed forms never runs on the oracle-grid workloads.
func (c *Core) Tick(now Cycles) {
	if now > c.lastTick+1 {
		c.replay(c.lastTick+1, now)
	}
	c.lastTick = now
	c.regimes.Ticks++
	c.retire(now)
	c.fetch(now)
	c.fillOK, c.drainOK = false, false
}

// fillCyclesAt and drainCyclesAt are the memoizing entry points for the
// regime-length computations (see the memo fields on Core).
func (c *Core) fillCyclesAt(ref Cycles) Cycles {
	if c.fillOK && c.fillRef == ref {
		return c.fillVal
	}
	v := c.fillCycles(ref)
	c.fillRef, c.fillVal, c.fillOK = ref, v, true
	return v
}

func (c *Core) drainCyclesAt(ref Cycles) Cycles {
	if c.drainOK && c.drainRef == ref {
		return c.drainVal
	}
	v := c.drainCycles(ref)
	c.drainRef, c.drainVal, c.drainOK = ref, v, true
	return v
}

// robFull reports whether fetch is blocked on ROB capacity (either
// instruction occupancy or ring slots).
func (c *Core) robFull() bool {
	return c.robInstr >= c.cfg.ROBSize || c.robCount >= len(c.rob)-1
}

// steadyCompute reports whether the core — in its state after ticking at
// cycle ref — is in a steady compute stretch: a long run of non-memory
// instructions is pending, everything resident in the ROB retires on the
// next tick, and retirement keeps pace with fetch. In this regime every
// subsequent tick retires exactly what the previous tick fetched and
// fetches FetchWidth more gap instructions, so the stretch's evolution
// is a closed-form function of its length (see advanceComputeStretch)
// and the next memory issue or budget crossing can be predicted.
func (c *Core) steadyCompute(ref Cycles) bool {
	w := c.cfg.FetchWidth
	if w > c.cfg.RetireWidth || c.cfg.ROBSize < 2*w {
		return false
	}
	if !c.havePend || c.gapLeft < 2*w || c.robInstr > c.cfg.RetireWidth {
		return false
	}
	for k, i := 0, c.head; k < c.robSlots; k++ {
		e := &c.rob[i]
		last := e.done
		if e.rate > 0 {
			last += Cycles(e.blocks() - 1) // a ramp's last block completes latest
		}
		if last > ref+1 {
			return false
		}
		if i++; i == len(c.rob) {
			i = 0
		}
	}
	return true
}

// stretchDoneTicks returns the number of steady-stretch ticks after
// which the retired count first reaches the budget: the first tick
// drains everything resident, each later tick retires FetchWidth.
func (c *Core) stretchDoneTicks() Cycles {
	need := c.budget - c.retired
	j := Cycles(1)
	if need > int64(c.robInstr) {
		w := int64(c.cfg.FetchWidth)
		j += Cycles((need - int64(c.robInstr) + w - 1) / w)
	}
	return j
}

// replay reproduces the combined effect of ticking every cycle in
// [from, to), using a closed form where the regime allows it. The event
// kernel only skips a cycle when NextWork proved the core cannot touch
// shared state there, which limits replay to four regimes: a full ROB
// stalled on its head entry (every skipped tick is a no-op), a steady
// compute stretch, a fill-toward-full stretch behind a blocked head,
// and a post-release drain streaming through completed entries.
func (c *Core) replay(from, to Cycles) {
	k := to - from
	if c.robFull() && c.robCount > 0 && c.rob[c.head].done >= to {
		// Fetch is blocked and NextWork woke us no later than the head
		// entry's completion cycle, so retirement was blocked throughout
		// the skipped range too: nothing to do.
		c.regimes.StallCycles += k
		return
	}
	if c.steadyCompute(from - 1) {
		c.regimes.ComputeCycles += k
		c.advanceComputeStretch(from, k)
		return
	}
	if k > 0 && c.fillCyclesAt(from-1) >= k {
		c.regimes.FillCycles += k
		c.advanceFill(from, k)
		return
	}
	if k > 0 && c.drainCyclesAt(from-1) >= k {
		c.regimes.DrainCycles += k
		c.advanceDrain(from, k)
		return
	}
	// Unreachable under the NextWork contract (it returns now+1 in every
	// other regime), but keeps Tick cycle-exact for any caller that
	// skips cycles on its own.
	c.regimes.SteppedCycles += k
	for cyc := from; cyc < to; cyc++ {
		c.retire(cyc)
		c.fetch(cyc)
	}
}

// advanceComputeStretch applies k (>=1) steady-compute ticks at cycles
// from .. from+k-1 in O(1): the first tick retires everything resident
// and each tick fetches FetchWidth gap instructions whose entry the next
// tick retires, leaving a single FetchWidth-entry completing at from+k.
func (c *Core) advanceComputeStretch(from, k Cycles) {
	w := c.cfg.FetchWidth
	retireTotal := int64(c.robInstr) + (int64(k)-1)*int64(w)
	if !c.done && c.retired+retireTotal >= c.budget {
		c.done = true
		c.finishCycle = from + c.stretchDoneTicks() - 1
	}
	c.retired += retireTotal
	c.gapLeft -= int(k) * w
	c.head = 0
	c.tail = 1
	c.rob[0] = robEntry{count: w, done: from + k}
	c.robCount = 1
	c.robSlots = 1
	c.robInstr = w
}

// fillCycles returns how many consecutive cycles after ref are pure
// fill-toward-full cycles: the ROB head is an incomplete long-latency
// entry blocking in-order retirement while fetch streams full-width
// runs of gap instructions into the remaining ROB space. Such cycles
// are provably core-local — no retirement (head blocked), no memory
// issue (a full FetchWidth of gap instructions absorbs the cycle's
// whole fetch bandwidth), no budget crossing (retired never moves) —
// so the kernel may skip them and replay in closed form. The count is
// bounded by the cycle something observable can happen: the memory op
// behind the gap run issuing (gap exhausted below full width), fetch
// hitting the ROB capacity wall (instruction occupancy or ring slots),
// or the head entry completing and unblocking retirement.
func (c *Core) fillCycles(ref Cycles) Cycles {
	w := c.cfg.FetchWidth
	if c.robCount == 0 || c.robFull() || c.gapLeft < w {
		return 0
	}
	head := c.rob[c.head].done
	if head <= ref+1 {
		return 0
	}
	k := Cycles(c.gapLeft / w)
	if r := Cycles((c.cfg.ROBSize - c.robInstr) / w); r < k {
		k = r
	}
	if s := Cycles(len(c.rob) - 1 - c.robCount); s < k {
		k = s
	}
	if h := head - ref - 1; h < k {
		k = h
	}
	return k
}

// advanceFill applies k (>=1) fill-toward-full ticks at cycles
// from .. from+k-1: each would push one full-width gap entry completing
// the next cycle, exactly as the per-cycle fetch does, while the blocked
// head keeps retirement (and therefore retired/done/budget state)
// frozen. The k entries form a perfect staircase, so the whole replay is
// a single ramp push — no retire scan, no fetch loop, O(1) ring traffic
// — and on the kernel side the entire stretch was a single event.
func (c *Core) advanceFill(from, k Cycles) {
	w := c.cfg.FetchWidth
	c.pushRamp(int(k)*w, from+1, w)
	c.gapLeft -= int(k) * w
}

// drainCycles returns how many consecutive cycles after ref are pure
// post-release drain cycles: the ROB head released (its entry is
// complete), so retirement streams through already-completed entries at
// full RetireWidth while fetch refills the freed space with full-width
// runs of gap instructions. Such cycles are provably core-local — no
// memory issue (a full FetchWidth of gap instructions absorbs the whole
// fetch bandwidth), no budget crossing (bounded below), and retirement
// never stalls (bounded by the first entry that could still be
// incomplete when reached) — so the kernel may skip them and replay in
// closed form. The regime requires FetchWidth == RetireWidth (the
// Table III core is 4/4), which makes ROB occupancy invariant across a
// drain cycle: each cycle retires exactly w instructions and pushes one
// w-wide gap entry completing the next cycle.
//
// The count is bounded by the cycle something observable can happen:
// the memory operation behind the gap run issuing (gap exhausted below
// full width), the budget crossing (retired advances w per cycle, so
// the crossing cycle is exact and must be ticked), or retirement
// reaching an entry that was not yet complete at ref+1 (conservatively
// treated as a stall even if it completes earlier — the kernel simply
// wakes and re-evaluates there).
func (c *Core) drainCycles(ref Cycles) Cycles {
	w := c.cfg.FetchWidth
	if w != c.cfg.RetireWidth || c.cfg.ROBSize < 2*w {
		return 0
	}
	if !c.havePend || c.gapLeft < w || c.robInstr < w || c.robCount == 0 {
		return 0
	}
	if c.rob[c.head].done > ref+1 {
		return 0 // head still blocked: the fill/stall regimes own this
	}
	k := Cycles(c.gapLeft / w)
	if !c.done {
		// Stop strictly before the budget-crossing cycle so the kernel
		// observes Done at exactly the oracle's cycle.
		need := c.budget - c.retired
		if crossing := Cycles((need + int64(w) - 1) / int64(w)); crossing-1 < k {
			k = crossing - 1
		}
	}
	if k <= 0 {
		return 0
	}
	// Entries pushed during the drain complete the cycle after their
	// push and are reached no earlier than that (retire precedes fetch
	// within a cycle), so only entries resident now can stall: cap the
	// drain at the first entry not complete by ref+1. The scan stops as
	// soon as the accumulated prefix covers k cycles of retirement —
	// beyond that a stopper cannot bind — keeping the common NextWork
	// call cheap (memory-bound ROBs hit an in-flight entry within a few
	// steps; compute-heavy ROBs cover k*w in a few wide entries).
	prefix, need := int64(0), int64(k)*int64(w)
	for i, idx := 0, c.head; i < c.robSlots && prefix < need; i++ {
		e := &c.rob[idx]
		if e.done > ref+1 {
			k = Cycles(prefix / int64(w))
			break
		}
		if e.rate > 0 {
			// A ramp's blocks complete on consecutive cycles: if the
			// staircase runs past ref+1, the first late block is the
			// stopper and only the earlier blocks count toward the
			// prefix.
			if cb := ref + 2 - e.done; cb < Cycles(e.blocks()) {
				prefix += int64(e.front) + int64(cb-1)*int64(e.rate)
				if k2 := Cycles(prefix / int64(w)); k2 < k {
					k = k2
				}
				break
			}
		}
		prefix += int64(e.count)
		if idx++; idx == len(c.rob) {
			idx = 0
		}
	}
	return k
}

// advanceDrain applies k (>=1) post-release drain ticks at cycles
// from .. from+k-1 in one pass: k*w instructions are consumed from the
// front of the ROB (walking entry boundaries exactly as the per-cycle
// retire would, including a partial head entry) and the k gap entries
// the per-cycle fetch would have pushed are appended — minus the ones
// retirement would already have consumed again, which are accounted
// arithmetically instead of ever being materialized. drainCycles
// guarantees no budget crossing and no retirement stall inside the
// window, so retired/gapLeft/ROB state are the only state touched.
func (c *Core) advanceDrain(from, k Cycles) {
	w := c.cfg.FetchWidth
	m := int64(k) * int64(w) // instructions retired across the window
	c.retired += m
	c.gapLeft -= int(k) * w
	for m > 0 && c.robCount > 0 {
		e := &c.rob[c.head]
		if int64(e.count) > m {
			mi := int(m)
			e.count -= mi
			if e.rate == 0 {
				// plain entry: nothing else to maintain
			} else if mi < e.front {
				e.front -= mi
			} else {
				q := (mi - e.front) / e.rate
				r := (mi - e.front) % e.rate
				e.front = e.rate - r
				e.done += Cycles(q + 1)
				c.robCount -= q + 1
			}
			c.robInstr -= mi
			m = 0
			break
		}
		m -= int64(e.count)
		c.robInstr -= e.count
		if e.rate > 0 {
			c.robCount -= e.blocks()
		} else {
			c.robCount--
		}
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.robSlots--
	}
	pushFrom := Cycles(0)
	if m > 0 {
		// Retirement ran through every originally resident entry and
		// into the gap entries pushed during the window: the first
		// m/w of those are fully consumed, the next one partially.
		pushFrom = Cycles(m / int64(w))
		rem := int(m % int64(w))
		if rem > 0 {
			c.push(robEntry{count: w - rem, done: from + pushFrom + 1})
			pushFrom++
		}
	}
	if n := k - pushFrom; n > 0 {
		// The window's surviving full-width gap entries, one per cycle,
		// as a single ramp.
		c.pushRamp(int(n)*w, from+pushFrom+1, w)
	}
}

// NextWork returns the next cycle at which Tick can interact with shared
// state (issue a memory operation to the memory system) or change
// kernel-visible state (retire instructions, cross the budget). The
// event-driven kernel jumps straight to the returned deadline; Tick then
// replays the skipped, provably core-local cycles in closed form. Four
// regimes advertise a deadline beyond now+1:
//
//   - ROB full: nothing can happen until the head entry's completion
//     cycle unblocks in-order retirement.
//   - Steady compute stretch: the pending memory operation issues on the
//     tick after the last full-width gap fetch, so the kernel may
//     fast-forward across the whole stretch.
//   - Budget crossing inside a stretch: the core must be woken exactly
//     when Done flips so the kernel observes the same final cycle as the
//     cycle-stepped oracle.
//   - Fill toward full: gap instructions stream into the ROB behind a
//     blocked head; the kernel may fast-forward to whichever comes
//     first — the memory issue behind the gap run, the capacity wall,
//     or the head unblocking (see fillCycles).
//   - Post-release drain: the head released and retirement streams
//     through completed entries while fetch refills; the kernel may
//     fast-forward to whichever comes first — the memory issue behind
//     the gap run, the budget crossing, or a still-incomplete resident
//     entry reaching the head (see drainCycles).
func (c *Core) NextWork(now Cycles) Cycles {
	if c.robFull() {
		if head := c.rob[c.head].done; head > now+1 {
			return head
		}
		// Head completes by now+1, so retirement resumes next tick even
		// though fetch is blocked this instant: the freed width re-opens
		// fetch within the same cycle, which is the drain regime.
		if k := c.drainCyclesAt(now); k > 0 {
			return now + k + 1
		}
		return now + 1
	}
	if c.steadyCompute(now) {
		next := now + Cycles(c.gapLeft/c.cfg.FetchWidth) + 1
		if !c.done {
			if doneAt := now + c.stretchDoneTicks(); doneAt < next {
				next = doneAt
			}
		}
		return next
	}
	if k := c.fillCyclesAt(now); k > 0 {
		return now + k + 1
	}
	if k := c.drainCyclesAt(now); k > 0 {
		return now + k + 1
	}
	return now + 1
}

func (c *Core) retire(now Cycles) {
	width := c.cfg.RetireWidth
	for width > 0 && c.robCount > 0 {
		e := &c.rob[c.head]
		if e.done > now {
			return // head not complete: in-order retirement stalls
		}
		n := e.count
		if e.rate > 0 {
			// Ramp: only blocks whose staircase cycle has passed are
			// retireable; a later block reaching the front stalls just
			// like a separate incomplete entry would.
			if avail := e.rampAvail(now); n > avail {
				n = avail
			}
		}
		if n > width {
			n = width
		}
		width -= n
		c.robInstr -= n
		c.retired += int64(n)
		if e.rate > 0 {
			e.count -= n
			if n < e.front {
				e.front -= n
			} else {
				// Crossed at least the front block; count the block
				// boundaries without dividing (n <= RetireWidth, so the
				// loop almost never iterates).
				r := n - e.front
				crossed := 1
				for r >= e.rate {
					r -= e.rate
					crossed++
				}
				e.front = e.rate - r
				e.done += Cycles(crossed)
				c.robCount -= crossed
			}
		} else {
			e.count -= n
			if e.count == 0 {
				c.robCount--
			}
		}
		if e.count == 0 {
			if c.head++; c.head == len(c.rob) {
				c.head = 0
			}
			c.robSlots--
		}
		if !c.done && c.retired >= c.budget {
			c.done = true
			c.finishCycle = now
		}
	}
}

func (c *Core) fetch(now Cycles) {
	width := c.cfg.FetchWidth
	for width > 0 && c.robInstr < c.cfg.ROBSize && c.robCount < len(c.rob)-1 {
		if c.gapLeft == 0 && !c.havePend {
			c.loadRecord()
		}
		if c.gapLeft > 0 {
			n := c.gapLeft
			if n > width {
				n = width
			}
			if room := c.cfg.ROBSize - c.robInstr; n > room {
				n = room
			}
			// Non-memory instructions complete next cycle.
			c.push(robEntry{count: n, done: now + 1})
			c.gapLeft -= n
			width -= n
			continue
		}
		// Memory operation: issue to the memory system now; it occupies
		// one ROB slot until its completion cycle.
		done := c.issue.Issue(c.id, c.pending, now)
		if done <= now {
			done = now + 1
		}
		c.push(robEntry{count: 1, done: done})
		c.MemOps++
		c.havePend = false
		width--
	}
}

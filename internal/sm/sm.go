// Package sm models one streaming multiprocessor: a warp pool fed by
// thread-block dispatch, dual greedy-then-oldest (GTO) warp schedulers,
// in-order per-warp execution, and a load/store unit that coalesces
// memory instructions and feeds the L1D one line request per cycle,
// blocking in its pipeline register when the cache stalls (§2).
package sm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
)

// warp is one resident warp's execution state. Its position in the
// instruction stream is a trace.Cursor over packed ops: a precomputed
// WarpTrace's whole program, or a chunk-refilling window over a
// trace.Stream. What the warp schedulers read every cycle — issue
// latency, dispatch age, whether the warp can be picked at all — is not
// here but in the SM's slot-indexed arrays.
type warp struct {
	cur         trace.Cursor
	outstanding int  // memory requests in flight
	inLDST      bool // a memory instruction of this warp occupies the LD/ST queue
	slot        int
	block       *residentBlock
}

// never is the "no time-based wake" bound; noAge marks an empty slot in
// the age array, so an empty slot is never older than a resident warp.
const (
	never = ^uint64(0)
	noAge = ^uint64(0)
)

type residentBlock struct {
	liveWarps int
}

// memInstr is one coalesced memory instruction being drained into the L1D.
type memInstr struct {
	w    *warp
	reqs []*mem.Request
	next int
}

// pendingBlock is one dispatched-but-unadmitted thread block: either a
// precomputed block or a stream's block index.
type pendingBlock struct {
	b     *trace.Block // precomputed path (nil on the stream path)
	src   trace.Stream // stream path (nil on the precomputed path)
	idx   int          // block index within src
	warps int          // warp count, known without touching the trace
}

// SM is one streaming multiprocessor.
type SM struct {
	cfg   *config.Config
	id    int
	l1d   *core.L1D
	st    *stats.Stats
	slots []*warp

	// Scheduling state: everything a pick reads, laid out so that it
	// follows no pointer. busyUntil and age are slot-indexed arrays (0 and
	// noAge while the slot is empty) and finished is a slot bitset (bit
	// slot&63 of word slot>>6): the slot's warp has exhausted its trace;
	// retirement looks only here.
	//
	// Which warps a scheduler may pick is kept in age order instead.
	// Scheduler k (slot % SchedulersPerSM == k) owns positions
	// [k*posWords*64, (k+1)*posWords*64), handed out append-only at
	// admission: ages only grow, so a new warp is always its scheduler's
	// youngest and ascending position is ascending age. pos2slot and
	// slot2pos translate (-1: dead position, empty slot); a retired
	// warp's position stays dead until the scheduler runs out of
	// positions and compact squeezes the live ones down.
	//
	//   ready     bit p: position p holds a warp that is not blocked — it
	//             has no request outstanding, is not inLDST and is not
	//             exhausted, so the clock alone (busyUntil) can make it
	//             issuable. Dead positions are clear. A blocked warp needs
	//             an event, and costs the pick nothing.
	//
	// The oldest ready warp is therefore the first set bit of ready whose
	// busyUntil has elapsed. The bits are rewritten by noteCursor wherever
	// a cursor moves (admission, issue) and by setBlocked wherever
	// outstanding or inLDST changes (LD/ST drain, last memory response);
	// retirement kills the position. CheckActivity re-derives all of it
	// from the warps.
	//
	// Whether a warp's next instruction is a load or store is
	// deliberately not mirrored here: it is one byte of the next packed
	// op, and only consulted while the LD/ST queue is full (ldstHazard).
	busyUntil []uint64
	age       []uint64
	finished  []uint64
	ready     []uint64
	pos2slot  []int32
	slot2pos  []int32
	nextPos   []int // per scheduler: the next position to hand out
	posWords  int   // words of ready per scheduler

	pendingBlocks ring.Queue[pendingBlock]
	ageCounter    uint64
	nextReqID     uint64

	// chunks recycles stream-refill buffers across this SM's warps;
	// created lazily on a run's first AssignStream, nil on the
	// precomputed-kernel path.
	chunks *trace.ChunkPool

	ldst    ring.Queue[*memInstr]
	ldstCap int
	greedy  []int // per-scheduler last-issued slot, -1 when none
	now     uint64

	// A stalled LD/ST head parks instead of replaying: stalled is set
	// when the L1D refuses the head request, with the cache's park token
	// (stallEpoch). Until the token moves the replay could only be
	// refused again, so tickLDST skips it and the stall cycles slept
	// through are credited in bulk — on wake, or when FlushStalls needs
	// the counter current. stallCredited is the last cycle whose stall is
	// already in L1DStalls; stallAt and stallBase (the cycle the head
	// parked and the counter just after) let CheckActivity re-derive the
	// credit.
	stalled       bool
	stallEpoch    uint64
	stallCredited uint64
	stallAt       uint64
	stallBase     uint64

	// liveWarps counts occupied warp slots — maintained at admit/retire
	// so Done() is a counter comparison, not a slot sweep.
	liveWarps int

	// schedSleepUntil[k] is a proven lower bound on the next cycle at
	// which scheduler k's pick scan can succeed. It is set when a scan
	// comes up empty (to the minimum busyUntil among the scheduler's
	// unblocked warps, or "never" when every candidate waits on an
	// event), and reset to zero by every event that can unblock a warp:
	// a memory response, an LD/ST-queue drain, block admission, or warp
	// retirement. While now < schedSleepUntil[k] the scan is skipped —
	// it could only fail — making idle schedulers O(1) per cycle.
	schedSleepUntil []uint64

	// Free lists for the steady-state issue path: completed load
	// requests return via pool, drained memInstrs via freeMI, retired
	// warps/blocks via freeWarps/freeBlocks. The pool is the engine's,
	// shared with the other SMs and with the L2 partitions, which return
	// the stores they consume to it.
	pool       *mem.Pool
	freeMI     []*memInstr
	freeWarps  []*warp
	freeBlocks []*residentBlock

	// frontendErr is the first trace.PackError, trace.InstrError or
	// trace.FormatError a warp's cursor ran into; the warp ends there and
	// the engine fails the run with it.
	frontendErr error
}

// New builds an SM with its own L1D under the given policy. pool, which
// may be nil, recycles completed memory requests.
func New(cfg *config.Config, id int, policy config.Policy, pool *mem.Pool) *SM {
	s := &SM{id: id, pool: pool, st: &stats.Stats{}}
	s.Reset(cfg, policy)
	return s
}

// Reset re-initialises the SM for a new run on cfg, its L1D under
// policy: no block assigned, every slot empty, the clock, the counters
// and the frontend error cleared. Its arrays keep their storage, growing
// where cfg asks for more.
func (s *SM) Reset(cfg *config.Config, policy config.Policy) {
	s.Release()

	// One word more than a scheduler's slots fill, so a full scheduler
	// still has dead positions to spend between compactions.
	n, m := cfg.SchedulersPerSM, cfg.MaxWarpsPerSM
	s.posWords = (m+n-1)/n/64 + 1
	s.cfg = cfg
	s.slots = zeroed(s.slots, m)
	s.busyUntil = zeroed(s.busyUntil, m)
	s.age = zeroed(s.age, m)
	s.finished = zeroed(s.finished, (m+63)/64)
	s.ready = zeroed(s.ready, n*s.posWords)
	s.pos2slot = zeroed(s.pos2slot, n*s.posWords*64)
	s.slot2pos = zeroed(s.slot2pos, m)
	s.nextPos = zeroed(s.nextPos, n)
	s.greedy = zeroed(s.greedy, n)
	s.schedSleepUntil = zeroed(s.schedSleepUntil, n)
	for k := range s.greedy {
		s.greedy[k] = -1
		s.nextPos[k] = k * s.posWords << 6
	}
	for p := range s.pos2slot {
		s.pos2slot[p] = -1
	}
	for slot := range s.slots {
		s.age[slot] = noAge
		s.slot2pos[slot] = -1
	}

	*s.st = stats.Stats{}
	s.ldstCap = 48
	s.ageCounter, s.nextReqID, s.now = 0, 0, 0
	s.stalled, s.stallEpoch, s.stallCredited, s.stallAt, s.stallBase = false, 0, 0, 0, 0
	s.liveWarps = 0
	s.frontendErr = nil
	if s.l1d == nil {
		s.l1d = core.NewL1D(cfg, policy, s.onMemResponse)
	} else {
		s.l1d.Reset(cfg, policy)
	}
}

// Release lets go of everything that ties the SM to its last run's
// trace: whatever a run that did not drain left resident — warps, LD/ST
// entries — goes back to the free lists with its trace and request
// references dropped, the unadmitted blocks are forgotten and the stream
// chunk pool is let go (the next streamed run builds its own). The SM
// must be Reset before it runs again.
func (s *SM) Release() {
	for slot, w := range s.slots {
		if w != nil {
			*w = warp{}
			s.freeWarps = append(s.freeWarps, w)
			s.slots[slot] = nil
		}
	}
	for s.ldst.Len() > 0 {
		mi := s.ldst.Pop()
		clear(mi.reqs)
		*mi = memInstr{reqs: mi.reqs[:0]}
		s.freeMI = append(s.freeMI, mi)
	}
	s.pendingBlocks.Reset()
	s.chunks = nil
}

// zeroed returns s with n zero elements, reusing its array when the
// capacity allows.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// L1D exposes the cache for the engine's response routing and stats.
func (s *SM) L1D() *core.L1D { return s.l1d }

// Stats returns the SM's counters (cycles are tracked by the engine).
func (s *SM) Stats() *stats.Stats { return s.st }

// AssignBlock queues a precomputed thread block for execution on this SM.
func (s *SM) AssignBlock(b *trace.Block) {
	s.pendingBlocks.Push(pendingBlock{b: b, warps: len(b.Warps)})
}

// AssignStream queues block idx of a lazy trace stream for execution on
// this SM. Warps of the block pull chunk-sized instruction windows from
// the stream through this SM's chunk pool as they execute.
func (s *SM) AssignStream(src trace.Stream, idx int) {
	if s.chunks == nil {
		s.chunks = trace.NewChunkPool(trace.DefaultChunkInstrs)
		s.chunks.WarpSize = s.cfg.WarpSize
	}
	s.pendingBlocks.Push(pendingBlock{src: src, idx: idx, warps: src.Warps(idx)})
}

// ReadAhead has this SM's streamed warps post their next windows to r,
// whose helper fills them while the SM ticks. Call it after
// AssignStream and before the first tick; an SM with no streamed block
// ignores it.
func (s *SM) ReadAhead(r *trace.ReadAhead) {
	if s.chunks != nil {
		s.chunks.Ahead = r
	}
}

// slotBit locates slot in the finished bitset, or a position in ready.
func slotBit(slot int) (word int, bit uint64) {
	return slot >> 6, 1 << (slot & 63)
}

// noteCursor records whether w's cursor has run off the end of its trace
// in the finished bit, then re-derives the ready bit. Called wherever a
// cursor is initialised or moved.
func (s *SM) noteCursor(w *warp) {
	wi, bit := slotBit(w.slot)
	if w.cur.Exhausted() {
		s.finished[wi] |= bit
		if err := w.cur.Err(); err != nil && s.frontendErr == nil {
			s.frontendErr = err
		}
	} else {
		s.finished[wi] &^= bit
	}
	s.setBlocked(w)
}

// setBlocked re-derives the ready bit of w's position after outstanding,
// inLDST or the finished bit changed.
func (s *SM) setBlocked(w *warp) {
	fi, fbit := slotBit(w.slot)
	wi, bit := slotBit(int(s.slot2pos[w.slot]))
	if w.outstanding != 0 || w.inLDST || s.finished[fi]&fbit != 0 {
		s.ready[wi] &^= bit
	} else {
		s.ready[wi] |= bit
	}
}

// unblocked reports whether slot holds a warp whose position is in ready.
func (s *SM) unblocked(slot int) bool {
	p := int(s.slot2pos[slot])
	if p < 0 {
		return false
	}
	wi, bit := slotBit(p)
	return s.ready[wi]&bit != 0
}

// place hands the warp just admitted into slot — the youngest the SM
// holds — its scheduler's next position.
func (s *SM) place(slot int) {
	k := slot % s.cfg.SchedulersPerSM
	if s.nextPos[k] == (k+1)*s.posWords<<6 {
		s.compact(k)
	}
	p := s.nextPos[k]
	s.nextPos[k]++
	s.pos2slot[p] = int32(slot)
	s.slot2pos[slot] = int32(p)
}

// compact squeezes scheduler k's live positions down to the start of its
// range, in order, carrying their ready bits. A scheduler has more
// positions than slots, so this always leaves room.
func (s *SM) compact(k int) {
	to := k * s.posWords << 6
	for p := to; p < s.nextPos[k]; p++ {
		slot := s.pos2slot[p]
		if slot < 0 {
			continue
		}
		if to != p {
			s.pos2slot[to], s.pos2slot[p] = slot, -1
			s.slot2pos[slot] = int32(to)
			if wi, bit := slotBit(p); s.ready[wi]&bit != 0 {
				s.ready[wi] &^= bit
				ti, tbit := slotBit(to)
				s.ready[ti] |= tbit
			}
		}
		to++
	}
	s.nextPos[k] = to
}

// onMemResponse is the L1D delivery callback: one completed load
// request. Delivery is the load's last stop, so the request goes back
// to the pool here.
func (s *SM) onMemResponse(req *mem.Request) {
	w := s.slots[req.Warp]
	if w == nil || w.outstanding <= 0 {
		panic(fmt.Sprintf("sm%d: response for idle warp slot %d", s.id, req.Warp))
	}
	w.outstanding--
	s.pool.Put(req)
	if w.outstanding == 0 {
		// Only the last response unblocks the warp; earlier ones leave
		// it waiting and cannot make any scheduler's scan succeed.
		s.setBlocked(w)
		s.schedSleepUntil[req.Warp%len(s.schedSleepUntil)] = 0
	}
}

// wakeSchedulers clears every scheduler's sleep bound; called on events
// that can make a warp issuable through something other than its own
// busyUntil elapsing (retirement shifts the active-warp throttle, an
// LD/ST drain frees queue capacity, admission adds new candidates).
func (s *SM) wakeSchedulers() {
	for i := range s.schedSleepUntil {
		s.schedSleepUntil[i] = 0
	}
}

// admitBlocks moves pending blocks into free warp slots while capacity
// allows, preserving dispatch order. Occupancy comes from the liveWarps
// counter, so a full SM costs O(1) per cycle instead of a slot sweep.
// Returns whether any block was admitted.
func (s *SM) admitBlocks() bool {
	admitted := false
	for s.pendingBlocks.Len() > 0 {
		pb := *s.pendingBlocks.Front()
		if len(s.slots)-s.liveWarps < pb.warps {
			return admitted
		}
		rb := s.getBlock()
		rb.liveWarps = pb.warps
		wi := 0
		for slot := range s.slots {
			if wi >= pb.warps {
				break
			}
			if s.slots[slot] != nil {
				continue
			}
			s.ageCounter++
			w := s.getWarp()
			if pb.b != nil {
				w.cur.InitPacked(pb.b.Warps[wi], s.cfg.L1D.LineSize)
			} else {
				w.cur.InitStream(pb.src, s.chunks, s.cfg.L1D.LineSize, pb.idx, wi)
			}
			w.slot = slot
			w.block = rb
			s.slots[slot] = w
			s.age[slot] = s.ageCounter // busyUntil[slot] is 0 while empty
			s.place(slot)
			s.noteCursor(w)
			s.liveWarps++
			wi++
		}
		s.pendingBlocks.Pop()
		admitted = true
	}
	if admitted {
		s.wakeSchedulers()
	}
	return admitted
}

// warpDone reports whether w has fully executed: trace exhausted, no
// memory in flight, final issue latency elapsed.
func (s *SM) warpDone(w *warp) bool {
	return w.cur.Exhausted() && w.outstanding == 0 && !w.inLDST &&
		s.busyUntil[w.slot] <= s.now
}

// retireWarps frees slots of completed warps and their blocks. Trace
// exhaustion is necessary for completion, so only slots in the finished
// set are visited. Returns whether any warp retired.
func (s *SM) retireWarps() bool {
	retired := false
	for wi, fin := range s.finished {
		for ; fin != 0; fin &= fin - 1 {
			slot := wi<<6 | bits.TrailingZeros64(fin)
			w := s.slots[slot]
			if !s.warpDone(w) {
				continue
			}
			w.block.liveWarps--
			if w.block.liveWarps == 0 {
				s.freeBlocks = append(s.freeBlocks, w.block)
			}
			bit := fin & -fin
			s.slots[slot] = nil
			s.busyUntil[slot] = 0
			s.age[slot] = noAge
			s.pos2slot[s.slot2pos[slot]] = -1 // finished, so not in ready
			s.slot2pos[slot] = -1
			s.finished[wi] &^= bit
			s.liveWarps--
			w.cur.Release() // return the stream chunk before wiping the warp
			*w = warp{}
			s.freeWarps = append(s.freeWarps, w)
			retired = true
		}
	}
	if retired {
		s.wakeSchedulers()
	}
	return retired
}

func (s *SM) getWarp() *warp {
	if n := len(s.freeWarps); n > 0 {
		w := s.freeWarps[n-1]
		s.freeWarps[n-1] = nil
		s.freeWarps = s.freeWarps[:n-1]
		return w
	}
	return &warp{}
}

func (s *SM) getBlock() *residentBlock {
	if n := len(s.freeBlocks); n > 0 {
		rb := s.freeBlocks[n-1]
		s.freeBlocks[n-1] = nil
		s.freeBlocks = s.freeBlocks[:n-1]
		*rb = residentBlock{}
		return rb
	}
	return &residentBlock{}
}

// Tick advances the SM one core cycle: cache delivery, LD/ST drain, then
// warp issue. It reports whether the cycle did any real work — state or
// counter mutation beyond advancing the clock. A false return means the
// SM's visible state is exactly what it was last cycle, which is what
// lets the engine fast-forward (the attempt loop in tickLDST counts as
// work: even a stalled access mutates the stall counters).
func (s *SM) Tick(now uint64) bool {
	s.now = now
	active := s.l1d.Tick(now) > 0
	if s.retireWarps() {
		active = true
	}
	if s.pendingBlocks.Len() > 0 && s.admitBlocks() {
		active = true
	}
	if s.ldst.Len() > 0 {
		s.tickLDST()
		active = true
	}
	if s.liveWarps > 0 && s.issue() {
		active = true
	}
	return active
}

// tickLDST pushes the head memory instruction's next request into the
// L1D; a stall blocks the pipeline register (and therefore every younger
// memory instruction) until the cache accepts it. The blocked register
// replays its access every cycle, and every replay is one L1DStalls; a
// parked head gets the same count without the replays (see stalled).
func (s *SM) tickLDST() {
	mi := *s.ldst.Front()
	req := mi.reqs[mi.next]
	if s.stalled {
		if s.Stalled() {
			return
		}
		s.FlushStalls(s.now - 1)
		s.stalled = false
	}
	outcome := s.l1d.Access(req)
	if outcome == mem.OutcomeStall {
		s.stalled = true
		s.stallEpoch = s.l1d.Epoch()
		s.stallCredited, s.stallAt = s.now, s.now
		s.stallBase = s.l1d.Stats().L1DStalls
		return
	}
	if !req.Store {
		mi.w.outstanding++
	}
	mi.next++
	if mi.next == len(mi.reqs) {
		mi.w.inLDST = false
		s.setBlocked(mi.w)
		s.ldst.Pop()
		for i := range mi.reqs {
			mi.reqs[i] = nil // requests live on in the cache/memory system
		}
		mi.reqs = mi.reqs[:0]
		mi.w = nil
		mi.next = 0
		s.freeMI = append(s.freeMI, mi)
		// The drained warp may issue again, and the shorter queue may
		// clear another warp's structural hazard.
		s.wakeSchedulers()
	}
}

// Stalled reports whether the LD/ST head is parked on a stall that no
// cache event has touched since: ticking the SM will not replay it.
func (s *SM) Stalled() bool { return s.stalled && s.l1d.Epoch() == s.stallEpoch }

// FlushStalls brings L1DStalls up to date through cycle upto for a
// stalled head: one stall per cycle since the last one counted. The
// engine calls it before it samples the counter mid-park.
func (s *SM) FlushStalls(upto uint64) {
	if s.stalled && upto > s.stallCredited {
		s.l1d.CreditStalls(upto - s.stallCredited)
		s.stallCredited = upto
	}
}

// issue runs each warp scheduler once: greedy on the warp it issued last,
// falling back to the oldest ready warp it owns. Scheduler k owns warp
// slots with slot % SchedulersPerSM == k. Returns whether any scheduler
// issued.
func (s *SM) issue() bool {
	issued := false
	for sched := 0; sched < s.cfg.SchedulersPerSM; sched++ {
		slot := s.pickWarp(sched)
		if slot < 0 {
			continue
		}
		s.issueFrom(s.slots[slot])
		s.greedy[sched] = slot
		issued = true
	}
	return issued
}

// issuable reports whether the slot's warp can issue right now: not
// blocked, issue latency elapsed, inside the optional active-warp
// throttle, and — for a memory instruction — room in the LD/ST queue
// (ldstFull is len(s.ldst) >= s.ldstCap, hoisted by the caller).
func (s *SM) issuable(slot int, ldstFull bool) bool {
	// The latency first: the warp a scheduler issued from last is usually
	// still inside it, and an empty slot's is 0.
	return s.busyUntil[slot] <= s.now && s.unblocked(slot) &&
		!(ldstFull && s.ldstHazard(slot)) && s.warpActive(slot)
}

// ldstHazard reports whether the unblocked warp in slot is about to
// issue a load or store, which a full LD/ST queue cannot take. This is
// the one question the issue stage answers by following the slot to its
// warp and instruction, so callers ask it only while the queue is full:
// a queue holds one instruction per warp, so at the paper's 48 warps
// and 48 entries a full queue leaves no unblocked warp to ask about.
func (s *SM) ldstHazard(slot int) bool {
	return s.slots[slot].cur.Op().Kind != trace.Compute
}

// warpActive implements static CCWS-style throttling: with MaxActiveWarps
// set, only the N oldest unfinished warps may issue; the rest wait until
// an older warp retires. Zero disables the throttle.
func (s *SM) warpActive(slot int) bool {
	limit := s.cfg.MaxActiveWarps
	if limit <= 0 {
		return true
	}
	older, mine := 0, s.age[slot]
	for _, a := range s.age { // empty slots hold noAge: never older
		if a < mine {
			older++
		}
	}
	return older < limit
}

// pickWarp chooses the slot scheduler sched issues from this cycle, or
// -1. Candidates are the set bits of the scheduler's words of ready, in
// age order, so the oldest ready warp is the first one whose busyUntil
// has elapsed: each candidate costs one pos2slot and one busyUntil load,
// a blocked warp costs nothing, and no warp or instruction is touched
// unless the LD/ST queue is full.
func (s *SM) pickWarp(sched int) int {
	if s.now < s.schedSleepUntil[sched] {
		return -1 // proven empty until then; skip the scan
	}
	ldstFull := s.ldst.Len() >= s.ldstCap
	if s.cfg.Scheduler == config.SchedLRR {
		return s.pickWarpLRR(sched, ldstFull)
	}
	if g := s.greedy[sched]; g >= 0 && s.issuable(g, ldstFull) {
		return g
	}
	nextReady := never
	base := sched * s.posWords
	for wi, cand := range s.ready[base : base+s.posWords] {
		// Blocked warps — waiting on an unblocking event, or exhausted —
		// contribute no time-based wake (events reset the sleep bound),
		// and are not in the mask at all.
		for ; cand != 0; cand &= cand - 1 {
			slot := int(s.pos2slot[(base+wi)<<6|bits.TrailingZeros64(cand)])
			if bu := s.busyUntil[slot]; bu > s.now {
				// Blocked only by its issue latency: it becomes a candidate
				// at busyUntil with no triggering event, so a failed scan
				// must re-run by then.
				if bu < nextReady {
					nextReady = bu
				}
				continue
			}
			// Ready, and older than every candidate still to come; only the
			// LD/ST structural hazard or the throttle can still block it,
			// and both clear via sleep-resetting events.
			if ldstFull && s.ldstHazard(slot) || !s.warpActive(slot) {
				continue
			}
			return slot
		}
	}
	s.schedSleepUntil[sched] = nextReady
	return -1
}

// pickWarpLRR rotates through the scheduler's slots in ascending order,
// starting just after the slot it issued from last and wrapping around.
// Slot order is not position order, so it asks each slot for its bit.
func (s *SM) pickWarpLRR(sched int, ldstFull bool) int {
	last := s.greedy[sched]
	wrapped := -1 // first issuable slot at or before last
	nextReady := never
	for slot := sched; slot < len(s.slots); slot += s.cfg.SchedulersPerSM {
		if !s.unblocked(slot) {
			continue
		}
		if bu := s.busyUntil[slot]; bu > s.now {
			if bu < nextReady {
				nextReady = bu
			}
			continue
		}
		if ldstFull && s.ldstHazard(slot) || !s.warpActive(slot) {
			continue
		}
		if slot > last {
			return slot // ascending scan: the first one past last wins
		}
		if wrapped < 0 {
			wrapped = slot
		}
	}
	if wrapped < 0 {
		s.schedSleepUntil[sched] = nextReady
	}
	return wrapped
}

func (s *SM) issueFrom(w *warp) {
	// The op and its lines must be fully consumed before Advance(): a
	// chunk refill reuses the cursor's backing storage.
	op := w.cur.Op()
	lanes := uint64(op.ActiveLanes())
	s.st.WarpInsns++
	s.st.Instructions += lanes
	s.l1d.NoteInstructions(lanes)

	switch op.Kind {
	case trace.Compute:
		s.busyUntil[w.slot] = s.now + op.Latency()
	case trace.Load, trace.Store:
		mi := s.getMemInstr()
		mi.w = w
		insnID, store := addr.HashPC(op.PC), op.Kind == trace.Store
		for _, line := range w.cur.OpLines() {
			s.nextReqID++
			r := s.pool.Get()
			r.ID = s.nextReqID
			r.Addr = line
			r.PC = op.PC
			r.InsnID = insnID
			r.SM = s.id
			r.Warp = w.slot
			r.Store = store
			mi.reqs = append(mi.reqs, r)
		}
		w.inLDST = true
		s.ldst.Push(mi)
		s.busyUntil[w.slot] = s.now + 1
	}
	w.cur.Advance()
	s.noteCursor(w)
}

// FrontendErr is the first error a warp's instruction cursor reported
// (a *trace.PackError: an instruction no packed op can hold; a
// *trace.InstrError: one that breaks a per-instruction rule; or a
// *trace.FormatError: a trace file that could not fill a window). The
// warp stops at the offending window, so the run drains; the engine
// polls this and fails the run.
func (s *SM) FrontendErr() error { return s.frontendErr }

func (s *SM) getMemInstr() *memInstr {
	if n := len(s.freeMI); n > 0 {
		mi := s.freeMI[n-1]
		s.freeMI[n-1] = nil
		s.freeMI = s.freeMI[:n-1]
		return mi
	}
	return &memInstr{reqs: make([]*mem.Request, 0, 4)}
}

// Done reports whether every assigned block has fully executed and all
// cache work has drained. It is O(1): occupied slots are counted at
// admit/retire instead of swept.
//
// The counter form is exactly equivalent to sweeping the slots for
// !warpDone(w) at the points the engine evaluates it (after a full
// step). A live slot then holds either a warp that is not done — both
// forms say "not done" — or a warp that completed mid-tick after
// retireWarps ran. The latter can only be the store-drain path in
// tickLDST (load completions are delivered by the engine's response
// routing or l1d.Tick, both of which precede retireWarps within the
// same cycle), and a just-accepted store is still in the L1D's outgoing
// queue or the interconnect's injection queue at evaluation time, so
// the sweep form would report "not done" through l1d.Pending() or the
// network anyway. The self-check mode cross-checks this equivalence at
// every sampled cycle (CheckActivity).
func (s *SM) Done() bool {
	return s.liveWarps == 0 && s.pendingBlocks.Len() == 0 && s.ldst.Len() == 0 &&
		!s.l1d.Pending()
}

// DoneSweep is the first-principles form of Done, used by the engine's
// sampled self-checks and the activity property tests to validate the
// counter form.
func (s *SM) DoneSweep() bool {
	if s.pendingBlocks.Len() > 0 || s.ldst.Len() > 0 || s.l1d.Pending() {
		return false
	}
	for _, w := range s.slots {
		if w != nil && !s.warpDone(w) {
			return false
		}
	}
	return true
}

// finishedWarps counts resident warps whose trace is exhausted.
func (s *SM) finishedWarps() int {
	n := 0
	for _, fin := range s.finished {
		n += bits.OnesCount64(fin)
	}
	return n
}

// CheckActivity validates the SM's O(1) activity accounting against a
// full sweep. The liveWarps counter must equal the occupied-slot count.
// Every slot's scheduling state must be what its warp implies: an empty
// slot has no position, busyUntil 0, no age and no finished bit; an
// occupied one has a position of its own scheduler that points back at
// it, ready == !(outstanding != 0 || inLDST || exhausted), finished ==
// exhausted, a real age, a warp that knows its slot, and a next packed
// op that says what the instruction it was packed from says; finished
// bits past the last slot stay clear. Each scheduler's live positions
// must be strictly ascending in age, all below the next one to hand
// out, and a dead position must point nowhere and not be ready. When the
// counter form of Done disagrees with the sweep form the difference must
// be explained by in-flight work (a done-but-unretired warp whose final
// store still sits in an outgoing queue). Returns a descriptive error on
// violation.
func (s *SM) CheckActivity() error {
	occupied := 0
	for slot, w := range s.slots {
		wi, bit := slotBit(slot)
		finished, pos := s.finished[wi]&bit != 0, int(s.slot2pos[slot])
		if w == nil {
			if pos >= 0 || finished || s.busyUntil[slot] != 0 || s.age[slot] != noAge {
				return fmt.Errorf("sm%d: empty slot %d has position=%d finished=%v busyUntil=%d age=%d",
					s.id, slot, pos, finished, s.busyUntil[slot], s.age[slot])
			}
			continue
		}
		occupied++
		if k := slot % s.cfg.SchedulersPerSM; pos < k*s.posWords<<6 || pos >= s.nextPos[k] || int(s.pos2slot[pos]) != slot {
			return fmt.Errorf("sm%d: slot %d has position %d, which scheduler %d (next position %d) does not map back to it",
				s.id, slot, pos, k, s.nextPos[k])
		}
		exhausted := w.cur.Exhausted()
		wantBlocked := w.outstanding != 0 || w.inLDST || exhausted
		if w.slot != slot || s.age[slot] == noAge || s.unblocked(slot) == wantBlocked || finished != exhausted {
			return fmt.Errorf("sm%d: slot %d (warp.slot=%d age=%d) has ready=%v finished=%v, warp implies %v/%v",
				s.id, slot, w.slot, s.age[slot], s.unblocked(slot), finished, !wantBlocked, exhausted)
		}
		if !exhausted {
			if err := w.cur.CheckOp(s.cfg.L1D.LineSize); err != nil {
				return fmt.Errorf("sm%d: slot %d: %w", s.id, slot, err)
			}
		}
	}
	if tail := len(s.slots) & 63; tail != 0 {
		if s.finished[len(s.finished)-1]&(^uint64(0)<<tail) != 0 {
			return fmt.Errorf("sm%d: finished bits past slot %d corrupted", s.id, len(s.slots)-1)
		}
	}
	for k, next := range s.nextPos {
		base := k * s.posWords << 6
		if next < base || next > base+s.posWords<<6 {
			return fmt.Errorf("sm%d: scheduler %d's next position %d is outside [%d, %d]",
				s.id, k, next, base, base+s.posWords<<6)
		}
		older := uint64(0)
		for p := base; p < base+s.posWords<<6; p++ {
			slot := int(s.pos2slot[p])
			wi, bit := slotBit(p)
			if slot < 0 {
				if s.ready[wi]&bit != 0 {
					return fmt.Errorf("sm%d: dead position %d is ready", s.id, p)
				}
				continue
			}
			if p >= next || slot >= len(s.slots) || int(s.slot2pos[slot]) != p {
				return fmt.Errorf("sm%d: position %d (scheduler %d, next %d) holds slot %d, which does not map back to it",
					s.id, p, k, next, slot)
			}
			if s.age[slot] <= older {
				return fmt.Errorf("sm%d: position %d holds slot %d of age %d, not younger than %d before it",
					s.id, p, slot, s.age[slot], older)
			}
			older = s.age[slot]
		}
	}
	if occupied != s.liveWarps {
		return fmt.Errorf("sm%d: liveWarps=%d but %d slots occupied", s.id, s.liveWarps, occupied)
	}
	if s.Done() && !s.DoneSweep() {
		return fmt.Errorf("sm%d: counter Done()=true but slot sweep disagrees", s.id)
	}
	// A sleeping scheduler claims no owned warp can issue before its
	// bound; an issuable warp under that claim would mean the scan skip
	// changed behavior.
	ldstFull := s.ldst.Len() >= s.ldstCap
	for sched, until := range s.schedSleepUntil {
		if s.now >= until {
			continue
		}
		for slot := sched; slot < len(s.slots); slot += s.cfg.SchedulersPerSM {
			if s.issuable(slot, ldstFull) {
				return fmt.Errorf("sm%d: scheduler %d asleep until %d but slot %d issuable at %d",
					s.id, sched, until, slot, s.now)
			}
		}
	}
	// A stalled head: the counter has moved by exactly the credits since
	// it parked, and — while no cache event has touched the stall — the
	// head's access would be refused again if replayed now.
	if s.stalled {
		if s.ldst.Len() == 0 {
			return fmt.Errorf("sm%d: stalled with an empty LD/ST queue", s.id)
		}
		if got, want := s.l1d.Stats().L1DStalls, s.stallBase+s.stallCredited-s.stallAt; got != want {
			return fmt.Errorf("sm%d: L1DStalls=%d, but %d at the park (cycle %d) plus credits through cycle %d make %d",
				s.id, got, s.stallBase, s.stallAt, s.stallCredited, want)
		}
		mi := *s.ldst.Front()
		if req := mi.reqs[mi.next]; s.Stalled() && !s.l1d.WouldStall(req) {
			return fmt.Errorf("sm%d: LD/ST head %v is parked since cycle %d but the L1D would accept it at %d",
				s.id, req, s.stallAt, s.now)
		}
	}
	// Done()==false with doneSweep()==true is legal only while the
	// retiring warp's store is still in flight somewhere downstream; the
	// engine-level check (quiescent vs quiescentDeep) covers that case
	// because the network/outgoing queues keep the deep form non-idle.
	return nil
}

// NextWake returns the next cycle at which this SM can possibly do real
// work, given no new responses arrive before then; ok=false means the
// SM must be ticked every cycle (it has immediately pending work: a
// draining LD/ST queue, packets for the crossbar, a ready warp). A
// parked LD/ST head is not such work: its stall cycles are credited in
// bulk, and what ends it is a response or a miss-queue pop, never the
// clock. A warp waiting only on outstanding memory contributes no wake
// time: the response's arrival is bounded by the network/partition
// event times the engine already considers, and its delivery marks the
// SM active again.
// Pending thread blocks do not force per-cycle ticking: admission
// capacity only changes when a warp retires, and every retirement cycle
// is already in the wake set (a retiring warp's busyUntil, or the
// delivery that zeroes its outstanding count). at == ^uint64(0) means
// the SM has no self-scheduled wake and sleeps until a response.
func (s *SM) NextWake(now uint64) (at uint64, ok bool) {
	if s.l1d.HasOutgoing() || s.ldst.Len() > 0 && !s.Stalled() {
		return 0, false
	}
	at = never
	if h, hok := s.l1d.NextDelivery(); hok {
		at = h
	}
	// Unblocked warps wait at most on their issue latency.
	for wi, cand := range s.ready {
		for ; cand != 0; cand &= cand - 1 {
			bu := s.busyUntil[s.pos2slot[wi<<6|bits.TrailingZeros64(cand)]]
			if bu <= now {
				return 0, false // ready to issue right now
			}
			if bu < at {
				at = bu
			}
		}
	}
	// A finished warp is blocked for the schedulers but still wakes the SM
	// for its retirement, unless memory is what it waits on.
	for wi, fin := range s.finished {
		for ; fin != 0; fin &= fin - 1 {
			slot := wi<<6 | bits.TrailingZeros64(fin)
			if w := s.slots[slot]; w.inLDST || w.outstanding > 0 {
				continue
			}
			// Nothing observable happens until its last latency has elapsed.
			bu := s.busyUntil[slot]
			if bu <= now {
				return 0, false // done and awaiting retirement
			}
			if bu < at {
				at = bu
			}
		}
	}
	return at, true
}

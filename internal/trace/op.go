package trace

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/addr"
)

// Op is the issue stage's view of one warp instruction: what the SM
// reads every time it issues, packed four to a 64-byte host cache line.
// The per-lane addresses stay behind in the Instr — only trace-level
// consumers (digest, recording, rdd, Summarize, Validate) want them —
// and the coalesced lines they reduce to are computed once, when the op
// is packed, into a flat arena that sits next to the ops.
//
// word holds the one thing that differs by kind: a Compute op's latency,
// the line of a memory op that coalesces to a single line (the common
// case, so issuing it touches nothing but the op), or offset<<32|count
// into the arena otherwise. It is a one-element array so that a
// single-line op can hand out its line as a slice without copying.
type Op struct {
	word   [1]addr.Addr
	PC     uint32
	lanes  uint16
	Kind   Kind
	inline bool // memory op whose only line is word itself
}

// What an Op's fields can hold. Lanes cover the 1024-thread warps
// config.Validate admits with room to spare.
const (
	MaxOpLanes   = math.MaxUint16
	MaxOpLatency = math.MaxUint32
	maxOpLines   = math.MaxUint32 // arena offset and per-op count
)

// ActiveLanes is the number of threads executing the instruction.
func (o *Op) ActiveLanes() int { return int(o.lanes) }

// Latency is a Compute op's issue latency in cycles.
func (o *Op) Latency() uint64 { return uint64(o.word[0]) }

// lines resolves a memory op's coalesced lines against the arena it was
// packed into.
func (o *Op) lines(arena []addr.Addr) []addr.Addr {
	if o.inline {
		return o.word[:]
	}
	off, n := o.word[0]>>32, o.word[0]&maxOpLines
	return arena[off : off+n]
}

// PackError reports an instruction with a value its Op cannot hold.
// Packing never truncates: the kernel or stream is refused instead, and
// Engine.Run / RunStream return this error.
type PackError struct {
	Insn  int    // in-warp instruction index
	Field string // "lanes", "latency" or "lines"
	Value int64
	Max   int64
}

func (e *PackError) Error() string {
	return fmt.Sprintf("trace: insn %d: %s %d does not fit a packed op (max %d)",
		e.Insn, e.Field, e.Value, e.Max)
}

// packInstrs appends one Op per instruction of win to ops and the lines
// of every multi-line memory op to arena, returning both extended
// slices. It is the only place ops are built — PrecomputeCoalesced runs
// it over whole warps, a streaming cursor over each refilled window —
// and so the one place both frontends enforce the per-instruction rules
// (Instr.check, for warps of up to maxLanes): the issue stage never sees
// an op that breaks one. Offsets count from the start of arena, so
// callers pass an empty one per unit they later index; base is the
// in-warp index of win[0], for error reports.
func packInstrs(ops []Op, arena []addr.Addr, win []Instr, base, lineSize, maxLanes int) ([]Op, []addr.Addr, error) {
	for i := range win {
		in := &win[i]
		if in.ActiveLanes > MaxOpLanes {
			return ops, arena, &PackError{Insn: base + i, Field: "lanes", Value: int64(in.ActiveLanes), Max: MaxOpLanes}
		}
		if detail := in.check(maxLanes); detail != "" {
			return ops, arena, &InstrError{Insn: base + i, Detail: detail}
		}
		op := Op{PC: in.PC, lanes: uint16(in.ActiveLanes), Kind: in.Kind}
		switch in.Kind {
		case Compute:
			if int64(in.Latency) > MaxOpLatency {
				return ops, arena, &PackError{Insn: base + i, Field: "latency", Value: int64(in.Latency), Max: MaxOpLatency}
			}
			op.word[0] = addr.Addr(in.Latency)
		case Load, Store:
			start := len(arena)
			arena = in.AppendCoalescedLines(arena, lineSize)
			if n := len(arena) - start; n == 1 {
				op.word[0], op.inline = arena[start], true
				arena = arena[:start]
			} else if uint64(len(arena)) > maxOpLines {
				return ops, arena, &PackError{Insn: base + i, Field: "lines", Value: int64(len(arena)), Max: maxOpLines}
			} else {
				op.word[0] = addr.Addr(start)<<32 | addr.Addr(n)
			}
		}
		ops = append(ops, op)
	}
	return ops, arena, nil
}

// program is one warp's packed form for one line size. It is immutable
// once published, which is what lets any number of simulations read a
// shared kernel's programs concurrently.
type program struct {
	lineSize int
	maxLanes int // widest op: what a machine's warp size is checked against
	ops      []Op
	lines    []addr.Addr
}

// packed returns the warp's program for lineSize, building and
// publishing it if the warp holds none or one for another line size.
// Publication is atomic so that engines with different line sizes can
// run one shared kernel at once: each packs its own program, the warp
// keeps the latest, and every cursor holds on to the one it was
// initialised with. A program is packed for any warp size an Op can
// hold and remembers its widest op, so one shared program serves
// machines of every width: the caller compares maxLanes with its own.
// scratch is the arena the build coalesces into, returned (possibly
// grown) for the next warp; nil is fine.
func (w *WarpTrace) packed(lineSize int, scratch []addr.Addr) (*program, []addr.Addr, error) {
	if p := w.prog.Load(); p != nil && p.lineSize == lineSize {
		return p, scratch, nil
	}
	ops, scratch, err := packInstrs(make([]Op, 0, len(w.Instrs)), scratch[:0], w.Instrs, 0, lineSize, MaxOpLanes)
	if err != nil {
		return nil, scratch, err
	}
	p := &program{lineSize: lineSize, ops: ops}
	for i := range ops {
		p.maxLanes = max(p.maxLanes, ops[i].ActiveLanes())
	}
	if len(scratch) > 0 {
		p.lines = append(make([]addr.Addr, 0, len(scratch)), scratch...)
	}
	w.prog.Store(p)
	return p, scratch, nil
}

// Pack builds the packed issue program of every warp for the given line
// size, so simulations of the kernel issue from shared, read-only ops
// and skip the per-admission packing, and refuses a kernel that breaks
// Validate's rules for warpSize-wide warps. Warps already packed for
// lineSize are left alone but for the width of their widest op, so
// launching a precomputed kernel costs one comparison per warp, not a
// walk over its instructions. The error, if any, is a *PackError or
// *InstrError wrapped with the warp's position; warps before it stay
// packed.
func (k *Kernel) Pack(lineSize, warpSize int) error {
	var scratch []addr.Addr
	return k.eachWarp(func(w *WarpTrace) error {
		p, s, err := w.packed(lineSize, scratch)
		scratch = s
		if err == nil && p.maxLanes > warpSize {
			err = w.check(warpSize)
		}
		return err
	})
}

// PrecomputeCoalesced packs the kernel for lineSize (see Pack). Call it
// once after generation, before the kernel is shared. A kernel that
// cannot be packed is left as it is: Engine.Run packs again and returns
// the error.
func (k *Kernel) PrecomputeCoalesced(lineSize int) {
	_ = k.Pack(lineSize, MaxOpLanes)
}

// CheckOp compares the cursor's current packed op, field by field and
// line by line, with a fresh reading of the instruction it was packed
// from at lineSize. It is the self-check behind the hot/cold split:
// whatever built the ops, they must say what the Instrs say.
func (c *Cursor) CheckOp(lineSize int) error {
	op, in := c.Op(), c.Cur()
	if op.Kind != in.Kind || op.PC != in.PC || op.ActiveLanes() != in.ActiveLanes {
		return fmt.Errorf("trace: insn %d: op {%v pc=%d lanes=%d} packed from instr {%v pc=%d lanes=%d}",
			c.Index(), op.Kind, op.PC, op.ActiveLanes(), in.Kind, in.PC, in.ActiveLanes)
	}
	if op.Kind == Compute {
		if op.Latency() != uint64(in.Latency) {
			return fmt.Errorf("trace: insn %d: op latency %d, instr latency %d", c.Index(), op.Latency(), in.Latency)
		}
		return nil
	}
	if got, want := c.OpLines(), in.CoalescedLines(lineSize); !slices.Equal(got, want) {
		return fmt.Errorf("trace: insn %d: op lines %#x, instr coalesces to %#x", c.Index(), got, want)
	}
	return nil
}

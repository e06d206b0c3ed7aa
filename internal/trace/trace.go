// Package trace models GPU kernels as per-warp instruction traces.
//
// A workload generator produces a Kernel: a named grid of thread blocks,
// each containing warps, each warp holding an in-order instruction
// sequence. Compute instructions carry a pipeline latency; memory
// instructions carry per-lane byte addresses that the LD/ST unit coalesces
// into line-granularity cache accesses. This is the trace-driven
// equivalent of GPGPU-Sim's functional front end: timing is supplied by
// the simulator, ordering and addresses by the trace.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
)

// Kind discriminates instruction types.
type Kind uint8

const (
	// Compute is any non-memory instruction (ALU/FPU/SFU/branch).
	Compute Kind = iota
	// Load is a global memory read through the L1D.
	Load
	// Store is a global memory write (write-through, no-allocate).
	Store
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Instr is one warp instruction.
type Instr struct {
	Kind        Kind
	PC          uint32      // static instruction ID; stable across warps
	Latency     int         // compute: cycles until the warp may issue again
	ActiveLanes int         // threads executing this instruction (<= warp size)
	Addrs       []addr.Addr // memory: per-active-lane byte addresses
}

// NewCompute returns a compute instruction covering lanes active lanes.
func NewCompute(pc uint32, latency, lanes int) Instr {
	return Instr{Kind: Compute, PC: pc, Latency: latency, ActiveLanes: lanes}
}

// NewLoad returns a load touching the given per-lane addresses.
func NewLoad(pc uint32, addrs []addr.Addr) Instr {
	return Instr{Kind: Load, PC: pc, ActiveLanes: len(addrs), Addrs: addrs}
}

// NewStore returns a store touching the given per-lane addresses.
func NewStore(pc uint32, addrs []addr.Addr) Instr {
	return Instr{Kind: Store, PC: pc, ActiveLanes: len(addrs), Addrs: addrs}
}

// CoalescedLines returns the distinct line-aligned addresses the
// instruction touches, in first-appearance order — the memory requests a
// Fermi-style coalescer would emit.
func (in *Instr) CoalescedLines(lineSize int) []addr.Addr {
	if len(in.Addrs) == 0 {
		return nil
	}
	return in.AppendCoalescedLines(make([]addr.Addr, 0, 4), lineSize)
}

// AppendCoalescedLines appends the coalesced lines to dst and returns
// the extended slice, so callers that coalesce in a loop (op packing,
// rdd) reuse one buffer; semantics are otherwise identical to
// CoalescedLines.
func (in *Instr) AppendCoalescedLines(dst []addr.Addr, lineSize int) []addr.Addr {
	mask := ^addr.Addr(lineSize - 1)
	base := len(dst)
	for _, a := range in.Addrs {
		line := a & mask
		dup := false
		// Scan newest-first: consecutive lanes usually share a line, so
		// the duplicate is almost always the last line appended.
		for i := len(dst) - 1; i >= base; i-- {
			if dst[i] == line {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, line)
		}
	}
	return dst
}

// WarpTrace is the in-order instruction stream of one warp.
type WarpTrace struct {
	Instrs []Instr

	// prog is the packed issue program (see Op), built by Kernel.Pack or
	// on the warp's first admission to an SM.
	prog atomic.Pointer[program]
}

// Block is a thread block: the unit of work dispatched to an SM.
type Block struct {
	Warps []*WarpTrace
}

// Kernel is a launched grid. It holds a sync.Once, so pass kernels by
// pointer, never by value.
type Kernel struct {
	Name   string
	Blocks []*Block

	digestOnce sync.Once
	digest     string // hex SHA-256 of the canonical encoding; "" if unencodable
}

// Digest returns the hex SHA-256 of the kernel's canonical encoding
// (encode.go) — its content address in the runner's result cache. ok is
// false for a kernel with a value the encoding cannot hold. The first
// call walks the whole trace; the result, success or failure, is then
// kept on the kernel, so a suite that runs one kernel under every scheme
// encodes it once and the memo is reclaimed with the kernel. A kernel
// must not be modified after its first Digest call. Safe for concurrent
// use.
func (k *Kernel) Digest() (digest string, ok bool) {
	k.digestOnce.Do(func() {
		h := sha256.New()
		if err := k.encode(h); err == nil {
			k.digest = hex.EncodeToString(h.Sum(nil))
		}
	})
	return k.digest, k.digest != ""
}

// InstrError reports an instruction that breaks a per-instruction rule:
// no active lanes or more than the warp holds, a compute with no
// latency, a memory instruction whose addresses do not match its lanes,
// an unknown kind. Both frontends refuse such an instruction where its
// op is built, so Kernel.Validate, Engine.Run and Engine.RunStream all
// return this error for it.
type InstrError struct {
	Insn   int // in-warp instruction index
	Detail string
}

func (e *InstrError) Error() string { return fmt.Sprintf("trace: insn %d: %s", e.Insn, e.Detail) }

// check applies the per-instruction rules for a machine whose warps are
// maxLanes wide and returns what is wrong, "" when nothing is.
func (in *Instr) check(maxLanes int) string {
	if in.ActiveLanes <= 0 {
		return fmt.Sprintf("%d active lanes", in.ActiveLanes)
	}
	if in.ActiveLanes > maxLanes {
		return fmt.Sprintf("%d active lanes on %d-wide warps", in.ActiveLanes, maxLanes)
	}
	switch in.Kind {
	case Compute:
		if in.Latency <= 0 {
			return fmt.Sprintf("compute latency %d", in.Latency)
		}
	case Load, Store:
		if len(in.Addrs) != in.ActiveLanes {
			return fmt.Sprintf("memory insn with %d addrs for %d lanes", len(in.Addrs), in.ActiveLanes)
		}
	default:
		return fmt.Sprintf("unknown kind %d", in.Kind)
	}
	return ""
}

// eachWarp calls fn on every warp in launch order and returns its first
// error wrapped with the warp's position. It refuses an empty grid, block
// or warp itself: the shape rules Validate and Pack share.
func (k *Kernel) eachWarp(fn func(bi, wi int, w *WarpTrace) error) error {
	if len(k.Blocks) == 0 {
		return fmt.Errorf("kernel %q has no blocks", k.Name)
	}
	for bi, b := range k.Blocks {
		if len(b.Warps) == 0 {
			return fmt.Errorf("kernel %q block %d has no warps", k.Name, bi)
		}
		for wi, w := range b.Warps {
			if len(w.Instrs) == 0 {
				return fmt.Errorf("kernel %q block %d warp %d is empty", k.Name, bi, wi)
			}
			if err := fn(bi, wi, w); err != nil {
				return k.warpError(bi, wi, err)
			}
		}
	}
	return nil
}

// warpError wraps err with the position of the warp it is about.
func (k *Kernel) warpError(bi, wi int, err error) error {
	return fmt.Errorf("kernel %q block %d warp %d: %w", k.Name, bi, wi, err)
}

// Validate checks structural sanity: non-empty grid, every memory
// instruction has an address per lane, lane counts within warpSize. An
// instruction-level failure is a wrapped *InstrError. Engine.Run does
// not need it called first — packing enforces the same rules.
func (k *Kernel) Validate(warpSize int) error {
	return k.eachWarp(func(_, _ int, w *WarpTrace) error { return w.check(warpSize) })
}

// check finds the warp's first instruction that breaks a rule.
func (w *WarpTrace) check(warpSize int) error {
	for i := range w.Instrs { // by index: an Instr is 48 bytes
		if detail := w.Instrs[i].check(warpSize); detail != "" {
			return &InstrError{Insn: i, Detail: detail}
		}
	}
	return nil
}

// Summary aggregates static trace-level properties of a kernel.
type Summary struct {
	Blocks        int
	Warps         int
	WarpInsns     uint64 // total warp instructions
	ThreadInsns   uint64 // warp instructions weighted by active lanes
	MemInsns      uint64 // warp-level loads + stores
	LoadInsns     uint64
	StoreInsns    uint64
	LineAccesses  uint64 // coalesced line requests (the N_memory_access of Fig. 6)
	DistinctPCs   int    // distinct memory-instruction PCs
	DistinctLines uint64 // distinct lines touched (footprint)
}

// MemoryAccessRatio is line accesses over thread instructions (Fig. 6).
func (s *Summary) MemoryAccessRatio() float64 {
	if s.ThreadInsns == 0 {
		return 0
	}
	return float64(s.LineAccesses) / float64(s.ThreadInsns)
}

// Summarize walks the kernel once and computes its Summary.
func (k *Kernel) Summarize(lineSize int) *Summary {
	s := &Summary{Blocks: len(k.Blocks)}
	pcs := map[uint32]bool{}
	lines := map[addr.Addr]bool{}
	for _, b := range k.Blocks {
		s.Warps += len(b.Warps)
		for _, w := range b.Warps {
			for i := range w.Instrs {
				in := &w.Instrs[i]
				s.WarpInsns++
				s.ThreadInsns += uint64(in.ActiveLanes)
				switch in.Kind {
				case Load:
					s.MemInsns++
					s.LoadInsns++
				case Store:
					s.MemInsns++
					s.StoreInsns++
				default:
					continue
				}
				pcs[in.PC] = true
				for _, l := range in.CoalescedLines(lineSize) {
					s.LineAccesses++
					lines[l] = true
				}
			}
		}
	}
	s.DistinctPCs = len(pcs)
	s.DistinctLines = uint64(len(lines))
	return s
}

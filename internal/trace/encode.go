package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The canonical kernel encoding, little-endian — the input Kernel.Digest
// hashes, never written to disk:
//
//	magic   [8]byte  "DLPTRACE"
//	version uint32   (1)
//	name    uint32 length + bytes
//	blocks  uint32
//	  per block:  warps uint32
//	    per warp: instrs uint32
//	      per instruction:
//	        kind   uint8
//	        pc     uint32
//	        compute: latency uint32, lanes uint8
//	        memory:  lanes uint8, lanes x uint64 addresses
//
// The magic and version are what the seed's trace file format began
// with. They stay in the hash input so every digest — every runner cache
// key and every result cached on disk — keeps its value. The one trace
// file format is DLPSTRM1 (file.go), whose chunks hold instructions in
// the same per-instruction encoding (appendInstr).

var digestMagic = [8]byte{'D', 'L', 'P', 'T', 'R', 'A', 'C', 'E'}

const digestVersion = 1

// maxLanes is the most lanes the one-byte lane count can say.
const maxLanes = 255

// encode writes the kernel's canonical encoding to w.
func (k *Kernel) encode(w io.Writer) error {
	if len(k.Name) > maxNameLen {
		return fmt.Errorf("trace: kernel name longer than %d bytes", maxNameLen)
	}
	e := newEncoder(w, digestBufSize)
	// The fixed header fits the empty buffer.
	e.buf = append(e.buf, digestMagic[:]...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, digestVersion)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(k.Name)))
	e.buf = append(e.buf, k.Name...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(k.Blocks)))
	for _, b := range k.Blocks {
		e.uint32(uint32(len(b.Warps)))
		for _, wt := range b.Warps {
			e.uint32(uint32(len(wt.Instrs)))
			for i := range wt.Instrs {
				if err := e.instr(&wt.Instrs[i]); err != nil {
					return err
				}
			}
		}
	}
	return e.flush()
}

// appendInstr appends one instruction's encoding (the format comment
// above; shared by the digest input and DLPSTRM1) to dst. A value its
// field cannot hold is an error, never a truncation: two kernels that
// differ must not encode alike.
func appendInstr(dst []byte, in *Instr) ([]byte, error) {
	dst = append(dst, uint8(in.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, in.PC)
	if in.Kind == Compute {
		if in.ActiveLanes < 0 || in.ActiveLanes > maxLanes {
			return dst, fmt.Errorf("trace: %d compute lanes outside the format's 0..%d", in.ActiveLanes, maxLanes)
		}
		if in.Latency < 0 || uint64(in.Latency) > math.MaxUint32 {
			return dst, fmt.Errorf("trace: compute latency %d outside the format's 0..%d", in.Latency, uint32(math.MaxUint32))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Latency))
		return append(dst, uint8(in.ActiveLanes)), nil
	}
	if len(in.Addrs) > maxLanes {
		return dst, fmt.Errorf("trace: %d lanes exceeds format limit", len(in.Addrs))
	}
	dst = append(dst, uint8(len(in.Addrs)))
	for _, a := range in.Addrs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(a))
	}
	return dst, nil
}

// The encoder's buffer sizes are constants, never a chunk or a kernel,
// so a diverged chunk or a long warp costs no more memory than a short
// one. A trace file goes out in fileBufSize writes, and Open hashes it
// in reads of that size: fewer, larger system calls. A digest is done
// once per job key, often of a small kernel, so it takes a small buffer
// per call; a pooled large one would stay live and raise a job server's
// peak RSS (EXPERIMENTS.md).
const (
	fileBufSize   = 128 << 10
	digestBufSize = 4 << 10
)

// fillInstrs is the window WriteFile and Materialize ask their source
// for, whatever the file's chunk size. A generator replays its warp
// from the start on every window, so a small window pays for a long
// warp's replay over and over. Measured by recording HG at scale 3 (a
// 29.9 MB file) on a 2-vCPU host, four runs each: 81–98 ms at 64
// instructions, 75–89 at 512, 75–82 at 2 048, 65–77 at 8 192 and
// 77–81 at 65 536. The window's instruction arena is 384 KB.
const fillInstrs = 8192

// maxInstrLen is the longest instruction encoding: a memory instruction
// of maxLanes lanes.
const maxInstrLen = 1 + 4 + 1 + 8*maxLanes

// encoder appends an encoding into a fixed-size buffer and hands each
// full buffer to w, one Write each: a hash for Kernel.Digest, and for
// WriteFile a handoff, whose other task hashes and writes it. off counts the
// bytes encoded, flushed or not, so an offset taken from it is right
// wherever a flush falls. The first write error sticks: later flushes
// write nothing, and instr and flush return it.
type encoder struct {
	w       io.Writer
	buf     []byte
	flushed int64
	err     error
}

// newEncoder returns an encoder with a size-byte buffer; size must hold
// the longest instruction and the fixed header.
func newEncoder(w io.Writer, size int) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, size)}
}

func (e *encoder) off() int64 { return e.flushed + int64(len(e.buf)) }

// flush writes the buffered bytes out and empties the buffer.
func (e *encoder) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.flushed += int64(len(e.buf))
	e.buf = e.buf[:0]
	return e.err
}

// reserve flushes unless n more bytes fit the buffer.
func (e *encoder) reserve(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *encoder) uint32(v uint32) {
	e.reserve(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) instr(in *Instr) error {
	e.reserve(maxInstrLen)
	var err error
	if e.buf, err = appendInstr(e.buf, in); err != nil {
		return err
	}
	return e.err
}

package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/addr"
)

// Binary trace format, little-endian:
//
//	magic   [8]byte  "DLPTRACE"
//	version uint32   (currently 1)
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
// The format exists so kernels — including ones converted from external
// simulators' traces — can be stored and replayed byte-identically.

var traceMagic = [8]byte{'D', 'L', 'P', 'T', 'R', 'A', 'C', 'E'}

const traceVersion = 1

// limits guard readers against corrupt or hostile inputs.
const (
	maxNameLen = 1 << 10
	maxBlocks  = 1 << 20
	maxWarps   = 1 << 16
	maxInstrs  = 1 << 26
	maxLanes   = 255
)

// WriteTo serializes the kernel. It returns the byte count written.
func (k *Kernel) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if len(k.Name) > maxNameLen {
		return cw.n, fmt.Errorf("trace: kernel name longer than %d bytes", maxNameLen)
	}
	hdr := append(cw.buf[:0], traceMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, traceVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(k.Name)))
	hdr = append(hdr, k.Name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(k.Blocks)))
	if err := cw.flush(hdr); err != nil {
		return cw.n, err
	}
	for _, b := range k.Blocks {
		if err := cw.writeUint32(uint32(len(b.Warps))); err != nil {
			return cw.n, err
		}
		for _, wt := range b.Warps {
			if err := cw.writeUint32(uint32(len(wt.Instrs))); err != nil {
				return cw.n, err
			}
			for i := range wt.Instrs {
				if err := cw.writeInstr(&wt.Instrs[i]); err != nil {
					return cw.n, err
				}
			}
		}
	}
	return cw.n, bw.Flush()
}

// appendInstr appends one instruction's wire encoding (the format
// comment above; shared by DLPTRACE and DLPSTRM1) to dst.
func appendInstr(dst []byte, in *Instr) ([]byte, error) {
	dst = append(dst, uint8(in.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, in.PC)
	if in.Kind == Compute {
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

// ReadKernel deserializes a kernel written by WriteTo.
func ReadKernel(r io.Reader) (*Kernel, error) {
	br := bufio.NewReader(r)
	read := func(v interface{}) error {
		return binary.Read(br, binary.LittleEndian, v)
	}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	var nameLen uint32
	if err := read(&nameLen); err != nil {
		return nil, err
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d too large", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var nBlocks uint32
	if err := read(&nBlocks); err != nil {
		return nil, err
	}
	if nBlocks > maxBlocks {
		return nil, fmt.Errorf("trace: block count %d too large", nBlocks)
	}
	k := &Kernel{Name: string(name), Blocks: make([]*Block, 0, nBlocks)}
	totalInstrs := 0
	for bi := uint32(0); bi < nBlocks; bi++ {
		var nWarps uint32
		if err := read(&nWarps); err != nil {
			return nil, err
		}
		if nWarps > maxWarps {
			return nil, fmt.Errorf("trace: warp count %d too large", nWarps)
		}
		blk := &Block{Warps: make([]*WarpTrace, 0, nWarps)}
		for wi := uint32(0); wi < nWarps; wi++ {
			var nInstrs uint32
			if err := read(&nInstrs); err != nil {
				return nil, err
			}
			totalInstrs += int(nInstrs)
			if totalInstrs > maxInstrs {
				return nil, fmt.Errorf("trace: instruction count exceeds %d", maxInstrs)
			}
			wt := &WarpTrace{Instrs: make([]Instr, 0, nInstrs)}
			for ii := uint32(0); ii < nInstrs; ii++ {
				in, err := readInstr(br)
				if err != nil {
					return nil, fmt.Errorf("trace: block %d warp %d insn %d: %w", bi, wi, ii, err)
				}
				wt.Instrs = append(wt.Instrs, in)
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k, nil
}

func readInstr(r io.Reader) (Instr, error) {
	read := func(v interface{}) error { return binary.Read(r, binary.LittleEndian, v) }
	var kind uint8
	if err := read(&kind); err != nil {
		return Instr{}, err
	}
	var in Instr
	in.Kind = Kind(kind)
	if err := read(&in.PC); err != nil {
		return Instr{}, err
	}
	switch in.Kind {
	case Compute:
		var lat uint32
		if err := read(&lat); err != nil {
			return Instr{}, err
		}
		var lanes uint8
		if err := read(&lanes); err != nil {
			return Instr{}, err
		}
		in.Latency = int(lat)
		in.ActiveLanes = int(lanes)
	case Load, Store:
		var lanes uint8
		if err := read(&lanes); err != nil {
			return Instr{}, err
		}
		in.ActiveLanes = int(lanes)
		in.Addrs = make([]addr.Addr, lanes)
		for i := range in.Addrs {
			var a uint64
			if err := read(&a); err != nil {
				return Instr{}, err
			}
			in.Addrs[i] = addr.Addr(a)
		}
	default:
		return Instr{}, fmt.Errorf("unknown instruction kind %d", kind)
	}
	return in, nil
}

// countWriter tracks bytes written (WriteTo's return value, WriteFile's
// chunk offsets) and owns the scratch buffer the encoders append into:
// a header, a count or a whole instruction is built there and handed to
// the underlying writer in one Write, with no per-field allocation.
type countWriter struct {
	w   io.Writer
	n   int64
	buf []byte
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// flush writes b, which was appended to c.buf[:0], and keeps its
// storage as the next scratch buffer.
func (c *countWriter) flush(b []byte) error {
	c.buf = b
	_, err := c.Write(b)
	return err
}

func (c *countWriter) writeUint32(v uint32) error {
	return c.flush(binary.LittleEndian.AppendUint32(c.buf[:0], v))
}

func (c *countWriter) writeInstr(in *Instr) error {
	b, err := appendInstr(c.buf[:0], in)
	if err != nil {
		return err
	}
	return c.flush(b)
}

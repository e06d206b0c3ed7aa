package trace

import (
	"bufio"
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
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if len(k.Name) > maxNameLen {
		return fmt.Errorf("trace: kernel name longer than %d bytes", maxNameLen)
	}
	hdr := append(cw.buf[:0], digestMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, digestVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(k.Name)))
	hdr = append(hdr, k.Name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(k.Blocks)))
	if err := cw.flush(hdr); err != nil {
		return err
	}
	for _, b := range k.Blocks {
		if err := cw.writeUint32(uint32(len(b.Warps))); err != nil {
			return err
		}
		for _, wt := range b.Warps {
			if err := cw.writeUint32(uint32(len(wt.Instrs))); err != nil {
				return err
			}
			for i := range wt.Instrs {
				if err := cw.writeInstr(&wt.Instrs[i]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
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

// countWriter tracks bytes written (WriteFile's chunk offsets) and owns
// the scratch buffer the encoders append into: a header, a count or a
// whole instruction is built there and handed to the underlying writer
// in one Write, with no per-field allocation.
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

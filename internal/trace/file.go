package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/addr"
)

// On-disk stream format ("DLPSTRM1", little-endian):
//
//	header:
//	  magic       [8]byte  "DLPSTRM1"
//	  version     uint32   (currently 1)
//	  chunkInstrs uint32   window size every chunk but a warp's last holds
//	  name        uint32 length + bytes
//	  blocks      uint32
//	  per block:  warps uint32
//	chunk data, block-major, warp order, chunk order:
//	  instructions encoded exactly as the DLPTRACE kernel format
//	  (kind uint8, pc uint32; compute: latency uint32 + lanes uint8;
//	  memory: lanes uint8 + lanes x uint64 addresses)
//	index (at footer's indexOff), block-major, warp order:
//	  per warp: instrs uint32, then ceil(instrs/chunkInstrs) x
//	            (offset uint64, size uint32) chunk locations
//	footer (last 48 bytes):
//	  indexOff uint64
//	  sha256   [32]byte  over file bytes [0, size-48)
//	  tail     [8]byte   "DLPSTRM1"
//
// The per-warp chunk index is what makes the format streamable: a
// simulation seeks straight to any warp's next window with one ReadAt,
// so resident-warp state — not trace footprint — bounds memory. The
// whole-file checksum makes corruption detection an Open-time property;
// Fill never has to distinguish truncation from bad data mid-run.

var streamMagic = [8]byte{'D', 'L', 'P', 'S', 'T', 'R', 'M', '1'}

const (
	streamVersion   = 1
	streamFooterLen = 8 + sha256.Size + 8
	maxChunkInstrs  = 1 << 16
	maxChunkBytes   = 1 << 30
)

// FormatError describes a structurally invalid, truncated, or corrupt
// trace-stream file. Open returns it for anything wrong with the file
// itself; a FileStream whose file is mutilated after Open panics with
// one (the runner's recover boundary converts that into a job error).
type FormatError struct {
	Path string // file being read
	Msg  string // what was wrong
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("trace: stream file %s: %s", e.Path, e.Msg)
}

func formatErrf(path, format string, args ...any) *FormatError {
	return &FormatError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// chunkRef locates one chunk's encoded bytes in the file.
type chunkRef struct {
	off  int64
	size uint32
}

// fileWarp is one warp's index entry.
type fileWarp struct {
	instrs int
	chunks []chunkRef
}

// FileStream replays a "DLPSTRM1" trace file as a Stream. Open
// validates the whole file — bounds, index sanity, and the full-file
// checksum — so every later Fill is a bounds-checked ReadAt into the
// caller's chunk. Fill is safe for concurrent use across warps (the
// phase-parallel engine ticks SMs concurrently against one stream).
type FileStream struct {
	f           *os.File
	path        string
	name        string
	chunkInstrs int
	warpsPer    []int      // warps per block
	warps       []fileWarp // block-major, warp order
	warpStart   []int      // first warps[] index of each block
	digest      string     // hex sha256 of the hashed region
}

// Open opens and fully validates a trace-stream file. Any structural
// problem — bad magic, truncation, out-of-bounds index entries, or a
// checksum mismatch — comes back as a *FormatError.
func Open(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newFileStream(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func newFileStream(f *os.File, path string) (*FileStream, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < streamFooterLen+8 {
		return nil, formatErrf(path, "file too small (%d bytes) to be a trace stream", size)
	}

	// Footer first: tail magic, index offset, and the checksum that
	// vouches for everything else.
	var footer [streamFooterLen]byte
	if _, err := f.ReadAt(footer[:], size-streamFooterLen); err != nil {
		return nil, formatErrf(path, "reading footer: %v", err)
	}
	if [8]byte(footer[streamFooterLen-8:]) != streamMagic {
		return nil, formatErrf(path, "bad tail magic %q", footer[streamFooterLen-8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	hashedLen := size - streamFooterLen
	if indexOff < 0 || indexOff > hashedLen {
		return nil, formatErrf(path, "index offset %d out of range (file %d bytes)", indexOff, size)
	}
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(f, 0, hashedLen)); err != nil {
		return nil, formatErrf(path, "hashing: %v", err)
	}
	sum := h.Sum(nil)
	var want [sha256.Size]byte
	copy(want[:], footer[8:8+sha256.Size])
	if [sha256.Size]byte(sum) != want {
		return nil, formatErrf(path, "checksum mismatch: file is corrupt or truncated")
	}

	s := &FileStream{f: f, path: path, digest: fmt.Sprintf("%x", sum)}

	// Header.
	hr := bufio.NewReader(io.NewSectionReader(f, 0, indexOff))
	var magic [8]byte
	if _, err := io.ReadFull(hr, magic[:]); err != nil {
		return nil, formatErrf(path, "reading magic: %v", err)
	}
	if magic != streamMagic {
		return nil, formatErrf(path, "bad magic %q", magic[:])
	}
	u32 := func(what string) (uint32, error) {
		var v uint32
		if err := binary.Read(hr, binary.LittleEndian, &v); err != nil {
			return 0, formatErrf(path, "reading %s: %v", what, err)
		}
		return v, nil
	}
	version, err := u32("version")
	if err != nil {
		return nil, err
	}
	if version != streamVersion {
		return nil, formatErrf(path, "unsupported version %d", version)
	}
	ci, err := u32("chunk size")
	if err != nil {
		return nil, err
	}
	if ci == 0 || ci > maxChunkInstrs {
		return nil, formatErrf(path, "chunk size %d out of range", ci)
	}
	s.chunkInstrs = int(ci)
	nameLen, err := u32("name length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxNameLen {
		return nil, formatErrf(path, "name length %d too large", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(hr, name); err != nil {
		return nil, formatErrf(path, "reading name: %v", err)
	}
	s.name = string(name)
	nBlocks, err := u32("block count")
	if err != nil {
		return nil, err
	}
	if nBlocks == 0 || nBlocks > maxBlocks {
		return nil, formatErrf(path, "block count %d out of range", nBlocks)
	}
	s.warpsPer = make([]int, nBlocks)
	s.warpStart = make([]int, nBlocks)
	totalWarps := 0
	for bi := range s.warpsPer {
		nw, err := u32(fmt.Sprintf("block %d warp count", bi))
		if err != nil {
			return nil, err
		}
		if nw == 0 || nw > maxWarps {
			return nil, formatErrf(path, "block %d warp count %d out of range", bi, nw)
		}
		s.warpStart[bi] = totalWarps
		s.warpsPer[bi] = int(nw)
		totalWarps += int(nw)
	}

	// Index.
	ir := bufio.NewReader(io.NewSectionReader(f, indexOff, hashedLen-indexOff))
	iu32 := func(what string) (uint32, error) {
		var v uint32
		if err := binary.Read(ir, binary.LittleEndian, &v); err != nil {
			return 0, formatErrf(path, "index: reading %s: %v", what, err)
		}
		return v, nil
	}
	s.warps = make([]fileWarp, totalWarps)
	totalInstrs := 0
	for wi := range s.warps {
		n, err := iu32(fmt.Sprintf("warp %d instr count", wi))
		if err != nil {
			return nil, err
		}
		totalInstrs += int(n)
		if n == 0 || totalInstrs > maxInstrs {
			return nil, formatErrf(path, "warp %d instr count %d out of range", wi, n)
		}
		nChunks := (int(n) + s.chunkInstrs - 1) / s.chunkInstrs
		w := fileWarp{instrs: int(n), chunks: make([]chunkRef, nChunks)}
		for c := range w.chunks {
			var off uint64
			if err := binary.Read(ir, binary.LittleEndian, &off); err != nil {
				return nil, formatErrf(path, "index: reading warp %d chunk %d offset: %v", wi, c, err)
			}
			sz, err := iu32(fmt.Sprintf("warp %d chunk %d size", wi, c))
			if err != nil {
				return nil, err
			}
			if sz == 0 || sz > maxChunkBytes || int64(off) < 0 ||
				int64(off)+int64(sz) > indexOff {
				return nil, formatErrf(path, "index: warp %d chunk %d spans [%d, %d) outside chunk data [0, %d)",
					wi, c, off, off+uint64(sz), indexOff)
			}
			w.chunks[c] = chunkRef{off: int64(off), size: sz}
		}
		s.warps[wi] = w
	}
	return s, nil
}

// Close releases the underlying file.
func (s *FileStream) Close() error { return s.f.Close() }

// Digest is the file's content hash (hex sha256 of everything but the
// footer's own hash bytes).
func (s *FileStream) Digest() string { return s.digest }

func (s *FileStream) Name() string        { return s.name }
func (s *FileStream) Blocks() int         { return len(s.warpsPer) }
func (s *FileStream) Warps(block int) int { return s.warpsPer[block] }
func (s *FileStream) SpecKey() string     { return "file:sha256:" + s.digest }

// ChunkInstrs is the file's window size (cursor windows follow it).
func (s *FileStream) ChunkInstrs() int { return s.chunkInstrs }

// Fill decodes the chunk holding instruction start into c. The stream
// contract guarantees start falls on a chunk boundary. I/O failures
// after Open's full validation mean the file changed underneath us;
// Fill panics with a *FormatError, which the runner's recover boundary
// reports as the job's error.
func (s *FileStream) Fill(block, warp, start int, c *Chunk) ([]Instr, bool, bool) {
	fw := &s.warps[s.warpStart[block]+warp]
	if start%s.chunkInstrs != 0 || start < 0 || start >= fw.instrs {
		panic(formatErrf(s.path, "fill at %d: not a chunk boundary of warp with %d instrs", start, fw.instrs))
	}
	ref := fw.chunks[start/s.chunkInstrs]
	count := fw.instrs - start
	if count > s.chunkInstrs {
		count = s.chunkInstrs
	}
	if cap(c.Buf) < int(ref.size) {
		c.Buf = make([]byte, ref.size)
	}
	c.Buf = c.Buf[:ref.size]
	if _, err := s.f.ReadAt(c.Buf, ref.off); err != nil {
		panic(formatErrf(s.path, "reading chunk at %d: %v", ref.off, err))
	}
	if err := decodeChunk(c, count); err != nil {
		panic(formatErrf(s.path, "chunk at %d: %v", ref.off, err))
	}
	return c.Instrs, start+count == fw.instrs, true
}

// decodeChunk parses count instructions from c.Buf into c.Instrs, with
// per-lane addresses carved out of c.Addrs — no per-call allocations
// once the chunk's arenas reach their high-water capacity.
func decodeChunk(c *Chunk, count int) error {
	buf := c.Buf
	p := 0
	need := func(n int) bool { return len(buf)-p >= n }
	for i := 0; i < count; i++ {
		if !need(5) {
			return fmt.Errorf("insn %d: truncated header", i)
		}
		kind := Kind(buf[p])
		pc := binary.LittleEndian.Uint32(buf[p+1:])
		p += 5
		switch kind {
		case Compute:
			if !need(5) {
				return fmt.Errorf("insn %d: truncated compute", i)
			}
			lat := binary.LittleEndian.Uint32(buf[p:])
			lanes := buf[p+4]
			p += 5
			c.Instrs = append(c.Instrs, Instr{
				Kind: Compute, PC: pc, Latency: int(lat), ActiveLanes: int(lanes),
			})
		case Load, Store:
			if !need(1) {
				return fmt.Errorf("insn %d: truncated lane count", i)
			}
			lanes := int(buf[p])
			p++
			if !need(8 * lanes) {
				return fmt.Errorf("insn %d: truncated addresses", i)
			}
			aStart := len(c.Addrs)
			for l := 0; l < lanes; l++ {
				c.Addrs = append(c.Addrs, addr.Addr(binary.LittleEndian.Uint64(buf[p:])))
				p += 8
			}
			c.Instrs = append(c.Instrs, Instr{
				Kind: kind, PC: pc, ActiveLanes: lanes,
				Addrs: c.Addrs[aStart:len(c.Addrs):len(c.Addrs)],
			})
		default:
			return fmt.Errorf("insn %d: unknown kind %d", i, kind)
		}
	}
	if p != len(buf) {
		return fmt.Errorf("%d trailing bytes after %d instructions", len(buf)-p, count)
	}
	return nil
}

// WriteFile records src as a trace-stream file at path, windowed into
// chunkInstrs-instruction chunks (DefaultChunkInstrs if <= 0). It
// streams one warp window at a time, so recording never materializes
// the kernel.
func WriteFile(path string, src Stream, chunkInstrs int) (err error) {
	if chunkInstrs <= 0 {
		chunkInstrs = DefaultChunkInstrs
	}
	if chunkInstrs > maxChunkInstrs {
		return formatErrf(path, "chunk size %d exceeds format limit %d", chunkInstrs, maxChunkInstrs)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	h := sha256.New()
	bw := bufio.NewWriter(f)
	cw := &countWriter{w: io.MultiWriter(bw, h)}

	// Header.
	name := src.Name()
	if len(name) > maxNameLen {
		return formatErrf(path, "kernel name longer than %d bytes", maxNameLen)
	}
	nBlocks := src.Blocks()
	if nBlocks <= 0 || nBlocks > maxBlocks {
		return formatErrf(path, "block count %d out of range", nBlocks)
	}
	hdr := append(cw.buf[:0], streamMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, streamVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(chunkInstrs))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nBlocks))
	totalWarps := 0
	for bi := 0; bi < nBlocks; bi++ {
		nw := src.Warps(bi)
		if nw <= 0 || nw > maxWarps {
			return formatErrf(path, "block %d warp count %d out of range", bi, nw)
		}
		totalWarps += nw
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nw))
	}
	if err := cw.flush(hdr); err != nil {
		return err
	}

	// Chunk data. Source windows are rewindowed instruction by
	// instruction into exact chunkInstrs-sized chunks (the reader
	// derives each chunk's instruction count from the declared size),
	// so any backend window size — a compat backend's whole-warp tail,
	// another file's different chunking — records correctly.
	index := make([]fileWarp, 0, totalWarps)
	pool := NewChunkPool(chunkInstrs)
	chunk := pool.Get()
	for bi := 0; bi < nBlocks; bi++ {
		for wi := 0; wi < src.Warps(bi); wi++ {
			fw := fileWarp{}
			ref := chunkRef{off: cw.n}
			inChunk := 0
			for start, eof := 0, false; !eof; {
				chunk.Reset()
				var win []Instr
				win, eof, _ = src.Fill(bi, wi, start, chunk)
				if len(win) == 0 && !eof {
					return formatErrf(path, "stream %q block %d warp %d: empty non-eof window at %d",
						name, bi, wi, start)
				}
				for i := range win {
					if inChunk == chunkInstrs {
						ref.size = uint32(cw.n - ref.off)
						fw.chunks = append(fw.chunks, ref)
						ref = chunkRef{off: cw.n}
						inChunk = 0
					}
					if err := cw.writeInstr(&win[i]); err != nil {
						return err
					}
					inChunk++
				}
				fw.instrs += len(win)
				start += len(win)
			}
			if fw.instrs == 0 {
				return formatErrf(path, "stream %q block %d warp %d is empty", name, bi, wi)
			}
			ref.size = uint32(cw.n - ref.off)
			fw.chunks = append(fw.chunks, ref)
			index = append(index, fw)
		}
	}

	// Index.
	indexOff := cw.n
	for _, fw := range index {
		ent := binary.LittleEndian.AppendUint32(cw.buf[:0], uint32(fw.instrs))
		for _, ref := range fw.chunks {
			ent = binary.LittleEndian.AppendUint64(ent, uint64(ref.off))
			ent = binary.LittleEndian.AppendUint32(ent, ref.size)
		}
		if err := cw.flush(ent); err != nil {
			return err
		}
	}

	// Footer: indexOff and the checksum bypass the hasher (the hash
	// covers exactly the bytes before the footer).
	var footer [streamFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(indexOff))
	h.Sum(footer[8:8])
	copy(footer[streamFooterLen-8:], streamMagic[:])
	if _, err := bw.Write(footer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"

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
//	  instructions in the canonical encoding (encode.go: kind uint8,
//	  pc uint32; compute: latency uint32 + lanes uint8; memory:
//	  lanes uint8 + lanes x uint64 addresses)
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
// a file damaged after Open fails the Fill that reads the damage.

var streamMagic = [8]byte{'D', 'L', 'P', 'S', 'T', 'R', 'M', '1'}

const (
	streamVersion   = 1
	streamFooterLen = 8 + sha256.Size + 8
	maxChunkInstrs  = 1 << 16
	maxChunkBytes   = 1 << 30
)

// limits guard the reader against corrupt or hostile inputs.
const (
	maxNameLen = 1 << 10
	maxBlocks  = 1 << 20
	maxWarps   = 1 << 16
	maxInstrs  = 1 << 26
)

// FormatError describes a structurally invalid, truncated, or corrupt
// trace-stream file. Open returns it for anything wrong with the file
// itself. A FileStream whose file is damaged after Open — or that holds
// an instruction it cannot decode under a correct checksum — reports one
// on the Chunk it was filling (Chunk.Err); a cursor ends its warp with
// it, so a simulation returns it as its error.
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
// caller's chunk. Fill is safe for concurrent use across warps (engines
// on different runner workers may replay one stream at once).
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
// checksum mismatch — comes back as a *FormatError. The header and
// index are parsed on one task while the file is hashed on another
// (FanOut), and the parsing task then reads the blocks for the hasher
// (hashWhile). The checksum is checked first: a file that is both
// corrupt and badly indexed reports the mismatch, and no stream is
// returned from bytes the checksum has not vouched for.
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

// ReadKernel loads a whole trace-stream file into memory: Open, then
// Materialize, then Close. Anything wrong with the file is a
// *FormatError.
func ReadKernel(path string) (*Kernel, error) {
	s, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return Materialize(s)
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

	// The header and index are parsed while the file is hashed. Nothing
	// parsed is returned unless the checksum holds: a read error comes
	// first, then a mismatch, then what was wrong with the index.
	var (
		s       *FileStream
		formErr error
	)
	sum, err := hashWhile(f, hashedLen, func() { s, formErr = parseFile(f, path, indexOff, hashedLen) })
	if err != nil {
		return nil, formatErrf(path, "hashing: %v", err)
	}
	if [sha256.Size]byte(footer[8:8+sha256.Size]) != sum {
		return nil, formatErrf(path, "checksum mismatch: file is corrupt or truncated")
	}
	if formErr != nil {
		return nil, formErr
	}
	s.digest = hex.EncodeToString(sum[:])
	return s, nil
}

// hashWhile returns the sha256 of src's first end bytes and the first
// error reading them. It runs two FanOut tasks: one hashes, the other
// calls parse and then reads the blocks for the hasher through a
// handoff (readAt), so the hasher hashes one block while the next is
// read. readAt is deferred, so a panic in parse still lets the hasher
// finish and reaches the caller.
func hashWhile(src io.ReaderAt, end int64, parse func()) (sum [sha256.Size]byte, err error) {
	blocks := newHandoff()
	FanOut(2, 2, func(_, task int) {
		if task == 0 {
			h := sha256.New()
			err = blocks.drain(h)
			h.Sum(sum[:0])
			return
		}
		defer blocks.readAt(src, end)
		parse()
	})
	return sum, err
}

// parseFile reads the header and the index of the file, whose index
// starts at indexOff and whose hashed region ends at hashedLen. It
// trusts nothing it reads: Open runs it before the checksum is known.
func parseFile(f *os.File, path string, indexOff, hashedLen int64) (*FileStream, error) {
	s := &FileStream{f: f, path: path}

	// Header: its 20 fixed bytes (magic, version, chunk size, name
	// length), the name and the block count, then the per-block warp
	// counts, each read with one ReadAt that stops at the chunk data.
	le := binary.LittleEndian
	hdr, err := readRegion(f, 0, 20+maxNameLen+4, indexOff)
	if err != nil {
		return nil, formatErrf(path, "reading header: %v", err)
	}
	if len(hdr) < 20 {
		return nil, formatErrf(path, "header cut off at byte %d", len(hdr))
	}
	if [8]byte(hdr) != streamMagic {
		return nil, formatErrf(path, "bad magic %q", hdr[:8])
	}
	if v := le.Uint32(hdr[8:]); v != streamVersion {
		return nil, formatErrf(path, "unsupported version %d", v)
	}
	ci, nameLen := le.Uint32(hdr[12:]), le.Uint32(hdr[16:])
	if ci == 0 || ci > maxChunkInstrs {
		return nil, formatErrf(path, "chunk size %d out of range", ci)
	}
	if nameLen > maxNameLen {
		return nil, formatErrf(path, "name length %d too large", nameLen)
	}
	warpsAt := 20 + int(nameLen) + 4
	if len(hdr) < warpsAt {
		return nil, formatErrf(path, "header cut off in the name or block count")
	}
	s.chunkInstrs, s.name = int(ci), string(hdr[20:warpsAt-4])
	nBlocks := le.Uint32(hdr[warpsAt-4:])
	if nBlocks == 0 || nBlocks > maxBlocks {
		return nil, formatErrf(path, "block count %d out of range", nBlocks)
	}
	counts, err := readRegion(f, int64(warpsAt), 4*int64(nBlocks), indexOff)
	if err != nil {
		return nil, formatErrf(path, "reading warp counts: %v", err)
	}
	if len(counts) < 4*int(nBlocks) {
		return nil, formatErrf(path, "header cut off in block %d warp count", len(counts)/4)
	}
	dataOff := int64(warpsAt + len(counts)) // chunk data runs from here to indexOff
	s.warpsPer = make([]int, nBlocks)
	s.warpStart = make([]int, nBlocks)
	totalWarps := 0
	for bi := range s.warpsPer {
		nw := le.Uint32(counts[4*bi:])
		if nw == 0 || nw > maxWarps {
			return nil, formatErrf(path, "block %d warp count %d out of range", bi, nw)
		}
		s.warpStart[bi] = totalWarps
		s.warpsPer[bi] = int(nw)
		totalWarps += int(nw)
	}
	// Every warp's entry takes at least its 4-byte count, so the warp
	// table is never larger than the index can describe, even for a
	// header the checksum is about to refuse.
	if ixLen := hashedLen - indexOff; 4*int64(totalWarps) > ixLen {
		return nil, formatErrf(path, "index of %d bytes cannot hold %d warps", ixLen, totalWarps)
	}

	// Index: one ReadAt, then every warp's chunk list carved out of one
	// slice sized for the entries the index has room for.
	ix, err := readRegion(f, indexOff, hashedLen-indexOff, hashedLen)
	if err != nil {
		return nil, formatErrf(path, "reading index: %v", err)
	}
	refs := make([]chunkRef, 0, max(0, (len(ix)-4*totalWarps)/12))
	s.warps = make([]fileWarp, totalWarps)
	totalInstrs := 0
	for wi := range s.warps {
		if len(ix) < 4 {
			return nil, formatErrf(path, "index: warp %d instr count cut off", wi)
		}
		n := le.Uint32(ix)
		totalInstrs += int(n)
		if n == 0 || totalInstrs > maxInstrs {
			return nil, formatErrf(path, "warp %d instr count %d out of range", wi, n)
		}
		nChunks := (int(n) + s.chunkInstrs - 1) / s.chunkInstrs
		ents := ix[4:]
		if len(ents) < 12*nChunks {
			return nil, formatErrf(path, "index: warp %d chunk %d entry cut off", wi, len(ents)/12)
		}
		first := len(refs)
		for c := 0; c < nChunks; c++ {
			off, sz := le.Uint64(ents[12*c:]), le.Uint32(ents[12*c+8:])
			if sz == 0 || sz > maxChunkBytes || off < uint64(dataOff) || off > uint64(indexOff) ||
				int64(off)+int64(sz) > indexOff {
				return nil, formatErrf(path, "index: warp %d chunk %d spans [%d, %d) outside chunk data [%d, %d)",
					wi, c, off, off+uint64(sz), dataOff, indexOff)
			}
			refs = append(refs, chunkRef{off: int64(off), size: sz})
		}
		s.warps[wi] = fileWarp{instrs: int(n), chunks: refs[first:len(refs):len(refs)]}
		ix = ents[12*nChunks:]
	}
	return s, nil
}

// readRegion reads up to n bytes at off, stopping at end (the region
// the bytes must come from), into a new slice.
func readRegion(f *os.File, off, n, end int64) ([]byte, error) {
	b := make([]byte, max(0, min(n, end-off)))
	_, err := f.ReadAt(b, off)
	return b, err
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
// contract guarantees start falls on a chunk boundary. A start off the
// chunk grid, a read that fails because the file changed after Open's
// full validation, or bytes that do not decode set c.Err to a
// *FormatError and return an empty eof window.
func (s *FileStream) Fill(block, warp, start int, c *Chunk) ([]Instr, bool, bool) {
	fw := &s.warps[s.warpStart[block]+warp]
	if start%s.chunkInstrs != 0 || start < 0 || start >= fw.instrs {
		return s.fail(c, "fill at %d: not a chunk boundary of warp with %d instrs", start, fw.instrs)
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
		return s.fail(c, "reading chunk at %d: %v", ref.off, err)
	}
	if err := decodeChunk(c, count); err != nil {
		return s.fail(c, "chunk at %d: %v", ref.off, err)
	}
	return c.Instrs, start+count == fw.instrs, true
}

// fail is Fill's failure return: the *FormatError on c, an empty eof
// window.
func (s *FileStream) fail(c *Chunk, format string, args ...any) ([]Instr, bool, bool) {
	c.Err = formatErrf(s.path, format, args...)
	return nil, true, true
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
// reads src one window of fillInstrs instructions at a time, whatever
// the chunk size, so recording never materializes the kernel and a
// generator replays a long warp once per window, not once per chunk.
// The caller encodes the file a block of fileBufSize bytes at a time,
// and a helper hashes and writes each full block while the next one is
// encoded (writeStream).
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
	return writeStream(f, path, src, chunkInstrs)
}

// writeStream records src into w, naming path in its errors. Its two
// tasks run beside each other on FanOut's two workers: the encoding
// task (encodeStream) flushes each full block into a handoff, and the
// writing task drains it, hashing every block and writing it to w. The
// footer follows once both are done. The encoding task closes the
// hand-off however it ends, so a panic of src's Fill reaches the
// caller, and an error of w stops it at its next block and is returned.
func writeStream(w io.Writer, path string, src Stream, chunkInstrs int) error {
	h := sha256.New()
	blocks := newHandoff()
	var (
		indexOff int64
		err      error
		wErr     error
	)
	FanOut(2, 2, func(_, task int) {
		if task == 0 {
			defer blocks.close()
			indexOff, err = encodeStream(blocks, path, src, chunkInstrs)
			return
		}
		wErr = blocks.drain(io.MultiWriter(h, w))
	})
	if err == nil {
		err = wErr
	}
	if err != nil {
		return err
	}

	// Footer: indexOff and the checksum bypass the hasher (the hash
	// covers exactly the bytes before the footer).
	var footer [streamFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(indexOff))
	h.Sum(footer[8:8])
	copy(footer[streamFooterLen-8:], streamMagic[:])
	_, err = w.Write(footer[:])
	return err
}

// encodeStream encodes src's header, chunk data and index into w and
// returns the index's offset.
func encodeStream(w io.Writer, path string, src Stream, chunkInstrs int) (int64, error) {
	e := newEncoder(w, fileBufSize)

	// Header.
	name := src.Name()
	if len(name) > maxNameLen {
		return 0, formatErrf(path, "kernel name longer than %d bytes", maxNameLen)
	}
	nBlocks := src.Blocks()
	if nBlocks <= 0 || nBlocks > maxBlocks {
		return 0, formatErrf(path, "block count %d out of range", nBlocks)
	}
	// The fixed header fits the empty buffer.
	e.buf = append(e.buf, streamMagic[:]...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, streamVersion)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(chunkInstrs))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(name)))
	e.buf = append(e.buf, name...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(nBlocks))
	totalWarps := 0
	for bi := 0; bi < nBlocks; bi++ {
		nw := src.Warps(bi)
		if nw <= 0 || nw > maxWarps {
			return 0, formatErrf(path, "block %d warp count %d out of range", bi, nw)
		}
		totalWarps += nw
		e.uint32(uint32(nw))
	}

	// Chunk data. Source windows of fillInstrs instructions are
	// rewindowed instruction by instruction into exact
	// chunkInstrs-sized chunks (the reader derives each chunk's
	// instruction count from the declared size), so any backend window
	// size — a compat backend's whole-warp tail, another file's
	// different chunking — records correctly. Every warp's chunks are
	// ceil(instrs/chunkInstrs) consecutive entries of one list for the
	// whole file, as parseFile reads them back.
	instrs := make([]uint32, 0, totalWarps)
	var refs []chunkRef
	chunk := &Chunk{Instrs: make([]Instr, 0, fillInstrs)}
	for bi := 0; bi < nBlocks; bi++ {
		for wi := 0; wi < src.Warps(bi); wi++ {
			n := 0
			ref := chunkRef{off: e.off()}
			inChunk := 0
			for eof := false; !eof; {
				chunk.Reset()
				var win []Instr
				win, eof, _ = src.Fill(bi, wi, n, chunk)
				if chunk.Err != nil {
					return 0, chunk.Err
				}
				if len(win) == 0 && !eof {
					return 0, formatErrf(path, "stream %q block %d warp %d: empty non-eof window at %d",
						name, bi, wi, n)
				}
				for i := range win {
					if inChunk == chunkInstrs {
						ref.size = uint32(e.off() - ref.off)
						refs = append(refs, ref)
						ref = chunkRef{off: e.off()}
						inChunk = 0
					}
					if err := e.instr(&win[i]); err != nil {
						return 0, err
					}
					inChunk++
				}
				n += len(win)
			}
			if n == 0 {
				return 0, formatErrf(path, "stream %q block %d warp %d is empty", name, bi, wi)
			}
			ref.size = uint32(e.off() - ref.off)
			refs = append(refs, ref)
			instrs = append(instrs, uint32(n))
		}
	}

	// Index.
	indexOff := e.off()
	for _, n := range instrs {
		e.uint32(n)
		nChunks := (int(n) + chunkInstrs - 1) / chunkInstrs
		for _, ref := range refs[:nChunks] {
			e.reserve(12)
			e.buf = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(e.buf, uint64(ref.off)), ref.size)
		}
		refs = refs[nChunks:]
	}
	return indexOff, e.flush()
}

// spareBlocks is how many block buffers go round between WriteFile's
// encoder and its writing task, and between Open's reading task and
// its hasher: the side that fills them runs at most this many blocks
// ahead of the other. Each is fileBufSize bytes (WriteFile's encoder
// keeps a buffer of its own besides).
const spareBlocks = 2

// A handoff passes blocks, in order, from a filling task to a using
// task through spareBlocks buffers that go round between them: Open's
// reading task fills them from the file for its hasher (readAt), and
// WriteFile's encoder flushes into one as an io.Writer for its writing
// task. A filler's error travels with its block, and the first error on
// the using side (the filler's, or drain's writer's) sticks: the filler
// gets it at its next block and stops, and drain drops every block
// handed to it after that.
type handoff struct {
	full chan filled // blocks filled, in order
	free chan []byte // buffers back from drain

	mu  sync.Mutex
	err error
}

// filled is one block, or the error filling it.
type filled struct {
	buf []byte
	err error
}

func newHandoff() *handoff {
	b := &handoff{full: make(chan filled, spareBlocks), free: make(chan []byte, spareBlocks)}
	for i := 0; i < spareBlocks; i++ {
		b.free <- nil
	}
	return b
}

// next returns a buffer of n bytes to fill, or the using side's error.
func (b *handoff) next(n int) ([]byte, error) {
	buf := <-b.free
	if err := b.failed(); err != nil {
		b.free <- buf
		return nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, max(n, fileBufSize))
	}
	return buf[:n], nil
}

// Write copies p into a spare buffer and hands it over.
func (b *handoff) Write(p []byte) (int, error) {
	buf, err := b.next(len(p))
	if err != nil {
		return 0, err
	}
	copy(buf, p)
	b.full <- filled{buf: buf}
	return len(p), nil
}

// readAt reads src's first end bytes into the spare buffers, a block at
// a time, and hands each over, until the end or an error; it then
// closes the hand-off.
func (b *handoff) readAt(src io.ReaderAt, end int64) {
	defer b.close()
	for off := int64(0); off < end; {
		buf, err := b.next(int(min(fileBufSize, end-off)))
		if err != nil {
			return
		}
		_, err = src.ReadAt(buf, off)
		b.full <- filled{buf, err}
		if err != nil {
			return
		}
		off += int64(len(buf))
	}
}

// close tells drain that no block follows.
func (b *handoff) close() { close(b.full) }

// drain writes every block handed to it to w, in order, until close,
// and returns the first error, the filler's or w's.
func (b *handoff) drain(w io.Writer) error {
	var err error
	for f := range b.full {
		if err == nil {
			if err = f.err; err == nil {
				_, err = w.Write(f.buf)
			}
			if err != nil {
				b.mu.Lock()
				b.err = err
				b.mu.Unlock()
			}
		}
		b.free <- f.buf
	}
	return err
}

// failed returns the hand-off's first error, if any.
func (b *handoff) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

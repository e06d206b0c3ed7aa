package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// atLeastTwoPs raises GOMAXPROCS to 2 for the test, so a kernel over
// FanOutInstrs fans out on any host, and restores it afterwards.
func atLeastTwoPs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// startingGoroutines is the goroutine count a leak check starts from.
// The goroutine of the test before may still be on its way out when
// this test starts, so it waits, up to a second, for the count to stop
// falling.
func startingGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// settledGoroutines waits up to a second for the goroutine count to
// fall back to before (a worker's last act is wg.Done) and returns it.
func settledGoroutines(before int) int {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// bigStream is a kernel stream of about ten encoder blocks.
func bigStream() Stream { return NewKernelStream(testKernel(64, 16)) }

// failingWriter fails its Write number failAt (from 0) and every one
// after it, and keeps what the ones before it wrote and where each
// ended.
type failingWriter struct {
	failAt, writes int
	kept           bytes.Buffer
	ends           []int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAt {
		return 0, errDiskFull
	}
	n, err := w.kept.Write(p)
	w.ends = append(w.ends, w.kept.Len())
	return n, err
}

// countingStream counts the windows its source fills, cuts each to
// max instructions (when positive), and panics on the fill of warp 0
// of block panicAt (never when negative).
type countingStream struct {
	Stream
	fills   atomic.Int64
	max     int
	panicAt int
}

func (s *countingStream) Fill(block, warp, start int, c *Chunk) ([]Instr, bool, bool) {
	s.fills.Add(1)
	if block == s.panicAt && warp == 0 {
		panic("fill failed")
	}
	win, eof, owned := s.Stream.Fill(block, warp, start, c)
	if s.max > 0 && len(win) > s.max {
		win, eof = win[:s.max], false
	}
	return win, eof, owned
}

// TestWriteFileStopsAtAFailedWrite: the writing task's first error is
// what WriteFile returns, wherever it falls, and the encoder stops a few
// blocks after it instead of encoding the rest of the stream. No
// goroutine is left behind.
func TestWriteFileStopsAtAFailedWrite(t *testing.T) {
	whole := &failingWriter{failAt: math.MaxInt}
	all := &countingStream{Stream: bigStream(), panicAt: -1}
	if err := writeStream(whole, "whole", all, 8); err != nil {
		t.Fatal(err)
	}
	blocks := len(whole.ends) - 1 // the last write is the footer
	if blocks < 8 {
		t.Fatalf("the stream encodes to %d blocks, fewer than 8", blocks)
	}
	for _, k := range []int{0, 2, blocks - 1, blocks} { // the first block, one inside, the last, the footer
		before := startingGoroutines()
		src := &countingStream{Stream: bigStream(), panicAt: -1}
		w := &failingWriter{failAt: k}
		err := writeStream(w, "failing", src, 8)
		if !errors.Is(err, errDiskFull) {
			t.Errorf("write %d fails: WriteFile returned %v, want the writer's error", k, err)
		}
		if want := append([]int{0}, whole.ends...)[k]; !bytes.Equal(w.kept.Bytes(), whole.kept.Bytes()[:want]) {
			t.Errorf("write %d fails: %d bytes written before it, want the file's first %d", k, w.kept.Len(), want)
		}
		if k < blocks-spareBlocks-2 && src.fills.Load() >= all.fills.Load() {
			t.Errorf("write %d fails: the encoder filled %d windows, all %d of the stream", k, src.fills.Load(), all.fills.Load())
		}
		if after := settledGoroutines(before); after != before {
			t.Errorf("write %d fails: %d goroutines after, %d before", k, after, before)
		}
	}
}

// TestWriteFileRaisesAFillPanic: a panic of the stream's Fill in the
// middle of the file reaches WriteFile's caller with its value, after
// the writing task has stopped, and leaves no goroutine behind.
func TestWriteFileRaisesAFillPanic(t *testing.T) {
	before := startingGoroutines()
	var got any
	path := filepath.Join(t.TempDir(), "panic.dlpstrm")
	func() {
		defer func() { got = recover() }()
		WriteFile(path, &countingStream{Stream: bigStream(), panicAt: 40}, 8)
	}()
	if got != "fill failed" {
		t.Errorf("a Fill panicked: the caller recovered %v, want the Fill's panic", got)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("%d goroutines after, %d before", after, before)
	}
}

// TestOpenChecksTheSumBeforeTheIndex: Open parses the index while the
// file is hashed, and then reads the blocks ahead of the hash, but a
// file whose body and index are both damaged reports the checksum
// mismatch, wherever the body's damage lies and however many blocks
// the file has, and only a file the checksum vouches for reports what
// is wrong with its index.
func TestOpenChecksTheSumBeforeTheIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.dlpstrm")
	if err := WriteFile(path, NewKernelStream(testKernel(4, 8)), 8); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hashedLen := len(good) - streamFooterLen
	indexOff := int(binary.LittleEndian.Uint64(good[hashedLen:]))
	broken := append([]byte(nil), good[:hashedLen]...)
	binary.LittleEndian.PutUint32(broken[indexOff:], 0) // warp 0: no instructions

	// The broken index under the good file's checksum, with a byte of
	// the chunk data flipped as well.
	broken[40] ^= 0xff
	if err := os.WriteFile(path, append(broken, good[hashedLen:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a file with a damaged body and index")
	}
	wantFormatError(t, "damaged body and index", path, err)
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("damaged body and index: error %q, want the checksum mismatch", err)
	}

	// The same broken index under a checksum that vouches for it.
	broken[40] ^= 0xff
	writeCrafted(t, path, broken, indexOff)
	if s, err = Open(path); err == nil {
		s.Close()
		t.Fatal("Open accepted a checksummed file with a broken index")
	}
	wantFormatError(t, "broken index", path, err)
	if !strings.Contains(err.Error(), "warp 0 instr count 0 out of range") {
		t.Errorf("broken index: error %q, want the index's own error", err)
	}

	// A file of several blocks, read ahead of the hash: intact, it opens
	// under the digest of its bytes in order. With the index broken,
	// a byte flipped past the first block or a kilobyte cut out of the
	// third (the last block then ends mid-block) is the mismatch.
	if err := WriteFile(path, NewKernelStream(gridKernel(8, 16, 400)), 8); err != nil {
		t.Fatal(err)
	}
	if good, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	hashedLen = len(good) - streamFooterLen
	if hashedLen < 4*fileBufSize {
		t.Fatalf("the file is %d bytes, want at least four blocks", len(good))
	}
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(good[:hashedLen])
	if s.Close(); s.Digest() != hex.EncodeToString(sum[:]) {
		t.Errorf("digest %s, want the sha256 of the file's hashed bytes", s.Digest())
	}
	indexOff = int(binary.LittleEndian.Uint64(good[hashedLen:]))
	for _, damage := range []struct {
		what string
		body func(b []byte) []byte
	}{
		{"a byte past the first block", func(b []byte) []byte { b[3*fileBufSize+100] ^= 0xff; return b }},
		{"a cut mid-block", func(b []byte) []byte { return append(b[:2*fileBufSize+500], b[2*fileBufSize+1500:]...) }},
	} {
		broken := append([]byte(nil), good[:hashedLen]...)
		binary.LittleEndian.PutUint32(broken[indexOff:], 0)
		if err := os.WriteFile(path, append(damage.body(broken), good[hashedLen:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(path); err == nil {
			s.Close()
			t.Fatalf("Open accepted %s and a broken index", damage.what)
		}
		wantFormatError(t, damage.what, path, err)
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("%s and a broken index: error %q, want the checksum mismatch", damage.what, err)
		}
	}
}

// countingReaderAt counts its reads and fails every read that reaches
// past failAt.
type countingReaderAt struct {
	*bytes.Reader
	failAt int64
	reads  atomic.Int64
}

var errBadRead = errors.New("bad read")

func (r *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	r.reads.Add(1)
	if off+int64(len(p)) > r.failAt {
		return 0, errBadRead
	}
	return r.Reader.ReadAt(p, off)
}

// TestHashWhileStopsAtTheFailedRead: the parsing task reads every block
// Open hashes, one read a block, so a read that fails past the first
// block is the error hashWhile returns (newFileStream reports it before
// comparing the sum), and the reads stop at it. A panic in the parse
// still lets the hash finish and reaches the caller. None of it leaves
// a goroutine behind.
func TestHashWhileStopsAtTheFailedRead(t *testing.T) {
	data := make([]byte, 4*fileBufSize+500)
	for i := range data {
		data[i] = byte(i * 7)
	}
	end := int64(len(data))
	for _, leg := range []struct {
		what      string
		failAt    int64
		wantReads int64
	}{
		{"intact", end, 5},
		{"the third block failing", 2*fileBufSize + 1, 3},
		{"the cut last block failing", end - 1, 5},
	} {
		before := startingGoroutines()
		src := &countingReaderAt{Reader: bytes.NewReader(data), failAt: leg.failAt}
		parsed := false
		sum, err := hashWhile(src, end, func() { parsed = true })
		if leg.failAt == end {
			if err != nil || sum != sha256.Sum256(data) {
				t.Errorf("%s: sum %x, error %v; want the sha256 of the bytes", leg.what, sum, err)
			}
		} else if !errors.Is(err, errBadRead) {
			t.Errorf("%s: error %v, want the read's", leg.what, err)
		}
		if !parsed {
			t.Errorf("%s: the parse did not run", leg.what)
		}
		if n := src.reads.Load(); n != leg.wantReads {
			t.Errorf("%s: %d reads, want %d", leg.what, n, leg.wantReads)
		}
		if after := settledGoroutines(before); after != before {
			t.Errorf("%s: %d goroutines after, %d before", leg.what, after, before)
		}
	}

	before := startingGoroutines()
	src := &countingReaderAt{Reader: bytes.NewReader(data), failAt: end}
	var got any
	func() {
		defer func() { got = recover() }()
		hashWhile(src, end, func() { panic("parse failed") })
	}()
	if got != "parse failed" {
		t.Errorf("a panicking parse: recovered %v, want its value", got)
	}
	if n := src.reads.Load(); n != 5 {
		t.Errorf("a panicking parse: %d reads, want all 5 blocks", n)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("a panicking parse: %d goroutines after, %d before", after, before)
	}
}

// gridKernel is a compute-only kernel of blocks x warps warps of n
// instructions, the warps named in bad with a zero-latency instruction
// in the middle.
func gridKernel(blocks, warps, n int, bad ...int) *Kernel {
	k := &Kernel{Name: "wide", Blocks: make([]*Block, blocks)}
	for bi := range k.Blocks {
		k.Blocks[bi] = &Block{Warps: make([]*WarpTrace, warps)}
		for wi := range k.Blocks[bi].Warps {
			w := &WarpTrace{Instrs: make([]Instr, n)}
			for i := range w.Instrs {
				w.Instrs[i] = NewCompute(uint32(i), 4, 32)
			}
			k.Blocks[bi].Warps[wi] = w
		}
	}
	for _, g := range bad {
		k.Blocks[g/warps].Warps[g%warps].Instrs[n/2].Latency = 0
	}
	return k
}

// TestPackReportsTheFirstBadWarp: a kernel above FanOutInstrs packs on
// every P, and its error is still the first bad warp's in grid order —
// whichever worker met it, and whether the warp before it in the grid
// was already packed or not — exactly as on one P.
func TestPackReportsTheFirstBadWarp(t *testing.T) {
	atLeastTwoPs(t)
	const blocks, warps, n = 8, 16, 2 * FanOutInstrs / 128
	const first = "block 2 warp 5: trace: insn 128: compute latency 0"
	cases := []struct {
		name  string
		bad   []int
		setup func(k *Kernel) // packs part of the kernel first
		want  string
	}{
		{"one bad warp", []int{37}, nil, first},
		{"two bad warps", []int{37, 120}, nil, first},
		{"a later bad warp met first", []int{127, 37, 36 + 64}, nil, first},
		{"a packed warp too wide before it", []int{37}, func(k *Kernel) {
			k.Blocks[1].Warps[0].Instrs[0].ActiveLanes = 64
			if _, err := k.Blocks[1].Warps[0].pack(128, MaxOpLanes, nil); err != nil {
				t.Fatal(err)
			}
		}, "block 1 warp 0: trace: insn 0: 64 active lanes on 32-wide warps"},
		{"a packed warp too wide after it", []int{37}, func(k *Kernel) {
			k.Blocks[6].Warps[0].Instrs[0].ActiveLanes = 64
			if _, err := k.Blocks[6].Warps[0].pack(128, MaxOpLanes, nil); err != nil {
				t.Fatal(err)
			}
		}, first},
		{"an empty warp after it", []int{37}, func(k *Kernel) { k.Blocks[5].Warps[3].Instrs = nil }, first},
	}
	for _, c := range cases {
		for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
			k := gridKernel(blocks, warps, n, c.bad...)
			if c.setup != nil {
				c.setup(k)
			}
			prev := runtime.GOMAXPROCS(procs)
			err := k.Pack(128, 32)
			runtime.GOMAXPROCS(prev)
			var ie *InstrError
			if err == nil || !errors.As(err, &ie) || !strings.HasSuffix(err.Error(), c.want) {
				t.Errorf("%s on %d Ps: Pack returned %v, want ...%s", c.name, procs, err, c.want)
			}
		}
	}

	// A kernel already packed is one comparison per warp: no
	// allocation, no goroutine.
	k := gridKernel(blocks, warps, n)
	if err := k.Pack(128, 32); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := k.Pack(128, 32); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("packing a packed kernel allocates %.0f times", allocs)
	}
}

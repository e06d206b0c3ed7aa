package trace_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// The benchmarks below time the record/replay file layer and report it
// per encoded byte, on two files: SC at scale 1 (5.9 MB, 672-instruction
// warps) and HG at scale 3, the 29.9 MB file big_stream's set-up
// records and opens, whose long warps show what a source window costs:
//
//	go test -run '^$' -bench 'WriteFile|Open|KernelDigest' -benchmem ./internal/trace/
//
// A CPU profile of BenchmarkWriteFile (-cpuprofile) splits the write
// into generation (the workloads generator's Fill), encoding, hashing
// (sha256) and write(2); one of BenchmarkOpen splits Open into the
// checksum pass and the header and index parse.

// fileCases are the recorded files the file benchmarks time.
var fileCases = []struct {
	name  string
	app   string
	scale int
}{{"SC", "SC", 1}, {"HGx3", "HG", 3}}

// BenchmarkWriteFile records each file from its generator, as dlptrace
// record and big_stream's set-up do.
func BenchmarkWriteFile(b *testing.B) {
	for _, fc := range fileCases {
		b.Run(fc.name, func(b *testing.B) {
			spec := appSpec(b, fc.app)
			path := filepath.Join(b.TempDir(), "k.dlpstrm")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := trace.WriteFile(path, spec.Stream(fc.scale), 0); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.SetBytes(fileSize(b, path))
				}
			}
		})
	}
}

// BenchmarkOpen opens and closes each recorded file: the full-file
// checksum pass plus the header and index parse.
func BenchmarkOpen(b *testing.B) {
	for _, fc := range fileCases {
		b.Run(fc.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "k.dlpstrm")
			if err := trace.WriteFile(path, appSpec(b, fc.app).Stream(fc.scale), 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fileSize(b, path))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := trace.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkKernelDigest encodes and hashes the materialized kernel, the
// content key of every eager runner job. Digest keeps its result on the
// kernel, so each iteration digests a fresh Kernel sharing the blocks.
func BenchmarkKernelDigest(b *testing.B) {
	k, err := trace.Materialize(appSpec(b, "SC").Stream(1))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(trace.EncodedSize(k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &trace.Kernel{Name: k.Name, Blocks: k.Blocks}
		if _, ok := fresh.Digest(); !ok {
			b.Fatal("SC has no digest")
		}
	}
}

func fileSize(b *testing.B, path string) int64 {
	b.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return fi.Size()
}

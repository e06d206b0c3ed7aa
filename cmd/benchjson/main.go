// Command benchjson converts `go test -bench` text output into the
// machine-readable performance baseline the repo tracks: one
// BENCH_<fingerprint>.json per machine class, the per-host baseline
// ledger. It reads bench output on stdin and writes a JSON
// document containing one record per benchmark — name, iterations,
// ns/op, and the B/op and allocs/op columns when present — plus the
// wall-clock seconds of one serial RunSuite(PaperSchemes()) pass, taken
// from the BenchmarkSuitePaperWall result, and a fingerprint of the
// measuring host ({num_cpu, gomaxprocs, goarch}) so wall-clock numbers
// are only ever gated within one machine class. The document format
// lives in internal/benchfmt, shared with cmd/benchgate.
//
// By default the document becomes this host class's ledger entry in
// the current directory; -o writes it elsewhere (the gate's fresh
// measurement). Each machine class keeps exactly one committed entry,
// and benchgate -baselines hard-gates wall time against the entry whose
// fingerprint matches the gating host.
//
// Usage:
//
//	go test -run '^$' -bench . . ./internal/sm/ | benchjson
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", benchfmt.BaselineFile(".", benchfmt.CurrentHost()), "output file, by default this host's ledger entry; - writes to stdout only")
	flag.Parse()

	doc, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	// Stamp the measuring machine so benchgate can tell whether the
	// wall-clock numbers are comparable to a later run's.
	doc.Host = benchfmt.CurrentHost()
	b, err := doc.Encode()
	if err != nil {
		log.Fatal(err)
	}
	if *out != "-" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%s", b)
}

// Command dlptrace records and replays chunked kernel trace files.
//
// The on-disk format ("DLPSTRM1", conventionally *.dlpstrm) stores a
// kernel as fixed-size instruction chunks with a per-warp index and a
// whole-file SHA-256, so the simulator can stream arbitrarily large
// workloads through a bounded chunk pool and any later run can verify
// it is replaying exactly the recorded trace.
//
// Usage:
//
//	dlptrace record -app SC -o sc.dlpstrm
//	dlptrace record -app SC -scale 100 -chunk 8192 -o sc100.dlpstrm
//	dlptrace record -app SC,BP,BFS -o suite.dlpstrm
//	dlptrace record -kernel dump.trace -o dump.dlpstrm
//	dlptrace info sc.dlpstrm
//	dlptrace verify sc.dlpstrm
//
// record generates the workload through the same lazy stream frontend
// dlpsim -stream uses, so recording a -scale 100 trace never holds the
// materialized kernel in memory. info prints the header (name, shape,
// chunking, digest) without touching the payload; verify re-hashes the
// whole file and then walks every warp cursor to end-of-trace, counting
// instructions, so a zero exit means bit-exact replayability.
//
// Exit codes: 0 success, 1 failure (including any corruption found by
// verify).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlptrace: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dlptrace record -app ABBR[,ABBR...] [-scale N] [-chunk N] -o FILE
  dlptrace record -kernel TRACEFILE [-chunk N] -o FILE
  dlptrace info FILE
  dlptrace verify FILE`)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	app := fs.String("app", "", "application abbreviation, or a comma-separated list for a multi-kernel trace")
	kernelFile := fs.String("kernel", "", "re-container a materialized kernel dump (dlpsim -dump) instead of -app")
	scale := fs.Int("scale", 1, "workload scale factor (blocks and footprint)")
	chunk := fs.Int("chunk", 4096, "instructions per chunk")
	out := fs.String("o", "", "output trace file (required)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("record: -o FILE is required")
	}
	if *scale < 1 {
		log.Fatalf("record: -scale %d: must be >= 1", *scale)
	}

	var src trace.Stream
	switch {
	case *kernelFile != "":
		f, err := os.Open(*kernelFile)
		if err != nil {
			log.Fatal(err)
		}
		k, err := trace.ReadKernel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		src = trace.NewKernelStream(k)
	case *app != "":
		abbrs := strings.Split(strings.ToUpper(*app), ",")
		subs := make([]trace.Stream, len(abbrs))
		for i, a := range abbrs {
			spec, err := workloads.ByAbbr(strings.TrimSpace(a))
			if err != nil {
				log.Fatal(err)
			}
			subs[i] = spec.Stream(*scale)
		}
		if len(subs) == 1 {
			src = subs[0]
		} else {
			src = trace.NewMultiStream(strings.Join(abbrs, "+"), subs...)
		}
	default:
		log.Fatal("record: one of -app or -kernel is required")
	}

	if err := trace.WriteFile(*out, src, *chunk); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%s, %d blocks, %d-instr chunks, %d bytes)\n",
		*out, src.Name(), src.Blocks(), *chunk, st.Size())
}

func openArg(sub string, args []string) *trace.FileStream {
	if len(args) != 1 {
		log.Fatalf("%s: exactly one FILE argument expected", sub)
	}
	f, err := trace.Open(args[0])
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func info(args []string) {
	f := openArg("info", args)
	defer f.Close()
	warps := 0
	for b := 0; b < f.Blocks(); b++ {
		warps += f.Warps(b)
	}
	fmt.Printf("file:    %s\n", args[0])
	fmt.Printf("kernel:  %s\n", f.Name())
	fmt.Printf("blocks:  %d\n", f.Blocks())
	fmt.Printf("warps:   %d\n", warps)
	fmt.Printf("chunk:   %d instrs\n", f.ChunkInstrs())
	fmt.Printf("sha256:  %s\n", f.Digest())
}

func verify(args []string) {
	// Open has already re-hashed the whole file against the footer
	// digest; what remains is proving every warp decodes to EOF.
	f := openArg("verify", args)
	defer f.Close()
	lineSize := config.Baseline().L1D.LineSize
	pool := trace.NewChunkPool(f.ChunkInstrs())
	var instrs, warps uint64
	for b := 0; b < f.Blocks(); b++ {
		for w := 0; w < f.Warps(b); w++ {
			var cur trace.Cursor
			cur.InitStream(f, pool, lineSize, b, w)
			for !cur.Exhausted() {
				cur.Advance()
				instrs++
			}
			if err := cur.Err(); err != nil {
				log.Fatalf("verify: %s: %v", args[0], err)
			}
			cur.Release()
			warps++
		}
	}
	fmt.Printf("%s: ok — %s, %d blocks, %d warps, %d instructions, sha256 %s\n",
		args[0], f.Name(), f.Blocks(), warps, instrs, f.Digest())
}

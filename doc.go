// Package dlpsim reproduces "Improving First Level Cache Efficiency for
// GPUs Using Dynamic Line Protection" (Zhu, Wernsman, Zambreno, ICPP
// 2018) as a self-contained Go library.
//
// The package wires together a cycle-level SIMT GPU simulator (16 SMs,
// dual GTO warp schedulers, MSHR-based L1D caches, a crossbar
// interconnect, 12 L2/DRAM partitions — the paper's Table 1
// configuration), the paper's Dynamic Line Protection (DLP) L1D
// management scheme plus its three comparators (stall-and-retry
// baseline, Stall-Bypass, and PDP-style Global-Protection), synthetic
// versions of the 18 evaluated benchmark applications, and the analysis
// and reporting machinery that regenerates every table and figure in the
// paper's evaluation.
//
// Quick start:
//
//	st, err := dlpsim.RunApp("CFD", dlpsim.DLP, 16)
//	if err != nil { ... }
//	fmt.Println(st.IPC())
//
// To regenerate the paper's figures, see RunSuite (the simulation
// suites), the Fig* builders and WritePaperFigs (everything
// cmd/paperfigs prints, in its order), or run the cmd/paperfigs binary.
package dlpsim

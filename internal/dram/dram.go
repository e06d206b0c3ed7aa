// Package dram models a GDDR5-style memory channel per partition: a set
// of banks with open-row tracking (row-buffer hits are fast, conflicts
// pay activate+precharge), and a shared data bus that serializes line
// transfers. Timing is computed in memory-clock cycles and converted at
// the boundary, reflecting the Table 1 clock domains (core 650 MHz,
// memory 924 MHz).
package dram

import (
	"slices"

	"repro/internal/addr"
)

// linesPerRow is the number of consecutive cache lines mapped to one DRAM
// row (2KB rows of 128B lines).
const linesPerRow = 16

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64 // memory-clock cycles
}

// Channel is one memory partition's DRAM channel.
type Channel struct {
	banks     []bank
	rowHit    uint64 // mem cycles for a row-buffer hit
	rowMiss   uint64 // mem cycles for activate + access (+ implicit precharge)
	busCycles uint64 // mem cycles the shared data bus is held per transfer
	busUntil  uint64

	interleave   uint64 // memory partitions the address space interleaves over
	memClockMHz  int
	coreClockMHz int
}

// New builds a channel with the given bank count and timing parameters
// (all in memory-clock cycles). interleave is the number of memory
// partitions lines are interleaved across: this channel sees every
// interleave-th line, so bank and row selection strip that factor first
// (otherwise every line of one partition would land in the same bank).
func New(banks, rowHit, rowMiss, busCycles, coreClockMHz, memClockMHz, interleave int) *Channel {
	c := &Channel{}
	c.Reset(banks, rowHit, rowMiss, busCycles, coreClockMHz, memClockMHz, interleave)
	return c
}

// Reset re-initialises the channel with New's parameters: every bank
// idle with no row open, the bus free. The bank array is kept when it is
// large enough.
func (c *Channel) Reset(banks, rowHit, rowMiss, busCycles, coreClockMHz, memClockMHz, interleave int) {
	if banks <= 0 || rowHit <= 0 || rowMiss <= 0 || busCycles <= 0 ||
		coreClockMHz <= 0 || memClockMHz <= 0 || interleave <= 0 {
		panic("dram: invalid parameters")
	}
	b := slices.Grow(c.banks[:0], banks)[:banks]
	clear(b)
	*c = Channel{
		banks:        b,
		rowHit:       uint64(rowHit),
		rowMiss:      uint64(rowMiss),
		busCycles:    uint64(busCycles),
		interleave:   uint64(interleave),
		memClockMHz:  memClockMHz,
		coreClockMHz: coreClockMHz,
	}
}

// toMem converts a core-clock cycle count into memory-clock cycles.
func (c *Channel) toMem(coreCycle uint64) uint64 {
	return coreCycle * uint64(c.memClockMHz) / uint64(c.coreClockMHz)
}

// toCore converts memory-clock cycles into core-clock cycles, rounding up
// so completions never appear earlier than they physically occur.
func (c *Channel) toCore(memCycle uint64) uint64 {
	num := memCycle * uint64(c.coreClockMHz)
	den := uint64(c.memClockMHz)
	return (num + den - 1) / den
}

// Access schedules a line read or write beginning no earlier than core
// cycle now and returns the core cycle at which it completes. Writes use
// the same bank/bus occupancy as reads (GDDR5 write timing is modeled as
// symmetric).
func (c *Channel) Access(lineAddr addr.Addr, lineSize int, now uint64) uint64 {
	lineID := uint64(lineAddr) / uint64(lineSize) / c.interleave
	b := &c.banks[lineID%uint64(len(c.banks))]
	row := lineID / uint64(len(c.banks)) / linesPerRow

	start := c.toMem(now)
	if b.busyUntil > start {
		start = b.busyUntil
	}
	latency := c.rowMiss
	if b.rowValid && b.openRow == row {
		latency = c.rowHit
	}
	b.openRow = row
	b.rowValid = true
	ready := start + latency
	b.busyUntil = ready

	busStart := ready
	if c.busUntil > busStart {
		busStart = c.busUntil
	}
	done := busStart + c.busCycles
	c.busUntil = done
	return c.toCore(done)
}

// BusyUntil returns the latest core cycle at which any bank or the bus is
// still occupied, for quiescence detection.
func (c *Channel) BusyUntil() uint64 {
	latest := c.busUntil
	for i := range c.banks {
		if c.banks[i].busyUntil > latest {
			latest = c.banks[i].busyUntil
		}
	}
	return c.toCore(latest)
}

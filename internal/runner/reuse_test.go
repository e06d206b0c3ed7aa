package runner

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
)

// slotMachine peeks at the machine a one-worker runner's slot holds.
func slotMachine(r *Runner) *sim.Engine {
	m := <-r.slots
	r.slots <- m
	return m
}

// runOne runs one job on r and fails the test on an error.
func runOne(t *testing.T, r *Runner, j Job) *stats.Stats {
	t.Helper()
	res, err := r.Run(context.Background(), []Job{j})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Stats
}

// fresh runs j on a machine of its own.
func fresh(t *testing.T, j Job) stats.Stats {
	t.Helper()
	st, err := sim.RunOnce(context.Background(), j.Config, j.Policy, j.Kernel, j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return *st
}

// TestReusedMachineLeavesEarlierStatsAlone: the slot keeps the machine a
// job ran on and the next job runs on it, and the stats the first job
// returned are its own — running the second on the same machine does
// not touch them.
func TestReusedMachineLeavesEarlierStatsAlone(t *testing.T) {
	small := config.Baseline()
	small.NumSMs, small.NumPartitions = 4, 2
	first := Job{Label: "first", Config: config.Baseline(), Policy: config.PolicyDLP,
		Kernel: streamKernel("a", 4, 2, 6, 2)}
	second := Job{Label: "second", Config: small, Policy: config.PolicyCCWS,
		Kernel: streamKernel("b", 3, 2, 8, 3)}

	r := &Runner{Workers: 1}
	st := runOne(t, r, first)
	before := *st
	m := slotMachine(r)
	if m == nil {
		t.Fatal("the slot kept no machine after a run")
	}
	got := runOne(t, r, second)
	if slotMachine(r) != m {
		t.Error("the second job did not run on the slot's machine")
	}
	if *st != before {
		t.Errorf("the first job's stats changed when its machine ran the next job:\nbefore %+v\nafter  %+v", before, *st)
	}
	if want := fresh(t, second); *got != want {
		t.Errorf("on a reused machine: %+v\non a new one:      %+v", *got, want)
	}
	if want := fresh(t, first); before != want {
		t.Errorf("first job: %+v, on a new machine %+v", before, want)
	}
}

// missPanic is a baseline whose third serviced miss panics, half way
// through the cache's miss path.
type missPanic struct {
	policy.Base
	misses int
}

func (p *missPanic) CheckInvariants() error { return nil }

func (p *missPanic) OnMiss(*mem.Request, int, *cache.Line, cache.Line) {
	if p.misses++; p.misses == 3 {
		panic("injected engine fault")
	}
}

// TestPanickedMachineIsDropped: a job that panics inside the engine
// leaves its machine in whatever state the panic cut it off in, so the
// slot lets it go, and the next job gets the bytes a new machine gives.
func TestPanickedMachineIsDropped(t *testing.T) {
	const name = config.Policy("Miss-Panic-Scratch")
	if err := policy.Register(policy.Spec{
		Name: name,
		Cite: "test-only: baseline whose third miss panics",
		New:  func(*policy.Host) policy.Policy { return &missPanic{} },
	}); err != nil {
		t.Fatal(err)
	}
	defer policy.Unregister(name)

	k := streamKernel("a", 4, 2, 6, 2)
	healthy := Job{Label: "healthy", Config: config.Baseline(), Policy: config.PolicyDLP, Kernel: k}
	r := &Runner{Workers: 1}
	runOne(t, r, healthy)
	if slotMachine(r) == nil {
		t.Fatal("the slot kept no machine after a run")
	}

	_, err := r.Run(context.Background(), []Job{{Label: "faulty", Config: config.Baseline(), Policy: name, Kernel: k}})
	var jp *JobPanicError
	if !errors.As(err, &jp) {
		t.Fatalf("err = %v, want a *JobPanicError", err)
	}
	if slotMachine(r) != nil {
		t.Error("the slot kept the machine the panic cut off")
	}

	if got, want := *runOne(t, r, healthy), fresh(t, healthy); got != want {
		t.Errorf("after the panic: %+v\non a new machine: %+v", got, want)
	}
}

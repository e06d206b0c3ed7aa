package confuzz

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"panic", &runner.JobPanicError{Label: "x", Value: "boom"}, ClassPanic},
		{"invariant", &policy.InvariantError{Component: "stats", Check: "conservation"}, ClassInvariant},
		{"deadlock", &sim.DeadlockError{Kernel: "k", Cycle: 99, Idle: 42}, ClassHang},
		{"deadline", context.DeadlineExceeded, ClassHang},
		{"engine", errors.New("something else"), ClassEngine},
	}
	for _, tc := range cases {
		got, detail := Classify(tc.err)
		if got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
		if detail == "" {
			t.Errorf("%s: empty detail", tc.name)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c := ClassNone; c <= ClassEngine; c++ {
		s := c.String()
		if s == "" || strings.ContainsAny(s, " A-Z") {
			t.Errorf("Class(%d).String() = %q, want lowercase slug", c, s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{}.withDefaults()
	a, da := generate(12345, opts)
	b, db := generate(12345, opts)
	if da != db {
		t.Fatal("degenerate flag differs across identical seeds")
	}
	ba, err := conform.MarshalSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := conform.MarshalSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Error("same seed produced different specs")
	}
	c, _ := generate(54321, opts)
	bc, _ := conform.MarshalSpec(c)
	if bytes.Equal(ba, bc) {
		t.Error("different seeds produced identical specs")
	}
}

func TestGenerateRespectsLaunchLimit(t *testing.T) {
	opts := Options{}.withDefaults()
	seed := uint64(7)
	for i := 0; i < 200; i++ {
		seed = splitmix64(seed)
		sp, degen := generate(seed, opts)
		if degen {
			continue
		}
		if sp.Workload.Synth.WarpsPerBlock > sp.Config.MaxWarpsPerSM {
			t.Fatalf("seed %#x: block of %d warps cannot launch on MaxWarpsPerSM=%d",
				seed, sp.Workload.Synth.WarpsPerBlock, sp.Config.MaxWarpsPerSM)
		}
	}
}

func TestCampaignCleanOnHealthyRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign")
	}
	camp, err := Run(context.Background(), Options{Seed: 1, Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Findings) != 0 {
		t.Fatalf("healthy registry produced %d findings; first: %v",
			len(camp.Findings), camp.Findings[0].Detail)
	}
	if camp.Iterations != 30 {
		t.Errorf("Iterations = %d, want 30", camp.Iterations)
	}
	if camp.Slow > 0 {
		t.Errorf("%d inputs outran the cycle budget; generator out of tune", camp.Slow)
	}
}

// buggyPolicy is Baseline (its Spec leaves Blocked at the all-Stall
// zero table and Eligible nil) with an injected accounting off-by-one:
// every third hit double-counts L1DHits, violating the conservation
// identity the engine's self-check sweeps. It is the acceptance fault
// for the fuzzer: deterministic, policy-local, invisible to the
// policy's own CheckInvariants.
type buggyPolicy struct {
	policy.Base
	h    *policy.Host
	hits int
}

func (p *buggyPolicy) CheckInvariants() error { return nil }

func (p *buggyPolicy) OnHit(req *mem.Request, set int, ln *cache.Line) {
	p.hits++
	if p.hits%3 == 0 {
		p.h.Stats.L1DHits++
	}
}

const buggyName = config.Policy("Buggy-Scratch")

func TestInjectedBugFoundShrunkAndReproduced(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign")
	}
	if err := policy.Register(policy.Spec{
		Name: buggyName,
		Cite: "test-only: baseline with a hit-accounting off-by-one",
		New:  func(h *policy.Host) policy.Policy { return &buggyPolicy{h: h} },
	}); err != nil {
		t.Fatal(err)
	}
	defer policy.Unregister(buggyName)

	camp, err := Run(context.Background(), Options{
		Seed:        1,
		Iterations:  50,
		Policies:    []config.Policy{buggyName},
		MaxFindings: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Findings) == 0 {
		t.Fatal("fuzzer missed the injected accounting bug")
	}
	fd := camp.Findings[0]
	if fd.Class != ClassInvariant {
		t.Fatalf("finding class = %v (%s), want %v", fd.Class, fd.Detail, ClassInvariant)
	}
	if !strings.Contains(fd.Detail, "conservation") {
		t.Errorf("detail %q does not name the violated invariant", fd.Detail)
	}
	if fd.ShrinkEvals == 0 {
		t.Error("shrinker spent no evaluations")
	}
	// Shrinking must not grow the workload.
	if orig, got := fd.Original.Workload.Synth, fd.Spec.Workload.Synth; got.MemInsnsPerWarp > orig.MemInsnsPerWarp ||
		got.WarpsPerBlock > orig.WarpsPerBlock || got.Blocks > orig.Blocks {
		t.Errorf("shrunk spec larger than original: %+v vs %+v", got, orig)
	}

	// The reproducer must land in corpus layout and keep failing when
	// replayed through the conformance harness.
	root := t.TempDir()
	dir, err := WriteReproducer(root, fd)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := conform.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := cs.Run(context.Background(), conform.RunConfig{Timeout: time.Minute})
	if !res.Outcome.Failed() {
		t.Fatalf("conform replay of reproducer passed (outcome %s)", res.Outcome)
	}
	if res.Outcome != conform.SimFailed {
		t.Errorf("outcome = %s, want %s", res.Outcome, conform.SimFailed)
	}
	var inv *policy.InvariantError
	if !errors.As(res.Err, &inv) {
		t.Errorf("replay error %v does not expose the typed invariant violation", res.Err)
	}

	// The reproducer directory itself must be self-contained: loading it
	// fresh from disk only needed config.json.
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		n      int
		p      float64
		beyond int
		want   float64 // 0: must refuse
	}{
		{100, 50, 10, 50},
		{100, 90, 10, 90}, // exactly ten samples beyond rank 90
		{99, 90, 10, 0},   // rank 90 of 99 leaves nine
		{100, 99, 10, 0},  // a p99 of a hundred samples is the max
		{20, 50, 10, 10},
		{19, 50, 10, 0},
		{35, 90, 0, 32}, // batch workloads: no support rule
		{1, 100, 0, 1},
	}
	for _, c := range cases {
		got, err := percentile(hundred[:c.n], c.p, c.beyond)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples with %d beyond: got %g, want a refusal", c.p, c.n, c.beyond, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples: got %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(nil, 50, 0); err == nil {
		t.Error("percentile of no samples did not refuse")
	}
	if _, err := percentile(hundred, 0, 0); err == nil {
		t.Error("p0 did not refuse")
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
}

func TestBestRoundSelection(t *testing.T) {
	lat := func(ms ...int) []time.Duration {
		var out []time.Duration
		for _, m := range ms {
			out = append(out, time.Duration(m)*time.Millisecond)
		}
		return out
	}
	rounds := []roundStats{
		{setup: 700 * time.Millisecond, wall: 6 * time.Second, cpu: 11 * time.Second, m: measure{jobs: 30, warpInsns: 600, latencies: lat(10, 20, 30)}},
		{setup: 900 * time.Millisecond, wall: 5 * time.Second, cpu: 9 * time.Second, m: measure{jobs: 30, warpInsns: 600, latencies: lat(1, 2, 3)}},
		{setup: 600 * time.Millisecond, wall: 7 * time.Second, cpu: 12 * time.Second, m: measure{jobs: 30, warpInsns: 600, latencies: lat(100, 200, 300)}},
	}
	if got := bestRound(rounds); got != 1 {
		t.Fatalf("bestRound = %d, want 1 (highest jobs_per_s)", got)
	}
	if got, want := roundSpread(rounds), 0.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("roundSpread = %g, want %g", got, want)
	}
	m, err := endToEndMetrics(workload{def: workloadDefs[0]}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"setup_s":          0.6, // every metric is its own best over the rounds
		"jobs_per_s":       6,
		"warp_insns_per_s": 120,
		"latency_p50_ms":   2,
		"latency_p90_ms":   3,
		"cpu_s":            9,
	}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	if m["peak_rss_mb"].Value <= 0 {
		t.Errorf("peak_rss_mb = %g", m["peak_rss_mb"].Value)
	}
}

func TestRoundsFor(t *testing.T) {
	for seconds, want := range map[int]int{1: 1, 5: 1, 9: 1, 10: 2, 25: 5, 60: 5} {
		if got := roundsFor(seconds); got != want {
			t.Errorf("roundsFor(%d) = %d, want %d", seconds, got, want)
		}
	}
}

// generated renders every seeded input of a run as bytes.
func generated(seed uint64) []byte {
	var buf bytes.Buffer
	for _, reqs := range coldRequests(seed, coldBursts) {
		for _, r := range reqs {
			buf.WriteString(r.key)
			buf.Write(r.body)
		}
	}
	for i := 0; i < hotWarmKeys; i++ {
		buf.Write(warmRequest(seed, i).body)
	}
	for i := 0; i < 4; i++ {
		buf.Write(pairRequest(seed, i).body)
		buf.Write(doomedRequest(seed, i).body)
		b, _ := json.Marshal(streamSynth(seed, i))
		buf.Write(b)
	}
	for _, k := range hotSchedule(seed, hotBlocks) {
		buf.WriteByte(byte(k))
	}
	for _, j := range suiteGrid(seed, 1) {
		buf.WriteString(j.key())
	}
	return buf.Bytes()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := generated(7), generated(7), generated(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated identical inputs")
	}
}

func TestSeedKeepsTheAmountOfWork(t *testing.T) {
	// Every seed must do the same work, or metric values follow the seed.
	count := func(seed uint64) [3]int {
		var n [3]int
		for _, k := range hotSchedule(seed, 10) {
			n[k]++
		}
		return n
	}
	if a, b := count(1), count(99); a != b || a != [3]int{200, 30, 20} {
		t.Errorf("hot schedule quotas: %v and %v, want 200/30/20", a, b)
	}
	sizes := func(seed uint64) []int {
		var out []int
		for _, reqs := range coldRequests(seed, 2) {
			for _, r := range reqs {
				sp, err := conform.UnmarshalSpec(r.body)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, sp.Workload.Synth.MemInsnsPerWarp)
			}
		}
		sort.Ints(out)
		return out
	}
	if a, b := sizes(1), sizes(99); !reflect.DeepEqual(a, b) {
		t.Errorf("cold job sizes differ by seed: %v vs %v", a, b)
	}
	if a, b := len(suiteGrid(1, 1)), len(suiteGrid(99, 1)); a != b || a != 32 {
		t.Errorf("suite grid has %d and %d jobs, want 32", a, b)
	}
}

func TestNamesAndManifest(t *testing.T) {
	re := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloadDefs {
		if !re.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !re.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
	}
	if len(workloadDefs) != len(allWorkloads()) {
		t.Errorf("%d workload definitions, %d workloads", len(workloadDefs), len(allWorkloads()))
	}
	if err := validateManifest(currentManifest()); err != nil {
		t.Errorf("manifest breaks the contract: %v", err)
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %g above set-up time's, which must be the largest", d.Name, d.Bound)
		}
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `dlpbench -manifest`; regenerate it")
	}
}

func TestManifestValidationRejects(t *testing.T) {
	breakers := map[string]func(*manifest){
		"bound above 0.25":  func(m *manifest) { m.EndToEnd[1].Bound = 0.3 },
		"no setup_s":        func(m *manifest) { m.EndToEnd = m.EndToEnd[1:] },
		"bad name":          func(m *manifest) { m.PerLayer[0].Name = "has space" },
		"duplicate name":    func(m *manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"bad unit":          func(m *manifest) { m.PerLayer[0].Unit = "a very long unit name" },
		"one workload":      func(m *manifest) { m.Workloads = m.Workloads[:1] },
		"long why":          func(m *manifest) { m.Workloads[0].Why = string(make([]byte, 201)) },
		"run_seconds":       func(m *manifest) { m.RunSeconds = 61 },
		"per-layer bounded": func(m *manifest) { m.PerLayer[0].Bound = 0.1 },
	}
	for name, brk := range breakers {
		m := currentManifest()
		m.Workloads = append([]workloadDef{}, m.Workloads...)
		m.EndToEnd = append([]metricDef{}, m.EndToEnd...)
		m.PerLayer = append([]metricDef{}, m.PerLayer...)
		brk(&m)
		if validateManifest(m) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestResultLineSchema(t *testing.T) {
	res := result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{Value: 1.5, Unit: d.Unit}
	}
	if err := validateResult(res, endToEnd); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for name, m := range ms {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s encodes as %v, want exactly value and unit", name, m)
		}
	}

	bad := res
	bad.Failed, bad.Correct = 1, true
	if validateResult(bad, endToEnd) == nil {
		t.Error("correct=true with a failure was accepted")
	}
	delete(res.Metrics, "cpu_s")
	if validateResult(res, endToEnd) == nil {
		t.Error("a result lacking cpu_s was accepted")
	}
}

// TestFlippedDigitIsACountedFailure simulates one job of suite_batch and
// checks it against the committed digests, pristine and with one hex
// digit of its digest flipped.
func TestFlippedDigitIsACountedFailure(t *testing.T) {
	expected, err := loadExpected("suite_batch", 1)
	if err != nil || expected == nil {
		t.Fatalf("committed digests for suite_batch seed 1: %v", err)
	}
	job := suiteJob{"SC", config.PolicyBaseline}
	spec, err := workloads.ByAbbr(job.app)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunOnce(context.Background(), config.Baseline(), job.policy, spec.Generate(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := conform.Normalize(st)
	if err != nil {
		t.Fatal(err)
	}

	c := newChecker(expected)
	c.result(job.key(), norm, nil)
	if c.attempted != 1 || c.failed != 0 {
		t.Fatalf("pristine digests: attempted %d failed %d (%v)", c.attempted, c.failed, c.reasons)
	}

	flipped := map[string]string{}
	for k, v := range expected {
		flipped[k] = v
	}
	d := []byte(flipped[job.key()])
	if d[5] == '0' {
		d[5] = '1'
	} else {
		d[5] = '0'
	}
	flipped[job.key()] = string(d)
	c = newChecker(flipped)
	c.result(job.key(), norm, nil)
	if c.attempted != 1 || c.failed != 1 {
		t.Errorf("one flipped digit: attempted %d failed %d, want 1 and 1", c.attempted, c.failed)
	}

	// Without committed digests: same key, different bytes is a failure,
	// and so is a result that breaks conservation.
	c = newChecker(nil)
	c.result("k", norm, nil)
	c.result("k", norm, nil)
	if c.failed != 0 {
		t.Errorf("repeated identical result failed: %v", c.reasons)
	}
	c.result("k", append([]byte(" "), norm...), nil)
	if c.failed != 1 {
		t.Errorf("same key with different bytes: failed %d, want 1", c.failed)
	}
	st.L1DHits++
	broken, _ := conform.Normalize(st)
	c.result("k2", broken, nil)
	if c.failed != 2 {
		t.Errorf("a result breaking conservation: failed %d, want 2", c.failed)
	}
}

func TestRenormalizeRestoresCorpusBytes(t *testing.T) {
	norm := []byte("{\n  \"Cycles\": 6784,\n  \"WarpInsns\": 18446744073709551615\n}\n")
	view, err := json.MarshalIndent(struct {
		ID    string          `json:"id"`
		Stats json.RawMessage `json:"stats"`
	}{"j1", norm}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(view, &back); err != nil {
		t.Fatal(err)
	}
	got, err := renormalize(back.Stats)
	if err != nil || !bytes.Equal(got, norm) {
		t.Errorf("renormalize = %q, %v; want %q", got, err, norm)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := tr.add("runner", "batch", "", 0, -1, msd(0), msd(100))
	tr.add("sim", "job", "a", 1, root, msd(0), msd(60))
	tr.add("sim", "job", "b", 2, root, msd(40), msd(90))  // overlaps a: covered once
	tr.add("sim", "job", "c", 1, root, msd(95), msd(120)) // clipped to the parent
	got := map[string]layerTime{}
	for _, lt := range tr.selfTimes() {
		got[lt.layer] = lt
	}
	if r := got["runner"]; r.total != msd(100) || r.self != msd(5) {
		t.Errorf("runner total %v self %v, want 100ms and 5ms", r.total, r.self)
	}
	if s := got["sim"]; s.spans != 3 || s.self != msd(60+50+25) {
		t.Errorf("sim spans %d self %v, want 3 and 135ms", s.spans, s.self)
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", "y", "", 0, -1); i != -1 {
		t.Errorf("nil tracer begin = %d", i)
	}
	nilTracer.end(-1)
}

func TestLockRefusesASecondHolder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.lock")
	unlock, err := lockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lockFile(path); err == nil {
		t.Error("a second lock on the same file was granted")
	}
	unlock()
	unlock2, err := lockFile(path)
	if err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	unlock2()
}

// TestSmoke runs one scaled-down round of every workload end to end, and
// a scaled-down traced run, and validates what they would print.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations and a loopback server")
	}
	ctx := context.Background()
	logf := func(format string, args ...any) { t.Logf(format, args...) }
	for _, w := range allWorkloads() {
		e := &env{seed: 1, load: 0.05, chk: newChecker(mustExpected(t, w.def.Name, 1)), tmp: t.TempDir()}
		rounds, err := runRounds(ctx, w, e, 1, time.Minute, logf)
		if err != nil {
			t.Fatalf("%s: %v", w.def.Name, err)
		}
		w.minBeyond = 0 // a twentieth of the load has a twentieth of the samples
		m, err := endToEndMetrics(w, rounds)
		if err != nil {
			t.Fatalf("%s: %v", w.def.Name, err)
		}
		res := result{Correct: e.chk.failed == 0, Attempted: e.chk.attempted, Failed: e.chk.failed, Metrics: m}
		if err := validateResult(res, endToEnd); err != nil {
			t.Errorf("%s: %v", w.def.Name, err)
		}
		if e.chk.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.def.Name, e.chk.failed, e.chk.attempted, e.chk.reasons)
		}
		for name, v := range m {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.def.Name, name, v.Value)
			}
		}
	}

	w, _ := findWorkload("serve_cold")
	dir := t.TempDir()
	o := options{workdir: dir, traceOut: filepath.Join(dir, "trace.json")}
	e := &env{seed: 1, load: 0.05, chk: newChecker(mustExpected(t, w.def.Name, 1)), tmp: dir}
	var prov provenance
	m, err := tracedRun(ctx, w, e, o, &prov, logf)
	if err != nil {
		t.Fatal(err)
	}
	res := result{Correct: e.chk.failed == 0, Attempted: e.chk.attempted, Failed: e.chk.failed, Metrics: m}
	if err := validateResult(res, perLayer); err != nil {
		t.Error(err)
	}
	if e.chk.failed != 0 {
		t.Errorf("traced run: %d operations failed: %v", e.chk.failed, e.chk.reasons)
	}
	f, err := os.Open(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := metrics.ReadChromeTrace(f) // what cmd/metriclint runs
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if len(doc.TraceEvents) < 50 {
		t.Errorf("trace has %d events", len(doc.TraceEvents))
	}
	if b, err := os.ReadFile(o.traceOut + ".layers.txt"); err != nil || !bytes.Contains(b, []byte("self_s")) {
		t.Errorf("self-time table: %v", err)
	}
}

func mustExpected(t *testing.T, workload string, seed uint64) map[string]string {
	t.Helper()
	m, err := loadExpected(workload, seed)
	if err != nil || m == nil {
		t.Fatalf("committed digests for %s seed %d: %v", workload, seed, err)
	}
	return m
}

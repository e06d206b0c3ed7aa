package dlpsim

import (
	"context"
	"sync"
	"testing"
)

// The headline reproduction tests run the full Figure 10 suite (18
// applications x 5 schemes) and the Fig. 5 suite once and check every
// scorecard row marked asserted: the paper's claims about ordering and
// safety, with the thresholds the scorecard's table holds. Each test
// walks the rows of one claim (claim.headline). Skipped under -short.

var (
	suiteOnce sync.Once
	suiteRes  *SuiteResult
	suiteErr  error
)

func paperSuite(t testing.TB) *SuiteResult {
	if t != nil {
		if tt, ok := t.(*testing.T); ok && testing.Short() {
			tt.Skip("full evaluation suite skipped in -short mode")
		}
	}
	suiteOnce.Do(func() {
		suiteRes, suiteErr = RunSuite(context.Background(), nil, nil, PaperSchemes())
	})
	if suiteErr != nil {
		t.Fatalf("suite failed: %v", suiteErr)
	}
	return suiteRes
}

// headlineRows is how many scorecard rows each headline test asserts at
// least: a row may join a claim, none may leave it.
var headlineRows = map[string]int{
	"IPCOrdering":      4, // DLP > GP > SB; DLP, SB and 32KB CI floors
	"CSSafety":         2, // DLP CS mean and worst CS app
	"TrafficReduction": 2, // DLP CI L1D traffic and evictions cut
	"HitRate":          1, // DLP > GP > baseline CI hit rate
	"ICNT":             2, // DLP CI ICNT cut, by less than L1D traffic
	"CFDBeatsBigCache": 2, // DLP > 32KB on CFD and SR2K
}

// checkHeadline asserts that every scorecard row of claim holds.
func checkHeadline(t *testing.T, claim string) {
	t.Helper()
	sc, err := newScorecard(paperSuite(t), assocSuite(t))
	if err != nil || sc == nil {
		t.Fatalf("scorecard of complete suites: %v, err=%v", sc, err)
	}
	n := 0
	for i := range sc.rows {
		r := &sc.rows[i]
		if r.headline != claim {
			continue
		}
		n++
		f := r.fields()
		t.Logf("%s %s %s: measured %s, %s", f[0], f[1], f[2], f[4], f[9])
		if !r.holds {
			t.Errorf("%s %s %s: measured %s, check %s (%s): %s", f[0], f[1], f[2], f[4], f[6], f[7], f[9])
		}
	}
	if n < headlineRows[claim] {
		t.Errorf("%d scorecard rows asserted under %s, want at least %d", n, claim, headlineRows[claim])
	}
}

// TestHeadlineIPCOrdering reproduces the paper's central result (§6.1):
// on cache-insufficient applications DLP outperforms Global-Protection,
// which outperforms Stall-Bypass, with substantial gains, and the doubled
// cache gains clearly.
func TestHeadlineIPCOrdering(t *testing.T) { checkHeadline(t, "IPCOrdering") }

// TestHeadlineCSSafety reproduces §6.1.1 against our own floors: DLP
// keeps cache-sufficient applications whole on average, and no single CS
// application loses more than our bound (the paper's tighter one is a
// reported row).
func TestHeadlineCSSafety(t *testing.T) { checkHeadline(t, "CSSafety") }

// TestHeadlineTrafficReduction reproduces §6.2: on CI applications DLP
// cuts L1D traffic and evictions below the baseline's. The paper's
// ordering of the three schemes is a reported row that diverges.
func TestHeadlineTrafficReduction(t *testing.T) { checkHeadline(t, "TrafficReduction") }

// TestHeadlineHitRate reproduces §6.3: DLP's CI hit rate exceeds
// Global-Protection's and the baseline's.
func TestHeadlineHitRate(t *testing.T) { checkHeadline(t, "HitRate") }

// TestHeadlineICNT reproduces §6.4: DLP cuts interconnect traffic on CI
// applications, by less than it cuts L1D traffic, because the network
// also carries the other L1 caches' traffic.
func TestHeadlineICNT(t *testing.T) { checkHeadline(t, "ICNT") }

// TestHeadlineCFDBeatsBigCache reproduces §6.1.2: protection outperforms
// doubling the cache on CFD and SR2K, whose reuse distances exceed 8 but
// fit inside the protection window.
func TestHeadlineCFDBeatsBigCache(t *testing.T) { checkHeadline(t, "CFDBeatsBigCache") }

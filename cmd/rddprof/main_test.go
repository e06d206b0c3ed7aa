package main

import (
	"runtime"
	"testing"
)

func TestResolveCores(t *testing.T) {
	// Positive values pass through untouched.
	for _, n := range []int{1, 3, 64} {
		got, err := resolveCores(n)
		if err != nil || got != n {
			t.Errorf("resolveCores(%d) = %d, %v; want %d, nil", n, got, err, n)
		}
	}
	// Negative is a flag error, not a silent clamp.
	if _, err := resolveCores(-1); err == nil {
		t.Error("resolveCores(-1) accepted")
	}
	// 0 = auto: every CPU the scheduler will grant, never below 1.
	got, err := resolveCores(0)
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < want {
		want = p
	}
	if want < 1 {
		want = 1
	}
	if got != want {
		t.Errorf("resolveCores(0) = %d, want %d (min of NumCPU and GOMAXPROCS)", got, want)
	}
}

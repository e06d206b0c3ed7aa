package benchfmt

import "testing"

func TestHostFingerprint(t *testing.T) {
	h := CurrentHost()
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GOARCH == "" {
		t.Fatalf("CurrentHost() = %+v", h)
	}
	// bench/ results and the committed A/A table record this slug; two
	// hosts compare only when it is equal, so its shape is a contract.
	ref := &Host{NumCPU: 2, GOMAXPROCS: 2, GOARCH: "amd64"}
	if got := ref.Fingerprint(); got != "amd64-2c2p" {
		t.Errorf("Fingerprint() = %q, want amd64-2c2p", got)
	}
	if got := ref.String(); got != "2 cpus, GOMAXPROCS 2, amd64" {
		t.Errorf("String() = %q", got)
	}
}

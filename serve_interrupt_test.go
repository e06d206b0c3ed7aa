package dlpsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestServedInterruptDrainsAndExits130 pins the server's interrupt
// contract end to end, for both signals that stop it — SIGINT (Ctrl-C)
// and SIGTERM (a process manager): the signal sent to a running
// dlpserved with a job in flight must (a) let the job finish inside the
// drain budget — the waiting client still gets its 200 — and (b) exit
// 130, the same Ctrl-C status as the batch CLIs.
func TestServedInterruptDrainsAndExits130(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dlpserved")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dlpserved").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, sig := range []os.Signal{os.Interrupt, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) { drainOnSignal(t, bin, sig) })
	}
}

// drainOnSignal starts the server binary, sends sig while an MM job is
// running under a ?wait=1 client, and checks the drain and exit status.
func drainOnSignal(t *testing.T, bin string, sig os.Signal) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-j", "2", "-drain", "30s")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(bytes.TrimSpace(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// MM simulates for multiple seconds (the same workload the dlpsim
	// interrupt test relies on), so the signal lands mid-job with wide
	// margin on both sides.
	spec := []byte(`{"schema": 1, "policy": "baseline", "workload": {"app": "MM"}}`)
	type outcome struct {
		status int
		err    error
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/jobs?wait=1", "application/json", bytes.NewReader(spec))
		o := outcome{err: err}
		if err == nil {
			o.status = resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		resc <- o
	}()

	// Wait until the job is actually running, then interrupt the server.
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/stats", addr))
		if err != nil {
			t.Fatalf("stats poll: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if bytes.Contains(b, []byte(`"running": 1`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}

	// Drain means the in-flight client is served, not dropped.
	select {
	case o := <-resc:
		if o.err != nil {
			t.Errorf("waiting client dropped during drain: %v", o.err)
		} else if o.status != http.StatusOK {
			t.Errorf("waiting client got %d during drain, want 200", o.status)
		}
	case <-time.After(60 * time.Second):
		t.Errorf("waiting client never got a response after %v", sig)
	}

	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("dlpserved exited cleanly despite %v (err=%v)", sig, err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("dlpserved exited %d after %v, want 130", code, sig)
	}
}

//go:build unix

package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"wsinterop/internal/journal"
)

// interruptEnv tells a re-executed test binary to run the checkpointed
// full campaign as the victim of TestRunInterruptResume:
// "INT:dir" or "KILL:dir".
const interruptEnv = "WSINTEROP_INTERRUPT_VICTIM"

// interruptAfter is the journal size at which the victim signals
// itself: about an eighth of the full campaign's journal, so the
// signal lands mid-run.
const interruptAfter = 1 << 20

// fullCells is the full campaign's cell count, one journal record per
// (server, class).
const fullCells = 22024

// interruptArgs is the campaign every run of the test executes.
var interruptArgs = []string{"-workers", "2", "-report", "table3"}

// TestRunInterruptResume interrupts a checkpointed full-scale CLI run
// with SIGINT (a cooperative drain) and with SIGKILL (no drain, flush
// or Close), then requires -resume to print the report of a clean run
// byte for byte. The victim is this test binary re-executed; it
// signals its own pid once journal.jsonl passes interruptAfter, so
// the signal lands mid-run on any machine.
func TestRunInterruptResume(t *testing.T) {
	if spec := os.Getenv(interruptEnv); spec != "" {
		interruptVictim(t, spec)
		return
	}
	if testing.Short() {
		t.Skip("full-scale campaign")
	}
	var clean bytes.Buffer
	if err := run(interruptArgs, &clean); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, sig := range []string{"INT", "KILL"} {
		t.Run("SIG"+sig, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestRunInterruptResume$", "-test.count=1")
			cmd.Env = append(os.Environ(), interruptEnv+"="+sig+":"+dir)
			out, err := cmd.CombinedOutput()
			if sig == "INT" {
				// The victim asserts the cancellation itself; a
				// failure there exits non-zero.
				if err != nil {
					t.Fatalf("victim: %v\n%s", err, out)
				}
			} else {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatalf("victim was not killed (err %v):\n%s", err, out)
				}
				if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("victim exited without SIGKILL (%v):\n%s", err, out)
				}
				assertMidRun(t, dir)
			}
			var resumed bytes.Buffer
			if err := run(append([]string{"-checkpoint", dir, "-resume"}, interruptArgs...), &resumed); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if resumed.String() != clean.String() {
				t.Errorf("resumed report differs from the clean run:\n--- clean ---\n%s--- resumed ---\n%s",
					clean.String(), resumed.String())
			}
		})
	}
}

// interruptVictim runs the checkpointed campaign through the CLI and
// sends the signal named by spec to its own process once the journal
// passes interruptAfter. Under SIGINT, run must return the
// cancellation error with the journal cut short.
func interruptVictim(t *testing.T, spec string) {
	sigName, dir, ok := strings.Cut(spec, ":")
	if !ok || (sigName != "INT" && sigName != "KILL") {
		t.Fatalf("bad %s %q", interruptEnv, spec)
	}
	sig := syscall.SIGINT
	if sigName == "KILL" {
		sig = syscall.SIGKILL
	}
	done := make(chan struct{})
	go func() {
		path := filepath.Join(dir, "journal.jsonl")
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if fi, err := os.Stat(path); err == nil && fi.Size() > interruptAfter {
				_ = syscall.Kill(os.Getpid(), sig)
				return
			}
		}
	}()
	err := run(append([]string{"-checkpoint", dir}, interruptArgs...), io.Discard)
	close(done)
	if sig == syscall.SIGKILL {
		t.Fatalf("run returned (err %v) before the SIGKILL landed", err)
	}
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("run after SIGINT: err = %v, want the cancellation error", err)
	}
	assertMidRun(t, dir)
}

// assertMidRun requires the journal under dir to hold fewer records
// than the full campaign has cells.
func assertMidRun(t *testing.T, dir string) {
	t.Helper()
	_, recs, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("load the interrupted run's journal: %v", err)
	}
	if len(recs) == 0 || len(recs) >= fullCells {
		t.Fatalf("journal holds %d records; the signal did not land mid-run (%d cells)", len(recs), fullCells)
	}
	t.Logf("interrupted after %d of %d cells", len(recs), fullCells)
}

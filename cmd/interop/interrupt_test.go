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

	"wsinterop/internal/framework"
	"wsinterop/internal/journal"
)

// interruptEnv tells a re-executed test binary to run a checkpointed
// campaign as the victim of TestRunInterruptResume: "NAME:dir", NAME
// one of the interruptVictims.
const interruptEnv = "WSINTEROP_INTERRUPT_VICTIM"

// fullCells is the full campaign's cell count, one journal record per
// (server, class).
const fullCells = 22024

// interruptVictim is one interrupted campaign: its CLI arguments, the
// signal, the journal (relative to the checkpoint directory) whose size
// triggers it, and that size.
type interruptVictim struct {
	name    string
	sig     syscall.Signal
	args    []string
	journal string
	after   int64
}

// fullArgs is the full static campaign.
var fullArgs = []string{"-workers", "2", "-report", "table3"}

// interruptVictims: the full static campaign under a cooperative
// SIGINT and a SIGKILL once its journal passes 1 MiB (about an eighth
// of it), and the robustness matrix under SIGINT once its journal
// passes 64 KiB (about a tenth of it, inside the first server stage).
var interruptVictims = []interruptVictim{
	{"SIGINT", syscall.SIGINT, fullArgs, "journal.jsonl", 1 << 20},
	{"SIGKILL", syscall.SIGKILL, fullArgs, "journal.jsonl", 1 << 20},
	{"faults", syscall.SIGINT, []string{"-limit", "100", "-workers", "2", "-faults", "-report", "robust"},
		filepath.Join("robust", "journal.jsonl"), 64 << 10},
}

// TestRunInterruptResume interrupts checkpointed CLI runs — the full
// campaign with SIGINT (a cooperative drain) and with SIGKILL (no
// drain, flush or Close), and the robustness matrix with SIGINT — then
// requires -resume to print the report of a clean run byte for byte.
// The victim is this test binary re-executed; it signals its own pid
// once the watched journal passes its size, so the signal lands
// mid-run on any machine.
func TestRunInterruptResume(t *testing.T) {
	if spec := os.Getenv(interruptEnv); spec != "" {
		runVictim(t, spec)
		return
	}
	if testing.Short() {
		t.Skip("full-scale campaign")
	}
	for _, v := range interruptVictims {
		t.Run(v.name, func(t *testing.T) {
			var clean bytes.Buffer
			if err := run(v.args, &clean); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestRunInterruptResume$", "-test.count=1")
			cmd.Env = append(os.Environ(), interruptEnv+"="+v.name+":"+dir)
			out, err := cmd.CombinedOutput()
			if v.sig == syscall.SIGINT {
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
				assertMidRun(t, v, dir)
			}
			var resumed bytes.Buffer
			if err := run(append([]string{"-checkpoint", dir, "-resume"}, v.args...), &resumed); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if resumed.String() != clean.String() {
				t.Errorf("resumed report differs from the clean run:\n--- clean ---\n%s--- resumed ---\n%s",
					clean.String(), resumed.String())
			}
		})
	}
}

// runVictim runs the checkpointed campaign named by spec through the
// CLI and sends the victim's signal to its own process once the
// watched journal passes its size. Under SIGINT, run must return the
// interrupted error with the journal cut short.
func runVictim(t *testing.T, spec string) {
	name, dir, _ := strings.Cut(spec, ":")
	var v interruptVictim
	for _, c := range interruptVictims {
		if c.name == name {
			v = c
		}
	}
	if v.name == "" {
		t.Fatalf("bad %s %q", interruptEnv, spec)
	}
	done := make(chan struct{})
	go func() {
		path := filepath.Join(dir, v.journal)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if fi, err := os.Stat(path); err == nil && fi.Size() > v.after {
				_ = syscall.Kill(os.Getpid(), v.sig)
				return
			}
		}
	}()
	err := run(append([]string{"-checkpoint", dir}, v.args...), io.Discard)
	close(done)
	if v.sig == syscall.SIGKILL {
		t.Fatalf("run returned (err %v) before the SIGKILL landed", err)
	}
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("run after SIGINT: err = %v, want the interrupted error", err)
	}
	assertMidRun(t, v, dir)
}

// assertMidRun requires the victim's journal under dir to be cut
// short: the static journal holds fewer records than the full campaign
// has cells, and a wire-axis journal lacks the completion sentinel of
// the last server stage.
func assertMidRun(t *testing.T, v interruptVictim, dir string) {
	t.Helper()
	_, recs, err := journal.Load(filepath.Join(dir, filepath.Dir(v.journal)))
	if err != nil {
		t.Fatalf("load the interrupted run's journal: %v", err)
	}
	sentinels := 0
	for _, rec := range recs {
		if strings.HasSuffix(rec.Mode, "-complete") {
			sentinels++
		}
	}
	if len(recs) == 0 || len(recs) >= fullCells || sentinels == len(framework.Servers()) {
		t.Fatalf("journal holds %d records; the signal did not land mid-run", len(recs))
	}
	t.Logf("interrupted after %d journal records", len(recs))
}

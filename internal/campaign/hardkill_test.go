//go:build unix

package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"wsinterop/internal/journal"
)

// hardKillEnv tells a re-executed test binary to run the checkpointed
// campaign as the victim of TestResumeAfterHardKill: "dir:killAt".
const hardKillEnv = "WSINTEROP_HARDKILL_VICTIM"

// hardKillLimit sizes the campaign past one journal sync point
// (4,200 cells against journal.SyncEvery = 4,096).
const hardKillLimit = 1400

// TestResumeAfterHardKill SIGKILLs a checkpointed campaign at exact
// durable-append counts — the first cell, a cell inside a group-commit
// batch, the cell just past the journal's sync point, and the last cell
// — so no cooperative drain, flush or Close runs. The victim is this
// test binary re-executed in a child process. Resuming the journal it
// leaves must reproduce the clean run: a byte-identical Result and the
// same counters and histograms.
func TestResumeAfterHardKill(t *testing.T) {
	if spec := os.Getenv(hardKillEnv); spec != "" {
		hardKillVictim(t, spec)
		return
	}
	cleanCfg := resumeConfig(hardKillLimit, 4)
	clean, err := newRunner(cleanCfg).Run(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.TotalServices <= journal.SyncEvery+1 {
		t.Fatalf("campaign has %d cells; the kill matrix needs more than %d", clean.TotalServices, journal.SyncEvery+1)
	}
	cleanBytes := resultBytes(t, clean)
	cleanSnap := cleanCfg.Obs.Snapshot()

	for _, killAt := range []int{
		1,
		journalFlushEvery + journalFlushEvery/2,
		journal.SyncEvery + 1,
		clean.TotalServices,
	} {
		t.Run(fmt.Sprintf("kill=%d", killAt), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestResumeAfterHardKill$", "-test.count=1")
			cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", hardKillEnv, dir, killAt))
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("victim was not killed (err %v):\n%s", err, out)
			}
			if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("victim exited without SIGKILL (%v):\n%s", err, out)
			}
			_, recs, err := journal.Load(dir)
			if err != nil {
				t.Fatalf("load the killed run's journal: %v", err)
			}
			if len(recs) < killAt {
				t.Fatalf("journal holds %d records; %d were durable at the kill", len(recs), killAt)
			}

			res, snap := resume(t, resumeConfig(hardKillLimit, 2), dir)
			compareResults(t, clean, res)
			if got := resultBytes(t, res); string(got) != string(cleanBytes) {
				t.Error("serialized Result is not byte-identical to the clean run")
			}
			compareSnapshots(t, "hard-kill", cleanSnap, snap)
		})
	}
}

// hardKillVictim runs the checkpointed campaign and SIGKILLs its own
// process from the journal's durable-append probe.
func hardKillVictim(t *testing.T, spec string) {
	i := strings.LastIndexByte(spec, ':')
	killAt, err := strconv.Atoi(spec[i+1:])
	if i < 0 || err != nil {
		t.Fatalf("bad %s %q", hardKillEnv, spec)
	}
	cfg := resumeConfig(hardKillLimit, 4)
	cfg.Checkpoint = spec[:i]
	cfg.checkpointProbe = func(appended int) {
		if appended == killAt {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // the signal ends the process; nothing runs after it
		}
	}
	_, err = newRunner(cfg).Run(context.Background())
	t.Fatalf("run returned (err %v) without reaching kill point %d", err, killAt)
}

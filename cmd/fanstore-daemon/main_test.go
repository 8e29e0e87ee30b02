package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestDaemonEndToEnd builds the daemon and runs a real 3-process
// deployment against partitions produced by the pack layer — the full
// §V-D shape with nothing shared but the filesystem and TCP. Each daemon
// serves from its mapped partition file and checks every read against
// the packed CRC; it unmaps only after Close, so a late read of a
// partition would fault a daemon or hang the run, and fail the test.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches subprocesses")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fanstore-daemon")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Pack a dataset with the prep tool's library path.
	packed := filepath.Join(dir, "packed")
	prep := exec.Command("go", "run", "../fanstore-prep",
		"-synthetic", "EM", "-files", "12", "-partitions", "3",
		"-size", "16384", "-out", packed)
	if out, err := prep.CombinedOutput(); err != nil {
		t.Fatalf("prep: %v\n%s", err, out)
	}

	rdv := filepath.Join(dir, "rdv")
	const size = 3
	cmds := make([]*exec.Cmd, size)
	outs := make([]bytes.Buffer, size)
	for r := 0; r < size; r++ {
		cmds[r] = exec.Command(bin,
			"-rendezvous", rdv,
			"-rank", strconv.Itoa(r),
			"-size", strconv.Itoa(size),
			"-part", filepath.Join(packed, "part-000"+strconv.Itoa(r)+".fst"),
			"-reads", "16",
		)
		cmds[r].Stdout = &outs[r]
		cmds[r].Stderr = &outs[r]
		if err := cmds[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	// A daemon that exits early (a read failing its CRC check) leaves its
	// peers blocked on fetches it will never answer: the first failure
	// ends the others, so the test fails at once with that rank's log. A
	// run that hangs instead (a reply lost to a fault in the transport) is
	// ended the same way after a minute; a healthy one takes about a
	// second.
	kill := func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // fails only for a daemon that has exited
		}
	}
	defer time.AfterFunc(time.Minute, kill).Stop()
	errs := make([]error, size)
	failed := make(chan int, size)
	var wg sync.WaitGroup
	for r := range cmds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = cmds[r].Wait(); errs[r] != nil {
				failed <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(failed)
	}()
	if r, ok := <-failed; ok {
		kill()
		wg.Wait()
		t.Fatalf("rank %d: %v\n%s", r, errs[r], outs[r].String())
	}
	for r := 0; r < size; r++ {
		out := outs[r].String()
		if !bytes.Contains([]byte(out), []byte("mounted: 12 files global")) {
			t.Fatalf("rank %d missing global namespace:\n%s", r, out)
		}
		if !bytes.Contains([]byte(out), []byte("verified 16 reads")) {
			t.Fatalf("rank %d did not verify its reads:\n%s", r, out)
		}
		if !bytes.Contains([]byte(out), []byte("done")) {
			t.Fatalf("rank %d did not shut down cleanly:\n%s", r, out)
		}
		if !bytes.Contains([]byte(out), []byte("remote")) {
			t.Fatalf("rank %d reported no remote activity:\n%s", r, out)
		}
	}
	_ = os.RemoveAll(rdv)
}

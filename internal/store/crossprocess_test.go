package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// leaseRoleEnv tells a re-executed test binary that it is one process of
// TestCrossProcessLeases, as "<role>:<store dir>". The parent test runs
// with it unset.
const leaseRoleEnv = "DIVLAB_LEASE_ROLE"

const (
	// leaseProcs is how many processes contend for one lease at a time.
	leaseProcs = 4
	// leaseHolds is how many times each exclusion holder takes the lease.
	leaseHolds = 25
	// staleTTL is the lease the killed holder leaves behind: short enough
	// to wait out, long enough that the contenders start while it is fresh.
	staleTTL = 500 * time.Millisecond
)

// TestCrossProcessLeases runs FS leases across processes: the test binary
// re-executes itself once per process, each against one store directory.
// Each holder creates a probe file exclusively while it holds the lease, so
// a second process holding it at the same time fails on the probe.
func TestCrossProcessLeases(t *testing.T) {
	if role, dir, ok := strings.Cut(os.Getenv(leaseRoleEnv), ":"); ok {
		leaseRole(t, role, dir)
		return
	}

	// Exclusion: holders take one fresh lease in turn, never two at once.
	t.Run("exclusion", func(t *testing.T) {
		dir := t.TempDir()
		procs := make([]*leaseProc, leaseProcs)
		for i := range procs {
			procs[i] = startLeaseProc(t, "holder", dir)
		}
		for _, p := range procs {
			p.wait(t)
		}
	})

	// Stale break: a holder killed mid-hold leaves its lockfile behind.
	// Contenders may take the lease only once it has expired, and one at a
	// time.
	t.Run("stale-break", func(t *testing.T) {
		dir := t.TempDir()
		holder := startLeaseProc(t, "stale", dir)
		// Contenders start now and claim once their stdin closes, so their
		// first claims come while the stale lease is still fresh.
		procs := make([]*leaseProc, leaseProcs)
		for i := range procs {
			procs[i] = startLeaseProc(t, "contender", dir)
		}
		if line, err := holder.stdout.ReadString('\n'); line != "held\n" {
			holder.cmd.Process.Kill()
			holder.cmd.Wait()
			t.Fatalf("stale holder reported %q, %v:\n%s", line, err, &holder.stderr)
		}
		data, err := os.ReadFile(filepath.Join(dir, "leases", "stale.lock"))
		if err != nil {
			t.Fatal(err)
		}
		var stale leaseFile
		if err := json.Unmarshal(data, &stale); err != nil {
			t.Fatalf("lockfile %q: %v", data, err)
		}
		// SIGKILL: the holder gets no chance to release.
		if err := holder.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		holder.cmd.Wait()

		for _, p := range procs {
			p.stdin.Close()
		}
		refused := 0
		for i, p := range procs {
			var granted int64
			var n int
			if _, err := fmt.Sscanf(p.wait(t), "granted %d refused %d\n", &granted, &n); err != nil {
				t.Errorf("contender %d: no grant reported: %v", i, err)
				continue
			}
			refused += n
			if granted < stale.Expires {
				t.Errorf("contender %d was granted the lease %v before the killed holder's lease expired",
					i, time.Duration(stale.Expires-granted))
			}
		}
		t.Logf("contenders' claims were refused %d times", refused)
	})
}

// leaseProc is one re-executed test binary.
type leaseProc struct {
	role   string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	stderr bytes.Buffer
}

// startLeaseProc starts the test binary as one process of
// TestCrossProcessLeases, playing role against the store in dir. The
// process is killed if the test ends first.
func startLeaseProc(t *testing.T, role, dir string) *leaseProc {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	p := &leaseProc{role: role, cmd: exec.CommandContext(ctx, os.Args[0], "-test.run=^TestCrossProcessLeases$")}
	p.cmd.Env = append(os.Environ(), leaseRoleEnv+"="+role+":"+dir)
	p.cmd.Stderr = &p.stderr
	var err error
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p.stdout = bufio.NewReader(out)
	return p
}

// wait reports a failed exit and returns what the process wrote to
// stdout.
func (p *leaseProc) wait(t *testing.T) string {
	t.Helper()
	out, _ := io.ReadAll(p.stdout)
	if err := p.cmd.Wait(); err != nil {
		t.Errorf("%s process: %v\n%s%s", p.role, err, out, &p.stderr)
	}
	return string(out)
}

// leaseRole is the body of one re-executed process.
func leaseRole(t *testing.T, role, dir string) {
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	switch role {
	case "holder":
		for i := 0; i < leaseHolds; i++ {
			holdLease(t, s, "shared", dir)
		}
	case "stale":
		if _, ok, err := s.TryLease("stale", staleTTL); err != nil || !ok {
			t.Fatalf("stale holder: ok=%v err=%v", ok, err)
		}
		fmt.Println("held")
		time.Sleep(time.Minute) // the parent kills it first
	case "contender":
		if _, err := io.ReadAll(os.Stdin); err != nil {
			t.Fatal(err)
		}
		granted, refused := holdLease(t, s, "stale", dir)
		fmt.Printf("granted %d refused %d\n", granted.UnixNano(), refused)
	default:
		t.Fatalf("unknown role %q", role)
	}
}

// holdLease claims the lease until it is granted, holds it and releases
// it. It returns the time of the grant and how many claims were refused
// before it. While held, the lease's probe file exists: creating it
// exclusively fails if another process holds the lease too.
func holdLease(t *testing.T, s *FS, name, dir string) (granted time.Time, refused int) {
	var release func() error
	for release == nil {
		r, ok, err := s.TryLease(name, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			refused++
			continue
		}
		release, granted = r, time.Now()
	}
	probe := filepath.Join(dir, "probe-"+name)
	f, err := os.OpenFile(probe, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	switch {
	case errors.Is(err, fs.ErrExist):
		// Not fatal: releasing keeps the other processes from waiting out
		// this lease's ttl.
		t.Errorf("lease %s granted while another process holds it", name)
	case err != nil:
		t.Fatal(err)
	default:
		// Hold for a moment, so a grant that overlaps this one meets the
		// probe.
		time.Sleep(time.Millisecond)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(probe); err != nil {
			t.Fatal(err)
		}
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	return granted, refused
}

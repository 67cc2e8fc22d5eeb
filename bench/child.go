//go:build linux

package main

// The system under test always runs as a child process re-executed from this
// binary, never in the load generator's process: the client holds the encoded
// bodies and burns its own CPU, so only a separate process gives server-only
// CPU (wait4 rusage), memory (VmHWM) and allocation counts.
//
// Child protocol, over the child's stdin and stdout:
//
//	child  -> "addr 127.0.0.1:NNNN"   serve only: the kernel-assigned port
//	parent -> "seal"                  serve only: drain + terminal checkpoint
//	child  -> "file <ms> <ops> <bad>" check only: one line per trace file
//	child  -> "sealed <wall_ns>"      every key is final
//	parent closes stdin               (or dies: the child sees EOF either way)
//	child  -> "stats {json}"          runtime.MemStats deltas, then exit 0

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/faultfs"
	"kat/internal/online"
	"kat/internal/wal"
)

// childStats is the child's own account of its Go runtime between start-up
// and the end of its work.
type childStats struct {
	Mallocs      uint64  `json:"mallocs"`
	AllocBytes   uint64  `json:"allocBytes"`
	GCCycles     uint32  `json:"gcCycles"`
	GCPauseMs    float64 `json:"gcPauseMs"`
	HeapLiveMB   float64 `json:"heapLiveMB"`
	RecoveredOps int64   `json:"recoveredOps"`
}

func memDelta(before, after *runtime.MemStats) childStats {
	return childStats{
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCCycles:   after.NumGC - before.NumGC,
		GCPauseMs:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		HeapLiveMB: float64(after.HeapAlloc) / (1 << 20),
	}
}

// serverConfig is the online.Config cmd/kavserve/main.go builds for
// `kavserve -k 2 -properties <props> [-retire-ttl N]`: memo on, default
// ingest shards and workers. The child and the in-process traced passes both
// use it, so they measure the same configuration.
func serverConfig(props string, retireTTL int64) (online.Config, error) {
	properties, err := kat.ParseProperties(props)
	if err != nil {
		return online.Config{}, err
	}
	cfg := online.Config{K: 2}
	cfg.Stream.Properties = properties
	cfg.Stream.RetireTTL = retireTTL
	cfg.Opts.Memo = kat.NewMemo()
	return cfg, nil
}

// openDurable is kavserve's `-data-dir dir -fsync never`; the checkpoint
// ticker is never started (`-checkpoint-interval 1h` within a seconds-long
// run), so the only checkpoints are the ones the caller asks for.
func openDurable(dir string) (*checkpoint.Manager, error) {
	return checkpoint.Open(faultfs.OS(), dir, checkpoint.Config{Policy: wal.SyncNever})
}

// serveChild is `bench -serve`: a kavserve on 127.0.0.1:0.
func serveChild(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	props := fs.String("properties", "k", "")
	dataDir := fs.String("data-dir", "", "")
	retireTTL := fs.Int64("retire-ttl", 0, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := serverConfig(*props, *retireTTL)
	if err != nil {
		return err
	}
	var mgr *checkpoint.Manager
	if *dataDir != "" {
		if mgr, err = openDurable(*dataDir); err != nil {
			return err
		}
		defer mgr.Close()
	}
	srv, rs, err := online.NewDurable(cfg, mgr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fmt.Printf("addr %s\n", ln.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "seal" {
			continue
		}
		// What kavserve does on SIGTERM: drain, then seal the drained state
		// in a terminal checkpoint.
		if err := srv.Drain(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if mgr != nil {
			if err := mgr.Checkpoint(); err != nil {
				return fmt.Errorf("terminal checkpoint: %w", err)
			}
		}
		fmt.Printf("sealed %d\n", time.Since(start).Nanoseconds())
	}
	runtime.ReadMemStats(&after)
	st := memDelta(&before, &after)
	st.RecoveredOps = rs.ReplayedOps
	if err := printStats(st); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// checkChild is `bench -check file...`: the kavcheck -keyed -workers 2 path
// (cmd/kavcheck/main.go runKeyed) over each file in turn.
func checkChild(files []string) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, name := range files {
		t0 := time.Now()
		ops, bad, err := checkFile(name)
		if err != nil {
			// Reported as a file with no operations counted: the parent's
			// oracle comparison turns that into failed operations.
			fmt.Fprintln(os.Stderr, "bench child:", err)
		}
		fmt.Printf("file %.4f %d %d\n", float64(time.Since(t0).Nanoseconds())/1e6, ops, bad)
	}
	fmt.Printf("sealed %d\n", time.Since(start).Nanoseconds())
	io.Copy(io.Discard, os.Stdin)
	runtime.ReadMemStats(&after)
	return printStats(memDelta(&before, &after))
}

// checkFile returns the operations counted and the number of keys that are
// not 2-atomic.
func checkFile(name string) (ops, bad int, err error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	tr, err := kat.ParseTraceReader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	rep := kat.CheckTraceParallel(tr, 2, kat.Options{}, 2)
	for _, kr := range rep.Keys {
		ops += kr.Ops
	}
	return ops, len(rep.FailingKeys()), nil
}

func printStats(st childStats) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("stats %s\n", data)
	return err
}

// child is the parent's handle on one process under test.
type child struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	stderr bytes.Buffer
	waited chan struct{}
	// watchdog kills the child's process group childDeadline after its start
	// and sets stalled: whatever the parent is blocked on — a request, the
	// drain, a line of the child's output — then fails instead of hanging.
	watchdog *time.Timer
	stalled  atomic.Bool
}

// childDeadline is how long a child may live. The longest-lived one serves
// one repetition, about 3 s; a child still there after this has deadlocked.
// (A variable so that a test can shorten it.)
var childDeadline = 45 * time.Second

// childEnv marks a re-executed bench binary as the child; the test binary
// checks it in TestMain so `go test` can spawn children too.
const childEnv = "KAT_BENCH_CHILD"

// startChild re-executes this binary with args as a child in its own process
// group with GOMAXPROCS=2. The child dies with the parent on every path: it
// exits at EOF on its stdin, and the kernel kills it if the parent is gone
// before that (Pdeathsig).
func startChild(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(exe, args...), waited: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS=2", childEnv+"=1")
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &c.stderr
	// A stuck stderr copy must not keep Wait, and so the caller, hanging.
	c.cmd.WaitDelay = 5 * time.Second
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	c.watchdog = time.AfterFunc(childDeadline, func() {
		c.stalled.Store(true)
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	})
	return c, nil
}

// explain says so when err is the watchdog's doing rather than the child's.
func (c *child) explain(err error) error {
	if err != nil && c.stalled.Load() {
		return fmt.Errorf("child made no end within %v and was killed; every operation sent to it counts as failed: %w", childDeadline, err)
	}
	return err
}

// expect reads child output lines until one starts with prefix and returns
// the rest of that line; other lines are passed to each, if not nil.
func (c *child) expect(prefix string, each func(line string)) (string, error) {
	for {
		line, err := c.out.ReadString('\n')
		if err != nil {
			c.stop() // reaps it, so that its stderr is complete
			return "", fmt.Errorf("child ended before %q: %v; stderr: %s", prefix, err, c.stderr.String())
		}
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			return rest, nil
		}
		if each != nil {
			each(line)
		}
	}
}

// peakRSSMB is the child's own high-water resident set from
// /proc/<pid>/status. wait4's ru_maxrss is no substitute: it survives exec,
// so a child forked from a large parent starts at the parent's size.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// finish closes the child's stdin, reads its stats line, waits for it and
// returns its stats and user+system CPU seconds.
func (c *child) finish() (childStats, float64, error) {
	var st childStats
	c.in.Close()
	rest, err := c.expect("stats", nil)
	if err != nil {
		return st, 0, err
	}
	if err := json.Unmarshal([]byte(rest), &st); err != nil {
		return st, 0, err
	}
	if err := c.wait(10 * time.Second); err != nil {
		return st, 0, fmt.Errorf("child: %w; stderr: %s", err, c.stderr.String())
	}
	ps := c.cmd.ProcessState
	return st, (ps.UserTime() + ps.SystemTime()).Seconds(), nil
}

// wait reaps the child, killing its process group if it has not exited
// within grace.
func (c *child) wait(grace time.Duration) error {
	select {
	case <-c.waited:
		return nil
	default:
	}
	defer c.watchdog.Stop()
	errc := make(chan error, 1)
	go func() { errc <- c.cmd.Wait() }()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	var err error
	select {
	case err = <-errc:
	case <-timer.C:
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
		err = fmt.Errorf("killed after %v: %v", grace, <-errc)
	}
	close(c.waited)
	return err
}

// stop is the deferred cleanup of every path, panics included: it is a no-op
// after finish, and otherwise kills the child's process group and reaps it.
func (c *child) stop() {
	select {
	case <-c.waited:
		return
	default:
	}
	c.in.Close()
	syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	c.wait(0)
}

package deploy

import (
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"dtc/internal/ctl"
)

// TestMain doubles as the child-role entry point: the harness re-executes
// this test binary with DTC_DEPLOY_ROLE set, and the role runs instead of
// the test suite (the classic helper-process idiom, without the
// GO_WANT_HELPER_PROCESS plumbing because the role env var is the flag).
func TestMain(m *testing.M) {
	if IsChild() {
		if err := RunChild(); err != nil {
			fmt.Fprintf(os.Stderr, "deploy role: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSpec is a small but complete deployment: every role present, real
// processes, real loopback TCP.
func testSpec(t *testing.T) Spec {
	return Spec{
		ISPs:         2,
		NodesPerISP:  3,
		UserProcs:    2,
		UsersPerProc: 8,
		Updates:      2,
		Attack:       true,
		AttackPPS:    200,
		Exe:          os.Args[0],
		LogDir:       t.TempDir(),
		Logf:         t.Logf,
	}
}

// checkLoad asserts the merged workload outcome for a spec-sized run.
func checkLoad(t *testing.T, spec Spec, res *LoadResult) {
	t.Helper()
	agents := spec.UserProcs * spec.UsersPerProc
	if res.Agents != agents {
		t.Errorf("agents = %d, want %d", res.Agents, agents)
	}
	if res.Failed != 0 {
		t.Errorf("%d agents failed", res.Failed)
	}
	if res.Errors() != 0 {
		t.Errorf("%d operations errored", res.Errors())
	}
	for op, want := range map[string]int{
		"register":  agents,
		"install":   agents,
		"update":    agents * spec.Updates,
		"subscribe": agents,
	} {
		if st := res.Ops[op]; st == nil || st.Count != want {
			got := 0
			if st != nil {
				got = st.Count
			}
			t.Errorf("op %s: count = %d, want %d", op, got, want)
		}
	}
}

// teardownClean tears the deployment down and asserts the no-orphans
// contract: Teardown returns nil and every launched pid is gone.
func teardownClean(t *testing.T, d *Deployment) {
	t.Helper()
	pids := make([]int, 0, len(d.procs))
	for _, p := range d.procs {
		pids = append(pids, p.Pid())
	}
	if err := d.Teardown(); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	for _, pid := range pids {
		if alive(pid) {
			t.Errorf("pid %d survived teardown", pid)
		}
	}
}

// TestDeploySmoke brings a full deployment up from one call — TCSP, two
// ISP processes, an attack master, two user fleets — drives the scripted
// workload, and tears it down leaving no orphan processes. This is the
// `make deploy-smoke` gate.
func TestDeploySmoke(t *testing.T) {
	d, err := Launch(testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()

	res, err := d.WaitUserStats(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("load result:\n%s", res)
	checkLoad(t, d.Spec, res)
	teardownClean(t, d)
}

// TestDeployPortCollision pins the port re-draw: when the deterministic
// base port is already taken, the child falls back to an ephemeral port
// and the deployment still comes up on the published address.
func TestDeployPortCollision(t *testing.T) {
	// Occupy a port, then ask the deployment to use it as BasePort.
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	port := blocker.Addr().(*net.TCPAddr).Port

	spec := Spec{
		ISPs: 1, NodesPerISP: 2, UserProcs: 1, UsersPerProc: 2, Updates: 1,
		BasePort: port,
		Exe:      os.Args[0],
		LogDir:   t.TempDir(),
		Logf:     t.Logf,
	}
	d, err := Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()

	if d.TCSP.Addr == blocker.Addr().String() {
		t.Fatalf("tcsp claims the blocked address %s", d.TCSP.Addr)
	}
	res, err := d.WaitUserStats(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkLoad(t, d.Spec, res)
	teardownClean(t, d)
}

// TestDeployWatchResumesOnHubSeq pins the deployment TCSP's watch stream
// to hub-global sequence numbers: the envelope carries the update's own
// Seq, and a subscriber resuming after a consumed update gets the rest of
// the retained window replayed, with no gap.
func TestDeployWatchResumesOnHubSeq(t *testing.T) {
	d, err := Launch(Spec{
		ISPs: 1, NodesPerISP: 2, UserProcs: 1, UsersPerProc: 1, Updates: 1,
		TelemetryMS: 20,
		Exe:         os.Args[0],
		LogDir:      t.TempDir(),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()

	recv := func(p *WatchParams) []uint64 {
		cl, err := ctl.Dial(d.TCSP.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.Subscribe("watch", p)
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		for {
			var u WatchUpdate
			if err := st.Recv(&u); err == io.EOF {
				return seqs
			} else if err != nil {
				t.Fatal(err)
			}
			if u.Seq == 0 || u.Seq != st.Seq() {
				t.Fatalf("update seq %d, envelope seq %d", u.Seq, st.Seq())
			}
			seqs = append(seqs, u.Seq)
		}
	}
	first := recv(&WatchParams{Count: 3})
	second := recv(&WatchParams{AfterSeq: first[0], Count: 4})
	for i, q := range second {
		if q != first[0]+1+uint64(i) {
			t.Fatalf("resumed after %d, got %v", first[0], second)
		}
	}
	if _, err := d.WaitUserStats(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDeployFullScale is the acceptance-scale run: four ISP processes and
// one thousand user agents, each holding its own control connection,
// driving concurrent installs, updates and subscriptions while attack
// traffic loads every ISP world. Skipped in -short mode.
func TestDeployFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale deployment is not a -short test")
	}
	spec := Spec{
		ISPs:         4,
		NodesPerISP:  4,
		UserProcs:    4,
		UsersPerProc: 250,
		Updates:      3,
		Attack:       true,
		AttackPPS:    500,
		Exe:          os.Args[0],
		LogDir:       t.TempDir(),
		Logf:         t.Logf,
		ReadyTimeout: 2 * time.Minute,
	}
	d, err := Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()

	res, err := d.WaitUserStats(4 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full-scale load result:\n%s", res)
	checkLoad(t, d.Spec, res)
	if res.Agents != 1000 {
		t.Errorf("agents = %d, want 1000", res.Agents)
	}
	teardownClean(t, d)
}

// TestLoadResultMergeQuantiles covers the recorder math the harness trusts
// for its reported numbers.
func TestLoadResultMergeQuantiles(t *testing.T) {
	a := NewRecorder()
	for i := 1; i <= 50; i++ {
		a.Record("x", time.Duration(i)*time.Millisecond, nil)
	}
	b := NewRecorder()
	for i := 51; i <= 100; i++ {
		b.Record("x", time.Duration(i)*time.Millisecond, nil)
	}
	b.Record("x", time.Second, fmt.Errorf("boom"))
	a.Merge(b)
	res := a.Result()
	st := res.Ops["x"]
	if st.Count != 101 || st.Errors != 1 || len(st.SamplesUS) != 100 {
		t.Fatalf("merged stats = %+v", st)
	}
	if got := res.Quantile("x", 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := res.Quantile("x", 0.99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
	var merged LoadResult
	merged.Merge(res)
	merged.Merge(res)
	if merged.TotalOps() != 202 || merged.Errors() != 2 {
		t.Errorf("cross-process merge: ops=%d errs=%d", merged.TotalOps(), merged.Errors())
	}
}

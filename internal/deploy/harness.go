// Package deploy is the multi-process deployment harness: it launches the
// paper's distributed roles — one TCSP, N ISP NMS+device processes, an
// attack master, and thousands of user agents — as separate OS processes
// speaking the ctl protocol over loopback TCP, from a single command
// (cmd/dtcdeploy) or test. This is the role-based all-localhost launcher
// idiom (prifi's simul.sh, netsim-in-a-box): every role is the same
// binary, selected by the DTC_DEPLOY_ROLE environment variable, so the
// harness needs no installation step and tests can spawn the test binary
// itself as the child executable.
//
// Contract with child processes:
//
//   - Readiness: a child prints one "DTC-READY k=v ..." line on stdout
//     when it is serving. Listening roles publish the address they
//     actually bound — a child asked for a busy port falls back to an
//     ephemeral one (port re-draw), so parallel harnesses never flake on
//     port collisions.
//   - Stats: children may print "DTC-STATS json=<base64>" lines; the
//     harness keeps the latest per process.
//   - Teardown: children exit when their stdin reaches EOF. The harness
//     holds every child's stdin open, so even if the harness is SIGKILLed
//     the children lose stdin and exit — no orphan processes. Teardown
//     closes stdin, waits, then escalates SIGTERM and SIGKILL, and
//     verifies every pid is gone (the leakGuard idiom, at process scope).
package deploy

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Spec sizes a deployment. Zero values take the defaults noted.
type Spec struct {
	ISPs         int     // ISP NMS processes (default 2)
	NodesPerISP  int     // routers simulated per ISP (default 4)
	UserProcs    int     // user-agent processes (default 1)
	UsersPerProc int     // agents (connections) per user process (default 8)
	Updates      int     // parameter updates each agent issues (default 2)
	Attack       bool    // launch the attack master
	AttackPPS    float64 // attack rate per ISP world (default 500)

	// BasePort > 0 assigns deterministic ports (TCSP at BasePort, ISP i at
	// BasePort+1+i); 0 uses ephemeral ports everywhere. Either way the
	// address a child actually bound is read back from its readiness
	// line, so a busy port degrades to an ephemeral re-draw, not a
	// failure.
	BasePort int

	Seed        uint64 // ISP data-plane seed (default 1)
	TelemetryMS int    // NMS snapshot/report cadence, wall ms (default 200)
	IngestCap   int    // TCSP telemetry ingest queue capacity (default 256)

	LogDir string // per-role log files; "" creates a temp dir

	// Exe + ExeArgs is the child command; "" uses the current executable.
	// Tests set Exe to the test binary and ExeArgs to run the helper.
	Exe     string
	ExeArgs []string
	// ExtraEnv is appended to every child's environment.
	ExtraEnv []string

	ReadyTimeout time.Duration // per-process readiness bound (default 30s)
	Logf         func(format string, args ...any)
}

func (s Spec) withDefaults() Spec {
	if s.ISPs < 1 {
		s.ISPs = 2
	}
	if s.NodesPerISP < 2 {
		s.NodesPerISP = 4
	}
	if s.UserProcs < 1 {
		s.UserProcs = 1
	}
	if s.UsersPerProc < 1 {
		s.UsersPerProc = 8
	}
	if s.Updates < 1 {
		s.Updates = 2
	}
	if s.AttackPPS <= 0 {
		s.AttackPPS = 500
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TelemetryMS <= 0 {
		s.TelemetryMS = 200
	}
	if s.IngestCap <= 0 {
		s.IngestCap = 256
	}
	if s.ReadyTimeout <= 0 {
		s.ReadyTimeout = 30 * time.Second
	}
	if s.Logf == nil {
		s.Logf = func(string, ...any) {}
	}
	return s
}

// Proc is one launched role process.
type Proc struct {
	Role string
	Name string
	Addr string // published listen address ("" for client-only roles)

	cmd    *exec.Cmd
	stdin  io.WriteCloser
	waitCh chan error

	mu    sync.Mutex
	ready chan map[string]string
	stats map[string]string // latest DTC-STATS fields
}

// Pid returns the process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Stats returns the latest DTC-STATS fields the process printed.
func (p *Proc) Stats() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.stats))
	for k, v := range p.stats {
		out[k] = v
	}
	return out
}

// Deployment is a running multi-process deployment.
type Deployment struct {
	Spec   Spec
	TCSP   *Proc
	NMS    []*Proc
	Users  []*Proc
	Attack *Proc

	LogDir string
	procs  []*Proc
	done   bool
}

// parseKV splits "k=v k=v ..." readiness/stats fields.
func parseKV(line string) map[string]string {
	out := make(map[string]string)
	for _, f := range strings.Fields(line) {
		if i := strings.IndexByte(f, '='); i > 0 {
			out[f[:i]] = f[i+1:]
		}
	}
	return out
}

// launchProc spawns one child with env and scans its stdout for the
// readiness and stats protocol, teeing everything into logPath.
func (s Spec) launchProc(role, name, logPath string, env []string) (*Proc, error) {
	exe := s.Exe
	if exe == "" {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, fmt.Errorf("deploy: resolve executable: %w", err)
		}
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, s.ExeArgs...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Env = append(cmd.Env, s.ExtraEnv...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("deploy: start %s: %w", role, err)
	}
	p := &Proc{
		Role: role, Name: name, cmd: cmd, stdin: stdin,
		waitCh: make(chan error, 1),
		ready:  make(chan map[string]string, 1),
		stats:  make(map[string]string),
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			switch {
			case strings.HasPrefix(line, "DTC-READY"):
				select {
				case p.ready <- parseKV(line):
				default:
				}
			case strings.HasPrefix(line, "DTC-STATS"):
				p.mu.Lock()
				for k, v := range parseKV(line) {
					p.stats[k] = v
				}
				p.mu.Unlock()
			}
		}
		p.waitCh <- cmd.Wait()
		logFile.Close()
	}()
	return p, nil
}

// awaitReady blocks until the process prints its readiness line (or dies,
// or the timeout passes), recording the published address.
func (d *Deployment) awaitReady(p *Proc) error {
	select {
	case kv := <-p.ready:
		p.Addr = kv["addr"]
		p.mu.Lock()
		for k, v := range kv {
			p.stats[k] = v
		}
		p.mu.Unlock()
		return nil
	case err := <-p.waitCh:
		return fmt.Errorf("deploy: %s (%s) exited before readiness: %v (see %s)",
			p.Role, p.Name, err, filepath.Join(d.LogDir, p.Name+".log"))
	case <-time.After(d.Spec.ReadyTimeout):
		return fmt.Errorf("deploy: %s (%s) not ready after %v", p.Role, p.Name, d.Spec.ReadyTimeout)
	}
}

// listenEnv formats the child's requested listen address.
func (s Spec) listenEnv(portOffset int) string {
	if s.BasePort > 0 {
		return fmt.Sprintf("127.0.0.1:%d", s.BasePort+portOffset)
	}
	return "127.0.0.1:0"
}

// Launch brings the whole deployment up: TCSP first, then every NMS
// (registered with the TCSP as they appear), then the attack master and
// the user fleets. It returns once every process has published readiness.
// On any failure the partially-launched deployment is torn down.
func Launch(spec Spec) (*Deployment, error) {
	spec = spec.withDefaults()
	logDir := spec.LogDir
	if logDir == "" {
		var err error
		if logDir, err = os.MkdirTemp("", "dtc-deploy-*"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	d := &Deployment{Spec: spec, LogDir: logDir}
	ok := false
	defer func() {
		if !ok {
			d.Teardown()
		}
	}()

	maxUsers := spec.UserProcs * spec.UsersPerProc
	tcsp, err := spec.launchProc("tcsp", "tcsp", filepath.Join(logDir, "tcsp.log"), []string{
		"DTC_DEPLOY_ROLE=tcsp",
		"DTC_LISTEN=" + spec.listenEnv(0),
		fmt.Sprintf("DTC_MAX_USERS=%d", maxUsers),
		fmt.Sprintf("DTC_INGEST_CAP=%d", spec.IngestCap),
	})
	if err != nil {
		return nil, err
	}
	d.TCSP = tcsp
	d.procs = append(d.procs, tcsp)
	if err := d.awaitReady(tcsp); err != nil {
		return nil, err
	}
	pubkey := tcsp.Stats()["pubkey"]
	if tcsp.Addr == "" || pubkey == "" {
		return nil, fmt.Errorf("deploy: tcsp readiness missing addr/pubkey")
	}
	spec.Logf("tcsp ready on %s", tcsp.Addr)

	// ISP NMS processes. Each runs its own simulated data plane and
	// reports telemetry; the orchestrator registers each with the TCSP
	// (the paper's ISP-participation contract) via the addisp method.
	var nmsAddrs []string
	for i := 0; i < spec.ISPs; i++ {
		name := fmt.Sprintf("isp%d", i+1)
		p, err := spec.launchProc("nms", name, filepath.Join(logDir, name+".log"), []string{
			"DTC_DEPLOY_ROLE=nms",
			"DTC_LISTEN=" + spec.listenEnv(1+i),
			"DTC_ISP_NAME=" + name,
			fmt.Sprintf("DTC_ISP_INDEX=%d", i),
			fmt.Sprintf("DTC_NODES_PER_ISP=%d", spec.NodesPerISP),
			fmt.Sprintf("DTC_SEED=%d", spec.Seed),
			fmt.Sprintf("DTC_TELEMETRY_MS=%d", spec.TelemetryMS),
			"DTC_TCSP_ADDR=" + tcsp.Addr,
			"DTC_TCSP_PUBKEY=" + pubkey,
		})
		if err != nil {
			return nil, err
		}
		d.NMS = append(d.NMS, p)
		d.procs = append(d.procs, p)
		if err := d.awaitReady(p); err != nil {
			return nil, err
		}
		if err := registerISP(tcsp.Addr, name, p.Addr); err != nil {
			return nil, fmt.Errorf("deploy: register %s with tcsp: %w", name, err)
		}
		nmsAddrs = append(nmsAddrs, p.Addr)
		spec.Logf("%s ready on %s", name, p.Addr)
	}

	if spec.Attack {
		p, err := spec.launchProc("attack", "attack", filepath.Join(logDir, "attack.log"), []string{
			"DTC_DEPLOY_ROLE=attack",
			"DTC_NMS_ADDRS=" + strings.Join(nmsAddrs, ","),
			fmt.Sprintf("DTC_ATTACK_PPS=%g", spec.AttackPPS),
		})
		if err != nil {
			return nil, err
		}
		d.Attack = p
		d.procs = append(d.procs, p)
		if err := d.awaitReady(p); err != nil {
			return nil, err
		}
		spec.Logf("attack master ready (%g pps per ISP)", spec.AttackPPS)
	}

	for i := 0; i < spec.UserProcs; i++ {
		name := fmt.Sprintf("users%d", i)
		p, err := spec.launchProc("user", name, filepath.Join(logDir, name+".log"), []string{
			"DTC_DEPLOY_ROLE=user",
			"DTC_TCSP_ADDR=" + tcsp.Addr,
			fmt.Sprintf("DTC_USERS=%d", spec.UsersPerProc),
			fmt.Sprintf("DTC_USER_OFFSET=%d", i*spec.UsersPerProc),
			fmt.Sprintf("DTC_UPDATES=%d", spec.Updates),
			fmt.Sprintf("DTC_ISPS=%d", spec.ISPs),
		})
		if err != nil {
			return nil, err
		}
		d.Users = append(d.Users, p)
		d.procs = append(d.procs, p)
	}
	// User fleets dial concurrently; readiness means every agent holds an
	// open control connection.
	for _, p := range d.Users {
		if err := d.awaitReady(p); err != nil {
			return nil, err
		}
		spec.Logf("%s ready (%s agents connected)", p.Name, p.Stats()["users"])
	}
	ok = true
	return d, nil
}

// WaitUserStats blocks until every user process has reported its load
// statistics (the DTC-STATS line it prints after its agents finish their
// scripted operations), then returns the merged result.
func (d *Deployment) WaitUserStats(timeout time.Duration) (*LoadResult, error) {
	deadline := time.Now().Add(timeout)
	var merged LoadResult
	for _, p := range d.Users {
		for {
			if raw, ok := p.Stats()["load"]; ok {
				data, err := base64.StdEncoding.DecodeString(raw)
				if err != nil {
					return nil, fmt.Errorf("deploy: bad stats from %s: %w", p.Name, err)
				}
				var r LoadResult
				if err := json.Unmarshal(data, &r); err != nil {
					return nil, fmt.Errorf("deploy: bad stats from %s: %w", p.Name, err)
				}
				merged.Merge(&r)
				break
			}
			select {
			case err := <-p.waitCh:
				return nil, fmt.Errorf("deploy: %s exited before reporting: %v", p.Name, err)
			default:
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("deploy: %s stats not reported after %v", p.Name, timeout)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return &merged, nil
}

// alive reports whether pid still exists.
func alive(pid int) bool {
	return syscall.Kill(pid, 0) == nil
}

// Teardown shuts every process down and verifies none survive: stdin EOF
// (the cooperative signal), then SIGTERM, then SIGKILL, each with a grace
// window. It returns an error if any child could not be reaped.
func (d *Deployment) Teardown() error {
	if d.done {
		return nil
	}
	d.done = true
	for _, p := range d.procs {
		p.stdin.Close()
	}
	pending := d.await(2 * time.Second)
	if len(pending) > 0 {
		for _, p := range pending {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
		pending = d.await(2 * time.Second)
	}
	if len(pending) > 0 {
		for _, p := range pending {
			p.cmd.Process.Kill()
		}
		pending = d.await(5 * time.Second)
	}
	var errs []string
	for _, p := range pending {
		errs = append(errs, fmt.Sprintf("%s pid %d", p.Name, p.Pid()))
	}
	// Orphan sweep: every launched pid must be gone, reaped or not.
	for _, p := range d.procs {
		if alive(p.Pid()) {
			errs = append(errs, fmt.Sprintf("%s pid %d still alive", p.Name, p.Pid()))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("deploy: orphan processes after teardown: %s", strings.Join(errs, ", "))
	}
	return nil
}

// await waits up to grace for all children to exit, returning those that
// have not.
func (d *Deployment) await(grace time.Duration) []*Proc {
	deadline := time.After(grace)
	var pending []*Proc
	for _, p := range d.procs {
		select {
		case err := <-p.waitCh:
			p.waitCh <- err // keep it readable for later callers
		case <-deadline:
			pending = append(pending, p)
		}
	}
	return pending
}

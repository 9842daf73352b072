package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtc/internal/auth"
	"dtc/internal/ctl"
	"dtc/internal/deploy"
	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/tcsp"
	"dtc/internal/topology"
)

// control_plane: the real roles brought up by deploy.Launch — a TCSP, two
// ISP NMS processes (each simulating its own 4-router data plane) and the
// attack master at 500 pps per ISP — loaded by this process as a closed
// loop over one ctl.Client connection per core. Each connection plays one
// of the harness's pre-allocated users (deploy.UserOwner(i)), registered
// again so the TCSP issues it a fresh certificate, and repeats a reaction
// cycle of ten signed ops: install : update : query = 1 : 6 : 3.

const (
	ctlISPs        = 2
	ctlNodesPerISP = 4
	ctlConns       = 2 // closed-loop connections (the box's core count)
	ctlLaunches    = 5 // set-ups per run; setup_s is their median
	ctlReplayOps   = 2000
)

type opClass int

const (
	opInstall opClass = iota
	opUpdate
	opQuery
	nOpClasses
)

var opNames = [nOpClasses]string{"install", "update", "query"}

// ctlCycle is one reaction cycle: install : update : query = 1 : 6 : 3.
var ctlCycle = []opClass{opInstall, opUpdate, opQuery, opUpdate, opUpdate, opQuery, opUpdate, opUpdate, opQuery, opUpdate}

// ctlUser is one load-generating user: identity, certificate, ISP.
type ctlUser struct {
	index int
	id    *auth.Identity
	cert  *auth.Certificate
	isp   string
	nonce uint64
	rng   *sim.RNG
}

func newCtlUser(i int, seed uint64) (*ctlUser, error) {
	owner := deploy.UserOwner(i)
	// The same deterministic key the harness's own agent for this user
	// derives, so both register the same identity.
	ks := sha256.Sum256([]byte(owner))
	id, err := auth.NewIdentity(owner, ks[:])
	if err != nil {
		return nil, err
	}
	return &ctlUser{index: i, id: id, isp: fmt.Sprintf("isp%d", i%ctlISPs+1),
		rng: sim.NewRNG(seed).Substream(uint64(i))}, nil
}

func (u *ctlUser) registerParams() *ctl.RegisterParams {
	prefixes := []string{deploy.UserPrefix(u.index).String()}
	return &ctl.RegisterParams{
		User: u.id.Name, PublicKey: u.id.Pub, Prefixes: prefixes,
		Signature: u.id.Sign(tcsp.RegistrationBytes(u.id.Name, u.id.Pub, prefixes)),
	}
}

// body returns the request body of the user's next op of class c; rates
// and bursts are drawn from the user's seeded stream.
func (u *ctlUser) body(c opClass) any {
	owner := u.id.Name
	switch c {
	case opInstall:
		burst := float64(20 + u.rng.Intn(80))
		spec := service.RateLimit("rl-"+owner, service.MatchSpec{Proto: "udp"}, 500, burst)
		return &nms.DeployRequest{Owner: owner, Prefixes: []string{deploy.UserPrefix(u.index).String()}, Spec: *spec}
	case opUpdate:
		rate := float64(100 + u.rng.Intn(900))
		return &nms.ControlRequest{Owner: owner, Op: "update", Stage: "dest", Component: "limit",
			Update: &nms.ParamUpdate{Rate: &rate}}
	default:
		return &nms.ControlRequest{Owner: owner, Op: "counters", Stage: "dest"}
	}
}

// sign wraps a body in a signed request under the user's certificate.
func (u *ctlUser) sign(body any) (*auth.SignedRequest, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	u.nonce++
	return auth.SignRequest(u.id, u.cert.Serial, u.nonce, data), nil
}

// tcspCall returns the TCSP method and wire parameters for a signed op.
func tcspCall(c opClass, signed *auth.SignedRequest, isp string) (string, any) {
	if c == opInstall {
		return "deploy", &ctl.DeployParams{Signed: signed, ISPs: []string{isp}}
	}
	return "control", &ctl.ControlParams{Signed: signed, ISPs: []string{isp}}
}

// checkReply validates one op's reply: every reply OK, an install lands on
// every router of the ISP, and a counters read lists the routers the
// user's earlier install put the service on.
func checkReply(c opClass, deployRes []*nms.DeployResult, ctlRes []*nms.ControlResult) error {
	if c == opInstall {
		if len(deployRes) != 1 || len(deployRes[0].Nodes) != ctlNodesPerISP {
			return fmt.Errorf("install landed on %v, want %d routers", deployRes, ctlNodesPerISP)
		}
		return nil
	}
	if len(ctlRes) != 1 || !ctlRes[0].OK {
		return fmt.Errorf("%s reply not OK: %+v", opNames[c], ctlRes)
	}
	if c == opQuery && len(ctlRes[0].Counters) != ctlNodesPerISP {
		return fmt.Errorf("counters read lists %d routers, want the %d of the install", len(ctlRes[0].Counters), ctlNodesPerISP)
	}
	return nil
}

// wireOp signs and issues one op over cl, returning the call latency.
func wireOp(cl *ctl.Client, u *ctlUser, c opClass) (time.Duration, error) {
	signed, err := u.sign(u.body(c))
	if err != nil {
		return 0, err
	}
	method, params := tcspCall(c, signed, u.isp)
	var deployRes []*nms.DeployResult
	var ctlRes []*nms.ControlResult
	var out any = &ctlRes
	if c == opInstall {
		out = &deployRes
	}
	t0 := time.Now()
	err = cl.Call(method, params, out)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("%s: %w", opNames[c], err)
	}
	return d, checkReply(c, deployRes, ctlRes)
}

// roleStats reads the deployment's public stats methods.
type roleStats struct {
	reports, ingestDrops uint64 // TCSP
	delivered, sent      uint64 // summed over NMSes
}

func readRoleStats(d *deploy.Deployment) (roleStats, error) {
	var rs roleStats
	call := func(addr string, out any) error {
		cl, err := ctl.DialRetry(addr, 5, 50*time.Millisecond)
		if err != nil {
			return err
		}
		defer cl.Close()
		return cl.Call("stats", nil, out)
	}
	var ts struct {
		Reports     uint64 `json:"reports"`
		IngestDrops uint64 `json:"ingest_drops"`
	}
	if err := call(d.TCSP.Addr, &ts); err != nil {
		return rs, fmt.Errorf("tcsp stats: %w", err)
	}
	rs.reports, rs.ingestDrops = ts.Reports, ts.IngestDrops
	for _, p := range d.NMS {
		var ns struct {
			Delivered uint64 `json:"delivered"`
			Sent      uint64 `json:"sent"`
		}
		if err := call(p.Addr, &ns); err != nil {
			return rs, fmt.Errorf("%s stats: %w", p.Name, err)
		}
		rs.delivered += ns.Delivered
		rs.sent += ns.Sent
	}
	return rs, nil
}

// ctlSession is one launched deployment with the benchmark's users
// registered on their own connections.
type ctlSession struct {
	d     *deploy.Deployment
	conns []*ctl.Client
	users []*ctlUser
}

func (s *ctlSession) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	return s.d.Teardown()
}

// launchSession brings the roles up, waits for the harness's agents to
// finish their script, and registers the benchmark's users. It returns
// the set-up time: the launch until every role is ready plus the
// registrations, not the harness agents' script in between.
func launchSession(cfg runConfig, k int) (*ctlSession, float64, error) {
	// Each launch logs into an emptied directory: the logs are this run's.
	logDir := filepath.Join(cfg.OutDir, "deploy", fmt.Sprintf("launch%d", k))
	if err := os.RemoveAll(logDir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := deploy.Launch(deploy.Spec{
		ISPs: ctlISPs, NodesPerISP: ctlNodesPerISP,
		UserProcs: 1, UsersPerProc: ctlConns, Updates: 1,
		Attack: true, AttackPPS: 500,
		Seed:        cfg.Seed,
		TelemetryMS: 50,
		LogDir:      logDir,
	})
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	s := &ctlSession{d: d}
	fail := func(err error) (*ctlSession, float64, error) {
		s.close()
		return nil, 0, err
	}
	load, err := d.WaitUserStats(60 * time.Second)
	if err != nil {
		return fail(err)
	}
	if load.Failed > 0 || load.Errors() > 0 {
		return fail(fmt.Errorf("harness agents failed: %d agents, %d op errors", load.Failed, load.Errors()))
	}
	t1 := time.Now()
	for i := 0; i < ctlConns; i++ {
		u, err := newCtlUser(i, cfg.Seed)
		if err != nil {
			return fail(err)
		}
		cl, err := ctl.DialRetry(d.TCSP.Addr, 10, 50*time.Millisecond)
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, cl)
		var cert auth.Certificate
		if err := cl.Call("register", u.registerParams(), &cert); err != nil {
			return fail(fmt.Errorf("register %s: %w", u.id.Name, err))
		}
		u.cert = &cert
		s.users = append(s.users, u)
	}
	return s, setup + time.Since(t1).Seconds(), nil
}

// ctlLoad is what the closed loop measured.
type ctlLoad struct {
	lat       [nOpClasses][]float64 // ms, timed window only
	cycles    []float64             // s, complete timed reaction cycles
	timedOps  int                   // ops completed in the timed window
	attempted int                   // every op, warm-up included
	failed    int
	errs      []string
	elapsed   float64
}

// cycle runs one reaction cycle on cl; record adds it to the timed figures.
func (l *ctlLoad) cycle(cl *ctl.Client, u *ctlUser, record bool) {
	c0 := time.Now()
	ok := true
	for _, c := range ctlCycle {
		d, err := wireOp(cl, u, c)
		l.attempted++
		if err != nil {
			ok = false
			l.failed++
			if len(l.errs) < 5 {
				l.errs = append(l.errs, err.Error())
			}
			continue
		}
		if record {
			l.timedOps++
			l.lat[c] = append(l.lat[c], float64(d.Nanoseconds())/1e6)
		}
	}
	if record && ok {
		l.cycles = append(l.cycles, time.Since(c0).Seconds())
	}
}

// runLoad drives every connection through reaction cycles until the
// deadline: one untimed warm-up cycle each, then the timed window.
func runLoad(s *ctlSession, seconds float64) *ctlLoad {
	per := make([]*ctlLoad, len(s.conns))
	for i := range s.conns {
		per[i] = &ctlLoad{}
		per[i].cycle(s.conns[i], s.users[i], false)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range s.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[i].cycle(s.conns[i], s.users[i], true)
			}
		}(i)
	}
	wg.Wait()
	total := &ctlLoad{elapsed: time.Since(start).Seconds()}
	for _, l := range per {
		for c := range l.lat {
			total.lat[c] = append(total.lat[c], l.lat[c]...)
		}
		total.cycles = append(total.cycles, l.cycles...)
		total.timedOps += l.timedOps
		total.attempted += l.attempted
		total.failed += l.failed
		total.errs = append(total.errs, l.errs...)
	}
	return total
}

func runControl(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var s *ctlSession
	for k := 0; k < ctlLaunches; k++ {
		sess, setup, err := launchSession(cfg, k)
		if err != nil {
			return nil, fmt.Errorf("launch %d: %w", k, err)
		}
		setups = append(setups, setup)
		o.Attempted++ // the launch itself; a failed one ends the run above
		if k < ctlLaunches-1 {
			err := sess.close()
			o.check(err == nil, "control_plane: teardown: %v", err)
			continue
		}
		s = sess
	}
	heap0 := liveHeap()

	before, err := readRoleStats(s.d)
	if err != nil {
		s.close()
		return nil, err
	}
	load := runLoad(s, cfg.Seconds)
	after, err := readRoleStats(s.d)
	if err != nil {
		s.close()
		return nil, err
	}
	err = s.close()
	o.check(err == nil, "control_plane: teardown (orphan check): %v", err)

	o.Attempted += load.attempted
	o.Failed += load.failed
	for _, e := range load.errs {
		o.Notes = append(o.Notes, "FAILED op: "+e)
	}
	o.check(after.delivered > before.delivered, "control_plane: the NMS data planes delivered no packets during the load")

	opsPerS := float64(load.timedOps) / load.elapsed
	o.EndToEnd["setup_s"] = median(setups)
	o.EndToEnd["run_s"] = median(load.cycles)
	o.EndToEnd["throughput_per_s"] = opsPerS
	o.EndToEnd["ctl_ops_per_s"] = opsPerS
	o.EndToEnd["sim_pkts_per_s"] = float64(after.sent-before.sent) / load.elapsed
	var p50 [nOpClasses]float64
	for c := range load.lat {
		n := len(load.lat[c])
		name := opNames[c]
		o.EndToEnd[name+"_n"] = float64(n)
		if n == 0 {
			continue
		}
		p50[c] = quantile(load.lat[c], 0.5)
		o.EndToEnd[name+"_p50_ms"] = p50[c]
		o.EndToEnd[name+"_p99_ms"] = quantile(load.lat[c], tailQuantile(n))
	}
	// The load generator's heap, its own latency samples released.
	load = nil
	o.EndToEnd["peak_heap_mb"] = float64(max(heap0, liveHeap())) / (1 << 20)
	if !cfg.Trace {
		return o, nil
	}

	L := o.Layers
	for _, k := range []string{"sim_pkts_per_s", "ctl_ops_per_s", "install_p50_ms", "install_p99_ms", "install_n",
		"update_p50_ms", "update_p99_ms", "update_n", "query_p50_ms", "query_p99_ms", "query_n"} {
		L[k] = o.EndToEnd[k]
	}
	L["tcsp.reports"] = float64(after.reports - before.reports)
	L["tcsp.ingest_drops"] = float64(after.ingestDrops - before.ingestDrops)
	L["nms.delivered"] = float64(after.delivered - before.delivered)
	L["nms.sent"] = float64(after.sent - before.sent)
	r, err := replayInProcess(cfg.Seed, ctlReplayOps)
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	o.Attempted += r.ops
	o.Failed += r.failed
	L["auth.sign_us"] = median(r.signUs)
	L["auth.verify_us"] = median(r.verifyUs)
	L["device.install_us"] = median(r.installUs)
	for c, name := range opNames {
		tcspUs := median(r.tcspUs[c])
		L["tcsp.handler_us."+name] = tcspUs
		L["nms.handler_us."+name] = median(r.nmsUs[c])
		L["ctl.wire_wait_us."+name] = p50[c]*1000 - tcspUs
	}
	L["failed_ratio"] = ratio(float64(o.Failed), float64(o.Attempted))
	return o, nil
}

// replayResult holds the in-process per-layer timings, in microseconds.
type replayResult struct {
	signUs, verifyUs, installUs []float64
	tcspUs, nmsUs               [nOpClasses][]float64
	ops, failed                 int
}

// replayInProcess replays the control_plane op stream — same users, same
// cycle, same seeded parameters — against an in-process TCSP and NMSes,
// timing each layer by calling its public entry point: auth signing and
// verification, ctl.TCSPHandler, ctl.NMSHandler, and Spec.Compile plus
// Device.Install. Handlers are served under a mutex, never concurrently.
func replayInProcess(seed uint64, nOps int) (*replayResult, error) {
	clock := func() int64 { return time.Now().Unix() }
	ks := sha256.Sum256([]byte(fmt.Sprintf("perfbench-tcsp-%d", seed)))
	caID, err := auth.NewIdentity("tcsp", ks[:])
	if err != nil {
		return nil, err
	}
	authority := ownership.NewRegistry()
	for i := 0; i < ctlConns; i++ {
		if err := authority.Allocate(deploy.UserPrefix(i), ownership.OwnerID(deploy.UserOwner(i))); err != nil {
			return nil, err
		}
	}
	tc := tcsp.New(caID, authority, clock)
	nmsHandlers := map[string]ctl.Handler{}
	for i := 0; i < ctlISPs; i++ {
		name := fmt.Sprintf("isp%d", i+1)
		network, err := netsim.New(sim.New(seed+uint64(i)), topology.Line(ctlNodesPerISP), netsim.DefaultLink)
		if err != nil {
			return nil, err
		}
		m, err := nms.New(name, network, allNodes(ctlNodesPerISP), caID.Pub, clock)
		if err != nil {
			return nil, err
		}
		if err := tc.AddISP(name, m); err != nil {
			return nil, err
		}
		nmsHandlers[name] = ctl.NMSHandler(m)
	}
	var mu sync.Mutex
	tcspHandler := ctl.TCSPHandler(tc)
	serve := func(h ctl.Handler, method string, params any) (any, float64, error) {
		payload, err := json.Marshal(params)
		if err != nil {
			return nil, 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		t0 := time.Now()
		out, err := h(method, payload)
		return out, float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}

	dev := device.New(0, modules.NewRegistry(), sim.NewRNG(seed))
	var users []*ctlUser
	for i := 0; i < ctlConns; i++ {
		u, err := newCtlUser(i, seed)
		if err != nil {
			return nil, err
		}
		out, _, err := serve(tcspHandler, "register", u.registerParams())
		if err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
		u.cert = out.(*auth.Certificate)
		if err := dev.BindOwner(deploy.UserPrefix(i), u.id.Name); err != nil {
			return nil, err
		}
		users = append(users, u)
	}

	r := &replayResult{}
	for k := 0; k < nOps; k++ {
		u := users[k%len(users)]
		c := ctlCycle[(k/len(users))%len(ctlCycle)]
		body := u.body(c)
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		u.nonce++
		t0 := time.Now()
		signed := auth.SignRequest(u.id, u.cert.Serial, u.nonce, data)
		r.signUs = append(r.signUs, float64(time.Since(t0).Nanoseconds())/1e3)

		t0 = time.Now()
		verr := u.cert.Verify(caID.Pub, clock())
		if verr == nil {
			verr = auth.VerifyRequest(u.cert, signed)
		}
		r.verifyUs = append(r.verifyUs, float64(time.Since(t0).Nanoseconds())/1e3)

		r.ops++
		method, params := tcspCall(c, signed, u.isp)
		out, us, err := serve(tcspHandler, method, params)
		if err == nil && verr == nil {
			var dr []*nms.DeployResult
			var cr []*nms.ControlResult
			switch v := out.(type) {
			case []*nms.DeployResult:
				dr = v
			case []*nms.ControlResult:
				cr = v
			}
			err = checkReply(c, dr, cr)
		}
		if err != nil || verr != nil {
			r.failed++
			continue
		}
		r.tcspUs[c] = append(r.tcspUs[c], us)

		nmsMethod := "control"
		if c == opInstall {
			nmsMethod = "deploy"
		}
		_, us, err = serve(nmsHandlers[u.isp], nmsMethod, &ctl.NMSParams{Cert: u.cert, Signed: signed})
		r.nmsUs[c] = append(r.nmsUs[c], us)
		if err == nil && c == opInstall {
			spec := body.(*nms.DeployRequest).Spec
			t0 := time.Now()
			var compiled *service.Compiled
			if compiled, err = spec.Compile(); err == nil {
				err = dev.Install(u.id.Name, device.StageDest, compiled.Graph)
			}
			r.installUs = append(r.installUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if err != nil {
			r.failed++
		}
	}
	return r, nil
}

package deploy

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dtc/internal/auth"
	"dtc/internal/ctl"
	"dtc/internal/metrics"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/tcsp"
	"dtc/internal/telemetry"
	"dtc/internal/topology"
)

// IsChild reports whether this process was launched as a deployment role.
func IsChild() bool { return os.Getenv("DTC_DEPLOY_ROLE") != "" }

// RunChild runs the role selected by DTC_DEPLOY_ROLE until stdin reaches
// EOF (the harness's teardown signal). Call it from main (or a test
// helper) when IsChild reports true.
func RunChild() error {
	switch role := os.Getenv("DTC_DEPLOY_ROLE"); role {
	case "tcsp":
		return runTCSP()
	case "nms":
		return runNMS()
	case "user":
		return runUser()
	case "attack":
		return runAttack()
	default:
		return fmt.Errorf("deploy: unknown role %q", role)
	}
}

// UserOwner names the i-th synthetic user.
func UserOwner(i int) string { return fmt.Sprintf("u%04d", i) }

// UserPrefix is the i-th synthetic user's certified address block. The
// 192.0.0.0/8 region stays clear of netsim.NodePrefix's low /16s, so user
// allocations never collide with router address space.
func UserPrefix(i int) packet.Prefix {
	return packet.MakePrefix(packet.Addr(0xC0000000|uint32(i)<<8), 24)
}

func envStr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func envFloat(name string, def float64) float64 {
	if v := os.Getenv(name); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

// listenFallback binds the requested address, re-drawing to an ephemeral
// port when it is taken: the parent trusts only the address published in
// the readiness line, so a collision costs nothing.
func listenFallback(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		return ln, nil
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

// printReady emits the readiness line the harness scans for.
func printReady(fields ...string) {
	fmt.Printf("DTC-READY %s\n", strings.Join(fields, " "))
}

// printStats emits a stats line ("k=v" fields).
func printStats(fields ...string) {
	fmt.Printf("DTC-STATS %s\n", strings.Join(fields, " "))
}

// waitStdinEOF blocks until the harness closes our stdin (or the parent
// dies, which closes the pipe just the same) — the no-orphans contract.
func waitStdinEOF() {
	io.Copy(io.Discard, os.Stdin)
}

// wallClock is the shared control-plane clock: every role runs on the same
// machine, so wall seconds keep certificate validity windows consistent
// across process boundaries.
func wallClock() int64 { return time.Now().Unix() }

// registerISP tells the TCSP (via its addisp method) to manage the ISP NMS
// listening at addr. Used by the harness after each NMS becomes ready.
func registerISP(tcspAddr, name, addr string) error {
	cl, err := ctl.DialRetry(tcspAddr, 5, 50*time.Millisecond)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Call("addisp", &addISPParams{Name: name, Addr: addr}, nil)
}

type addISPParams struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

type attackParams struct {
	PPS float64 `json:"pps"`
}

// WatchUpdate is the telemetry summary the deployment TCSP pushes to watch
// subscribers: one frame per ingested report batch.
type WatchUpdate struct {
	Seq     uint64 `json:"seq,omitempty"`
	ISP     string `json:"isp"`
	Devices int    `json:"devices"`
	Reports uint64 `json:"reports"`
	Drops   uint64 `json:"drops"`
}

// WatchParams shapes a watch subscription.
type WatchParams struct {
	Count    int    `json:"count,omitempty"` // <=0 streams forever
	AfterSeq uint64 `json:"after_seq,omitempty"`
}

// watchHub fans report-ingest summaries out to subscribers, each behind a
// bounded drop-oldest queue so a slow watcher never stalls ingest.
type watchHub struct {
	mu   sync.Mutex
	seq  uint64
	next int
	subs map[int]*telemetry.Queue[WatchUpdate]
}

func newWatchHub() *watchHub {
	return &watchHub{subs: make(map[int]*telemetry.Queue[WatchUpdate])}
}

func (h *watchHub) publish(u WatchUpdate) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	u.Seq = h.seq
	for _, q := range h.subs {
		q.Push(u)
	}
}

func (h *watchHub) subscribe() (int, *telemetry.Queue[WatchUpdate]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	q := telemetry.NewQueue[WatchUpdate](64)
	h.subs[h.next] = q
	return h.next, q
}

func (h *watchHub) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, id)
}

// tcspStats is the "stats" method reply.
type tcspStats struct {
	Registers   uint64 `json:"registers"`
	Deploys     uint64 `json:"deploys"`
	Controls    uint64 `json:"controls"`
	Reports     uint64 `json:"reports"`
	IngestDrops uint64 `json:"ingest_drops"`
	Watches     uint64 `json:"watches"`
}

// runTCSP is the service-provider role: the certificate authority, the
// deployment relay, and the telemetry sink. Telemetry ingest is decoupled
// from the deploy path by a bounded drop-oldest queue: the handler
// validates and enqueues, a single drain goroutine applies — so a burst of
// ISP reports back-pressures by shedding the oldest batch instead of
// stalling deploys.
func runTCSP() error {
	maxUsers := envInt("DTC_MAX_USERS", 0)
	ingestCap := envInt("DTC_INGEST_CAP", 256)

	authority := ownership.NewRegistry()
	for i := 0; i < maxUsers; i++ {
		if err := authority.Allocate(UserPrefix(i), ownership.OwnerID(UserOwner(i))); err != nil {
			return fmt.Errorf("allocate user %d: %w", i, err)
		}
	}
	caID, err := auth.NewIdentity("tcsp", nil)
	if err != nil {
		return err
	}
	tc := tcsp.New(caID, authority, wallClock)

	var registers, deploys, controls, reports, watches metrics.AtomicCounter

	type reportBatch struct {
		isp   string
		snaps []*telemetry.Snapshot
	}
	ingest := telemetry.NewQueue[reportBatch](ingestCap)
	hub := newWatchHub()
	stop := make(chan struct{})
	go func() {
		for {
			batch, ok := ingest.Pop()
			if !ok {
				select {
				case <-ingest.Wait():
					continue
				case <-stop:
					return
				}
			}
			err := tc.Report(batch.isp, batch.snaps)
			devices := len(tc.Telemetry().Devices())
			if err != nil {
				fmt.Fprintf(os.Stderr, "report %s: %v\n", batch.isp, err)
				continue
			}
			reports.Inc()
			hub.publish(WatchUpdate{
				ISP: batch.isp, Devices: devices,
				Reports: reports.Value(), Drops: ingest.Dropped(),
			})
		}
	}()
	defer close(stop)

	base := ctl.TCSPHandler(tc)
	handler := func(method string, payload json.RawMessage) (any, error) {
		switch method {
		case "report":
			var p ctl.ReportParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("report: %w", err)
			}
			// Decode (and validate) outside the lock; apply via the queue.
			batch := reportBatch{isp: p.ISP, snaps: make([]*telemetry.Snapshot, 0, len(p.Snapshots))}
			for i, raw := range p.Snapshots {
				var s telemetry.Snapshot
				if err := s.UnmarshalBinary(raw); err != nil {
					return nil, fmt.Errorf("report: snapshot %d: %w", i, err)
				}
				batch.snaps = append(batch.snaps, &s)
			}
			ingest.Push(batch)
			return "ok", nil
		case "addisp":
			var p addISPParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("addisp: %w", err)
			}
			cl, err := ctl.DialRetry(p.Addr, 5, 50*time.Millisecond)
			if err != nil {
				return nil, fmt.Errorf("addisp %s: %w", p.Name, err)
			}
			if err := tc.AddISP(p.Name, ctl.NewNMSClient(cl)); err != nil {
				cl.Close()
				return nil, err
			}
			return "ok", nil
		case "watch":
			var p WatchParams
			if len(payload) > 0 {
				if err := json.Unmarshal(payload, &p); err != nil {
					return nil, fmt.Errorf("watch: %w", err)
				}
			}
			watches.Inc()
			return watchStream(hub, stop, p), nil
		case "stats":
			return &tcspStats{
				Registers: registers.Value(), Deploys: deploys.Value(),
				Controls: controls.Value(), Reports: reports.Value(),
				IngestDrops: ingest.Dropped(), Watches: watches.Value(),
			}, nil
		default:
			switch method {
			case "register":
				registers.Inc()
			case "deploy":
				deploys.Inc()
			case "control":
				controls.Inc()
			}
			return base(method, payload)
		}
	}

	ln, err := listenFallback(envStr("DTC_LISTEN", "127.0.0.1:0"))
	if err != nil {
		return err
	}
	srv := ctl.NewServer(ln, handler)
	defer srv.Close()

	pub := base64.StdEncoding.EncodeToString(caID.Pub)
	printReady("role=tcsp", "addr="+ln.Addr().String(), "pubkey="+pub)
	waitStdinEOF()
	printStats(fmt.Sprintf("registers=%d deploys=%d controls=%d reports=%d ingest_drops=%d",
		registers.Value(), deploys.Value(), controls.Value(), reports.Value(), ingest.Dropped()))
	return nil
}

// watchStream pushes hub updates to one subscriber.
func watchStream(hub *watchHub, stop <-chan struct{}, p WatchParams) ctl.StreamFunc {
	return func(push func(v any) error) error {
		id, q := hub.subscribe()
		defer hub.unsubscribe(id)
		sent := 0
		for p.Count <= 0 || sent < p.Count {
			u, ok := q.Pop()
			if !ok {
				select {
				case <-q.Wait():
					continue
				case <-stop:
					return nil
				}
			}
			if u.Seq <= p.AfterSeq {
				continue
			}
			if err := push(u); err != nil {
				return err
			}
			sent++
		}
		return nil
	}
}

// nmsStats is the NMS "stats" method reply.
type nmsStats struct {
	Delivered uint64 `json:"delivered"`
	Sent      uint64 `json:"sent"`
}

// runNMS is one ISP: its own simulated data plane (line topology, seeded
// per ISP), the NMS control endpoint, a wall-clock simulation driver, and
// a telemetry loop that heals then snapshots then reports to the TCSP.
func runNMS() error {
	name := envStr("DTC_ISP_NAME", "isp1")
	idx := envInt("DTC_ISP_INDEX", 0)
	nodesN := envInt("DTC_NODES_PER_ISP", 4)
	seed := uint64(envInt("DTC_SEED", 1))
	telemetryMS := envInt("DTC_TELEMETRY_MS", 200)
	tcspAddr := envStr("DTC_TCSP_ADDR", "")
	pub, err := base64.StdEncoding.DecodeString(envStr("DTC_TCSP_PUBKEY", ""))
	if err != nil || len(pub) == 0 {
		return fmt.Errorf("nms %s: bad DTC_TCSP_PUBKEY: %v", name, err)
	}

	sm := sim.New(seed + uint64(idx)*1000)
	network, err := netsim.New(sm, topology.Line(nodesN), netsim.DefaultLink)
	if err != nil {
		return err
	}
	nodes := make([]int, nodesN)
	for i := range nodes {
		nodes[i] = i
	}
	m, err := nms.New(name, network, nodes, pub, wallClock)
	if err != nil {
		return err
	}
	victim, err := network.AttachHost(nodesN - 1)
	if err != nil {
		return err
	}

	// One mutex serializes the data plane (sim advance), the control plane
	// (the NMS takes it itself, after checking signatures), and telemetry
	// snapshots.
	var mu sync.Mutex
	m.SetLocker(&mu)
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Simulation driver: simulated time tracks the wall.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mu.Lock()
				_, err := sm.Run(sim.Time(time.Since(start)))
				mu.Unlock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "sim: %v\n", err)
					return
				}
			case <-stop:
				return
			}
		}
	}()

	// Telemetry loop: self-heal, snapshot under the lock, report over the
	// network outside it.
	rep, err := ctl.DialRetry(tcspAddr, 10, 100*time.Millisecond)
	if err != nil {
		return fmt.Errorf("nms %s: dial tcsp: %w", name, err)
	}
	reporter := ctl.NewTCSPClient(rep)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Duration(telemetryMS) * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mu.Lock()
				if _, err := m.Heal(); err != nil {
					fmt.Fprintf(os.Stderr, "heal: %v\n", err)
				}
				snaps := m.Snapshot(int64(sm.Now()))
				mu.Unlock()
				if err := reporter.Report(name, snaps); err != nil {
					fmt.Fprintf(os.Stderr, "report: %v\n", err)
				}
			case <-stop:
				return
			}
		}
	}()

	base := ctl.NMSHandler(m)
	attacker := 0 // next source node for attack traffic
	handler := func(method string, payload json.RawMessage) (any, error) {
		switch method {
		case "ping":
			return "pong", nil
		case "attack":
			var p attackParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("attack: %w", err)
			}
			mu.Lock()
			defer mu.Unlock()
			src, err := network.AttachHost(attacker % (nodesN - 1))
			if err != nil {
				return nil, err
			}
			attacker++
			src.StartCBR(sm.Now(), p.PPS, func(uint64) *packet.Packet {
				return &packet.Packet{Src: src.Addr, Dst: victim.Addr, Proto: packet.UDP,
					DstPort: 9, Size: 400, Kind: packet.KindAttack}
			})
			return "ok", nil
		case "stats":
			mu.Lock()
			defer mu.Unlock()
			var out nmsStats
			for _, kc := range network.Stats.Delivered {
				out.Delivered += uint64(kc.Packets)
			}
			for _, kc := range network.Stats.Sent {
				out.Sent += uint64(kc.Packets)
			}
			return &out, nil
		default:
			return base(method, payload)
		}
	}

	ln, err := listenFallback(envStr("DTC_LISTEN", "127.0.0.1:0"))
	if err != nil {
		return err
	}
	srv := ctl.NewServer(ln, handler)
	defer srv.Close()

	printReady("role=nms", "name="+name, "addr="+ln.Addr().String())
	waitStdinEOF()
	close(stop)
	wg.Wait()
	return nil
}

// runAttack is the attack master: it instructs every ISP world to start
// attack-class traffic toward its victim — the adversarial load the
// control plane must be serviced under.
func runAttack() error {
	addrs := strings.Split(envStr("DTC_NMS_ADDRS", ""), ",")
	pps := envFloat("DTC_ATTACK_PPS", 500)
	for _, addr := range addrs {
		if addr == "" {
			continue
		}
		cl, err := ctl.DialRetry(addr, 5, 50*time.Millisecond)
		if err != nil {
			return fmt.Errorf("attack: dial %s: %w", addr, err)
		}
		err = cl.Call("attack", &attackParams{PPS: pps}, nil)
		cl.Close()
		if err != nil {
			return fmt.Errorf("attack: %s: %w", addr, err)
		}
	}
	printReady("role=attack", fmt.Sprintf("targets=%d", len(addrs)))
	waitStdinEOF()
	return nil
}

// runUser hosts a fleet of user agents, each with its own control
// connection: dial and hold (readiness = every agent connected), then on
// the shared start signal run the scripted workload — register, install,
// parameter updates, a telemetry subscription — recording per-operation
// latency. The merged recorder is published as a DTC-STATS line; agents
// hold their connections until teardown.
func runUser() error {
	tcspAddr := envStr("DTC_TCSP_ADDR", "")
	users := envInt("DTC_USERS", 8)
	offset := envInt("DTC_USER_OFFSET", 0)
	updates := envInt("DTC_UPDATES", 2)
	isps := envInt("DTC_ISPS", 2)

	recs := make([]*Recorder, users)
	conns := make([]*ctl.Client, users)
	errs := make([]error, users)
	var dialWG, opsWG sync.WaitGroup
	opsStart := make(chan struct{})
	for a := 0; a < users; a++ {
		recs[a] = NewRecorder()
		dialWG.Add(1)
		opsWG.Add(1)
		go func(a int) {
			defer opsWG.Done()
			conn, err := ctl.DialRetry(tcspAddr, 10, 50*time.Millisecond)
			if err != nil {
				errs[a] = err
				dialWG.Done()
				return
			}
			conns[a] = conn
			dialWG.Done()
			<-opsStart
			errs[a] = runAgent(conn, offset+a, isps, updates, recs[a])
		}(a)
	}
	dialWG.Wait()
	connected := 0
	for a := range conns {
		if conns[a] != nil {
			connected++
		}
	}
	printReady("role=user", fmt.Sprintf("offset=%d", offset), fmt.Sprintf("users=%d", connected))
	close(opsStart)
	opsWG.Wait()

	merged := NewRecorder()
	failed := 0
	for a := 0; a < users; a++ {
		merged.Merge(recs[a])
		if errs[a] != nil {
			failed++
			fmt.Fprintf(os.Stderr, "agent %d: %v\n", offset+a, errs[a])
		}
	}
	result := merged.Result()
	result.Agents = users
	result.Failed = failed
	data, err := json.Marshal(result)
	if err != nil {
		return err
	}
	printStats("load=" + base64.StdEncoding.EncodeToString(data))

	waitStdinEOF()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}

// runAgent is one user's scripted control-plane session.
func runAgent(conn *ctl.Client, i, isps, updates int, rec *Recorder) error {
	owner := UserOwner(i)
	seed := sha256.Sum256([]byte(owner))
	id, err := auth.NewIdentity(owner, seed[:])
	if err != nil {
		return err
	}
	prefix := UserPrefix(i).String()
	ispName := fmt.Sprintf("isp%d", i%isps+1)

	// Register (Figure 4): prove prefix ownership, obtain a certificate.
	var cert auth.Certificate
	sig := id.Sign(tcsp.RegistrationBytes(id.Name, id.Pub, []string{prefix}))
	t0 := time.Now()
	err = conn.Call("register", &ctl.RegisterParams{
		User: owner, PublicKey: id.Pub, Prefixes: []string{prefix}, Signature: sig,
	}, &cert)
	rec.Record("register", time.Since(t0), err)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}

	nonce := uint64(0)
	sign := func(v any) (*auth.SignedRequest, error) {
		body, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		nonce++
		return auth.SignRequest(id, cert.Serial, nonce, body), nil
	}

	// Install (Figure 5): a rate limiter on the user's block, scoped to
	// one ISP.
	spec := service.RateLimit("rl-"+owner, service.MatchSpec{Proto: "udp"}, 500, 50)
	signed, err := sign(&nms.DeployRequest{
		Owner: owner, Prefixes: []string{prefix}, Spec: *spec, Scope: nms.Scope{},
	})
	if err != nil {
		return err
	}
	var deployRes []*nms.DeployResult
	t0 = time.Now()
	err = conn.Call("deploy", &ctl.DeployParams{Signed: signed, ISPs: []string{ispName}}, &deployRes)
	rec.Record("install", time.Since(t0), err)
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}

	// Parameter updates: live rate adjustments, no redeploy.
	for k := 0; k < updates; k++ {
		rate := float64(500 + 25*(k+1))
		signed, err := sign(&nms.ControlRequest{
			Owner: owner, Op: "update", Stage: "dest", Component: "limit",
			Update: &nms.ParamUpdate{Rate: &rate},
		})
		if err != nil {
			return err
		}
		var ctlRes []*nms.ControlResult
		t0 = time.Now()
		err = conn.Call("control", &ctl.ControlParams{Signed: signed, ISPs: []string{ispName}}, &ctlRes)
		rec.Record("update", time.Since(t0), err)
		if err != nil {
			return fmt.Errorf("update %d: %w", k, err)
		}
	}

	// Subscribe: one telemetry frame, measuring time-to-first-update.
	t0 = time.Now()
	st, err := conn.Subscribe("watch", &WatchParams{Count: 1})
	if err == nil {
		var u WatchUpdate
		err = st.Recv(&u)
		if err == nil {
			// Drain the clean end-of-stream so the connection returns to
			// the ready state.
			for {
				var tmp WatchUpdate
				if e := st.Recv(&tmp); e != nil {
					if e != io.EOF {
						err = e
					}
					break
				}
			}
		}
	}
	rec.Record("subscribe", time.Since(t0), err)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	return nil
}

// Package live assembles the full traffic-control service as a long-running
// server: a TCSP and per-ISP NMS servers on TCP, a simulated data plane
// advanced in step with wall time, the telemetry pipeline (device snapshots
// -> TCSP store), the closed-loop defense controller, and an HTTP
// observability endpoint (/metrics, /healthz, pprof). cmd/tcsd is a thin
// flag wrapper around this package; tests drive the identical server core
// in-process, under -race, on ephemeral ports.
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"dtc/internal/auth"
	"dtc/internal/ctl"
	"dtc/internal/defense"
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

// Config parameterizes a live server. Zero values take the defaults noted
// on each field.
type Config struct {
	// Addr is the TCSP listen address; NMS servers take the next ports in
	// sequence when it carries an explicit non-zero port, and ephemeral
	// ports otherwise. Default 127.0.0.1:7700.
	Addr string
	// HTTPAddr serves /metrics, /healthz and /debug/pprof. Empty disables
	// HTTP. Use "127.0.0.1:0" for an ephemeral port.
	HTTPAddr string
	// ISPs is the participating-ISP count, 4 line routers each (default 2).
	ISPs int
	// Seed seeds the simulated data plane (default 1).
	Seed uint64
	// TickInterval is the wall cadence at which simulated time catches up
	// with real time (default 50ms).
	TickInterval time.Duration
	// TelemetryPeriod is the device snapshot/report/defense-step cadence in
	// simulated time (default 500ms). It is a sim.Ticker: the identical
	// pipeline code runs in deterministic experiments.
	TelemetryPeriod sim.Time
	// Defense enables the closed-loop controller protecting the demo
	// user's block (default off; DefenseLimitPPS defaults to 100).
	Defense         bool
	DefenseLimitPPS float64
	// LegitPPS/AttackPPS configure the background traffic toward the demo
	// block (defaults 50 and 500; negative disables).
	LegitPPS  float64
	AttackPPS float64
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = "127.0.0.1:7700"
	}
	if out.ISPs < 1 {
		out.ISPs = 2
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.TickInterval <= 0 {
		out.TickInterval = 50 * time.Millisecond
	}
	if out.TelemetryPeriod <= 0 {
		out.TelemetryPeriod = 500 * sim.Millisecond
	}
	if out.DefenseLimitPPS <= 0 {
		out.DefenseLimitPPS = 100
	}
	if out.LegitPPS == 0 {
		out.LegitPPS = 50
	}
	if out.AttackPPS == 0 {
		out.AttackPPS = 500
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// WatchParams configures the "watch" stream method.
type WatchParams struct {
	// Count bounds the number of updates before the server ends the
	// stream; 0 streams until the client disconnects.
	Count int `json:"count,omitempty"`
	// AfterSeq resumes the stream after a hub sequence number already
	// consumed: retained updates with Seq > AfterSeq replay immediately.
	// 0 (a fresh subscriber) receives only new updates.
	AfterSeq uint64 `json:"after_seq,omitempty"`
}

// WatchUpdate is one telemetry-tick summary pushed to watch subscribers.
type WatchUpdate struct {
	Seq          uint64  `json:"seq"`
	AtNanos      int64   `json:"at_nanos"`
	OfferedPPS   float64 `json:"offered_pps"`
	DiscardedPPS float64 `json:"discarded_pps"`
	Devices      int     `json:"devices"`
	Mitigating   bool    `json:"mitigating"`
	Score        float64 `json:"score"`
}

// StreamSeq stamps the hub-global sequence number onto the stream
// envelope, so ctl.Subscriber can resume and dedupe across reconnects.
func (u WatchUpdate) StreamSeq() uint64 { return u.Seq }

// watchRing is how many recent updates the hub retains for replay to
// reconnecting subscribers.
const watchRing = 64

// hub fans telemetry updates out to watch subscribers, each behind its own
// bounded drop-oldest queue so one stalled watcher cannot block the tick.
// Every update carries a hub-global sequence number and the last watchRing
// updates are retained, so a subscriber that reconnects with AfterSeq set
// gets the gap replayed instead of silently missing ticks.
type hub struct {
	mu      sync.Mutex
	subs    map[int]*telemetry.Queue[WatchUpdate]
	nextID  int
	seq     uint64
	ring    []WatchUpdate // retained tail, oldest first
	retired uint64        // drops accumulated by unsubscribed queues
}

func newHub() *hub { return &hub{subs: make(map[int]*telemetry.Queue[WatchUpdate])} }

func (h *hub) subscribe(afterSeq uint64) (int, *telemetry.Queue[WatchUpdate]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	// Queue capacity covers a full ring replay plus a burst of fresh
	// ticks; replay happens under the hub lock, so no published update can
	// interleave with (or duplicate) the replayed tail.
	q := telemetry.NewQueue[WatchUpdate](watchRing + 16)
	if afterSeq > 0 {
		for _, u := range h.ring {
			if u.Seq > afterSeq {
				q.Push(u)
			}
		}
	}
	h.subs[h.nextID] = q
	return h.nextID, q
}

func (h *hub) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if q, ok := h.subs[id]; ok {
		h.retired += q.Dropped()
		delete(h.subs, id)
	}
}

func (h *hub) publish(u WatchUpdate) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	u.Seq = h.seq
	if len(h.ring) == watchRing {
		copy(h.ring, h.ring[1:])
		h.ring = h.ring[:watchRing-1]
	}
	h.ring = append(h.ring, u)
	for _, q := range h.subs {
		q.Push(u)
	}
}

// dropped totals drop-oldest evictions across all watch queues, live and
// retired — the counter the telemetry store exports as queue="watch".
func (h *hub) dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.retired
	for _, q := range h.subs {
		total += q.Dropped()
	}
	return total
}

// DemoOwner is the pre-allocated demo user every live server recognizes.
const DemoOwner = "demo"

// Server is a running live traffic-control service.
type Server struct {
	cfg     Config
	mu      sync.Mutex // serializes data plane and control plane
	sim     *sim.Simulation
	network *netsim.Network
	tc      *tcsp.TCSP
	ctrl    *defense.Controller
	hub     *hub

	victim *netsim.Host
	start  time.Time

	tcspSrv     *ctl.Server
	nmsSrvs     []*ctl.Server
	nmsAddrs    []string
	nmsHandlers []ctl.Handler
	nmsMgrs     []*nms.NMS
	httpSrv     *http.Server
	httpLn      net.Listener

	scrapes metrics.AtomicCounter
	reports metrics.AtomicCounter
	heals   metrics.AtomicCounter

	stop chan struct{}
	wg   sync.WaitGroup
}

// Start builds the world and brings every listener and goroutine up.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, hub: newHub(), stop: make(chan struct{})}
	if err := s.build(); err != nil {
		s.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.clockLoop()
	return s, nil
}

func (s *Server) build() error {
	nodesPerISP := 4
	n := s.cfg.ISPs * nodesPerISP
	sm := sim.New(s.cfg.Seed)
	network, err := netsim.New(sm, topology.Line(n), netsim.DefaultLink)
	if err != nil {
		return err
	}
	s.sim, s.network = sm, network

	authority := ownership.NewRegistry()
	victimPfx := netsim.NodePrefix(n - 1)
	if err := authority.Allocate(victimPfx, DemoOwner); err != nil {
		return err
	}

	caID, err := auth.NewIdentity("tcsp", nil)
	if err != nil {
		return err
	}
	s.start = time.Now()
	clock := func() int64 { return int64(time.Since(s.start) / time.Second) }
	tc := tcsp.New(caID, authority, clock)
	s.tc = tc

	// The defense controller protects the demo block whether or not it is
	// allowed to act: Disabled still observes, so /metrics and "defense"
	// report the detector's view either way.
	ctrl, err := defense.NewController(defense.Config{
		Owner:    DemoOwner,
		Prefixes: []packet.Prefix{victimPfx},
		Match:    service.MatchSpec{Proto: "udp"},
		LimitPPS: s.cfg.DefenseLimitPPS,
		Disabled: !s.cfg.Defense,
	}, tc.Telemetry())
	if err != nil {
		return err
	}
	s.ctrl = ctrl

	locked := func(h ctl.Handler) ctl.Handler {
		return func(method string, payload json.RawMessage) (any, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			return h(method, payload)
		}
	}

	host, port, explicitPorts, err := splitAddr(s.cfg.Addr)
	if err != nil {
		return err
	}

	type ispEntry struct {
		name string
		m    *nms.NMS
	}
	var isps []ispEntry
	for i := 0; i < s.cfg.ISPs; i++ {
		name := fmt.Sprintf("isp%d", i+1)
		var nodes []int
		for j := 0; j < nodesPerISP; j++ {
			nodes = append(nodes, i*nodesPerISP+j)
		}
		m, err := nms.New(name, network, nodes, tc.PublicKey(), clock)
		if err != nil {
			return err
		}
		nmsAddr := fmt.Sprintf("%s:0", host)
		if explicitPorts {
			nmsAddr = fmt.Sprintf("%s:%d", host, port+1+i)
		}
		ln, err := net.Listen("tcp", nmsAddr)
		if err != nil {
			return err
		}
		h := locked(ctl.NMSHandler(m))
		nmsSrv := ctl.NewServer(ln, h)
		s.nmsSrvs = append(s.nmsSrvs, nmsSrv)
		s.nmsAddrs = append(s.nmsAddrs, ln.Addr().String())
		s.nmsHandlers = append(s.nmsHandlers, h)
		s.nmsMgrs = append(s.nmsMgrs, m)
		if err := tc.AddISP(name, m); err != nil {
			return err
		}
		ctrl.AddISP(name, m)
		isps = append(isps, ispEntry{name: name, m: m})
		s.cfg.Logf("NMS %s listening on %s (nodes %v)", name, ln.Addr(), nodes)
	}
	if err := ctrl.Start(); err != nil {
		return err
	}
	// Watch-fanout evictions surface on /metrics as queue="watch".
	tc.Telemetry().RegisterQueueDrops("watch", s.hub.dropped)

	// Telemetry pipeline: a simulation ticker (identical mechanics to the
	// deterministic experiments — live, simulated time just happens to
	// track the wall). Each tick snapshots every ISP's devices, reports
	// into the TCSP store, steps the defense loop, and fans a summary out
	// to watch subscribers. The ticker fires inside sim.Run, so the data
	// plane is quiescent and s.mu is held by the advancing goroutine.
	sm.NewTicker(s.cfg.TelemetryPeriod, func(now sim.Time) {
		for _, e := range isps {
			// Self-healing precedes snapshotting: a device (or NMS) that
			// crashed since the last tick gets its journaled services
			// replayed before its counters are reported, so mitigation
			// resumes within one telemetry interval of the fault.
			if n, err := e.m.Heal(); err != nil {
				s.cfg.Logf("self-heal %s: %v", e.name, err)
			} else if n > 0 {
				s.heals.Add(uint64(n))
				s.cfg.Logf("self-heal %s: re-deployed %d service instances", e.name, n)
			}
			if err := tc.Report(e.name, e.m.Snapshot(int64(now))); err != nil {
				s.cfg.Logf("telemetry report %s: %v", e.name, err)
				continue
			}
			s.reports.Inc()
		}
		if err := ctrl.Step(now); err != nil {
			s.cfg.Logf("defense step: %v", err)
		}
		st := ctrl.Status()
		store := tc.Telemetry()
		offered, discarded := store.Rates(DemoOwner, 1)
		s.hub.publish(WatchUpdate{
			AtNanos: int64(now), OfferedPPS: offered, DiscardedPPS: discarded,
			Devices: len(store.Devices()), Mitigating: st.Mitigating, Score: st.Score,
		})
	})

	// Background traffic toward a host in the demo block.
	victim, err := network.AttachHost(n - 1)
	if err != nil {
		return err
	}
	s.victim = victim
	if s.cfg.LegitPPS > 0 {
		legit, err := network.AttachHost(0)
		if err != nil {
			return err
		}
		legit.StartCBR(0, s.cfg.LegitPPS, func(uint64) *packet.Packet {
			return &packet.Packet{Src: legit.Addr, Dst: victim.Addr, Proto: packet.TCP, DstPort: 80, Size: 200, Kind: packet.KindLegit}
		})
	}
	if s.cfg.AttackPPS > 0 {
		agent, err := network.AttachHost(1)
		if err != nil {
			return err
		}
		agent.StartCBR(0, s.cfg.AttackPPS, func(uint64) *packet.Packet {
			return &packet.Packet{Src: agent.Addr, Dst: victim.Addr, Proto: packet.UDP, DstPort: 9, Size: 400, Kind: packet.KindAttack}
		})
	}

	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.tcspSrv = ctl.NewServer(ln, s.handler(locked(ctl.TCSPHandler(tc))))
	s.cfg.Logf("TCSP listening on %s", ln.Addr())
	s.cfg.Logf("demo user owns %v", victimPfx)

	if s.cfg.HTTPAddr != "" {
		if err := s.startHTTP(); err != nil {
			return err
		}
	}
	return nil
}

// splitAddr parses host:port, reporting whether the port is explicit and
// non-zero (then NMS/HTTP siblings use consecutive ports).
func splitAddr(addr string) (host string, port int, explicit bool, err error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", 0, false, err
	}
	if _, err := fmt.Sscanf(portStr, "%d", &port); err != nil {
		return "", 0, false, fmt.Errorf("live: bad port %q: %w", portStr, err)
	}
	return host, port, port != 0, nil
}

// handler augments the TCSP wire API with the live server's own methods:
// "watch" (stream) and "defense" (controller status). Both bypass the sim
// lock — they read concurrent-safe structures — so a slow subscriber never
// stalls the data plane.
func (s *Server) handler(base ctl.Handler) ctl.Handler {
	return func(method string, payload json.RawMessage) (any, error) {
		switch method {
		case "watch":
			var p WatchParams
			if len(payload) > 0 {
				if err := json.Unmarshal(payload, &p); err != nil {
					return nil, fmt.Errorf("watch: %w", err)
				}
			}
			return s.watchStream(p), nil
		case "defense":
			return s.ctrl.Status(), nil
		default:
			return base(method, payload)
		}
	}
}

// watchStream subscribes a connection to the telemetry hub.
func (s *Server) watchStream(p WatchParams) ctl.StreamFunc {
	return func(push func(v any) error) error {
		id, q := s.hub.subscribe(p.AfterSeq)
		defer s.hub.unsubscribe(id)
		sent := 0
		for p.Count <= 0 || sent < p.Count {
			u, ok := q.Pop()
			if !ok {
				select {
				case <-q.Wait():
					continue
				case <-s.stop:
					return nil
				}
			}
			if err := push(u); err != nil {
				return err // subscriber gone; ends the stream
			}
			sent++
		}
		return nil
	}
}

// clockLoop advances simulated time in step with wall time.
func (s *Server) clockLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.TickInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.mu.Lock()
			if _, err := s.sim.Run(sim.Time(time.Since(s.start))); err != nil {
				s.cfg.Logf("simulation error: %v", err)
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}

// TCSPAddr returns the TCSP control endpoint.
func (s *Server) TCSPAddr() string { return s.tcspSrv.Addr().String() }

// NMSAddrs returns the per-ISP NMS control endpoints.
func (s *Server) NMSAddrs() []string { return append([]string(nil), s.nmsAddrs...) }

// HTTPAddr returns the observability endpoint ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// VictimPrefix returns the demo user's address block.
func (s *Server) VictimPrefix() packet.Prefix {
	return netsim.NodePrefix(s.cfg.ISPs*4 - 1)
}

// Telemetry exposes the TCSP-side snapshot store.
func (s *Server) Telemetry() *telemetry.Store { return s.tc.Telemetry() }

// Defense exposes the controller status.
func (s *Server) Defense() defense.Status { return s.ctrl.Status() }

// Heals returns the total service instances the self-healing loop has
// re-deployed after device or NMS crashes.
func (s *Server) Heals() uint64 { return s.heals.Value() }

// CrashDevice simulates a crash-and-cold-restart of one device in ISP i:
// its service table, owner bindings and counters vanish. The telemetry
// tick's Heal replays the install journal within one interval.
func (s *Server) CrashDevice(i, node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.nmsMgrs) {
		return fmt.Errorf("live: no ISP %d", i)
	}
	return s.nmsMgrs[i].CrashDevice(node)
}

// CrashNMS simulates an NMS process restart for ISP i: all in-memory
// deployment state is lost; only the durable install journal survives. The
// next telemetry tick re-deploys every journaled service.
func (s *Server) CrashNMS(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.nmsMgrs) {
		return fmt.Errorf("live: no ISP %d", i)
	}
	s.nmsMgrs[i].Crash()
	return nil
}

// RestartNMS bounces ISP i's control listener: every open control
// connection (including watch-style streams) is severed, then a fresh
// server comes up on the same address with the same handler. Clients using
// ctl.Subscriber resubscribe and resume; the NMS state itself is untouched
// — pair with CrashNMS to model a full process restart.
func (s *Server) RestartNMS(i int) error {
	s.mu.Lock()
	if i < 0 || i >= len(s.nmsSrvs) {
		s.mu.Unlock()
		return fmt.Errorf("live: no ISP %d", i)
	}
	srv, addr, h := s.nmsSrvs[i], s.nmsAddrs[i], s.nmsHandlers[i]
	s.mu.Unlock()
	// Shutdown waits for in-flight handlers, which take s.mu — so the lock
	// must be released here.
	if err := srv.Shutdown(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	restarted := ctl.NewServer(ln, h)
	s.mu.Lock()
	s.nmsSrvs[i] = restarted
	s.mu.Unlock()
	s.cfg.Logf("NMS isp%d control listener restarted on %s", i+1, addr)
	return nil
}

// VictimDelivered returns the victim host's delivered packet counts.
func (s *Server) VictimDelivered() (legit, attack uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.victim.Delivered[packet.KindLegit], s.victim.Delivered[packet.KindAttack]
}

// Close stops every goroutine and listener.
func (s *Server) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	if s.tcspSrv != nil {
		s.tcspSrv.Close()
	}
	for _, srv := range s.nmsSrvs {
		srv.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.wg.Wait()
}

// startHTTP brings up /metrics, /healthz and pprof on a dedicated mux (the
// default mux would leak pprof onto any other server in the process).
func (s *Server) startHTTP() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return err
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.httpSrv = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.httpSrv.Serve(ln) // ends on Close
	}()
	s.cfg.Logf("HTTP observability on http://%s/metrics", ln.Addr())
	return nil
}

// serveMetrics renders the telemetry store plus server-level gauges in
// Prometheus text format. Only concurrent-safe stores are touched — a
// scrape never takes the simulation lock.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.tc.Telemetry().WriteProm(w); err != nil {
		return
	}
	st := s.ctrl.Status()
	mitigating := 0
	if st.Mitigating {
		mitigating = 1
	}
	fmt.Fprintf(w, "# HELP dtc_defense_mitigating Whether the defense controller has mitigation deployed.\n# TYPE dtc_defense_mitigating gauge\ndtc_defense_mitigating %d\n", mitigating)
	fmt.Fprintf(w, "# HELP dtc_defense_score Detector CUSUM score (excess packets).\n# TYPE dtc_defense_score gauge\ndtc_defense_score %g\n", st.Score)
	fmt.Fprintf(w, "# HELP dtc_defense_baseline_pps Learned calm-traffic rate.\n# TYPE dtc_defense_baseline_pps gauge\ndtc_defense_baseline_pps %g\n", st.BaselinePPS)
	fmt.Fprintf(w, "# HELP dtc_telemetry_reports_total ISP snapshot reports ingested.\n# TYPE dtc_telemetry_reports_total counter\ndtc_telemetry_reports_total %d\n", s.reports.Value())
	fmt.Fprintf(w, "# HELP dtc_selfheal_reinstalls_total Service instances re-deployed by the self-healing loop.\n# TYPE dtc_selfheal_reinstalls_total counter\ndtc_selfheal_reinstalls_total %d\n", s.heals.Value())
	fmt.Fprintf(w, "# HELP dtc_metrics_scrapes_total Scrapes of this endpoint.\n# TYPE dtc_metrics_scrapes_total counter\ndtc_metrics_scrapes_total %d\n", s.scrapes.Value())
	rt := s.network.Table.Stats()
	fmt.Fprintf(w, "# HELP dtc_routing_tree_builds_total Shortest-path trees built (routing cache misses).\n# TYPE dtc_routing_tree_builds_total counter\ndtc_routing_tree_builds_total %d\n", rt.Builds)
	fmt.Fprintf(w, "# HELP dtc_routing_tree_repairs_total Trees incrementally repaired after link failures.\n# TYPE dtc_routing_tree_repairs_total counter\ndtc_routing_tree_repairs_total %d\n", rt.Repairs)
	fmt.Fprintf(w, "# HELP dtc_routing_tree_hits_total Routing lookups served from cached trees.\n# TYPE dtc_routing_tree_hits_total counter\ndtc_routing_tree_hits_total %d\n", rt.Hits)
}

// serveHealthz reports liveness and basic progress indicators.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	now := s.sim.Now()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":     "ok",
		"sim_nanos":  int64(now),
		"isps":       s.cfg.ISPs,
		"reports":    s.reports.Value(),
		"mitigating": s.ctrl.Mitigating(),
	})
}

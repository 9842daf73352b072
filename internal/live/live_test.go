package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtc/internal/auth"
	"dtc/internal/ctl"
	"dtc/internal/nms"
	"dtc/internal/service"
	"dtc/internal/sim"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.HTTPAddr = "127.0.0.1:0"
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 5 * time.Millisecond
	}
	if cfg.TelemetryPeriod == 0 {
		cfg.TelemetryPeriod = 50 * sim.Millisecond
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitForReports blocks until at least n telemetry reports were ingested.
func waitForReports(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.reports.Value() >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("telemetry reports stuck at %d, want >= %d", s.reports.Value(), n)
}

// registerDemo registers the demo user over the wire and returns identity,
// certificate and prefix string.
func registerDemo(t *testing.T, s *Server) (*auth.Identity, *auth.Certificate, string) {
	t.Helper()
	cl, err := ctl.Dial(s.TCSPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kseed := make([]byte, 32)
	for i := range kseed {
		kseed[i] = 7
	}
	id, err := auth.NewIdentity(DemoOwner, kseed)
	if err != nil {
		t.Fatal(err)
	}
	pfx := s.VictimPrefix().String()
	cert, err := ctl.NewTCSPClient(cl).Register(id, []string{pfx})
	if err != nil {
		t.Fatal(err)
	}
	return id, cert, pfx
}

// TestLiveServerConcurrentClients is the race-detector exercise: the full
// server core (TCP control plane, wall-clock data plane, telemetry ticks,
// defense loop, HTTP scrapes, watch streams) under concurrent clients.
func TestLiveServerConcurrentClients(t *testing.T) {
	s := startServer(t, Config{ISPs: 2, Defense: true, LegitPPS: 40, AttackPPS: 400, DefenseLimitPPS: 50})
	id, cert, pfx := registerDemo(t, s)
	waitForReports(t, s, 2)

	var nonce atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stopAt := time.Now().Add(1500 * time.Millisecond)

	// tcctl-style workers: deploy / counters / events over the TCSP.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := ctl.Dial(s.TCSPAddr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			cl.SetTimeout(5 * time.Second)
			tc := ctl.NewTCSPClient(cl)
			for time.Now().Before(stopAt) {
				body, _ := json.Marshal(&nms.DeployRequest{
					Owner: DemoOwner, Prefixes: []string{pfx},
					Spec: *service.RateLimit(fmt.Sprintf("user-limit-%d", w), service.MatchSpec{Proto: "udp"}, 200, 20),
				})
				if _, err := tc.Deploy(auth.SignRequest(id, cert.Serial, nonce.Add(1), body), nil); err != nil {
					errs <- fmt.Errorf("deploy: %w", err)
					return
				}
				body, _ = json.Marshal(&nms.ControlRequest{Owner: DemoOwner, Op: "counters", Stage: "dest"})
				if _, err := tc.Control(auth.SignRequest(id, cert.Serial, nonce.Add(1), body), nil); err != nil {
					errs <- fmt.Errorf("counters: %w", err)
					return
				}
				body, _ = json.Marshal(&nms.ControlRequest{Owner: DemoOwner, Op: "events"})
				if _, err := tc.Control(auth.SignRequest(id, cert.Serial, nonce.Add(1), body), nil); err != nil {
					errs <- fmt.Errorf("events: %w", err)
					return
				}
			}
		}(w)
	}

	// A watch subscriber consuming the telemetry stream.
	wg.Add(1)
	var updates atomic.Int64
	go func() {
		defer wg.Done()
		cl, err := ctl.Dial(s.TCSPAddr())
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		st, err := cl.Subscribe("watch", &WatchParams{Count: 8})
		if err != nil {
			errs <- err
			return
		}
		for {
			var u WatchUpdate
			err := st.Recv(&u)
			if err == io.EOF {
				return
			}
			if err != nil {
				errs <- fmt.Errorf("watch recv: %w", err)
				return
			}
			if u.Devices == 0 {
				errs <- fmt.Errorf("watch update without devices: %+v", u)
				return
			}
			updates.Add(1)
		}
	}()

	// HTTP scrapers hammering /metrics and /healthz.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stopAt) {
			for _, path := range []string{"/metrics", "/healthz"} {
				resp, err := http.Get("http://" + s.HTTPAddr() + path)
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	// Defense status over the control socket.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := ctl.Dial(s.TCSPAddr())
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		for time.Now().Before(stopAt) {
			var st map[string]any
			if err := cl.Call("defense", nil, &st); err != nil {
				errs <- fmt.Errorf("defense: %w", err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if updates.Load() != 8 {
		t.Errorf("watch updates = %d, want 8", updates.Load())
	}
	if legit, _ := s.VictimDelivered(); legit == 0 {
		t.Error("no legitimate traffic delivered")
	}
}

// promLine matches one Prometheus text sample: name{labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+]+)$`)

func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, Config{ISPs: 2, LegitPPS: -1, AttackPPS: -1})
	waitForReports(t, s, 4)

	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Device counters for every node of both ISPs (8 line nodes).
	for node := 0; node < 8; node++ {
		isp := "isp1"
		if node >= 4 {
			isp = "isp2"
		}
		key := fmt.Sprintf(`dtc_device_seen_packets_total{isp="%s",node="%d"}`, isp, node)
		if _, ok := samples[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}
	// The controller's monitor service accounts the demo owner everywhere.
	key := `dtc_service_processed_packets_total{isp="isp1",node="0",owner="demo",stage="dest"}`
	if _, ok := samples[key]; !ok {
		t.Errorf("missing %s (have %d samples)", key, len(samples))
	}
	for _, gauge := range []string{"dtc_defense_mitigating", "dtc_telemetry_reports_total", "dtc_metrics_scrapes_total",
		"dtc_routing_tree_builds_total", "dtc_routing_tree_hits_total", "dtc_routing_invalidations_total"} {
		if _, ok := samples[gauge]; !ok {
			t.Errorf("missing %s", gauge)
		}
	}

	// /healthz is liveness-parseable.
	hresp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		SimNanos int64  `json:"sim_nanos"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.SimNanos <= 0 {
		t.Errorf("healthz = %+v", health)
	}
}

// Command tcsd runs a live traffic-control service: a TCSP server and one
// NMS server per ISP on TCP, managing adaptive devices on a simulated
// Internet whose data plane advances in real time, with a telemetry
// pipeline, an optional closed-loop defense controller, and an HTTP
// observability endpoint (/metrics, /healthz, /debug/pprof). Use cmd/tcctl
// to register, deploy services, read counters and watch live telemetry
// while background traffic (a legitimate client plus a UDP flood) crosses
// the network.
//
//	tcsd -addr 127.0.0.1:7700 -isps 2 -http 127.0.0.1:7790 -defense
//
// The heavy lifting lives in internal/live so the identical server core
// runs under the race detector in tests.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dtc/internal/live"
	"dtc/internal/sim"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "TCSP listen address (NMS servers use the following ports)")
		httpAddr  = flag.String("http", "127.0.0.1:7790", "HTTP observability address (/metrics, /healthz, pprof); empty disables")
		nISPs     = flag.Int("isps", 2, "number of ISPs")
		seedV     = flag.Uint64("seed", 1, "simulation seed")
		telemetry = flag.Duration("telemetry", 500*time.Millisecond, "device snapshot/report period")
		defense   = flag.Bool("defense", false, "enable the closed-loop defense controller for the demo block")
		limit     = flag.Float64("defense-limit", 100, "mitigation rate limit (packets/s per device)")
		legit     = flag.Float64("legit", 50, "legitimate background traffic (pps, negative disables)")
		attack    = flag.Float64("attack", 500, "attack background traffic (pps, negative disables)")
	)
	flag.Parse()

	srv, err := live.Start(live.Config{
		Addr:            *addr,
		HTTPAddr:        *httpAddr,
		ISPs:            *nISPs,
		Seed:            *seedV,
		TelemetryPeriod: sim.Time(*telemetry),
		Defense:         *defense,
		DefenseLimitPPS: *limit,
		LegitPPS:        *legit,
		AttackPPS:       *attack,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	report := time.NewTicker(5 * time.Second)
	defer report.Stop()
	for {
		select {
		case <-report.C:
			legit, attack := srv.VictimDelivered()
			st := srv.Defense()
			log.Printf("victim: legit=%d attack=%d delivered; defense: mitigating=%v baseline=%.0fpps score=%.0f",
				legit, attack, st.Mitigating, st.BaselinePPS, st.Score)
		case <-stop:
			log.Printf("shutting down")
			return
		}
	}
}

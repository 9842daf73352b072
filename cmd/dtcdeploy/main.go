// Command dtcdeploy brings up a real multi-process deployment of the
// traffic-control service on localhost: a TCSP process, N ISP NMS
// processes (each with its own simulated data plane), an attack master,
// and fleets of user agents — every one a separate OS process speaking the
// ctl protocol over loopback TCP. The same binary plays every role: the
// orchestrator re-executes itself with DTC_DEPLOY_ROLE set, collects
// per-role logs, waits for readiness probes, drives the scripted
// control-plane workload, prints the merged latency/throughput report, and
// tears everything down (verifying no process survives).
//
//	dtcdeploy -isps 4 -users 1000 -procs 4 -updates 3 -attack
//
// Add -hold to keep the deployment running after the workload finishes
// (until interrupted) for interactive poking with cmd/tcctl against the
// printed TCSP address.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dtc/internal/deploy"
)

func main() {
	if deploy.IsChild() {
		if err := deploy.RunChild(); err != nil {
			fmt.Fprintf(os.Stderr, "dtcdeploy role: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var (
		isps     = flag.Int("isps", 4, "ISP NMS processes")
		nodes    = flag.Int("nodes", 4, "simulated routers per ISP")
		users    = flag.Int("users", 1000, "total user agents (connections)")
		procs    = flag.Int("procs", 4, "user-agent processes to spread agents across")
		updates  = flag.Int("updates", 3, "parameter updates per agent")
		attack   = flag.Bool("attack", true, "launch the attack master")
		pps      = flag.Float64("pps", 500, "attack rate per ISP world")
		basePort = flag.Int("base-port", 0, "deterministic base port (0 = ephemeral)")
		logDir   = flag.String("log-dir", "", "per-role log directory (default: temp dir)")
		hold     = flag.Bool("hold", false, "keep the deployment up after the workload, until interrupted")
		timeout  = flag.Duration("timeout", 5*time.Minute, "workload completion bound")
	)
	flag.Parse()

	userProcs := *procs
	if userProcs < 1 {
		userProcs = 1
	}
	perProc := (*users + userProcs - 1) / userProcs

	d, err := deploy.Launch(deploy.Spec{
		ISPs:         *isps,
		NodesPerISP:  *nodes,
		UserProcs:    userProcs,
		UsersPerProc: perProc,
		Updates:      *updates,
		Attack:       *attack,
		AttackPPS:    *pps,
		BasePort:     *basePort,
		LogDir:       *logDir,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Teardown()
	log.Printf("deployment up: tcsp=%s logs=%s", d.TCSP.Addr, d.LogDir)

	res, err := d.WaitUserStats(*timeout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	if *hold {
		log.Printf("holding deployment (tcsp=%s); interrupt to tear down", d.TCSP.Addr)
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
	}
	if err := d.Teardown(); err != nil {
		log.Fatal(err)
	}
	log.Printf("teardown clean: no orphan processes")
}

// Command ddosim runs the paper-reproduction experiments and prints their
// tables (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// recorded results).
//
// Usage:
//
//	ddosim -list                 # show all experiment IDs
//	ddosim -exp e2               # run one experiment at full size
//	ddosim -all                  # run everything
//	ddosim -all -quick -seed 7   # fast versions, custom seed
//	ddosim -exp e10 -workers 8   # parallel sweep points, same bytes out
//	ddosim -exp e1 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dtc/internal/experiment"
)

func main() {
	// All work happens in run so deferred profile writers fire before the
	// process exits; os.Exit in main would skip them.
	os.Exit(run())
}

func run() int {
	var (
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		exp        = flag.String("exp", "", "experiment ID to run (e.g. f1, e2)")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "shrink workloads (CI-sized runs)")
		seed       = flag.Uint64("seed", 42, "random seed")
		parallel   = flag.Int("parallel", 1, "concurrent experiments for -all (wall-clock-measuring experiments prefer 1)")
		workers    = flag.Int("workers", 0, "concurrent sweep points within an experiment; 0 = GOMAXPROCS. Tables are byte-identical at any value")
		timeout    = flag.Duration("timeout", 0, "per-experiment deadline (e.g. 2m); 0 = none")
		faultseed  = flag.Uint64("faultseed", 7, "seed for fault schedules in fault-injection experiments (e14); independent of -seed")
		faultrate  = flag.Float64("faultrate", 0, "override e14's fault-rate ladder with {0, rate} expected faults per class per simulated second; 0 = default ladder")
		hybrid     = flag.Bool("hybrid", true, "run hybrid-substrate experiments (e15) with fluid background + packet cone; -hybrid=false forces the all-packet reference (quick sizes only)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiment.List() {
			fmt.Printf("%-4s %s\n", id, experiment.Describe(id))
		}
		return 0
	}
	opts := experiment.Options{Quick: *quick, Seed: *seed, Workers: *workers, Timeout: *timeout, FaultSeed: *faultseed, FaultRate: *faultrate, PacketOnly: !*hybrid}
	var ids []string
	switch {
	case *all:
		ids = experiment.List()
	case *exp != "":
		ids = []string{*exp}
	default:
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddosim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ddosim:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddosim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ddosim:", err)
			}
		}()
	}

	start := time.Now()
	tables, errs := experiment.RunMany(ids, opts, *parallel)
	failed := false
	for i, id := range ids {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "ddosim: %s: %v\n", id, errs[i])
			failed = true
			continue
		}
		fmt.Printf("== %s: %s\n", id, experiment.Describe(id))
		if *csv {
			fmt.Println(tables[i].CSV())
		} else {
			fmt.Println(tables[i])
		}
	}
	// Timing goes to stderr: stdout carries only the tables, so runs are
	// byte-comparable (e.g. -workers 1 vs -workers 8).
	fmt.Fprintf(os.Stderr, "(%d experiments in %v)\n", len(ids), time.Since(start).Round(time.Millisecond))
	if failed {
		return 1
	}
	return 0
}

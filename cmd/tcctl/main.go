// Command tcctl is the network user's CLI for a live traffic control
// service (see cmd/tcsd). It keeps the user's identity and certificate in
// a key file and drives the Figure-4/5 workflows over TCP:
//
//	tcctl -addr 127.0.0.1:7700 register -user demo -prefix 0.7.0.0/16 -keyfile demo.key
//	tcctl -addr 127.0.0.1:7700 deploy   -keyfile demo.key -preset rate-limit -rate 100
//	tcctl -addr 127.0.0.1:7700 update   -keyfile demo.key -component limit -rate 500
//	tcctl -addr 127.0.0.1:7700 counters -keyfile demo.key
//	tcctl -addr 127.0.0.1:7700 events   -keyfile demo.key
//	tcctl -addr 127.0.0.1:7700 watch    -n 10
//	tcctl -addr 127.0.0.1:7700 defense
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"dtc/internal/auth"
	"dtc/internal/ctl"
	"dtc/internal/defense"
	"dtc/internal/live"
	"dtc/internal/nms"
	"dtc/internal/service"
)

// keyFile persists a user's credentials between invocations.
type keyFile struct {
	User     string            `json:"user"`
	Seed     []byte            `json:"seed"` // ed25519 seed
	Prefixes []string          `json:"prefixes"`
	Cert     *auth.Certificate `json:"cert"`
	Nonce    uint64            `json:"nonce"`
}

func loadKey(path string) (*keyFile, *auth.Identity, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return nil, nil, fmt.Errorf("bad key file: %w", err)
	}
	id, err := auth.NewIdentity(kf.User, kf.Seed)
	if err != nil {
		return nil, nil, err
	}
	return &kf, id, nil
}

func (kf *keyFile) save(path string) error {
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}

// sign signs body under the next nonce and persists that nonce before the
// request is sent: the TCSP rejects a reused nonce even when the request
// that used it failed, so a nonce is spent once signed.
func (kf *keyFile) sign(path string, id *auth.Identity, body []byte) *auth.SignedRequest {
	kf.Nonce++
	if err := kf.save(path); err != nil {
		log.Fatal(err)
	}
	return auth.SignRequest(id, kf.Cert.Serial, kf.Nonce, body)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "TCSP address")
	retries := flag.Int("retries", 3, "dial attempts before giving up (exponential backoff)")
	backoff := flag.Duration("backoff", 200*time.Millisecond, "initial dial retry backoff")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (0 disables; watch streams are exempt)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tcctl [-addr host:port] register|deploy|update|counters|events|activate|deactivate|watch|defense [options]")
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	client, err := ctl.DialRetry(*addr, *retries, *backoff)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.SetTimeout(*timeout)
	tc := ctl.NewTCSPClient(client)

	switch cmd {
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		count := fs.Int("n", 0, "stop after this many updates (0 = until interrupted)")
		if err := fs.Parse(args); err != nil {
			log.Fatal(err)
		}
		st, err := client.Subscribe("watch", &live.WatchParams{Count: *count})
		if err != nil {
			log.Fatal(err)
		}
		for {
			var u live.WatchUpdate
			err := st.Recv(&u)
			if err == io.EOF {
				return
			}
			if err != nil {
				log.Fatal(err)
			}
			state := "monitoring"
			if u.Mitigating {
				state = "MITIGATING"
			}
			fmt.Printf("t=%8.2fs offered=%8.1fpps discarded=%8.1fpps devices=%d score=%6.1f %s\n",
				float64(u.AtNanos)/1e9, u.OfferedPPS, u.DiscardedPPS, u.Devices, u.Score, state)
		}

	case "defense":
		var st defense.Status
		if err := client.Call("defense", nil, &st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("owner=%s mitigating=%v disabled=%v baseline=%.1fpps score=%.1f last=%.1fpps\n",
			st.Owner, st.Mitigating, st.Disabled, st.BaselinePPS, st.Score, st.LastPPS)
		for _, tr := range st.Transitions {
			verb := "retracted"
			if tr.Mitigating {
				verb = "deployed"
			}
			fmt.Printf("  t=%8.2fs mitigation %s (%.1f pps)\n", float64(tr.At)/1e9, verb, tr.PPS)
		}
		return
	}

	switch cmd {
	case "register":
		fs := flag.NewFlagSet("register", flag.ExitOnError)
		user := fs.String("user", "", "user name (must match number-authority records)")
		prefix := fs.String("prefix", "", "owned prefix (CIDR)")
		keyPath := fs.String("keyfile", "", "where to store the key + certificate")
		if err := fs.Parse(args); err != nil {
			log.Fatal(err)
		}
		if *user == "" || *prefix == "" || *keyPath == "" {
			log.Fatal("register needs -user, -prefix and -keyfile")
		}
		seed := make([]byte, ed25519.SeedSize)
		if _, err := randRead(seed); err != nil {
			log.Fatal(err)
		}
		id, err := auth.NewIdentity(*user, seed)
		if err != nil {
			log.Fatal(err)
		}
		cert, err := tc.Register(id, []string{*prefix})
		if err != nil {
			log.Fatalf("registration failed: %v", err)
		}
		kf := &keyFile{User: *user, Seed: seed, Prefixes: []string{*prefix}, Cert: cert}
		if err := kf.save(*keyPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %q for %s (certificate serial %d) -> %s\n", *user, *prefix, cert.Serial, *keyPath)

	case "deploy":
		fs := flag.NewFlagSet("deploy", flag.ExitOnError)
		keyPath := fs.String("keyfile", "", "key file from `tcctl register`")
		preset := fs.String("preset", "firewall-udp", "service preset: firewall-udp|anti-spoofing|rate-limit|misuse-shield|traceback")
		rate := fs.Float64("rate", 100, "rate limit (packets/s) for the rate-limit preset")
		if err := fs.Parse(args); err != nil {
			log.Fatal(err)
		}
		kf, id, err := loadKey(*keyPath)
		if err != nil {
			log.Fatal(err)
		}
		var spec *service.Spec
		switch *preset {
		case "firewall-udp":
			spec = service.FirewallDrop("firewall-udp", service.MatchSpec{Proto: "udp"})
		case "anti-spoofing":
			spec = service.AntiSpoofing("anti-spoofing")
		case "rate-limit":
			spec = service.RateLimit("rate-limit", service.MatchSpec{}, *rate, *rate/10)
		case "misuse-shield":
			spec = service.ProtocolMisuseShield("misuse-shield")
		case "traceback":
			spec = service.Traceback("traceback", 100, 64, 42)
		default:
			log.Fatalf("unknown preset %q", *preset)
		}
		body, err := json.Marshal(&nms.DeployRequest{Owner: kf.User, Prefixes: kf.Prefixes, Spec: *spec})
		if err != nil {
			log.Fatal(err)
		}
		signed := kf.sign(*keyPath, id, body)
		results, err := tc.Deploy(signed, nil)
		if err != nil {
			log.Fatalf("deployment failed: %v", err)
		}
		for _, r := range results {
			fmt.Printf("deployed %q on %s nodes %v\n", spec.Name, r.ISP, r.Nodes)
		}

	case "update":
		fs := flag.NewFlagSet("update", flag.ExitOnError)
		keyPath := fs.String("keyfile", "", "key file from `tcctl register`")
		stage := fs.String("stage", "dest", "service stage: source|dest")
		component := fs.String("component", "", "component label to update")
		rate := fs.Float64("rate", 0, "new rate (rate limiter)")
		burst := fs.Float64("burst", 0, "new burst (rate limiter)")
		threshold := fs.Uint64("threshold", 0, "new threshold (trigger)")
		addAddr := fs.String("block", "", "address to add to a blacklist")
		delAddr := fs.String("unblock", "", "address to remove from a blacklist")
		if err := fs.Parse(args); err != nil {
			log.Fatal(err)
		}
		if *component == "" {
			log.Fatal("update needs -component")
		}
		kf, id, err := loadKey(*keyPath)
		if err != nil {
			log.Fatal(err)
		}
		upd := &nms.ParamUpdate{}
		if *rate > 0 {
			upd.Rate = rate
		}
		if *burst > 0 {
			upd.Burst = burst
		}
		if *threshold > 0 {
			upd.Threshold = threshold
		}
		if *addAddr != "" {
			upd.AddAddrs = []string{*addAddr}
		}
		if *delAddr != "" {
			upd.DelAddrs = []string{*delAddr}
		}
		body, err := json.Marshal(&nms.ControlRequest{
			Owner: kf.User, Op: "update", Stage: *stage, Component: *component, Update: upd,
		})
		if err != nil {
			log.Fatal(err)
		}
		signed := kf.sign(*keyPath, id, body)
		results, err := tc.Control(signed, nil)
		if err != nil {
			log.Fatalf("update failed: %v", err)
		}
		for _, r := range results {
			fmt.Printf("%s: parameters updated\n", r.ISP)
		}

	case "counters", "events", "activate", "deactivate":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		keyPath := fs.String("keyfile", "", "key file from `tcctl register`")
		stage := fs.String("stage", "dest", "service stage: source|dest")
		if err := fs.Parse(args); err != nil {
			log.Fatal(err)
		}
		kf, id, err := loadKey(*keyPath)
		if err != nil {
			log.Fatal(err)
		}
		op := cmd
		body, err := json.Marshal(&nms.ControlRequest{Owner: kf.User, Op: op, Stage: *stage})
		if err != nil {
			log.Fatal(err)
		}
		signed := kf.sign(*keyPath, id, body)
		results, err := tc.Control(signed, nil)
		if err != nil {
			log.Fatalf("%s failed: %v", cmd, err)
		}
		for _, r := range results {
			switch op {
			case "counters":
				for _, c := range r.Counters {
					fmt.Printf("%s node %d: processed=%d discarded=%d\n", r.ISP, c.Node, c.Processed, c.Discarded)
				}
			case "events":
				for _, e := range r.Events {
					fmt.Printf("%s node %d [%s]: %s\n", r.ISP, e.Node, e.Component, e.Message)
				}
			default:
				fmt.Printf("%s: ok\n", r.ISP)
			}
		}

	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// randRead fills b with cryptographic randomness.
func randRead(b []byte) (int, error) { return rand.Read(b) }

// Package nms implements an ISP's network management system (paper Figure
// 3/5): it operates the adaptive devices attached to the ISP's routers,
// accepts deployment and control requests — from the TCSP or directly from
// certified network users — verifies the TCSP certificate chain, compiles
// declarative service specs into device graphs, and configures router
// redirection. It can also relay configurations to peer ISPs' management
// systems, the paper's fallback path for when the TCSP itself is
// unreachable during an attack.
package nms

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"dtc/internal/auth"
	"dtc/internal/device"
	"dtc/internal/device/modules"
	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/telemetry"
	"dtc/internal/topology"
)

// Scope selects which of an ISP's routers a deployment lands on.
type Scope struct {
	// Nodes restricts deployment to these router nodes (must belong to the
	// ISP). Empty means every router the ISP operates.
	Nodes []int `json:"nodes,omitempty"`
	// StubOnly restricts deployment to border routers of stub networks —
	// the paper's example scoping criterion.
	StubOnly bool `json:"stub_only,omitempty"`
}

// DeployRequest asks an NMS to install a service for an owner.
type DeployRequest struct {
	Owner    string       `json:"owner"`
	Prefixes []string     `json:"prefixes"` // address ranges to bind (must be certified)
	Spec     service.Spec `json:"spec"`
	Scope    Scope        `json:"scope"`
}

// DeployResult reports where a deployment landed.
type DeployResult struct {
	ISP   string `json:"isp"`
	Nodes []int  `json:"nodes"`
}

// ControlRequest drives an installed service: activation, removal,
// parameter updates, counter and log readback (paper §5.1: "activate,
// modify specific parameters or read logs").
type ControlRequest struct {
	Owner     string `json:"owner"`
	Op        string `json:"op"` // activate|deactivate|remove|counters|read|update|events
	Stage     string `json:"stage,omitempty"`
	Component string `json:"component,omitempty"` // for op=read / op=update

	// Update carries the parameter changes for op=update.
	Update *ParamUpdate `json:"update,omitempty"`
}

// ParamUpdate modifies a live component's parameters without redeploying.
// Nil fields are left unchanged. Which fields apply depends on the
// component type; inapplicable fields are an error so misdirected updates
// cannot be silently ignored.
type ParamUpdate struct {
	Rate      *float64 `json:"rate,omitempty"`      // rate limiter
	Burst     *float64 `json:"burst,omitempty"`     // rate limiter
	Threshold *uint64  `json:"threshold,omitempty"` // trigger
	AddAddrs  []string `json:"add_addrs,omitempty"` // blacklist
	DelAddrs  []string `json:"del_addrs,omitempty"` // blacklist
	SwitchOn  *bool    `json:"switch_on,omitempty"` // switch
}

// NodeCounters is per-router service accounting.
type NodeCounters struct {
	Node      int    `json:"node"`
	Processed uint64 `json:"processed"`
	Discarded uint64 `json:"discarded"`
}

// ControlResult carries the outcome of a control operation.
type ControlResult struct {
	ISP      string          `json:"isp"`
	OK       bool            `json:"ok"`
	Counters []NodeCounters  `json:"counters,omitempty"`
	Reads    []ComponentRead `json:"reads,omitempty"`
	Events   []EventRecord   `json:"events,omitempty"`
}

// ComponentRead is a type-specific snapshot of one component on one node.
type ComponentRead struct {
	Node      int             `json:"node"`
	Component string          `json:"component"`
	Type      string          `json:"type"`
	Data      json.RawMessage `json:"data"`
}

// EventRecord is a control-plane event readable by the owning user.
type EventRecord struct {
	AtNanos   int64  `json:"at_nanos"`
	Node      int    `json:"node"`
	Component string `json:"component"`
	Message   string `json:"message"`
}

// installKey identifies an installed service instance.
type installKey struct {
	owner string
	stage device.Stage
}

// journalUpdate is one parameter change applied after install, kept so a
// replay restores the component to its last-configured parameters.
type journalUpdate struct {
	component string
	update    ParamUpdate
}

// journalEntry is one durable install record: everything needed to
// re-deploy a service from scratch onto a restarted device. Entries are
// keyed by (owner, stage) — the same key device.Install replaces on — so
// re-deploying an existing service overwrites its entry and the journal
// never grows with repetition: replay is idempotent by construction.
type journalEntry struct {
	owner    string
	stage    device.Stage
	prefixes []packet.Prefix
	spec     *service.Spec
	nodes    []int // scope resolved at install time
	enabled  bool
	updates  []journalUpdate
}

// NMS is one ISP's network management system. Its devices and install
// state are guarded by one sync.Locker (see SetLocker): Deploy and Control
// take it themselves, after verifying the request; every other method that
// touches devices or install state — Heal, Snapshot, DeployOperator, the
// crash hooks — and the simulation that drives the data plane must run
// with it held.
type NMS struct {
	Name string

	net     *netsim.Network
	nodes   []int
	trusted ed25519.PublicKey
	clock   func() int64   // seconds, for certificate validation
	certs   auth.CertCache // TCSP certificates already verified
	mu      sync.Locker

	devices   map[int]*device.Device
	installed map[installKey]map[int]*service.Compiled
	events    map[string][]device.Event // keyed by owner
	peers     []*NMS

	// The install journal (durable across Crash) plus the per-device boot
	// epoch last configured — the self-healing state Heal reconciles.
	journal     map[installKey]*journalEntry
	journalKeys []installKey // install order; deterministic replay
	configured  map[int]uint64
	reinstalls  uint64

	routingUpdates int
}

// New creates an NMS operating the given router nodes of net. Devices are
// created and hooked into each router immediately; trusted is the TCSP
// public key accepted on certificates; clock supplies the current time in
// seconds for certificate validation.
func New(name string, net *netsim.Network, nodes []int, trusted ed25519.PublicKey, clock func() int64) (*NMS, error) {
	if name == "" {
		return nil, fmt.Errorf("nms: empty name")
	}
	if clock == nil {
		return nil, fmt.Errorf("nms: nil clock")
	}
	m := &NMS{
		Name: name, net: net, nodes: append([]int(nil), nodes...),
		trusted: trusted, clock: clock,
		mu:         new(sync.Mutex),
		devices:    make(map[int]*device.Device),
		installed:  make(map[installKey]map[int]*service.Compiled),
		events:     make(map[string][]device.Event),
		journal:    make(map[installKey]*journalEntry),
		configured: make(map[int]uint64),
	}
	reg := modules.NewRegistry()
	rpf := &uRPF{net: net}
	for _, node := range m.nodes {
		if node < 0 || node >= net.Graph.Len() {
			return nil, fmt.Errorf("nms: node %d out of range", node)
		}
		d := device.New(node, reg, net.Sim.RNG().Fork())
		d.SetRPF(rpf)
		d.SetEventBus(func(e device.Event) {
			m.events[e.Owner] = append(m.events[e.Owner], e)
		})
		m.devices[node] = d
		m.configured[node] = d.Epoch()
		net.AddHook(node, &deviceHook{dev: d})
	}
	// Topology-dependent configuration adapts automatically on routing
	// updates (paper §4.2): the uRPF context queries the routing table
	// live, so invalidation is sufficient; the counter lets operators
	// audit how often it happened.
	net.OnRoutingUpdate(func() { m.routingUpdates++ })
	return m, nil
}

// SetLocker makes l the lock that guards the NMS: the caller holds the
// same l while it advances the simulated data plane, heals or snapshots.
// Deploy and Control verify and decode a request before taking it, so
// concurrent connections check signatures in parallel. Without SetLocker
// the NMS guards itself with a private mutex, which serializes Deploy and
// Control only with each other. Call it before the NMS is shared.
func (m *NMS) SetLocker(l sync.Locker) { m.mu = l }

// RoutingUpdates reports how many routing changes the NMS has adapted to.
func (m *NMS) RoutingUpdates() int { return m.routingUpdates }

// deviceHook adapts a device to the netsim hook interface.
type deviceHook struct {
	dev *device.Device
}

// Name implements netsim.Hook.
func (h *deviceHook) Name() string { return fmt.Sprintf("adaptive-device@%d", h.dev.Node) }

// Process implements netsim.Hook.
func (h *deviceHook) Process(now sim.Time, pkt *packet.Packet, ctx netsim.HookContext) netsim.Verdict {
	if h.dev.Process(now, pkt, ctx.From) {
		return netsim.Pass
	}
	return netsim.Drop
}

// ProcessBatch implements netsim.BatchHook, letting burst injection reuse
// the device's fused two-stage pipeline across the whole burst.
func (h *deviceHook) ProcessBatch(now sim.Time, pkts []*packet.Packet, ctx netsim.HookContext, keep []bool) {
	h.dev.ProcessBatch(now, pkts, ctx.From, keep)
}

// uRPF provides the operator routing context for anti-spoofing: with
// symmetric shortest-path routing, a source S may enter node N from
// neighbor F only if F is N's next hop toward S.
type uRPF struct {
	net *netsim.Network
}

// ValidIngress implements device.RPFChecker.
func (r *uRPF) ValidIngress(node, from int, src packet.Addr) bool {
	srcNode, ok := r.net.NodeOfAddr(src)
	if !ok {
		return false // unallocated space can never be a legitimate source
	}
	if from == netsim.Local {
		return srcNode == node
	}
	if srcNode == node {
		return false // our own addresses cannot arrive from outside
	}
	return r.net.Table.FeasibleIngress(node, from, srcNode)
}

// Transit implements device.RPFChecker.
func (r *uRPF) Transit(node, from int) bool {
	if from == netsim.Local {
		return false
	}
	// An interface toward a transit-role neighbor carries third-party
	// traffic; the paper requires ingress filtering to spare it.
	return r.net.Graph.Nodes[from].Role == topology.RoleTransit
}

// Nodes returns the router nodes this NMS operates.
func (m *NMS) Nodes() []int { return append([]int(nil), m.nodes...) }

// Device returns the adaptive device at node.
func (m *NMS) Device(node int) (*device.Device, bool) {
	d, ok := m.devices[node]
	return d, ok
}

// AddPeer registers a peer ISP NMS for configuration relay.
func (m *NMS) AddPeer(p *NMS) { m.peers = append(m.peers, p) }

// verify checks the certificate chain and request signature, and returns
// the decoded body. A certificate already verified costs no signature
// check; the request signature is checked every time.
func (m *NMS) verify(cert *auth.Certificate, sreq *auth.SignedRequest, out any) error {
	if err := m.certs.Verify(cert, m.trusted, m.clock()); err != nil {
		return fmt.Errorf("nms %s: %w", m.Name, err)
	}
	if err := auth.VerifyRequest(cert, sreq); err != nil {
		return fmt.Errorf("nms %s: %w", m.Name, err)
	}
	if err := json.Unmarshal(sreq.Body, out); err != nil {
		return fmt.Errorf("nms %s: bad request body: %w", m.Name, err)
	}
	return nil
}

// scopeNodes resolves a scope to this ISP's router set.
func (m *NMS) scopeNodes(sc Scope) ([]int, error) {
	mine := make(map[int]bool, len(m.nodes))
	for _, n := range m.nodes {
		mine[n] = true
	}
	var out []int
	if len(sc.Nodes) > 0 {
		for _, n := range sc.Nodes {
			if !mine[n] {
				return nil, fmt.Errorf("nms %s: node %d not operated by this ISP", m.Name, n)
			}
			out = append(out, n)
		}
	} else {
		out = append(out, m.nodes...)
	}
	if sc.StubOnly {
		var stubs []int
		for _, n := range out {
			if m.net.Graph.Nodes[n].Role == topology.RoleStub {
				stubs = append(stubs, n)
			}
		}
		out = stubs
	}
	sort.Ints(out)
	return out, nil
}

// Deploy verifies and installs a service deployment.
func (m *NMS) Deploy(cert *auth.Certificate, sreq *auth.SignedRequest) (*DeployResult, error) {
	var req DeployRequest
	if err := m.verify(cert, sreq, &req); err != nil {
		return nil, err
	}
	if req.Owner != cert.Owner {
		return nil, fmt.Errorf("nms %s: request owner %q does not match certificate owner %q", m.Name, req.Owner, cert.Owner)
	}
	if len(req.Prefixes) == 0 {
		return nil, fmt.Errorf("nms %s: deployment without prefixes", m.Name)
	}
	prefixes := make([]packet.Prefix, 0, len(req.Prefixes))
	for _, s := range req.Prefixes {
		p, err := packet.ParsePrefix(s)
		if err != nil {
			return nil, fmt.Errorf("nms %s: %w", m.Name, err)
		}
		// The core safety property: control only over certified addresses.
		if !cert.Covers(p) {
			return nil, fmt.Errorf("nms %s: certificate for %q does not cover %v", m.Name, cert.Owner, p)
		}
		prefixes = append(prefixes, p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.install(req.Owner, prefixes, &req.Spec, req.Scope)
}

// install is the cert-independent deployment core shared by the certified
// user path (Deploy) and the ISP-operator path (DeployOperator).
func (m *NMS) install(owner string, prefixes []packet.Prefix, spec *service.Spec, sc Scope) (*DeployResult, error) {
	nodes, err := m.scopeNodes(sc)
	if err != nil {
		return nil, err
	}
	stage, err := spec.StageValue()
	if err != nil {
		return nil, err
	}
	key := installKey{owner: owner, stage: stage}
	insts := make(map[int]*service.Compiled, len(nodes))
	for _, node := range nodes {
		// Each device gets its own compiled instance: component state
		// (token buckets, logs, bloom filters) is per device.
		compiled, err := spec.Compile()
		if err != nil {
			return nil, fmt.Errorf("nms %s: %w", m.Name, err)
		}
		dev := m.devices[node]
		for _, p := range prefixes {
			if err := dev.BindOwner(p, owner); err != nil {
				return nil, fmt.Errorf("nms %s node %d: %w", m.Name, node, err)
			}
		}
		if err := dev.Install(owner, stage, compiled.Graph); err != nil {
			return nil, fmt.Errorf("nms %s node %d: %w", m.Name, node, err)
		}
		insts[node] = compiled
	}
	m.installed[key] = insts
	// Journal the deployment for post-crash replay. The spec is copied
	// shallowly (components included) so later caller-side mutation cannot
	// corrupt the record; replacing an existing key resets its enabled
	// state and parameter-update history, matching the fresh install the
	// devices just received.
	specCopy := *spec
	specCopy.Components = append([]service.ComponentSpec(nil), spec.Components...)
	if _, known := m.journal[key]; !known {
		m.journalKeys = append(m.journalKeys, key)
	}
	m.journal[key] = &journalEntry{
		owner: owner, stage: stage,
		prefixes: append([]packet.Prefix(nil), prefixes...),
		spec:     &specCopy,
		nodes:    nodes,
		enabled:  true,
	}
	return &DeployResult{ISP: m.Name, Nodes: nodes}, nil
}

// JournalLen returns the number of live install-journal entries. Because
// entries are keyed by (owner, stage), repeated deployments of the same
// service leave the length unchanged — the observable half of journal
// idempotence.
func (m *NMS) JournalLen() int { return len(m.journal) }

// Reinstalls returns how many service instances Heal has re-deployed.
func (m *NMS) Reinstalls() uint64 { return m.reinstalls }

// CrashDevice simulates a crash and cold restart of the device at node:
// its entire service table, owner bindings and counters are lost. The NMS
// notices the new boot epoch on its next Heal and replays the journal.
func (m *NMS) CrashDevice(node int) error {
	d, ok := m.devices[node]
	if !ok {
		return fmt.Errorf("nms %s: no device at node %d", m.Name, node)
	}
	d.Reset()
	return nil
}

// Crash simulates an NMS process restart: every in-memory structure —
// compiled service instances, event log, device-epoch bookkeeping — is
// lost. The install journal survives (it models the NMS's durable
// configuration store), so the next Heal re-deploys every journaled
// service and rebuilds the in-memory state from it.
func (m *NMS) Crash() {
	m.installed = make(map[installKey]map[int]*service.Compiled)
	m.events = make(map[string][]device.Event)
	m.configured = make(map[int]uint64)
}

// Heal reconciles device state against the install journal: any device
// whose boot epoch differs from the last one this NMS configured — a
// crashed-and-restarted device, or every device after an NMS Crash — gets
// the journal replayed onto it. Replay is idempotent: installs key by
// (owner, stage) and replace, so healing an already-consistent device
// cannot duplicate services. It returns the number of service instances
// re-deployed; zero is the steady state and costs one map lookup per
// device.
func (m *NMS) Heal() (int, error) {
	healed := 0
	nodes := append([]int(nil), m.nodes...)
	sort.Ints(nodes)
	for _, node := range nodes {
		d := m.devices[node]
		if epoch, known := m.configured[node]; known && epoch == d.Epoch() {
			continue
		}
		n, err := m.replay(node)
		if err != nil {
			return healed, err
		}
		healed += n
		m.configured[node] = d.Epoch()
	}
	return healed, nil
}

// replay re-deploys every journaled service scoped to node, restoring
// owner bindings, the compiled graph, the enabled flag and any journaled
// parameter updates, and re-registers the fresh compiled instances in the
// in-memory install table.
func (m *NMS) replay(node int) (int, error) {
	d := m.devices[node]
	count := 0
	for _, key := range m.journalKeys {
		e, ok := m.journal[key]
		if !ok {
			continue // removed since; key slot retired lazily
		}
		inScope := false
		for _, n := range e.nodes {
			if n == node {
				inScope = true
				break
			}
		}
		if !inScope {
			continue
		}
		compiled, err := e.spec.Compile()
		if err != nil {
			return count, fmt.Errorf("nms %s: replay %q: %w", m.Name, e.owner, err)
		}
		for _, p := range e.prefixes {
			if err := d.BindOwner(p, e.owner); err != nil {
				return count, fmt.Errorf("nms %s node %d: replay: %w", m.Name, node, err)
			}
		}
		if err := d.Install(e.owner, e.stage, compiled.Graph); err != nil {
			return count, fmt.Errorf("nms %s node %d: replay: %w", m.Name, node, err)
		}
		if !e.enabled {
			if err := d.SetEnabled(e.owner, e.stage, false); err != nil {
				return count, err
			}
		}
		for i := range e.updates {
			u := &e.updates[i]
			comp, ok := compiled.Components[u.component]
			if !ok {
				continue
			}
			if err := applyUpdate(comp, &u.update); err != nil {
				return count, fmt.Errorf("nms %s node %d: replay update: %w", m.Name, node, err)
			}
		}
		insts := m.installed[key]
		if insts == nil {
			insts = make(map[int]*service.Compiled, len(e.nodes))
			m.installed[key] = insts
		}
		insts[node] = compiled
		m.reinstalls++
		count++
	}
	return count, nil
}

// DeployOperator installs a service on the ISP's own authority — the
// defense controller's path. No certificate is involved: the ISP operates
// these routers and may police traffic toward any prefix it chooses, the
// same trust model as the paper's operator-initiated countermeasures.
func (m *NMS) DeployOperator(owner string, prefixes []packet.Prefix, spec *service.Spec, sc Scope) (*DeployResult, error) {
	if owner == "" {
		return nil, fmt.Errorf("nms %s: operator deployment without owner", m.Name)
	}
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("nms %s: operator deployment without prefixes", m.Name)
	}
	return m.install(owner, prefixes, spec, sc)
}

// Snapshot captures every device's counters at the given instant, sorted by
// node — the per-ISP half of the telemetry pipeline. atNanos is sim.Time in
// simulation and wall-derived nanoseconds in the live server.
func (m *NMS) Snapshot(atNanos int64) []*telemetry.Snapshot {
	nodes := append([]int(nil), m.nodes...)
	sort.Ints(nodes)
	out := make([]*telemetry.Snapshot, 0, len(nodes))
	for _, node := range nodes {
		d := m.devices[node]
		st := d.Stats()
		snap := &telemetry.Snapshot{
			Node:       uint32(node),
			At:         atNanos,
			Seen:       st.Seen,
			Redirected: st.Redirected,
			Discarded:  st.Discarded,
		}
		for _, svc := range d.Services() {
			snap.Services = append(snap.Services, telemetry.ServiceCounters{
				Owner: svc.Owner, Stage: uint8(svc.Stage),
				Processed: svc.Processed, Discarded: svc.Discarded,
			})
		}
		out = append(out, snap)
	}
	return out
}

// Control verifies and executes a control operation.
func (m *NMS) Control(cert *auth.Certificate, sreq *auth.SignedRequest) (*ControlResult, error) {
	var req ControlRequest
	if err := m.verify(cert, sreq, &req); err != nil {
		return nil, err
	}
	if req.Owner != cert.Owner {
		return nil, fmt.Errorf("nms %s: request owner %q does not match certificate owner %q", m.Name, req.Owner, cert.Owner)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	res := &ControlResult{ISP: m.Name, OK: true}
	if req.Op == "events" {
		for _, e := range m.events[req.Owner] {
			res.Events = append(res.Events, EventRecord{
				AtNanos: int64(e.At), Node: e.Node, Component: e.Component, Message: e.Message,
			})
		}
		return res, nil
	}
	stage := device.StageDest
	if req.Stage == "source" {
		stage = device.StageSource
	} else if req.Stage != "" && req.Stage != "dest" {
		return nil, fmt.Errorf("nms %s: unknown stage %q", m.Name, req.Stage)
	}
	key := installKey{owner: req.Owner, stage: stage}
	insts, ok := m.installed[key]
	if !ok {
		return nil, fmt.Errorf("nms %s: no %v-stage service installed for %q", m.Name, stage, req.Owner)
	}
	nodes := make([]int, 0, len(insts))
	for n := range insts {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	switch req.Op {
	case "activate", "deactivate":
		on := req.Op == "activate"
		for _, n := range nodes {
			if err := m.devices[n].SetEnabled(req.Owner, stage, on); err != nil {
				return nil, fmt.Errorf("nms %s: %w", m.Name, err)
			}
		}
		if e := m.journal[key]; e != nil {
			e.enabled = on
		}
	case "remove":
		for _, n := range nodes {
			m.devices[n].Remove(req.Owner, stage)
		}
		delete(m.installed, key)
		delete(m.journal, key)
		for i, k := range m.journalKeys {
			if k == key {
				m.journalKeys = append(m.journalKeys[:i], m.journalKeys[i+1:]...)
				break
			}
		}
	case "counters":
		for _, n := range nodes {
			p, d, ok := m.devices[n].ServiceCounters(req.Owner, stage)
			if ok {
				res.Counters = append(res.Counters, NodeCounters{Node: n, Processed: p, Discarded: d})
			}
		}
	case "read":
		for _, n := range nodes {
			comp, ok := insts[n].Components[req.Component]
			if !ok {
				return nil, fmt.Errorf("nms %s: service has no component %q", m.Name, req.Component)
			}
			data, err := readComponent(comp)
			if err != nil {
				return nil, err
			}
			res.Reads = append(res.Reads, ComponentRead{
				Node: n, Component: req.Component, Type: comp.Type(), Data: data,
			})
		}
	case "update":
		if req.Update == nil {
			return nil, fmt.Errorf("nms %s: update without parameters", m.Name)
		}
		for _, n := range nodes {
			comp, ok := insts[n].Components[req.Component]
			if !ok {
				return nil, fmt.Errorf("nms %s: service has no component %q", m.Name, req.Component)
			}
			if err := applyUpdate(comp, req.Update); err != nil {
				return nil, fmt.Errorf("nms %s node %d: %w", m.Name, n, err)
			}
		}
		if e := m.journal[key]; e != nil {
			e.updates = append(e.updates, journalUpdate{component: req.Component, update: *req.Update})
		}
	default:
		return nil, fmt.Errorf("nms %s: unknown op %q", m.Name, req.Op)
	}
	return res, nil
}

// Component returns the live component instance for (owner, stage, node,
// label) — used by in-process experiments to inspect state without the
// control-plane round trip.
func (m *NMS) Component(owner string, stage device.Stage, node int, label string) (device.TypedComponent, bool) {
	insts, ok := m.installed[installKey{owner: owner, stage: stage}]
	if !ok {
		return nil, false
	}
	inst, ok := insts[node]
	if !ok {
		return nil, false
	}
	c, ok := inst.Components[label]
	return c, ok
}

// DeployWithRelay deploys locally, then forwards the identical request to
// every peer NMS — the paper's ISP-to-ISP configuration forwarding for
// when the TCSP is unreachable. Peer failures are collected, not fatal.
func (m *NMS) DeployWithRelay(cert *auth.Certificate, sreq *auth.SignedRequest) ([]*DeployResult, []error) {
	var results []*DeployResult
	var errs []error
	if r, err := m.Deploy(cert, sreq); err != nil {
		errs = append(errs, err)
	} else {
		results = append(results, r)
	}
	for _, p := range m.peers {
		if r, err := p.Deploy(cert, sreq); err != nil {
			errs = append(errs, err)
		} else {
			results = append(results, r)
		}
	}
	return results, errs
}

// applyUpdate applies a parameter update to one live component instance.
func applyUpdate(c device.TypedComponent, u *ParamUpdate) error {
	switch x := c.(type) {
	case *modules.RateLimiter:
		if u.Threshold != nil || len(u.AddAddrs) > 0 || len(u.DelAddrs) > 0 || u.SwitchOn != nil {
			return fmt.Errorf("nms: parameters not applicable to rate limiter %q", c.Name())
		}
		if u.Rate != nil {
			if *u.Rate <= 0 {
				return fmt.Errorf("nms: rate must be positive")
			}
			x.Rate = *u.Rate
		}
		if u.Burst != nil {
			if *u.Burst <= 0 {
				return fmt.Errorf("nms: burst must be positive")
			}
			x.Burst = *u.Burst
		}
	case *modules.Trigger:
		if u.Rate != nil || u.Burst != nil || len(u.AddAddrs) > 0 || len(u.DelAddrs) > 0 || u.SwitchOn != nil {
			return fmt.Errorf("nms: parameters not applicable to trigger %q", c.Name())
		}
		if u.Threshold != nil {
			if *u.Threshold == 0 {
				return fmt.Errorf("nms: threshold must be positive")
			}
			x.Threshold = *u.Threshold
		}
	case *modules.Blacklist:
		if u.Rate != nil || u.Burst != nil || u.Threshold != nil || u.SwitchOn != nil {
			return fmt.Errorf("nms: parameters not applicable to blacklist %q", c.Name())
		}
		for _, s := range u.AddAddrs {
			a, err := packet.ParseAddr(s)
			if err != nil {
				return err
			}
			x.Add(a)
		}
		for _, s := range u.DelAddrs {
			a, err := packet.ParseAddr(s)
			if err != nil {
				return err
			}
			x.Remove(a)
		}
	case *modules.Switch:
		if u.SwitchOn == nil {
			return fmt.Errorf("nms: switch %q update needs switch_on", c.Name())
		}
		x.Set(*u.SwitchOn)
	default:
		return fmt.Errorf("nms: component type %q has no updatable parameters", c.Type())
	}
	return nil
}

// readComponent snapshots a component's observable state as JSON.
func readComponent(c device.TypedComponent) (json.RawMessage, error) {
	var v any
	switch x := c.(type) {
	case *modules.Filter:
		v = map[string]uint64{"dropped": x.Dropped, "passed": x.Passed}
	case *modules.RateLimiter:
		v = map[string]uint64{"dropped": x.Dropped, "passed": x.Passed}
	case *modules.Blacklist:
		v = map[string]uint64{"dropped": x.Dropped, "listed": uint64(x.Len())}
	case *modules.AntiSpoof:
		v = map[string]uint64{"dropped": x.Dropped, "passed": x.Passed, "no_context": x.NoCtx}
	case *modules.PayloadScrub:
		v = map[string]uint64{"scrubbed": x.Scrubbed}
	case *modules.Logger:
		v = x.Entries()
	case *modules.Stats:
		v = map[string]any{
			"total_packets": x.TotalPackets, "total_bytes": x.TotalBytes,
			"rule_packets": x.RulePackets, "rule_bytes": x.RuleBytes,
		}
	case *modules.Sampler:
		v = x.Log.Entries()
	case *modules.Trigger:
		v = map[string]any{"active": x.Active(), "fired": x.Fired}
	case *modules.SPIE:
		v = map[string]uint64{"observed": x.Observed}
	case *modules.Switch:
		v = map[string]bool{"on": x.On()}
	default:
		return nil, fmt.Errorf("nms: component type %q is not readable", c.Type())
	}
	return json.Marshal(v)
}

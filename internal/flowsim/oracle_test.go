package flowsim

import "math"

// OracleRoute is the reference walker the tests hold Route to: it
// materializes the shortest path with Tree.Path and then applies the
// filter decision hop by hop. An unreachable or out-of-range origin and a
// corrupted tree (Path returns nil) are dropped at the origin.
func (m *Model) OracleRoute(f *Flow) (Result, error) {
	tr, err := m.tbl.TreeTo(f.To)
	if err != nil {
		return Result{}, err
	}
	path := tr.Path(f.From)
	if path == nil {
		return Result{Delivered: false, DropHop: 0}, nil
	}
	byteRate := f.Rate * float64(f.Size)
	// Hop 0: the origin node's own router (local ingress).
	if m.filterDrops(f, path[0], path[0]) {
		return Result{Delivered: false, DropHop: 0}, nil
	}
	for i := 1; i < len(path); i++ {
		if m.filterDrops(f, path[i], path[i-1]) {
			return Result{Delivered: false, DropHop: i, ByteHops: byteRate * float64(i)}, nil
		}
	}
	return Result{Delivered: true, DropHop: -1, ByteHops: byteRate * float64(len(path)-1)}, nil
}

// OracleEvaluate is the reference aggregation EvalBatch must match bit for
// bit: OracleRoute per flow, reduced in flow order.
func (m *Model) OracleEvaluate(flows []Flow) (Sweep, error) {
	var s Sweep
	var dropHops, drops float64
	for i := range flows {
		r, err := m.OracleRoute(&flows[i])
		if err != nil {
			return s, err
		}
		s.Flows++
		s.TotalRate += flows[i].Rate
		s.AttackByteHops += r.ByteHops
		if r.Delivered {
			s.Delivered++
			s.DeliveredRate += flows[i].Rate
		} else {
			dropHops += float64(r.DropHop)
			drops++
		}
	}
	if drops > 0 {
		s.MeanDropHop = dropHops / drops
	}
	return s, nil
}

// SameResult reports whether two fates are equal bit for bit.
func SameResult(a, b Result) bool {
	return a.Delivered == b.Delivered && a.DropHop == b.DropHop &&
		math.Float64bits(a.ByteHops) == math.Float64bits(b.ByteHops)
}

// SameSweep reports whether two aggregates are equal bit for bit.
func SameSweep(a, b Sweep) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Flows == b.Flows && a.Delivered == b.Delivered &&
		eq(a.DeliveredRate, b.DeliveredRate) && eq(a.TotalRate, b.TotalRate) &&
		eq(a.AttackByteHops, b.AttackByteHops) && eq(a.MeanDropHop, b.MeanDropHop)
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"leo/internal/baseline"
	"leo/internal/control"
	"leo/internal/core"
	"leo/internal/pareto"
	"leo/internal/persist"
	"leo/internal/stream"
)

// The layer ladder replays a workload's windows in process, in schedule
// order, through the public functions a service shard calls for a rung-0
// tenant: control.FilterWindow, the staged core.FitBatch refit behind
// control.FitWindow, control.ValidateEstimates, persist.Store.Append (when
// the workload is durable), control.SanitizeEstimates, pareto.NewPlanner
// and Planner.MinimizeEnergyInto. It serves two ends: the traced pass times
// each layer, and every pass computes the plans the server must have served
// bit for bit.

// span is one timed call into a layer. Spans of one request share req, the
// index of the request's root span.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated while the span was open
}

// tracer keeps spans in memory; a nil tracer records nothing. Spans are
// stored in a slice sized up front, so that recording one allocates nothing
// inside the span it nests in.
type tracer struct {
	base  time.Time
	spans []span
	open  []int32
	heap  []metrics.Sample
}

func newTracer(capacity int) *tracer {
	return &tracer{
		base:  time.Now(),
		spans: make([]span, 0, capacity),
		open:  make([]int32, 0, 8),
		heap:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.heap)
	return t.heap[0].Value.Uint64()
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	s := span{Name: name, Parent: -1, Req: int32(len(t.spans))}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
		s.Req = t.spans[s.Parent].Req
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, int32(len(t.spans)-1))
	last := &t.spans[len(t.spans)-1]
	last.Alloc = t.heapAllocs()
	last.Start = int64(time.Since(t.base))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = end
	t.spans[i].Alloc = t.heapAllocs() - t.spans[i].Alloc
}

// durations returns every span's duration by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// selfByLayer sums each layer's self time and self allocation — a span's
// duration and heap bytes minus the part its child spans cover — over all
// spans. The layer is the span name up to the first dot.
func (t *tracer) selfByLayer() (map[string]time.Duration, map[string]uint64) {
	self := make([]int64, len(t.spans))
	alloc := make([]uint64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		alloc[i] += s.Alloc
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
			alloc[s.Parent] -= s.Alloc
		}
	}
	times, bytes := map[string]time.Duration{}, map[string]uint64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		times[layer] += time.Duration(self[i])
		bytes[layer] += alloc[i]
	}
	return times, bytes
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladderClass is one application class: its rung-0 tier and idle power.
type ladderClass struct {
	name string
	tier control.Tier
	idle float64
}

// classSeed mirrors a shard's captured class posterior.
type classSeed struct {
	perf, power             *core.SessionState
	perfDigest, powerDigest uint64
	perfOps, powerOps       *core.FrozenOps
}

type seedKey struct {
	shard int
	class string
}

// planKey is the exact demand a memoized plan answers.
type planKey struct{ work, deadline uint64 }

// ladderTenant mirrors one tenant's serving state.
type ladderTenant struct {
	name       string
	class      *ladderClass
	shard      int
	perf       baseline.Session
	power      baseline.Session
	seeded     bool
	fitWindows int
	perfEst    []float64
	powerEst   []float64
	gen        uint64
	planner    *pareto.Planner
	cache      map[planKey]*pareto.Plan
}

// ladder is one replay: its tenants, the class seeds its shards hold, and
// (for durable workloads) one journal per shard.
type ladder struct {
	n       int
	res     control.Resilience
	classes map[string]*ladderClass
	shards  int
	seeds   map[seedKey]*classSeed
	stores  []*persist.Store
	tr      *tracer
	tenants map[string]*ladderTenant

	ladderCounts
}

// ladderCounts is what one replay did.
type ladderCounts struct {
	windows, plans, hits int
	coldIters            []int
	appendBytes          int64
	appends              int
	hullPoints           []int
}

func newLadder(n, shards int, classes map[string]*ladderClass, seeds map[seedKey]*classSeed, tr *tracer) *ladder {
	return &ladder{
		n:       n,
		res:     control.Resilience{}.WithDefaults(),
		classes: classes,
		shards:  shards,
		seeds:   seeds,
		tr:      tr,
		tenants: map[string]*ladderTenant{},
	}
}

// openStores gives every shard its own journal under dir.
func (l *ladder) openStores(dir string) error {
	for i := 0; i < l.shards; i++ {
		st, err := persist.OpenShard(dir, i)
		if err != nil {
			return err
		}
		l.stores = append(l.stores, st)
	}
	return nil
}

// close releases every tenant's sessions to their pools and closes the
// journals.
func (l *ladder) close() {
	for _, t := range l.tenants {
		baseline.ReleaseSession(t.perf)
		baseline.ReleaseSession(t.power)
	}
	l.tenants = map[string]*ladderTenant{}
	for _, st := range l.stores {
		st.Close()
	}
	l.stores = nil
}

// register opens a tenant's rung-0 sessions and, as a shard does on
// admission, warm-starts them from the class seed its shard holds.
func (l *ladder) register(name, class string) (*ladderTenant, error) {
	cl := l.classes[class]
	if cl == nil {
		return nil, fmt.Errorf("ladder: unknown class %q", class)
	}
	if t := l.tenants[name]; t != nil {
		if t.class != cl {
			return nil, fmt.Errorf("ladder: %s re-registered as %q, was %q", name, class, t.class.name)
		}
		return t, nil // idempotent re-registration
	}
	perf, err := cl.tier.Perf.NewSession(context.Background())
	if err != nil {
		return nil, err
	}
	power, err := cl.tier.Power.NewSession(context.Background())
	if err != nil {
		return nil, err
	}
	t := &ladderTenant{name: name, class: cl, shard: int(stream.Hash64(name) % uint64(l.shards)), perf: perf, power: power}
	if seed := l.seeds[seedKey{t.shard, class}]; seed != nil {
		pc, qc := perf.(baseline.StateCarrier), power.(baseline.StateCarrier)
		if pc.StateDigest() == seed.perfDigest && qc.StateDigest() == seed.powerDigest {
			if err := pc.RestoreSessionState(seed.perf); err != nil {
				return nil, err
			}
			if err := qc.RestoreSessionState(seed.power); err != nil {
				return nil, err
			}
			if seed.perfOps != nil {
				perf.(baseline.OpsCarrier).AdoptFrozenOps(seed.perfOps)
			}
			if seed.powerOps != nil {
				power.(baseline.OpsCarrier).AdoptFrozenOps(seed.powerOps)
			}
			t.seeded = true
		}
	}
	l.tenants[name] = t
	return t, nil
}

// observe runs one window through the shard's calibrate-window path and
// publishes the estimates. A cold tenant's fit is recorded as core.fit_cold.
func (l *ladder) observe(t *ladderTenant, obsIdx []int, perf, power []float64) error {
	l.tr.begin("ladder.window")
	defer l.tr.end()
	l.tr.begin("control.filter_window")
	w := control.FilterWindow(obsIdx, perf, power)
	l.tr.end()
	if len(w.ObsIdx) < l.res.MinValidSamples {
		return fmt.Errorf("ladder: only %d of %d probes usable", len(w.ObsIdx), len(obsIdx))
	}
	cold := !t.seeded && t.fitWindows == 0
	l.tr.begin("control.fit_window")
	perfEst, powerEst, err := l.fit(t, w, cold)
	l.tr.end()
	if err != nil {
		return err
	}
	l.tr.begin("control.validate")
	err = control.ValidateEstimates(perfEst, powerEst, l.n)
	l.tr.end()
	if err != nil {
		return err
	}
	if l.stores != nil {
		st := l.stores[t.shard]
		rec := &persist.WindowRecord{
			Seq: st.LastSeq() + 1, Rung: 0,
			ObsIdx: w.ObsIdx, Perf: w.Perf, Power: w.Power,
			Tenant: tenantMeta(t),
		}
		before := journalSize(st)
		l.tr.begin("persist.append")
		err := st.Append(rec)
		l.tr.end()
		if err != nil {
			return err
		}
		l.appendBytes += journalSize(st) - before
		l.appends++
	}
	l.tr.begin("control.sanitize")
	p, q := control.SanitizeEstimates(perfEst, powerEst)
	l.tr.end()
	t.perfEst = append(t.perfEst[:0], p...)
	t.powerEst = append(t.powerEst[:0], q...)
	t.fitWindows++
	if key := (seedKey{t.shard, t.class.name}); l.seeds[key] == nil {
		l.seeds[key] = captureSeed(t)
	}
	t.gen++
	t.planner = nil
	clear(t.cache)
	l.windows++
	return nil
}

// fit mirrors the shard's staged refit: both sessions drop the previous
// window and stage this one, then each metric is refitted in a FitBatch
// pass under the fit watchdog, performance first, and the jitter budgets
// are checked in FitWindow's order.
func (l *ladder) fit(t *ladderTenant, w control.Window, cold bool) (perfEst, powerEst []float64, err error) {
	bfP, okP := t.perf.(baseline.BatchFitter)
	bfQ, okQ := t.power.(baseline.BatchFitter)
	if !okP || !okQ {
		return nil, nil, errors.New("ladder: rung-0 sessions cannot batch")
	}
	t.perf.DropObservations()
	t.power.DropObservations()
	if err := bfP.Stage(w.ObsIdx, w.Perf); err != nil {
		return nil, nil, err
	}
	if err := bfQ.Stage(w.ObsIdx, w.Power); err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	if l.res.FitWatchdog > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.res.FitWatchdog)
		defer cancel()
	}
	name := "core.fit_batch"
	if cold {
		name = "core.fit_cold"
	}
	for i, bf := range []baseline.BatchFitter{bfP, bfQ} {
		l.tr.begin(name)
		out, berr := core.FitBatch(ctx, []*core.Session{bf.CoreSession()})
		l.tr.end()
		var res *core.Result
		ferr := berr
		if len(out) == 1 {
			res, ferr = out[0].Result, out[0].Err
		}
		if cold && res != nil {
			l.coldIters = append(l.coldIters, res.Iterations)
		}
		est, err := bf.FinishFit(res, ferr)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			perfEst = est
		} else {
			powerEst = est
		}
	}
	if jerr := control.CheckJitter(t.perf, "performance", l.res.JitterBudget); jerr != nil {
		return nil, nil, jerr
	}
	if jerr := control.CheckJitter(t.power, "power", l.res.JitterBudget); jerr != nil {
		return nil, nil, jerr
	}
	return perfEst, powerEst, nil
}

// plan mirrors the shard's memoized minimum-energy plan with its
// believed-fastest fallback for demands the estimates call infeasible.
func (l *ladder) plan(t *ladderTenant, work, deadline float64) (*pareto.Plan, error) {
	l.plans++
	key := planKey{math.Float64bits(work), math.Float64bits(deadline)}
	if p, hit := t.cache[key]; hit {
		l.hits++
		return p, nil
	}
	l.tr.begin("ladder.plan")
	defer l.tr.end()
	var err error
	if t.planner == nil {
		l.tr.begin("pareto.new_planner")
		t.planner, err = pareto.NewPlanner(t.perfEst, t.powerEst, t.class.idle)
		l.tr.end()
		if err == nil {
			l.hullPoints = append(l.hullPoints, len(t.planner.Hull()))
		}
	}
	plan := &pareto.Plan{}
	if err == nil {
		l.tr.begin("pareto.minimize")
		_, err = t.planner.MinimizeEnergyInto(work, deadline, plan)
		l.tr.end()
	}
	if err != nil {
		best := believedFastest(t.perfEst)
		if best < 0 {
			return nil, err
		}
		plan = &pareto.Plan{
			Allocations: []pareto.Allocation{{Index: best, Time: deadline}},
			Rate:        work / deadline,
			Energy:      t.powerEst[best] * deadline,
		}
	}
	if t.cache == nil {
		t.cache = map[planKey]*pareto.Plan{}
	} else if len(t.cache) >= planCacheMax {
		clear(t.cache)
	}
	t.cache[key] = plan
	return plan, nil
}

// planCacheMax is the shard's per-tenant memo bound.
const planCacheMax = 1024

func believedFastest(perfEst []float64) int {
	best, bestIdx := 0.0, -1
	for i, v := range perfEst {
		if v > best && !math.IsInf(v, 1) {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}

// captureSeed mirrors a shard's first-wins donation of a tenant's fitted
// rung-0 posterior.
func captureSeed(t *ladderTenant) *classSeed {
	pc, qc := t.perf.(baseline.StateCarrier), t.power.(baseline.StateCarrier)
	s := &classSeed{
		perf: pc.SessionState(), power: qc.SessionState(),
		perfDigest: pc.StateDigest(), powerDigest: qc.StateDigest(),
	}
	if ops, err := t.perf.(baseline.OpsCarrier).FrozenOps(); err == nil {
		s.perfOps = ops
	}
	if ops, err := t.power.(baseline.OpsCarrier).FrozenOps(); err == nil {
		s.powerOps = ops
	}
	return s
}

// tenantMeta renders the shard's journal tenant tag: name, class, idle
// power bits, rung, and the transfer flag on a seeded tenant's first owned
// window.
func tenantMeta(t *ladderTenant) string {
	const sep = "\x1f"
	meta := t.name + sep + t.class.name + sep +
		strconv.FormatUint(math.Float64bits(t.class.idle), 16) + sep + "0"
	if t.seeded && t.fitWindows == 0 {
		meta += sep + "t"
	}
	return meta
}

func journalSize(st *persist.Store) int64 {
	fi, err := os.Stat(filepath.Join(st.Dir(), "journal.bin"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

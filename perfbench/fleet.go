package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"leo/internal/apps"
	"leo/internal/baseline"
	"leo/internal/core"
	"leo/internal/pareto"
	"leo/internal/platform"
	"leo/internal/profile"
	"leo/internal/service"
	"leo/internal/stream"
)

// fleetSpec is one serving workload: a real leo-runtime -serve process and
// the traffic it receives.
type fleetSpec struct {
	name           string
	size           string // leo-runtime -size: small (n=128) or full (n=1024)
	durable        bool   // fresh -state-dir: every window journaled with fsync
	classes        []string
	tenants        int
	offeredRate    float64 // open-loop windows per second, all tenants together
	closedCap      float64 // windows per second the closed-loop schedule is sized for, well above capacity
	probes         int     // configurations probed per window
	plansPerWindow int
	planLevels     int     // quantised demand levels; 0 draws demand continuously
	shards         int     // leo-runtime -shards; 0 keeps the server default
	openShare      float64 // share of --seconds spent in the open-loop phase
	setups         int     // set-ups per run; setup_s is their median
	admitInSetup   bool    // tenants register and send their first window in set-up
}

// The offered rates are constants, never derived per run, and pace spaces
// the windows evenly at that rate. Each window, with its plans, is served
// well within one spacing even on a host twice as slow as a typical 2-CPU
// box: fleet-small-plans sends a window every 10 ms that takes about 4 ms
// with its 8 plans, fleet-paper-durable one every 250 ms that takes about
// 100 ms. On fleet-paper-durable the first of a window's 6 plans builds the
// tenant's planner, so exactly one plan in 6 takes that slower path, away
// from the median and below the tail (about p90).
var (
	fleetSmallPlans = fleetSpec{
		name: "fleet-small-plans", size: "small",
		classes: []string{"kmeans", "swish", "x264"}, tenants: 48,
		offeredRate: 100, closedCap: 2500, probes: 12, plansPerWindow: 8, planLevels: 4,
		openShare: 0.6, setups: 3,
	}
	// One shard, so set-up pays one n=1024 cold fit per class for the
	// class seed, and one set-up per run: a set-up costs 20 to 30 s. A
	// tenant's first window costs about twice a later one; 8 of some 80
	// open-loop windows would put the observe tail (p87.5) on the edge
	// between the two, so the tenants are admitted in set-up.
	fleetPaperDurable = fleetSpec{
		name: "fleet-paper-durable", size: "full", durable: true,
		classes: []string{"kmeans"}, tenants: 8,
		offeredRate: 4, closedCap: 60, probes: 20, plansPerWindow: 6,
		shards: 1, openShare: 0.8, setups: 1, admitInSetup: true,
	}
)

// tinySpec shrinks a fleet for the self-test: n=128 and a handful of
// tenants, same code paths.
func tinySpec(s fleetSpec) fleetSpec {
	s.size = "small"
	s.tenants = 6
	s.offeredRate = 20
	s.closedCap = 2500
	s.setups = 1
	return s
}

// obsNoise is the multiplicative noise on tenant-reported readings.
const obsNoise = 0.02

// connections is the load generator's connection count: at most the
// machine's CPU count, and at most 2.
func connections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// truth is one class's noise-free surfaces, for the oracle and the checks.
type truth struct {
	perf, power []float64
	idle        float64
}

func runFleet(o options, spec fleetSpec) (*result, error) {
	if o.tiny {
		spec = tinySpec(spec)
	}
	space := platform.Small()
	if spec.size == "full" {
		space = platform.Paper()
	}
	runStart := time.Now()
	runDir, err := os.MkdirTemp(mustDir(o.workDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	truths := map[string]truth{}
	var classes []service.TrafficClass
	for _, name := range spec.classes {
		app := apps.MustByName(name)
		tr := truth{perf: app.PerfVector(space), power: app.PowerVector(space), idle: app.IdlePower}
		truths[name] = tr
		classes = append(classes, service.TrafficClass{Name: name, PerfTruth: tr.perf, PowerTruth: tr.power})
	}
	// The timed phases run as rounds, and a round in which the hypervisor
	// stole too much CPU time is played again, so the schedules cover the
	// most rounds a run may play.
	nRounds, maxRounds := rounds(o.seconds), maxRounds(o.seconds)
	openStep := time.Duration(o.seconds*spec.openShare*float64(time.Second)) / time.Duration(nRounds)
	closedStep := time.Duration(o.seconds*float64(time.Second))/time.Duration(nRounds) - openStep
	admitEvents, openEvents, closedEvents, err := fleetSchedules(o.seed, spec, classes,
		time.Duration(maxRounds)*openStep, time.Duration(maxRounds)*closedStep)
	if err != nil {
		return nil, err
	}
	conns := connections()
	admitCalls := buildCalls(admitEvents, conns)
	openCalls := buildCalls(openEvents, conns)
	closedCalls := buildCalls(closedEvents, conns)

	// Set-up: start the server and capture one class seed per shard and
	// class, several times; the last server admits the tenants that
	// arrive in set-up and carries the measured traffic.
	var (
		srv        *serverProc
		setups     []float64
		coldLat    []float64
		donorCalls []*call
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < spec.setups; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		args := []string{"-serve", "-size", spec.size, "-listen", "127.0.0.1:0"}
		if spec.shards > 0 {
			args = append(args, "-shards", fmt.Sprint(spec.shards))
		}
		if spec.durable {
			args = append(args, "-state-dir", filepath.Join(runDir, fmt.Sprintf("state-%d", i)))
		}
		srv, err = startServer(o.server, args, filepath.Join(runDir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		donorStart := time.Now()
		donorCalls = seedDonors(srv.base, spec, space.N(), truths, srv.shards)
		donorTime := time.Since(donorStart)
		for _, c := range donorCalls {
			if !c.ok() {
				return nil, fmt.Errorf("class-seed donor %s %s: status %d %v %s", c.ev.Tenant, c.url, c.status, c.err, c.reply)
			}
			if c.ev.Kind == service.EvObserve {
				coldLat = append(coldLat, c.latency().Seconds())
			}
		}
		var admitTime time.Duration
		if i == spec.setups-1 {
			admitTime = runPhase(srv.base, admitCalls, false, 0, time.Hour)
		}
		setups = append(setups, (srv.ready + donorTime + admitTime).Seconds())
	}

	// The timed phases, as rounds of an open-loop slice of the schedule
	// followed by a closed-loop slice. Every call of a slice returns before
	// the next slice starts, so each slice begins on an idle server. Rounds
	// are played until nRounds of them had at most maxStealPct of the CPU
	// time stolen, or maxRounds were played.
	type round struct {
		steal   float64 // % of CPU time the hypervisor stole
		open    scrape  // server metrics over the open-loop slice
		closed  time.Duration
		windows int // closed-loop windows served
	}
	var (
		played  []round
		kept    int
		ordered []*call // the calls in the order the server saw them, for the ladder
	)
	for _, calls := range admitCalls {
		ordered = append(ordered, calls...)
	}
	cpuBefore := readCPUTicks()
	phasesStart := time.Now()
	for r := 0; kept < nRounds && r < maxRounds; r++ {
		cpu := readCPUTicks()
		before, err := scrapeMetrics(srv.base)
		if err != nil {
			return nil, err
		}
		from := time.Duration(r) * openStep
		slice := openSlice(openCalls, from, from+openStep)
		runPhase(srv.base, slice, true, from, 0)
		after, err := scrapeMetrics(srv.base)
		if err != nil {
			return nil, err
		}
		issued := byScheduleTime(slice)
		slice = pending(closedCalls)
		rd := round{open: after.delta(before), closed: runPhase(srv.base, slice, false, 0, closedStep)}
		for k, rest := range pending(closedCalls) {
			if len(rest) == 0 {
				return nil, fmt.Errorf("closed-loop schedule ran out in round %d; generate more traffic", r+1)
			}
			for _, c := range slice[k][:len(slice[k])-len(rest)] {
				issued = append(issued, c)
				if c.ok() && c.ev.Kind == service.EvObserve {
					rd.windows++
				}
			}
		}
		for _, c := range issued {
			c.round = r
		}
		ordered = append(ordered, issued...)
		if rd.steal = readCPUTicks().stealPct(cpu); rd.steal <= maxStealPct {
			kept++
		}
		played = append(played, rd)
	}
	cpuAfter := readCPUTicks()
	phasesTime := time.Since(phasesStart)
	// The metrics count the rounds with little steal; if fewer than half of
	// nRounds had little, the host was short of CPU throughout and every
	// round counts.
	everyRound := kept < (nRounds+1)/2
	counted := func(r int) bool { return everyRound || played[r].steal <= maxStealPct }
	open := scrape{}
	var (
		closedElapsed time.Duration
		closedWindows int
		steals        []string
	)
	for r, rd := range played {
		steals = append(steals, fmt.Sprintf("%.1f", rd.steal))
		if counted(r) {
			open.add(rd.open)
			closedElapsed += rd.closed
			closedWindows += rd.windows
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	admitCount, openCount, closedCount := countPhase(admitCalls), countPhase(openCalls), countPhase(closedCalls)
	logf("workload=%s n=%d durable=%v seed=%d connections=%d donors=%d", spec.name, space.N(), spec.durable, o.seed, conns, len(donorCalls)/2)
	if spec.admitInSetup {
		logf("phase admission   in set-up, back to back: attempted=%d succeeded=%d failed=%d", admitCount.attempted, admitCount.succeeded, admitCount.failed)
	}
	logf("phase open-loop   constant rate=%g windows/s  attempted=%d succeeded=%d failed=%d", spec.offeredRate, openCount.attempted, openCount.succeeded, openCount.failed)
	logf("phase closed-loop connections=%d attempted=%d succeeded=%d failed=%d", conns, closedCount.attempted, closedCount.succeeded, closedCount.failed)
	logf("rounds: %d played, each %.2f s open loop then %.2f s closed loop; %d with at most %g%% of CPU time stolen (%d wanted); every round counts: %v; %% stolen per round: %s",
		len(played), openStep.Seconds(), closedStep.Seconds(), kept, maxStealPct, nRounds, everyRound, strings.Join(steals, " "))
	logf("host: %.1f%% of CPU time was stolen by the hypervisor during the phases", cpuAfter.stealPct(cpuBefore))

	// Output checks: every 2xx body complete and sane, every rung-0 plan
	// equal to the ladder's.
	chk := newChecker(truths)
	for _, calls := range append(append(admitCalls, openCalls...), closedCalls...) {
		for _, c := range calls {
			chk.inspect(c)
		}
	}
	ladderStart := time.Now()
	lad, err := newFleetLadder(space, spec, truths, donorCalls)
	if err != nil {
		return nil, err
	}
	ladderSetup := time.Since(ladderStart)

	pass, untraced, err := lad.replay(ordered, nil, filepath.Join(runDir, "journal-untraced"), chk)
	if err != nil {
		return nil, err
	}

	attempted := admitCount.attempted + openCount.attempted + closedCount.attempted
	failed := admitCount.failed + openCount.failed + closedCount.failed + chk.badBodies
	res := &result{Attempted: attempted, Failed: failed, Metrics: report{}}
	r := report(res.Metrics)

	var obsLat, planLat []timed
	var late []float64
	for _, calls := range openCalls {
		for _, c := range calls {
			if !c.issued || !counted(c.round) {
				continue
			}
			late = append(late, ms(c.late))
			if !c.ok() {
				continue
			}
			switch c.ev.Kind {
			case service.EvObserve:
				obsLat = append(obsLat, timed{c.at, ms(c.latency())})
			case service.EvPlan:
				planLat = append(planLat, timed{c.at, ms(c.latency())})
			}
		}
	}
	openSpan := time.Duration(len(played)) * openStep
	obs, plan := summarize(obsLat, openSpan), summarize(planLat, openSpan)
	obsP50 := obs.p50

	if o.trace {
		// The first pass also touches every session workspace for the first
		// time, so the traced pass is compared with an untraced one after it.
		tr := newTracer(spanCapacity(ordered))
		tracedPass, traced, err := lad.replay(ordered, tr, filepath.Join(runDir, "journal-traced"), chk)
		if err != nil {
			return nil, err
		}
		_, untracedAgain, err := lad.replay(ordered, nil, filepath.Join(runDir, "journal-untraced-again"), chk)
		if err != nil {
			return nil, err
		}
		if err := writeTrace(o, spec.name, tr); err != nil {
			return nil, err
		}
		hits := open[`leo_service_plan_cache_total{result="hit"}`]
		misses := open[`leo_service_plan_cache_total{result="miss"}`]
		r.set("service.plan_cache_hit_ratio", hits/math.Max(hits+misses, 1))
		r.set("service.batch_requests_mean", open["leo_service_batch_requests_sum"]/math.Max(open["leo_service_batch_requests_count"], 1))
		r.set("service.queue_rejects", open[`leo_service_rejected_total{reason="queue_full"}`])
		r.set("service.shed_share", open["leo_service_shed_windows_total"]/math.Max(open["leo_service_windows_total"], 1))
		r.set("service.seed_transfers", open["leo_service_seed_transfers_total"])
		b, c := open.histogram("leo_service_observe_seconds")
		r.set("service.observe_server_p50_ms", 1e3*histQuantile(0.5, b, c))
		b, c = open.histogram("leo_service_plan_seconds")
		r.set("service.plan_server_p50_ms", 1e3*histQuantile(0.5, b, c))
		lateP99, _, _ := percentile(late, 0.99)
		r.set("loadgen.late_p99_ms", lateP99)
		setLadderMetrics(r, ladderRun{
			tr: tr, stats: tracedPass, coldMS: lad.coldMS, coldIters: lad.iters,
			observeMS: obsP50, untraced: untracedAgain, traced: traced,
		})
		setKernelMetrics(r, space.N(), spec.probes)
		logf("trace: %d spans written; ladder passes over %d windows: untraced %.1f ms, traced %.1f ms, untraced again %.1f ms",
			len(tr.spans), pass.windows, ms(untraced), ms(traced), ms(untracedAgain))
	} else {
		r.set("setup_s", median(setups))
		r.set("windows_per_s", float64(closedWindows)/closedElapsed.Seconds())
		r.set("observe_p50_ms", obs.p50)
		r.set("observe_tail_ms", obs.tail)
		r.set("plan_p50_ms", plan.p50)
		r.set("plan_tail_ms", plan.tail)
		for _, l := range []struct {
			name string
			s    latencySummary
		}{{"observe", obs}, {"plan", plan}} {
			logf("%s latency: n=%d over %d segments; median of segment p50s %.4f ms, of segment tails %.4f ms (tail = p%.2f on average)",
				l.name, l.s.n, l.s.segments, l.s.p50, l.s.tail, l.s.pct)
		}
		r.set("served_share", float64(attempted-failed)/float64(attempted))
		r.set("energy_over_optimal", geomean(chk.energyRatios))
		r.set("deadline_met_share", float64(chk.plansMet)/math.Max(float64(chk.plansChecked), 1))
		r.set("calibrate_s", median(coldLat))
		r.set("peak_rss_mb", rss)
		logf("setups: %v s; closed-loop windows=%d in %.2f s of the counted rounds", setups, closedWindows, closedElapsed.Seconds())
	}
	logf("checks: %d served plans compared bit for bit with a ladder pass' plan, %d mismatches, %d bad bodies, %d check failures",
		chk.compared, chk.mismatches, chk.badBodies, len(chk.problems))
	for i, p := range chk.problems {
		if i == 5 {
			break
		}
		logf("check failed: %s", p)
	}
	logf("wall time: %.1f s before the timed phases, %.1f s timed phases, %.1f s ladder set-up, %.1f s first ladder pass, %.1f s ladder and checks in all",
		phasesStart.Sub(runStart).Seconds(), phasesTime.Seconds(), ladderSetup.Seconds(), untraced.Seconds(), time.Since(ladderStart).Seconds())
	res.Correct = len(chk.problems) == 0 && chk.compared > 0
	return res, nil
}

// fleetSchedules renders the open-loop schedule (offered rate spread over
// the tenants) and a closed-loop one sized at closedCap, so that it does not
// run dry within the phase. With admitInSetup, each tenant's registration
// and first window, with its plans, leave the open-loop schedule for the
// admission list that set-up plays.
func fleetSchedules(seed int64, spec fleetSpec, classes []service.TrafficClass, openDur, closedDur time.Duration) (admit, open, closed []service.Event, err error) {
	cfg := service.TrafficConfig{
		Seed:              seed,
		Tenants:           spec.tenants,
		Classes:           classes,
		MeanRate:          spec.offeredRate / float64(spec.tenants),
		Duration:          2 * openDur.Seconds(), // headroom for pace
		ProbesPerWindow:   spec.probes,
		Noise:             obsNoise,
		PlansPerWindow:    spec.plansPerWindow,
		PlanLevels:        spec.planLevels,
		RegisterOnArrival: true,
	}
	open, err = service.GenerateTraffic(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.admitInSetup {
		admit, open = admission(open)
	}
	if open, err = pace(open, spec.offeredRate, openDur.Seconds()); err != nil {
		return nil, nil, nil, err
	}
	// The same tenants (re-registering idempotently) on a fresh stream of
	// windows.
	cfg.Seed = seed ^ 0x5eed
	cfg.MeanRate = spec.closedCap / float64(spec.tenants)
	cfg.Duration = closedDur.Seconds()
	closed, err = service.GenerateTraffic(cfg)
	return admit, open, closed, err
}

// admission splits each tenant's registration and first window, with the
// plans that follow it, off a schedule.
func admission(events []service.Event) (admit, rest []service.Event) {
	windows := map[string]int{}
	for _, ev := range events {
		seen := windows[ev.Tenant]
		if ev.Kind == service.EvObserve {
			windows[ev.Tenant]++
		}
		if seen == 0 || ev.Kind == service.EvPlan && seen == 1 {
			admit = append(admit, ev)
		} else {
			rest = append(rest, ev)
		}
	}
	return admit, rest
}

// pace re-times an open-loop schedule to a constant rate: the k-th window
// is due at k/rate seconds, with the plans that follow it and, for a
// tenant's first window, its registration; windows past span are dropped.
// Which tenant sends the k-th window, and what it reports and asks, still
// come from the seeded Poisson schedule. At a constant rate below capacity
// no window arrives while an earlier one is still being served, so
// open-loop latency reads service time at a fixed load. Under Poisson
// arrivals whether the median or the tail fell among the windows that
// queued changed from seed to seed, and the latencies spread by a third.
func pace(events []service.Event, rate, span float64) ([]service.Event, error) {
	var out []service.Event
	slot := 0
	for _, ev := range events {
		switch ev.Kind {
		case service.EvRegister:
			ev.At = float64(slot) / rate
		case service.EvObserve:
			ev.At = float64(slot) / rate
			slot++
		case service.EvPlan:
			ev.At = float64(slot-1) / rate
		}
		if ev.At >= span {
			return out, nil
		}
		out = append(out, ev)
	}
	return nil, fmt.Errorf("schedule holds %d windows, %g s at %g windows/s needs more", slot, span, rate)
}

// donorName is the k-th candidate name for a class's seed donor.
func donorName(class string, k int) string { return fmt.Sprintf("donor-%s-%03d", class, k) }

// donorSeed fixes the donor windows: capturing the class seeds is part of
// deploying the server, the same for every traffic seed.
const donorSeed = 0x5eed

// donorEvents lists, for every shard and class, one donor tenant whose name
// hashes onto that shard and its single window — the once-per-deployment
// cold fit that captures the shard's class seed.
func donorEvents(spec fleetSpec, n int, truths map[string]truth, shards int) []service.Event {
	var out []service.Event
	for _, class := range spec.classes {
		covered := make([]bool, shards)
		for k, left := 0, shards; left > 0; k++ {
			name := donorName(class, k)
			sh := int(stream.Hash64(name) % uint64(shards))
			if covered[sh] {
				continue
			}
			covered[sh] = true
			left--
			rng := rand.New(rand.NewSource(stream.TenantSeed(donorSeed, name)))
			mask := profile.RandomMask(n, spec.probes, rng)
			perf := profile.Observe(truths[class].perf, mask, obsNoise, rng)
			power := profile.Observe(truths[class].power, mask, obsNoise, rng)
			out = append(out,
				service.Event{Kind: service.EvRegister, Tenant: name, Class: class},
				service.Event{Kind: service.EvObserve, Tenant: name, Class: class, ObsIdx: mask, Perf: perf.Values, Power: power.Values})
		}
	}
	return out
}

// seedDonors registers every donor and sends its window, one call at a
// time, so that each cold fit, timed as calibrate_s, has the server to
// itself; two at once on two shards made the median swing by a fifth from
// run to run.
func seedDonors(base string, spec fleetSpec, n int, truths map[string]truth, shards int) []*call {
	calls := buildCalls(donorEvents(spec, n, truths, shards), 1)
	runPhase(base, calls, false, 0, time.Hour)
	return calls[0]
}

// byScheduleTime merges an open-loop slice's connections into schedule
// order. Tenants are independent once their shard's class seed exists, and
// a tenant's calls all travel on one connection, so the stable sort keeps
// every tenant's order.
func byScheduleTime(conns [][]*call) []*call {
	var all []*call
	for _, cs := range conns {
		all = append(all, cs...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
	return all
}

// fleetLadder is the in-process mirror of one fleet run.
type fleetLadder struct {
	n       int
	shards  int
	classes map[string]*ladderClass
	seeds   map[seedKey]*classSeed
	journal bool // mirror the server's per-shard journals
	coldMS  []float64
	iters   []int
}

// newFleetLadder builds the classes' priors exactly as the server does and
// replays the donor windows to capture the same class seeds.
func newFleetLadder(space platform.Space, spec fleetSpec, truths map[string]truth, donors []*call) (*fleetLadder, error) {
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		return nil, err
	}
	fl := &fleetLadder{n: space.N(), classes: map[string]*ladderClass{}, seeds: map[seedKey]*classSeed{}, journal: spec.durable}
	for _, name := range spec.classes {
		idx, err := db.AppIndex(name)
		if err != nil {
			return nil, err
		}
		rest, _, _, err := db.LeaveOneOut(idx)
		if err != nil {
			return nil, err
		}
		perfPrior, err := core.NewPrior(rest.Perf, core.Options{LeanResults: true})
		if err != nil {
			return nil, err
		}
		powerPrior, err := core.NewPrior(rest.Power, core.Options{LeanResults: true})
		if err != nil {
			return nil, err
		}
		tiers, err := service.StandardLadder(space, perfPrior, powerPrior, rest.Perf, rest.Power)
		if err != nil {
			return nil, err
		}
		fl.classes[name] = &ladderClass{name: name, tier: tiers[0], idle: truths[name].idle}
	}
	// The donors' shard count is the server's; recover it from the donor
	// names (one donor per shard and class).
	fl.shards = len(donors) / 2 / len(spec.classes)
	defer warmPools(fl.classes, (spec.tenants+len(spec.classes)-1)/len(spec.classes))
	tr := newTracer(spanCapacity(donors))
	l := newLadder(fl.n, fl.shards, fl.classes, fl.seeds, tr)
	defer l.close()
	for _, c := range donors {
		switch c.ev.Kind {
		case service.EvRegister:
			if _, err := l.register(c.ev.Tenant, c.ev.Class); err != nil {
				return nil, err
			}
		case service.EvObserve:
			if err := l.observe(l.tenants[c.ev.Tenant], c.ev.ObsIdx, c.ev.Perf, c.ev.Power); err != nil {
				return nil, fmt.Errorf("ladder donor %s: %w", c.ev.Tenant, err)
			}
		}
	}
	for _, d := range tr.durations()["core.fit_cold"] {
		fl.coldMS = append(fl.coldMS, ms(d))
	}
	fl.iters = l.coldIters
	return fl, nil
}

// warmPools draws count session pairs per class and releases them, so the
// priors' free lists hold recycled workspaces before the first timed pass,
// as they do for every later pass.
func warmPools(classes map[string]*ladderClass, count int) {
	for _, cl := range classes {
		var held []baseline.Session
		for i := 0; i < count; i++ {
			for _, est := range []baseline.Estimator{cl.tier.Perf, cl.tier.Power} {
				s, err := est.NewSession(context.Background())
				if err != nil {
					fatalf("warming session pool: %v", err)
				}
				held = append(held, s)
			}
		}
		for _, s := range held {
			baseline.ReleaseSession(s)
		}
	}
}

// spanCapacity bounds the spans a replay of calls records: a window's root,
// filter, fit, two fit passes, validate, append and sanitize; a plan's root,
// planner build and minimization.
func spanCapacity(calls []*call) int {
	n := 0
	for _, c := range calls {
		switch c.ev.Kind {
		case service.EvObserve:
			n += 8
		case service.EvPlan:
			n += 3
		}
	}
	return n
}

// replayed is what the ladder did for one call: the window count after an
// observe, or the plan it computes for a plan request.
type replayed struct {
	observed bool
	windows  int
	want     *pareto.Plan
	gen      uint64
}

// replay runs every issued traffic call through a fresh ladder, timing the
// pass, then checks each served rung-0 plan against the ladder's. Replies
// are decoded before the pass and compared after it, so the timed pass runs
// only the ladder.
func (fl *fleetLadder) replay(calls []*call, tr *tracer, journalDir string, chk *checker) (ladderCounts, time.Duration, error) {
	replies := make([]observeReply, len(calls))
	for i, c := range calls {
		if c.ok() && c.ev.Kind == service.EvObserve && json.Unmarshal(c.reply, &replies[i]) != nil {
			replies[i] = observeReply{}
		}
	}
	out := make([]replayed, len(calls))
	l := newLadder(fl.n, fl.shards, fl.classes, fl.seeds, tr)
	defer l.close()
	if fl.journal {
		if err := l.openStores(journalDir); err != nil {
			return ladderCounts{}, 0, err
		}
	}
	runtime.GC()
	start := time.Now()
	broken := map[string]bool{} // tenants whose server state the ladder cannot mirror
	for i, c := range calls {
		name := c.ev.Tenant
		if !c.issued || broken[name] {
			continue
		}
		if !c.ok() {
			if c.ev.Kind != service.EvPlan {
				broken[name] = true
			}
			continue
		}
		switch c.ev.Kind {
		case service.EvRegister:
			if _, err := l.register(name, c.ev.Class); err != nil {
				return ladderCounts{}, 0, err
			}
		case service.EvObserve:
			if rep := &replies[i]; rep.Shed || rep.Rung != "LEO" {
				broken[name] = true
				continue
			}
			t := l.tenants[name]
			if err := l.observe(t, c.ev.ObsIdx, c.ev.Perf, c.ev.Power); err != nil {
				chk.fail("ladder rejected window %d of %s that the server accepted: %v", c.win, name, err)
				broken[name] = true
				continue
			}
			out[i] = replayed{observed: true, windows: t.fitWindows}
		case service.EvPlan:
			t := l.tenants[name]
			want, err := l.plan(t, c.ev.Work, c.ev.Deadline)
			if err != nil {
				chk.fail("ladder could not plan %s window %d: %v", name, c.win, err)
				continue
			}
			out[i] = replayed{want: want, gen: t.gen}
		}
	}
	elapsed := time.Since(start)
	for i, c := range calls {
		switch r := out[i]; {
		case r.observed:
			if w := replies[i].Windows; w == nil || *w != r.windows {
				chk.fail("%s window %d: server reports %v windows, ladder %d", c.ev.Tenant, c.win, w, r.windows)
			}
		case r.want != nil:
			chk.compare(c, r.want, r.gen)
		}
	}
	return l.ladderCounts, elapsed, nil
}

func mustDir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("creating %s: %v", dir, err)
	}
	return dir
}

// writeTrace saves a traced pass's spans under the work directory.
func writeTrace(o options, workload string, tr *tracer) error {
	dir := mustDir(filepath.Join(o.workDir, "traces"))
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, o.seed)))
}

package main

import (
	"encoding/json"
	"fmt"
	"math"

	"leo/internal/pareto"
	"leo/internal/service"
)

// observeReply and planReply are the server's 2xx bodies.
type observeReply struct {
	Windows *int   `json:"windows"`
	Dropped *int   `json:"dropped"`
	Rung    string `json:"rung"`
	Shed    bool   `json:"shed"`
}

type planReply struct {
	Allocations []pareto.Allocation `json:"allocations"`
	IdleTime    *float64            `json:"idle_time"`
	Energy      *float64            `json:"energy"`
	Rate        *float64            `json:"rate"`
	Rung        string              `json:"rung"`
	Gen         *uint64             `json:"gen"`
}

// checker applies the output checks and scores served plans against the
// oracle on the true surfaces.
type checker struct {
	truths   map[string]truth
	problems []string

	badBodies    int64 // 2xx replies with an incomplete or malformed body
	compared     int   // rung-0 plans compared with the ladder
	mismatches   int
	plansChecked int
	plansMet     int
	energyRatios []float64
}

func newChecker(truths map[string]truth) *checker { return &checker{truths: truths} }

func (k *checker) fail(format string, args ...any) {
	k.problems = append(k.problems, fmt.Sprintf(format, args...))
}

// inspect checks one call's 2xx body: complete, finite energy and rate,
// allocation times within the deadline. Plans are scored against the
// oracle: true energy over the oracle's, and whether the true work meets
// the demand.
func (k *checker) inspect(c *call) {
	if !c.ok() {
		return
	}
	switch c.ev.Kind {
	case service.EvObserve:
		var rep observeReply
		if err := json.Unmarshal(c.reply, &rep); err != nil || rep.Windows == nil || rep.Dropped == nil || rep.Rung == "" {
			k.badBodies++
			k.fail("observe %s window %d: incomplete body %q", c.ev.Tenant, c.win, c.reply)
		}
	case service.EvPlan:
		var rep planReply
		if err := json.Unmarshal(c.reply, &rep); err != nil || rep.Energy == nil || rep.Rate == nil ||
			rep.IdleTime == nil || rep.Gen == nil || rep.Rung == "" || len(rep.Allocations) == 0 {
			k.badBodies++
			k.fail("plan %s window %d: incomplete body %q", c.ev.Tenant, c.win, c.reply)
			return
		}
		plan := rep.plan()
		if !finite(plan.Energy) || !finite(plan.Rate) {
			k.fail("plan %s window %d: non-finite energy %g or rate %g", c.ev.Tenant, c.win, plan.Energy, plan.Rate)
			return
		}
		total := 0.0
		for _, a := range plan.Allocations {
			total += a.Time
		}
		if total > c.ev.Deadline*(1+1e-12) {
			k.fail("plan %s window %d: allocations take %g s, deadline %g s", c.ev.Tenant, c.win, total, c.ev.Deadline)
		}
		tr := k.truths[c.ev.Class]
		oracle, err := pareto.MinimizeEnergy(tr.perf, tr.power, tr.idle, c.ev.Work, c.ev.Deadline)
		if err != nil {
			k.fail("oracle cannot meet %s demand %g in %g s: %v", c.ev.Class, c.ev.Work, c.ev.Deadline, err)
			return
		}
		k.plansChecked++
		if plan.Work(tr.perf) >= c.ev.Work*(1-1e-9) {
			k.plansMet++
		}
		k.energyRatios = append(k.energyRatios, plan.TrueEnergy(tr.power, tr.idle)/oracle.Energy)
	}
}

// compare requires a served plan to equal the ladder's bit for bit, with
// the rung-0 tier name and the tenant's estimates generation.
func (k *checker) compare(c *call, want *pareto.Plan, gen uint64) {
	var rep planReply
	if json.Unmarshal(c.reply, &rep) != nil || rep.Energy == nil {
		return // already reported by inspect
	}
	k.compared++
	got := rep.plan()
	same := rep.Rung == "LEO" && rep.Gen != nil && *rep.Gen == gen &&
		len(got.Allocations) == len(want.Allocations) &&
		sameBits(got.IdleTime, want.IdleTime) && sameBits(got.Energy, want.Energy) && sameBits(got.Rate, want.Rate)
	for i := 0; same && i < len(got.Allocations); i++ {
		same = got.Allocations[i].Index == want.Allocations[i].Index &&
			sameBits(got.Allocations[i].Time, want.Allocations[i].Time)
	}
	if !same {
		k.mismatches++
		k.fail("plan %s window %d work=%g: served %s gen=%v, ladder %+v gen=%d", c.ev.Tenant, c.win, c.ev.Work, c.reply, rep.Gen, *want, gen)
	}
}

func (r planReply) plan() *pareto.Plan {
	return &pareto.Plan{Allocations: r.Allocations, IdleTime: *r.IdleTime, Energy: *r.Energy, Rate: *r.Rate}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"leo/internal/service"
	"leo/internal/stream"
)

// The load generator: one goroutine per connection, each tenant pinned to
// one connection so a tenant's plans always follow its own window. Request
// bodies are encoded before a phase starts, and replies are only copied
// during it; parsing and checking happen after the clock stops.

// maxRetries bounds how often a 429 is retried after its Retry-After wait;
// a request still refused after that counts as failed.
const maxRetries = 3

// call is one request of a phase with its outcome.
type call struct {
	ev  service.Event
	win int // the tenant's window ordinal: this window, or the one a plan follows

	method, url string
	body        []byte
	at          time.Duration // scheduled offset from the phase start (open loop)

	issued  bool
	status  int
	reply   []byte
	err     error
	retries int
	round   int           // the measurement round it was issued in
	due     time.Duration // when it was due, from the phase start
	sent    time.Duration
	done    time.Duration
	late    time.Duration // generator lateness: sent minus when it could have been sent
}

func (c *call) ok() bool { return c.issued && c.err == nil && c.status/100 == 2 }

// latency is completion minus due time.
func (c *call) latency() time.Duration { return c.done - c.due }

// buildCalls encodes a schedule into per-connection call lists.
func buildCalls(events []service.Event, conns int) [][]*call {
	out := make([][]*call, conns)
	wins := map[string]int{}
	for _, ev := range events {
		c := &call{ev: ev, at: time.Duration(ev.At * float64(time.Second))}
		switch ev.Kind {
		case service.EvRegister:
			c.method, c.url = http.MethodPost, "/v1/register"
			c.body, _ = json.Marshal(map[string]any{"tenant": ev.Tenant, "class": ev.Class})
		case service.EvObserve:
			c.win = wins[ev.Tenant]
			wins[ev.Tenant]++
			c.method, c.url = http.MethodPost, "/v1/observe"
			c.body, _ = json.Marshal(map[string]any{
				"tenant": ev.Tenant, "obs_idx": ev.ObsIdx, "perf": ev.Perf, "power": ev.Power,
			})
		case service.EvPlan:
			c.win = wins[ev.Tenant] - 1
			c.method = http.MethodGet
			c.url = "/v1/plan?tenant=" + ev.Tenant +
				"&work=" + strconv.FormatFloat(ev.Work, 'g', -1, 64) +
				"&deadline=" + strconv.FormatFloat(ev.Deadline, 'g', -1, 64)
		}
		k := int(stream.Hash64(ev.Tenant) % uint64(conns))
		out[k] = append(out[k], c)
	}
	return out
}

// runPhase issues every connection's calls and returns once all have
// returned. Open loop: each window (and registration) is due at its
// scheduled time minus from, whatever the server does, and a plan is due
// when its tenant's previous call returned — a tenant asks for its plans
// once its window is accepted. Closed loop: calls go back to back, and no
// new call starts after limit. Returns the phase's wall time.
func runPhase(base string, conns [][]*call, open bool, from, limit time.Duration) time.Duration {
	// Keep the generator's own collections out of the measurement (collect
	// now, then only if its heap passes 1 GiB), and keep it on one processor
	// so its idle scheduler does not spin against the server's.
	runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	var wg sync.WaitGroup
	for _, calls := range conns {
		wg.Add(1)
		go func(calls []*call) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 120 * time.Second}
			var prevDone time.Duration
			for _, c := range calls {
				ready := prevDone
				if open {
					c.due = c.at - from
					if c.ev.Kind == service.EvPlan && prevDone > c.due {
						c.due = prevDone
					}
					if c.due > ready {
						ready = c.due
					}
					if wait := c.due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
				} else if time.Since(start) >= limit {
					return
				}
				c.sent = time.Since(start)
				if !open {
					c.due = c.sent
				}
				c.late = c.sent - ready
				c.issued = true
				issue(client, base, c)
				c.done = time.Since(start)
				prevDone = c.done
			}
		}(calls)
	}
	wg.Wait()
	return time.Since(start)
}

// issue performs one call, honouring Retry-After on 429 up to maxRetries.
// The reply body must arrive complete; a short body is a failure.
func issue(client *http.Client, base string, c *call) {
	for {
		req, err := http.NewRequest(c.method, base+c.url, bytes.NewReader(c.body))
		if err != nil {
			c.err = err
			return
		}
		if c.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			c.err = err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.status = resp.StatusCode
		if err != nil {
			c.err = fmt.Errorf("reading reply: %w", err)
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests && c.retries < maxRetries {
			c.retries++
			wait, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || wait < 0 {
				wait = 1
			}
			time.Sleep(time.Duration(wait) * time.Second)
			continue
		}
		c.reply = body
		return
	}
}

// phaseCounts summarizes one phase for the per-phase report.
type phaseCounts struct {
	attempted, succeeded, failed int64
}

func countPhase(conns [][]*call) phaseCounts {
	var pc phaseCounts
	for _, calls := range conns {
		for _, c := range calls {
			if !c.issued {
				continue
			}
			pc.attempted++
			if c.ok() {
				pc.succeeded++
			} else {
				pc.failed++
			}
		}
	}
	return pc
}

// roundSeconds is the length of one measurement round: an open-loop slice
// followed by a closed-loop slice. The host's speed drifts from second to
// second, so a run interleaves many short rounds, and both phases sample
// the whole run instead of each owning one part of it.
const roundSeconds = 2.5

// rounds is how many rounds a run of the given length measures.
func rounds(seconds float64) int {
	return max(1, int(math.Round(seconds/roundSeconds)))
}

// maxStealPct is the most CPU time, in percent, the hypervisor may steal
// during a round that counts. On a shared host a few runs in ten lose a
// fifth of their CPU time to other guests for a while; a round in which
// that happened measured another machine, and is played again.
const maxStealPct = 5.0

// maxRounds bounds the rounds a run plays: half as many again as it
// measures.
func maxRounds(seconds float64) int {
	return rounds(seconds) * 3 / 2
}

// openSlice returns each connection's calls scheduled in [from, to), in
// order. A connection's calls are sorted by schedule time.
func openSlice(conns [][]*call, from, to time.Duration) [][]*call {
	out := make([][]*call, len(conns))
	for k, calls := range conns {
		lo := sort.Search(len(calls), func(i int) bool { return calls[i].at >= from })
		hi := sort.Search(len(calls), func(i int) bool { return calls[i].at >= to })
		out[k] = calls[lo:hi]
	}
	return out
}

// pending returns each connection's calls not yet issued; a closed-loop
// slice resumes where the previous one stopped.
func pending(conns [][]*call) [][]*call {
	out := make([][]*call, len(conns))
	for k, calls := range conns {
		i := sort.Search(len(calls), func(i int) bool { return !calls[i].issued })
		out[k] = calls[i:]
	}
	return out
}

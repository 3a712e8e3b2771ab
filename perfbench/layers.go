package main

import (
	"math"
	"math/rand"
	"time"

	"leo/internal/matrix"
)

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// ladderRun is what the traced ladder measured, plus the untraced pass it
// is compared with.
type ladderRun struct {
	tr        *tracer
	stats     ladderCounts
	coldMS    []float64 // cold fits, one per metric
	coldIters []int
	observeMS float64 // the end-to-end observe median the ladder explains
	untraced  time.Duration
	traced    time.Duration
}

// setLadderMetrics reports per-call medians of each layer's spans, the
// layers' self time per window, the residual of the observe path that the
// ladder does not cover, and the tracing overhead.
func setLadderMetrics(r report, lr ladderRun) {
	d := lr.tr.durations()
	r.set("control.filter_window_us", median(usOf(d["control.filter_window"])))
	r.set("control.validate_us", median(usOf(d["control.validate"])))
	r.set("control.fit_window_ms", median(msOf(d["control.fit_window"])))
	r.set("core.fit_batch_ms", median(msOf(append(d["core.fit_batch"], d["core.fit_cold"]...))))
	r.set("core.fit_cold_ms", median(lr.coldMS))
	r.set("core.em_iterations", meanInts(lr.coldIters))
	r.set("persist.append_ms", median(msOf(d["persist.append"])))
	bytesPer := 0.0
	if lr.stats.appends > 0 {
		bytesPer = float64(lr.stats.appendBytes) / float64(lr.stats.appends)
	}
	r.set("persist.append_bytes", bytesPer)
	r.set("pareto.planner_build_us", median(usOf(d["pareto.new_planner"])))
	r.set("pareto.minimize_us", median(usOf(d["pareto.minimize"])))
	hull := make([]float64, len(lr.stats.hullPoints))
	for i, h := range lr.stats.hullPoints {
		hull[i] = float64(h)
	}
	r.set("pareto.hull_points", median(hull))
	sum := median(msOf(d["ladder.window"]))
	r.set("ladder.observe_sum_ms", sum)
	r.set("ladder.observe_residual_ms", lr.observeMS-sum)
	self, alloc := lr.tr.selfByLayer()
	windows := math.Max(float64(lr.stats.windows), 1)
	r.set("ladder.control_self_ms", ms(self["control"])/windows)
	r.set("ladder.core_self_ms", ms(self["core"])/windows)
	r.set("ladder.persist_self_ms", ms(self["persist"])/windows)
	r.set("ladder.pareto_self_ms", ms(self["pareto"])/windows)
	// Heap bytes allocated inside the layer calls only: the ladder's own
	// bookkeeping (its "ladder" spans) is left out.
	r.set("go.alloc_bytes_per_window", float64(alloc["control"]+alloc["core"]+alloc["persist"]+alloc["pareto"])/windows)
	r.set("trace.overhead_pct", 100*float64(lr.traced-lr.untraced)/float64(lr.untraced))
	logf("ladder: windows=%d plans=%d plan-cache hits=%d; observe sum %.4f ms vs end-to-end %.4f ms",
		lr.stats.windows, lr.stats.plans, lr.stats.hits, sum, lr.observeMS)
}

// kernelReps is how many times each kernel is timed; the median is kept.
const kernelReps = 5

// setKernelMetrics times the matrix kernels behind every EM iteration at
// the workload's size: an n×n Cholesky factorization and the rank-k SYRK
// of the k probed configurations, each with its computed flop count.
func setKernelMetrics(r report, n, k int) {
	// A = VVᵀ + n·I for a random n×k V: symmetric positive definite with
	// entries of ordinary magnitude (no subnormals to slow the kernels).
	rng := rand.New(rand.NewSource(1))
	v := matrix.New(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			v.Set(i, j, rng.NormFloat64())
		}
	}
	a := matrix.New(n, n)
	matrix.SyrkInto(a, 1, v)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	ch := matrix.NewCholeskyWorkspace(n)
	var chol []float64
	for i := 0; i < kernelReps; i++ {
		start := time.Now()
		if err := ch.Factorize(a); err != nil {
			fatalf("cholesky: %v", err)
		}
		chol = append(chol, ms(time.Since(start)))
	}
	dst := matrix.New(n, n)
	var syrk []float64
	for i := 0; i < kernelReps; i++ {
		start := time.Now()
		matrix.SyrkInto(dst, 1, v)
		syrk = append(syrk, ms(time.Since(start)))
	}
	fn := float64(n)
	r.set("matrix.cholesky_ms", median(chol))
	r.set("matrix.cholesky_gflop", fn*fn*fn/3/1e9)
	r.set("matrix.syrk_ms", median(syrk))
	r.set("matrix.syrk_gflop", fn*(fn+1)*float64(k)/1e9)
}
